"""Mean families: logarithmic and arithmetic-geometric anchors, the
normalizing constant, agreement of every representation of M_p and K_p, the
binary-mean axioms, and the ordering across p = 1."""

import math
import random
import sys
from pathlib import Path

import pytest

from pqelliptic import means
from pqelliptic.means import (
    _KP_ROUTES,
    _MP_ROUTES,
    MeanOrdering,
    _hyp_quad,
    _mean_kp,
    _mean_mp,
    c_p,
    mean_ag,
    mean_kp,
    mean_log,
    mean_mp,
    ordering,
)
from pqelliptic.numerics import HypSeriesSpec, _connection_domain, beta, hyp2f1, integrate_halfline
from pqelliptic.suites import _route_cases

MP_METHODS = tuple(_MP_ROUTES)
KP_METHODS = tuple(_KP_ROUTES)
# the grid on which every pair of routes of distinct classes must agree
ROUTE_GRID = [(p, i / 10.0) for p in (0.25, 0.5, 1.5, 2.0, 3.0, 5.0) for i in range(1, 10)]


# ----------------------------------------------------------------- mean_log


def test_log_mean_values():
    assert mean_log(3.7, 3.7) == 3.7
    assert math.isclose(mean_log(math.e, 1.0), math.e - 1.0, rel_tol=1e-14)
    assert math.isclose(mean_log(4.0, 1.0), 3.0 / math.log(4.0), rel_tol=1e-14)


def test_log_mean_integral_expression():
    for a, b in ((2.0, 1.0), (5.0, 0.5), (1.3, 1.2)):
        oracle = 1.0 / integrate_halfline(lambda t: 1.0 / ((t + a) * (t + b)), 1e-13).value
        assert math.isclose(mean_log(a, b), oracle, rel_tol=1e-12)


def test_log_mean_of_nearby_distinct_pairs():
    # pairs within 1e-12 used to return a, up to 5e-14 off; only hi == lo does now
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for a, rel in ((2.0, 1e-13), (2.0, 1e-12), (1.0, 2.0**-52), (3e-300, 7e-13)):
            b = a * (1.0 + rel)
            ma, mb = mpmath.mpf(a), mpmath.mpf(b)
            ref = (mb - ma) / (mpmath.log(mb) - mpmath.log(ma))
            assert abs(mpmath.mpf(mean_log(a, b)) / ref - 1) <= 4e-16, (a, rel)


def test_log_mean_domain():
    for a, b in ((0.0, 1.0), (-1.0, 2.0), (1.0, math.inf)):
        with pytest.raises(ValueError):
            mean_log(a, b)


# ------------------------------------------------------------------ mean_ag


def test_ag_fixed_point_and_bounds():
    assert mean_ag(2.5, 2.5) == 2.5
    for x in (0.1, 0.4, 0.8):
        ag = mean_ag(1.0, x)
        assert math.sqrt(x) <= ag <= 0.5 * (1.0 + x)


def test_ag_gauss_integral():
    for a, b in ((math.sqrt(2.0), 1.0), (2.0, 0.5)):
        oracle = 1.0 / (
            (2.0 / math.pi)
            * integrate_halfline(
                lambda t: 1.0 / math.sqrt((t * t + a * a) * (t * t + b * b)), 1e-13
            ).value
        )
        assert abs(mean_ag(a, b) - oracle) <= 1e-12


# ---------------------------------------------------------------------- c_p


def test_c_p_values():
    assert math.isclose(c_p(2.0), 2.0 / math.pi, rel_tol=1e-13)
    assert c_p(1.0) == 1.0  # B(1, 1) = 1 exactly through the log-gamma route

    def f(t):  # (1 + t^3)^(-2/3), folded so t^3 cannot overflow
        if t > 1e100:
            return t**-2.0
        return (1.0 + t**3) ** (-2.0 / 3.0)

    oracle = 1.0 / integrate_halfline(f, 1e-12).value
    assert math.isclose(c_p(3.0), oracle, rel_tol=1e-10)


def test_c_p_domain():
    for bad in (0.0, -1.0, math.inf):
        with pytest.raises(ValueError):
            c_p(bad)


@pytest.mark.parametrize(
    "call",
    [lambda: c_p(1e308), lambda: mean_mp(1.0, 0.5, 1e308), lambda: ordering(1.0, 0.5, 1e308)],
    ids=["c_p", "mean_mp", "ordering"],
)
def test_beta_overflow_raises_value_error(call):
    # B(1e-308, 1e-308) ~ 2e308 leaves the double range: all three raised
    # OverflowError from exp
    with pytest.raises(ValueError, match=r"^beta overflows at \(1e-308, 1e-308\)$"):
        call()


# ------------------------------------------------------------------ mean_mp


def test_mp_limits_and_fixed_points():
    assert mean_mp(4.0, 1.0, 0.0) == 2.0  # sqrt(ab)
    assert mean_mp(4.0, 1.0, 1.0) == mean_log(4.0, 1.0)
    for p in (0.5, 1.0, 2.0, 3.0):
        assert mean_mp(1.0, 1.0, p) == 1.0
        assert mean_mp(2.5, 2.5, p) == 2.5


def test_mp_recovers_agm():
    for x in (0.1, 0.3, 0.5, 0.7, 0.9):
        assert abs(mean_mp(1.0, x, 2.0) - mean_ag(1.0, x)) <= 1e-10


def test_mp_methods_agree():
    cases = _route_cases("M_p", ROUTE_GRID)
    assert [c for c in cases if not c.passed] == []


def test_mp_elliptic_vs_integral_agree():
    d = abs(1.0 / mean_mp(1.0, 0.5, 3.0, "elliptic") - 1.0 / mean_mp(1.0, 0.5, 3.0, "integral"))
    assert d <= 1e-9


def _oracle():
    """perfbench's 30-digit references (mpmath), as its own tests import them."""
    pytest.importorskip("mpmath")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import oracle

    return oracle


@pytest.mark.parametrize("x, p", [(1e-6, 3.0), (1e-30, 0.5), (1e-6, 1.5), (0.01, 5.0)])
def test_mp_elliptic_takes_the_exact_pair(x, p):
    # K_{p*,p} took a rounded k = (1 - x^p)^(1/p): the first raised "modulus k
    # must lie in [0, 1)", the other three were 5e-7 to 2.5e-9 off
    ref = _oracle().reference("mean_mp", (1.0, x, p))
    v = mean_mp(1.0, x, p, "elliptic")
    assert abs(v - ref.value) <= 1e-9 * ref.value


def test_mp_elliptic_out_of_range_raises_value_error():
    # x^p underflowing to 0 leaves no log x^p for the connection sum; at the
    # other three x^p > 1/2, where K_{p*,p} took its Gauss series
    for x, p in ((1e-300, 5.0), (0.5, 1e-3), (0.999999, 0.01), (0.5, 2e-3)):
        with pytest.raises(ValueError, match="^elliptic route requires x\\^p in the normal range"):
            mean_mp(1.0, x, p, "elliptic")


def _elliptic_sample(seed, n):
    """n seeded points (p, x) that the elliptic route admits: p log-uniform
    in (0.012, 1e17), below which no double x is admitted, and x^p below the
    domain's top min(1/2, p^2) by a log-uniform factor, down to the normal
    range."""
    rng = random.Random(seed)
    points = []
    while len(points) < n:
        p = math.exp(rng.uniform(math.log(0.012), math.log(1e17)))
        top = min(0.5, p * p)
        below = math.exp(rng.uniform(math.log(1e-6), math.log(math.log(top / sys.float_info.min))))
        x = math.exp((math.log(top) - below) / p)
        xp = x**p  # x = 0 and x = 1 are refused here
        if xp >= sys.float_info.min and _connection_domain(1.0 / p, 1.0 / p, 0, xp):
            points.append((p, x))
    return points


def test_mp_elliptic_is_accurate_on_its_domain():
    # K_{p*,p}'s auto at PQParams(p/(p - 1), p) lost about p eps to the
    # conjugate, and summed hyp_base's own series at most points; at
    # 1,000 admitted points the route is within abs_err of mpmath and within
    # 1e-13 relative beyond B(1/p, 1/p)'s own rounding, which reaches
    # 1.5e-13 below p = 0.02 (the lgamma sum of _beta_rel)
    oracle = _oracle()
    mpmath, recip = oracle.mpmath, oracle._recip_mp
    for p, x in _elliptic_sample(20, 1000):
        r = _mean_mp(1.0, x, p, "elliptic")
        with mpmath.workdps(40):
            ref = 1 / recip(p, x)
            a = 1 / mpmath.mpf(p)
            b_err = abs(beta(1.0 / p, 1.0 / p) / mpmath.beta(a, a) - 1)
            err = abs(r.value - ref)
            assert err <= r.abs_err, (p, x, r)
            assert err <= (1e-13 + b_err) * ref, (p, x, r)


@pytest.mark.parametrize(
    "x, p",
    [(0.9995987562517036, 3000.0), (0.9999995986758125, 3e6), (0.9999999999999988, 1e15),
     (1.0 - 2.0**-53, 1e16)],
)
def test_mp_elliptic_forms_no_conjugate(x, p):
    # x^p = 0.3; the route ran K_{p*,p} at PQParams(p/(p - 1), p): the
    # first two were 1.2e-13 and 6.3e-11 off (claiming 6.3e-15 and less), the
    # third 5.2 % off, above max(a, b), and the last raised "p must differ
    # from 0 and 1 (conjugate undefined)"
    mpmath = pytest.importorskip("mpmath")
    r = _mean_mp(1.0, x, p, "elliptic")
    with mpmath.workdps(60):
        inv_p = 1 / mpmath.mpf(p)
        ref = 1 / mpmath.hyp2f1(inv_p, inv_p, 2 * inv_p, 1 - mpmath.mpf(x) ** mpmath.mpf(p))
        err = abs(r.value - ref)
        assert err <= r.abs_err and err <= 1e-13 * ref, (r, ref)


def test_mp_near_zero_p():
    # p <= 1e-8 returned sqrt(ab), 3e-4 off at x = 1e-300; the limit now
    # takes over only where it is exact to rounding
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        for x in (1e-300, 1e-30, 0.5):
            for p in (1e-8, 1e-9, 1e-12, 1e-20):
                inv_p = 1 / mpmath.mpf(p)
                ref = 1 / mpmath.hyp2f1(inv_p, inv_p, 2 * inv_p, 1 - mpmath.mpf(x) ** (1 / inv_p))
                v = mean_mp(1.0, x, p)
                assert abs(mpmath.mpf(v) / ref - 1) <= 1e-12, (x, p)
        assert mean_mp(1.0, 1e-300, 2.0**-71) == 1e-150  # the limit, exact to rounding


def test_mp_near_one_continuity():
    for x in (0.2, 0.6):
        l = mean_log(1.0, x)
        assert abs(mean_mp(1.0, x, 1.0 + 1e-5) - l) <= 1e-4
        assert abs(mean_mp(1.0, x, 1.0 - 1e-5) - l) <= 1e-4


def test_mp_domain_and_method_validation():
    with pytest.raises(ValueError):
        mean_mp(1.0, 0.5, -0.5)
    with pytest.raises(ValueError):
        mean_mp(-1.0, 0.5, 2.0)
    with pytest.raises(ValueError):
        mean_mp(1.0, 0.5, 2.0, "magic")


def test_mp_nonfinite_p_rejected():
    for p in (math.inf, -math.inf, math.nan):
        for method in ("auto",) + MP_METHODS:
            for a, b in ((1.0, 0.5), (2.0, 2.0)):
                with pytest.raises(ValueError, match="^mean_mp requires a finite p"):
                    mean_mp(a, b, p, method)


def test_mp_result_names_the_route_that_ran():
    # tests/test_cli.py checks the integral, limit and elliptic labels end to end
    assert _mean_mp(1.0, 0.5, 3.0, "hyp_quad").method == "series"
    assert _mean_mp(1.0, 0.5, 3.0, "integral").method == "quadrature"
    for method in ("auto",) + MP_METHODS:
        r = _mean_mp(1.0, 0.3, 2.5, method)
        assert r.value == mean_mp(1.0, 0.3, 2.5, method)
        assert 0.0 < r.abs_err <= 1e-12 * r.value, (method, r)


def test_mp_quadrature_error_never_below_rounding():
    # two quadrature levels agree exactly here; the floor 4 eps |value| holds
    r = _mean_mp(1.0, 1e-5, 2.0)
    assert r.method == "quadrature"
    assert r.abs_err >= 4.0 * sys.float_info.epsilon * r.value


@pytest.mark.parametrize(
    "x, p, method",
    [(1e-30, 60.0, "auto"), (1e-300, 5.0, "auto"), (1e-100, 30.0, "integral")],
    ids=("mp_1e-30_60", "mp_1e-300_5", "mp_integral_1e-100_30"),
)
def test_mp_integral_where_x_p_underflows(x, p, method):
    # x^p underflows to 0: the half-line integrand raised 0 to -1/p, and the
    # call raised ValueError; over (0, 1) h takes x^p = 0 and k needs only p ln x
    oracle = _oracle()
    r = _mean_mp(1.0, x, p, method)
    with oracle.mpmath.workdps(40):
        ref = 1 / oracle._recip_mp(p, x)
        err = abs(r.value - ref)
        assert err <= r.abs_err and err <= 1e-13 * ref, (r, ref)


def test_mp_integral_at_small_p():
    # the half-line integral, about 1e-301 here, met its absolute tolerance
    # at once and was 6 % off, claiming 1.2 %
    ref = _oracle().reference("mean_mp", (1.0, 0.1, 2e-3)).value
    r = _mean_mp(1.0, 0.1, 2e-3, "integral")
    assert abs(r.value - ref) <= min(r.abs_err, 1e-10 * ref), (r, ref)


def test_mp_integral_work_is_bounded(monkeypatch, mp_work_grid):
    # a deterministic work count: integrand evaluations of the named integral
    # on a fixed grid; the smooth integrand over (0, 1) takes 239 on average
    # and at most 449 with the tail cut (414 and 789 without it), where the
    # half-line integral took 5,740 and 25,140 at the 56 points it returned
    evals = []
    quad = means.integrate_singular

    def counted(f, tol):
        def g(u, uc):
            evals[-1] += 1
            return f(u, uc)

        evals.append(0)
        return quad(g, tol)

    monkeypatch.setattr(means, "integrate_singular", counted)
    for p, x in mp_work_grid:
        mean_mp(1.0, x, p, "integral")
    assert len(evals) == 72
    assert sum(evals) / len(evals) <= 260 and max(evals) <= 490, evals


def test_mp_integral_is_within_its_error_bound():
    # 60 seeded points, p log-uniform in [0.035, 1e3] and -ln x in
    # [1e-9, 690]: the half-line integral raised at 8 of them and was outside
    # abs_err at 2
    oracle = _oracle()
    rng = random.Random(21)
    for _ in range(60):
        p = math.exp(rng.uniform(math.log(0.035), math.log(1e3)))
        x = math.exp(-math.exp(rng.uniform(math.log(1e-9), math.log(690.0))))
        r = _mean_mp(1.0, x, p, "integral")
        ref = oracle.reference("mean_mp", (1.0, x, p)).value
        assert abs(r.value - ref) <= r.abs_err, (p, x, r, ref)


# ------------------------------------------------------------------ mean_kp


def test_kp_closed_form_values():
    assert math.isclose(mean_kp(3.0, 1.0, 2.0), 2.0, rel_tol=1e-14)  # arithmetic mean
    assert mean_kp(2.0, 2.0, 5.0) == 2.0
    assert mean_kp(4.0, 1.0, 1.0) == mean_log(4.0, 1.0)
    l = mean_log(4.0, 1.0)
    assert math.isclose(mean_kp(4.0, 1.0, 0.0), 4.0 / l, rel_tol=1e-14)


def test_kp_negative_p_closed_form():
    # ((p-1)/p)(a^p - b^p)/(a^(p-1) - b^(p-1)) at p = -2, (1, 1/2): 9/14
    assert math.isclose(mean_kp(1.0, 0.5, -2.0), 9.0 / 14.0, rel_tol=1e-13)


def test_kp_methods_agree():
    cases = _route_cases("K_p", ROUTE_GRID)
    assert [c for c in cases if not c.passed] == []


def _kp_ref(mpmath, a, b, p):
    """K_p(a, b) at the working precision; the limits K_0 and K_1 at p = 0
    and 1.  Elsewhere ((p-1)/p)(1 - x^p)/(1 - x^(p-1)), x = min/max, in the
    form whose exponentials all have negative arguments, so that no |p| up to
    the largest double overflows: x^c (1 - e^-|p l|)/(1 - e^-|(p-1) l|)
    |p-1|/|p| times max(a, b), l = ln x, c = clamp(1 - p) in [0, 1]; below
    t = -3000, e^t is under 1e-1300."""
    ma, mb, mp_ = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(p)
    lm = (ma - mb) / (mpmath.log(ma) - mpmath.log(mb))
    if p == 0:
        return ma * mb / lm
    if p == 1:
        return lm
    l = mpmath.log(min(ma, mb)) - mpmath.log(max(ma, mb))

    def one_minus_exp(t):
        return 1 if t < -3000 else -mpmath.expm1(t)

    c = min(1, max(0, 1 - mp_))
    return (max(ma, mb) * abs(mp_ - 1) / abs(mp_) * mpmath.exp(c * l)
            * one_minus_exp(-abs(mp_ * l)) / one_minus_exp(-abs((mp_ - 1) * l)))


def test_kp_near_the_removable_points():
    # the limits took over within 1e-8 of p = 0 and 1, up to 3.4e-6 off
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for a, b in ((4.0, 1.0), (1.0, 1e-300)):
            for p in (1e-9, -1e-9, 1e-8, 3e-11, 1.0 + 1e-9, 1.0 - 1e-9, 1.0 + 1e-15):
                v = mean_kp(a, b, p)
                assert abs(mpmath.mpf(v) / _kp_ref(mpmath, a, b, p) - 1) <= 1e-12, (a, b, p)


@pytest.mark.parametrize(
    "a, b, p",
    [(1.0, 1e-200, -3.0), (1e-200, 1.0, -3.0), (1.0, 1e-300, -31.8), (1.0, 1e-300, 200.0),
     (1.0, 0.5, -50.0), (1.0, 1e-100, 0.999), (1.0, 1e-30, 1.001), (1e300, 1e-5, -7.0),
     (1.0, 1e-300, 1e-20), (1.0, 0.3, 2.0**-70)],
)
def test_kp_closed_form_never_overflows(a, b, p):
    # 1 - x^(p-1) overflowed where (1 - p) |ln x| > 709: the first two raised
    # OverflowError
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        v = mean_kp(a, b, p)
        assert abs(mpmath.mpf(v) / _kp_ref(mpmath, a, b, p) - 1) <= 1e-12


def test_kp_closed_form_at_the_least_subnormal():
    # mean_kp raised OverflowError here, and ordering with it.  K_p is a
    # subnormal near 5.5e-321, so it is checked to 1e-12 absolute; M_p, a
    # normal double, to 1e-12 relative
    mpmath = pytest.importorskip("mpmath")
    v = mean_kp(1.0, 5e-324, 1e-3)
    r = ordering(1.0, 5e-324, 1e-3)
    m = mean_mp(1.0, 5e-324, 1e-3)
    assert 5e-324 <= v <= 1.0 and r.gap == m - v
    with mpmath.workdps(40):
        assert abs(mpmath.mpf(v) - _kp_ref(mpmath, 1.0, 5e-324, 1e-3)) <= 1e-12
        w = mpmath.mpf(5e-324) ** mpmath.mpf(1e-3)
        ref = 1 / mpmath.hyp2f1(1000, 1000, 2000, 1 - w)
        assert abs(mpmath.mpf(m) / ref - 1) <= 1e-12


@pytest.mark.parametrize(
    "a, b, p",
    [(1.0, 5e-324, 1e-3), (2.0**1000, 2.0**1000 * 5e-324, 1e-3), (3.0, 1e-320, 0.5),
     (1.0, 1e-320, 0.999), (7.0, 3e-310, 1e-3), (1e300, 1e-20, -2.0), (1.0, 1e-315, 3.0)],
)
def test_kp_closed_form_where_the_ratio_is_subnormal(a, b, p):
    # min/max is subnormal, so neither x nor x^c may be rounded at the
    # subnormal spacing before a ratio of about 500 scales it up: rounded
    # there, the first two are 5 % off against an abs_err of 4.9e-324 and 4.9e-35
    mpmath = pytest.importorskip("mpmath")
    r = _mean_kp(a, b, p)
    with mpmath.workdps(50):
        ref = _kp_ref(mpmath, a, b, p)
        assert abs(mpmath.mpf(r.value) - ref) <= r.abs_err
        if r.value >= sys.float_info.min:
            assert abs(mpmath.mpf(r.value) / ref - 1) <= 1e-12


def test_kp_closed_form_error_carries_the_rounding_of_c():
    # a rounded c = 1 - p under x^c multiplied that rounding by |ln x| = 690.8:
    # the value was 3.8e-14 off relative; s = clamp(-p) is taken exactly now
    mpmath = pytest.importorskip("mpmath")
    r = _mean_kp(1.0, 1e-300, 0.3)
    with mpmath.workdps(50):
        err = abs(mpmath.mpf(r.value) - _kp_ref(mpmath, 1.0, 1e-300, 0.3))
    assert err <= 2.0 * sys.float_info.epsilon * abs(r.value)
    assert err <= r.abs_err


def _kp_sample(rng, n):
    """n pairs (a, b) with p: scales 10^+-300, x = min/max = e^-u with u up
    to 700, subnormal x and x that underflows to 0; p in (-50, 100), in
    (-1, 1), or log-uniform in |p| from 1e-20 up to 1.7e308, either sign."""
    out = []
    for i in range(n):
        hi = 10.0 ** rng.uniform(-300.0, 300.0)
        kind = i % 4
        if kind == 0:
            lo = hi * math.exp(-rng.uniform(0.0, 700.0))
        elif kind == 1:
            lo = hi * 10.0 ** -rng.uniform(0.0, 16.0)
        elif kind == 2:  # min/max subnormal
            hi = 10.0 ** rng.uniform(-300.0, 308.0)
            lo = hi * 2.0 ** -rng.uniform(1023.0, 1074.0)
        else:  # min/max underflows to 0
            hi = 10.0 ** rng.uniform(10.0, 308.0)
            lo = 10.0 ** rng.uniform(-323.3, -310.0)
        lo = max(lo, 5e-324)
        band = rng.randrange(4)
        if band == 0:
            p = rng.uniform(-50.0, 100.0)
        elif band == 1:
            p = rng.uniform(-1.0, 1.0)
        else:
            p = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-20.0, 308.23)
        out.append((lo, hi, p) if rng.random() < 0.5 else (hi, lo, p))
    return out


def test_kp_closed_form_within_its_error_everywhere():
    # the closed form ran x^c in the normal range, up to eps |c ln x| off,
    # and refused pairs whose ratio underflows to 0; every pair now takes the
    # exact exponent s = clamp(-p), within about 2 eps of a normal result
    mpmath = pytest.importorskip("mpmath")
    eps = sys.float_info.epsilon
    with mpmath.workdps(40):
        for a, b, p in _kp_sample(random.Random(19), 2400):
            r = _mean_kp(a, b, p)
            err = abs(mpmath.mpf(r.value) - _kp_ref(mpmath, a, b, p))
            assert err <= r.abs_err, (a, b, p)
            if r.value >= sys.float_info.min:
                assert err <= 4.0 * eps * r.value, (a, b, p)


def test_k0_is_the_closed_forms_limit():
    # K_0 = ab/L was a second formula on a pair scaled by a power of two,
    # with a fallback where the scaling left the normal range; every
    # |p| <= 2^-71 now takes the closed form's p -> 0 limit
    mpmath = pytest.importorskip("mpmath")
    eps = sys.float_info.epsilon
    pairs = [(1e308, 5e-324), (1e308, 1e-320), (1.7e308, 2e-310), (5e-324, 1e-323)]
    pairs += [(a, b) for a, b, _ in _kp_sample(random.Random(22), 2000) if a != b]
    with mpmath.workdps(50):
        for a, b in pairs:
            ref = _kp_ref(mpmath, a, b, 0.0)
            for p in (0.0, 1e-30, -1e-30, 2.0**-71, -(2.0**-71), 5e-324):
                r = _mean_kp(a, b, p)
                err = abs(mpmath.mpf(r.value) - ref)
                assert err <= r.abs_err, (a, b, p)
                if r.value >= sys.float_info.min:
                    assert err <= 2.0 * eps * r.value, (a, b, p)


@pytest.mark.parametrize(
    "a, b, p, expected",
    [(1.0, 1e-300, -1e306, 1e-300), (1.0, 1e-300, 1e308, 1.0),
     (5e-324, 1e308, 0.5, 2.2227587494850782e-08)],
)
def test_kp_closed_form_where_it_raised(a, b, p, expected):
    # the first two raised ZeroDivisionError: |p l| overflows, so E(t) =
    # expm1(t)/t was -1/-inf = 0 over 0; the last raised ValueError because
    # the ratio 5e-324/1e308 underflows.  K_0.5 = sqrt(ab) there
    assert mean_kp(a, b, p) == expected
    assert mean_kp(b, a, p) == expected


def test_kp_validation():
    with pytest.raises(ValueError):
        mean_kp(0.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        mean_kp(1.0, 2.0, -1.0, "integral")  # integral form needs p > 0
    with pytest.raises(ValueError):
        mean_kp(1.0, 2.0, 2.0, "magic")


def test_kp_nonfinite_p_rejected():
    # the closed form alone used to return nan at p = +-inf
    for p in (math.inf, -math.inf, math.nan):
        for method in KP_METHODS:
            for a, b in ((1.0, 0.5), (2.0, 2.0)):
                with pytest.raises(ValueError, match="^mean_kp requires a finite p"):
                    mean_kp(a, b, p, method)


# ------------------------------------------------------- binary mean axioms


def _sampled_means():
    for p in (0.5, 2.0, 3.0):
        for a, b in ((1.0, 0.2), (3.0, 2.0), (0.7, 0.1)):
            yield p, a, b


def test_means_between_min_and_max():
    for p, a, b in _sampled_means():
        for mean in (mean_mp, mean_kp):
            v = mean(a, b, p)
            assert min(a, b) <= v <= max(a, b), (mean.__name__, p, a, b)


def test_means_symmetric():
    for p, a, b in _sampled_means():
        assert mean_mp(a, b, p) == mean_mp(b, a, p)
        assert mean_kp(a, b, p) == mean_kp(b, a, p)
        assert mean_mp(a, b, p, "integral") == mean_mp(b, a, p, "integral")
        assert mean_kp(a, b, p, "integral") == mean_kp(b, a, p, "integral")


def test_means_homogeneous():
    for p, a, b in _sampled_means():
        for alpha in (0.5, 3.0):
            for mean in (mean_mp, mean_kp):
                v = mean(a, b, p)
                va = mean(alpha * a, alpha * b, p)
                assert abs(va - alpha * v) <= 1e-12 * max(1.0, alpha * v)


def test_means_monotone_in_each_argument():
    bs = [0.2 + 0.2 * i for i in range(5)]
    for p in (0.5, 2.0, 3.0):
        for mean in (mean_mp, mean_kp):
            vals = [mean(1.5, b, p) for b in bs]
            assert all(u <= v + 1e-14 for u, v in zip(vals, vals[1:]))


# ------------------------------------------------- quadratic transformation


def test_quad_transform_residuals():
    # F(a, b; 2a; x) by the series in x against its quadratic transformation,
    # at the triples of 1/M_p (a = b = 1/3) and 1/K_p (a = 1) and at a triple
    # of neither
    def residual(a, b, x):
        return abs(hyp2f1(HypSeriesSpec(a, b, 2.0 * a, x)).value - _hyp_quad(a, b, x).value)

    assert residual(1.0 / 3.0, 1.0 / 3.0, 0.0) == 0.0
    assert residual(1.0 / 3.0, 1.0 / 3.0, 0.4) <= 1e-10
    assert residual(1.0, 1.0 / 3.0, 0.7) <= 1e-10
    assert residual(0.5, 0.25, 0.8) <= 1e-10
    with pytest.raises(ValueError, match=r"needs \|arg\| < 1"):
        HypSeriesSpec(1.0, 1.0 / 3.0, 2.0, 1.0)  # the series in x is not summed at 1


def test_representation_agreement_is_the_transform():
    # base and transformed series agree for both families across the grid
    # wherever both run; where 1 - x^p exceeds 0.99 (p = 5 with x <= 0.3,
    # p = 3 with x <= 0.2) the other routes carry the point
    for quantity, pair in (("M_p", "hyp_quad~hyp_base"), ("K_p", "hyp_base~hyp_quad")):
        cases = [c for c in _route_cases(quantity, ROUTE_GRID) if f" {pair} " in c.name]
        assert len(cases) == 49 and all(c.passed for c in cases), quantity


def test_third_parameter_comparison_drives_ordering():
    # the transformed series differ only in the third parameter; the sign of
    # their difference must follow the sign of 3/2 - (1/p + 1/2)
    for p in (0.25, 0.5, 0.75, 1.5, 3.0, 5.0):
        for x in (0.2, 0.5, 0.8):
            xp = x**p
            y = ((1.0 - xp) / (1.0 + xp)) ** 2
            a, b = 0.5 / p, 0.5 / p + 0.5
            f_mp = hyp2f1(HypSeriesSpec(a, b, 1.0 / p + 0.5, y)).value
            f_kp = hyp2f1(HypSeriesSpec(a, b, 1.5, y)).value
            expected = 1.5 - (1.0 / p + 0.5)
            assert (f_mp - f_kp) * expected > 0.0, (p, x)


def test_log_mean_hypergeometric_bridge():
    # 1/K_1(1, x) = F(1, 1; 2; 1 - x), so the product with L(1, x) is 1
    for i in range(1, 10):
        x = i / 10.0
        f = hyp2f1(HypSeriesSpec(1.0, 1.0, 2.0, 1.0 - x)).value
        assert abs(f * mean_log(1.0, x) - 1.0) <= 1e-10


@pytest.mark.parametrize("p", [2e-8, 1e-7])
def test_hyp_quad_prefactor_at_tiny_p(p):
    # (1 - z/2)^(-1/p) alone multiplies the rounding of 1 - z/2 by 1/p: it
    # was 2.4e-9 off at p = 2e-8, x = 0.1
    mpmath = pytest.importorskip("mpmath")
    x = 0.1
    with mpmath.workdps(40):
        mp_, mx = mpmath.mpf(p), mpmath.mpf(x)
        refs = {
            mean_mp: 1 / mpmath.hyp2f1(1 / mp_, 1 / mp_, 2 / mp_, 1 - mx**mp_),
            mean_kp: (mp_ - 1) / mp_ * (1 - mx**mp_) / (1 - mx ** (mp_ - 1)),
        }
        for fn, ref in refs.items():
            v = fn(1.0, x, p, "hyp_quad")
            assert abs(mpmath.mpf(v) / ref - 1) <= 1e-13, fn.__name__


@pytest.mark.parametrize("p", [2e-8, 1e-7])
def test_series_error_covers_the_rounding_of_the_scaling(p):
    # the series are exact to rounding here, so what is left is the rounding
    # of the prefactor and of scale / recip: hyp_quad for M_p claimed 4.9e-26
    # of the value at p = 2e-8 while 1.8e-16 off
    mpmath = pytest.importorskip("mpmath")
    x = 0.1
    with mpmath.workdps(40):
        mp_, mx = mpmath.mpf(p), mpmath.mpf(x)
        refs = {
            _mean_mp: 1 / mpmath.hyp2f1(1 / mp_, 1 / mp_, 2 / mp_, 1 - mx**mp_),
            _mean_kp: (mp_ - 1) / mp_ * (1 - mx**mp_) / (1 - mx ** (mp_ - 1)),
        }
        for fn, ref in refs.items():
            for method in ("hyp_quad", "hyp_base"):
                r = fn(1.0, x, p, method)
                assert abs(mpmath.mpf(r.value) - ref) <= r.abs_err, (fn.__name__, method)


# ------------------------------------------------------ extreme-scale pairs

# closed forms on pairs whose products, sums or relative differences leave
# the double range; mpmath gives the reference
EXTREME_CASES = [
    (mean_ag, (1e-300, 3e-300), "agm"),
    (mean_ag, (1e308, 1e307), "agm"),
    (mean_log, (1e300, 1e-300), "log"),
    (mean_log, (1e-20, 1.0), "log"),
    (mean_log, (1e-10, 1.0), "log"),
    (lambda a, b: mean_mp(a, b, 0.0), (1e-300, 3e-300), "geometric"),
    (lambda a, b: mean_kp(a, b, 0.0), (1e-300, 3e-300), "k0"),
    (lambda a, b: mean_kp(a, b, 0.0), (1e200, 3e200), "k0"),
    (lambda a, b: mean_kp(a, b, 0.0), (1e300, 1e-300), "k0"),
    (lambda a, b: mean_mp(a, b, 0.0), (1.7e308, 1e-300), "geometric"),
    # min/max past 2^-1022: a scaled loop alone would push min out of range
    (mean_ag, (1e300, 1e-300), "agm"),
    (mean_ag, (1e308, 1e-320), "agm"),
]


@pytest.mark.parametrize(
    "fn, pair, kind",
    EXTREME_CASES,
    ids=["ag_tiny", "ag_huge", "log_wide", "log_small_first", "log_small_first_1e-10",
         "mp0_tiny", "kp0_tiny", "kp0_huge", "kp0_wide", "mp0_wide", "ag_wide", "ag_widest"],
)
def test_closed_forms_at_extreme_scales(fn, pair, kind):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        a, b = (mpmath.mpf(v) for v in pair)
        lm = (a - b) / (mpmath.log(a) - mpmath.log(b))
        ref = {
            "agm": lambda: mpmath.agm(a, b),
            "log": lambda: lm,
            "geometric": lambda: mpmath.sqrt(a * b),
            "k0": lambda: a * b / lm,
        }[kind]()
        v = fn(*pair)
        assert math.isfinite(v) and v > 0.0
        assert abs(mpmath.mpf(v) / ref - 1) <= 1e-14


@pytest.mark.parametrize("fn", [_mean_mp, _mean_kp], ids=["mp0", "kp0"])
def test_subnormal_closed_form_error_covers_the_spacing(fn):
    # the exact value lies between two subnormals; 4 eps |v| underflows to 0
    mpmath = pytest.importorskip("mpmath")
    a, b = 5e-324, 1e-323
    with mpmath.workdps(40):
        ma, mb = mpmath.mpf(a), mpmath.mpf(b)
        lm = (mb - ma) / (mpmath.log(mb) - mpmath.log(ma))
        ref = mpmath.sqrt(ma * mb) if fn is _mean_mp else ma * mb / lm
        r = fn(a, b, 0.0)
        assert r.abs_err > 0.0
        assert abs(mpmath.mpf(r.value) - ref) <= r.abs_err


@pytest.mark.parametrize("pair", [(1e308, 5e-324), (1e308, 1e-320), (1.7e308, 2e-310)])
def test_limit_forms_at_the_widest_pairs(pair):
    # scaling the pair by the power of two nearest sqrt(ab) overflowed, and
    # mean_mp, mean_kp and ordering raised OverflowError at p = 0
    mpmath = pytest.importorskip("mpmath")
    m0, k0 = _mean_mp(*pair, 0.0), _mean_kp(*pair, 0.0)
    with mpmath.workdps(50):
        a, b = (mpmath.mpf(v) for v in pair)
        lm = (a - b) / (mpmath.log(a) - mpmath.log(b))
        for r, ref in ((m0, mpmath.sqrt(a * b)), (k0, a * b / lm)):
            assert abs(mpmath.mpf(r.value) - ref) <= r.abs_err, (pair, r, ref)
    assert ordering(*pair, 0.0).gap == m0.value - k0.value


def test_pair_ratio_underflow_raises_value_error():
    # min/max = 5e-324/1e308 underflows to 0: only the closed forms take it
    for call in (lambda: mean_mp(5e-324, 1e308, 2.0),
                 lambda: mean_kp(5e-324, 1e308, 2.0, "integral")):
        with pytest.raises(ValueError, match="^pair ratio min/max underflows to zero"):
            call()


def test_closed_forms_in_range_are_unchanged():
    # scaling by a power of two is exact: in range, the unscaled formulas
    # give the same bits (the logarithmic mean with the larger term first);
    # K_0 is the closed form's own limit, held to 2 eps of mpmath instead
    def agm(a, b):
        while abs(a - b) > 1e-15 * a:
            a, b = 0.5 * (a + b), math.sqrt(a * b)
        return 0.5 * (a + b)

    pairs = [(1.0, 0.3), (2.5, 7.0), (1e-5, 3e-3), (1e100, 2e99), (3e-150, 1e-150), (0.7, 0.1),
             (1e150, 1e-150)]
    for a, b in pairs:
        hi, lo = max(a, b), min(a, b)
        lm = (hi - lo) / math.log1p((hi - lo) / lo)
        assert mean_log(b, a) == mean_log(a, b), (a, b)
        assert mean_log(a, b) == lm, (a, b)
        assert mean_ag(a, b) == agm(a, b), (a, b)
        assert mean_mp(a, b, 0.0) == math.sqrt(a * b), (a, b)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for a, b in pairs:
            ref = _kp_ref(mpmath, a, b, 0.0)
            r = _mean_kp(a, b, 0.0)
            assert abs(mpmath.mpf(r.value) - ref) <= r.abs_err, (a, b)
            assert abs(mpmath.mpf(r.value) / ref - 1) <= 2 * sys.float_info.epsilon, (a, b)


# ----------------------------------------------------------------- ordering


def test_ordering_canonical_cases():
    assert ordering(1.0, 0.3, 0.5).verdict == "Mp_greater"
    assert ordering(1.0, 0.3, 1.0).verdict == "equal"
    assert ordering(1.0, 0.3, 3.0).verdict == "Kp_greater"
    assert ordering(4.0, 1.0, 0.0).verdict == "Mp_greater"


def test_ordering_equal_pair():
    r = ordering(2.0, 2.0, 3.0)
    assert r == MeanOrdering("equal", 3.0, 2.0, 2.0, 0.0)


def test_ordering_decides_on_the_means_scale():
    # the equal band is 1e-12 max(M_p, K_p); on the pair's scale,
    # 1e-12 max(a, b), both were equal: M_0 = 1 against K_0 = 1.4e-297 with
    # gap 1.0, and gap 2.2e-8 at the extreme pair
    assert ordering(1e300, 1e-300, 0.0).verdict == "Mp_greater"
    assert ordering(1e308, 5e-324, 0.0).verdict == "Mp_greater"


def test_ordering_gap_sign_matches_verdict():
    for p in (0.25, 0.75, 1.5, 4.0):
        r = ordering(1.0, 0.4, p)
        if r.verdict == "Mp_greater":
            assert r.gap > 0.0
        elif r.verdict == "Kp_greater":
            assert r.gap < 0.0


def test_ordering_domain():
    with pytest.raises(ValueError):
        ordering(1.0, 0.5, -1.0)
    with pytest.raises(ValueError):
        ordering(0.0, 0.5, 2.0)
    for p in (math.inf, -math.inf, math.nan):
        for a, b in ((1.0, 0.5), (2.0, 2.0)):
            with pytest.raises(ValueError, match="^ordering requires a finite p"):
                ordering(a, b, p)

"""Mean families: logarithmic and arithmetic-geometric anchors, the
normalizing constant, agreement of every representation of M_p and K_p, the
binary-mean axioms, and the ordering across p = 1."""

import math
import sys
from pathlib import Path

import pytest

from pqelliptic.means import (
    MeanOrdering,
    _mean_kp,
    _mean_mp,
    c_p,
    mean_ag,
    mean_kp,
    mean_log,
    mean_mp,
    ordering,
    quad_transform_check,
)
from pqelliptic.numerics import HypSeriesSpec, hyp2f1, integrate_halfline

MP_METHODS = ("elliptic", "hyp_base", "hyp_quad", "integral")
KP_METHODS = ("closed", "integral", "hyp_base", "hyp_quad")


def _recips_that_ran(mean, p, x, methods):
    """1/mean(1, x) by each method whose domain admits the point.

    The series routes sum in z = 1 - x^p (``hyp_base``) and in
    (z/(2 - z))^2 (``hyp_quad``); where that argument exceeds 0.99 the route
    must raise ValueError.  At least two distinct routes must run.
    """
    z = -math.expm1(p * math.log(x))
    args = {"hyp_base": z, "hyp_quad": (z / (2.0 - z)) ** 2}
    recips = {}
    for m in methods:
        if args.get(m, 0.0) > 0.99:
            with pytest.raises(ValueError, match=f"^{m} route requires"):
                mean(1.0, x, p, m)
        else:
            recips[m] = 1.0 / mean(1.0, x, p, m)
    assert len(recips) >= 2, (mean.__name__, p, x, recips)
    return list(recips.values())


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
    for p in (0.25, 0.5, 1.5, 2.0, 3.0, 5.0):
        for x in (0.1, 0.5, 0.9):
            recips = _recips_that_ran(mean_mp, p, x, MP_METHODS)
            spread = max(recips) - min(recips)
            assert spread <= 1e-9, (p, x, recips)


def test_mp_elliptic_vs_integral_agree():
    d = abs(1.0 / mean_mp(1.0, 0.5, 3.0, "elliptic") - 1.0 / mean_mp(1.0, 0.5, 3.0, "integral"))
    assert d <= 1e-9


def _oracle():
    """perfbench's 30-digit references (mpmath), as its own tests import them."""
    pytest.importorskip("mpmath")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import oracle

    return oracle


@pytest.mark.parametrize(
    "x, p",
    [(1e-6, 3.0), (0.999999, 0.01), (1e-30, 0.5), (1e-6, 1.5), (0.01, 5.0), (0.5, 2e-3)],
)
def test_mp_elliptic_takes_the_exact_pair(x, p):
    # K_{p*,p} took a rounded k = (1 - x^p)^(1/p): the first raised "modulus k
    # must lie in [0, 1)", the next four were 5e-7 to 2.5e-9 off, the last
    # returned 1.0 (k underflowed to 0) while the mean is 0.7071
    ref = _oracle().reference("mean_mp", (1.0, x, p))
    v = mean_mp(1.0, x, p, "elliptic")
    assert abs(v - ref.value) <= 1e-9 * ref.value


def test_mp_elliptic_out_of_range_raises_value_error():
    # pi_{p*,p} underflowed and the route raised ZeroDivisionError; x^p
    # underflowing to 0 leaves no log x^p for K's connection sum
    with pytest.raises(ValueError, match="^c_p overflows"):
        mean_mp(1.0, 0.5, 1e-3, "elliptic")
    with pytest.raises(ValueError, match="^elliptic route requires x\\^p in the normal range"):
        mean_mp(1.0, 1e-300, 5.0, "elliptic")


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
    for p in (0.25, 0.5, 1.5, 2.0, 3.0, 5.0):
        for x in (0.1, 0.5, 0.9):
            recips = _recips_that_ran(mean_kp, p, x, KP_METHODS)
            spread = max(recips) - min(recips)
            assert spread <= 1e-9, (p, x, recips)


def _kp_ref(mpmath, a, b, p):
    """K_p(a, b) at 40 digits; the limits K_0 and K_1 at p = 0 and 1."""
    ma, mb, mp_ = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(p)
    lm = (ma - mb) / (mpmath.log(ma) - mpmath.log(mb))
    if p == 0:
        return ma * mb / lm
    if p == 1:
        return lm
    s, x = max(ma, mb), min(ma, mb) / max(ma, mb)
    lx = mpmath.log(x)
    return s * (mp_ - 1) / mp_ * mpmath.expm1(mp_ * lx) / mpmath.expm1((mp_ - 1) * lx)


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
    assert quad_transform_check(1.0 / 3.0, 1.0 / 3.0, 0.0) == 0.0
    assert quad_transform_check(1.0 / 3.0, 1.0 / 3.0, 0.4) <= 1e-10
    assert quad_transform_check(1.0, 1.0 / 3.0, 0.7) <= 1e-10
    assert quad_transform_check(0.5, 0.25, 0.8) <= 1e-10
    with pytest.raises(ValueError, match=r"needs \|arg\| < 1"):
        quad_transform_check(1.0, 1.0 / 3.0, 1.0)  # the series in x is not summed at 1


def test_representation_agreement_is_the_transform():
    # base and transformed series agree for both families across the p/x grid
    # wherever each runs; the mean's other routes carry the points where the
    # series arguments exceed 0.99
    for p in (0.25, 0.5, 1.5, 2.0, 3.0, 5.0):
        for i in range(1, 10):
            x = i / 10.0
            for tag, mean, methods in (("Mp", mean_mp, MP_METHODS), ("Kp", mean_kp, KP_METHODS)):
                recips = _recips_that_ran(mean, p, x, methods)
                assert max(recips) - min(recips) <= 1e-10, (tag, p, x)


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


def test_closed_forms_in_range_are_unchanged():
    # scaling by a power of two is exact: in range, the unscaled formulas
    # give the same bits (the logarithmic mean with the larger term first)
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
        assert mean_kp(a, b, 0.0) == a * b / lm, (a, b)


# ----------------------------------------------------------------- ordering


def test_ordering_canonical_cases():
    assert ordering(1.0, 0.3, 0.5).verdict == "Mp_greater"
    assert ordering(1.0, 0.3, 1.0).verdict == "equal"
    assert ordering(1.0, 0.3, 3.0).verdict == "Kp_greater"
    assert ordering(4.0, 1.0, 0.0).verdict == "Mp_greater"


def test_ordering_equal_pair():
    r = ordering(2.0, 2.0, 3.0)
    assert r == MeanOrdering("equal", 3.0, 2.0, 2.0, 0.0)


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

"""Generalized trigonometric functions: parameter validation, the classical
degeneration at p = q = 2, the Pythagorean identity, and the derivative
identities checked by central finite differences."""

import math
import random

import pytest

from pqelliptic import ConvergenceError, gentrig
from pqelliptic.gentrig import PQParams, arcsin_pq, cos_pq, pi_pq, sin_pq, tan_pq

# the parameter set used throughout, including one negative-p pair
PAIRS = (PQParams(2, 2), PQParams(3, 2), PQParams(2, 3), PQParams(1.5, 4), PQParams(-2, 2))


# ----------------------------------------------------------------- PQParams


def test_params_accept_admissible_pairs():
    assert PQParams(2, 2).p_star == 2.0
    assert PQParams(3, 2).p_star == 1.5
    assert math.isclose(PQParams(-2, 2).p_star, 2.0 / 3.0, rel_tol=1e-15)
    assert math.isclose(PQParams(-1, 0.5).p_star, 0.5, rel_tol=1e-15)


def test_params_reject_inadmissible_pairs():
    for p, q in ((1.0, 2.0), (0.0, 2.0), (0.5, 2.0), (0.9, 1.0), (2.0, 0.0), (2.0, -1.0)):
        with pytest.raises(ValueError):
            PQParams(p, q)
    with pytest.raises(ValueError):
        PQParams(math.inf, 2.0)


def test_conjugate_identity_to_machine_precision():
    for p in (-5.0, -2.0, -1.0, -0.25, 1.1, 1.5, 2.0, 3.0, 10.0, 100.0):
        par = PQParams(p, 2.0)
        assert abs(1.0 / par.p + 1.0 / par.p_star - 1.0) <= 1e-15


# -------------------------------------------------------------------- pi_pq


def test_pi_pq_classical():
    assert math.isclose(pi_pq(PQParams(2, 2)), math.pi, rel_tol=1e-14)


def test_pi_pq_33():
    # (2/3) B(2/3, 1/3) = (2/3) * 2 pi / sqrt(3) by the reflection formula
    exact = 4.0 * math.pi / (3.0 * math.sqrt(3.0))
    assert math.isclose(pi_pq(PQParams(3, 3)), exact, rel_tol=1e-13)


def test_pi_pq_where_log_gamma_overflows():
    # 1/q = 1e306 is past lgamma's range: this raised OverflowError
    with pytest.raises(ValueError, match=r"^log_gamma overflows at x = 1e\+306$"):
        pi_pq(PQParams(2, 1e-306))


def test_pi_pq_matches_twice_arcsin_one():
    # auto's complement route returns pi_pq/2 itself at x = 1; the quadrature
    # route is independent of the beta function
    for par in PAIRS:
        assert abs(pi_pq(par) - 2.0 * arcsin_pq(par, 1.0, "quadrature")) <= 1e-10


# ---------------------------------------------------------------- arcsin_pq


def test_arcsin_classical_values():
    par = PQParams(2, 2)
    assert arcsin_pq(par, 0.0) == 0.0
    assert math.isclose(arcsin_pq(par, 0.5), math.pi / 6.0, abs_tol=1e-12)
    for x in (0.1, 0.3, 0.7, 0.9, 0.99):
        assert math.isclose(arcsin_pq(par, x), math.asin(x), abs_tol=1e-12)


def test_arcsin_near_one_matches_mpmath():
    # arcsin_pq(x) = x F(1/p, 1/q; 1 + 1/q; x^q)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for par in PAIRS + (PQParams(4, 1.5), PQParams(1.2, 0.7)):
            ip, iq = 1 / mpmath.mpf(par.p), 1 / mpmath.mpf(par.q)
            for x in (0.999, 1 - 1e-8, 1 - 1e-12, 1 - 2.0**-53, 1.0):
                ref = x * mpmath.hyp2f1(ip, iq, 1 + iq, mpmath.mpf(x) ** par.q)
                assert abs(arcsin_pq(par, x) / ref - 1) <= 1e-13, (par, x)


def _wide_points(n, seed):
    """n (params, x) points: p in (-50, -0.01) u (1.001, 50), a third of them
    in the cancellation band p in (1.001, 1.3), q in (0.05, 50); x spread
    over x^q, over 1 - x down to 1e-16, and on the edges of the two series'
    domains: x^q = 1/2, |1/p| x^q = 1 and |1 - 1/q| (1 - x^q) = 1."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        p = (rng.uniform(1.001, 1.3), rng.uniform(-50.0, -0.01), rng.uniform(1.001, 50.0))[i % 3]
        q = rng.uniform(0.05, 50.0)
        pick = i % 5
        if pick == 0:
            mq = rng.random()
        elif pick == 1:
            mq = 1.0 - 10.0 ** -rng.uniform(0.0, 16.0)
        elif pick == 2:
            mq = 0.5
        elif pick == 3:
            mq = min(0.5, abs(p))  # the series' growth bound, where |p| < 1/2
        else:
            mq = 1.0 - min(0.5, 1.0 / abs(1.0 - 1.0 / q))  # the complement's
        x = mq ** (1.0 / q)
        for y in (x, math.nextafter(x, 0.0), math.nextafter(x, 1.0)):
            if 0.0 <= y <= 1.0:
                out.append((PQParams(p, q), y))
    return out


# the complement without its error guard is 1.3e-13 off here, in relative terms
_CANCELS = (PQParams(1.020783811915286, 0.49766632349813417), 0.28770880176548064)


def test_arcsin_routes_match_mpmath_on_the_wide_domain():
    # each series route, and auto, within 1e-13 relative wherever it admits x
    mpmath = pytest.importorskip("mpmath")
    ran = {"auto": 0, "series": 0, "complement": 0}
    with mpmath.workdps(30):
        for par, x in _wide_points(600, 12) + [_CANCELS]:
            ip, iq = 1 / mpmath.mpf(par.p), 1 / mpmath.mpf(par.q)
            ref = x * mpmath.hyp2f1(ip, iq, 1 + iq, mpmath.mpf(x) ** par.q)
            for method in ("auto", "series", "complement"):
                try:
                    v = arcsin_pq(par, x, method)
                except ValueError as err:
                    assert method != "auto" and str(err).startswith(f"{method} route requires")
                    continue
                ran[method] += 1
                assert abs(v / ref - 1) <= 1e-13, (par, x, method)
    assert ran["series"] > 300 and ran["complement"] > 300, ran


def test_named_arcsin_route_outside_its_domain_raises():
    par = PQParams(2, 2)
    with pytest.raises(ValueError, match=r"^series route requires x\^q <= 1/2"):
        arcsin_pq(par, 0.8, "series")
    with pytest.raises(ValueError, match=r"^series route requires .* terms that do not grow"):
        arcsin_pq(PQParams(-0.1, 2), 0.5, "series")  # |1/p| x^q = 2.5
    with pytest.raises(ValueError, match=r"^complement route requires 1 - x\^q <= 1/2"):
        arcsin_pq(par, 0.6, "complement")
    with pytest.raises(ValueError, match=r"^complement route requires .* terms that do not grow"):
        arcsin_pq(PQParams(2, 0.1), 0.8**10, "complement")  # |1 - 1/q| w = 9 * 0.2
    # near p = 1 the tail nearly cancels pi_pq/2, which is close to p*/q
    with pytest.raises(ValueError, match=r"^complement route requires .* tail"):
        arcsin_pq(PQParams(1.001, 2), 0.99, "complement")
    with pytest.raises(ValueError, match=r"^unknown method 'bogus'"):
        arcsin_pq(par, 0.5, "bogus")


def test_arcsin_auto_returns_the_route_it_chose():
    for par in PAIRS:
        for x in (0.0, 0.3, 0.8, 0.999, 1.0):
            routes = []
            for method in ("series", "complement", "quadrature"):
                try:
                    routes.append(arcsin_pq(par, x, method))
                except ValueError:
                    pass
            assert arcsin_pq(par, x) == routes[0], (par, x)
    par = PQParams(1.001, 2)  # cancellation: auto takes quadrature
    assert arcsin_pq(par, 0.99) == arcsin_pq(par, 0.99, "quadrature")
    assert arcsin_pq(par, 1.0) == 0.5 * pi_pq(par)  # w = 0: pi_pq/2 exactly


def test_trig_runs_no_quadrature_on_the_c09_grid(monkeypatch):
    # a deterministic work count: every arcsin_pq evaluation of sin/cos/tan
    # on c09's 50-point theta grids takes a series route
    calls = []
    quad = gentrig.integrate_singular
    monkeypatch.setattr(gentrig, "integrate_singular", lambda *a: calls.append(1) or quad(*a))
    for par in PAIRS:
        half = 0.5 * pi_pq(par)
        for i in range(50):
            theta = half * i / 49.0
            sin_pq(par, theta), cos_pq(par, theta)
            if i < 49:  # tan_pq diverges at pi_pq/2
                tan_pq(par, theta)
    assert calls == []
    arcsin_pq(PQParams(1.001, 2), 0.99)
    assert calls == [1]  # the counter does see a quadrature


def _count_arcsin(monkeypatch):
    """A list that gains one entry per arcsin_pq evaluation inside gentrig."""
    calls = []
    arcsin = gentrig.arcsin_pq
    monkeypatch.setattr(gentrig, "arcsin_pq", lambda *a: calls.append(1) or arcsin(*a))
    return calls


def test_trig_takes_about_two_arcsin_evaluations_per_value(monkeypatch):
    # a deterministic work count, on c09's 50-point theta grids and 300
    # seeded draws from the wide domain, each point asked for sin, cos or
    # tan in turn: the closed-form ends x = 0 and 1 take no evaluation, the
    # two-term start and each Halley step one (2.04 here; Newton steps from
    # the bracket end took 2.89, the secant inversion 7.2)
    calls = _count_arcsin(monkeypatch)
    points = [(par, 0.5 * pi_pq(par) * i / 49.0) for par in PAIRS for i in range(50)]
    rng = random.Random(5)
    for i in range(300):
        p = (rng.uniform(1.001, 1.3), rng.uniform(-50.0, -0.01), rng.uniform(1.001, 50.0))[i % 3]
        par = PQParams(p, rng.uniform(0.05, 50.0))
        points.append((par, 0.5 * pi_pq(par) * rng.random()))
    values = 0
    for i, (par, theta) in enumerate(points):
        fn = (sin_pq, cos_pq, tan_pq)[i % 3]
        try:
            fn(par, theta)
            values += 1
        except (ConvergenceError, ValueError):  # a stall; tan_pq at pi_pq/2
            pass
    assert values > 500
    assert len(calls) <= 2.3 * values, len(calls) / values


def test_trig_stalls_stay_cheap(monkeypatch):
    # one ulp of x near 1 moves theta by more than the tolerance, so both
    # inversions stall; the secant inversion spent 23 and 22 arcsin_pq
    # evaluations before it raised, and a stall may cost no more
    calls = _count_arcsin(monkeypatch)
    stalls = (
        (sin_pq, PQParams(2, 3), 0.999999 * 0.5 * pi_pq(PQParams(2, 3)), 23),
        (cos_pq, PQParams(1.5, 4), 1.5868964118649982, 22),
    )
    for fn, par, theta, secant_calls in stalls:
        calls.clear()
        with pytest.raises(ConvergenceError, match="^inversion stalled with residual"):
            fn(par, theta)
        assert len(calls) <= secant_calls


def test_closed_form_ends_are_what_arcsin_returns():
    # sin_pq takes arcsin_pq(0) = 0 and, where the complement admits x = 1,
    # arcsin_pq(1) = pi_pq/2 without evaluating them; both must be exact.
    # As p -> 0-, pi_pq's own rounding exceeds the tolerance: no end at 1
    no_end = (PQParams(-0.01, 2), PQParams(-0.02, 50))
    pars = PAIRS + no_end + tuple(par for par, _ in _wide_points(300, 3)[::3])
    exact = 0
    for par in pars:
        pi, pi_rel = gentrig._pi_pq_rel(par)
        assert arcsin_pq(par, 0.0) == 0.0
        if gentrig._complement_keeps(0.5 * pi, pi_rel, 0.0, 1.0 / par.p_star):
            exact += 1
            assert arcsin_pq(par, 1.0) == 0.5 * pi, par
    assert 0 < exact < len(pars)


def test_arcsin_endpoint_is_half_period():
    for par in PAIRS:
        assert abs(arcsin_pq(par, 1.0) - 0.5 * pi_pq(par)) <= 1e-10


def test_arcsin_strictly_increasing():
    for par in PAIRS:
        vals = [arcsin_pq(par, i / 20.0) for i in range(21)]
        assert all(u < v for u, v in zip(vals, vals[1:]))


def test_arcsin_domain():
    par = PQParams(2, 2)
    for bad in (-0.1, 1.0001, 2.0):
        with pytest.raises(ValueError):
            arcsin_pq(par, bad)


# -------------------------------------------------------------------sin_pq


def test_sin_endpoints_exact():
    for par in PAIRS:
        half = 0.5 * pi_pq(par)
        assert sin_pq(par, 0.0) == 0.0
        assert sin_pq(par, half) == 1.0


def test_sin_classical_oracle():
    par = PQParams(2, 2)
    for i in range(1, 10):
        theta = i / 10.0 * (math.pi / 2.0)
        assert abs(sin_pq(par, theta) - math.sin(theta)) <= 1e-10


def test_sin_arcsin_roundtrip():
    for par in PAIRS:
        theta = arcsin_pq(par, 0.7)
        assert abs(sin_pq(par, theta) - 0.7) <= 1e-9


def test_sin_strictly_increasing():
    for par in PAIRS:
        half = 0.5 * pi_pq(par)
        vals = [sin_pq(par, i / 12.0 * half) for i in range(13)]
        assert all(u < v for u, v in zip(vals, vals[1:]))


def test_sin_domain():
    par = PQParams(2, 2)
    half = 0.5 * pi_pq(par)
    for bad in (-0.1, half * 1.001):
        with pytest.raises(ValueError):
            sin_pq(par, bad)


def _mp_arcsin(mpmath, par, s):
    ip, iq = 1 / mpmath.mpf(par.p), 1 / mpmath.mpf(par.q)
    return s * mpmath.hyp2f1(ip, iq, 1 + iq, mpmath.mpf(s) ** par.q)


def _theta_residual_ok(mpmath, par, s, theta):
    """|arcsin_pq(s) - theta| within the inversion's relative tolerance, by mpmath."""
    tol = max(1e-12 * min(1.0, theta), math.ulp(theta))
    return abs(_mp_arcsin(mpmath, par, s) - theta) <= tol


def test_sin_near_zero_keeps_its_digits():
    # every theta <= 1e-12 used to return the bracket end 0
    mpmath = pytest.importorskip("mpmath")
    par = PQParams(2, 2)
    with mpmath.workdps(40):
        assert _theta_residual_ok(mpmath, par, sin_pq(par, 5e-13), 5e-13)
    for theta in (1e-100, 1e-300, 1e-320):
        assert sin_pq(par, theta) == theta


def test_sin_past_one_where_pi_pq_rounds_above_two():
    # for p < 0, pi_pq/2 < 1, but at p = -1e17 it rounds to 1 + 4e-16; the
    # bracket [min(1, theta), 1] is then empty and sin_pq is 1
    par = PQParams(-1e17, 2)
    theta = math.nextafter(1.0, 2.0)
    assert theta < 0.5 * pi_pq(par)
    assert sin_pq(par, theta) == 1.0


def test_cos_near_zero_with_small_q_matches_mpmath():
    # cos = (1 - s^q)^(1/q) is steep at s = 0 for q < 1; it used to return 1.0
    mpmath = pytest.importorskip("mpmath")
    par, theta = PQParams(2, 0.05), 1e-13
    with mpmath.workdps(40):
        s = mpmath.findroot(lambda x: _mp_arcsin(mpmath, par, x) - theta, mpmath.mpf(theta))
        ref = (1 - s**par.q) ** (1 / mpmath.mpf(par.q))
        assert abs(cos_pq(par, theta) / ref - 1) <= 1e-12


def test_sin_where_half_period_is_below_the_old_tolerance():
    # pi_pq/2 = 3.4e-23 here; sin_pq used to return 0.0 against 1.2269e-9
    mpmath = pytest.importorskip("mpmath")
    par = PQParams(-0.01, 0.05)
    theta = 0.999999 * 0.5 * pi_pq(par)
    s = sin_pq(par, theta)
    with mpmath.workdps(60):
        assert _theta_residual_ok(mpmath, par, s, theta)
        # Newton with the exact derivative; arcsin_pq is flat here (slope 5e-20)
        root = mpmath.findroot(
            lambda x: _mp_arcsin(mpmath, par, x) - theta,
            mpmath.mpf(s),
            solver="newton",
            df=lambda x: (1 - x**par.q) ** (-1 / mpmath.mpf(par.p)),
        )
    assert abs(s - float(root)) <= gentrig._sin_pq(par, theta, "sin").abs_err
    assert abs(s / float(root) - 1) <= 1e-6


def test_sin_returns_where_the_v_start_is_guarded_off():
    # p < 0, q near 1e-3 and theta below 1e-180: the inversion runs in v,
    # where the two-term start is guarded off (c w0 = -0.51 and -0.50, below
    # -1/4); from that start the inversion stalled on both inputs
    mpmath = pytest.importorskip("mpmath")
    par, theta = PQParams(-36.34952464681456, 0.0010846234357085515), 1.9047622082273396e-193
    s = sin_pq(par, theta)
    assert s == pytest.approx(1.9557681304959636e-193, rel=1e-9)
    with mpmath.workdps(40):
        assert _theta_residual_ok(mpmath, par, s, theta)


def test_tan_returns_where_the_v_start_is_guarded_off():
    mpmath = pytest.importorskip("mpmath")
    par, theta = PQParams(-876.7207096250112, 0.0010005743194486808), 2.0010509545965403e-300
    assert tan_pq(par, theta) == pytest.approx(209.27713018245478, rel=1e-9)
    with mpmath.workdps(40):
        assert _theta_residual_ok(mpmath, par, sin_pq(par, theta), theta)


# ------------------------------------------------------------- cos and tan


def test_cos_values():
    par = PQParams(2, 2)
    assert cos_pq(par, 0.0) == 1.0
    assert abs(cos_pq(par, math.pi / 3.0) - 0.5) <= 1e-10
    assert cos_pq(par, 0.5 * pi_pq(par)) == 0.0


def test_tan_values():
    par = PQParams(2, 2)
    assert tan_pq(par, 0.0) == 0.0
    assert abs(tan_pq(par, math.pi / 4.0) - 1.0) <= 1e-10
    assert abs(tan_pq(par, math.pi / 3.0) - math.sqrt(3.0)) <= 1e-10


def test_tan_range_error_at_half_period():
    for par in (PQParams(2, 2), PQParams(3, 2)):
        half = 0.5 * pi_pq(par)
        with pytest.raises(ValueError, match=r"^tan_pq diverges at theta = pi_pq/2$"):
            tan_pq(par, half)
        for theta in (-0.1, 1.01 * half, math.nan):  # sin_pq's range check and message
            with pytest.raises(ValueError, match=r"^theta must lie in \[0, "):
                tan_pq(par, theta)


@pytest.mark.parametrize(
    "par, theta",
    [(PQParams(2, 0.01), 0.9 * 0.5 * pi_pq(PQParams(2, 0.01))),
     (PQParams(-370.819958499655, 0.009604583318601503), 0.9057758069975889)],
)
def test_tan_where_cos_underflows(par, theta):
    # for small q, cos_pq = (1 - s^q)^(1/q) underflows while sin_pq < 1: the
    # first raised ZeroDivisionError, the second returned inf
    assert 0.0 < sin_pq(par, theta) < 1.0
    with pytest.raises(ValueError, match=r"^tan_pq overflows: cos_pq = "):
        tan_pq(par, theta)


def test_pythagorean_identity_grid():
    for par in PAIRS:
        half = 0.5 * pi_pq(par)
        q = par.q
        for i in range(50):
            theta = half * i / 49.0
            s = sin_pq(par, theta)
            c = cos_pq(par, theta)
            assert abs(c**q + s**q - 1.0) <= 1e-10, (par.p, par.q, theta)


# ---------------------------------------------------- derivative identities

_H = 1e-6
# interior fractions of the half-period, clear of both endpoints
_FRACS = (0.1, 0.25, 0.4, 0.55, 0.7, 0.85)


def central(f, x):
    return (f(x + _H) - f(x - _H)) / (2.0 * _H)


def test_sin_derivative_is_cos_power():
    for par in PAIRS:
        half = 0.5 * pi_pq(par)
        expo = par.q / par.p
        for frac in _FRACS:
            theta = frac * half
            fd = central(lambda t: sin_pq(par, t), theta)
            assert abs(fd - cos_pq(par, theta) ** expo) <= 1e-6, (par.p, par.q, frac)


def test_cos_power_derivative_is_sin_power():
    for par in PAIRS:
        half = 0.5 * pi_pq(par)
        expo = par.q / par.p_star
        for frac in _FRACS:
            theta = frac * half
            fd = central(lambda t: cos_pq(par, t) ** expo, theta)
            rhs = -expo * sin_pq(par, theta) ** (par.q - 1.0)
            assert abs(fd - rhs) <= 1e-6, (par.p, par.q, frac)


def test_tan_derivative_is_cos_power():
    for par in PAIRS:
        half = 0.5 * pi_pq(par)
        expo = -1.0 - par.q / par.p_star
        for frac in _FRACS:
            theta = frac * half
            fd = central(lambda t: tan_pq(par, t), theta)
            assert abs(fd - cos_pq(par, theta) ** expo) <= 1e-6, (par.p, par.q, frac)

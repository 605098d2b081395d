"""Generalized trigonometric functions: parameter validation, the classical
degeneration at p = q = 2, the Pythagorean identity, and the derivative
identities checked by central finite differences."""

import math

import pytest

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


def test_pi_pq_matches_twice_arcsin_one():
    for par in PAIRS:
        assert abs(pi_pq(par) - 2.0 * arcsin_pq(par, 1.0)) <= 1e-10


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

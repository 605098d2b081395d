"""Complete (p, q)-elliptic integrals: classical degeneration against an AGM
oracle, series/quadrature duality, the derivative system, the Legendre-type
relation, and the sin_pq moment formula."""

import math
import random
import sys
from pathlib import Path

import pytest

from pqelliptic import elliptic
from pqelliptic.elliptic import E_pq, K_pq, dE_dk, dK_dk, legendre_residual, moment_sin_pq
from pqelliptic.gentrig import PQParams, pi_pq
from pqelliptic.numerics import _pow_pair, integrate_singular
from pqelliptic.suites import _LEGENDRE_PAIRS

DUALITY_PAIRS = (PQParams(2, 2), PQParams(3, 2), PQParams(2, 3), PQParams(1.5, 4))


def agm_KE(k):
    """Classical K and E via the arithmetic-geometric mean orbit."""
    a, b = 1.0, math.sqrt(1.0 - k * k)
    c = k
    s = 0.5 * c * c
    for n in range(1, 40):  # c may stall at the 1-ulp level, so cap the orbit
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        s += 2.0 ** (n - 1) * c * c
        if abs(c) < 1e-17:
            break
    K = math.pi / (2.0 * a)
    return K, K * (1.0 - s)


# ----------------------------------------------------------------- at k = 0


def test_k_zero_is_half_period():
    for par in DUALITY_PAIRS:
        half = 0.5 * pi_pq(par)
        for method in ("series", "quadrature"):
            assert abs(K_pq(par, 0.0, method).value - half) <= 1e-12
            assert abs(E_pq(par, 0.0, method).value - half) <= 1e-12


# ------------------------------------------------------ classical (2,2) case


def test_classical_against_agm_oracle():
    par = PQParams(2, 2)
    for i in range(10):
        k = i / 10.0
        K_exact, E_exact = agm_KE(k)
        for method in ("series", "quadrature"):
            assert abs(K_pq(par, k, method).value - K_exact) <= 1e-11
            assert abs(E_pq(par, k, method).value - E_exact) <= 1e-11


# ------------------------------------------------------------------- duality


def test_series_quadrature_duality():
    for par in DUALITY_PAIRS:
        for i in range(10):
            k = i / 10.0
            dk = abs(K_pq(par, k, "series").value - K_pq(par, k, "quadrature").value)
            de = abs(E_pq(par, k, "series").value - E_pq(par, k, "quadrature").value)
            assert dk <= 1e-10, (par.p, par.q, k)
            assert de <= 1e-10, (par.p, par.q, k)


def test_duality_negative_first_index():
    # params (p*, p) with p = 0.5, i.e. (-1, 0.5): the parameter pair behind
    # the mean family for p in (0, 1)
    par = PQParams(-1.0, 0.5)
    for k in (0.0, 0.3, 0.6, 0.9):
        dk = abs(K_pq(par, k, "series").value - K_pq(par, k, "quadrature").value)
        de = abs(E_pq(par, k, "series").value - E_pq(par, k, "quadrature").value)
        assert dk <= 1e-10
        assert de <= 1e-10


def test_auto_matches_explicit_methods():
    par = PQParams(3, 2)
    r = K_pq(par, 0.5)
    assert r.method == "series"
    assert r.value == K_pq(par, 0.5, "series").value
    r = K_pq(par, 0.9999)
    assert r.method == "series"
    assert r.value == K_pq(par, 0.9999, "connection").value


def test_series_refuses_near_boundary():
    par = PQParams(2, 2)
    with pytest.raises(ValueError):
        K_pq(par, 0.9999, "series")


# ------------------------------------------------------- monotonicity in k


def test_K_increasing_E_decreasing():
    for par in DUALITY_PAIRS:
        ks = [K_pq(par, i / 10.0).value for i in range(10)]
        es = [E_pq(par, i / 10.0).value for i in range(10)]
        assert all(u < v for u, v in zip(ks, ks[1:])), (par.p, par.q)
        assert all(u > v for u, v in zip(es, es[1:])), (par.p, par.q)


def test_E_at_most_K():
    for par in DUALITY_PAIRS:
        assert K_pq(par, 0.0).value == E_pq(par, 0.0).value
        for i in range(1, 10):
            k = i / 10.0
            assert E_pq(par, k).value < K_pq(par, k).value


def test_K_grows_without_bound_and_E_tends_to_one():
    par = PQParams(2, 2)
    assert K_pq(par, 0.999).value > K_pq(par, 0.99).value > K_pq(par, 0.9).value
    assert abs(E_pq(par, 0.9999).value - 1.0) <= 5e-3


# ------------------------------------------------------- derivative system


def test_dK_matches_finite_difference():
    h = 1e-6
    for p, q in ((2, 2), (3, 2), (2, 3)):
        par = PQParams(p, q)
        for i in range(1, 10):
            k = i / 10.0
            fd = (K_pq(par, k + h).value - K_pq(par, k - h).value) / (2.0 * h)
            assert abs(dK_dk(par, k) - fd) <= 1e-5, (p, q, k)


def test_dE_matches_finite_difference():
    h = 1e-6
    for p, q in ((2, 2), (3, 2), (2, 3)):
        par = PQParams(p, q)
        for i in range(1, 10):
            k = i / 10.0
            fd = (E_pq(par, k + h).value - E_pq(par, k - h).value) / (2.0 * h)
            assert abs(dE_dk(par, k) - fd) <= 1e-5, (p, q, k)


def test_dK_limit_at_zero():
    assert dK_dk(PQParams(2, 2), 0.0) == 0.0
    assert dK_dk(PQParams(-2, 3), 0.0) == 0.0
    with pytest.raises(ValueError):
        dK_dk(PQParams(2, 0.5), 0.0)  # q < 1: the derivative is infinite


def test_dE_limit_at_zero_and_is_negative():
    assert dE_dk(PQParams(2, 2), 0.0) == 0.0
    for par in (PQParams(2, 2), PQParams(2, 3)):
        for i in range(1, 10):
            assert dE_dk(par, i / 10.0) < 0.0


def test_dK_small_k_tends_to_zero():
    par = PQParams(2, 2)
    assert abs(dK_dk(par, 1e-4)) < 1e-3


@pytest.mark.parametrize("p, q", ((2, 2), (3, 2), (2, 3), (1.5, 4), (-2, 2), (3, 1.001)))
def test_derivatives_vanish_at_zero_for_q_above_one(p, q):
    for fn in (dK_dk, dE_dk):
        assert fn(PQParams(p, q), 0.0) == 0.0, fn.__name__


@pytest.mark.parametrize("p", (3, 2, -2, 1.5))
def test_derivatives_at_zero_for_q_one_match_mpmath(p):
    # d/dk (pi_p1/2) F(a, 1; c; k) at k = 0 is (pi_p1/2) a/c, c = 1/p* + 1
    mpmath = pytest.importorskip("mpmath")
    par = PQParams(p, 1)
    with mpmath.workdps(30):
        ips = 1 - 1 / mpmath.mpf(p)
        half = mpmath.beta(ips, 1)
        for fn, a in ((dK_dk, ips), (dE_dk, -1 / mpmath.mpf(p))):
            ref = half * a / (ips + 1)
            assert abs(fn(par, 0.0) / ref - 1) <= 1e-15, (fn.__name__, p)


@pytest.mark.parametrize("p, q", ((2, 0.5), (3, 0.999), (-2, 0.05), (1.5, 1e-3)))
def test_derivatives_at_zero_for_q_below_one_raise_value_error(p, q):
    # the derivative is infinite there; 0.0 to a negative power must not
    # escape as ZeroDivisionError
    for fn in (dK_dk, dE_dk):
        with pytest.raises(ValueError, match="double range"):
            fn(PQParams(p, q), 0.0)


def _d_reference(mpmath, p, q, k, second_kind):
    """d/dk (pi_pq/2) F(a, 1/q; 1/p* + 1/q; k^q) at 40 digits."""
    with mpmath.workdps(40):
        p, q, k = mpmath.mpf(p), mpmath.mpf(q), mpmath.mpf(k)
        ips, b = 1 - 1 / p, 1 / q
        a, c = (-1 / p if second_kind else ips), ips + b
        half = mpmath.beta(ips, b) / q
        return half * q * k ** (q - 1) * (a * b / c) * mpmath.hyp2f1(a + 1, b + 1, c + 1, k**q)


@pytest.mark.parametrize("p, q", ((2, 2), (3, 2), (2, 3)))
def test_derivatives_match_mpmath_down_to_tiny_k(p, q):
    # E - (1 - k^q) K and E - K cancel to about k^q: at (2, 2), k = 1e-8,
    # dK_dk gave 2.2e-8 against 7.9e-9 and dE_dk gave 0.0
    mpmath = pytest.importorskip("mpmath")
    par = PQParams(p, q)
    lo, hi = math.log(1e-300), math.log(0.9)
    for j in range(200):
        k = math.exp(lo + (hi - lo) * j / 199)
        for fn, second_kind in ((dK_dk, False), (dE_dk, True)):
            ref = _d_reference(mpmath, p, q, k, second_kind)
            err = abs(fn(par, k) - ref)
            if abs(ref) >= sys.float_info.min:
                assert err <= 1e-12 * abs(ref), (fn.__name__, k)
            else:  # a few eps carried into the subnormals, and one spacing
                bound = 4.0 * sys.float_info.epsilon * abs(ref) + math.ulp(0.0)
                assert err <= bound, (fn.__name__, k)


def test_derivatives_at_the_ends_of_the_double_range():
    # the closed forms returned 0.0 at k = 1e-300 and +-inf at k = 5e-324,
    # where the value 1.05e319 is past the largest double
    par = PQParams(2, 0.5)
    assert math.isclose(dK_dk(par, 1e-300), 16.0 / 3.0 * 1e149, rel_tol=1e-14)
    assert math.isclose(dE_dk(par, 1e-300), -16.0 / 3.0 * 1e149, rel_tol=1e-14)
    for fn in (dK_dk, dE_dk):
        with pytest.raises(ValueError, match="double range"):
            fn(PQParams(2, 0.01), 5e-324)
    # the closed forms (k^q >= 1e-3) returned +-inf here, or raised
    # ZeroDivisionError where k (1 - k^q) or p k underflowed to 0
    closed = (
        (PQParams(3, 0.005), 1e-320),
        (PQParams(-0.05, 1e-12), 5e-324),
        (PQParams(-1e10, 1e-10), 5e-324),
    )
    for par, k in closed:
        for fn in (dK_dk, dE_dk):
            with pytest.raises(ValueError, match="double range"):
                fn(par, k)
    # 1 - k^q is subnormal: only dK_dk divides by it
    near_one = (PQParams(1e300, 1e-300), 0.9999999999999999)
    with pytest.raises(ValueError, match="double range"):
        dK_dk(*near_one)
    assert dE_dk(*near_one) == -3.61595849130431e-299
    assert dK_dk(PQParams(3, 0.005), 1e-310) == 7.77973771581732e306
    assert dE_dk(PQParams(3, 0.005), 1e-310) == -3.780599789698776e306


# references from mpmath at 60 digits; 1 - k^q formed by subtraction is off by
# up to 7.8e-4 relative at these points
DK_NEAR_ONE = (
    (4, 1.5, 0.999999999999, 666681414792.8476),
    (2.5, 2.5, 0.999999999999, 400008848877.14217),
    (50, 0.05, 0.999999999999, 20000442443669.532),
    (2, 3, 0.99999999, 33333329.955311172),
)


@pytest.mark.parametrize("p, q, k, ref", DK_NEAR_ONE, ids=("4-1.5", "2.5-2.5", "50-0.05", "2-3"))
def test_dK_near_one_uses_exact_complement(p, q, k, ref):
    assert math.isclose(dK_dk(PQParams(p, q), k), ref, rel_tol=1e-12)


@pytest.mark.parametrize("p, q", ((2, 2), (3, 2), (1.5, 4), (4, 1.5), (-2, 2), (50, 0.05)))
def test_quadrature_near_one_matches_mpmath(p, q):
    mpmath = pytest.importorskip("mpmath")
    par = PQParams(p, q)
    with mpmath.workdps(40):
        ips, iq = 1 - 1 / mpmath.mpf(p), 1 / mpmath.mpf(q)
        half = mpmath.beta(ips, iq) * iq
        for mq in (0.995, 1 - 1e-6, 1 - 1e-10):
            k = mq ** (1.0 / q)
            m = mpmath.mpf(k) ** q  # the argument of the float k, exactly
            K_ref = half * mpmath.hyp2f1(ips, iq, ips + iq, m)
            E_ref = half * mpmath.hyp2f1(-1 / mpmath.mpf(p), iq, ips + iq, m)
            K = K_pq(par, k, "quadrature").value
            E = E_pq(par, k, "quadrature").value
            assert abs(K / K_ref - 1) <= 1e-13, (mq, "K")
            assert abs(E / E_ref - 1) <= 1e-13, (mq, "E")


# ------------------------------------------------------- connection route


def _oracle():
    """perfbench's 30-digit references (mpmath), as its own tests import them."""
    pytest.importorskip("mpmath")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import oracle

    return oracle


def _connection_ratio(par, k, second_kind):
    """First term ratio a b w / (m + 1) of the connection sum, and w."""
    w = _pow_pair(k, par.q)[1]
    a, b = 1.0 / par.p_star, 1.0 / par.q
    if second_kind:
        return a * (1.0 + b) * w / 2.0, w
    return a * b * w, w


def test_classical_connection_against_agm_oracle():
    # agm_KE forms 1 - k^2 by subtraction, so it is no oracle much closer to 1
    par = PQParams(2, 2)
    for k in (0.75, 0.8, 0.9, 0.95, 0.99):
        K_exact, E_exact = agm_KE(k)
        assert abs(K_pq(par, k, "connection").value - K_exact) <= 1e-13 * K_exact
        assert abs(E_pq(par, k, "connection").value - E_exact) <= 1e-13


def test_connection_refuses_below_half():
    for par in DUALITY_PAIRS:
        for mq in (0.0, 0.3, 0.49):
            k = mq ** (1.0 / par.q)
            with pytest.raises(ValueError, match="connection route"):
                K_pq(par, k, "connection")
            with pytest.raises(ValueError, match="connection route"):
                E_pq(par, k, "connection")


# p -> 0-: 1/p* = 51, so the terms would grow.  At (-0.02, 2) the first term
# ratio already exceeds 1; at (-0.02, 25) K's first ratio is 0.8, but the
# later ratios (51 + n) w / (n + 1) exceed 1 and the terms grow before they
# cancel.  Both keep the route they took before the connection route existed;
# the values are those of that route, bit for bit.
GROWING_TERMS = (
    (-0.02, 2.0, 0.9, 0.37872316899994174, 0.3533064846146245),
    (-0.02, 25.0, 0.6, 0.8675451150034574, 0.8665552956121345),
)


@pytest.mark.parametrize("p, q, mq, K_auto, E_auto", GROWING_TERMS, ids=("q2", "q25"))
def test_connection_refuses_growing_terms(p, q, mq, K_auto, E_auto):
    par = PQParams(p, q)
    k = mq ** (1.0 / q)
    ratio_k, w = _connection_ratio(par, k, False)
    ratio_e, _ = _connection_ratio(par, k, True)
    assert w <= 0.5 and ratio_e > 1.0
    assert (ratio_k > 1.0) == (q == 2.0)
    for fn, auto in ((K_pq, K_auto), (E_pq, E_auto)):
        with pytest.raises(ValueError, match="connection route"):
            fn(par, k, "connection")
        r = fn(par, k)
        assert r.value == auto
        assert r.value == fn(par, k, "series").value


def test_overflow_reproducer_matches_oracle():
    # the quadrature integrand overflows here; auto sums the connection series
    oracle = _oracle()
    r = K_pq(PQParams(1.01, 0.5), 0.99)
    ref = float(oracle._twice(oracle._k_pq, 1.01, 0.5, 0.99))
    assert abs(r.value - ref) <= min(r.abs_err, 1e-13 * ref)


def _connection_sample():
    """The routes suite's (p, q) pairs for K and E plus 40 (p, q) pairs drawn from the domain
    p in (-50, -0.01) u (1.001, 50), q in (0.05, 50), at k^q from 0.51 to
    1 - 1e-12.  Every point lies inside the connection domain."""
    rng = random.Random(7)
    pts = [
        (p, q, mq)
        for p, q in ((2, 2), (3, 2), (2, 3), (1.5, 4))
        for mq in (0.51, 0.75, 0.9, 0.999, 1 - 1e-9, 1 - 1e-12)
    ]
    for j in range(40):
        p = rng.uniform(-50.0, -0.01) if j % 2 else rng.uniform(1.001, 50.0)
        pts.append((p, rng.uniform(0.05, 50.0), 1.0 - 10.0 ** rng.uniform(-12.0, math.log10(0.49))))
    return pts


def test_connection_matches_oracle_within_its_error():
    oracle = _oracle()
    for p, q, mq in _connection_sample():
        par = PQParams(p, q)
        k = mq ** (1.0 / q)
        for fn, ref_fn in ((K_pq, oracle._k_pq), (E_pq, oracle._e_pq)):
            r = fn(par, k, "connection")
            ref = float(oracle._twice(ref_fn, p, q, k))
            err = abs(r.value - ref)
            assert err <= r.abs_err, (fn.__name__, p, q, mq, err, r.abs_err)
            assert err <= 1e-13 * abs(ref), (fn.__name__, p, q, mq, err)


def test_connection_is_one_call_of_the_module_kernel(monkeypatch):
    # tracing replaces elliptic.hyp2f1 and reads F's argument from args[0].arg,
    # so the connection sum goes through that name; its domain is checked once
    par, kq = PQParams(2, 3), 0.95
    k = kq ** (1.0 / 3.0)
    unwrapped = {fn: fn(par, k) for fn in (K_pq, E_pq)}
    kernel, domain = elliptic.hyp2f1, elliptic._connection_domain
    specs, checks = [], []
    monkeypatch.setattr(elliptic, "hyp2f1", lambda spec: specs.append(spec) or kernel(spec))
    monkeypatch.setattr(
        elliptic, "_connection_domain", lambda *a: checks.append(a) or domain(*a)
    )
    for fn, want in unwrapped.items():
        specs.clear()
        checks.clear()
        r = fn(par, k)
        assert len(specs) == 1 and len(checks) == 1, fn.__name__
        assert abs(specs[0].arg - kq) <= math.ulp(kq), fn.__name__
        assert r == want, fn.__name__


def test_series_error_covers_pi_pq_rounding():
    # lgamma values in the hundreds put ~1e-13 of relative rounding into
    # pi_pq here; the series route's abs_err must cover it
    mpmath = pytest.importorskip("mpmath")
    p, q = -0.011, 0.06
    par = PQParams(p, q)
    k = 0.9 ** (1.0 / q)
    with mpmath.workdps(40):
        mp_, mq = mpmath.mpf(p), mpmath.mpf(q)
        a, b = (mp_ - 1) / mp_, 1 / mq  # 1/p*, 1/q
        m = mpmath.mpf(k) ** mq
        half = mpmath.beta(a, b) / mq  # pi_pq / 2
        for fn, first in ((K_pq, a), (E_pq, -1 / mp_)):
            r = fn(par, k)
            assert r.method == "series"
            ref = half * mpmath.hyp2f1(first, b, a + b, m)
            assert abs(mpmath.mpf(r.value) - ref) <= r.abs_err, fn.__name__


# -------------------------------------------------- Legendre-type relation


def test_legendre_zero_for_equal_exponents():
    for k in (0.0, 0.3, 0.7):
        assert abs(legendre_residual(2.5, 2.5, k)) <= 1e-12


def test_legendre_grid():
    # 30 points across unequal and equal exponent pairs
    for p, q in ((2, 3), (3, 2), (1.5, 4), (4, 1.5), (2.5, 2.5), (2, 4)):
        for k in (0.0, 0.2, 0.5, 0.8, 0.95):
            assert abs(legendre_residual(p, q, k)) <= 1e-9, (p, q, k)


@pytest.mark.parametrize("k", [0.999, 1 - 1e-6, 1 - 1e-9])
def test_legendre_near_one_on_the_suite_pairs(k):
    # every integral takes the exact pair (k, 1 - k); moduli rebuilt through
    # k^(1/q) and k^(1/p) put 1.7e-7 into the residual at k = 1 - 1e-9
    for p, q in _LEGENDRE_PAIRS:
        assert abs(legendre_residual(p, q, k)) <= 1e-12, (p, q)


def test_legendre_at_zero_is_bracket_identity():
    # at k = 0 the bracket collapses to (p - q) pi_pq pi_qp / 4 exactly
    assert abs(legendre_residual(3, 2, 0.0)) <= 1e-12


def test_legendre_domain():
    for p, q in ((1.0, 2.0), (0.5, 2.0), (2.0, 1.0)):
        with pytest.raises(ValueError):
            legendre_residual(p, q, 0.5)
    with pytest.raises(ValueError):
        legendre_residual(2.0, 3.0, 1.0)


# -------------------------------------------------------------- moments


def test_moment_order_zero_is_half_period():
    for par in DUALITY_PAIRS:
        assert moment_sin_pq(par, 0) == 0.5 * pi_pq(par)


@pytest.mark.parametrize(
    "p, q, tol", [(3.0, 2.0, 1e-13), (2.0, 1e-3, 1e-11)],
)
def test_moment_past_pochhammer_overflow(p, q, tol):
    # both Pochhammer symbols overflow from n ~ 171 on: their quotient was nan.
    # At q = 1e-3, pi_pq's own rounding (7.7e-13) is the error
    mpmath = pytest.importorskip("mpmath")
    par, n = PQParams(p, q), 200
    with mpmath.workdps(50):
        mq, ps = mpmath.mpf(q), mpmath.mpf(p) / (mpmath.mpf(p) - 1)
        ref = mpmath.beta(1 / ps, 1 / mq) / mq * mpmath.rf(1 / mq, n) / mpmath.rf(1 / ps + 1 / mq, n)
        assert abs(mpmath.mpf(moment_sin_pq(par, n)) / ref - 1) <= tol


def test_moment_classical_sin_squared():
    # integral_0^{pi/2} sin^2 = pi/4
    assert abs(moment_sin_pq(PQParams(2, 2), 1) - math.pi / 4.0) <= 1e-13


def test_moments_match_beta_integral():
    for p, q in ((2, 2), (3, 2), (1.5, 4)):
        par = PQParams(p, q)
        inv_q, inv_p = 1.0 / q, 1.0 / p
        for n in range(6):
            expo = n + inv_q - 1.0

            def f(t, tc, expo=expo, inv_p=inv_p):
                return t**expo * tc**-inv_p

            oracle = inv_q * integrate_singular(f, 1e-12).value
            assert abs(moment_sin_pq(par, n) - oracle) <= 1e-9, (p, q, n)


def test_moment_rejects_negative_order():
    # int(inf) raised OverflowError
    for bad in (-1, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="nonnegative integer"):
            moment_sin_pq(PQParams(2, 2), bad)
    # the product takes n factors: these orders passed the check and hung
    for huge in (1e300, 10**400, 2**20 + 1):
        with pytest.raises(ValueError, match=r"at most 2\*\*20 = 1048576"):
            moment_sin_pq(PQParams(2, 2), huge)
    assert moment_sin_pq(PQParams(2, 2), 2**20) == 0.0008654558787171471


# ------------------------------------------------------------- validation


def test_modulus_validation():
    par = PQParams(2, 2)
    for bad in (-0.1, 1.0, 1.5, math.nan):
        with pytest.raises(ValueError):
            K_pq(par, bad)
        with pytest.raises(ValueError):
            E_pq(par, bad)


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        K_pq(PQParams(2, 2), 0.5, "tables")

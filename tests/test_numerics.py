"""Core numerical kernels: gamma/beta/digamma, hypergeometric series and
their connection series, singular quadrature, half-line quadrature, and
monotone inversion."""

import math
import random
import sys
from fractions import Fraction

import pytest

from pqelliptic import elliptic, gentrig, means, numerics
from pqelliptic.numerics import (
    ConvergenceError,
    EvalResult,
    HypSeriesSpec,
    _connection_domain,
    _ConnectionSpec,
    _pow_pair,
    beta,
    digamma,
    hyp2f1,
    integrate_halfline,
    integrate_singular,
    invert_monotone,
    log_gamma,
)


def f21(a, b, c, x, **kw):
    return hyp2f1(HypSeriesSpec(a, b, c, x, **kw)).value


# ---------------------------------------------------------------- log_gamma


def test_log_gamma_anchors():
    assert log_gamma(1.0) == 0.0
    assert math.isclose(log_gamma(0.5), 0.5 * math.log(math.pi), rel_tol=1e-14)
    assert math.isclose(log_gamma(10.0), math.log(362880.0), rel_tol=1e-14)


def test_log_gamma_against_exact_factorials():
    # Gamma(n) = (n-1)! and Gamma(n + 1/2) = (2n)! sqrt(pi) / (4^n n!) give
    # exact anchors across the stated range without reusing lgamma itself.
    for n in (1, 2, 3, 5, 8, 12, 20, 50, 100, 170):
        exact = math.log(float(math.factorial(n - 1)))
        assert abs(log_gamma(float(n)) - exact) <= 1e-13 * max(1.0, abs(exact))
    for n in (0, 1, 2, 5, 10, 40):
        exact = (
            math.log(float(math.factorial(2 * n)))
            + 0.5 * math.log(math.pi)
            - n * math.log(4.0)
            - math.log(float(math.factorial(n)))
        )
        assert abs(log_gamma(n + 0.5) - exact) <= 1e-13 * max(1.0, abs(exact))


def test_log_gamma_small_argument():
    # Gamma(x) ~ 1/x as x -> 0, so ln Gamma(1e-3) is close to ln 1000
    x = 1e-3
    # recurrence Gamma(x) = Gamma(x+1)/x with Gamma(1.001) from the same
    # routine exercises internal consistency at the domain edge
    assert math.isclose(log_gamma(x), log_gamma(x + 1.0) - math.log(x), rel_tol=1e-13)


def test_log_gamma_domain():
    for bad in (0.0, -1.0, -0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            log_gamma(bad)


@pytest.mark.parametrize(
    "call, message",
    [(lambda: log_gamma(1e306), r"^log_gamma overflows at x = 1e\+306$"),
     (lambda: beta(1.0, 1e306), r"^log_gamma overflows at x = 1e\+306$"),
     (lambda: beta(1e-308, 1e-308), r"^beta overflows at \(1e-308, 1e-308\)$")],
    ids=["log_gamma", "beta_lgamma", "beta_exp"],
)
def test_gamma_overflow_raises_value_error(call, message):
    # math.lgamma overflows past x ~ 2.5e305 and exp where B leaves the
    # double range; both raised OverflowError
    with pytest.raises(ValueError, match=message):
        call()


# --------------------------------------------------------------------- beta


def test_beta_anchors():
    assert math.isclose(beta(1.0, 1.0), 1.0, rel_tol=1e-14)
    assert math.isclose(beta(0.5, 0.5), math.pi, rel_tol=1e-13)


def test_beta_reflection_value():
    # B(2/3, 1/3) = Gamma(2/3) Gamma(1/3) = pi / sin(pi/3) = 2 pi / sqrt(3)
    exact = 2.0 * math.pi / math.sqrt(3.0)
    assert math.isclose(beta(2.0 / 3.0, 1.0 / 3.0), exact, rel_tol=1e-12)
    # quadrature cross-check of the defining integral
    quad = integrate_singular(lambda t, tc: t ** (-1.0 / 3.0) * tc ** (-2.0 / 3.0), 1e-12).value
    assert math.isclose(quad, exact, rel_tol=1e-12)


def test_beta_symmetry_and_domain():
    assert beta(1.25, 2.5) == beta(2.5, 1.25)
    for bad in ((0.0, 1.0), (1.0, -2.0), (-1.0, -1.0)):
        with pytest.raises(ValueError):
            beta(*bad)


# ------------------------------------------------------------------- hyp2f1


def test_hyp2f1_at_zero_is_one():
    for a, b, c in ((0.3, 0.7, 1.1), (2.0, 5.0, 0.5), (-1.5, 4.0, 2.0)):
        r = hyp2f1(HypSeriesSpec(a, b, c, 0.0))
        assert r.value == 1.0
        assert r.method == "series"


def test_hyp2f1_log_closed_form():
    # F(1, 1; 2; x) = -ln(1 - x) / x; independent oracle: direct 200-term sum
    x = 0.5
    direct = sum(x**n / (n + 1.0) for n in range(200))
    exact = 2.0 * math.log(2.0)
    assert math.isclose(direct, exact, rel_tol=1e-14)
    assert math.isclose(f21(1.0, 1.0, 2.0, x), exact, rel_tol=1e-13)


def test_hyp2f1_elliptic_quadrature_oracle():
    # F(1/2, 1/2; 1; k^2) = (2/pi) * integral_0^{pi/2} (1 - k^2 sin^2)^(-1/2)
    k2 = 0.25

    def integrand(t, tc):  # theta = (pi/2) t
        s = math.sin(0.5 * math.pi * t)
        return 1.0 / math.sqrt(1.0 - k2 * s * s)

    oracle = integrate_singular(integrand, 1e-13).value
    assert math.isclose(f21(0.5, 0.5, 1.0, k2), oracle, rel_tol=1e-12)


def test_hyp2f1_symmetric_in_a_b_exactly():
    for a, b, c in ((0.3, 1.7, 2.2), (0.25, 0.75, 1.5), (1.1, 3.3, 4.0)):
        for x in (0.1, 0.4, 0.7, 0.9):
            assert f21(a, b, c, x) == f21(b, a, c, x)


def test_hyp2f1_dilog_identity_grid():
    # x F(1,1;2;x) + ln(1-x) = 0 on (0, 1)
    for i in range(1, 20):
        x = i / 20.0
        assert abs(x * f21(1.0, 1.0, 2.0, x) + math.log1p(-x)) <= 1e-10


def test_hyp2f1_decreasing_in_c():
    # positive-series domination: larger c shrinks every term
    for a, b in ((0.5, 0.5), (1.0, 0.25), (2.0, 1.5)):
        for x in (0.2, 0.5, 0.8):
            values = [f21(a, b, c, x) for c in (0.5, 1.0, 1.5, 2.5, 4.0)]
            assert all(u > v for u, v in zip(values, values[1:]))


def test_hyp2f1_error_estimate_and_terminating():
    r = hyp2f1(HypSeriesSpec(-2.0, 1.0, 1.0, 0.5))  # polynomial: (1-x)^2 pattern
    # a = -2 terminates the series after 3 terms
    assert math.isclose(r.value, 1.0 - 2.0 * 0.5 + 0.25, rel_tol=1e-14)
    assert r.abs_err == 0.0


def test_hyp2f1_nonconvergence(monkeypatch):
    monkeypatch.setattr(numerics, "_MAX_TERMS", 5)
    with pytest.raises(ConvergenceError, match="within 5 terms"):
        hyp2f1(HypSeriesSpec(0.5, 0.5, 1.0, 0.9))


def test_hyp2f1_stops_at_a_nan_term(monkeypatch):
    # (a + n)(b + n) overflows: the terms run to inf and then NaN, no NaN
    # compares as small, and the sum ran 10^6 terms to raise
    # ConvergenceError.  It stops two terms after the NaN and names the spec
    monkeypatch.setattr(numerics, "_MAX_TERMS", 10)
    with pytest.raises(
        ValueError, match=r"^hypergeometric series sum is not finite: nan "
        r"\(a=1e\+300, b=-1e\+300, c=1e\+300, arg=1e-300\)$"
    ):
        hyp2f1(HypSeriesSpec(1e300, -1e300, 1e300, 1e-300))


def test_hyp2f1_at_argument_zero_is_one_whatever_overflows():
    # (a + n)(b + n) overflows and meets the zero argument in a NaN term;
    # F is 1 there, and arcsin_pq(1) is pi_pq/2, 0.0 in doubles at this pair
    from pqelliptic.gentrig import PQParams, arcsin_pq, pi_pq

    assert hyp2f1(HypSeriesSpec(1e300, -1e300, 1e300, 0.0)) == EvalResult(1.0, 0.0, "series")
    par = PQParams(-1e-300, 1e-300)
    assert arcsin_pq(par, 1.0) == 0.5 * pi_pq(par) == 0.0


def test_hyp_series_spec_validation():
    with pytest.raises(ValueError):
        HypSeriesSpec(1.0, 1.0, 0.0, 0.5)  # c = 0
    with pytest.raises(ValueError):
        HypSeriesSpec(1.0, 1.0, -3.0, 0.5)  # c negative integer
    HypSeriesSpec(1.0, 1.0, -2.5, 0.5)  # non-integer negative c is fine
    with pytest.raises(ValueError):
        HypSeriesSpec(1.0, 1.0, 2.0, 1.5)  # |arg| > 1
    # arg = 1 is rejected whatever c - a - b is: 0, 1.5, 2, 2/3
    for a, b, c in ((1.0, 1.0, 2.0), (0.25, 0.25, 2.0), (0.5, 0.5, 3.0), (1.0, 1 / 3, 2.0)):
        with pytest.raises(ValueError, match=r"needs \|arg\| < 1$"):
            HypSeriesSpec(a, b, c, 1.0)
    for bad in (math.nan, math.inf, -math.inf):
        for abc in ((bad, 0.5, 2.0), (0.5, bad, 2.0), (0.5, 0.5, bad)):
            with pytest.raises(ValueError, match="must be finite"):
                HypSeriesSpec(*abc, 0.5)
    with pytest.raises(ValueError):
        HypSeriesSpec(1.0, 1.0, 2.0, 0.5, rel_tol=0.0)


# ------------------------------------------------ digamma, connection series


def test_digamma_anchors_and_recurrence():
    gamma = 0.5772156649015329
    assert math.isclose(digamma(1.0), -gamma, rel_tol=1e-15)
    assert math.isclose(digamma(0.5), -gamma - 2.0 * math.log(2.0), rel_tol=1e-15)
    for x in (1e-3, 0.3, 1.4616321449683622, 7.5, 9.99, 250.0):
        assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) <= 1e-14 * max(1.0, 1.0 / x)
    for bad in (0.0, -1.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            digamma(bad)


def test_digamma_raises_where_it_leaves_the_double_range():
    # psi(x) ~ -1/x, which overflows below x ~ 5.6e-309
    for x in (5e-324, 5e-309):
        with pytest.raises(ValueError, match=f"digamma overflows at x = {x!r}"):
            digamma(x)
    assert digamma(1e-308) == -1e308


def test_digamma_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    xs = [10.0 ** (-3.0 + 6.0 * j / 600) for j in range(601)]
    xs += [float(n) for n in range(1, 21)] + [1.4616321449683622, 9.999999999, 10.0]
    with mpmath.workdps(30):
        for x in xs:
            ref = mpmath.digamma(x)
            assert abs(digamma(x) - ref) <= 1e-14 * max(1.0, abs(ref)), x


def _connection(a, b, m, w):
    return hyp2f1(_ConnectionSpec(a, b, m, w))


def test_connection_series_closed_forms():
    # F(1, 1; 2; z) = -log(1 - z)/z = -S_0(1, 1; w), so S_0 = log(w) / (1 - w);
    # F(2, 2; 3; z) = 2 (1/w + S_1(2, 2; w)) gives S_1 = (z + log w) / z^2
    for w in (0.5, 0.25, 1e-3, 1e-8, 1e-300):
        z = 1.0 - w
        for r, want in (
            (_connection(1.0, 1.0, 0, w), math.log(w) / z),
            (_connection(2.0, 2.0, 1, w), (z + math.log(w)) / (z * z)),
        ):
            assert r.method == "series"
            assert abs(r.value - want) <= r.abs_err + 4e-16 * abs(want), w
            assert abs(r.value - want) <= 1e-14 * abs(want), w


def test_connection_spec_validation():
    # the public spec has one meaning; the connection sum has its own spec
    assert HypSeriesSpec._fields == ("a", "b", "c", "arg", "rel_tol")
    assert _ConnectionSpec(1.0, 1.0, 0, 0.25).arg == 0.75
    # q = 0.05, k = 1 - 2^-53: k^q rounds to 1.0, its complement does not
    m, w = _pow_pair(1.0 - 2.0**-53, 0.05)
    assert m == 1.0 and 0.0 < w < 1e-17
    assert _connection_domain(1.0, 1.0, 0, w)
    assert math.isfinite(_connection(1.0, 1.0, 0, w).value)
    for a, b, order, w in (
        (1.0, 1.0, 0, 0.6),  # w > 1/2
        (51.0, 0.5, 0, 0.1),  # terms grow
        (-0.5, 0.5, 0, 0.1),  # a <= 0
        (1.0, 1.0, 0, 0.0),  # w = 0
    ):
        assert not _connection_domain(a, b, order, w)


def _ratio_bound_points(rng, count):
    """Seeded points of ``_connection_domain``: m in {0, 1}, a and b
    log-uniform in [1e-6, 1e6], a third of them on the edge A B w = 1."""
    points = []
    while len(points) < count:
        m = rng.randint(0, 1)
        a, b = 10.0 ** rng.uniform(-6.0, 6.0), 10.0 ** rng.uniform(-6.0, 6.0)
        edge = min(0.5, 1.0 / (max(a, 1.0) * max(b / (m + 1), 1.0)))
        w = edge if len(points) % 3 == 0 else edge * rng.random()
        while w > 0.0 and not _connection_domain(a, b, m, w):
            w = math.nextafter(w, 0.0)  # the edge's rounding may land just outside
        if w > 0.0:
            points.append((a, b, m, w))
    return points


def test_log_series_ratio_bound_stays_below_one():
    # _log_series's tail bound divides by 1 - r, with r the bound on every
    # later coefficient ratio; inside _connection_domain r <= 11/12
    rng = random.Random(26)
    for a, b, m, w in _ratio_bound_points(rng, 20_000):
        for n in (0, 1, 2, 5, 50, 10_000):
            r = max((a + n + 1) / (n + 2), 1.0) * max((b + n + 1) / (n + m + 2), 1.0) * w
            assert r <= 11.0 / 12.0, (a, b, m, w, n)


def test_log_series_that_does_not_settle_raises(monkeypatch):
    monkeypatch.setattr(numerics, "_MAX_TERMS", 2)
    with pytest.raises(ConvergenceError, match="connection series did not settle"):
        hyp2f1(_ConnectionSpec(0.5, 0.5, 0, 0.3))


# ----------------------------------------------- the series loops, bit for bit
#
# hyp2f1, _log_series and digamma count terms with a float n, bind their
# constants once and unroll digamma's Horner rule; these are the plain loops
# they replaced, each floating-point operation with the same operands in the
# same order, so every value, error estimate and exception text must match.
# (The 10^6-term ConvergenceError is left out: the sample never reaches it.)


def _plain_digamma(x):
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"digamma requires x > 0, got {x!r}")
    if 1.0 / x == math.inf:
        raise ValueError(f"digamma overflows at x = {x!r}")
    parts = []
    while x < 10.0:
        parts.append(-1.0 / x)
        x += 1.0
    y = 1.0 / (x * x)
    tail = 0.0
    for coef in reversed(numerics._PSI_SERIES):
        tail = tail * y + coef
    parts += (math.log(x), -0.5 / x, -y * tail)
    return math.fsum(parts)


def _plain_gauss(spec):
    a, b, c, x = spec.a, spec.b, spec.c, spec.arg
    if x == 0.0:
        return EvalResult(1.0, 0.0, "series")
    total = 1.0
    term = 1.0
    small = 0
    for n in range(numerics._MAX_TERMS):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * x
        if not abs(term) > spec.rel_tol * abs(total):
            small += 1
            if small >= 2:
                if not math.isfinite(total):
                    raise ValueError(
                        f"hypergeometric series sum is not finite: {total!r} "
                        f"(a={a!r}, b={b!r}, c={c!r}, arg={x!r})"
                    )
                return EvalResult(total, abs(term), "series")
        else:
            small = 0
        total += term


def _plain_log_series(spec):
    a, b, m, w = spec.a, spec.b, spec.m, spec.w
    log_w = math.log(w)
    psi_a, psi_b = _plain_digamma(a), _plain_digamma(b)
    bracket = log_w + 2.0 * numerics._EULER_GAMMA - m + psi_a + psi_b
    ua, ub = 1.0 - a, m + 1.0 - b
    da, ya = 2.0 * abs(ua), min(a, 1.0)
    db, yb = 2.0 * abs(ub), min(b, m + 1.0)
    size_w = abs(log_w)
    cw = 1.0
    total = peak = mass = 0.0
    for n in range(numerics._MAX_TERMS):
        term = cw * bracket
        total += term
        if abs(term) > peak:
            peak = abs(term)
        mass += cw
        an, bn, n1 = a + n, b + n, n + 1.0
        cw *= an * bn / (n1 * (n1 + m)) * w
        bracket += ua / (an * n1) + ub / (bn * (n1 + m))
        if cw * size_w > 2.0**-53 * abs(total):
            continue
        r = max((a + n + 1) / (n + 2), 1.0) * max((b + n + 1) / (n + m + 2), 1.0) * w
        stray = da / (ya + n + 1) + db / (yb + n + 1)
        tail = cw * (size_w + stray) / (1.0 - r)
        if tail <= 2.0**-53 * abs(total):
            constants = 4.0 * (size_w + abs(psi_a) + abs(psi_b) + 2.0) * mass
            eps = sys.float_info.epsilon
            return EvalResult(total, tail + eps * ((n + 1) * peak + constants), "series")


def _outcome(fn, arg):
    try:
        return repr(fn(arg))
    except (ValueError, ConvergenceError) as e:
        return f"{type(e).__name__}: {e}"


def _gauss_sample(rng, count):
    """Seeded HypSeriesSpecs: both rel_tols, negative, zero and positive
    arguments, terminating and non-terminating series, and the specs whose
    sum stops at a NaN term (an invalid error estimate) or ends non-finite."""

    def size():
        return 10.0 ** rng.uniform(-6.0, 1.7)

    specs = [
        HypSeriesSpec(-0.5, 1.5e308, 1e308, 0.5),  # a small term, then a NaN one
        HypSeriesSpec(1e300, -1e300, 1e300, 1e-300),  # the sum ends NaN
        HypSeriesSpec(1e300, 1e300, 1.0, 0.5),  # the sum ends infinite
    ]
    while len(specs) < count:
        a = rng.choice((size(), -size(), -float(rng.randint(0, 6))))
        b = rng.choice((size(), -size()))
        c = rng.choice((a + b, a + b + 1.0, size(), -size() - 0.5))
        if c <= 0.0 and c.is_integer():
            continue
        x = rng.choice((rng.uniform(-0.99, 0.99), rng.uniform(0.9, 0.99), -rng.random(), 0.0))
        specs.append(HypSeriesSpec(a, b, c, x, rng.choice((1e-14, 2.0**-53))))
    return specs


def test_series_loops_change_no_bit():
    rng = random.Random(29)
    cases = [(hyp2f1, _plain_gauss, s) for s in _gauss_sample(rng, 3000)]
    cases += [
        (hyp2f1, _plain_log_series, _ConnectionSpec(*point))
        for point in _ratio_bound_points(rng, 1500)
        + [(rng.uniform(0.05, 2.0), rng.uniform(0.05, 2.0), m, 10.0 ** rng.uniform(-300, -0.31))
           for m in (0, 1) for _ in range(250)]
    ]
    xs = [10.0 ** rng.uniform(-308.5, 6.0) for _ in range(2000)]
    xs += [5e-324, 5e-309, 1e-308, 0.0, -1.0, math.nan, math.inf, 9.999999999999998, 10.0, 1]
    cases += [(digamma, _plain_digamma, x) for x in xs]
    outcomes = []
    for fn, plain, arg in cases:
        got = _outcome(fn, arg)
        assert got == _outcome(plain, arg), arg
        outcomes.append(got)
    assert "ValueError: invalid error estimate nan" in outcomes
    assert "ValueError: hypergeometric series sum is not finite: nan" in " ".join(outcomes)
    assert "ValueError: hypergeometric series sum is not finite: inf" in " ".join(outcomes)
    assert sum(o.startswith("EvalResult") for o in outcomes) > 4000
    assert "ValueError: digamma overflows at x = 5e-324" in outcomes


# ------------------------------------------------------- singular quadrature


def test_integrate_constant():
    r = integrate_singular(lambda t, tc: 1.0, 1e-12)
    assert abs(r.value - 1.0) <= 1e-12
    assert r.method == "quadrature"
    assert r.abs_err <= 1e-12


def test_integrate_arcsin_singularity():
    r = integrate_singular(lambda t, tc: (tc * (1.0 + t)) ** -0.5, 1e-12)
    assert abs(r.value - 0.5 * math.pi) <= 1e-12


def test_integrate_cube_root_singularity():
    # integral_0^1 (1 - t^3)^(-1/3) dt = (1/3) B(1/3, 2/3) = 2 pi / (3 sqrt(3))
    exact = 2.0 * math.pi / (3.0 * math.sqrt(3.0))

    def f(t, tc):
        return (tc * (1.0 + t + t * t)) ** (-1.0 / 3.0)

    assert abs(integrate_singular(f, 1e-12).value - exact) <= 1e-12


def test_integrate_beta_grid_within_requested_tol():
    # (1 - t^q)^(-1/p) integrates to (1/q) B(1/q, 1 - 1/p)
    tol = 1e-12
    for p, q in ((2.0, 2.0), (3.0, 2.0), (2.0, 3.0), (1.5, 1.5)):
        exact = (1.0 / q) * beta(1.0 / q, 1.0 - 1.0 / p)

        def f(t, tc, p=p, q=q):
            # 1 - t^q through log1p/expm1 so the complement carries precision
            lg = math.log1p(-tc) if tc < 0.5 else math.log(t)
            return (-math.expm1(q * lg)) ** (-1.0 / p)

        r = integrate_singular(f, tol)
        assert abs(r.value - exact) <= tol, (p, q)


def test_integrate_never_evaluates_endpoints():
    # no node passes t = 0 or 1 - t = 0, and the pair is (t, 1 - t)
    seen = []

    def f(t, tc):
        seen.append((t, tc))
        return 1.0

    integrate_singular(f, 1e-10)
    assert seen and all(t > 0.0 and tc > 0.0 for t, tc in seen)
    assert all(math.isclose(t + tc, 1.0, rel_tol=4e-16) for t, tc in seen)


def test_integrate_rejects_bad_tol_and_nonfinite():
    with pytest.raises(ValueError):
        integrate_singular(lambda t, tc: 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_singular(lambda t, tc: float("inf"), 1e-10)


@pytest.mark.parametrize(
    "f",
    (lambda t, tc: tc**-1000.0, lambda t, tc: 1.0 / (t - t), lambda t, tc: math.exp(1e3)),
    ids=("pow_overflow", "division_by_zero", "exp_overflow"),
)
def test_integrate_turns_arithmetic_errors_into_value_error(f):
    # OverflowError and ZeroDivisionError from the integrand are non-finite
    # values; the message gives 1 - t, which resolves the upper end
    with pytest.raises(ValueError, match=r"non-finite value near t=.* \(1 - t = "):
        integrate_singular(f, 1e-10)


def test_integrate_rejects_a_sum_that_overflows():
    # each term is finite and its sum is not: fsum raised OverflowError, as
    # in mean_kp(1, 6.6e-309, 6.18e-7, "integral")
    with pytest.raises(ValueError, match="sum overflows"):
        integrate_singular(lambda t, tc: 1e308, 1e-10)


# ------------------------------------------------------ half-line quadrature


def test_halfline_values():
    assert abs(integrate_halfline(lambda t: (1.0 + t) ** -2.0, 1e-12).value - 1.0) <= 1e-12
    r = integrate_halfline(lambda t: 1.0 / (1.0 + t * t), 1e-12)
    assert abs(r.value - 0.5 * math.pi) <= 1e-12


def test_halfline_normalizer_identity():
    # integral_0^inf (1 + t^2)^(-1) dt equals pi_{2,2}/2 = pi/2: the p = 2
    # instance of the half-line normalizer
    r = integrate_halfline(lambda t: (1.0 + t * t) ** -1.0, 1e-12)
    assert abs(r.value - 0.5 * math.pi) <= 1e-12


def test_halfline_failure_names_the_halfline_abscissa():
    # the message gave the (0, 1) node, t=1.0, where the integrand saw ~1e16
    def f(t):
        return (1.0 + t * t) ** -1.0 if t < 1e10 else math.nan

    with pytest.raises(ValueError, match="non-finite value near t=") as err:
        integrate_halfline(f, 1e-12)
    assert float(str(err.value).rsplit("t=", 1)[1]) >= 1e10


# ------------------------------------------------------------ tail cut


def _far_tail(t, tc):
    # (1 - t^(1/20))^100: its mass sits at t of about 1e-40, far out in u
    return numerics._one_minus_pow(t, tc, 0.05) ** 100


def test_tail_cut_changes_no_bit(monkeypatch, mp_work_grid):
    # with _TAIL = 0 every node counts as significant, so every node runs;
    # the cut must leave every result, error estimate and exception text as
    # it was, and run fewer integrand calls.  _mean_kp's integral raises at
    # (p, x) = (0.2, 1e-300), (0.5, 1e-100) and (0.5, 1e-300) either way:
    # 1/K_p is astronomically large there and the tolerance is absolute
    evals = [0]
    body = numerics._tanh_sinh

    def counted(f, tol, where):
        def g(t, tc):
            evals[0] += 1
            return f(t, tc)

        return body(g, tol, where)

    def outcome(fn, *args):
        try:
            return fn(*args)
        except (ValueError, ConvergenceError) as e:
            return type(e).__name__, str(e)

    def run():
        evals[0] = 0
        out = [
            outcome(fn, 1.0, x, p, "integral")
            for p, x in mp_work_grid
            for fn in (means._mean_mp, means._mean_kp)
        ]
        means_evals = evals[0]
        for p, q in ((2.0, 2.0), (3.0, 2.0), (2.0, 3.0), (1.5, 4.0)):
            for j in range(1, 13):
                k = (1.0 - 10.0**-j) ** (1.0 / q)
                for fn in (elliptic.K_pq, elliptic.E_pq):
                    out.append(outcome(fn, gentrig.PQParams(p, q), k, "quadrature"))
        for p, q in ((-0.01, 0.05), (3.0, 2.0)):
            for x in (0.1, 0.5, 0.9, 0.999999, 1.0):
                out.append(outcome(gentrig._arcsin, gentrig.PQParams(p, q), x, "quadrature"))
        out.append(integrate_halfline(lambda t: (1.0 + t) ** -2.0, 1e-12))
        out.append(integrate_singular(_far_tail, 1e-34))
        return out, means_evals

    monkeypatch.setattr(numerics, "_tanh_sinh", counted)
    cut, cut_evals = run()
    monkeypatch.setattr(numerics, "_TAIL", 0.0)
    full, full_evals = run()
    assert cut == full
    assert sum(not isinstance(r, EvalResult) for r in cut) == 3
    assert cut_evals < full_evals, (cut_evals, full_evals)
    # integral_0^1 (1 - t^(1/20))^100 dt = 20 B(20, 101)
    exact = 20 * Fraction(math.factorial(19) * math.factorial(100), math.factorial(120))
    assert abs(cut[-1].value / float(exact) - 1.0) <= 1e-12


# ---------------------------------------------------------- invert_monotone


def _asin(x):
    """asin with its slope and curvature, both infinite at 1."""
    if x == 1.0:
        return math.asin(x), math.inf, math.inf
    d = 1.0 / math.sqrt(1.0 - x * x)
    return math.asin(x), d, x * d**3


def test_invert_identity_cube_arcsin():
    assert abs(invert_monotone(lambda x: (x, 1.0, 0.0), 0.3, 0.0, 1.0, 1e-12) - 0.3) <= 1e-11
    cube = lambda x: (x**3, 3.0 * x * x, 6.0 * x)
    assert abs(invert_monotone(cube, 0.008, 0.0, 1.0, 1e-12) - 0.2) <= 1e-10
    got = invert_monotone(_asin, math.pi / 6.0, 0.0, 1.0, 1e-12)
    assert abs(got - 0.5) <= 1e-11


def test_invert_roundtrip_grid():
    tol = 1e-12
    g = lambda x: (x**3 + x, 3.0 * x * x + 1.0, 6.0 * x)  # slope >= 1 everywhere
    for i in range(50):
        x = 0.02 + (2.0 - 0.02) * i / 49.0
        back = invert_monotone(g, g(x)[0], 0.0, 2.5, tol)
        assert abs(back - x) <= 10.0 * tol


def test_invert_endpoints_and_bracket_error():
    line = lambda x: (x, 1.0, 0.0)
    assert invert_monotone(line, 0.0, 0.0, 1.0, 1e-12) == 0.0
    assert invert_monotone(line, 1.0, 0.0, 1.0, 1e-12) == 1.0
    with pytest.raises(ValueError):
        invert_monotone(line, 2.0, 0.0, 1.0, 1e-12)
    with pytest.raises(ValueError):
        invert_monotone(line, -0.1, 0.0, 1.0, 1e-12)


def test_invert_rejects_an_empty_bracket_and_bad_tol():
    for lo, hi in ((1.0, 1.0), (1.0, 0.0), (0.0, math.nan)):
        with pytest.raises(ValueError, match="^need lo < hi"):
            invert_monotone(lambda x: x, 0.5, lo, hi, 1e-12)
    for tol in (0.0, -1e-12, math.nan):
        with pytest.raises(ValueError, match="^tol must be positive"):
            invert_monotone(lambda x: x, 0.5, 0.0, 1.0, tol)


def _logged(g, log):
    """g, recording each argument it is called at."""

    def wrapped(x):
        log.append(x)
        return g(x)

    return wrapped


def _newton(g):
    """g with its curvature replaced by 0, so every step is Newton's."""
    return lambda x: g(x)[:2] + (0.0,)


def test_invert_with_slopes_converges_in_newton_steps():
    log = []
    got = invert_monotone(_logged(_newton(_asin), log), math.pi / 6.0, 0.0, 1.0, 1e-12)
    assert abs(math.asin(got) - math.pi / 6.0) <= 1e-12
    assert len(log) <= 6, log  # the two ends and at most four Newton steps
    assert log[2] == math.pi / 6.0  # the first step: from 0, the end nearer the target


def test_invert_halley_from_a_close_start_meets_tol_in_two_steps():
    log = []
    got = invert_monotone(_logged(_asin, log), math.pi / 6.0, 0.0, 1.0, 1e-12, 0.55)
    assert abs(math.asin(got) - math.pi / 6.0) <= 1e-12
    assert log[2] == 0.55  # the start, then at most two Halley steps
    assert len(log) <= 5, log


def test_invert_halley_factor_outside_its_range_takes_the_newton_step():
    # g'' so large, of either sign, or not finite, that the correction factor
    # 1/(1 - r g''/(2 g'^2)) is never in [1/2, 2]: every iterate is Newton's
    newton = []
    invert_monotone(_logged(_newton(_asin), newton), math.pi / 6.0, 0.0, 1.0, 1e-12, 0.55)
    for e in (1e300, -1e300, math.inf, -math.inf, math.nan):
        log = []
        g = lambda x, e=e: _asin(x)[:2] + (e,)
        invert_monotone(_logged(g, log), math.pi / 6.0, 0.0, 1.0, 1e-12, 0.55)
        assert log == newton, e


def test_invert_halley_factor_at_the_ends_of_its_range():
    # from 0.5 towards 0.375 on a line, r = 1/8 and u = r g''/(2 g'^2) = e/16:
    # the factor 1/(1 - u) is 2 at e = 8 and 1/2 at e = -16, and just past
    # either the step is Newton's, which lands on the root
    for e, step in ((8.0, 0.25), (-16.0, 0.4375), (8.0 + 1e-9, 0.375), (-16.0 - 1e-9, 0.375)):
        log = []
        invert_monotone(_logged(lambda x, e=e: (x, 1.0, e), log), 0.375, 0.0, 1.0, 1e-12, 0.5)
        assert log[2:4] == [0.5, step], e


def test_invert_start_outside_the_open_bracket_steps_from_an_end():
    end_step = []
    invert_monotone(_logged(_asin, end_step), math.pi / 6.0, 0.0, 1.0, 1e-12)
    assert end_step[2] == math.pi / 6.0  # from 0: asin'' is 0 there, a Newton step
    for start in (0.0, 1.0, -0.5, 1.5, math.inf, math.nan):
        log = []
        invert_monotone(_logged(_asin, log), math.pi / 6.0, 0.0, 1.0, 1e-12, start)
        assert log == end_step, start


def test_invert_newton_step_leaving_the_bracket_bisects():
    # a slope 1000 times too small sends the first step from 0 to 300
    log = []
    invert_monotone(_logged(lambda x: (x, 1e-3, 0.0), log), 0.3, 0.0, 1.0, 1e-12)
    assert log[:3] == [0.0, 1.0, 0.5]
    # no slope there (infinite or zero) bisects too
    for slope in (math.inf, 0.0):
        log = []
        invert_monotone(_logged(lambda x, d=slope: (x, d, 0.0), log), 0.3, 0.0, 1.0, 1e-12)
        assert log[:3] == [0.0, 1.0, 0.5]


def test_invert_newton_step_rounding_onto_an_end_moves_one_ulp():
    # one ulp of x near 0.3 moves g by 5551, so no x meets tol = 1; the steps
    # that round back onto 0.3 move one ulp, and the inversion stops there
    # instead of bisecting [0.3, 1]
    log = []
    g = _logged(lambda x: ((x - 0.3) * 1e20, 1e20, 0.0), log)
    with pytest.raises(ConvergenceError, match="inversion stalled with residual 2000"):
        invert_monotone(g, 2000.0, 0.0, 1.0, 1.0)
    assert log[2:] == [0.3, math.nextafter(0.3, 1.0)]


def test_invert_with_slopes_rejects_an_unbracketed_target():
    for target in (2.0, -0.1):
        with pytest.raises(ValueError, match="is not bracketed"):
            invert_monotone(lambda x: (x, 1.0, 0.0), target, 0.0, 1.0, 1e-12)


# ----------------------------------------------------------------- EvalResult


def test_eval_result_rejects_nonfinite():
    with pytest.raises(ValueError):
        EvalResult(float("inf"), 0.0, "series")
    with pytest.raises(ValueError):
        EvalResult(1.0, -1.0, "series")
    with pytest.raises(ValueError):
        EvalResult(1.0, float("nan"), "series")

"""Scalar numerical kernels the rest of the library is built on.

Gamma/beta/digamma helpers, the Gauss hypergeometric series and its
connection series in 1 - z, double-exponential (tanh-sinh) quadrature for
integrands with algebraic endpoint singularities, bracketed inversion of
monotone functions (Newton steps with the caller's slope, or else the
chord slope, bisection as the safeguard), and the three
compositions (``_scaled``, ``_shifted``, ``_over``) by which a route turns
a kernel's result into its own, error included.  Everything is a pure
function of its arguments; the only module state is an idempotent cache of
quadrature nodes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Literal

__all__ = [
    "ConvergenceError",
    "EvalResult",
    "HypSeriesSpec",
    "SERIES_ARG_MAX",
    "beta",
    "digamma",
    "hyp2f1",
    "integrate_halfline",
    "integrate_singular",
    "invert_monotone",
    "log_gamma",
]

# Hypergeometric arguments above this are considered too close to the
# logarithmic singularity at 1; a series route beyond it raises ValueError.
SERIES_ARG_MAX = 0.99
_MAX_TERMS = 1_000_000  # terms a series may take before it raises ConvergenceError
_SUBNORMAL_SPACING = math.ulp(0.0)
_INVERT_MAX_ITER = 200  # Newton or bisection steps before invert_monotone gives up


class ConvergenceError(RuntimeError):
    """A series or quadrature failed to reach the requested tolerance."""


@dataclass(frozen=True)
class EvalResult:
    """A computed value with an absolute-error estimate and the method used.

    Values are always finite; routines report divergence as an error instead
    of returning an infinity.
    """

    value: float
    abs_err: float
    method: Literal["series", "quadrature", "closed_form"]

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError(f"non-finite value {self.value!r}")
        if not (math.isfinite(self.abs_err) and self.abs_err >= 0.0):
            raise ValueError(f"invalid error estimate {self.abs_err!r}")


def _rounding_err(value: float) -> float:
    """4 eps |value|, the rounding error of a few correctly rounded steps."""
    return 4.0 * sys.float_info.epsilon * abs(value)


def _closed_form(value: float) -> EvalResult:
    """A value computed by a closed form, carrying only its rounding error,
    which is never below the subnormal spacing (4 eps |value| underflows)."""
    return EvalResult(value, max(_rounding_err(value), _SUBNORMAL_SPACING), "closed_form")


def _scaled(factor: float, r: EvalResult, rel: float = 0.0) -> EvalResult:
    """factor * r with r's route: r's error times |factor|, the product's
    rounding, and rel |value| for the factor's own relative error rel."""
    value = factor * r.value
    err = abs(factor) * r.abs_err + _rounding_err(value) + rel * abs(value)
    return EvalResult(value, err, r.method)


def _shifted(head: float, head_err: float, r: EvalResult) -> EvalResult:
    """head + r with r's route: head's error head_err, r's error and the sum's rounding."""
    value = head + r.value
    return EvalResult(value, head_err + r.abs_err + _rounding_err(value), r.method)


def _over(scale: float, recip: EvalResult) -> EvalResult:
    """scale / recip, with recip's relative error, the rounding and the route."""
    value = scale / recip.value
    err = value * recip.abs_err / recip.value + _rounding_err(value)
    return EvalResult(value, err, recip.method)


def _pick_route(method: str, routes: dict, admits: tuple, need: Callable[[str], str]) -> str:
    """The route a call runs, by the one rule of every quantity with routes.

    ``routes`` is the quantity's table, each route in ``auto``'s order mapped
    to its independence class (routes of one class sum the same series or
    integral, so they do not check each other); ``admits`` says, in that
    order, whether each route's domain admits the point.  ``auto`` is the
    first route that admits it; a named route outside its domain raises
    ValueError "<route> route requires <need(route)>", built only then; an
    unknown name raises ValueError.
    """
    if method == "auto":
        for route, ok in zip(routes, admits):
            if ok:
                return route
    for route, ok in zip(routes, admits):
        if route == method:
            if not ok:
                raise ValueError(f"{method} route requires {need(method)}")
            return method
    raise ValueError(f"unknown method {method!r}; expected one of {('auto', *routes)}")


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0; ValueError past x ~ 2.5e305,
    where it leaves the double range."""
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"log_gamma requires x > 0, got {x!r}")
    try:
        return math.lgamma(x)
    except OverflowError:
        raise ValueError(f"log_gamma overflows at x = {x!r}") from None


def beta(x: float, y: float) -> float:
    """Euler beta function B(x, y) = Gamma(x) Gamma(y) / Gamma(x + y)."""
    return _beta_rel(x, y)[0]


def _beta_rel(x: float, y: float) -> tuple[float, float]:
    """B(x, y) and a bound on its relative rounding error: exp turns the
    absolute error of the lgamma sum into relative error.  Each lgamma is
    within about an ulp, or a few eps near its zeros at 1 and 2, so the bound
    is 2 eps (|lgamma x| + |lgamma y| + |lgamma(x + y)| + 4).  Where B or a
    log-gamma leaves the double range it raises ValueError."""
    if not (x > 0.0 and y > 0.0):
        raise ValueError(f"beta requires positive arguments, got ({x!r}, {y!r})")
    lx, ly, lxy = log_gamma(x), log_gamma(y), log_gamma(x + y)
    rel = 2.0 * sys.float_info.epsilon * (abs(lx) + abs(ly) + abs(lxy) + 4.0)
    try:
        return math.exp(lx + ly - lxy), rel
    except OverflowError:
        raise ValueError(f"beta overflows at ({x!r}, {y!r})") from None


_EULER_GAMMA = 0.5772156649015329  # -psi(1)
# B_2k / (2k) for k = 1..7, the coefficients of digamma's asymptotic series
_PSI_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)


def digamma(x: float) -> float:
    """psi(x) = Gamma'(x) / Gamma(x) for x > 0, within a few ulps of max(1, |psi|).

    The recurrence psi(x) = psi(x + 1) - 1/x lifts x to at least 10, where
    the asymptotic series log x - 1/(2x) - sum B_2k / (2k x^2k), cut after
    x^-14, is exact to rounding; fsum adds the pieces without cancellation
    error near the root at 1.46.
    """
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"digamma requires x > 0, got {x!r}")
    parts = []
    while x < 10.0:
        parts.append(-1.0 / x)
        x += 1.0
    y = 1.0 / (x * x)
    tail = 0.0
    for coef in reversed(_PSI_SERIES):
        tail = tail * y + coef
    parts += (math.log(x), -0.5 / x, -y * tail)
    return math.fsum(parts)


def _connection_domain(a: float, b: float, m: int, w: float) -> bool:
    """Whether F(a, b; a + b - m; 1 - w), m = 0 or 1, may be summed as a
    connection series in w: a and b positive, 0 < w <= 1/2, and no term ratio
    (a + n)(b + n) w / ((n + 1)(n + m + 1)) above 1.  The caller states m.

    Each factor of a ratio moves monotonically towards 1, so the largest
    ratio is at most max(a, 1) max(b / (m + 1), 1) w.  Where terms grow, they
    fall later and cancel, so such points are not taken: at a = 51, b = 0.04,
    w = 0.4 the first ratio is 0.82, but the largest term is 7e4 times the
    sum, which comes out 2e-8 off in relative terms.
    """
    if not (a > 0.0 and b > 0.0 and 0.0 < w <= 0.5):
        return False
    return max(a, 1.0) * max(b / (m + 1), 1.0) * w <= 1.0


@dataclass(frozen=True)
class HypSeriesSpec:
    """Parameters of one Gauss hypergeometric evaluation F(a, b; c; arg).

    a, b and c must be finite, and the series is summed only for |arg| < 1;
    anything else is rejected up front.  c must not be zero or a negative
    integer, so the denominator Pochhammer never vanishes.
    """

    a: float
    b: float
    c: float
    arg: float
    rel_tol: float = 1e-14

    def __post_init__(self) -> None:
        a, b, c = self.a, self.b, self.c
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
            raise ValueError(f"a, b and c must be finite, got ({a!r}, {b!r}, {c!r})")
        if c <= 0.0 and float(c).is_integer():
            raise ValueError(f"c must not be zero or a negative integer, got {c!r}")
        if not abs(self.arg) < 1.0:
            raise ValueError(f"series argument {self.arg!r} needs |arg| < 1")
        if not self.rel_tol > 0.0:
            raise ValueError("rel_tol must be positive")


@dataclass(frozen=True)
class _ConnectionSpec:
    """The sum S_m of ``_log_series`` for F(a, b; a + b - m; 1 - w).  The caller
    states m and has checked ``_connection_domain``; nothing is validated here.
    ``arg`` is F's argument, so a wrapper of hyp2f1 reads both specs alike."""

    a: float
    b: float
    m: int
    w: float

    @property
    def arg(self) -> float:
        return 1.0 - self.w


def hyp2f1(spec: HypSeriesSpec | _ConnectionSpec) -> EvalResult:
    """F(a, b; c; arg) by the Gauss series  sum_n (a)_n (b)_n / (c)_n * arg^n / n!.

    Terms are built by the ratio recurrence, so the result is exactly
    symmetric under swapping a and b.  Summation stops once two consecutive
    terms fall below rel_tol times the running partial sum; the second of
    them is dropped and its magnitude becomes the error estimate.

    Every HypSeriesSpec, whose argument lies inside the unit disc, gives F;
    at argument 0 that is exactly 1, where (a + n)(b + n) may overflow.  A
    sum that ends non-finite raises ValueError.  A ``_ConnectionSpec`` gives
    instead the connection sum S_m of ``_log_series``, whose gamma
    prefactors the caller applies; it passes through here as one more call
    of this kernel.
    """
    if isinstance(spec, _ConnectionSpec):
        return _log_series(spec)
    a, b, c, x = spec.a, spec.b, spec.c, spec.arg
    if x == 0.0:
        return EvalResult(1.0, 0.0, "series")
    total = 1.0
    term = 1.0
    small = 0
    for n in range(_MAX_TERMS):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * x
        if not abs(term) > spec.rel_tol * abs(total):  # a NaN term stops the sum
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
    raise ConvergenceError(
        f"hypergeometric series did not settle within {_MAX_TERMS} terms "
        f"(a={a!r}, b={b!r}, c={c!r}, arg={x!r})"
    )


_LOG_SERIES_TOL = 2.0**-53  # the connection sum's stopping rule, relative


def _log_series(spec: _ConnectionSpec) -> EvalResult:
    """The logarithmic sum of A&S 15.3.10 (m = 0) and 15.3.12 (m = 1) for
    F(a, b; a + b - m; 1 - w), with m and w read from the spec:

        S_m = sum_n (a)_n (b)_n / (n! (n+m)!) w^n
              [log w - psi(n+1) - psi(n+m+1) + psi(a+n) + psi(b+n)].

    F = -Gamma(a+b)/(Gamma(a)Gamma(b)) S_0 for m = 0, and
    F = Gamma(a+b-1)/(Gamma(a)Gamma(b)) (1/w + (a-1)(b-1) S_1) for m = 1;
    the caller applies these factors.

    The bracket follows the digamma recurrences from psi(a) and psi(b).
    Summation stops once a bound on the remaining tail falls below 2^-53
    times the partial sum, a few terms past rounding.  The error is that
    tail bound plus, for rounding, n eps times the largest term and a few eps
    of the bracket's constants carried by every term.
    """
    a, b, m, w = spec.a, spec.b, spec.m, spec.w
    log_w = math.log(w)
    psi_a, psi_b = digamma(a), digamma(b)
    # log w - psi(1) - psi(m + 1) + psi(a) + psi(b), with psi(2) = 1 - gamma
    bracket = log_w + 2.0 * _EULER_GAMMA - m + psi_a + psi_b
    ua, ub = 1.0 - a, m + 1.0 - b
    # psi(a + j) - psi(j + 1) = -ua psi'(y) with y >= min(a, 1) + j, and
    # psi'(y) <= 2/y for y >= 1; likewise psi(b + j) - psi(j + m + 1)
    da, ya = 2.0 * abs(ua), min(a, 1.0)
    db, yb = 2.0 * abs(ub), min(b, m + 1.0)
    size_w = abs(log_w)
    cw = 1.0  # (a)_n (b)_n / (n! (n+m)!) w^n
    total = peak = mass = 0.0
    for n in range(_MAX_TERMS):
        term = cw * bracket
        total += term
        if abs(term) > peak:
            peak = abs(term)
        mass += cw
        an, bn, n1 = a + n, b + n, n + 1.0
        cw *= an * bn / (n1 * (n1 + m)) * w
        # psi(a+n+1) - psi(a+n) - psi(n+2) + psi(n+1) = 1/(a+n) - 1/(n+1), and for b
        bracket += ua / (an * n1) + ub / (bn * (n1 + m))
        if cw * size_w > _LOG_SERIES_TOL * abs(total):
            continue  # the tail bound below is at least cw |log w|
        # Past n the factors (a + j)/(j + 1) and (b + j)/(j + m + 1) move
        # monotonically towards 1, so r bounds every later coefficient ratio,
        # and every later bracket lies within `stray` of log w.
        r = max((a + n + 1) / (n + 2), 1.0) * max((b + n + 1) / (n + m + 2), 1.0) * w
        if r >= 1.0:
            continue
        stray = da / (ya + n + 1) + db / (yb + n + 1)
        tail = cw * (size_w + stray) / (1.0 - r)
        if tail <= _LOG_SERIES_TOL * abs(total):
            constants = 4.0 * (size_w + abs(psi_a) + abs(psi_b) + 2.0) * mass
            eps = sys.float_info.epsilon
            return EvalResult(total, tail + eps * ((n + 1) * peak + constants), "series")
    raise ConvergenceError(
        f"connection series did not settle within {_MAX_TERMS} terms "
        f"(a={a!r}, b={b!r}, m={m!r}, w={w!r})"
    )


# --------------------------------------------------------------------------
# tanh-sinh quadrature on (0, 1)
#
# Nodes come from t(u) = (1 + tanh((pi/2) sinh u)) / 2, evaluated in a form
# that keeps full relative precision in both t and its complement 1 - t.
# The weight has the closed form dt/du = pi cosh(u) t (1 - t).

_UMAX = 6.56
_LEVEL_CAP = 12
_MIN_LEVEL = 3

# level -> list of (t, 1 - t, weight); filled lazily, deterministic, append-only
_node_cache: dict[int, list[tuple[float, float, float]]] = {}


def _de_nodes(level: int) -> list[tuple[float, float, float]]:
    """Nodes newly introduced at a refinement level (odd multiples of h)."""
    cached = _node_cache.get(level)
    if cached is not None:
        return cached
    h = 1.0 / (1 << level)
    top = int(_UMAX / h)
    ks = range(0, top + 1) if level == 0 else range(1, top + 1, 2)
    nodes: list[tuple[float, float, float]] = []
    for k in ks:
        u = k * h
        e = math.exp(-math.pi * math.sinh(u))
        t = 1.0 / (1.0 + e)
        tc = e / (1.0 + e)
        w = math.pi * math.cosh(u) * t * tc
        if tc <= 0.0 or w <= 0.0:
            break  # complement underflowed; all further nodes are dead
        nodes.append((t, tc, w))
        if k > 0:
            nodes.append((tc, t, w))
    _node_cache[level] = nodes
    return nodes


def integrate_singular(f: Callable[[float, float], float], tol: float = 1e-12) -> EvalResult:
    """Integrate f(t, 1 - t) over (0, 1) by double-exponential quadrature.

    Handles algebraic endpoint singularities of exponent > -1.  The integrand
    takes each node t with its exact complement, which resolves the upper
    endpoint down to denormals as t itself does at 0 (doubles cannot hold a
    t closer to 1 than about 1.1e-16); neither argument is ever 0.  The error
    estimate is the last level-to-level difference, never less than
    4 eps |value|; failure to meet ``tol`` within the level cap raises
    ConvergenceError.  A non-finite integrand value, an ArithmeticError
    (overflow, division by zero) raised by f, or a sum that overflows raises
    ValueError.
    """
    return _tanh_sinh(f, tol, lambda t, tc: f"t={t!r} (1 - t = {tc!r})")


def _tanh_sinh(f: Callable[[float, float], float], tol: float, where: Callable) -> EvalResult:
    """The body of ``integrate_singular``; ``where(t, tc)`` names the abscissa
    of a node whose integrand value is not finite."""
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    terms: list[float] = []
    prev = math.inf
    diff = math.inf
    for level in range(_LEVEL_CAP + 1):
        for t, tc, w in _de_nodes(level):
            try:
                ft = f(t, tc)
            except ArithmeticError:
                ft = math.nan
            if not math.isfinite(ft):
                raise ValueError(f"integrand returned non-finite value near {where(t, tc)}")
            terms.append(w * ft)
        try:
            value = math.fsum(terms) / (1 << level)
        except OverflowError:  # every term is finite, their sum is not
            raise ValueError("quadrature sum overflows the double range") from None
        diff = abs(value - prev)
        if level >= _MIN_LEVEL and diff <= tol:
            return EvalResult(value, max(diff, _rounding_err(value)), "quadrature")
        prev = value
    raise ConvergenceError(
        f"quadrature did not reach tol={tol:g} within {_LEVEL_CAP} refinement "
        f"levels (last level-to-level difference {diff:g})"
    )


def integrate_halfline(f: Callable[[float], float], tol: float = 1e-12) -> EvalResult:
    """Integrate f over (0, inf) via t = u / (1 - u) and tanh-sinh on (0, 1).

    Requires f to decay algebraically with an integrable exponent.  The
    substitution keeps full precision at both ends: large t values are formed
    as u divided by the exact complement 1 - u.  Abscissae span the whole
    double range, so integrands must not overflow at huge t; fold through
    1/t or rely on negative powers underflowing to zero.  A non-finite value
    raises ValueError naming the half-line abscissa t.
    """

    def f2(u: float, uc: float) -> float:
        t = u / uc
        if not math.isfinite(t):
            return 0.0
        return (f(t) / uc) / uc

    return _tanh_sinh(f2, tol, lambda u, uc: f"t={u / uc!r}")


def _one_minus_pow(y: float, yc: float, q: float) -> float:
    """1 - y^q for y in (0, 1), given the exact complement yc = 1 - y; a
    quadrature node is never 0.

    Evaluated through expm1/log1p so no precision is lost when y is close to
    either endpoint; this is what makes the complement-aware integrands above
    worth having.
    """
    lg = math.log1p(-yc) if yc < 0.5 else math.log(y)
    return -math.expm1(q * lg)


def _pow_pair(x: float, q: float) -> tuple[float, float]:
    """(m, mc) = (x^q, 1 - x^q) for x in [0, 1], exactly (0, 1) at x = 0;
    mc comes from expm1, without cancellation for x near 1.

    Form 1 - m t^q as mc + m (1 - t^q): neither term cancels as m -> 1.
    """
    if x == 0.0:
        return 0.0, 1.0
    return x**q, -math.expm1(q * math.log(x))


def invert_monotone(
    g: Callable[[float], float | tuple[float, float]],
    target: float,
    lo: float,
    hi: float,
    tol: float = 1e-12,
) -> float:
    """Solve g(x) = target for a continuous increasing g on [lo, hi].

    ``g`` returns g(x), or the pair (g(x), g'(x)).  The kernel takes Newton
    steps, the first from the bracket end with the smaller residual and each
    later one from the latest point, with the slope g returns, or else the
    chord slope through the last two points (the first through both ends).
    A step that rounds back onto a bracket end moves one ulp inside it
    instead, so a root closer than an ulp costs one evaluation, not a
    bisection of the whole bracket.  Whenever a step leaves the open
    bracket, or a slope is not positive and finite, the bisection midpoint
    is used instead, which keeps the iteration deterministic.  Returns x
    with |g(x) - target| <= tol.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo!r}, {hi!r}]")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    glo, ghi = g(lo), g(hi)
    newton = isinstance(glo, tuple)
    if newton:
        (glo, dlo), (ghi, dhi) = glo, ghi
    rlo, rhi = glo - target, ghi - target
    if rlo > 0.0 or rhi < 0.0:
        raise ValueError(
            f"target {target!r} is not bracketed: g({lo!r})-target={rlo!r}, "
            f"g({hi!r})-target={rhi!r}"
        )
    if abs(rlo) <= tol:
        return lo
    if abs(rhi) <= tol:
        return hi
    if not newton:
        dlo = dhi = (rhi - rlo) / (hi - lo)
    x1, r1, d1 = (lo, rlo, dlo) if -rlo <= rhi else (hi, rhi, dhi)
    best_r = math.inf
    for _ in range(_INVERT_MAX_ITER):
        x = x1 - r1 / d1 if 0.0 < d1 < math.inf else math.nan
        if x == lo or x == hi:  # the step rounds onto an end: one ulp inside
            x = math.nextafter(x, hi if x == lo else lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        y = g(x)
        if newton:
            y, d = y
        r = y - target
        if abs(r) <= tol:
            return x
        best_r = min(best_r, abs(r))
        if r < 0.0:
            lo = x
        else:
            hi = x
        if not newton:
            d = (r - r1) / (x - x1)
        x1, r1, d1 = x, r, d
        if hi - lo <= 2.0 * math.ulp(max(abs(lo), abs(hi))):
            break  # bracket exhausted at double resolution
    raise ConvergenceError(
        f"inversion stalled with residual {best_r:g} above tol={tol:g}"
    )

"""Scalar numerical kernels the rest of the library is built on.

Gamma/beta helpers, the Gauss hypergeometric series, double-exponential
(tanh-sinh) quadrature for integrands with algebraic endpoint singularities,
and bracketed inversion of monotone functions.  Everything is a pure function
of its arguments; the only module state is an idempotent cache of quadrature
nodes.
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
    "hyp2f1",
    "integrate_halfline",
    "integrate_singular",
    "invert_monotone",
    "log_gamma",
    "pochhammer",
]

# Hypergeometric arguments above this are considered too close to the
# logarithmic singularity at 1; callers switch to an integral route instead.
SERIES_ARG_MAX = 0.99


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
    """A value computed by a closed form, carrying only its rounding error."""
    return EvalResult(value, _rounding_err(value), "closed_form")


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def beta(x: float, y: float) -> float:
    """Euler beta function B(x, y) = Gamma(x) Gamma(y) / Gamma(x + y)."""
    if not (x > 0.0 and y > 0.0):
        raise ValueError(f"beta requires positive arguments, got ({x!r}, {y!r})")
    return math.exp(log_gamma(x) + log_gamma(y) - log_gamma(x + y))


def pochhammer(a: float, n: int) -> float:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), with (a)_0 = 1 exactly."""
    if n != int(n) or n < 0:
        raise ValueError(f"pochhammer requires a nonnegative integer n, got {n!r}")
    out = 1.0
    for i in range(int(n)):
        out *= a + i
    return out


@dataclass(frozen=True)
class HypSeriesSpec:
    """Parameters of one Gauss hypergeometric evaluation F(a, b; c; arg).

    The series converges for |arg| < 1, and at arg = 1 when c - a - b > 0;
    anything else is rejected up front.  c must not be zero or a negative
    integer, so the denominator Pochhammer never vanishes.
    """

    a: float
    b: float
    c: float
    arg: float
    rel_tol: float = 1e-14
    max_terms: int = 1_000_000

    def __post_init__(self) -> None:
        if self.c <= 0.0 and float(self.c).is_integer():
            raise ValueError(f"c must not be zero or a negative integer, got {self.c!r}")
        ok_inside = abs(self.arg) < 1.0
        ok_boundary = self.arg == 1.0 and self.c - self.a - self.b > 0.0
        if not (ok_inside or ok_boundary):
            raise ValueError(
                f"series argument {self.arg!r} needs |arg| < 1, or arg = 1 with c - a - b > 0"
            )
        if not self.rel_tol > 0.0:
            raise ValueError("rel_tol must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")


def hyp2f1(spec: HypSeriesSpec) -> EvalResult:
    """Sum the Gauss series  sum_n (a)_n (b)_n / (c)_n * arg^n / n!.

    Terms are built by the ratio recurrence, so the result is exactly
    symmetric under swapping a and b.  Summation stops once two consecutive
    terms fall below rel_tol times the running partial sum; the second of
    them is dropped and its magnitude becomes the error estimate.
    """
    a, b, c, x = spec.a, spec.b, spec.c, spec.arg
    total = 1.0
    term = 1.0
    small = 0
    for n in range(spec.max_terms):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * x
        if abs(term) <= spec.rel_tol * abs(total):
            small += 1
            if small >= 2:
                return EvalResult(total, abs(term), "series")
        else:
            small = 0
        total += term
    raise ConvergenceError(
        f"hypergeometric series did not settle within {spec.max_terms} terms "
        f"(a={a:g}, b={b:g}, c={c:g}, arg={x:g})"
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


def _integrate_unit(f2: Callable[[float, float], float], tol: float) -> EvalResult:
    """Tanh-sinh quadrature of f2(t, 1-t) over (0, 1) with level doubling."""
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    terms: list[float] = []
    prev = math.inf
    diff = math.inf
    for level in range(_LEVEL_CAP + 1):
        for t, tc, w in _de_nodes(level):
            ft = f2(t, tc)
            if not math.isfinite(ft):
                raise ValueError(f"integrand returned non-finite value near t={t!r}")
            terms.append(w * ft)
        value = math.fsum(terms) / (1 << level)
        diff = abs(value - prev)
        if level >= _MIN_LEVEL and diff <= tol:
            return EvalResult(value, max(diff, _rounding_err(value)), "quadrature")
        prev = value
    raise ConvergenceError(
        f"quadrature did not reach tol={tol:g} within {_LEVEL_CAP} refinement "
        f"levels (last level-to-level difference {diff:g})"
    )


def integrate_singular(
    f: Callable[..., float], tol: float = 1e-12, *, complement: bool = False
) -> EvalResult:
    """Integrate f over (0, 1) by double-exponential quadrature.

    Handles algebraic endpoint singularities of exponent > -1.  The integrand
    is never evaluated at exactly 0 or 1.  The error estimate is the last
    level-to-level difference, never less than 4 eps |value|; failure to meet
    ``tol`` within the level cap raises ConvergenceError.

    With ``complement=False`` the integrand is called as ``f(t)``.  Doubles
    cannot represent points closer to 1 than about 1.1e-16, so a strong
    singularity at t = 1 caps the reachable accuracy near (1e-16)^(1-alpha).
    Pass ``complement=True`` and accept ``f(t, one_minus_t)`` to integrate
    such functions to full precision: the second argument resolves the upper
    endpoint all the way down to denormals, exactly as t itself does at 0.
    """
    if complement:
        return _integrate_unit(f, tol)

    def f2(t: float, tc: float) -> float:
        if t <= 0.0 or t >= 1.0:
            return 0.0  # node indistinguishable from the endpoint: skip, never call f there
        return f(t)

    return _integrate_unit(f2, tol)


def integrate_halfline(f: Callable[[float], float], tol: float = 1e-12) -> EvalResult:
    """Integrate f over (0, inf) via t = u / (1 - u) and tanh-sinh on (0, 1).

    Requires f to decay algebraically with an integrable exponent.  The
    substitution keeps full precision at both ends: large t values are formed
    as u divided by the exact complement 1 - u.  Abscissae span the whole
    double range, so integrands must not overflow at huge t; fold through
    1/t or rely on negative powers underflowing to zero.
    """

    def f2(u: float, uc: float) -> float:
        t = u / uc
        if not math.isfinite(t):
            return 0.0
        return (f(t) / uc) / uc

    return _integrate_unit(f2, tol)


def _one_minus_pow(y: float, yc: float, q: float) -> float:
    """1 - y^q for y in [0, 1), given the exact complement yc = 1 - y.

    Evaluated through expm1/log1p so no precision is lost when y is close to
    either endpoint; this is what makes the complement-aware integrands above
    worth having.
    """
    if y <= 0.0:
        return 1.0
    lg = math.log1p(-yc) if yc < 0.5 else math.log(y)
    return -math.expm1(q * lg)


def _one_minus_xp(x: float, p: float) -> float:
    """1 - x^p for x > 0 without cancellation for x near 1."""
    return -math.expm1(p * math.log(x))


def _pow_pair(x: float, q: float) -> tuple[float, float]:
    """(m, mc) = (x^q, 1 - x^q) for x in [0, 1], exactly (0, 1) at x = 0.

    Form 1 - m t^q as mc + m (1 - t^q): neither term cancels as m -> 1.
    """
    if x == 0.0:
        return 0.0, 1.0
    return x**q, _one_minus_xp(x, q)


def invert_monotone(
    g: Callable[[float], float],
    target: float,
    lo: float,
    hi: float,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Solve g(x) = target for a continuous increasing g on [lo, hi].

    Bracketing bisection refined by secant steps through the last two
    evaluations; whenever the secant step leaves the open bracket the
    bisection midpoint is used instead, which keeps the iteration
    deterministic.  Returns x with |g(x) - target| <= tol.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo!r}, {hi!r}]")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    rlo = g(lo) - target
    rhi = g(hi) - target
    if rlo > 0.0 or rhi < 0.0:
        raise ValueError(
            f"target {target!r} is not bracketed: g({lo!r})-target={rlo!r}, "
            f"g({hi!r})-target={rhi!r}"
        )
    if abs(rlo) <= tol:
        return lo
    if abs(rhi) <= tol:
        return hi
    x0, r0 = lo, rlo
    x1, r1 = hi, rhi
    best_r = math.inf
    for _ in range(max_iter):
        if r1 != r0:
            x = x1 - r1 * (x1 - x0) / (r1 - r0)
        else:
            x = 0.5 * (lo + hi)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        r = g(x) - target
        if abs(r) <= tol:
            return x
        best_r = min(best_r, abs(r))
        if r < 0.0:
            lo = x
        else:
            hi = x
        x0, r0 = x1, r1
        x1, r1 = x, r
        if hi - lo <= 2.0 * math.ulp(max(abs(lo), abs(hi))):
            break  # bracket exhausted at double resolution
    raise ConvergenceError(
        f"inversion stalled with residual {best_r:g} above tol={tol:g}"
    )

"""The interpolating mean family M_p and the power-difference means K_p.

M_p is defined through a normalized half-line integral and recovers the
geometric mean at p = 0, the logarithmic mean at p = 1 and the
arithmetic-geometric mean at p = 2.  Both 1/M_p and 1/K_p admit
hypergeometric series in 1 - x^p, and each of those has a second series
produced by the quadratic transformation

    F(a, b; 2a; z) = (1 - z/2)^(-b) F(b/2, (b+1)/2; a + 1/2; (z/(2-z))^2).

Comparing the third parameters of the transformed series decides the strict
ordering between M_p and K_p on either side of p = 1.

Every representation computes the reciprocal 1/mean(1, x) on the normalized
pair first and rescales at the very end.  Only this module decides a mean's
route; ``_mean_mp`` and ``_mean_kp`` report the route that ran.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

from .elliptic import K_pq, _complete  # K_pq unused: perfbench's tracer replaces means.K_pq
from .gentrig import PQParams
from .numerics import (
    SERIES_ARG_MAX,
    EvalResult,
    HypSeriesSpec,
    _closed_form,
    _over,
    _pick_route,
    _pow_pair,
    _scaled,
    beta,
    hyp2f1,
    integrate_halfline,
    integrate_singular,
)

__all__ = [
    "MeanOrdering",
    "c_p",
    "mean_ag",
    "mean_kp",
    "mean_log",
    "mean_mp",
    "ordering",
    "quad_transform_check",
]

# p values this close to 0 take the limit form, which is exact to rounding
# there: |M_p/G - 1| ~ p l^2/16 and |K_p/K_0 - 1| ~ |p| l^2/12, with
# |l| = |ln(a/b)| <= 1455 for any pair of positive doubles.  The same bound
# at p = 1 admits no double but 1 itself
_LIMIT_TOL = 2.0**-71
_INTEGRAL_TOL = 1e-12  # tolerance of the integral routes

_MP_METHODS = ("auto", "elliptic", "hyp_base", "hyp_quad", "integral")
_KP_METHODS = ("closed", "integral", "hyp_base", "hyp_quad")


def _check_pair(a: float, b: float) -> None:
    if not (a > 0.0 and b > 0.0 and math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"means require a positive finite pair, got ({a!r}, {b!r})")


def _check_args(a: float, b: float, p: float, fn: str) -> None:
    _check_pair(a, b)
    if not math.isfinite(p):
        raise ValueError(f"{fn} requires a finite p, got {p!r}")


def _normalized(a: float, b: float) -> tuple[float, float]:
    """Scale and ratio (scale, x) with x = min/max in (0, 1].  x < 1 for a
    distinct pair: the spacing below max is at least 2^-53 max, so
    min/max <= 1 - 2^-53, itself a double."""
    scale = max(a, b)
    x = min(a, b) / scale
    if x == 0.0:
        raise ValueError(f"pair ratio min/max underflows to zero for ({a!r}, {b!r})")
    return scale, x


def _pow2_scaled(a: float, b: float, e: int) -> tuple[float, float]:
    """(a 2^-e, b 2^-e), both normal.  Exact: a mean of the scaled pair times
    2^e keeps its bits wherever the unscaled form stays in range."""
    u, v = math.ldexp(a, -e), math.ldexp(b, -e)
    if not (min(u, v) >= sys.float_info.min and max(u, v) < math.inf):
        raise ValueError(f"pair ratio of ({a!r}, {b!r}) is too wide for this mean")
    return u, v


def mean_log(a: float, b: float) -> float:
    """Logarithmic mean (a - b) / (ln a - ln b), equal to a when a = b.

    With hi > lo the pair in order, the denominator is log1p((hi - lo)/lo),
    stable for nearby arguments (hi - lo is exact there), or ln hi - ln lo
    where that ratio overflows.
    """
    _check_pair(a, b)
    hi, lo = max(a, b), min(a, b)
    if hi == lo:
        return a
    rel = (hi - lo) / lo
    return (hi - lo) / (math.log1p(rel) if math.isfinite(rel) else math.log(hi) - math.log(lo))


def mean_ag(a: float, b: float) -> float:
    """Arithmetic-geometric mean: the limit of a' = (a+b)/2, b' = sqrt(ab), run
    with max(a, b) scaled into [1/2, 1).  Where min/max is too small for the
    scaled min to stay normal (past ~2^-1022), steps with b' = sqrt(a) sqrt(b)
    come first: each takes the ratio r to about 2 sqrt(r)."""
    _check_pair(a, b)
    while math.ldexp(min(a, b), -math.frexp(max(a, b))[1]) < sys.float_info.min:
        a, b = 0.5 * a + 0.5 * b, math.sqrt(a) * math.sqrt(b)
    e = math.frexp(max(a, b))[1]  # every iterate stays below 1: ab cannot overflow
    a, b = _pow2_scaled(a, b, e)
    while abs(a - b) > 1e-15 * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.ldexp(0.5 * (a + b), e)


def c_p(p: float) -> float:
    """Normalizing constant of M_p: 1/c_p = integral_0^inf (1+t^p)^(-2/p) dt.

    The integral equals pi_{p*,p}/2 = (1/p) B(1/p, 1/p), so c_p is simply
    p / B(1/p, 1/p); the formula is continuous through p = 1 where it gives
    exactly 1.  Below p ~ 2e-3 the beta function leaves the double range and
    c_p raises ValueError.
    """
    if not (p > 0.0 and math.isfinite(p)):
        raise ValueError(f"c_p requires p > 0, got {p!r}")
    b = beta(1.0 / p, 1.0 / p)
    c = p / b if b > 0.0 else math.inf
    if c == math.inf:
        raise ValueError(f"c_p overflows at p = {p!r}: B(1/p, 1/p) = {b!r}")
    return c


def _expm1_rel(t: float) -> float:
    """expm1(t)/t, 1 at t = 0."""
    return math.expm1(t) / t if t else 1.0


def _recip_mp_integral(xp: float, p: float) -> EvalResult:
    """1/M_p(1, x) as c_p times the half-line integral of
    ((t^p + 1)(t^p + xp))^(-1/p), xp = x^p."""
    inv_p = 1.0 / p

    def f(t: float) -> float:
        if t <= 1.0:
            tp = t**p
            return ((tp + 1.0) * (tp + xp)) ** -inv_p
        # fold large t through s = 1/t to keep t^p from overflowing
        s = 1.0 / t
        sp = s**p
        return s * s * ((1.0 + sp) * (1.0 + xp * sp)) ** -inv_p

    return _scaled(c_p(p), integrate_halfline(f, _INTEGRAL_TOL))


def _recip_kp_integral(xp: float, p: float) -> EvalResult:
    """1/K_p(1, x) = integral_0^1 ((1-s) + xp s)^(-1/p) ds, xp = x^p."""
    neg_inv_p = -1.0 / p

    def f(s: float, sc: float) -> float:
        return (sc + xp * s) ** neg_inv_p

    return integrate_singular(f, _INTEGRAL_TOL)


def _hyp_base(a: float, b: float, z: float) -> EvalResult:
    """F(a, b; 2a; z) by the direct series."""
    return hyp2f1(HypSeriesSpec(a, b, 2.0 * a, z))


def _quad_arg(z: float) -> float:
    """Argument (z/(2-z))^2 of the quadratically transformed series."""
    return (z / (2.0 - z)) ** 2


def _hyp_quad(a: float, b: float, z: float) -> EvalResult:
    """F(a, b; 2a; z) by the quadratic transformation of the module docstring.

    b = 1/p may be huge, and y^(-b) multiplies the rounding of y = 1 - z/2 by
    b, so the prefactor is y^(-b) times the correction exp(-b log1p(-d)) for
    that rounding, 1 - z/2 = y (1 - d); 1 - y and z/2 - (1 - y) are exact.
    """
    y = 1.0 - 0.5 * z
    d = (0.5 * z - (1.0 - y)) / y
    return _scaled(
        y**-b * math.exp(-b * math.log1p(-d)),
        hyp2f1(HypSeriesSpec(0.5 * b, 0.5 * (b + 1.0), a + 0.5, _quad_arg(z))),
    )


def _recip(xp: float, z: float, p: float, a: float, method: str, integral: Callable) -> EvalResult:
    """1/mean(1, x) = F(a, 1/p; 2a; z) at the pair (xp, z) = (x^p, 1 - x^p),
    with a = 1/p for M_p and a = 1 for K_p, by the route ``_pick_route``
    chooses: ``auto`` (M_p only) is the first of ``hyp_quad`` (the series in
    (z/(2-z))^2), ``hyp_base`` (the series in z), each admitting arguments up
    to SERIES_ARG_MAX, and ``integral``, the mean's integral in xp."""
    zq = _quad_arg(z)
    route = _pick_route(
        method,
        {"hyp_quad": zq <= SERIES_ARG_MAX, "hyp_base": z <= SERIES_ARG_MAX, "integral": True},
        lambda r: f"a series argument <= {SERIES_ARG_MAX}, "
        f"got {zq if r == 'hyp_quad' else z!r} at 1 - x^p = {z!r}",
    )
    if route == "integral":
        return integral(xp, p)
    return (_hyp_quad if route == "hyp_quad" else _hyp_base)(a, 1.0 / p, z)


def _mean_mp(a: float, b: float, p: float, method: str = "auto") -> EvalResult:
    """M_p(a, b) with the route that ran and its error; see ``mean_mp``."""
    _check_args(a, b, p, "mean_mp")
    if method not in _MP_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {_MP_METHODS}")
    if not p >= 0.0:
        raise ValueError(f"mean_mp requires p >= 0, got {p!r}")
    if a == b:
        return _closed_form(a)  # exact fixed point for every p
    if p <= _LIMIT_TOL:
        e = (math.frexp(a)[1] + math.frexp(b)[1]) // 2  # 2^e near sqrt(ab)
        u, v = _pow2_scaled(a, b, e)
        return _closed_form(math.ldexp(math.sqrt(u * v), e))
    if p == 1.0:
        return _closed_form(mean_log(a, b))
    scale, x = _normalized(a, b)
    xp, z = _pow_pair(x, p)
    if method == "elliptic":  # K_{p*,p} at k^p = z, the pair taken exactly
        if xp < sys.float_info.min:  # log x^p, which the connection sum takes, is lost
            raise ValueError(f"elliptic route requires x^p in the normal range, got {xp!r}")
        kr = _complete(PQParams(p / (p - 1.0), p), z, xp, "auto", False)
        return _over(scale, _scaled(c_p(p), kr))
    return _over(scale, _recip(xp, z, p, 1.0 / p, method, _recip_mp_integral))


def mean_mp(a: float, b: float, p: float, method: str = "auto") -> float:
    """Interpolating mean M_p for finite p >= 0.

    p = 0 gives sqrt(ab) and p = 1 the logarithmic mean, both as stated
    limits, the first for every p <= 2^-71, where it is exact to rounding;
    elsewhere the pair is normalized to (1, x) and 1/M_p(1, x) is evaluated
    by the selected representation: ``integral``, ``elliptic``, ``hyp_base``
    or ``hyp_quad``.  By the one rule of every quantity,
    ``auto`` takes the first of ``hyp_quad``, ``hyp_base`` and ``integral``
    whose domain admits the point (a series argument, (z/(2-z))^2 <= z or
    z = 1 - x^p, at most 0.99), and a named route outside raises ValueError.
    ``elliptic`` is c_p K_{p*,p} with k^p = 1 - x^p, run on the exact pair
    (x^p, 1 - x^p) that every route takes: it sums the base series itself
    wherever K_{p*,p} takes its series in k^p (k^p <= 1/2, or where its
    connection terms would grow), and its independent connection series in
    x^p elsewhere.  It raises ValueError where c_p leaves the double range
    (p below about 2e-3) or x^p is below the normal range.  The
    integral runs to a fixed absolute tolerance of 1e-12 (``elliptic``'s
    quadrature likewise); series routes keep hyp2f1's fixed stopping rule.
    ``_mean_mp`` also returns the kind of route that ran and the kernel's
    own error estimate.
    """
    return _mean_mp(a, b, p, method).value


def _mean_kp(a: float, b: float, p: float, method: str = "closed") -> EvalResult:
    """K_p(a, b) with the route that ran and its error; see ``mean_kp``."""
    _check_args(a, b, p, "mean_kp")
    if method not in _KP_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {_KP_METHODS}")
    if method != "closed" and not p > 0.0:
        raise ValueError(f"the {method} representation requires p > 0, got {p!r}")
    if a == b:
        return _closed_form(a)  # exact fixed point for every p
    if abs(p) <= _LIMIT_TOL:
        e = (math.frexp(a)[1] + math.frexp(b)[1]) // 2  # 2^e near sqrt(ab)
        u, v = _pow2_scaled(a, b, e)
        return _closed_form(math.ldexp(u * v / mean_log(u, v), e))
    if p == 1.0:
        return _closed_form(mean_log(a, b))
    scale, x = _normalized(a, b)
    if method == "closed":
        # ((p-1)/p)(1 - x^p)/(1 - x^(p-1)) = x^c E(-|p l|)/E(-|(p-1) l|), l = ln x,
        # E(t) = expm1(t)/t = e^t E(-t) and c = clamp(1 - p) in [0, 1]: every
        # factor lies in (0, 1], so nothing overflows
        lx = math.log(x)
        c = min(1.0, max(0.0, 1.0 - p))
        ratio = _expm1_rel(-abs(p * lx)) / _expm1_rel(-abs((p - 1.0) * lx))
        return _closed_form(scale * (x**c * ratio))
    return _over(scale, _recip(*_pow_pair(x, p), p, 1.0, method, _recip_kp_integral))


def mean_kp(a: float, b: float, p: float, method: str = "closed") -> float:
    """Power-difference mean K_p = ((p-1)/p) (a^p - b^p) / (a^(p-1) - b^(p-1)).

    The closed form is valid for every finite real p and never overflows (it
    is evaluated as x^c E(-|p l|) / E(-|(p-1) l|) on the normalized pair, see
    ``_mean_kp``); the stated limit K_0 = ab/L(a, b) takes over for
    |p| <= 2^-71, where it is exact to rounding, and K_1 = L(a, b) at p = 1.
    The integral and hypergeometric representations require p > 0, and a
    series route raises ValueError where its argument exceeds 0.99.  The
    integral runs to a fixed absolute tolerance of 1e-12; series routes keep
    hyp2f1's fixed stopping rule.  ``_mean_kp`` also returns the kind of
    route that actually ran and the kernel's own error estimate.
    """
    return _mean_kp(a, b, p, method).value


def quad_transform_check(a: float, b: float, x: float) -> float:
    """Absolute residual of the quadratic transformation at (a, b, x):
    |F(a, b; 2a; x) - (1 - x/2)^(-b) F(b/2, (b+1)/2; a + 1/2; (x/(2-x))^2)|,
    for |x| < 1.  x = 1 raises ValueError: the series in x is not summed there."""
    return abs(_hyp_base(a, b, x).value - _hyp_quad(a, b, x).value)


@dataclass(frozen=True)
class MeanOrdering:
    """Sign verdict for M_p versus K_p on one pair, with the raw gap M_p - K_p."""

    verdict: str  # "Mp_greater" | "equal" | "Kp_greater"
    p: float
    a: float
    b: float
    gap: float


def ordering(a: float, b: float, p: float) -> MeanOrdering:
    """Compare M_p(a, b) with K_p(a, b).

    For distinct arguments the verdict is strict: M_p wins for 0 <= p < 1,
    the two agree at p = 1, and K_p wins for p > 1.  Gaps within
    1e-12 * max(a, b) are reported as equal since both means are computed to
    roughly that accuracy.
    """
    _check_args(a, b, p, "ordering")
    if not p >= 0.0:
        raise ValueError(f"ordering requires p >= 0, got {p!r}")
    if a == b:
        return MeanOrdering("equal", p, a, b, 0.0)
    gap = mean_mp(a, b, p) - mean_kp(a, b, p)
    tol = 1e-12 * max(a, b)
    if gap > tol:
        verdict = "Mp_greater"
    elif gap < -tol:
        verdict = "Kp_greater"
    else:
        verdict = "equal"
    return MeanOrdering(verdict, p, a, b, gap)

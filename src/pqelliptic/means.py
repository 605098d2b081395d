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

from .elliptic import K_pq
from .gentrig import PQParams, pi_pq
from .numerics import (
    SERIES_ARG_MAX,
    EvalResult,
    HypSeriesSpec,
    _closed_form,
    _one_minus_xp,
    _pick_route,
    _rounding_err,
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

# p values this close to a removable point take the stated limit form
_LIMIT_TOL = 1e-8
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
    """Scale and ratio (scale, x) with x = min/max in (0, 1]."""
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

    Pairs within 1e-12 relative distance are treated as equal; elsewhere,
    with hi >= lo the pair in order, the denominator is log1p((hi - lo)/lo),
    stable for nearby arguments, or ln hi - ln lo where that ratio overflows.
    """
    _check_pair(a, b)
    hi, lo = max(a, b), min(a, b)
    if hi - lo <= 1e-12 * hi:
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


def _scaled(factor: float, r: EvalResult) -> EvalResult:
    """factor * r for a positive factor, with the error, its rounding and the route."""
    value = factor * r.value
    return EvalResult(value, factor * r.abs_err + _rounding_err(value), r.method)


def _over(scale: float, recip: EvalResult) -> EvalResult:
    """scale / recip, with recip's relative error, the rounding and the route."""
    value = scale / recip.value
    err = value * recip.abs_err / recip.value + _rounding_err(value)
    return EvalResult(value, err, recip.method)


def _recip_mp_integral(x: float, p: float) -> EvalResult:
    """1/M_p(1, x) as c_p times the half-line integral of
    ((t^p + 1)(t^p + x^p))^(-1/p)."""
    xp = x**p
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


def _recip_kp_integral(x: float, p: float) -> EvalResult:
    """1/K_p(1, x) = integral_0^1 ((1-s) + x^p s)^(-1/p) ds."""
    xp = x**p
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


def _recip(x: float, p: float, a: float, method: str, integral: Callable) -> EvalResult:
    """1/mean(1, x) = F(a, 1/p; 2a; z), z = 1 - x^p, with a = 1/p for M_p and
    a = 1 for K_p, by the route ``_pick_route`` chooses: ``auto`` (M_p only)
    is the first of ``hyp_quad`` (the series in (z/(2-z))^2), ``hyp_base``
    (the series in z), each admitting arguments up to SERIES_ARG_MAX, and
    ``integral``, the mean's integral."""
    z = _one_minus_xp(x, p)
    zq = _quad_arg(z)
    route = _pick_route(
        method,
        {"hyp_quad": zq <= SERIES_ARG_MAX, "hyp_base": z <= SERIES_ARG_MAX, "integral": True},
        lambda r: f"a series argument <= {SERIES_ARG_MAX}, "
        f"got {zq if r == 'hyp_quad' else z!r} at 1 - x^p = {z!r}",
    )
    if route == "integral":
        return integral(x, p)
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
    if x == 1.0:  # distinct pair whose ratio still rounds to 1
        return _closed_form(scale)
    if method == "elliptic":
        par = PQParams(p / (p - 1.0), p)
        k = _one_minus_xp(x, p) ** (1.0 / p)
        return _over(scale, _scaled(2.0 / pi_pq(par), K_pq(par, k)))
    return _over(scale, _recip(x, p, 1.0 / p, method, _recip_mp_integral))


def mean_mp(a: float, b: float, p: float, method: str = "auto") -> float:
    """Interpolating mean M_p for finite p >= 0.

    p = 0 gives sqrt(ab) and p = 1 the logarithmic mean, both as stated
    limits; elsewhere the pair is normalized to (1, x) and 1/M_p(1, x) is
    evaluated by the selected representation: ``integral``, ``elliptic``,
    ``hyp_base`` or ``hyp_quad``.  By the one rule of every quantity,
    ``auto`` takes the first of ``hyp_quad``, ``hyp_base`` and ``integral``
    whose domain admits the point (a series argument, (z/(2-z))^2 <= z or
    z = 1 - x^p, at most 0.99), and a named route outside raises ValueError.
    ``elliptic`` sums the base series itself wherever K_{p*,p} takes its
    series in k^p = 1 - x^p (k^p <= 1/2, or where its connection terms would
    grow), and its independent connection series in x^p elsewhere.  The
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
    if abs(p - 1.0) <= _LIMIT_TOL:
        return _closed_form(mean_log(a, b))
    scale, x = _normalized(a, b)
    if x == 1.0:  # distinct pair whose ratio still rounds to 1
        return _closed_form(scale)
    if method == "closed":
        num = _one_minus_xp(x, p)
        den = _one_minus_xp(x, p - 1.0)
        return _closed_form(scale * ((p - 1.0) / p) * (num / den))
    return _over(scale, _recip(x, p, 1.0, method, _recip_kp_integral))


def mean_kp(a: float, b: float, p: float, method: str = "closed") -> float:
    """Power-difference mean K_p = ((p-1)/p) (a^p - b^p) / (a^(p-1) - b^(p-1)).

    The closed form is valid for every finite real p, with the stated limits
    K_0 = ab/L(a, b) and K_1 = L(a, b) taking over within 1e-8 of the
    removable points.  The integral and hypergeometric representations
    require p > 0, and a series route raises ValueError where its argument
    exceeds 0.99.  The integral runs to a fixed absolute tolerance of 1e-12;
    series routes keep hyp2f1's fixed stopping rule.  ``_mean_kp`` also
    returns the kind of route that actually ran and the kernel's own error
    estimate.
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

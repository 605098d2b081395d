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
from collections import namedtuple
from collections.abc import Callable
from functools import partial

from .elliptic import K_pq  # unused: perfbench's tracer replaces means.K_pq
from .numerics import (
    SERIES_ARG_MAX,
    EvalResult,
    HypSeriesSpec,
    _beta_rel,
    _closed_form,
    _connection_domain,
    _ConnectionSpec,
    _over,
    _pick_route,
    _pow_pair,
    _scaled,
    hyp2f1,
    integrate_halfline,  # unused: perfbench's tracer replaces means.integrate_halfline
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
]

# p values this close to 0 take the limit form, which is exact to rounding
# there: |M_p/G - 1| ~ p l^2/16 and |K_p/K_0 - 1| ~ |p| l^2/12, with
# |l| = |ln(a/b)| <= 1455 for any pair of positive doubles.  The same bound
# at p = 1 admits no double but 1 itself
_LIMIT_TOL = 2.0**-71
_INTEGRAL_TOL = 1e-12  # tolerance of the integral routes

# each mean's routes mapped to their independence classes, M_p's in auto's
# order (K_p has no auto); M_p's elliptic route is K_{p*,p}'s log connection
_MP_ROUTES = {"hyp_quad": "quadratic transformation", "hyp_base": "Gauss series",
              "integral": "quadrature", "elliptic": "log connection"}
_KP_ROUTES = {"closed": "closed form", "integral": "quadrature", "hyp_base": "Gauss series",
              "hyp_quad": "quadratic transformation"}


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
    a, b = math.ldexp(a, -e), math.ldexp(b, -e)
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
    return _c_p_rel(p)[0]


def _c_p_rel(p: float) -> tuple[float, float]:
    """c_p for p > 0 and the relative rounding error of its beta function."""
    b, rel = _beta_rel(1.0 / p, 1.0 / p)
    c = p / b if b > 0.0 else math.inf
    if c == math.inf:
        raise ValueError(f"c_p overflows at p = {p!r}: B(1/p, 1/p) = {b!r}")
    return c, rel


def _recip_mp_integral(x: float, xp: float, p: float) -> EvalResult:
    """1/M_p(1, x) = c_p integral_0^1 (2 h(u) + L k(u)) du, xp = x^p, L = -ln x.

    The half-line integral of ((t^p + 1)(t^p + xp))^(-1/p) has features at
    t = x and t = 1.  t = x u on (0, x) and t = 1/u on (1, inf) both give
    h(u) = ((1 + u^p)(1 + xp u^p))^(-1/p); t = x^(1-u) on (x, 1) gives
    L k(u), k(u) = ((1 + e^(p ln x (1-u)))(1 + e^(p ln x u)))^(-1/p), with
    1 - u the node's exact complement.  The sum is smooth on [0, 1] and
    needs only p ln x, finite for every positive double; where xp
    underflows to 0, h takes it as 0.  The error adds c_p's beta rounding.
    """
    c, rel = _c_p_rel(p)
    neg_inv_p, exp = -(1.0 / p), math.exp
    lx = math.log(x)
    a = p * lx

    def f(u: float, uc: float) -> float:
        up = u**p
        h = ((1.0 + up) * (1.0 + xp * up)) ** neg_inv_p
        k = ((1.0 + exp(a * uc)) * (1.0 + exp(a * u))) ** neg_inv_p
        return 2.0 * h - lx * k

    return _scaled(c, integrate_singular(f, _INTEGRAL_TOL), rel)


def _recip_kp_integral(xp: float, p: float) -> EvalResult:
    """1/K_p(1, x) = integral_0^1 ((1-s) + xp s)^(-1/p) ds, xp = x^p."""
    neg_inv_p = -1.0 / p

    def f(s: float, sc: float) -> float:
        return (sc + xp * s) ** neg_inv_p

    return integrate_singular(f, _INTEGRAL_TOL)


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


def _recip(
    method: str, routes: dict, x: float, p: float, a: float, integral: Callable
) -> EvalResult:
    """1/mean(1, x) = F(a, 1/p; 2a; z), a = 1/p for M_p and 1 for K_p, at the
    pair (xp, z) = (x^p, 1 - x^p), formed once, by the route of ``routes`` that
    ``_pick_route`` chooses.  ``hyp_quad`` and ``hyp_base`` sum the series in
    (z/(2-z))^2 and in z, up to SERIES_ARG_MAX; ``elliptic`` (M_p) is K's log
    connection -S_0(1/p, 1/p; x^p) / B(1/p, 1/p), where x^p is normal (the sum
    takes log x^p) and ``_connection_domain`` holds; ``integral(xp, p)`` admits
    every pair, x^p underflowing to 0 included."""
    xp, z = _pow_pair(x, p)
    zq = _quad_arg(z)
    admits = {"hyp_quad": zq <= SERIES_ARG_MAX, "hyp_base": z <= SERIES_ARG_MAX,
              "elliptic": xp >= sys.float_info.min and _connection_domain(a, a, 0, xp)}
    route = _pick_route(
        method,
        routes,
        tuple(admits.get(r, True) for r in routes),
        lambda r: f"x^p in the normal range with x^p <= 1/2 and max(1/p, 1)^2 x^p <= 1, "
        f"got {xp!r} at p = {p!r}"
        if r == "elliptic"
        else f"a series argument <= {SERIES_ARG_MAX}, "
        f"got {zq if r == 'hyp_quad' else z!r} at 1 - x^p = {z!r}",
    )
    if route == "elliptic":
        b, rel = _beta_rel(a, a)
        return _scaled(-1.0 / b, hyp2f1(_ConnectionSpec(a, a, 0, xp)), rel)
    if route == "integral":
        return integral(xp, p)
    if route == "hyp_quad":
        return _hyp_quad(a, 1.0 / p, z)
    return hyp2f1(HypSeriesSpec(a, 1.0 / p, 2.0 * a, z))


def _mean_mp(a: float, b: float, p: float, method: str = "auto") -> EvalResult:
    """M_p(a, b) with the route that ran and its error; see ``mean_mp``."""
    _check_args(a, b, p, "mean_mp")
    if method != "auto" and method not in _MP_ROUTES:
        raise ValueError(f"unknown method {method!r}; expected one of {('auto', *_MP_ROUTES)}")
    if not p >= 0.0:
        raise ValueError(f"mean_mp requires p >= 0, got {p!r}")
    if a == b:
        return _closed_form(a)  # exact fixed point for every p
    if p <= _LIMIT_TOL:
        # sqrt(ab) in frexp parts, the exponent sum made even: one rounding
        # of the mantissa product, as sqrt(a * b) where that is in range
        (ma, ea), (mb, eb) = math.frexp(a), math.frexp(b)
        m, e = ma * mb, ea + eb
        if e % 2:
            m, e = 2.0 * m, e - 1
        return _closed_form(math.ldexp(math.sqrt(m), e // 2))
    if p == 1.0:
        return _closed_form(mean_log(a, b))
    scale, x = _normalized(a, b)
    return _over(scale, _recip(method, _MP_ROUTES, x, p, 1.0 / p, partial(_recip_mp_integral, x)))


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
    ``elliptic`` is c_p K_{p*,p} with k^p = 1 - x^p by K's log connection,
    -S_0(1/p, 1/p; x^p) / B(1/p, 1/p) (A&S 15.3.10), taken on the exact
    x^p with no conjugate p* formed.  It admits x^p in the normal range
    where the connection sum's terms do not grow (x^p <= 1/2 and
    max(1/p, 1)^2 x^p <= 1), and raises ValueError elsewhere; ``hyp_base``
    or the integral admits every such point.  ``integral`` folds the
    half-line integral onto one smooth integral over (0, 1) that needs only
    x^p and p ln x, so it returns a value wherever c_p is finite, x^p
    underflowing to 0 included; it runs to a fixed absolute tolerance of
    1e-12, and its error includes c_p's beta rounding.  Series routes keep
    their kernel's fixed stopping rule.
    ``_mean_mp`` also returns the kind of route that ran and the kernel's
    own error estimate.
    """
    return _mean_mp(a, b, p, method).value


def _kp_ratio(p: float, lx: float) -> float:
    """(1 - e^-|p l|) / (1 - e^-|(p-1) l|) |p-1|/|p| at l = lx = ln x: both
    differences lie in (0, 1], so it has no 0/0 where |p l| overflows.  For
    |p| <= 2^-71 it is the p -> 0 limit |l| / (1 - e^-|l|)."""
    if abs(p) <= _LIMIT_TOL:
        return abs(lx) / -math.expm1(-abs(lx))
    return math.expm1(-abs(p * lx)) / math.expm1(-abs((p - 1.0) * lx)) * abs((p - 1.0) / p)


def _kp_closed(lo: float, hi: float, p: float) -> EvalResult:
    """K_p(lo, hi), lo < hi, by the closed form, with only the result rounded:
    x = lo/hi = y 2^n stays in frexp parts, hi x^c = lo x^s with
    s = c - 1 = clamp(-p) in [-1, 0] taken exactly, s n is split so that its
    integer part k is exact, and 2^(e_lo + k) comes last.  A subnormal x, or
    one that underflows to 0, never rounds.  The error, below 2.5 eps on
    40,000 pairs against mpmath and below 1.6 eps for K_0 on 6,000, is
    taken as 8 eps plus the rounding."""
    (m, e), (mh, eh) = math.frexp(lo), math.frexp(hi)
    n = e - eh
    s = min(0.0, max(-1.0, -p))
    s1 = math.floor(s * 2.0**40) / 2.0**40  # s1 n is exact, (s - s1) n below 2^-29
    k = math.floor(s1 * n)
    g = m ** (1.0 + s) * mh**-s * 2.0 ** (s1 * n - k + (s - s1) * n)  # lo x^s / 2^(e_lo + k)
    value = math.ldexp(g * _kp_ratio(p, math.log(m / mh) + n * math.log(2.0)), e + k)
    return _scaled(1.0, _closed_form(value), 4.0 * sys.float_info.epsilon)


def _mean_kp(a: float, b: float, p: float, method: str = "closed") -> EvalResult:
    """K_p(a, b) with the route that ran and its error; see ``mean_kp``."""
    _check_args(a, b, p, "mean_kp")
    if method not in _KP_ROUTES:
        raise ValueError(f"unknown method {method!r}; expected one of {tuple(_KP_ROUTES)}")
    if method != "closed" and not p > 0.0:
        raise ValueError(f"the {method} representation requires p > 0, got {p!r}")
    if a == b:
        return _closed_form(a)  # exact fixed point for every p
    if p == 1.0:
        return _closed_form(mean_log(a, b))
    if method == "closed" or abs(p) <= _LIMIT_TOL:
        return _kp_closed(min(a, b), max(a, b), p)
    scale, x = _normalized(a, b)
    return _over(scale, _recip(method, _KP_ROUTES, x, p, 1.0, _recip_kp_integral))


def mean_kp(a: float, b: float, p: float, method: str = "closed") -> float:
    """Power-difference mean K_p = ((p-1)/p) (a^p - b^p) / (a^(p-1) - b^(p-1)).

    The closed form is valid for every finite real p and every pair and
    never overflows (``_kp_closed`` keeps x = min/max in frexp parts, so only
    the result rounds).  For |p| <= 2^-71 it takes its own p -> 0 limit
    K_0 = ab/L(a, b), exact to rounding there, whatever the method; K_1 =
    L(a, b) at p = 1.  The integral and hypergeometric representations
    require p > 0, and a series route raises ValueError where its argument
    exceeds 0.99.  The integral runs to a fixed absolute tolerance of 1e-12;
    series routes keep hyp2f1's fixed stopping rule.  ``_mean_kp`` also
    returns the kind of route that ran and the kernel's own error estimate.
    """
    return _mean_kp(a, b, p, method).value


class MeanOrdering(namedtuple("MeanOrdering", "verdict p a b gap")):
    """Sign verdict "Mp_greater", "equal" or "Kp_greater" for M_p versus K_p on
    one pair, with the raw gap M_p - K_p."""

    __slots__ = ()


def ordering(a: float, b: float, p: float) -> MeanOrdering:
    """Compare M_p(a, b) with K_p(a, b).

    For distinct arguments the verdict is strict: M_p wins for 0 <= p < 1,
    the two agree at p = 1, and K_p wins for p > 1.  Gaps within
    1e-12 * max(M_p, K_p) are reported as equal since both means are
    computed to roughly that accuracy on their own scale.  Both means return
    a exactly for a = b, so an equal pair has gap 0 and the verdict equal.
    """
    _check_args(a, b, p, "ordering")
    if not p >= 0.0:
        raise ValueError(f"ordering requires p >= 0, got {p!r}")
    mp, kp = mean_mp(a, b, p), mean_kp(a, b, p)
    gap = mp - kp
    tol = 1e-12 * max(mp, kp)
    if gap > tol:
        verdict = "Mp_greater"
    elif gap < -tol:
        verdict = "Kp_greater"
    else:
        verdict = "equal"
    return MeanOrdering(verdict, p, a, b, gap)

"""Generalized (p, q)-trigonometric functions on the principal branch.

arcsin_pq is the singular integral x -> integral_0^x (1 - t^q)^(-1/p) dt,
summed as a hypergeometric series in x^q or, past x^q = 1/2, as pi_pq/2
less an incomplete beta series in 1 - x^q, with quadrature as the last
route; sin_pq is its inverse on [0, pi_pq/2], and cos/tan follow from sin.
The admissible parameter class is p/(p-1) > 0 together with q > 0, so p may
be negative but never 0 or 1.  For p = q = 2 everything degenerates to the
classical functions.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .numerics import (
    EvalResult,
    HypSeriesSpec,
    _beta_rel,
    _closed_form,
    _one_minus_pow,
    _pick_route,
    _pow_pair,
    _rounding_err,
    _scaled,
    _shifted,
    hyp2f1,
    integrate_singular,
    invert_monotone,
)

__all__ = ["PQParams", "arcsin_pq", "cos_pq", "pi_pq", "sin_pq", "tan_pq"]

_ARCSIN_TOL = 1e-13  # tolerance of arcsin_pq's quadrature route
_SIN_TOL = 1e-12  # sin_pq's residual in theta, relative below theta = 1; see _theta_tol


class PQParams(namedtuple("PQParams", "p q p_star")):
    """A validated exponent pair (p, q) with its cached conjugate p* = p/(p-1),
    a named tuple built from (p, q) alone: ``_replace`` recomputes p*."""

    __slots__ = ()

    def __new__(cls, p: float, q: float) -> PQParams:
        if not (math.isfinite(p) and math.isfinite(q)):
            raise ValueError(f"p and q must be finite, got ({p!r}, {q!r})")
        if p == 0.0 or p == 1.0:
            raise ValueError("p must differ from 0 and 1 (conjugate undefined)")
        p_star = p / (p - 1.0)
        if p_star <= 0.0:
            raise ValueError(f"conjugate p* = {p_star:g} must be positive (need p > 1 or p < 0)")
        if q <= 0.0:
            raise ValueError(f"q must be positive, got {q!r}")
        return tuple.__new__(cls, (p, q, p_star))

    def __getnewargs__(self) -> tuple[float, float]:
        return self.p, self.q

    _make = classmethod(lambda cls, fields: cls(*tuple(fields)[:2]))


def pi_pq(params: PQParams) -> float:
    """Half-period constant pi_pq = (2/q) B(1/p*, 1/q), i.e. 2 arcsin_pq(1)."""
    return _pi_pq_rel(params)[0]


def _pi_pq_rel(params: PQParams) -> tuple[float, float]:
    """pi_pq and the relative rounding error of its beta function."""
    b, rel = _beta_rel(1.0 / params.p_star, 1.0 / params.q)
    return (2.0 / params.q) * b, rel


# arcsin_pq's routes in auto's order, each mapped to its independence class
_ROUTES = {"series": "Gauss series", "complement": "15.3.6 connection", "quadrature": "quadrature"}
_NEED = {
    "series": "x^q <= 1/2 and terms that do not grow",
    "complement": "1 - x^q <= 1/2, terms that do not grow and a tail that "
    "does not cancel pi_pq/2",
}


def _arcsin(params: PQParams, x: float, method: str = "auto") -> EvalResult:
    """arcsin_pq(x) by the route ``_pick_route`` chooses, with its error.

    With m = x^q and its exact complement w = 1 - x^q from ``_pow_pair``:

    - ``series``: x F(1/p, 1/q; 1 + 1/q; m) (A&S 15.1.1).  It admits
      m <= 1/2 with max(|1/p|, 1) m <= 1: no term ratio
      (1/p + n)(1/q + n) m / ((1 + 1/q + n)(n + 1)) then exceeds 1.
    - ``complement``: pi_pq/2 - (1/q) B_w(a, 1/q), a = 1/p*, with the
      incomplete beta B_w(a, 1/q) = (w^a / a) F(a, 1 - 1/q; a + 1; w)
      (DLMF 8.17.8).  It admits w <= 1/2 with max(|1 - 1/q|, 1) w <= 1, and
      only where the subtraction does not cancel.  The tail
      (1/q) integral_0^w v^(a-1) (1 - v)^(1/q-1) dv is at most
      T = (w^a / (a q)) max(1, x^(1-q)), so the result is at least
      pi_pq/2 - T; the route requires the a priori form of its error,
      with the tail at T, to be at most _ARCSIN_TOL times that.  Near
      p = 1, where a -> 0 and pi_pq/2 ~ 1/(a q), the tail nearly equals
      pi_pq/2 and the point goes to quadrature; so does a point where
      pi_pq's own rounding exceeds the tolerance (p -> 0-, a large).  At
      x = 1, w = 0 and the route returns pi_pq/2 exactly.
    - ``quadrature``: x integral_0^1 (1 - m s^q)^(-1/p) ds, each
      1 - m s^q formed as w + m (1 - s^q), run to _ARCSIN_TOL.

    Each route's result comes from ``numerics._scaled`` and ``_shifted``,
    which carry into abs_err the kernel's error times its factor, pi_pq's
    rounding, w^a's relative error and the rounding of each product and sum.

    Both series are summed until a term falls below rounding.  ``auto``
    takes the first of series, complement and quadrature that admits x; a
    named route outside its domain raises ValueError.  Both series report
    the method ``series``.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"arcsin_pq requires x in [0, 1], got {x!r}")
    q, inv_p, inv_q = params.q, 1.0 / params.p, 1.0 / params.q
    a = 1.0 / params.p_star
    m, w = _pow_pair(x, q)
    complement = w <= 0.5 and max(abs(1.0 - inv_q), 1.0) * w <= 1.0
    if complement:
        pi, pi_rel = _pi_pq_rel(params)
        half = 0.5 * pi
        scale = w**a / (a * q)  # the tail is scale F
        complement = _complement_keeps(half, pi_rel, scale * max(1.0, x ** (1.0 - q)), a)
    route = _pick_route(
        method,
        _ROUTES,
        (m <= 0.5 and max(abs(inv_p), 1.0) * m <= 1.0, complement, True),
        lambda r: f"{_NEED[r]}, got x = {x!r} for (p, q) = ({params.p:g}, {params.q:g})",
    )
    if route == "series":
        return _scaled(x, hyp2f1(HypSeriesSpec(inv_p, inv_q, 1.0 + inv_q, m, 2.0**-53)))
    if route == "complement":
        r = hyp2f1(HypSeriesSpec(a, 1.0 - inv_q, a + 1.0, w, 2.0**-53))
        # w^a carries a times the few-eps relative error of w
        return _shifted(half, half * pi_rel, _scaled(-scale, r, a * _rounding_err(1.0)))

    def integrand(s: float, sc: float) -> float:
        # t = x s, so 1 - t^q = (1 - x^q) + x^q (1 - s^q)
        return (w + m * _one_minus_pow(s, sc, q)) ** -inv_p

    return _scaled(x, integrate_singular(integrand, _ARCSIN_TOL))


def _complement_keeps(half: float, pi_rel: float, tail_max: float, a: float) -> bool:
    """Whether the complement's a priori error, with its tail at tail_max,
    is at most _ARCSIN_TOL times the smallest result half - tail_max."""
    err_max = half * pi_rel + (2.0 + a) * _rounding_err(tail_max) + _rounding_err(half)
    return err_max <= _ARCSIN_TOL * (half - tail_max)


def arcsin_pq(params: PQParams, x: float, method: str = "auto") -> float:
    """integral_0^x dt / (1 - t^q)^(1/p) for x in [0, 1], increasing in x.

    At x = 1 this equals pi_pq / 2.  ``method`` is auto, series, complement
    or quadrature; ``_arcsin`` describes the routes and how ``auto``
    chooses among them.
    """
    return _arcsin(params, x, method).value


def _theta_tol(theta: float) -> float:
    """The residual in theta at which sin_pq's inversion stops: _SIN_TOL
    times min(1, theta), and never below ulp(theta)."""
    return max(_SIN_TOL * min(1.0, theta), math.ulp(theta))


def _slope(base: float, e: float) -> float:
    """base**e for base >= 0 as an inversion slope: infinite where it overflows,
    a zero base under e < 0 included, so the inversion bisects there."""
    try:
        return base**e
    except (OverflowError, ZeroDivisionError):
        return math.inf


def sin_pq(params: PQParams, theta: float) -> float:
    """Inverse of arcsin_pq, increasing from [0, pi_pq/2] onto [0, 1].

    Endpoints are exact; interior values come from ``invert_monotone``'s
    Halley steps on the defining integral, with its exact slope and
    curvature, to a residual of ``_theta_tol(theta)`` in theta, relative
    below theta = 1, so tiny theta and a tiny pi_pq/2 keep their digits.
    The bracket is [0, 1] where arcsin_pq(1) is closed-form, as neither end
    then costs an evaluation.  Elsewhere, as the integrand (1 - t^q)^(-1/p)
    is at least 1 for p > 1 and at most 1 for p < 0, so that arcsin_pq x >= x
    or <= x, the bracket is [0, min(1, theta)] or [min(1, theta), 1].

    With a = 1/p* and w = 1 - x^q, theta = pi_pq/2 - w^a/(a q) to leading
    order near x = 1, so w0 = (a q (pi_pq/2 - theta))^(1/a) estimates w at
    the root.  Where w0 > 1/2, or min(1, theta)^q < 1/2 (for p > 1 the root
    lies below theta; for q < 1 the leading term overstates the tail and w0
    understates w), the inversion runs in x, with slope w^(-1/p) and
    curvature (q/p) (x^q/x) w^(-1/p)/w.  Otherwise it runs in v = -w^a, with
    slope d = x^(1-q)/(a q) and curvature (1 - q) d^2 (w/(-v))/x, in which
    theta is nearly linear; x comes back from v through log1p, so it reaches
    every float near 1.

    The inversion starts from the first two terms of each variable's
    series.  In x, theta = x (1 + x^q/(p (q + 1)) + ...) gives the start
    t1 (1 - t1^q/(p (q + 1))), t1 = min(1, theta).  In v, with
    e = a q (pi_pq/2 - theta) and c = a (1 - 1/q)/(a + 1),
    e = w^a (1 + c w + ...) gives the start v = -e/(1 + c w0) where
    |c w0| <= 1/4.  Where a start falls outside the bracket, or outside that
    guard, a step from the bracket end at 0 or 1 lands on the estimate
    x = theta or w^a = e.

    Every residual is arcsin_pq(x) - theta at the very x returned.  The ends
    x = 0 and x = 1 take their values 0 and pi_pq/2 without a call, the
    latter only where the complement route admits w = 0 and so returns
    exactly pi_pq/2; any other x is evaluated once, so where one ulp of x
    moves theta by more than the tolerance, the inversion's last steps in v
    fall on x already met and the stall costs no further evaluations.
    """
    pi, pi_rel = _pi_pq_rel(params)
    half = 0.5 * pi
    if not 0.0 <= theta <= half:
        raise ValueError(f"theta must lie in [0, {half:.17g}], got {theta!r}")
    if theta == 0.0:
        return 0.0
    if theta == half:
        return 1.0
    t1 = min(1.0, theta)
    lo, hi = (0.0, t1) if params.p > 1.0 else (t1, 1.0)
    if lo == hi:  # theta >= 1 > p: pi_pq/2 exceeds 1 only by its rounding
        return 1.0
    p, q, a, tol = params.p, params.q, 1.0 / params.p_star, _theta_tol(theta)
    # arcsin_pq at each x the inversion has met, and at the closed-form ends
    known = {0.0: 0.0, 1.0: half} if _complement_keeps(half, pi_rel, 0.0, a) else {0.0: 0.0}
    if 1.0 in known:
        lo, hi = 0.0, 1.0

    def theta_at(x: float) -> float:
        if x not in known:
            known[x] = arcsin_pq(params, x)
        return known[x]

    e = a * q * (half - theta)
    m1 = t1**q
    if e > 0.5**a or m1 < 0.5:  # w0 > 1/2, without a 1/a power
        inv_p, k = 1.0 / p, q / p

        def g_x(x: float) -> tuple[float, float, float]:
            m, w = _pow_pair(x, q)
            d = _slope(w, -inv_p)
            return theta_at(x), d, k * _quotient(m, x) * _quotient(d, w)

        x0 = t1 * (1.0 - m1 / (p * (q + 1.0)))
        return invert_monotone(g_x, theta, lo, hi, tol, x0)
    inv_a, inv_q = 1.0 / a, 1.0 / q
    w_lo, w_hi = _pow_pair(lo, q)[1], _pow_pair(hi, q)[1]
    v_lo, v_hi = -(w_lo**a), -(w_hi**a)

    def x_at(v: float) -> tuple[float, float]:
        # (x, w) with w = (-v)^(1/a) = 1 - x^q, exact at the bracket's ends;
        # inside, w < 1, and log1p keeps the digits of w that 1 - w would
        # drop, so x reaches every float near 1
        if v == v_lo:
            return lo, w_lo
        if v == v_hi:
            return hi, w_hi
        w = (-v) ** inv_a
        return math.exp(math.log1p(-w) * inv_q), w

    def g_v(v: float) -> tuple[float, float, float]:
        x, w = x_at(v)
        d = _slope(x, 1.0 - q) / a / q
        return theta_at(x), d, (1.0 - q) * d * d * _quotient(_quotient(w, -v), x)

    cw0 = a * (1.0 - inv_q) / (a + 1.0) * e**inv_a
    v0 = -e / (1.0 + cw0) if abs(cw0) <= 0.25 else math.nan
    return x_at(invert_monotone(g_v, theta, v_lo, v_hi, tol, v0))[0]


def _quotient(n: float, d: float) -> float:
    """n/d, or nan where d is 0, so the inversion takes a Newton step."""
    return n / d if d else math.nan


def _cos_from_sin(s: float, q: float) -> float:
    """(1 - s^q)^(1/q) for s = sin_pq theta in [0, 1], exact at both ends."""
    if s == 1.0:
        return 0.0
    return _pow_pair(s, q)[1] ** (1.0 / q)


def _tan_from_sin(s: float, q: float) -> float:
    """s / cos_pq for s = sin_pq theta in [0, 1); diverges at s = 1.  For
    small q, cos_pq = (1 - s^q)^(1/q) underflows while s < 1, and the
    quotient that leaves the doubles raises ValueError too."""
    if s == 1.0:
        raise ValueError("tan_pq diverges at theta = pi_pq/2")
    c = _cos_from_sin(s, q)
    t = s / c if c > 0.0 else math.inf
    if t == math.inf:
        raise ValueError(f"tan_pq overflows: cos_pq = {c!r} at sin_pq = {s!r}")
    return t


def cos_pq(params: PQParams, theta: float) -> float:
    """cos_pq = (1 - sin_pq^q)^(1/q) on [0, pi_pq/2]; equals 1 at theta = 0."""
    return _cos_from_sin(sin_pq(params, theta), params.q)


def tan_pq(params: PQParams, theta: float) -> float:
    """tan_pq = sin_pq / cos_pq on [0, pi_pq/2); diverges where sin_pq is 1."""
    return _tan_from_sin(sin_pq(params, theta), params.q)


_LOG_MAX = 709.0  # exp of anything larger overflows


def _theta_gain(s: float, w: float, e_s: float, e_w: float) -> float:
    """s^e_s w^e_w for s, w in [0, 1], summed in logs: a zero base under a
    negative exponent, or a product past the float range, gives exp(_LOG_MAX)
    instead of ZeroDivisionError or OverflowError."""
    log_gain = 0.0
    for v, e in ((s, e_s), (w, e_w)):
        if e != 0.0:
            log_gain += e * math.log(v) if v > 0.0 else -math.copysign(math.inf, e)
    return math.exp(min(log_gain, _LOG_MAX))


def _sin_pq(params: PQParams, theta: float, fn: str) -> EvalResult:
    """sin_pq, cos_pq or tan_pq (``fn`` "sin", "cos" or "tan") at theta as an
    EvalResult: the public value with its error and route.

    The inversion stops at |arcsin_pq(s) - theta| <= _theta_tol(theta), and
    arcsin_pq(s) is within its own abs_err, so s = sin_pq theta' for some
    theta' within _theta_tol(theta) + abs_err of theta.  abs_err is that
    width times |d value/d theta| at s, plus the value's rounding.  With
    w = 1 - s^q = cos_pq^q the derivatives are sin' = cos^(q/p) = w^(1/p),
    |cos'| = sin^(q-1) cos^(1-q/p*) = s^(q-1) w^(1/q - 1/p*) and
    tan' = cos^(-1-q/p*) = w^(-1/q - 1/p*).  ``method`` is the route
    arcsin_pq took at s, where the inversion stopped.  theta = 0 and
    pi_pq/2 give exact closed forms.
    """
    s = sin_pq(params, theta)
    q, inv_p, inv_q, inv_ps = params.q, 1.0 / params.p, 1.0 / params.q, 1.0 / params.p_star
    if fn == "sin":
        value, e_s, e_w = s, 0.0, inv_p
    elif fn == "cos":
        value, e_s, e_w = _cos_from_sin(s, q), q - 1.0, inv_q - inv_ps
    else:
        value, e_s, e_w = _tan_from_sin(s, q), 0.0, -inv_q - inv_ps
    if theta == 0.0 or theta == 0.5 * pi_pq(params):
        return _closed_form(value)
    r = _arcsin(params, s)
    gain = _theta_gain(s, _pow_pair(s, q)[1], e_s, e_w)
    err = (_theta_tol(theta) + r.abs_err) * gain + _rounding_err(value)
    return EvalResult(value, err, r.method)

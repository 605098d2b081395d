"""Generalized (p, q)-trigonometric functions on the principal branch.

arcsin_pq is the singular integral x -> integral_0^x (1 - t^q)^(-1/p) dt,
sin_pq its inverse on [0, pi_pq/2], and cos/tan follow from sin.  The
admissible parameter class is p/(p-1) > 0 together with q > 0, so p may be
negative but never 0 or 1.  For p = q = 2 everything degenerates to the
classical functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .numerics import _beta_rel, _one_minus_pow, _pow_pair, integrate_singular, invert_monotone

__all__ = ["PQParams", "arcsin_pq", "cos_pq", "pi_pq", "sin_pq", "tan_pq"]

_ARCSIN_TOL = 1e-13  # quadrature tolerance of arcsin_pq
_SIN_TOL = 1e-12  # residual in theta at which sin_pq's inversion stops


@dataclass(frozen=True)
class PQParams:
    """A validated exponent pair (p, q) with its cached conjugate p* = p/(p-1)."""

    p: float
    q: float
    p_star: float = field(init=False)

    def __post_init__(self) -> None:
        p, q = self.p, self.q
        if not (math.isfinite(p) and math.isfinite(q)):
            raise ValueError(f"p and q must be finite, got ({p!r}, {q!r})")
        if p == 0.0 or p == 1.0:
            raise ValueError("p must differ from 0 and 1 (conjugate undefined)")
        p_star = p / (p - 1.0)
        if p_star <= 0.0:
            raise ValueError(
                f"conjugate p* = {p_star:g} must be positive (need p > 1 or p < 0)"
            )
        if q <= 0.0:
            raise ValueError(f"q must be positive, got {q!r}")
        object.__setattr__(self, "p_star", p_star)


def pi_pq(params: PQParams) -> float:
    """Half-period constant pi_pq = (2/q) B(1/p*, 1/q), i.e. 2 arcsin_pq(1)."""
    return _pi_pq_rel(params)[0]


def _pi_pq_rel(params: PQParams) -> tuple[float, float]:
    """pi_pq and the relative rounding error of its beta function."""
    b, rel = _beta_rel(1.0 / params.p_star, 1.0 / params.q)
    return (2.0 / params.q) * b, rel


def arcsin_pq(params: PQParams, x: float) -> float:
    """integral_0^x dt / (1 - t^q)^(1/p) for x in [0, 1], increasing in x.

    At x = 1 this equals pi_pq / 2; the endpoint singularity there is
    integrable for every admissible (p, q); its quadrature runs to _ARCSIN_TOL.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"arcsin_pq requires x in [0, 1], got {x!r}")
    if x == 0.0:
        return 0.0
    q = params.q
    neg_inv_p = -1.0 / params.p
    m, mc = _pow_pair(x, q)

    def integrand(s: float, sc: float) -> float:
        # t = x s, so 1 - t^q = (1 - x^q) + x^q (1 - s^q)
        return (mc + m * _one_minus_pow(s, sc, q)) ** neg_inv_p

    return x * integrate_singular(integrand, _ARCSIN_TOL).value


def sin_pq(params: PQParams, theta: float) -> float:
    """Inverse of arcsin_pq, increasing from [0, pi_pq/2] onto [0, 1].

    Endpoints are exact; interior values come from monotone inversion of the
    defining integral to a residual of _SIN_TOL in theta.
    """
    half = 0.5 * pi_pq(params)
    if not 0.0 <= theta <= half:
        raise ValueError(f"theta must lie in [0, {half:.17g}], got {theta!r}")
    if theta == 0.0:
        return 0.0
    if theta == half:
        return 1.0
    return invert_monotone(lambda x: arcsin_pq(params, x), theta, 0.0, 1.0, _SIN_TOL)


def _cos_from_sin(s: float, q: float) -> float:
    """(1 - s^q)^(1/q) for s = sin_pq theta in [0, 1], exact at both ends."""
    if s == 1.0:
        return 0.0
    return _pow_pair(s, q)[1] ** (1.0 / q)


def cos_pq(params: PQParams, theta: float) -> float:
    """cos_pq = (1 - sin_pq^q)^(1/q) on [0, pi_pq/2]; equals 1 at theta = 0."""
    return _cos_from_sin(sin_pq(params, theta), params.q)


def tan_pq(params: PQParams, theta: float) -> float:
    """tan_pq = sin_pq / cos_pq on [0, pi_pq/2); diverges where sin_pq is 1."""
    s = sin_pq(params, theta)
    if s == 1.0:
        raise ValueError("tan_pq diverges at theta = pi_pq/2")
    return s / _cos_from_sin(s, params.q)

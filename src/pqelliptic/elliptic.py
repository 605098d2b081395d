"""Complete (p, q)-elliptic integrals of the first and second kind.

Each integral has two independent evaluation routes that serve as mutual
checks: a hypergeometric series in k^q and a tanh-sinh quadrature of the
t-form integral over (0, 1).  The pair (K, E) satisfies a first-order
differential system in k, and a Legendre-type product relation ties the
(p, q) and (q, p) integrals together for p, q > 1.
"""

from __future__ import annotations

import math

from .gentrig import PQParams, pi_pq
from .numerics import (
    SERIES_ARG_MAX,
    EvalResult,
    HypSeriesSpec,
    _one_minus_pow,
    _pow_pair,
    _rounding_err,
    hyp2f1,
    integrate_singular,
    pochhammer,
)

__all__ = ["E_pq", "K_pq", "dE_dk", "dK_dk", "legendre_residual", "moment_sin_pq"]


def _check_modulus(k: float) -> None:
    if not 0.0 <= k < 1.0:
        raise ValueError(f"modulus k must lie in [0, 1), got {k!r}")


def _complete(
    params: PQParams, k: float, method: str, tol: float, a: float, t_exp: float, kt_exp: float
) -> EvalResult:
    """Shared body of K_pq and E_pq, which differ only in three exponents:
    the series (pi_pq/2) F(a, 1/q; 1/p* + 1/q; k^q) and the quadrature of
    integral_0^1 (1 - t^q)^t_exp (1 - k^q t^q)^kt_exp dt.  Both see k only
    through m = k^q, whose complement comes from ``_pow_pair``."""
    _check_modulus(k)
    m, mc = _pow_pair(k, params.q)
    if method == "auto":
        method = "series" if m <= SERIES_ARG_MAX else "quadrature"
    if method == "series":
        if m > SERIES_ARG_MAX:
            raise ValueError(f"series route requires k^q <= {SERIES_ARG_MAX}, got {m:g}")
        half = 0.5 * pi_pq(params)
        r = hyp2f1(HypSeriesSpec(a, 1.0 / params.q, 1.0 / params.p_star + 1.0 / params.q, m))
        value = half * r.value
        return EvalResult(value, half * r.abs_err + _rounding_err(value), "series")
    if method == "quadrature":
        q = params.q

        def integrand(t: float, tc: float) -> float:
            omt = _one_minus_pow(t, tc, q)
            return omt**t_exp * (mc + m * omt) ** kt_exp

        return integrate_singular(integrand, tol, complement=True)
    raise ValueError(f"unknown method {method!r}; expected auto, series, or quadrature")


def K_pq(params: PQParams, k: float, method: str = "auto", tol: float = 1e-12) -> EvalResult:
    """Complete (p, q)-elliptic integral of the first kind.

    Series route: (pi_pq/2) F(1/p*, 1/q; 1/p* + 1/q; k^q).  Quadrature route:
    integral_0^1 (1 - t^q)^(-1/p) (1 - k^q t^q)^(-1/p*) dt.  ``auto`` takes
    the series while k^q <= 0.99 and the integral beyond, where the series
    nears its logarithmic singularity.  K equals pi_pq/2 at k = 0 and grows
    without bound as k -> 1.  ``tol`` is the quadrature tolerance; the series
    keeps hyp2f1's fixed stopping rule.
    """
    inv_ps = 1.0 / params.p_star
    return _complete(params, k, method, tol, inv_ps, -1.0 / params.p, -inv_ps)


def E_pq(params: PQParams, k: float, method: str = "auto", tol: float = 1e-12) -> EvalResult:
    """Complete (p, q)-elliptic integral of the second kind.

    Series route: (pi_pq/2) F(-1/p, 1/q; 1/p* + 1/q; k^q).  Quadrature route:
    integral_0^1 ((1 - k^q t^q) / (1 - t^q))^(1/p) dt.  E equals pi_pq/2 at
    k = 0 and tends to 1 as k -> 1.  ``tol`` is as for K_pq.
    """
    inv_p = 1.0 / params.p
    return _complete(params, k, method, tol, -inv_p, -inv_p, inv_p)


def dK_dk(params: PQParams, k: float) -> float:
    """dK/dk = (E - (1 - k^q) K) / (k (1 - k^q)).

    The closed form has k in the denominator; at k = 0 the limit is 0
    provided q > 1, and the point is rejected otherwise.
    """
    _check_modulus(k)
    if k == 0.0:
        if params.q > 1.0:
            return 0.0
        raise ValueError("dK_dk at k = 0 requires q > 1")
    mc = _pow_pair(k, params.q)[1]
    return (E_pq(params, k).value - mc * K_pq(params, k).value) / (k * mc)


def dE_dk(params: PQParams, k: float) -> float:
    """dE/dk = q (E - K) / (p k); negative on (0, 1) whenever p > 0."""
    _check_modulus(k)
    if k == 0.0:
        raise ValueError("dE_dk formula is singular at k = 0")
    kc = K_pq(params, k).value
    ec = E_pq(params, k).value
    return params.q * (ec - kc) / (params.p * k)


def legendre_residual(p: float, q: float, k: float) -> float:
    """Residual of the Legendre-type relation tying (p,q) to (q,p).

    Returns  p E_{p,q}(k^{1/q}) K_{q,p}(k^{1/p})
           - q K_{p,q}(k^{1/q}) E_{q,p}(k^{1/p})
           - (p - q) pi_{p,q} pi_{q,p} / 4,
    which vanishes identically for p, q in (1, inf) and k in [0, 1).
    """
    if not (p > 1.0 and q > 1.0 and math.isfinite(p) and math.isfinite(q)):
        raise ValueError(f"the relation requires p, q in (1, inf), got ({p!r}, {q!r})")
    _check_modulus(k)
    par_pq = PQParams(p, q)
    par_qp = PQParams(q, p)
    m_q = k ** (1.0 / q)
    m_p = k ** (1.0 / p)
    bracket = p * E_pq(par_pq, m_q).value * K_pq(par_qp, m_p).value - q * K_pq(
        par_pq, m_q
    ).value * E_pq(par_qp, m_p).value
    return bracket - 0.25 * (p - q) * pi_pq(par_pq) * pi_pq(par_qp)


def moment_sin_pq(params: PQParams, n: int) -> float:
    """integral_0^{pi_pq/2} sin_pq^{q n} theta dtheta in closed form.

    Substituting t = sin_pq^q theta turns the moment into a beta integral,
    giving (pi_pq/2) (1/q)_n / (1/p* + 1/q)_n.
    """
    if n != int(n) or n < 0:
        raise ValueError(f"moment order must be a nonnegative integer, got {n!r}")
    inv_q = 1.0 / params.q
    ratio = pochhammer(inv_q, int(n)) / pochhammer(1.0 / params.p_star + inv_q, int(n))
    return 0.5 * pi_pq(params) * ratio

"""Complete (p, q)-elliptic integrals of the first and second kind.

Each integral has independent evaluation routes that serve as mutual
checks: a hypergeometric series in k^q, its connection series in 1 - k^q,
and a tanh-sinh quadrature of the t-form integral over (0, 1).  The pair
(K, E) satisfies a first-order differential system in k, and a
Legendre-type product relation ties the (p, q) and (q, p) integrals
together for p, q > 1.
"""

from __future__ import annotations

import math

from .gentrig import PQParams, pi_pq
from .numerics import (
    SERIES_ARG_MAX,
    EvalResult,
    HypSeriesSpec,
    _connection_domain,
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


def _complete(params: PQParams, k: float, method: str, tol: float, second_kind: bool) -> EvalResult:
    """Shared body of K_pq and E_pq.  Both see k only through m = k^q and
    its complement w = 1 - k^q, taken together from ``_pow_pair``.

    With a = 1/p* for K and a = -1/p for E, and c = 1/p* + 1/q:

    - ``series``: (pi_pq/2) F(a, 1/q; c; m);
    - ``connection``: K = -S_0(1/p*, 1/q; w) / q and
      E = 1 - (w / (p q)) S_1(1/p*, 1 + 1/q; w), the sums of A&S 15.3.10 for
      F(1/p*, 1/q; c; m) and of 15.3.12 for F(1/p*, 1 + 1/q; c; m), which is
      E / (w pi_pq/2) by Euler's transformation; every gamma factor cancels
      against pi_pq/2;
    - ``quadrature``: integral_0^1 (1 - t^q)^(-1/p) (1 - m t^q)^(-a) dt.

    Each domain is evaluated once; ``auto`` is the first route that admits m:
    connection (m > 1/2 and terms that do not grow), series
    (m <= SERIES_ARG_MAX), quadrature.  A named route outside raises ValueError.
    """
    _check_modulus(k)
    m, mc = _pow_pair(k, params.q)
    inv_ps, inv_q = 1.0 / params.p_star, 1.0 / params.q
    c = inv_ps + inv_q
    a = -1.0 / params.p if second_kind else inv_ps
    b_log = 1.0 + inv_q if second_kind else inv_q
    fits = m > 0.5 and _connection_domain(inv_ps, b_log, c, mc)
    domains = {"connection": fits, "series": m <= SERIES_ARG_MAX, "quadrature": True}
    if method == "auto":
        method = next(route for route, admits in domains.items() if admits)
    elif method not in domains:
        raise ValueError(f"unknown method {method!r}; expected auto, series, "
                         "connection, or quadrature")
    elif not domains[method]:
        need = f"<= {SERIES_ARG_MAX}" if method == "series" else "> 1/2 and terms that do not grow"
        raise ValueError(f"{method} route requires k^q {need}, got k^q = {m:g} "
                         f"for (p, q) = ({params.p:g}, {params.q:g})")
    if method == "series":
        half = 0.5 * pi_pq(params)
        r = hyp2f1(HypSeriesSpec(a, inv_q, c, m))
        value = half * r.value
        return EvalResult(value, half * r.abs_err + _rounding_err(value), "series")
    if method == "connection":
        # summed until the tail bound is below rounding: a few terms more
        r = hyp2f1(HypSeriesSpec(inv_ps, b_log, c, m, rel_tol=2.0**-53, arg_c=mc))
        head, scale = (1.0, -mc / (params.p * params.q)) if second_kind else (0.0, -inv_q)
        tail = scale * r.value
        value = head + tail
        err = abs(scale) * r.abs_err + _rounding_err(tail) + _rounding_err(value)
        return EvalResult(value, err, "series")
    q, t_exp = params.q, -1.0 / params.p

    def integrand(t: float, tc: float) -> float:
        omt = _one_minus_pow(t, tc, q)
        return omt**t_exp * (mc + m * omt) ** -a

    return integrate_singular(integrand, tol, complement=True)


def K_pq(params: PQParams, k: float, method: str = "auto", tol: float = 1e-12) -> EvalResult:
    """Complete (p, q)-elliptic integral of the first kind.

    Series route: (pi_pq/2) F(1/p*, 1/q; 1/p* + 1/q; k^q).  Connection route:
    -S_0(1/p*, 1/q; w) / q, the logarithmic series of A&S 15.3.10 in
    w = 1 - k^q.  Quadrature route: integral_0^1 (1 - t^q)^(-1/p)
    (1 - k^q t^q)^(-1/p*) dt.  ``auto`` takes the first route whose domain
    admits k: the connection series where w <= 1/2 and no term ratio of it
    can exceed 1, max(1/p*, 1) max(1/q, 1) w <= 1; the series for
    k^q <= 0.99; the quadrature.  A named route raises ValueError outside its
    domain and never falls back; EvalResult.method reports the connection
    route as ``series``.  K equals pi_pq/2 at k = 0 and grows without bound
    as k -> 1.  ``tol`` is the quadrature tolerance; both series keep a
    fixed stopping rule.
    """
    return _complete(params, k, method, tol, False)


def E_pq(params: PQParams, k: float, method: str = "auto", tol: float = 1e-12) -> EvalResult:
    """Complete (p, q)-elliptic integral of the second kind.

    Series route: (pi_pq/2) F(-1/p, 1/q; 1/p* + 1/q; k^q).  Connection route:
    1 - (w / (p q)) S_1(1/p*, 1 + 1/q; w), the logarithmic series of A&S
    15.3.12 in w = 1 - k^q.  Quadrature route: integral_0^1
    ((1 - k^q t^q) / (1 - t^q))^(1/p) dt.  ``auto`` and the domains are as
    for K_pq, with the connection domain max(1/p*, 1) max((1 + 1/q)/2, 1)
    w <= 1.  E equals pi_pq/2 at k = 0 and tends to 1 as k -> 1.  ``tol`` is
    as for K_pq.
    """
    return _complete(params, k, method, tol, True)


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

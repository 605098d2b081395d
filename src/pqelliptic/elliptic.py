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

from .gentrig import PQParams, _pi_pq_rel, _slope, pi_pq
from .numerics import (
    SERIES_ARG_MAX,
    EvalResult,
    HypSeriesSpec,
    _connection_domain,
    _ConnectionSpec,
    _one_minus_pow,
    _pick_route,
    _pow_pair,
    _scaled,
    _shifted,
    hyp2f1,
    integrate_singular,
)

__all__ = ["E_pq", "K_pq", "dE_dk", "dK_dk", "legendre_residual", "moment_sin_pq"]


def _check_modulus(k: float) -> None:
    if not 0.0 <= k < 1.0:
        raise ValueError(f"modulus k must lie in [0, 1), got {k!r}")


_NEED = {"connection": "> 1/2 and terms that do not grow", "series": f"<= {SERIES_ARG_MAX}"}
_QUAD_TOL = 1e-12  # tolerance of the quadrature route
# K's and E's routes in auto's order, each mapped to its independence class
_ROUTES = {"connection": "log connection", "series": "Gauss series", "quadrature": "quadrature"}


def _admits(params: PQParams, m: float, mc: float, second_kind: bool) -> tuple[bool, bool, bool]:
    """Whether each route of _ROUTES admits (m, mc) = (k^q, 1 - k^q): the
    connection series (of order 0 for K, 1 for E) where m > 1/2 and its terms
    do not grow, the series where m <= SERIES_ARG_MAX, the quadrature always."""
    order = 1 if second_kind else 0
    fits = m > 0.5 and _connection_domain(1.0 / params.p_star, 1.0 / params.q + order, order, mc)
    return fits, m <= SERIES_ARG_MAX, True


def _complete(params: PQParams, m: float, mc: float, method: str, second_kind: bool) -> EvalResult:
    """Shared body of K_pq and E_pq at m = k^q and its exact complement mc.

    With a = 1/p* for K and a = -1/p for E, and c = 1/p* + 1/q:

    - ``series``: (pi_pq/2) F(a, 1/q; c; m);
    - ``connection``: K = -S_0(1/p*, 1/q; mc) / q and
      E = 1 - (mc / (p q)) S_1(1/p*, 1 + 1/q; mc), the sums of A&S 15.3.10
      for F(1/p*, 1/q; c; m) and of 15.3.12 for F(1/p*, 1 + 1/q; c; m),
      which is E / (mc pi_pq/2) by Euler's transformation; every gamma factor
      cancels against pi_pq/2;
    - ``quadrature``: integral_0^1 (1 - t^q)^(-1/p) (mc + m (1 - t^q))^(-a) dt.

    ``_pick_route`` chooses among the routes ``_admits`` admits: ``auto`` is
    the first of connection, series and quadrature.
    """
    inv_ps, inv_q = 1.0 / params.p_star, 1.0 / params.q
    a = -1.0 / params.p if second_kind else inv_ps
    route = _pick_route(
        method,
        _ROUTES,
        _admits(params, m, mc, second_kind),
        lambda r: f"k^q {_NEED[r]}, got k^q = {m:g} for (p, q) = ({params.p:g}, {params.q:g})",
    )
    if route == "series":
        pi, pi_rel = _pi_pq_rel(params)
        return _scaled(0.5 * pi, hyp2f1(HypSeriesSpec(a, inv_q, inv_ps + inv_q, m)), pi_rel)
    if route == "connection":
        order = 1 if second_kind else 0
        r = hyp2f1(_ConnectionSpec(inv_ps, inv_q + order, order, mc))
        head, scale = (1.0, -mc / (params.p * params.q)) if second_kind else (0.0, -inv_q)
        return _shifted(head, 0.0, _scaled(scale, r))
    q, t_exp, neg_a = params.q, -1.0 / params.p, -a

    def integrand(t: float, tc: float) -> float:
        omt = _one_minus_pow(t, tc, q)
        return omt**t_exp * (mc + m * omt) ** neg_a

    return integrate_singular(integrand, _QUAD_TOL)


def K_pq(params: PQParams, k: float, method: str = "auto") -> EvalResult:
    """Complete (p, q)-elliptic integral of the first kind.

    Series route: (pi_pq/2) F(1/p*, 1/q; 1/p* + 1/q; k^q).  Connection route:
    -S_0(1/p*, 1/q; w) / q, the logarithmic series of A&S 15.3.10 in
    w = 1 - k^q.  Quadrature route: integral_0^1 (1 - t^q)^(-1/p)
    (1 - k^q t^q)^(-1/p*) dt, each given the exact pair (k^q, w).  ``auto``
    takes the first route whose domain admits the point, the one rule of
    every quantity: the connection series where w <= 1/2 and no term ratio
    of it can exceed 1, max(1/p*, 1) max(1/q, 1) w <= 1; the series for
    k^q <= 0.99; the quadrature.  A named route raises ValueError outside its
    domain and never falls back; EvalResult.method reports the connection
    route as ``series``.  K equals pi_pq/2 at k = 0 and grows without bound
    as k -> 1.  The quadrature runs to a fixed absolute tolerance of 1e-12;
    both series keep a fixed stopping rule.
    """
    _check_modulus(k)
    return _complete(params, *_pow_pair(k, params.q), method, False)


def E_pq(params: PQParams, k: float, method: str = "auto") -> EvalResult:
    """Complete (p, q)-elliptic integral of the second kind.

    Series route: (pi_pq/2) F(-1/p, 1/q; 1/p* + 1/q; k^q).  Connection route:
    1 - (w / (p q)) S_1(1/p*, 1 + 1/q; w), the logarithmic series of A&S
    15.3.12 in w = 1 - k^q.  Quadrature route: integral_0^1
    ((1 - k^q t^q) / (1 - t^q))^(1/p) dt.  The pair, the route rule and the
    domains are as for K_pq, with the connection domain
    max(1/p*, 1) max((1 + 1/q)/2, 1) w <= 1.  E equals pi_pq/2 at k = 0 and
    tends to 1 as k -> 1.  The tolerances are as for K_pq.
    """
    _check_modulus(k)
    return _complete(params, *_pow_pair(k, params.q), method, True)


def _k_and_e(params: PQParams, m: float, mc: float) -> tuple[float, float]:
    """(K, E) by ``auto`` at the pair (m, mc)."""
    return tuple(_complete(params, m, mc, "auto", e).value for e in (False, True))


_DERIV_SERIES_MAX = 1e-3  # below this k^q the derivatives take _d_series


def _d_series(params: PQParams, k: float, m: float, second_kind: bool) -> float:
    """d/dk of (pi_pq/2) F(a, b; c; k^q), a as in _complete, b = 1/q and
    c = 1/p* + 1/q, summed term by term: (pi_pq/2) q k^(q-1) (ab/c)
    F(a+1, b+1; c+1; m), m = k^q.  k^(q-1) is the square of k^((q-1)/2),
    which stays in range for every k >= 5e-324 and q > 0."""
    q, b = params.q, 1.0 / params.q
    c = 1.0 / params.p_star + b
    a = -1.0 / params.p if second_kind else 1.0 / params.p_star
    f = hyp2f1(HypSeriesSpec(a + 1.0, b + 1.0, c + 1.0, m)).value
    h = _slope(k, 0.5 * (q - 1.0))
    return 0.5 * pi_pq(params) * (q * b) * (a / c) * f * h * h


def _derivative(params: PQParams, k: float, second_kind: bool) -> float:
    """Shared body of dK_dk and dE_dk, as _complete is of K_pq and E_pq."""
    _check_modulus(k)
    m, mc = _pow_pair(k, params.q)
    if m < _DERIV_SERIES_MAX:
        value = _d_series(params, k, m, second_kind)
    else:
        kv, ev = _k_and_e(params, m, mc)
        num, den = (params.q * (ev - kv), params.p * k) if second_kind else (ev - mc * kv, k * mc)
        value = num / den if den else math.inf  # the denominator underflowed to 0
    if not math.isfinite(value):
        raise ValueError(f"the derivative leaves the double range at k = {k!r}")
    return value


def dK_dk(params: PQParams, k: float) -> float:
    """dK/dk = (E - (1 - k^q) K) / (k (1 - k^q)).  It cancels to about k^q,
    so below k^q = 1e-3 ``_d_series`` serves instead, k = 0 included: there
    the value is 0 for q > 1 and (pi_pq/2) / (1 + p*) for q = 1.  On either
    branch a value outside the doubles, k = 0 with q < 1 included, raises
    ValueError."""
    return _derivative(params, k, False)


def dE_dk(params: PQParams, k: float) -> float:
    """dE/dk = q (E - K) / (p k); negative on (0, 1) whenever p > 0.  The
    series, its k = 0 limit (-(pi_pq/2) / (2p - 1) for q = 1) and the range
    rule are as for dK_dk."""
    return _derivative(params, k, True)


def legendre_residual(p: float, q: float, k: float) -> float:
    """Residual of the Legendre-type relation tying (p,q) to (q,p).

    Returns  p E_{p,q}(k^{1/q}) K_{q,p}(k^{1/p})
           - q K_{p,q}(k^{1/q}) E_{q,p}(k^{1/p})
           - (p - q) pi_{p,q} pi_{q,p} / 4,
    which vanishes identically for p, q in (1, inf) and k in [0, 1).  All
    four integrals have m = k, so each takes the exact pair (k, 1 - k).
    """
    if not (p > 1.0 and q > 1.0 and math.isfinite(p) and math.isfinite(q)):
        raise ValueError(f"the relation requires p, q in (1, inf), got ({p!r}, {q!r})")
    _check_modulus(k)
    par_pq = PQParams(p, q)
    par_qp = PQParams(q, p)
    k_pq, e_pq = _k_and_e(par_pq, k, 1.0 - k)
    k_qp, e_qp = _k_and_e(par_qp, k, 1.0 - k)
    return p * e_pq * k_qp - q * k_pq * e_qp - 0.25 * (p - q) * pi_pq(par_pq) * pi_pq(par_qp)


_MOMENT_MAX = 2**20  # the largest order moment_sin_pq takes, a product of n factors


def moment_sin_pq(params: PQParams, n: int) -> float:
    """integral_0^{pi_pq/2} sin_pq^{q n} theta dtheta in closed form.

    Substituting t = sin_pq^q theta turns the moment into a beta integral,
    giving (pi_pq/2) (1/q)_n / (1/p* + 1/q)_n.  The two Pochhammer symbols
    overflow from n ~ 171 on, so their ratio is the running product of
    (1/q + i) / (1/p* + 1/q + i), each factor below 1.  Orders above 2**20
    raise ValueError: the product takes time linear in n.
    """
    if n != n or n in (math.inf, -math.inf) or n != int(n) or n < 0:  # int() fails on nan, inf
        raise ValueError(f"moment order must be a nonnegative integer, got {n!r}")
    if n > _MOMENT_MAX:
        raise ValueError(f"moment order must be at most 2**20 = {_MOMENT_MAX}, got {n!r}")
    inv_q, inv_ps = 1.0 / params.q, 1.0 / params.p_star
    ratio = 1.0
    for i in range(int(n)):
        ratio *= (inv_q + i) / (inv_ps + inv_q + i)
    return 0.5 * pi_pq(params) * ratio

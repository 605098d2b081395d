"""Named verification suites.

Each suite turns one identity or inequality of the library into a grid of
tolerance-checked cases and reports the residuals.  The grids are embedded
here so a full run needs no configuration; every suite finishes in seconds.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from collections.abc import Callable
from itertools import combinations

from . import elliptic, gentrig, means
from .elliptic import E_pq, K_pq, dE_dk, dK_dk, legendre_residual, moment_sin_pq
from .gentrig import PQParams, arcsin_pq, sin_pq
from .means import mean_ag, mean_kp, mean_log, mean_mp, ordering
from .numerics import HypSeriesSpec, hyp2f1, integrate_singular

__all__ = ["CaseResult", "VerifyReport", "SUITE_NAMES", "run_suite"]


class CaseResult(namedtuple("CaseResult", "name residual bound")):
    """One checked case: its residual passes at or below the bound."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        # NaN residuals must count as failures, hence the negated comparison
        return not (self.residual > self.bound or math.isnan(self.residual))


class VerifyReport(namedtuple("VerifyReport", "suite cases failures max_residual elapsed")):
    """One suite's totals: it passes with no failing case."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.failures == 0


_LEGENDRE_PAIRS = ((2, 3), (3, 2), (1.5, 4), (4, 1.5), (2.5, 2.5))


def _suite_legendre() -> list[CaseResult]:
    """Product relation between the (p,q) and (q,p) integrals."""
    cases = []
    for p, q in _LEGENDRE_PAIRS:
        for k in (0.0, 0.2, 0.5, 0.8, 0.95):
            r = abs(legendre_residual(p, q, k))
            cases.append(CaseResult(f"p={p} q={q} k={k}", r, 1e-9))
    return cases


def _suite_derivatives() -> list[CaseResult]:
    """Closed-form dK/dk and dE/dk against the series differentiated term by term.

    The series is ``elliptic._d_series``, (pi_pq/2) q k^(q-1) (ab/c) F(a+1, b+1;
    c+1; k^q) with K's and E's a; every grid point has k^q >= 1e-3, so the
    functions take their closed forms.  Relative residuals.
    """
    cases = []
    for p, q in ((2, 2), (3, 2), (2, 3)):
        par = PQParams(p, q)
        for i in range(1, 10):
            k = i / 10.0
            for name, fn, second_kind in (("dK", dK_dk, False), ("dE", dE_dk, True)):
                series = elliptic._d_series(par, k, k**q, second_kind)
                r = abs(fn(par, k) / series - 1.0)
                cases.append(CaseResult(f"{name} p={p} q={q} k={k}", r, 1e-12))
    return cases


def _log_mean_quad(x: float) -> float:
    """L(1, x) = integral_0^1 x^t dt by quadrature: independent of
    ``mean_log``'s closed form, which M_1 and K_1 return."""
    return integrate_singular(lambda t, tc: x**t, 1e-13).value


_ORDERING_PS = (0.25, 0.5, 0.75, 1.5, 2.0, 3.0, 5.0)
_ORDERING_XS = (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99)


def _suite_means_ordering() -> list[CaseResult]:
    """Sign of M_p - K_p around p = 1 (a zero gap passes), plus the p = 0, 1 anchors.

    At p = 1 both means must equal the quadrature of L."""
    cases = []
    for p in _ORDERING_PS:
        want = 1.0 if p < 1.0 else -1.0
        for x in _ORDERING_XS:
            verdict = ordering(1.0, x, p)
            # residual is how far the gap sits on the wrong side of zero
            cases.append(
                CaseResult(f"sign p={p} x={x}", max(0.0, -want * verdict.gap), 0.0)
            )
    for x in _ORDERING_XS:
        lq = _log_mean_quad(x)
        gap = max(abs(mean_mp(1.0, x, 1.0) - lq), abs(mean_kp(1.0, x, 1.0) - lq))
        cases.append(CaseResult(f"p=1 x={x}", gap, 1e-10))
    m0, k0 = mean_mp(4.0, 1.0, 0.0), mean_kp(4.0, 1.0, 0.0)
    cases.append(CaseResult("p=0 pair=(4,1)", max(0.0, k0 - m0), 0.0))
    return cases


def _suite_means_bridge() -> list[CaseResult]:
    """M_2 = AG and the identities through the logarithmic mean at p in {0, 1, 2}.

    M_1, K_1 and K_0 are checked against the quadrature of L, not against
    the closed form they return."""
    cases = []
    xs = (0.01,) + tuple(i / 10.0 for i in range(1, 10))
    for x in xs:
        r = abs(mean_mp(1.0, x, 2.0) - mean_ag(1.0, x))
        cases.append(CaseResult(f"M2=AG x={x}", r, 1e-10))
    for x in (0.1, 0.3, 0.5, 0.7, 0.9):
        lx, lq = mean_log(1.0, x), _log_mean_quad(x)
        cases.append(CaseResult(f"M1=L x={x}", abs(mean_mp(1.0, x, 1.0) - lq), 1e-12))
        cases.append(CaseResult(f"K1=L x={x}", abs(mean_kp(1.0, x, 1.0) - lq), 1e-12))
        cases.append(
            CaseResult(f"K0=x/L x={x}", abs(mean_kp(1.0, x, 0.0) - x / lq), 1e-12)
        )
        cases.append(
            CaseResult(
                f"K2=avg x={x}", abs(mean_kp(1.0, x, 2.0) - 0.5 * (1.0 + x)), 1e-12
            )
        )
        # 1/K_1(1, x) = F(1, 1; 2; 1 - x), so the product with L must be 1
        f = hyp2f1(HypSeriesSpec(1.0, 1.0, 2.0, 1.0 - x)).value
        cases.append(CaseResult(f"F*L=1 x={x}", abs(f * lx - 1.0), 1e-10))
    return cases


def _suite_moments() -> list[CaseResult]:
    """Closed-form sin_pq moments against the beta-integral quadrature."""
    cases = []
    for p, q in ((2, 2), (3, 2), (1.5, 4)):
        par = PQParams(p, q)
        inv_q, inv_p = 1.0 / q, 1.0 / p
        for n in range(6):
            expo = n + inv_q - 1.0

            def f(t: float, tc: float, expo=expo, inv_p=inv_p) -> float:
                return t**expo * tc**-inv_p

            quad = inv_q * integrate_singular(f, 1e-12).value
            r = abs(moment_sin_pq(par, n) - quad)
            cases.append(CaseResult(f"p={p} q={q} n={n}", r, 1e-9))
    return cases


# the pairs of acceptance criterion c09, p = -2 included
_TRIG_PAIRS = ((2, 2), (3, 2), (2, 3), (1.5, 4), (-2, 2))


def _suite_trig() -> list[CaseResult]:
    """sin_pq(arcsin_pq x) = x at x = 0.7 on the c09 pairs."""
    cases = []
    for p, q in _TRIG_PAIRS:
        par = PQParams(p, q)
        # the inversion stops within 1e-12 in theta, and sin_pq' <= 1.4 here
        d = abs(sin_pq(par, arcsin_pq(par, 0.7)) - 0.7)
        cases.append(CaseResult(f"roundtrip p={p} q={q} x=0.7", d, 1e-11))
    return cases


# K and E at k = 0, 0.1, ..., 0.9 and at k^q = 0.75, 0.999 and 1 - 1e-9
_ELLIPTIC_PAIRS = ((2, 2), (3, 2), (2, 3), (1.5, 4))
_ELLIPTIC_POINTS = tuple(
    (p, q, k)
    for p, q in _ELLIPTIC_PAIRS
    for k in [i / 10.0 for i in range(10)] + [m ** (1.0 / q) for m in (0.75, 0.999, 1 - 1e-9)]
)
# arcsin_pq at x^q = 0.25 and 0.45, near the edge 1/2 of the series' domain,
# and at w = 1 - x^q = 0.45 and 1e-6, in the complement's
_TRIG_POINTS = tuple(
    (p, q, x)
    for p, q in _TRIG_PAIRS
    for x in [m ** (1.0 / q) for m in (0.25, 0.45)] + [(1.0 - w) ** (1.0 / q) for w in (0.45, 1e-6)]
)
_MEANS_POINTS = tuple((p, x) for p in (0.5, 1.5, 3.0) for x in (0.2, 0.5, 0.8))

# quantity -> (route table, a point's coordinates, the bound on two routes'
# difference, the value by a route at a point, the routes suite's grid); the
# means compare reciprocals
_QUANTITIES = {
    "K": (elliptic._ROUTES, ("p", "q", "k"), 1e-10,
          lambda p, q, k, r: K_pq(PQParams(p, q), k, r).value, _ELLIPTIC_POINTS),
    "E": (elliptic._ROUTES, ("p", "q", "k"), 1e-10,
          lambda p, q, k, r: E_pq(PQParams(p, q), k, r).value, _ELLIPTIC_POINTS),
    "arcsin_pq": (gentrig._ROUTES, ("p", "q", "x"), 1e-13,
                  lambda p, q, x, r: arcsin_pq(PQParams(p, q), x, r), _TRIG_POINTS),
    "M_p": (means._MP_ROUTES, ("p", "x"), 1e-10,
            lambda p, x, r: 1.0 / mean_mp(1.0, x, p, r), _MEANS_POINTS),
    "K_p": (means._KP_ROUTES, ("p", "x"), 1e-10,
            lambda p, x, r: 1.0 / mean_kp(1.0, x, p, r), _MEANS_POINTS),
}


def _route_cases(quantity: str, points) -> list[CaseResult]:
    """Route agreement of one quantity at each point of ``points``.

    Every route the quantity's table admits at a point runs once; a named
    route outside its domain raises ValueError "<route> route requires",
    and is left out.  Each pair of routes that ran, in table order, whose
    independence classes, read from the table, differ is one case
    "<quantity> <r1>~<r2> <point>".
    A point where fewer than two classes ran is one failing case.  Points
    lie off the means' closed forms (p = 1, p <= 2^-71), which every route
    name returns.
    """
    routes, coords, bound, value, _ = _QUANTITIES[quantity]
    cases = []
    for point in points:
        label = " ".join(f"{c}={v}" for c, v in zip(coords, point))
        ran = []
        for route, cls in routes.items():
            try:
                ran.append((route, cls, value(*point, route)))
            except ValueError as err:
                if not str(err).startswith(f"{route} route requires"):
                    raise
        if len({cls for _, cls, _ in ran}) < 2:
            cases.append(CaseResult(f"{quantity} fewer than two classes {label}", math.inf, bound))
        for (r1, c1, v1), (r2, c2, v2) in combinations(ran, 2):
            if c1 != c2:
                cases.append(CaseResult(f"{quantity} {r1}~{r2} {label}", abs(v1 - v2), bound))
    return cases


def _suite_routes() -> list[CaseResult]:
    """Every pair of routes of distinct classes, for K, E, arcsin_pq, 1/M_p and 1/K_p."""
    return [c for quantity, row in _QUANTITIES.items() for c in _route_cases(quantity, row[4])]


_SUITES: dict[str, Callable[[], list[CaseResult]]] = {
    "legendre": _suite_legendre,
    "derivatives": _suite_derivatives,
    "routes": _suite_routes,
    "means-ordering": _suite_means_ordering,
    "means-bridge": _suite_means_bridge,
    "moments": _suite_moments,
    "trig": _suite_trig,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str) -> tuple[VerifyReport, list[CaseResult]]:
    """Run one named suite and return its report plus per-case records."""
    try:
        fn = _SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}") from None
    start = time.perf_counter()
    cases = fn()
    elapsed = time.perf_counter() - start
    failures = sum(1 for c in cases if not c.passed)
    max_residual = max((c.residual for c in cases), default=0.0)
    return VerifyReport(name, len(cases), failures, max_residual, elapsed), cases

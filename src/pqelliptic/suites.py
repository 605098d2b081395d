"""Named verification suites.

Each suite turns one identity or inequality of the library into a grid of
tolerance-checked cases and reports the residuals.  The grids are embedded
here so a full run needs no configuration; every suite finishes in seconds.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

from .elliptic import E_pq, K_pq, dE_dk, dK_dk, legendre_residual, moment_sin_pq
from .gentrig import PQParams, arcsin_pq, sin_pq
from .means import _mean_mp, mean_ag, mean_kp, mean_log, mean_mp, ordering, quad_transform_check
from .numerics import HypSeriesSpec, hyp2f1, integrate_singular

__all__ = ["CaseResult", "VerifyReport", "SUITE_NAMES", "run_suite"]


@dataclass(frozen=True)
class CaseResult:
    name: str
    residual: float
    bound: float

    @property
    def passed(self) -> bool:
        # NaN residuals must count as failures, hence the negated comparison
        return not (self.residual > self.bound or math.isnan(self.residual))


@dataclass(frozen=True)
class VerifyReport:
    suite: str
    cases: int
    failures: int
    max_residual: float
    elapsed: float

    @property
    def passed(self) -> bool:
        return self.failures == 0


_LEGENDRE_PAIRS = ((2, 3), (3, 2), (1.5, 4), (4, 1.5), (2.5, 2.5))
_HYPERGEO_PAIRS = ((2, 2), (3, 2), (2, 3), (1.5, 4))


def _suite_legendre() -> list[CaseResult]:
    """Product relation between the (p,q) and (q,p) integrals."""
    cases = []
    for p, q in _LEGENDRE_PAIRS:
        for k in (0.0, 0.2, 0.5, 0.8, 0.95):
            r = abs(legendre_residual(p, q, k))
            cases.append(CaseResult(f"p={p} q={q} k={k}", r, 1e-9))
    return cases


def _suite_derivatives() -> list[CaseResult]:
    """Closed-form dK/dk and dE/dk against central finite differences."""
    h = 1e-6
    cases = []
    for p, q in ((2, 2), (3, 2), (2, 3)):
        par = PQParams(p, q)
        for i in range(1, 10):
            k = i / 10.0
            fd_k = (K_pq(par, k + h).value - K_pq(par, k - h).value) / (2.0 * h)
            fd_e = (E_pq(par, k + h).value - E_pq(par, k - h).value) / (2.0 * h)
            cases.append(
                CaseResult(f"dK p={p} q={q} k={k}", abs(dK_dk(par, k) - fd_k), 1e-5)
            )
            cases.append(
                CaseResult(f"dE p={p} q={q} k={k}", abs(dE_dk(par, k) - fd_e), 1e-5)
            )
    return cases


def _suite_hypergeo() -> list[CaseResult]:
    """Series and connection series of K and E, each against quadrature.

    The series in k^q runs at k = 0, 0.1, ..., 0.9; the connection series in
    1 - k^q at k^q = 0.75, 0.999 and 1 - 1e-9.
    """
    cases = []
    for p, q in _HYPERGEO_PAIRS:
        par = PQParams(p, q)
        points = [("series", f"p={p} q={q} k={i / 10.0}", i / 10.0) for i in range(10)]
        points += [
            ("connection", f"connection p={p} q={q} k^q={mq:g}", mq ** (1.0 / q))
            for mq in (0.75, 0.999, 1 - 1e-9)
        ]
        for route, label, k in points:
            for name, fn in (("K", K_pq), ("E", E_pq)):
                d = abs(fn(par, k, route).value - fn(par, k, "quadrature").value)
                cases.append(CaseResult(f"{name} {label}", d, 1e-10))
    return cases


def _suite_quadtransform() -> list[CaseResult]:
    """Quadratic transformation at the triples of the 1/M_p and 1/K_p series."""
    cases = []
    for a, b in ((1 / 3, 1 / 3), (1.0, 1 / 3), (0.5, 0.25)):
        for x in (0.0, 0.2, 0.5, 0.8):
            r = quad_transform_check(a, b, x)
            cases.append(CaseResult(f"a={a:g} b={b:g} x={x}", r, 1e-10))
    return cases


_ORDERING_PS = (0.25, 0.5, 0.75, 1.5, 2.0, 3.0, 5.0)
_ORDERING_XS = (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99)


def _suite_means_ordering() -> list[CaseResult]:
    """Sign of M_p - K_p around p = 1 (a zero gap passes), plus the p = 0, 1 anchors."""
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
        gap = abs(mean_mp(1.0, x, 1.0) - mean_kp(1.0, x, 1.0))
        cases.append(CaseResult(f"p=1 x={x}", gap, 1e-10))
    m0, k0 = mean_mp(4.0, 1.0, 0.0), mean_kp(4.0, 1.0, 0.0)
    cases.append(CaseResult("p=0 pair=(4,1)", max(0.0, k0 - m0), 0.0))
    return cases


def _suite_means_bridge() -> list[CaseResult]:
    """M_2 = AG and the identities through the logarithmic mean at p in {0, 1, 2}."""
    cases = []
    xs = (0.01,) + tuple(i / 10.0 for i in range(1, 10))
    for x in xs:
        r = abs(mean_mp(1.0, x, 2.0) - mean_ag(1.0, x))
        cases.append(CaseResult(f"M2=AG x={x}", r, 1e-10))
    for x in (0.1, 0.3, 0.5, 0.7, 0.9):
        lx = mean_log(1.0, x)
        cases.append(CaseResult(f"M1=L x={x}", abs(mean_mp(1.0, x, 1.0) - lx), 1e-12))
        cases.append(CaseResult(f"K1=L x={x}", abs(mean_kp(1.0, x, 1.0) - lx), 1e-12))
        cases.append(
            CaseResult(f"K0=x/L x={x}", abs(mean_kp(1.0, x, 0.0) - x / lx), 1e-12)
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


def _suite_nakamura() -> list[CaseResult]:
    """The series M_p takes under auto against the half-line integral.

    A point where ``auto`` ran no series fails.
    """
    cases = []
    for p in (0.5, 1.5, 3.0):
        for x in (0.2, 0.5, 0.8):
            series = _mean_mp(1.0, x, p)
            full = abs(1.0 / series.value - 1.0 / mean_mp(1.0, x, p, "integral"))
            full = full if series.method == "series" else math.inf
            cases.append(CaseResult(f"full p={p} x={x}", full, 1e-10))
    return cases


# the pairs of acceptance criterion c09, p = -2 included
_TRIG_PAIRS = ((2, 2), (3, 2), (2, 3), (1.5, 4), (-2, 2))


def _suite_trig() -> list[CaseResult]:
    """arcsin_pq's two series against its quadrature, and sin_pq(arcsin_pq x) = x.

    The series in x^q runs at x^q = 0.25 and 0.45, near the edge 1/2 of its
    domain; the complement in w = 1 - x^q at w = 0.45 and 1e-6.  Every point
    lies in the domain of the route it names, which raises ValueError
    otherwise.
    """
    cases = []
    for p, q in _TRIG_PAIRS:
        par = PQParams(p, q)
        points = [("series", f"x^q={mq}", mq ** (1.0 / q)) for mq in (0.25, 0.45)]
        points += [("complement", f"w={w:g}", (1.0 - w) ** (1.0 / q)) for w in (0.45, 1e-6)]
        for route, label, x in points:
            d = abs(arcsin_pq(par, x, route) - arcsin_pq(par, x, "quadrature"))
            cases.append(CaseResult(f"{route} p={p} q={q} {label}", d, 1e-13))
        # the inversion stops within 1e-12 in theta, and sin_pq' <= 1.4 here
        d = abs(sin_pq(par, arcsin_pq(par, 0.7)) - 0.7)
        cases.append(CaseResult(f"roundtrip p={p} q={q} x=0.7", d, 1e-11))
    return cases


_SUITES: dict[str, Callable[[], list[CaseResult]]] = {
    "legendre": _suite_legendre,
    "derivatives": _suite_derivatives,
    "hypergeo": _suite_hypergeo,
    "quadtransform": _suite_quadtransform,
    "means-ordering": _suite_means_ordering,
    "means-bridge": _suite_means_bridge,
    "moments": _suite_moments,
    "nakamura": _suite_nakamura,
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

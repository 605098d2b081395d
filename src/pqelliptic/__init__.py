"""Generalized (p, q)-trigonometric functions, complete (p, q)-elliptic
integrals, and the interpolating mean family built on top of them, together
with the numerical kernels (hypergeometric series, singular quadrature,
monotone inversion) they share."""

from .elliptic import E_pq, K_pq, dE_dk, dK_dk, legendre_residual, moment_sin_pq
from .gentrig import PQParams, arcsin_pq, cos_pq, pi_pq, sin_pq, tan_pq
from .means import MeanOrdering, c_p, mean_ag, mean_kp, mean_log, mean_mp, ordering
from .numerics import (
    ConvergenceError,
    EvalResult,
    HypSeriesSpec,
    beta,
    digamma,
    hyp2f1,
    integrate_halfline,
    integrate_singular,
    invert_monotone,
    log_gamma,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "EvalResult",
    "E_pq",
    "HypSeriesSpec",
    "K_pq",
    "MeanOrdering",
    "PQParams",
    "arcsin_pq",
    "beta",
    "c_p",
    "cos_pq",
    "dE_dk",
    "dK_dk",
    "digamma",
    "hyp2f1",
    "integrate_halfline",
    "integrate_singular",
    "invert_monotone",
    "legendre_residual",
    "log_gamma",
    "mean_ag",
    "mean_kp",
    "mean_log",
    "mean_mp",
    "moment_sin_pq",
    "ordering",
    "pi_pq",
    "sin_pq",
    "tan_pq",
]

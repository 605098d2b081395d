"""Seeded input generators, one per workload.

A generator returns a pool of calls, each ``(fn, args)`` with plain floats,
so that the library receives nothing but the generated inputs.  Each pool is
stratified: every stratum gets a fixed number of calls and only the values
inside a stratum are drawn from the seed.  Two seeds therefore give pools of
the same shape, which keeps run-to-run spread small, while the values differ.
"""

from __future__ import annotations

import math
import random

# (p, q) pairs of the legendre, derivatives, hypergeo and moments suites
SUITE_PAIRS = ((2.0, 2.0), (3.0, 2.0), (2.0, 3.0), (1.5, 4.0), (4.0, 1.5), (2.5, 2.5))
# the pairs acceptance criterion c09 checks, p = -2 included
TRIG_PAIRS = ((2.0, 2.0), (3.0, 2.0), (2.0, 3.0), (1.5, 4.0), (-2.0, 2.0))

# k^q strata of elliptic-sweep: (low, high, share of the pool).  The middle
# stratum runs hyp2f1 for hundreds to ~2,000 terms; the top one crosses the
# 0.99 switch to quadrature.
KQ_STRATA = ((0.0, 0.9, 0.40), (0.9, 0.99, 0.45), (0.99, 0.999, 0.15))

# Every pool has at least 1,000 points, each asked for one function in turn,
# so that at least ten independent points lie beyond the p99 latency.  The
# trig pool is twice that: its tail is the widest, and with 1,020 points the
# p99 of its integrand evaluation counts alone spread by 9 % over ten seeds
# (4 % with 2,040).
ELLIPTIC_POOL = 1000
TRIG_POOL = 2040
TRIG_FNS = ("sin_pq", "cos_pq", "tan_pq")
# means-mix (p, x) grids, (p cells, p max, x cells, x min).  The second grid,
# a tenth of the points, is ROADMAP item 4's domain, where the known
# ZeroDivisionError shows.
MEANS_GRID = (51, 10.0, 18, 1e-6)
MEANS_WIDE_GRID = (18, 200.0, 6, 1e-300)
MEANS_FNS = ("mean_mp", "mean_kp", "ordering")

WORKLOADS = ("elliptic-sweep", "trig-inverse", "means-mix", "cli-batch")


def _strata(rng: random.Random, n: int, low: float, high: float) -> list[float]:
    """n draws from [low, high], one in each of n equal bins, shuffled."""
    width = (high - low) / n
    out = [low + (j + rng.random()) * width for j in range(n)]
    rng.shuffle(out)
    return out


def _wide_pqs(rng: random.Random, n: int) -> list[tuple[float, float]]:
    """n pairs from the admissible domain of ROADMAP item 4: p in
    (-50, -0.01) for half of them and (1.001, 50) for the other half, q in
    (0.05, 50), stratified along each axis."""
    half = n // 2
    ps = _strata(rng, half, -50.0, -0.01) + _strata(rng, n - half, 1.001, 50.0)
    return list(zip(ps, _strata(rng, n, 0.05, 50.0)))


def _pairs(rng: random.Random, n: int, fixed: tuple) -> list[tuple[float, float]]:
    """n (p, q) pairs: half the fixed pairs in turn, half from the wide domain."""
    wide = _wide_pqs(rng, n // 2)
    tame = [fixed[j % len(fixed)] for j in range(n - len(wide))]
    return tame + wide


def elliptic_sweep(seed: int) -> list[tuple[str, tuple]]:
    rng = random.Random(seed)
    calls = []
    for low, high, share in KQ_STRATA:
        n = round(share * ELLIPTIC_POOL)
        points = zip(_pairs(rng, n, SUITE_PAIRS), _strata(rng, n, low, high))
        for j, ((p, q), kq) in enumerate(points):
            # alternate K and E so that every fixed pair gets both
            fn = ("K_pq", "E_pq")[(j + j // len(SUITE_PAIRS)) % 2]
            calls.append((fn, (p, q, kq ** (1.0 / q))))
    rng.shuffle(calls)
    return calls


def trig_inverse(seed: int) -> list[tuple[str, tuple]]:
    rng = random.Random(seed)
    calls = []
    points = zip(_pairs(rng, TRIG_POOL, TRIG_PAIRS), _strata(rng, TRIG_POOL, 0.0, 1.0))
    for i, ((p, q), frac) in enumerate(points):
        # theta as a share of pi_pq/2 = B(1/p*, 1/q)/q, formed with math.lgamma
        a, b = (p - 1.0) / p, 1.0 / q
        half = math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)) / q
        calls.append((TRIG_FNS[i % 3], (p, q, frac * half)))
    rng.shuffle(calls)
    return calls


def _grid(rng: random.Random, n_p: int, p_max: float, n_x: int, x_min: float) -> list:
    """One (p, x) point in each cell of an n_p by n_x grid over p in
    (0, p_max] and log x in [log x_min, 0]."""
    log_min = math.log(x_min)
    points = []
    for i in range(n_p):
        for j in range(n_x):
            p = p_max * (i + 1.0 - rng.random()) / n_p  # (0, p_max], never 0
            x = math.exp(log_min * (j + rng.random()) / n_x)
            points.append((p, x))
    return points


def means_mix(seed: int) -> list[tuple[str, tuple]]:
    rng = random.Random(seed)
    calls = []
    for grid in (MEANS_GRID, MEANS_WIDE_GRID):
        n_x = grid[2]
        for i, (p, x) in enumerate(_grid(rng, *grid)):
            pair = (1.0, x) if rng.random() < 0.5 else (x, 1.0)
            # a Latin square over the grid: each row and column gets every function
            calls.append((MEANS_FNS[(i // n_x + i % n_x) % 3], (*pair, p)))
    rng.shuffle(calls)
    return calls


def cli_params(seed: int) -> dict:
    """The CLI commands' arguments: one pair of the suites, an eval point,
    and a 2,000-row k grid that stays below the 0.99 series limit."""
    rng = random.Random(seed)
    p, q = SUITE_PAIRS[rng.randrange(len(SUITE_PAIRS))]
    return {
        "p": p,
        "q": q,
        "k_eval": round(rng.uniform(0.05, 0.95), 6),
        "k_max": round(rng.uniform(0.5, 0.95), 6),
        "rows": 2000,
    }


GENERATORS = {
    "elliptic-sweep": elliptic_sweep,
    "trig-inverse": trig_inverse,
    "means-mix": means_mix,
}

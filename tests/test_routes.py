"""Route contract: a named route runs only itself.

Every call with a named method either raises ValueError, whose message
starts with the route's name, or returns the kind of its own route:
``hyp_*`` gives ``series``, ``integral`` gives ``quadrature``.  ``auto``
returns, bit for bit, what the route it chose returns.
"""

import math

import pytest

from pqelliptic.elliptic import E_pq, K_pq
from pqelliptic.gentrig import PQParams
from pqelliptic.means import _mean_kp, _mean_mp, mean_mp

CHAIN_PS = (0.25, 0.5, 0.75, 1.5, 2.0, 3.0, 5.0)
CHAIN_XS = (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99)
SUITE_PAIRS = ((2, 2), (3, 2), (2, 3), (1.5, 4))
ELLIPTIC_KQ = (0.3, 0.75, 0.995, 1 - 1e-9)

# method -> the kind of route it runs; M_p's elliptic route runs whichever
# route K_pq's auto takes
KIND = {
    "hyp_base": {"series"},
    "hyp_quad": {"series"},
    "integral": {"quadrature"},
    "elliptic": {"series", "quadrature"},
    "closed": {"closed_form"},
    "series": {"series"},
    "connection": {"series"},
    "quadrature": {"quadrature"},
}


def _named(fn, method, *args):
    """fn(*args, method) checked against the contract; None where it raised."""
    try:
        r = fn(*args, method)
    except ValueError as err:
        if method in ("elliptic", "closed", "quadrature", "integral"):
            raise  # these routes have no domain of their own on these grids
        assert str(err).startswith(f"{method} route"), (method, args, err)
        return None
    assert r.method in KIND[method], (method, args, r)
    return r


@pytest.mark.parametrize(
    "fn, methods, auto_rows",
    [
        (_mean_mp, ("elliptic", "hyp_base", "hyp_quad", "integral"), ("hyp_base", "hyp_quad", "integral")),
        (_mean_kp, ("closed", "integral", "hyp_base", "hyp_quad"), None),
    ],
    ids=["mean_mp", "mean_kp"],
)
def test_mean_routes_run_only_themselves(fn, methods, auto_rows):
    raised = 0
    for p in CHAIN_PS:
        for x in CHAIN_XS:
            results = {m: _named(fn, m, 1.0, x, p) for m in methods}
            raised += sum(r is None for r in results.values())
            if auto_rows:
                # auto is hyp_base up to 1 - x^p = 0.9, then the first row that runs
                z = -math.expm1(p * math.log(x))
                rows = auto_rows if z <= 0.9 else auto_rows[1:]
                chosen = next(results[m] for m in rows if results[m] is not None)
                assert fn(1.0, x, p, "auto") == chosen, (p, x)
    assert raised > 0  # the grid reaches past 0.99, so some named route refused


def test_nakamura_is_not_a_method():
    with pytest.raises(ValueError, match="unknown method 'nakamura'"):
        mean_mp(1.0, 0.5, 3.0, "nakamura")


@pytest.mark.parametrize("fn", [K_pq, E_pq], ids=["K", "E"])
def test_elliptic_routes_run_only_themselves(fn):
    raised = 0
    for p, q in SUITE_PAIRS:
        par = PQParams(p, q)
        for kq in ELLIPTIC_KQ:
            k = kq ** (1.0 / q)
            results = {m: _named(fn, m, par, k) for m in ("connection", "series", "quadrature")}
            raised += sum(r is None for r in results.values())
            # auto is the first of (connection, series, quadrature) that runs
            chosen = next(r for r in results.values() if r is not None)
            assert fn(par, k) == chosen, (p, q, kq)
    assert raised > 0

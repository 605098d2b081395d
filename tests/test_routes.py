"""Route contract: a named route runs only itself.

Every call with a named method either raises ValueError, whose message
starts with the route's name, or returns the kind of its own route:
``hyp_*`` gives ``series``, ``integral`` gives ``quadrature``.  ``auto``
returns, bit for bit, what the route it chose returns.
"""

import pytest

from pqelliptic.elliptic import E_pq, K_pq
from pqelliptic.gentrig import PQParams
from pqelliptic.means import _mean_kp, _mean_mp, mean_mp
from pqelliptic.suites import _HYPERGEO_PAIRS, _ORDERING_PS, _ORDERING_XS

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
        (_mean_mp, ("elliptic", "hyp_base", "hyp_quad", "integral"),
         ("hyp_quad", "hyp_base", "integral")),
        (_mean_kp, ("closed", "integral", "hyp_base", "hyp_quad"), None),
    ],
    ids=["mean_mp", "mean_kp"],
)
def test_mean_routes_run_only_themselves(fn, methods, auto_rows):
    raised = 0
    for p in _ORDERING_PS:
        for x in _ORDERING_XS:
            results = {m: _named(fn, m, 1.0, x, p) for m in methods}
            raised += sum(r is None for r in results.values())
            if auto_rows:
                # auto is the first of (hyp_quad, hyp_base, integral) that runs,
                # the rule K and E follow
                chosen = next(results[m] for m in auto_rows if results[m] is not None)
                assert fn(1.0, x, p, "auto") == chosen, (p, x)
    assert raised > 0  # the grid reaches past 0.99, so some named route refused


@pytest.mark.parametrize(
    "args, name",
    [((1.0, 1.0, 2.0), "bogus"), ((1.0, 0.5, 0.0), "bogus"), ((1.0, 0.5, 2.0), "bogus"),
     ((1.0, 0.5, 3.0), "nakamura")],  # the product-form series is no route of its own
    ids=["equal-pair", "p0", "series", "nakamura"],
)
def test_unknown_names_raise_on_every_path(args, name):
    # the closed-form shortcuts still check the name; K_p has no auto
    with pytest.raises(ValueError, match=f"unknown method '{name}'"):
        mean_mp(*args, name)
    with pytest.raises(ValueError, match="unknown method 'auto'"):
        _mean_kp(*args, "auto")


@pytest.mark.parametrize("fn", [K_pq, E_pq], ids=["K", "E"])
def test_elliptic_routes_run_only_themselves(fn):
    raised = 0
    for p, q in _HYPERGEO_PAIRS:
        par = PQParams(p, q)
        for kq in ELLIPTIC_KQ:
            k = kq ** (1.0 / q)
            results = {m: _named(fn, m, par, k) for m in ("connection", "series", "quadrature")}
            raised += sum(r is None for r in results.values())
            # auto is the first of (connection, series, quadrature) that runs
            chosen = next(r for r in results.values() if r is not None)
            assert fn(par, k) == chosen, (p, q, kq)
    assert raised > 0

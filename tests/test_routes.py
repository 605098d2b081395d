"""Route contract: a named route runs only itself, and the route tables say
which routes there are and which of them check each other.

Every call with a named method either raises ValueError, whose message
starts with the route's name, or returns the kind of its own route:
``hyp_*`` gives ``series``, ``integral`` gives ``quadrature``.  ``auto``
returns, bit for bit, what the route it chose returns.  The picker accepts
exactly the names of a quantity's table, and a named route raises where the
table's admission says no.  The ``routes`` cases pair routes of distinct
independence classes only.
"""

import sys

import pytest

from pqelliptic import elliptic, gentrig, means
from pqelliptic.elliptic import E_pq, K_pq
from pqelliptic.gentrig import PQParams, arcsin_pq
from pqelliptic.means import _mean_kp, _mean_mp, mean_kp, mean_mp
from pqelliptic.numerics import _connection_domain, _pow_pair
from pqelliptic.suites import (
    _ELLIPTIC_PAIRS,
    _ELLIPTIC_POINTS,
    _MEANS_POINTS,
    _ORDERING_PS,
    _ORDERING_XS,
    _QUANTITIES,
    _TRIG_POINTS,
    _route_cases,
)

ELLIPTIC_KQ = (0.3, 0.75, 0.995, 1 - 1e-9)
C05_GRID = [(p, x) for p in _ORDERING_PS for x in _ORDERING_XS]

# method -> the kind of route it runs; M_p's elliptic route sums K's log
# connection
KIND = {
    "hyp_base": {"series"},
    "hyp_quad": {"series"},
    "integral": {"quadrature"},
    "elliptic": {"series"},
    "closed": {"closed_form"},
    "series": {"series"},
    "connection": {"series"},
    "complement": {"series"},
    "quadrature": {"quadrature"},
}


def _named(fn, method, *args):
    """fn(*args, method) checked against the contract; None where it raised."""
    try:
        r = fn(*args, method)
    except ValueError as err:
        if method in ("closed", "quadrature", "integral"):
            raise  # these routes have no domain of their own on these grids
        assert str(err).startswith(f"{method} route requires"), (method, args, err)
        return None
    assert r.method in KIND[method], (method, args, r)
    return r


@pytest.mark.parametrize(
    "fn, routes",
    [(_mean_mp, means._MP_ROUTES), (_mean_kp, means._KP_ROUTES)],
    ids=["mean_mp", "mean_kp"],
)
def test_mean_routes_run_only_themselves(fn, routes):
    raised = 0
    for p, x in C05_GRID:
        results = {m: _named(fn, m, 1.0, x, p) for m in routes}
        raised += sum(r is None for r in results.values())
        # a series route raises exactly where its argument, 1 - x^p for
        # hyp_base and its quadratic transform for hyp_quad, exceeds 0.99;
        # elliptic where x^p is not normal or its connection sum's terms grow
        xp, z = _pow_pair(x, p)
        refused = {
            "hyp_base": z > 0.99,
            "hyp_quad": (z / (2.0 - z)) ** 2 > 0.99,
            "elliptic": not (xp >= sys.float_info.min and _connection_domain(1 / p, 1 / p, 0, xp)),
        }
        for m, r in results.items():
            assert (r is None) == refused.get(m, False), (m, p, x)
        if fn is _mean_mp:
            # auto is the first route of the table that runs, the rule K and E follow
            chosen = next(r for r in results.values() if r is not None)
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
    for p, q in _ELLIPTIC_PAIRS:
        par = PQParams(p, q)
        for kq in ELLIPTIC_KQ:
            k = kq ** (1.0 / q)
            results = {m: _named(fn, m, par, k) for m in elliptic._ROUTES}
            raised += sum(r is None for r in results.values())
            # a named route raises exactly where the table's admission says no
            admits = elliptic._admits(par, *_pow_pair(k, q), fn is E_pq)
            assert tuple(r is not None for r in results.values()) == admits, (p, q, kq)
            # auto is the first of (connection, series, quadrature) that runs
            chosen = next(r for r in results.values() if r is not None)
            assert fn(par, k) == chosen, (p, q, kq)
    assert raised > 0


# quantity -> a call at one point by a method, and the names before the table's
PICKERS = {
    "K": (lambda m: K_pq(PQParams(2, 2), 0.5, m), ("auto",)),
    "E": (lambda m: E_pq(PQParams(2, 2), 0.5, m), ("auto",)),
    "arcsin_pq": (lambda m: arcsin_pq(PQParams(2, 2), 0.5, m), ("auto",)),
    "M_p": (lambda m: mean_mp(1.0, 0.5, 3.0, m), ("auto",)),
    "K_p": (lambda m: mean_kp(1.0, 0.5, 3.0, m), ()),
}


@pytest.mark.parametrize("quantity", PICKERS)
def test_picker_accepts_exactly_the_table_keys(quantity):
    call, extra = PICKERS[quantity]
    routes = _QUANTITIES[quantity][0]
    with pytest.raises(ValueError) as err:
        call("bogus")
    assert str(err.value) == f"unknown method 'bogus'; expected one of {(*extra, *routes)}"
    for route in routes:
        try:
            call(route)
        except ValueError as e:
            assert str(e).startswith(f"{route} route requires"), (route, e)


def test_arcsin_series_routes_raise_outside_their_domains():
    # the series admits m = x^q <= 1/2 with max(|1/p|, 1) m <= 1; the
    # complement at most w = 1 - x^q <= 1/2, less where its tail test fails
    for p, q, x in _TRIG_POINTS:
        par = PQParams(p, q)
        m, w = _pow_pair(x, q)
        results = {r: _named(gentrig._arcsin, r, par, x) for r in gentrig._ROUTES}
        assert (results["series"] is not None) == (m <= 0.5 and max(abs(1.0 / p), 1.0) * m <= 1.0)
        assert results["complement"] is None or w <= 0.5, (p, q, x)
        # auto is the first of (series, complement, quadrature) that runs
        chosen = next(r for r in results.values() if r is not None)
        assert gentrig._arcsin(par, x) == chosen, (p, q, x)


@pytest.mark.parametrize(
    "quantity, points",
    [("K", _ELLIPTIC_POINTS), ("E", _ELLIPTIC_POINTS), ("arcsin_pq", _TRIG_POINTS),
     ("M_p", _MEANS_POINTS), ("K_p", _MEANS_POINTS), ("M_p", C05_GRID), ("K_p", C05_GRID)],
    ids=["K", "E", "arcsin_pq", "M_p", "K_p", "M_p-c05", "K_p-c05"],
)
def test_route_cases_pair_distinct_classes(quantity, points):
    routes = _QUANTITIES[quantity][0]
    for point in points:
        cases = _route_cases(quantity, [point])
        assert cases, point
        for c in cases:
            r1, r2 = c.name.split(" ")[1].split("~")
            assert routes[r1] != routes[r2], c.name


def test_every_route_has_one_class():
    # the generator reads each route's class from its table
    for quantity, (routes, *_) in _QUANTITIES.items():
        assert all(isinstance(cls, str) and cls for cls in routes.values()), quantity
    assert means._MP_ROUTES["elliptic"] == "log connection"


def test_elliptic_meets_hyp_base_only_at_log_connection_points():
    # M_p's elliptic route is K_{p*,p}'s log connection, so it is compared
    # with hyp_base wherever both run: the connection domain and 1 - x^p <= 0.99
    met = {
        tuple(float(v.split("=")[1]) for v in c.name.split(" ")[2:])
        for c in _route_cases("M_p", C05_GRID)
        if c.name.startswith("M_p hyp_base~elliptic ")
    }
    log_points = set()
    for p, x in C05_GRID:
        xp, z = _pow_pair(x, p)
        if _connection_domain(1 / p, 1 / p, 0, xp) and z <= 0.99:
            log_points.add((p, x))
    assert met == log_points and len(met) == 17


def test_route_cases_fail_a_point_where_fewer_than_two_classes_run(monkeypatch):
    # M_p's elliptic route refuses x^p = 0.81 > 1/2, leaving hyp_quad alone
    _, coords, bound, value, points = _QUANTITIES["M_p"]
    routes = {r: means._MP_ROUTES[r] for r in ("hyp_quad", "elliptic")}
    monkeypatch.setitem(_QUANTITIES, "M_p", (routes, coords, bound, value, points))
    [case] = _route_cases("M_p", [(2.0, 0.9)])
    assert case.name == "M_p fewer than two classes p=2.0 x=0.9"
    assert not case.passed


def test_route_cases_reraise_what_is_not_a_route_refusal():
    # c_p = p / B(1/p, 1/p) overflows inside the integral route
    with pytest.raises(ValueError, match="^c_p overflows at p = 0.0018"):
        _route_cases("M_p", [(1.8e-3, 0.1)])

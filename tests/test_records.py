"""The seven record types are named tuples: repr text, equality and hashes as
the former frozen dataclasses had them, immutability, pickle and copy round
trips, and construction that validates on every way in, ``_replace``
included."""

import copy
import math
import pickle

import pytest

from pqelliptic.gentrig import PQParams
from pqelliptic.means import MeanOrdering
from pqelliptic.numerics import EvalResult, HypSeriesSpec, _ConnectionSpec
from pqelliptic.suites import CaseResult, VerifyReport

# a builder of one instance of each type, with the instance's repr
RECORDS = [
    (lambda: EvalResult(1.5, 2e-16, "series"),
     "EvalResult(value=1.5, abs_err=2e-16, method='series')"),
    (lambda: HypSeriesSpec(0.5, 0.5, 1.0, 0.25),
     "HypSeriesSpec(a=0.5, b=0.5, c=1.0, arg=0.25, rel_tol=1e-14)"),
    (lambda: _ConnectionSpec(1.0, 1.5, 0, 0.25),
     "_ConnectionSpec(a=1.0, b=1.5, m=0, w=0.25)"),
    (lambda: PQParams(2, 3), "PQParams(p=2, q=3, p_star=2.0)"),
    (lambda: MeanOrdering("Mp_greater", 0.5, 1.0, 0.3, 0.01),
     "MeanOrdering(verdict='Mp_greater', p=0.5, a=1.0, b=0.3, gap=0.01)"),
    (lambda: CaseResult("p=2 q=3 k=0.5", 1e-15, 1e-09),
     "CaseResult(name='p=2 q=3 k=0.5', residual=1e-15, bound=1e-09)"),
    (lambda: VerifyReport("legendre", 25, 0, 1.3e-14, 0.01),
     "VerifyReport(suite='legendre', cases=25, failures=0, max_residual=1.3e-14, elapsed=0.01)"),
]
IDS = [text.split("(")[0] for _, text in RECORDS]


@pytest.mark.parametrize("make, text", RECORDS, ids=IDS)
def test_repr_equality_and_hash(make, text):
    r = make()
    assert repr(r) == text
    assert r == make() and r is not make()
    assert not r != make()
    fields = tuple(getattr(r, name) for name in r._fields)
    # the frozen dataclasses hashed the tuple of their fields
    assert hash(r) == hash(fields)
    # a named tuple equals the plain tuple of its fields
    assert r == fields


@pytest.mark.parametrize("make, text", RECORDS, ids=IDS)
def test_fields_and_attributes_cannot_be_set(make, text):
    r = make()
    with pytest.raises(AttributeError):
        setattr(r, r._fields[0], r[0])
    with pytest.raises(AttributeError):
        r.extra = 1.0
    assert not hasattr(r, "__dict__")


@pytest.mark.parametrize("make, text", RECORDS, ids=IDS)
def test_pickle_and_copy_round_trips(make, text):
    r = make()
    copies = [pickle.loads(pickle.dumps(r, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(r), copy.deepcopy(r)]
    for c in copies:
        assert type(c) is type(r)
        assert c == r
        assert repr(c) == text


def test_pq_params_builds_from_the_pair_alone():
    assert PQParams(2, 3).__getnewargs__() == (2, 3)
    assert PQParams(q=2.0, p=-1.0).p_star == 0.5
    assert PQParams(2, 2)._replace(p=3).p_star == 1.5
    assert PQParams._make((3, 2, 99.0)) == PQParams(3, 2)
    with pytest.raises(TypeError):
        PQParams(2, 3, 2.0)


def test_hyp_series_spec_default_tolerance():
    assert HypSeriesSpec(1.0, 1.0, 2.0, 0.5) == HypSeriesSpec(1.0, 1.0, 2.0, 0.5, 1e-14)
    assert HypSeriesSpec(1.0, 1.0, 2.0, 0.5)._replace(rel_tol=1e-8).rel_tol == 1e-8


def _raises(build):
    with pytest.raises(ValueError) as exc:
        build()
    return str(exc.value)


# (a valid record, a field, a value the constructor refuses, that refused call)
INVALID = [
    (EvalResult(1.0, 0.0, "series"), "value", math.inf,
     lambda: EvalResult(math.inf, 0.0, "series")),
    (EvalResult(1.0, 0.0, "series"), "abs_err", -1.0,
     lambda: EvalResult(1.0, -1.0, "series")),
    (HypSeriesSpec(0.5, 0.5, 1.0, 0.25), "arg", 1.0,
     lambda: HypSeriesSpec(0.5, 0.5, 1.0, 1.0)),
    (HypSeriesSpec(0.5, 0.5, 1.0, 0.25), "c", -2.0,
     lambda: HypSeriesSpec(0.5, 0.5, -2.0, 0.25)),
    (HypSeriesSpec(0.5, 0.5, 1.0, 0.25), "rel_tol", 0.0,
     lambda: HypSeriesSpec(0.5, 0.5, 1.0, 0.25, 0.0)),
    (PQParams(2, 3), "p", 0.5, lambda: PQParams(0.5, 3)),
    (PQParams(2, 3), "q", 0.0, lambda: PQParams(2, 0.0)),
]


@pytest.mark.parametrize("good, name, bad, refused", INVALID,
                         ids=[f"{type(g).__name__}.{n}" for g, n, _, _ in INVALID])
def test_every_way_in_validates(good, name, bad, refused):
    message = _raises(refused)
    assert _raises(lambda: good._replace(**{name: bad})) == message
    fields = [bad if f == name else getattr(good, f) for f in good._fields]
    assert _raises(lambda: type(good)._make(fields)) == message

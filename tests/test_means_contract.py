"""The exception half of the public contract for the means, as a property:
every call returns a finite float or raises ValueError or ConvergenceError.

Hypothesis runs derandomized with a fixed example budget, so the examples
are the same on every run.  The pair is (s, s x) in either order, with x
log-uniform down to the least subnormal and s a scale factor; p covers
[0, 200] for M_p and ordering and [-50, 200] for K_p, with bands of p near 0
(and near 1 for K_p).
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from pqelliptic import ConvergenceError  # noqa: E402
from pqelliptic.means import mean_kp, mean_mp, ordering  # noqa: E402

# Hypothesis's failure report imports a module that warns on import; ignore
# that one warning so a failing example is reported instead of an internal error
pytestmark = pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict:DeprecationWarning")

MP_METHODS = ("auto", "elliptic", "hyp_base", "hyp_quad", "integral")
KP_METHODS = ("closed", "integral", "hyp_base", "hyp_quad")

_SETTINGS = hypothesis.settings(derandomize=True, database=None, max_examples=300, deadline=None)


_WEYL = 0x9E3779B97F  # about 2^40 / golden ratio, odd


def _uniform(lo, hi):
    """Floats spread over [lo, hi].  st.floats and st.integers both favour a
    few small or special values, so a golden-ratio step spreads the integer."""
    return st.integers(0, 2**40).map(lambda n: lo + (hi - lo) * (n * _WEYL % 2**40 / 2**40))


# x = e^-u, log-uniform over the positive doubles up to 1
_X = _uniform(0.0, 744.5).map(lambda u: max(math.exp(-u), 5e-324))
_SCALE = st.sampled_from((1.0, 3.0, 1e-300, 1e300))
_TINY_P = _uniform(0.0, 1e-6)


def _pair(x, scale, swap):
    a, b = scale, scale * x
    return (b, a) if swap else (a, b)


def _keeps_contract(call):
    """A finite float, or ValueError/ConvergenceError; anything else fails."""
    try:
        v = call()
    except (ValueError, ConvergenceError):
        return
    assert math.isfinite(v)


@_SETTINGS
@hypothesis.given(
    x=_X, p=st.one_of(_uniform(0.0, 200.0), _TINY_P), scale=_SCALE, swap=st.booleans()
)
def test_mean_mp_and_ordering_keep_the_contract(x, p, scale, swap):
    a, b = _pair(x, scale, swap)
    for method in MP_METHODS:
        _keeps_contract(lambda: mean_mp(a, b, p, method))
    _keeps_contract(lambda: ordering(a, b, p).gap)


@_SETTINGS
@hypothesis.given(
    x=_X, p=st.one_of(_uniform(-50.0, 200.0), _TINY_P, _TINY_P.map(lambda d: 1.0 + d)),
    scale=_SCALE, swap=st.booleans(),
)
def test_mean_kp_keeps_the_contract(x, p, scale, swap):
    a, b = _pair(x, scale, swap)
    for method in KP_METHODS:
        _keeps_contract(lambda: mean_kp(a, b, p, method))

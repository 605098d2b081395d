"""The exception half of the public contract for K_pq, E_pq, their
derivatives, arcsin_pq and the trig functions, as a property: every call
returns a finite float or raises ValueError or ConvergenceError.  Every
sin_pq value also meets the inversion's stopping rule,
|arcsin_pq(s) - theta| <= max(1e-12 min(1, theta), ulp(theta)).

Hypothesis runs derandomized with a fixed example budget, so the examples
are the same on every run.  p covers (-50, -0.01) u (1.001, 50), with a band
of p in (1.001, 1.3), and q covers (0.05, 50), with a band of q in
(1e-3, 0.05), where cos_pq underflows while sin_pq < 1.  k^q, x and theta
spread over their whole ranges, with bands near both ends; theta reaches
down to 1e-300, and the derivatives' k has a band in [5e-324, 1e-300].
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from pqelliptic import ConvergenceError, E_pq, K_pq, dE_dk, dK_dk  # noqa: E402
from pqelliptic.gentrig import PQParams, arcsin_pq, cos_pq, pi_pq, sin_pq, tan_pq  # noqa: E402

# Hypothesis's failure report imports a module that warns on import; ignore
# that one warning so a failing example is reported instead of an internal error
pytestmark = pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict:DeprecationWarning")

KE_METHODS = ("auto", "connection", "series", "quadrature")
ARCSIN_METHODS = ("auto", "series", "complement", "quadrature")

_SETTINGS = hypothesis.settings(derandomize=True, database=None, max_examples=300, deadline=None)


_WEYL = 0x9E3779B97F  # about 2^40 / golden ratio, odd


def _uniform(lo, hi):
    """Floats spread over [lo, hi].  st.floats and st.integers both favour a
    few small or special values, so a golden-ratio step spreads the integer."""
    return st.integers(0, 2**40).map(lambda n: lo + (hi - lo) * (n * _WEYL % 2**40 / 2**40))


_P = st.one_of(_uniform(-50.0, -0.01), _uniform(1.001, 50.0), _uniform(1.001, 1.3))
_Q = st.one_of(_uniform(0.05, 50.0), _uniform(1e-3, 0.05))
# a share of [0, 1]: spread over it, or 10^-u from 0 (0 itself past 1e-324)
# or from 1 (1 itself past 1e-16)
_SHARE = st.one_of(
    _uniform(0.0, 1.0),
    _uniform(0.0, 330.0).map(lambda u: 10.0**-u),
    _uniform(0.0, 17.0).map(lambda u: 1.0 - 10.0**-u),
)


def _keeps_contract(call):
    """A finite float, or ValueError/ConvergenceError; anything else fails.
    Returns the value, or None where the call raised."""
    try:
        v = call()
    except (ValueError, ConvergenceError):
        return None
    assert math.isfinite(v)
    return v


@_SETTINGS
@hypothesis.given(p=_P, q=_Q, kq=_SHARE)
def test_complete_integrals_keep_the_contract(p, q, kq):
    params = PQParams(p, q)
    k = min(kq ** (1.0 / q), math.nextafter(1.0, 0.0))
    for fn in (K_pq, E_pq):
        for method in KE_METHODS:
            _keeps_contract(lambda: fn(params, k, method).value)


@_SETTINGS
@hypothesis.given(p=_P, q=_Q, kq=_SHARE, tiny=st.booleans(), u=_uniform(300.0, 323.3))
def test_derivatives_keep_the_contract(p, q, kq, tiny, u):
    params = PQParams(p, q)
    # k from k^q, or subnormal, where k (1 - k^q) and p k can underflow to 0
    k = 10.0**-u if tiny else min(kq ** (1.0 / q), math.nextafter(1.0, 0.0))
    for fn in (dK_dk, dE_dk):
        _keeps_contract(lambda: fn(params, k))


@_SETTINGS
@hypothesis.given(p=_P, q=_Q, x=_SHARE)
def test_arcsin_keeps_the_contract(p, q, x):
    params = PQParams(p, q)
    for method in ARCSIN_METHODS:
        _keeps_contract(lambda: arcsin_pq(params, x, method))


@_SETTINGS
@hypothesis.given(p=_P, q=_Q, share=_SHARE, tiny=st.booleans())
def test_trig_keeps_the_contract_and_sin_meets_its_residual(p, q, share, tiny):
    params = PQParams(p, q)
    half = 0.5 * pi_pq(params)
    # theta as a share of pi_pq/2, or absolute down to 1e-300
    theta = min(half, share) if tiny else share * half
    for fn in (cos_pq, tan_pq):
        _keeps_contract(lambda: fn(params, theta))
    s = _keeps_contract(lambda: sin_pq(params, theta))
    if s is not None:
        tol = max(1e-12 * min(1.0, theta), math.ulp(theta))
        assert abs(arcsin_pq(params, s) - theta) <= tol, (s, theta)

"""Public contract: the exception types the library raises, and its option
surface.

No quadrature route or constant raises OverflowError or ZeroDivisionError:
where the arithmetic below overflows or divides by zero, the call raises
ValueError.  The surface pin lists the parameter names of every public callable and the
options each ``--fn`` forwards, so that a new knob fails here until the pin
is edited on purpose.
"""

import inspect

import pytest

import pqelliptic
from pqelliptic import K_pq, PQParams, arcsin_pq, c_p, mean_mp
from pqelliptic.cli import _FNS


@pytest.mark.parametrize(
    "call",
    (
        # the integrand overflows at the denormal nodes next to t = 1
        lambda: arcsin_pq(PQParams(1.001, 3), 1.0, "quadrature"),
        lambda: K_pq(PQParams(1.01, 0.5), 0.99, "quadrature"),
        # B(1/p, 1/p) underflows, so c_p = p / B is not a finite float
        lambda: mean_mp(1, 0.1, 1.8e-3, "integral"),
        lambda: c_p(1e-3),
        lambda: c_p(1.9e-3),
    ),
    ids=("arcsin_quadrature", "K_quadrature", "mp_integral_tiny_p", "c_p_1e-3", "c_p_1.9e-3"),
)
def test_arithmetic_failures_raise_value_error(call):
    with pytest.raises(ValueError):
        call()


PUBLIC_PARAMETERS = {
    "ConvergenceError": None,  # an exception: no signature of its own
    "EvalResult": ("value", "abs_err", "method"),
    "E_pq": ("params", "k", "method"),
    "HypSeriesSpec": ("a", "b", "c", "arg", "rel_tol"),
    "K_pq": ("params", "k", "method"),
    "MeanOrdering": ("verdict", "p", "a", "b", "gap"),
    "PQParams": ("p", "q"),
    "arcsin_pq": ("params", "x", "method"),
    "beta": ("x", "y"),
    "c_p": ("p",),
    "cos_pq": ("params", "theta"),
    "dE_dk": ("params", "k"),
    "dK_dk": ("params", "k"),
    "digamma": ("x",),
    "hyp2f1": ("spec",),
    "integrate_halfline": ("f", "tol"),
    "integrate_singular": ("f", "tol"),
    "invert_monotone": ("g", "target", "lo", "hi", "tol"),
    "legendre_residual": ("p", "q", "k"),
    "log_gamma": ("x",),
    "mean_ag": ("a", "b"),
    "mean_kp": ("a", "b", "p", "method"),
    "mean_log": ("a", "b"),
    "mean_mp": ("a", "b", "p", "method"),
    "moment_sin_pq": ("params", "n"),
    "ordering": ("a", "b", "p"),
    "pi_pq": ("params",),
    "sin_pq": ("params", "theta"),
    "tan_pq": ("params", "theta"),
}

CLI_OPTIONS = {
    "pi_pq": (),
    "sin_pq": (),
    "cos_pq": (),
    "tan_pq": (),
    "K_pq": ("method",),
    "E_pq": ("method",),
    "L": (),
    "AG": (),
    "Mp": ("method",),
    "Kp": ("method",),
    "hyp2f1": ("tol",),
}


def _parameters(obj):
    try:
        return tuple(inspect.signature(obj).parameters)
    except ValueError:
        return None


def test_public_parameters_are_pinned():
    got = {name: _parameters(getattr(pqelliptic, name)) for name in pqelliptic.__all__}
    assert got == PUBLIC_PARAMETERS


def test_cli_options_are_pinned():
    assert {name: row[2] for name, row in _FNS.items()} == CLI_OPTIONS

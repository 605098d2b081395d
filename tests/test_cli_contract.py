"""The CLI's exit-code contract, as a property: every argv of the grammar
exits 0, 1 or 2, an argparse exit included, and nothing prints a traceback.

Hypothesis runs derandomized with a fixed example budget, so the examples
are the same on every run.  ``cli.main`` runs in process.  Each axis flag
takes a special float (nan, +-inf, +-0, subnormal, +-1e308), an ordinary
one, a garbage string or a start:stop:count grid with count <= 5; --fn
takes every table name and some unknown ones; --method takes every route
name of K/E, M_p and K_p or junk; --out writes only into a temporary
directory.  numerics._MAX_TERMS is lowered to 10,000 so that no example
sums 10^6 terms; series near argument 1 still end in ConvergenceError and
exit 1, as they do at 10^6.
"""

import contextlib
import io
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from pqelliptic import elliptic, means, numerics  # noqa: E402
from pqelliptic.cli import _AXIS_FLAGS, _FNS, main  # noqa: E402
from pqelliptic.suites import SUITE_NAMES  # noqa: E402

# Hypothesis's failure report imports a module that warns on import; ignore
# that one warning so a failing example is reported instead of an internal error
pytestmark = pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict:DeprecationWarning")

_SETTINGS = hypothesis.settings(derandomize=True, database=None, max_examples=300, deadline=None)

_SPECIAL = st.sampled_from(
    ("nan", "inf", "-inf", "0", "-0", "5e-324", "-5e-324", "1e308", "-1e308")
)
# mostly in [0, 3], so that most draws lie in the domain of the function
_ORDINARY = st.one_of(st.floats(0.0, 3.0), st.floats(0.0, 3.0), st.floats(-10.0, 10.0)).map(repr)
_NUMBER = st.one_of(_ORDINARY, _ORDINARY, _ORDINARY, _SPECIAL, st.floats().map(repr))
_GARBAGE = st.one_of(
    st.sampled_from(("", "abc", "1e", "--", "0x1p-3", "1:2", "1:2:3:4", "::", "1:2:x")),
    st.text(max_size=6),
)
_GRID = st.one_of(
    st.tuples(st.floats(0.0, 3.0), st.floats(1e-3, 3.0), st.integers(2, 5)).map(
        lambda t: f"{t[0]!r}:{t[0] + t[1]!r}:{t[2]}"
    ),
    st.tuples(_NUMBER, _NUMBER, st.integers(-1, 5)).map(lambda t: ":".join(map(str, t))),
)
# every name three times, two other spellings and two unknown names
_FN = st.sampled_from((*_FNS, "ordering") * 3 + ("Kpq", "sin-pq", "nosuch", ""))
_METHOD = st.sampled_from(
    ("auto", *elliptic._ROUTES, *means._MP_ROUTES, *means._KP_ROUTES, "junk", "")
)
_SUITE = st.sampled_from((*SUITE_NAMES, "all", "nosuch"))
# the flags and options each --fn takes
_TAKES = {name: row[1] + row[2] for name, row in _FNS.items()}
_TAKES.update(ordering=("p", "x"), Kpq=_TAKES["K_pq"], **{"sin-pq": _TAKES["sin_pq"]})


@st.composite
def _argv(draw):
    """An argv that is mostly well formed, with at times one flag broken."""
    command = draw(st.sampled_from(("eval", "table", "verify")))
    if command == "verify":
        argv = [command]
        if draw(st.booleans()):
            argv.append(draw(_SUITE))
        if draw(st.booleans()):
            argv.append("--verbose")
        return argv
    fn = draw(_FN)
    takes = _TAKES.get(fn, ())
    values = {flag: draw(_NUMBER) for flag in _AXIS_FLAGS if flag in takes}
    if command == "table":
        grid_axes = st.lists(st.sampled_from(_AXIS_FLAGS), min_size=1, max_size=2, unique=True)
        values.update((flag, draw(_GRID)) for flag in draw(grid_axes))
    if draw(st.integers(0, 3)) == 0:  # one flag broken, or one the function does not take
        values[draw(st.sampled_from(_AXIS_FLAGS))] = draw(st.one_of(_NUMBER, _GRID, _GARBAGE))
    argv = [command, f"--fn={fn}", *(f"--{flag}={v}" for flag, v in values.items())]
    for option, strategy in (("method", _METHOD), ("tol", _NUMBER)):
        if draw(st.integers(0, 15)) < (8 if option in takes else 1):
            argv.append(f"--{option}={draw(strategy)}")
    if command == "table" and draw(st.booleans()):
        # a file in the directory, or the directory itself, which cannot be written
        argv.append(draw(st.sampled_from(("--out={out}/out.csv", "--out={out}"))))
    return argv


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_contract")


def _exit_code(argv):
    """main's return code, or argparse's SystemExit code, with everything printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        with mock.patch.object(numerics, "_MAX_TERMS", 10_000):
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
    return rc, buf.getvalue()


@_SETTINGS
@hypothesis.given(argv=_argv())
# argparse before Python 3.13 takes an option value of '--' as an empty list
@hypothesis.example(argv=["table", "--fn=pi_pq", "--c=--"])
@hypothesis.example(argv=["eval", "--fn=--"])
def test_every_argv_exits_0_1_or_2_without_traceback(out_dir, argv):
    rc, printed = _exit_code([a.replace("{out}", str(out_dir)) for a in argv])
    assert rc in (0, 1, 2), (rc, printed)
    assert "Traceback" not in printed

"""Command-line interface: exit-code contract, output formats, CSV
determinism, and the verify subcommand."""

import errno
import math
import os
import random
import re
import subprocess
import sys

import pytest

from pqelliptic import cli, suites
from pqelliptic.cli import _grid, main
from pqelliptic.elliptic import E_pq
from pqelliptic.gentrig import PQParams, pi_pq
from pqelliptic.suites import SUITE_NAMES, CaseResult


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def value_of(capsys):
    out = capsys.readouterr().out
    return float(out.split()[0])


# --------------------------------------------------------------------- eval


def test_eval_pi(capsys):
    assert main(["eval", "--fn", "pi_pq", "--p", "2", "--q", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("3.14159265358")
    assert "method=closed_form" in out


@pytest.mark.parametrize("p, q", [(-0.011, 0.06), (200.0, 0.01), (2.0, 2.0)])
def test_eval_pi_error_covers_the_beta_rounding(p, q):
    # abs_err carries the beta function's rounding, not only the closed
    # form's 4 eps: at (-0.011, 0.06) the value is 1.1e-13 off relative
    mpmath = pytest.importorskip("mpmath")
    r = cli._evaluate("pi_pq", {"p": p, "q": q})
    assert r.value == pi_pq(PQParams(p, q))
    assert r.method == "closed_form"
    with mpmath.workdps(50):
        ref = 2 / mpmath.mpf(q) * mpmath.beta(1 - 1 / mpmath.mpf(p), 1 / mpmath.mpf(q))
        assert abs(mpmath.mpf(r.value) - ref) <= r.abs_err


def test_eval_K_at_zero(capsys):
    assert main(["eval", "--fn", "Kpq", "--p", "2", "--q", "2", "--k", "0"]) == 0
    assert abs(value_of(capsys) - math.pi / 2.0) <= 1e-12


def test_eval_fn_spellings(capsys):
    for name in ("K_pq", "Kpq", "k_pq"):
        assert main(["eval", "--fn", name, "--p", "2", "--q", "2", "--k", "0.5"]) == 0
        capsys.readouterr()


def test_eval_mp_fixed_point(capsys):
    assert main(["eval", "--fn", "Mp", "--a", "1", "--b", "1", "--p", "3"]) == 0
    assert value_of(capsys) == 1.0


def test_eval_trig_and_means(capsys):
    assert main(["eval", "--fn", "sin_pq", "--p", "2", "--q", "2", "--x", str(math.pi / 6)]) == 0
    assert abs(value_of(capsys) - 0.5) <= 1e-10
    assert main(["eval", "--fn", "L", "--a", "4", "--b", "1"]) == 0
    assert abs(value_of(capsys) - 3.0 / math.log(4.0)) <= 1e-12
    assert main(["eval", "--fn", "AG", "--a", "1", "--b", "1"]) == 0
    assert value_of(capsys) == 1.0
    assert main(["eval", "--fn", "hyp2f1", "--a", "1", "--b", "1", "--c", "2", "--x", "0.5"]) == 0
    assert abs(value_of(capsys) - 2.0 * math.log(2.0)) <= 1e-12


def _eval_fields(capsys, args):
    assert main(["eval"] + args) == 0
    value, abs_err, method = capsys.readouterr().out.split()
    return float(value), abs_err, method


def test_eval_trig_prints_route_and_error(capsys):
    # abs_err is the theta width of the inversion carried through the
    # derivative; method is arcsin_pq's route at the returned sine
    classical = [("sin_pq", math.pi / 6, 0.5), ("cos_pq", 1.0, math.cos(1.0)),
                 ("tan_pq", 1.5, math.tan(1.5))]
    for fn, theta, want in classical:
        v, abs_err, method = _eval_fields(
            capsys, ["--fn", fn, "--p", "2", "--q", "2", "--x", repr(theta)])
        err = float(abs_err.split("=")[1])
        assert method == "method=series", fn
        assert abs(v - want) <= err <= 1e-9, (fn, v, err)
    # near p = 1 the complement cancels and the last arcsin_pq is a quadrature
    assert _eval_fields(capsys, ["--fn", "sin_pq", "--p", "1.001", "--q", "3", "--x", "1"])[2] == (
        "method=quadrature"
    )
    assert _eval_fields(capsys, ["--fn", "cos_pq", "--p", "2", "--q", "2", "--x", "0"])[1:] == (
        "abs_err=8.88e-16", "method=closed_form"
    )


def test_eval_mean_prints_route_that_ran(capsys):
    # a named series route past 0.99 runs nothing else: exit 1, no value
    hyp_base = ["--fn", "Mp", "--a", "1", "--b", "0.001", "--p", "3", "--method", "hyp_base"]
    assert main(["eval"] + hyp_base) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: hyp_base route requires")
    cases = [
        (["--b", "0.5", "--p", "1e-22"], "closed_form"),  # the p -> 0 limit, below 2^-71
        (["--b", "0.5", "--p", "3", "--method", "elliptic"], "series"),  # K's log connection
        (["--b", "1e-5", "--p", "2"], "quadrature"),  # auto past 0.99
    ]
    for args, method in cases:
        _, abs_err, printed = _eval_fields(capsys, ["--fn", "Mp", "--a", "1"] + args)
        assert printed == f"method={method}", args
        assert abs_err != "abs_err=0.00e+00", args
    assert _eval_fields(capsys, ["--fn", "Kp", "--a", "1", "--b", "0.5", "--p", "3"])[2] == (
        "method=closed_form"
    )


def test_eval_ag_at_extreme_scale(capsys):
    # sqrt(ab) underflowed to 0 here, and eval printed 0 with exit 0
    mpmath = pytest.importorskip("mpmath")
    v, _, method = _eval_fields(capsys, ["--fn", "AG", "--a", "1e-300", "--b", "3e-300"])
    with mpmath.workdps(40):
        ref = mpmath.agm(mpmath.mpf(1e-300), mpmath.mpf(3e-300))
        assert abs(mpmath.mpf(v) / ref - 1) <= 1e-14
    assert method == "method=closed_form"


def test_eval_usage_errors(capsys):
    assert main(["eval", "--fn", "nosuch", "--p", "2"]) == 2
    assert main(["eval", "--fn", "Kpq", "--p", "2"]) == 2  # missing --q, --k
    assert main(["eval", "--fn", "ordering", "--p", "2", "--x", "0.5"]) == 2  # table-only
    capsys.readouterr()


def test_eval_domain_errors(capsys):
    assert main(["eval", "--fn", "Kpq", "--p", "2", "--q", "2", "--k", "1.5"]) == 1
    assert main(["eval", "--fn", "Mp", "--a", "-1", "--b", "1", "--p", "2"]) == 1
    err = capsys.readouterr().err
    assert "error" in err


@pytest.mark.parametrize(
    "args",
    (
        # arg = 1 is refused before any term is summed, whatever c - a - b is
        ["eval", "--fn", "hyp2f1", "--a", "0.5", "--b", "0.5", "--c", "3", "--x", "1"],
        ["eval", "--fn", "hyp2f1", "--a", "0.5", "--b", "0.5", "--c", "2", "--x", "1"],
        ["table", "--fn", "hyp2f1", "--a", "0.5", "--b", "0.5", "--c", "3", "--x", "0:1:3"],
        ["eval", "--fn", "hyp2f1", "--a", "nan", "--b", "0.5", "--c", "2", "--x", "0.5"],
        ["eval", "--fn", "hyp2f1", "--a", "inf", "--b", "0.5", "--c", "2", "--x", "0.5"],
        ["eval", "--fn", "hyp2f1", "--a", "0.5", "--b=-inf", "--c", "2", "--x", "0.5"],
        ["eval", "--fn", "hyp2f1", "--a", "0.5", "--b", "0.5", "--c", "nan", "--x", "0.5"],
        ["eval", "--fn", "hyp2f1", "--a", "0.5", "--b", "0.5", "--c", "inf", "--x", "0.5"],
    ),
)
def test_hyp2f1_outside_its_domain_exits_1(args, capsys):
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "args",
    (
        # B(1/p, 1/p) underflows, so c_p = p / B is not a finite float
        ["--fn", "Mp", "--a", "1", "--b", "0.1", "--p", "1.8e-3", "--method", "integral"],
        # the integrand overflows; auto sums the connection series here
        ["--fn", "Kpq", "--p", "1.01", "--q", "0.5", "--k", "0.99", "--method", "quadrature"],
        # the pair ratio min/max underflows to 0
        ["--fn", "Mp", "--a", "5e-324", "--b", "1e308", "--p", "2"],
    ),
)
def test_eval_arithmetic_failure_exits_1_without_traceback(args):
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-m", "pqelliptic", "eval", *args],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_eval_mp_where_x_p_underflows(capsys):
    # x^p = 1e-1800 underflows to 0; the integral exited 1 here
    assert main(["eval", "--fn", "Mp", "--a", "1", "--b", "1e-30", "--p", "60"]) == 0
    assert abs(value_of(capsys) - 0.028126086987877778) <= 1e-15
    # where c_p overflows the integral still exits 1
    tiny_p = ["--fn", "Mp", "--a", "1", "--b", "0.1", "--p", "1.8e-3", "--method", "integral"]
    assert main(["eval"] + tiny_p) == 1
    assert capsys.readouterr().err.startswith("error: c_p overflows at p = 0.0018")


def test_eval_tan_where_cos_underflows(capsys):
    # cos_pq underflows to 0 while sin_pq < 1: this printed "error: float
    # division by zero"
    theta = 0.9 * 0.5 * pi_pq(PQParams(2, 0.01))
    assert main(["eval", "--fn", "tan_pq", "--p", "2", "--q", "0.01", "--x", repr(theta)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: tan_pq overflows: cos_pq = 0.0 at sin_pq = ")


def test_method_and_tol_only_where_a_route_uses_them(capsys):
    bad = [
        ["eval", "--fn", "hyp2f1", "--a", "1", "--b", "1", "--c", "2", "--x", "0.5",
         "--method", "quadrature"],
        ["eval", "--fn", "sinpq", "--p", "2", "--q", "2", "--x", "0.5", "--method", "bogus"],
        ["eval", "--fn", "cospq", "--p", "2", "--q", "2", "--x", "0.5", "--tol", "1e-3"],
        ["eval", "--fn", "pi_pq", "--p", "2", "--q", "2", "--tol", "1e-3"],
        ["table", "--fn", "ordering", "--p", "0.5:2:3", "--x", "0.5", "--method", "hyp_base"],
        ["table", "--fn", "L", "--a", "1:2:3", "--b", "1", "--tol", "1e-3"],
        # the quadrature tolerance of K, E and the means is fixed: only hyp2f1 takes --tol
        ["eval", "--fn", "Epq", "--p", "2", "--q", "2", "--k", "0.5", "--method", "quadrature",
         "--tol", "1e-10"],
        ["eval", "--fn", "Kpq", "--p", "2", "--q", "2", "--k", "0.5", "--tol", "1e-10"],
        ["eval", "--fn", "Mp", "--a", "1", "--b", "0.3", "--p", "3", "--tol", "1e-4"],
        ["table", "--fn", "Kp", "--a", "1", "--b", "0.1:0.5:3", "--p", "3", "--tol", "1e-4"],
    ]
    for argv in bad:
        assert main(argv) == 2, argv
        assert "usage error: --" in capsys.readouterr().err
    good = [
        ["eval", "--fn", "hyp2f1", "--a", "1", "--b", "1", "--c", "2", "--x", "0.5",
         "--tol", "1e-10"],
        ["eval", "--fn", "Epq", "--p", "2", "--q", "2", "--k", "0.5", "--method", "quadrature"],
        ["eval", "--fn", "Kp", "--a", "1", "--b", "0.5", "--p", "3", "--method", "integral"],
        ["table", "--fn", "Kpq", "--p", "2", "--q", "2", "--k", "0:0.5:3", "--method", "series"],
    ]
    for argv in good:
        assert main(argv) == 0, argv
    capsys.readouterr()


def test_eval_connection_route(capsys):
    assert main(["eval", "--fn", "Epq", "--p", "2", "--q", "2", "--k", "0.999",
                 "--method", "connection"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("method=series\n")
    assert out.split()[0] == f"{E_pq(PQParams(2, 2), 0.999, 'connection').value:.15g}"
    # k^q = 0.25 lies outside the route's domain: a domain error, not a fallback
    assert main(["eval", "--fn", "Kpq", "--p", "2", "--q", "2", "--k", "0.5",
                 "--method", "connection"]) == 1
    assert "connection route requires k^q > 1/2" in capsys.readouterr().err


# -------------------------------------------------------------------- table


def test_table_k_grid(capsys):
    rc = main(["table", "--fn", "Kpq", "--p", "2", "--q", "2", "--k", "0:0.9:10"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k,value"
    assert len(lines) == 11
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert abs(float(first[1]) - math.pi / 2.0) <= 1e-12


def test_table_deterministic_bytes(tmp_path):
    args = ["table", "--fn", "Epq", "--p", "2", "--q", "3", "--k", "0:0.9:25"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    assert b1.startswith(b"k,value\n")


def test_table_ordering_sign_flips_at_one(capsys):
    rc = main(["table", "--fn", "ordering", "--p", "0.1:3:30", "--x", "0.5"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()[1:]
    gaps = [(float(r.split(",")[0]), float(r.split(",")[1])) for r in lines]
    signs = [math.copysign(1.0, g) for _, g in gaps]
    flips = [i for i, (u, v) in enumerate(zip(signs, signs[1:])) if u != v]
    assert len(flips) == 1
    p_before, p_after = gaps[flips[0]][0], gaps[flips[0] + 1][0]
    assert p_before < 1.0 <= p_after + 1e-12


def test_table_two_axes_row_order(capsys):
    rc = main(["table", "--fn", "Kpq", "--p", "2:3:2", "--q", "2", "--k", "0:0.5:3"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "p,k,value"
    assert len(lines) == 7
    ps = [float(r.split(",")[0]) for r in lines[1:]]
    assert ps == [2.0, 2.0, 2.0, 3.0, 3.0, 3.0]  # first axis outermost


def test_grid_points_match_numpy_linspace():
    np = pytest.importorskip("numpy")
    rng = random.Random(20)
    # the README and test grids, 2,000-row grids, tiny and subnormal spans
    grids = [(0.0, 0.9, 10), (0.1, 3.0, 30), (2.0, 4.0, 3), (0.0, 0.8, 9), (0.0, 0.9, 20),
             (0.0, 0.9, 25), (2.0, 3.0, 2), (0.0, 0.5, 3)]
    grids += [(0.0, rng.uniform(0.5, 0.9999), 2000) for _ in range(5)]
    grids += [(0.3, 0.3 + 1e-12, 7), (0.0, 5e-324, 2), (0.0, 2e-323, 11), (-1e308, 1e308, 5)]
    for _ in range(300):
        start = rng.uniform(-100.0, 100.0)
        grids.append((start, start + 10.0 ** rng.uniform(-12.0, 3.0), rng.randint(2, 300)))
    for start, stop, count in grids:
        with np.errstate(all="ignore"):
            want = [repr(float(v)) for v in np.linspace(start, stop, count)]
        assert [repr(v) for v in _grid(start, stop, count)] == want, (start, stop)


def test_table_usage_errors(capsys):
    assert main(["table", "--fn", "Kpq", "--p", "2", "--q", "2", "--k", "0:0.9:1"]) == 2
    assert main(["table", "--fn", "Kpq", "--p", "2", "--q", "2", "--k", "0.5"]) == 2  # no axis
    assert (
        main(["table", "--fn", "Kpq", "--p", "2:3:2", "--q", "2:3:2", "--k", "0:0.5:2"]) == 2
    )  # three axes
    assert main(["table", "--fn", "Kpq", "--p", "2", "--q", "2", "--k", "0.9:0:5"]) == 2
    # the span stop - start overflows to inf
    assert main(["table", "--fn", "ordering", "--x", "0.5", "--p=-1e308:1e308:3"]) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "axes, err",
    [
        (["--q", "2", "--k", "0:1"], "--k: grid syntax is start:stop:count, got '0:1'"),
        (["--q", "2", "--k", "0:x:5"], "--k: cannot parse grid '0:x:5'"),
        (["--q", "abc", "--k", "0:0.5:3"], "--q: cannot parse number 'abc'"),
    ],
    ids=["two-fields", "bad-stop", "bad-number"],
)
def test_table_unparsable_axes_exit_2(axes, err, capsys):
    assert main(["table", "--fn", "Kpq", "--p", "2", *axes]) == 2
    assert capsys.readouterr() == ("", f"usage error: {err}\n")


def test_table_out_into_a_missing_directory_exits_1(tmp_path, capsys):
    out = str(tmp_path / "missing" / "k.csv")
    args = ["--fn", "Kpq", "--p", "2", "--q", "2", "--k", "0:0.5:3", "--out", out]
    assert main(["table", *args]) == 1
    reason = FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out)
    assert capsys.readouterr() == ("", f"error: cannot write {out}: {reason}\n")


# ------------------------------------------------------------------- verify


def test_verify_single_suites(capsys):
    for name in ("legendre", "moments"):
        assert main(["verify", name]) == 0
        err = capsys.readouterr().err
        assert f"PASS {name}" in err


def test_verify_all(capsys):
    assert main(["verify", "all"]) == 0
    err = capsys.readouterr().err
    for name in SUITE_NAMES:
        assert f"PASS {name}" in err


def test_verify_default_is_all(capsys):
    assert main(["verify"]) == 0
    err = capsys.readouterr().err
    assert err.count("PASS") == len(SUITE_NAMES)


def test_verify_verbose_prints_cases(capsys):
    assert main(["verify", "trig", "--verbose"]) == 0
    err = capsys.readouterr().err
    assert err.count("ok  ") == 5


def test_verify_failing_suite_exits_1(monkeypatch, capsys):
    def failing():
        """One case within its bound, one outside."""
        return [CaseResult("good", 0.0, 1.0), CaseResult("bad", 2.0, 0.5)]

    monkeypatch.setitem(suites._SUITES, "trig", failing)
    assert main(["verify", "trig"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(
        r"FAIL trig: 2 cases, 1 failures, max residual 2\.000e\+00, \d+\.\d\d s\n"
        r"  failing: bad  residual=2\.000e\+00 \(bound 5\.0e-01\)\n",
        err,
    ), err
    # the other suites still run and pass; the run as a whole fails
    assert main(["verify", "all"]) == 1
    err = capsys.readouterr().err
    assert err.count("PASS ") == len(SUITE_NAMES) - 1 and "Traceback" not in err


def test_verify_unknown_suite(capsys):
    assert main(["verify", "nosuite"]) == 2
    capsys.readouterr()


def test_verify_summary_goes_to_stderr_only(capsys):
    assert main(["verify", "legendre"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err != ""


def test_verify_help_lists_every_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in SUITE_NAMES:
        assert f"\n  {name} " in out, name


# ------------------------------------------------------------------- import


def test_cli_imports_no_typing():
    # -S leaves out site, which imports typing on some hosts by itself; the
    # record types are named tuples, so dataclasses and its chain stay out too
    heavy = {"typing", "dataclasses", "inspect", "ast", "dis", "tokenize"}
    for module in ("pqelliptic", "pqelliptic.cli"):
        code = f"import sys, {module}; print(sorted({heavy!r} & set(sys.modules)))"
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n", module


# ------------------------------------------------------------ failed output


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "args",
    (
        ["eval", "--fn", "Kpq", "--p", "3", "--q", "2", "--k", "0.5"],
        ["table", "--fn", "Kpq", "--p", "3", "--q", "2", "--k", "0:0.9:2000"],
    ),
)
def test_full_stdout_exits_1_without_traceback(args):
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "pqelliptic", *args], stdout=full, stderr=subprocess.PIPE,
            text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=60,
        )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cannot write output: ")
    assert proc.stderr.count("\n") == 1, proc.stderr


def test_failed_write_to_stdout_exits_1(monkeypatch, capsys):
    read, write = os.pipe()
    os.close(read)  # a pipe without a reader fails every write
    broken = open(write, "w")
    try:
        with monkeypatch.context() as m:
            m.setattr(sys, "stdout", broken)
            status = main(["eval", "--fn", "pi_pq", "--p", "2", "--q", "2"])
    finally:
        broken.close()  # main pointed the descriptor at devnull, so this flush passes
    assert status == 1
    assert capsys.readouterr().err.startswith("error: cannot write output: ")

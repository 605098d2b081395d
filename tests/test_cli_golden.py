"""Golden CLI bytes: help texts, usage messages, exit codes and each --fn's
route token.  Digits that depend on libm are left out: eval output is
checked only for its ``method=`` token."""

import pytest

from pqelliptic.cli import main

EVAL_HELP = """\
usage: pqelliptic eval [-h] --fn FN [--p P] [--q Q] [--k K] [--a A] [--b B]
                       [--c C] [--x X] [--method METHOD] [--tol TOL]

options:
  -h, --help       show this help message and exit
  --fn FN          pi_pq sin_pq cos_pq tan_pq K_pq E_pq L AG Mp Kp hyp2f1
  --p P
  --q Q
  --k K
  --a A
  --b B
  --c C
  --x X
  --method METHOD  representation to use where applicable
  --tol TOL
"""

TABLE_HELP = """\
usage: pqelliptic table [-h] --fn FN [--p P] [--q Q] [--k K] [--a A] [--b B]
                        [--c C] [--x X] [--method METHOD] [--tol TOL]
                        [--out OUT]

options:
  -h, --help       show this help message and exit
  --fn FN          eval functions plus 'ordering'
  --p P            number, or grid start:stop:count
  --q Q            number, or grid start:stop:count
  --k K            number, or grid start:stop:count
  --a A            number, or grid start:stop:count
  --b B            number, or grid start:stop:count
  --c C            number, or grid start:stop:count
  --x X            number, or grid start:stop:count
  --method METHOD
  --tol TOL
  --out OUT        CSV output path (default: stdout)
"""

VERIFY_HELP = """\
usage: pqelliptic verify [-h] [--verbose] [suite]

positional arguments:
  suite

options:
  -h, --help  show this help message and exit
  --verbose   print every case residual

suites:
  legendre       Product relation between the (p,q) and (q,p) integrals.
  derivatives    Closed-form dK/dk and dE/dk against the series differentiated term by term.
  routes         Every pair of routes of distinct classes, for K, E, arcsin_pq, 1/M_p and 1/K_p.
  means-ordering Sign of M_p - K_p around p = 1 (a zero gap passes), plus the p = 0, 1 anchors.
  means-bridge   M_2 = AG and the identities through the logarithmic mean at p in {0, 1, 2}.
  moments        Closed-form sin_pq moments against the beta-integral quadrature.
  trig           sin_pq(arcsin_pq x) = x at x = 0.7 on the c09 pairs.
"""


@pytest.fixture(autouse=True)
def _eighty_columns(monkeypatch):
    # argparse wraps help text to the terminal width it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize(
    "command, text", (("eval", EVAL_HELP), ("table", TABLE_HELP), ("verify", VERIFY_HELP))
)
def test_help_text(command, text, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (text, "")


@pytest.mark.parametrize(
    "argv, code, err",
    (
        (["eval", "--fn", "nosuch"], 2,
         "usage error: unknown function 'nosuch'; expected one of "
         "pi_pq sin_pq cos_pq tan_pq K_pq E_pq L AG Mp Kp hyp2f1\n"),
        (["eval", "--fn", "ordering", "--p", "2", "--x", "0.5"], 2,
         "usage error: unknown function 'ordering'; expected one of "
         "pi_pq sin_pq cos_pq tan_pq K_pq E_pq L AG Mp Kp hyp2f1\n"),
        (["table", "--fn", "nosuch", "--k", "0:1:2"], 2, "usage error: unknown function 'nosuch'\n"),
        (["eval", "--fn", "Kpq", "--p", "2"], 2, "usage error: --fn K_pq requires --q\n"),
        (["table", "--fn", "ordering", "--p", "0.1:3:3"], 2,
         "usage error: --fn ordering requires --x (or --a/--b) and --p\n"),
        (["eval", "--fn", "sinpq", "--p", "2", "--q", "2", "--x", "0.5", "--method", "bogus"], 2,
         "usage error: --method does not apply to --fn sinpq\n"),
        (["eval", "--fn", "pi_pq", "--p", "2", "--q", "2", "--tol", "1e-3"], 2,
         "usage error: --tol does not apply to --fn pi_pq\n"),
        (["eval", "--fn", "Kpq", "--p", "2", "--q", "2", "--k", "1.5"], 1,
         "error: modulus k must lie in [0, 1), got 1.5\n"),
        (["eval", "--fn", "Kp", "--a", "1", "--b", "0.3", "--p", "3", "--method", "bogus"], 1,
         "error: unknown method 'bogus'; expected one of "
         "('closed', 'integral', 'hyp_base', 'hyp_quad')\n"),
        (["verify", "nosuite"], 2,
         "usage error: unknown suite 'nosuite'; expected one of legendre, derivatives, routes, "
         "means-ordering, means-bridge, moments, trig or all\n"),
    ),
)
def test_usage_and_domain_messages(argv, code, err, capsys):
    assert main(argv) == code
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize(
    "args, method",
    (
        (["pi_pq", "--p", "3", "--q", "2"], "closed_form"),
        (["sin_pq", "--p", "3", "--q", "2", "--x", "0.7"], "series"),
        (["cos_pq", "--p", "3", "--q", "2", "--x", "0.7"], "series"),
        (["tan_pq", "--p", "3", "--q", "2", "--x", "0.7"], "series"),
        (["K_pq", "--p", "3", "--q", "2", "--k", "0.7"], "series"),
        (["E_pq", "--p", "3", "--q", "2", "--k", "0.7"], "series"),
        (["kpq", "--p", "3", "--q", "2", "--k", "0.999", "--method", "quadrature"], "quadrature"),
        (["L", "--a", "4", "--b", "1"], "closed_form"),
        (["AG", "--a", "4", "--b", "1"], "closed_form"),
        (["Mp", "--a", "1", "--b", "0.3", "--p", "3"], "series"),
        (["Mp", "--a", "1", "--b", "0.3", "--p", "3", "--method", "integral"], "quadrature"),
        (["Kp", "--a", "1", "--b", "0.3", "--p", "3"], "closed_form"),
        (["Kp", "--a", "1", "--b", "0.3", "--p", "3", "--method", "integral"], "quadrature"),
        (["hyp2f1", "--a", "1", "--b", "1", "--c", "2", "--x", "0.5", "--tol", "1e-6"], "series"),
    ),
)
def test_eval_route_token(args, method, capsys):
    assert main(["eval", "--fn", *args]) == 0
    captured = capsys.readouterr()
    fields = captured.out.split()
    assert captured.err == "" and len(fields) == 3
    assert fields[1].startswith("abs_err=") and fields[2] == f"method={method}"

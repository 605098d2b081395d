"""Acceptance gate: every numbered criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and fails with the offending cases listed.
"""

import math
import time

from pqelliptic.elliptic import E_pq, K_pq
from pqelliptic.gentrig import PQParams, arcsin_pq, cos_pq, pi_pq, sin_pq, tan_pq
from pqelliptic.cli import main
from pqelliptic.means import mean_kp, mean_log, mean_mp
from pqelliptic.suites import _ORDERING_PS, _ORDERING_XS, _TRIG_PAIRS, _route_cases, run_suite

TRIG_PAIRS = tuple(PQParams(p, q) for p, q in _TRIG_PAIRS)


def report(num, name, bad):
    status = "PASS" if not bad else "FAIL"
    print(f"ACCEPTANCE {num:2d} {name}: {status}")
    assert not bad, bad[:10]


def case_failures(cases, count, bound):
    """Failing cases, plus any departure from their stated count and
    per-case bound."""
    bad = [f"{c.name} residual {c.residual:.2e}" for c in cases if not c.passed]
    if len(cases) != count:
        bad.append(f"{len(cases)} cases, expected {count}")
    bad += [f"{c.name} bound {c.bound:g}, expected {bound:g}" for c in cases if c.bound != bound]
    return bad


def suite_failures(name, count, bound, prefixes=("",)):
    """case_failures of a verify suite; with ``prefixes``, of only the cases
    whose names start with one of them."""
    _, cases = run_suite(name)
    return case_failures([c for c in cases if c.name.startswith(prefixes)], count, bound)


def test_c01_classical_degeneration():
    # the routes suite's series-against-quadrature cases at (2, 2), k = 0, 0.1, ..., 0.9
    names = {f"{f} series~quadrature p=2 q=2 k={i / 10.0}" for f in "KE" for i in range(10)}
    bad = case_failures([c for c in run_suite("routes")[1] if c.name in names], 20, 1e-10)
    par = PQParams(2, 2)
    for fn, tag in ((K_pq, "K"), (E_pq, "E")):
        d = abs(fn(par, 0.0).value - math.pi / 2.0)
        if d > 1e-12:
            bad.append(f"{tag}(0) off pi/2 by {d:.2e}")
    report(1, "classical degeneration", bad)


def test_c02_legendre_relation():
    start = time.perf_counter()
    bad = suite_failures("legendre", 25, 1e-9)
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        bad.append(f"runtime {elapsed:.1f} s exceeds 5 s")
    report(2, "Legendre-type relation", bad)


def test_c03_derivative_system():
    report(3, "derivative system", suite_failures("derivatives", 54, 1e-12))


def test_c04_moment_formula():
    report(4, "moment formula", suite_failures("moments", 18, 1e-9))


def test_c05_representation_chain():
    # every pair of 1/M_p and 1/K_p routes of distinct classes on the
    # ordering grid; where a series argument exceeds 0.99 the route raises
    # and is left out (tests/test_routes.py checks that it does)
    grid = [(p, x) for p in _ORDERING_PS for x in _ORDERING_XS]
    bad = case_failures(_route_cases("M_p", grid), 186, 1e-10)
    bad += case_failures(_route_cases("K_p", grid), 264, 1e-10)
    report(5, "representation chain", bad)


def test_c06_gauss_bridge():
    # means-bridge's M_2 = AG cases at x = 0.01, 0.1, ..., 0.9
    bad = suite_failures("means-bridge", 10, 1e-10, ("M2=AG ",))
    for x in (0.01, 0.2, 0.5, 0.9):
        l = mean_log(1.0, x)
        for p in (1.0 + 1e-5, 1.0 - 1e-5):
            d = abs(mean_mp(1.0, x, p) - l)
            if d > 1e-4:
                bad.append(f"M_p near 1 (x={x}, p={p}) off L by {d:.2e}")
    report(6, "Gauss bridge and p=1 consistency", bad)


def test_c07_ordering():
    bad = []
    for p in _ORDERING_PS:
        want = 1.0 if p < 1.0 else -1.0
        for x in _ORDERING_XS:
            gap = mean_mp(1.0, x, p) - mean_kp(1.0, x, p)
            if want * gap <= 0.0:
                bad.append(f"sign (p={p}, x={x}) gap {gap:.2e}")
    for x in _ORDERING_XS:
        d = abs(mean_mp(1.0, x, 1.0) - mean_kp(1.0, x, 1.0))
        if d > 1e-10:
            bad.append(f"M_1 vs K_1 (x={x}) diff {d:.2e}")
    if not mean_mp(4.0, 1.0, 0.0) > mean_kp(4.0, 1.0, 0.0):
        bad.append("M_0(4,1) not above K_0(4,1)")
    report(7, "ordering across p=1", bad)


def test_c08_quadratic_transformation():
    # the routes suite's base-against-transformed series cases of 1/M_p and 1/K_p
    prefixes = ("M_p hyp_quad~hyp_base ", "K_p hyp_base~hyp_quad ")
    report(8, "quadratic transformation", suite_failures("routes", 16, 1e-10, prefixes))


def test_c09_trig_identities():
    h = 1e-6
    bad = []
    for par in TRIG_PAIRS:
        tag = f"(p={par.p}, q={par.q})"
        half = 0.5 * pi_pq(par)
        q = par.q
        for i in range(50):
            theta = half * i / 49.0
            s, c = sin_pq(par, theta), cos_pq(par, theta)
            if abs(c**q + s**q - 1.0) > 1e-10:
                bad.append(f"pythagorean {tag} i={i}")
        for frac in (0.1, 0.3, 0.5, 0.7, 0.85):
            theta = frac * half
            fd = (sin_pq(par, theta + h) - sin_pq(par, theta - h)) / (2.0 * h)
            if abs(fd - cos_pq(par, theta) ** (q / par.p)) > 1e-6:
                bad.append(f"(sin)' {tag} frac={frac}")
            expo = q / par.p_star
            fd = (cos_pq(par, theta + h) ** expo - cos_pq(par, theta - h) ** expo) / (2.0 * h)
            if abs(fd + expo * sin_pq(par, theta) ** (q - 1.0)) > 1e-6:
                bad.append(f"(cos^s)' {tag} frac={frac}")
            fd = (tan_pq(par, theta + h) - tan_pq(par, theta - h)) / (2.0 * h)
            if abs(fd - cos_pq(par, theta) ** (-1.0 - expo)) > 1e-6:
                bad.append(f"(tan)' {tag} frac={frac}")
        theta = arcsin_pq(par, 0.7)
        if abs(sin_pq(par, theta) - 0.7) > 1e-9:
            bad.append(f"roundtrip {tag}")
    report(9, "generalized trig identities", bad)


def test_c10_cli(tmp_path, capsys):
    bad = []
    start = time.perf_counter()
    rc = main(["verify", "all"])
    elapsed = time.perf_counter() - start
    if rc != 0:
        bad.append(f"verify all exited {rc}")
    if elapsed >= 60.0:
        bad.append(f"verify all took {elapsed:.1f} s")
    capsys.readouterr()
    args = ["table", "--fn", "Kpq", "--p", "2", "--q", "2", "--k", "0:0.9:20"]
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    if main(args + ["--out", str(out1)]) != 0 or main(args + ["--out", str(out2)]) != 0:
        bad.append("table invocation failed")
    elif out1.read_bytes() != out2.read_bytes():
        bad.append("table output not byte-identical")
    report(10, "CLI verify-all and determinism", bad)

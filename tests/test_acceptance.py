"""Acceptance gate: every numbered criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and fails with the offending cases listed.
"""

import math
import time

from pqelliptic.elliptic import E_pq, K_pq
from pqelliptic.gentrig import PQParams, arcsin_pq, cos_pq, pi_pq, sin_pq, tan_pq
from pqelliptic.cli import main
from pqelliptic.means import mean_ag, mean_kp, mean_log, mean_mp
from pqelliptic.suites import run_suite

MP_METHODS = ("integral", "elliptic", "hyp_base", "hyp_quad")
KP_METHODS = ("closed", "integral", "hyp_base", "hyp_quad")
CHAIN_PS = (0.25, 0.5, 0.75, 1.5, 2.0, 3.0, 5.0)
CHAIN_XS = (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99)
TRIG_PAIRS = (PQParams(2, 2), PQParams(3, 2), PQParams(2, 3), PQParams(1.5, 4), PQParams(-2, 2))


def report(num, name, bad):
    status = "PASS" if not bad else "FAIL"
    print(f"ACCEPTANCE {num:2d} {name}: {status}")
    assert not bad, bad[:10]


def suite_failures(name, count, bound):
    """Failing cases of a verify suite, plus any departure from its stated
    case count and per-case bound."""
    _, cases = run_suite(name)
    bad = [f"{c.name} residual {c.residual:.2e}" for c in cases if not c.passed]
    if len(cases) != count:
        bad.append(f"{len(cases)} cases, expected {count}")
    bad += [f"{c.name} bound {c.bound:g}, expected {bound:g}" for c in cases if c.bound != bound]
    return bad


def test_c01_classical_degeneration():
    bad = []
    par = PQParams(2, 2)
    for i in range(10):
        k = i / 10.0
        for fn, tag in ((K_pq, "K"), (E_pq, "E")):
            d = abs(fn(par, k, "series").value - fn(par, k, "quadrature").value)
            if d > 1e-10:
                bad.append(f"{tag}(k={k}) series/quadrature diff {d:.2e}")
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
    report(3, "derivative system", suite_failures("derivatives", 54, 1e-5))


def test_c04_moment_formula():
    report(4, "moment formula", suite_failures("moments", 18, 1e-9))


def chain_failures(tag, mean, methods, p, x):
    """Failures of one representation-chain point: a series route whose
    argument (1 - x^p for hyp_base, its quadratic transform for hyp_quad)
    exceeds 0.99 must raise ValueError, at least two distinct routes must
    run, and the reciprocals of those that ran must agree to 1e-9."""
    z = -math.expm1(p * math.log(x))
    args = {"hyp_base": z, "hyp_quad": (z / (2.0 - z)) ** 2}
    bad, recips = [], []
    for m in methods:
        if args.get(m, 0.0) > 0.99:
            try:
                mean(1.0, x, p, m)
                bad.append(f"{tag} (p={p}, x={x}) {m} ran outside its domain")
            except ValueError:
                pass
        else:
            recips.append(1.0 / mean(1.0, x, p, m))
    if len(recips) < 2:
        bad.append(f"{tag} (p={p}, x={x}) only {len(recips)} route ran")
    elif max(recips) - min(recips) > 1e-9:
        bad.append(f"{tag} (p={p}, x={x}) spread {max(recips) - min(recips):.2e}")
    return bad


def test_c05_representation_chain():
    bad = []
    for p in CHAIN_PS:
        for x in CHAIN_XS:
            bad += chain_failures("1/M_p", mean_mp, MP_METHODS, p, x)
            bad += chain_failures("1/K_p", mean_kp, KP_METHODS, p, x)
    report(5, "representation chain", bad)


def test_c06_gauss_bridge():
    bad = []
    for x in (0.01,) + tuple(i / 10.0 for i in range(1, 10)):
        d = abs(mean_mp(1.0, x, 2.0) - mean_ag(1.0, x))
        if d > 1e-10:
            bad.append(f"M_2 vs AG (x={x}) diff {d:.2e}")
    for x in (0.01, 0.2, 0.5, 0.9):
        l = mean_log(1.0, x)
        for p in (1.0 + 1e-5, 1.0 - 1e-5):
            d = abs(mean_mp(1.0, x, p) - l)
            if d > 1e-4:
                bad.append(f"M_p near 1 (x={x}, p={p}) off L by {d:.2e}")
    report(6, "Gauss bridge and p=1 consistency", bad)


def test_c07_ordering():
    bad = []
    for p in CHAIN_PS:
        want = 1.0 if p < 1.0 else -1.0
        for x in CHAIN_XS:
            gap = mean_mp(1.0, x, p) - mean_kp(1.0, x, p)
            if want * gap <= 0.0:
                bad.append(f"sign (p={p}, x={x}) gap {gap:.2e}")
    for x in CHAIN_XS:
        d = abs(mean_mp(1.0, x, 1.0) - mean_kp(1.0, x, 1.0))
        if d > 1e-10:
            bad.append(f"M_1 vs K_1 (x={x}) diff {d:.2e}")
    if not mean_mp(4.0, 1.0, 0.0) > mean_kp(4.0, 1.0, 0.0):
        bad.append("M_0(4,1) not above K_0(4,1)")
    report(7, "ordering across p=1", bad)


def test_c08_quadratic_transformation():
    report(8, "quadratic transformation", suite_failures("quadtransform", 12, 1e-10))


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

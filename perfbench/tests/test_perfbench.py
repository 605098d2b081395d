"""Tests of the benchmark itself: seeded inputs, tracing, oracle, checks."""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

mpmath = pytest.importorskip("mpmath")

import clirun  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    gen = workloads.GENERATORS[name]
    assert gen(7) == gen(7)
    assert gen(7) != gen(8)
    assert len(gen(7)) == len(gen(8))  # stratified: same shape for every seed


def test_cli_params_follow_the_seed():
    assert workloads.cli_params(3) == workloads.cli_params(3)
    assert workloads.cli_params(3) != workloads.cli_params(4)


def test_elliptic_strata_shares():
    pool = workloads.elliptic_sweep(1)
    kq = [args[2] ** args[1] for _, args in pool]
    assert sum(v > 0.9 for v in kq) == 600
    assert sum(v > 0.99 for v in kq) == 150


def _traced_pass(pool):
    t = tracer.Tracer()
    fns = worker.adapters(t.public)
    t.install()
    try:
        t0 = perf_counter()
        for fn, args in pool:
            try:
                fns[fn](*args)
            except (ValueError, ArithmeticError, RuntimeError):
                pass
        wall = perf_counter() - t0
    finally:
        t.uninstall()
    return t, wall


def test_self_times_add_up_to_no_more_than_wall_time():
    pool = (workloads.elliptic_sweep(1)[:40] + workloads.trig_inverse(1)[:9]
            + workloads.means_mix(1)[:30])
    t, wall = _traced_pass(pool)
    assert sum(t.self_s.values()) <= wall
    assert all(v >= 0.0 for v in t.self_s.values())


def test_tracer_restores_the_library():
    import pqelliptic.means as means

    before = means.hyp2f1
    _traced_pass(workloads.means_mix(1)[:3])
    assert means.hyp2f1 is before


def test_predicted_zero_counts():
    trig, _ = _traced_pass(workloads.trig_inverse(2)[:12])
    m = tracer.layer_metrics(trig.snapshot())
    assert m["numerics.hyp2f1.calls"] == 0
    assert m["numerics.invert.calls"] > 0
    assert m["gentrig.arcsin_pq.calls_per_value"] > 1
    for name in ("elliptic-sweep", "means-mix"):
        t, _ = _traced_pass(workloads.GENERATORS[name](2)[:60])
        m = tracer.layer_metrics(t.snapshot())
        assert m["numerics.invert.calls"] == 0
        assert m["numerics.hyp2f1.calls"] > 0


def test_series_hit_ratio_counts_the_integral_fallback():
    t, _ = _traced_pass([("mean_mp", (1.0, 0.5, 2.0)), ("mean_mp", (1.0, 1e-6, 3.0))])
    assert tracer.layer_metrics(t.snapshot())["means.series_hit_ratio"] == 0.5


def _hi(f, *args):
    with mpmath.workdps(80):
        return f(*args)


def test_connection_series_match_mpmath():
    mpf = mpmath.mpf
    with mpmath.workdps(40):
        for a, b, w in ((0.3, 0.7, "0.2"), (0.5, 0.5, "1e-7"), (2.5, 0.1, "0.24")):
            a, b, w = mpf(a), mpf(b), mpf(w)
            zb = oracle.zero_balanced(a, b, w, mpmath.log(w))
            ob = oracle.once_balanced(-a / 3, b, w, mpmath.log(w))
            assert abs(zb / _hi(mpmath.hyp2f1, a, b, a + b, 1 - w) - 1) < mpf(10) ** -30
            assert abs(ob / _hi(mpmath.hyp2f1, -a / 3, b, b - a / 3 + 1, 1 - w) - 1) < mpf(10) ** -30


def test_mean_reference_resolves_tiny_complements():
    # x^p = 1e-18: a 30-digit 1 - x^p would round to 1
    ref = oracle.reference("mean_mp", (1.0, 1e-6, 3.0))
    with mpmath.workdps(80):
        z = 1 - mpmath.mpf(1e-6) ** 3
        want = 1 / mpmath.hyp2f1(mpmath.mpf(1) / 3, mpmath.mpf(1) / 3, mpmath.mpf(2) / 3, z)
    assert abs(ref.value / float(want) - 1) < 1e-15


def test_oracle_accepts_the_library_and_rejects_a_nudged_value():
    from pqelliptic import PQParams, K_pq, sin_pq

    ref = oracle.reference("K_pq", (3.0, 2.0, 0.7))
    v = K_pq(PQParams(3.0, 2.0), 0.7).value
    assert oracle.judge(ref, v)
    assert not oracle.judge(ref, v * (1 + 1e-8))
    ref = oracle.reference("sin_pq", (-2.0, 2.0, 0.7))
    s = sin_pq(PQParams(-2.0, 2.0), 0.7)
    assert oracle.judge(ref, s)
    assert not oracle.judge(ref, s * (1 - 1e-9))


def test_ordering_verdict_must_match_the_reference_sign():
    ref = oracle.reference("ordering", (1.0, 0.3, 3.0))
    assert ref.value < 0  # K_p wins for p > 1
    assert oracle.judge(ref, ref.value, "Kp_greater")
    assert not oracle.judge(ref, ref.value, "Mp_greater")


def test_a_fake_that_returns_one_wrong_value_is_flagged():
    pool = [(fn, args) for fn, args in workloads.elliptic_sweep(5) if args[2] < 0.9][:6]
    real = worker.adapters()
    bad = 2

    def fake(i):
        fn, _ = pool[i]
        if i != bad:
            return real[fn]
        return lambda p, q, k: (real[fn](p, q, k)[0] * (1 + 1e-6), None)

    loop = worker.Loop(len(pool))
    loop.run([(fake(i), args) for i, (_, args) in enumerate(pool)], perf_counter() + 0.05,
             record=False)
    meta = {"attempted": loop.attempted, "first": loop.first, "errors": loop.errors,
            "mismatches": loop.mismatches}
    ok = run._judge_pool(pool, meta)
    assert ok == [i != bad for i in range(len(pool))]
    times_bad = loop.attempted // len(pool) + (bad < loop.attempted % len(pool))
    assert run._wrong_calls(meta, ok) == times_bad


def test_repeat_that_differs_counts_as_wrong():
    values = iter([(1.0, None), (2.0, None)])
    loop = worker.Loop(1)
    loop.run([(lambda *a: next(values), ())], None, record=False)
    loop.run([(lambda *a: next(values), ())], None, record=False)
    assert loop.mismatches == 1


def test_cli_output_parsers():
    err = ("import time: self [us] | cumulative | imported package\n"
           "import time:       900 |     120000 | numpy\n"
           "PASS legendre: 25 cases, 0 failures, max residual 1e-15, 0.01 s\n"
           "PASS hypergeo: 80 cases, 0 failures, max residual 1e-14, 0.02 s\n")
    assert clirun.numpy_import_s(err) == 0.12
    assert clirun._suite_cases(err) == (105, 0)
    assert clirun._suite_cases("FAIL moments: 18 cases, 1 failures")[1] == 1
    assert clirun._parse_table("k,value\n0,1.5\n0.5,1.75\n") == [(0.0, 1.5), (0.5, 1.75)]


def test_cli_checker_flags_a_wrong_row():
    params = {"p": 2.0, "q": 2.0, "k_eval": 0.5, "k_max": 0.5, "rows": 2}
    checker = clirun.CliChecker(params, oracle)
    good = oracle.reference("K_pq", (2.0, 2.0, 0.5)).value
    base = oracle.reference("K_pq", (2.0, 2.0, 0.0)).value
    table = f"k,value\n0,{base!r}\n0.5,{good!r}\n".encode()
    wrong = f"k,value\n0,{base!r}\n0.5,{good + 1e-6!r}\n".encode()
    runs = [("table", clirun.Launch(0, table, b"", 0.1, 1), None),
            ("table", clirun.Launch(0, wrong, b"", 0.1, 1), None),
            ("eval", clirun.Launch(0, f"{good:.15g}  abs_err=1e-15".encode(), b"", 0.1, 1), None),
            ("verify", clirun.Launch(1, b"", b"", 0.1, 1), None)]
    rec = checker.judge(runs)
    assert rec.values == 2 + 1 + 1
    assert rec.wrong == 1
    assert rec.table_differs == 1
    assert rec.bad_launches == 1


def test_inputs_that_raise_are_set_aside_before_timing():
    def boom(*args):
        raise ZeroDivisionError

    real = worker.adapters()["K_pq"]
    calls = [(real, (2.0, 2.0, 0.5)), (boom, ()), (real, (3.0, 2.0, 0.7))]
    kept, raised = worker.screen(calls)
    assert kept == [0, 2]
    assert raised == {1: "ZeroDivisionError"}


"""pqelliptic benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its ``src``.
The load is a closed loop: one caller in one child process, the next call
starting when the previous one returns.  With ``--trace 0`` the last line of
standard output holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced run.  Every value is judged against
a 30-digit mpmath oracle, and no oracle work falls inside a timed interval.
See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import oracle
import tracer
import workloads
from clirun import REF_LAUNCH_NOMINAL_S, CliChecker, cli_layer_metrics, run_commands
from worker import REF_NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Every timing below is the fastest of its repeats, as timeit takes it:
# interference only ever slows work down.  On the shared host this benchmark
# was built on, the median of a run's pass times spread by 23 % (quartile
# distance over median) across identical 8 s runs, as the host flipped
# between speed states within each run; stretches slower than a whole run
# are left to the reference walk (worker.REF_NOMINAL_S).

SETUP_REPS = 15  # cold starts per run; setup_s is their median
CLI_REPS = 3  # plain and traced launches of each CLI command in a traced run


def _median_setup(workload: str) -> float:
    """Median over SETUP_REPS fresh processes of the library's import plus
    the workload's first calls, as each process times them itself."""
    times = []
    for _ in range(SETUP_REPS):
        out = subprocess.run([sys.executable, str(HERE / "worker.py"), "setup", workload],
                             check=True, cwd=ROOT, stdin=subprocess.DEVNULL,
                             capture_output=True, text=True).stdout
        times.append(float(out))
    return statistics.median(times)


def _latency_us(lat: list[float]) -> tuple[float, float]:
    """(p50, p99) in microseconds of per-entry latencies."""
    q = statistics.quantiles(lat, n=100, method="inclusive")
    return q[49] * 1e6, q[98] * 1e6


def _run_worker(workload: str, pool: list, seconds: float, trace: bool,
                tmp: Path) -> tuple[dict, list]:
    job, prefix = tmp / "job.json", tmp / "worker"
    job.write_text(json.dumps({"workload": workload, "calls": pool, "seconds": seconds,
                               "trace": trace}))
    subprocess.run([sys.executable, str(HERE / "worker.py"), "measure", str(job), str(prefix)],
                   check=True, cwd=ROOT, stdin=subprocess.DEVNULL)
    meta = json.loads(Path(f"{prefix}.json").read_text())
    dts = array("d")
    with open(f"{prefix}.dts", "rb") as fh:
        dts.fromfile(fh, meta["recorded"])
    return meta, dts.tolist()


def _judge_pool(pool: list, meta: dict) -> list[bool]:
    """Per pool entry: did its (first) result meet the oracle?  Entries that
    raised count as not correct but are failures, not wrong values."""
    ok = []
    for (fn, args), first in zip(pool, meta["first"]):
        if first is None:
            ok.append(False)
            continue
        ok.append(oracle.judge(oracle.reference(fn, tuple(args)), first[0], first[1]))
    return ok


def _wrong_calls(meta: dict, ok: list[bool]) -> int:
    """Calls that returned a value the oracle rejected.  Calls cycle through
    the pool in order, and the library is deterministic, so an entry either
    always raises or always returns its first result; an entry that did both,
    or a repeat that differed from the first, counts as wrong."""
    n = len(ok)
    full, rest = divmod(meta["attempted"], n)
    wrong = meta["mismatches"]
    for i in range(n):
        if meta["first"][i] is not None and not (ok[i] and meta["errors"][i] is None):
            wrong += full + (i < rest)
    return wrong


def _library(workload: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    setup_s = None if trace else _median_setup(workload)
    pool = workloads.GENERATORS[workload](seed)
    meta, dts = _run_worker(workload, pool, seconds, trace, tmp)
    # the inputs on which the library raised in the worker's untimed first
    # pass: their share is run.fail_frac, and the loop ran the rest
    raise_frac = len(meta["raised"]) / len(pool)
    raised = ", ".join(f"{n} {e}" for e, n in sorted(Counter(meta["raised"].values()).items()))
    pool = [pool[i] for i in meta["kept"]]
    ok = _judge_pool(pool, meta)
    wrong = _wrong_calls(meta, ok)
    attempted, failed = meta["attempted"], meta["failed"]
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed}
    if trace:
        metrics = tracer.layer_metrics(meta["trace"], len(meta["traced_s"]))
        metrics["trace.overhead_frac"] = min(meta["traced_s"]) / min(meta["untraced_s"]) - 1.0
        rec, cli_metrics, _ = _cli_layers(seed, tmp)
        metrics.update(cli_metrics)
        result["correct"] = result["correct"] and rec.ok
    else:
        # each entry at its fastest repeat; a pass over the pool then takes the
        # sum of those, and yields the entries whose values were right
        n = len(pool)
        scale = REF_NOMINAL_S / meta["ref_s"]
        per_entry = [min(dts[i::n]) * scale for i in range(n)]
        good = [i for i in range(n) if ok[i] and meta["errors"][i] is None]
        p50, p99 = _latency_us([per_entry[i] for i in good])
        metrics = {
            "setup_s": setup_s,
            "values_per_s": len(good) / sum(per_entry),
            "call_p50_us": p50,
            "call_p99_us": p99,
            "peak_rss_mb": meta["rss_kb"] / 1024.0,
        }
        print(f"# {workload} seed={seed}: {len(dts)} timed calls, {len(dts) // n} per entry "
              f"of {n}; latencies over {len(good)} entries; reference walk "
              f"{meta['ref_s'] * 1e6:.1f} us; "
              f"{len(meta['raised'])} inputs raised in the untimed first pass "
              f"({raised or 'none'}), fail_frac={raise_frac:.4g}, "
              f"wrong_frac={wrong / attempted:.4g}")
    metrics["run.fail_frac"] = raise_frac
    metrics["run.wrong_frac"] = wrong / attempted
    result["metrics"] = metrics
    return result


def _cli_layers(seed: int, tmp: Path):
    """CLI_REPS plain and CLI_REPS traced launches of each command: the
    record of their checks, the cli.* and suites.* metrics, and the traced
    children's trace counters."""
    params = workloads.cli_params(seed)
    plain, _ = run_commands(params, tmp, CLI_REPS)
    traced, _ = run_commands(params, tmp, CLI_REPS, traced=True)
    rec = CliChecker(params, oracle).judge(plain + traced)
    metrics = cli_layer_metrics(traced)
    for cmd in ("eval", "table", "verify"):
        metrics[f"cli.{cmd}_s"] = min([r.wall_s for c, r, _ in plain if c == cmd])
    metrics["cli.trace_overhead_frac"] = (
        min([r.wall_s for _, r, _ in traced]) / min([r.wall_s for _, r, _ in plain]) - 1.0
    )
    return rec, metrics, [child["trace"] for _, _, child in traced if child]


def _cli_batch(seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    if trace:
        rec, metrics, snaps = _cli_layers(seed, tmp)
        metrics.update(tracer.layer_metrics(tracer.merge(snaps), CLI_REPS))
        metrics["trace.overhead_frac"] = metrics.pop("cli.trace_overhead_frac")
        metrics["run.fail_frac"] = rec.bad_launches / rec.launches
        metrics["run.wrong_frac"] = rec.wrong / max(rec.values + rec.wrong, 1)
        return {"correct": rec.ok, "attempted": rec.launches, "failed": rec.bad_launches,
                "metrics": metrics}
    params = workloads.cli_params(seed)
    setup_s = _median_setup("cli-batch")
    t0 = perf_counter()
    runs, ref_s = run_commands(params, tmp, 1, deadline=t0 + seconds)
    window = perf_counter() - t0
    rec = CliChecker(params, oracle).judge(runs)
    # each command at its fastest launch, at the reference launch speed; one
    # launch of each command is a pass
    scale = REF_LAUNCH_NOMINAL_S / ref_s
    per_cmd = {c: min(w) * scale for c, w in rec.walls.items()}
    per_pass = rec.values / min(len(w) for w in rec.walls.values())
    p50, p99 = _latency_us(list(per_cmd.values()))
    print(f"# cli-batch seed={seed}: {rec.launches} launches in {window:.1f} s, "
          f"{rec.values} values checked; reference launch {ref_s:.4f} s")
    return {
        "correct": rec.ok,
        "attempted": rec.launches,
        "failed": rec.bad_launches,
        "metrics": {
            "setup_s": setup_s,
            "values_per_s": per_pass / sum(per_cmd.values()),
            "call_p50_us": p50,
            "call_p99_us": p99,
            "peak_rss_mb": rec.rss_kb / 1024.0,
        },
    }


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)

    if not (ROOT / "src" / "pqelliptic" / "__init__.py").is_file():
        print(f"error: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = _declared()
    names = [w["name"] for w in declared["workloads"]]
    if ns.workload not in names:
        print(f"error: unknown workload {ns.workload!r}; expected one of {names}", file=sys.stderr)
        return 2

    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if ns.workload == "cli-batch":
            result = _cli_batch(ns.seed, ns.seconds, bool(ns.trace), tmp)
        else:
            result = _library(ns.workload, ns.seed, ns.seconds, bool(ns.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    # report exactly the declared metrics, each with its declared unit; a
    # suite the CLI no longer runs reads 0, any other missing metric is a bug
    values = result["metrics"]
    if ns.trace:
        values = {**{m["name"]: 0.0 for m in declared["per_layer"]}, **values}
    kind = "per_layer" if ns.trace else "end_to_end"
    result["metrics"] = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared[kind]
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

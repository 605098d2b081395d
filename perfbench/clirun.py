"""The CLI as a user runs it: one process per command.

Three commands are launched, each as its own process: ``eval`` of one K_pq
value, a 2,000-row ``table --fn Kpq`` and ``verify all``.  Every launch must
exit with 0; the ``eval`` value and every ``table`` row must meet the
oracle, repeated ``table`` launches must print identical bytes, and every
suite of ``verify`` must pass.

A traced launch runs ``clichild.py`` instead of ``-m pqelliptic``, under
``-X importtime``, which gives the share of ``numpy`` in the import.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COMMANDS = ("eval", "table", "verify")

# Launch-speed reference.  Launches slow down through stretches in which
# the in-memory reference walk (worker.REF_NOMINAL_S) does not, as starting
# a process and reading its modules slows with the host.  A timed run of the
# CLI therefore also launches a fixed process, Python importing numpy, before
# each round of commands, and the commands' times are scaled by
# REF_LAUNCH_NOMINAL_S over that launch's fastest time in the run.
REF_LAUNCH = ("-c", "import numpy")
REF_LAUNCH_NOMINAL_S = 0.15


@dataclass
class Launch:
    code: int
    out: bytes
    err: bytes
    wall_s: float
    rss_kb: int


def launch(argv: list[str], tmp: Path) -> Launch:
    """Run argv to completion with PYTHONPATH at the checkout's src; the
    child's own peak RSS comes from wait4."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out_path, err_path = tmp / "child.out", tmp / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Launch(proc.returncode, out_path.read_bytes(), err_path.read_bytes(), wall,
                  usage.ru_maxrss)


def cli_args(params: dict) -> dict[str, list[str]]:
    p, q = repr(params["p"]), repr(params["q"])
    return {
        "eval": ["eval", "--fn", "Kpq", "--p", p, "--q", q, "--k", repr(params["k_eval"])],
        "table": ["table", "--fn", "Kpq", "--p", p, "--q", q,
                  "--k", f"0:{params['k_max']!r}:{params['rows']}"],
        "verify": ["verify", "all"],
    }


@dataclass
class CliRecord:
    """Everything the launches of one run produced, checks included."""

    walls: dict = field(default_factory=lambda: {c: [] for c in COMMANDS})
    rss_kb: int = 0
    launches: int = 0
    bad_launches: int = 0  # nonzero exit or unreadable output
    values: int = 0  # values that met the oracle or their suite
    wrong: int = 0
    table_bytes: bytes | None = None
    table_differs: int = 0

    @property
    def ok(self) -> bool:
        return self.bad_launches == 0 and self.wrong == 0 and self.table_differs == 0


def _parse_table(text: str) -> list[tuple[float, float]]:
    lines = text.strip().splitlines()
    if lines[0] != "k,value":
        raise ValueError(f"unexpected header {lines[0]!r}")
    return [tuple(float(c) for c in line.split(",")) for line in lines[1:]]


def _suite_cases(err: str) -> tuple[int, int]:
    """(cases in passing suites, failing suites) from verify's stderr."""
    cases = failing = 0
    for line in err.splitlines():
        if line.startswith("PASS "):
            cases += int(line.split(": ", 1)[1].split(" cases", 1)[0])
        elif line.startswith("FAIL "):
            failing += 1
    return cases, failing


def numpy_import_s(err: str) -> float:
    """Cumulative import time of numpy from ``-X importtime`` lines."""
    for line in err.splitlines():
        if line.startswith("import time:"):
            parts = [s.strip() for s in line[len("import time:"):].split("|")]
            if len(parts) == 3 and parts[2] == "numpy":
                return int(parts[1]) / 1e6
    return 0.0


class CliChecker:
    """Judges CLI output against the oracle; references are computed once."""

    def __init__(self, params: dict, oracle) -> None:
        self.params = params
        self.oracle = oracle
        self._refs: dict[float, object] = {}

    def ref(self, k: float):
        if k not in self._refs:
            self._refs[k] = self.oracle.reference("K_pq", (self.params["p"], self.params["q"], k))
        return self._refs[k]

    def judge(self, runs: list) -> CliRecord:
        rec = CliRecord()
        for cmd, run, _ in runs:
            self._check(cmd, run, rec)
        return rec

    def _check(self, cmd: str, run: Launch, rec: CliRecord) -> None:
        rec.launches += 1
        rec.walls[cmd].append(run.wall_s)
        rec.rss_kb = max(rec.rss_kb, run.rss_kb)
        if run.code != 0:
            rec.bad_launches += 1
            return
        text = run.out.decode("ascii", "replace")
        try:
            if cmd == "eval":
                value = float(text.split()[0])
                ok = self.oracle.judge(self.ref(self.params["k_eval"]), value)
                rec.values += ok
                rec.wrong += not ok
            elif cmd == "table":
                if rec.table_bytes is None:
                    rec.table_bytes = run.out
                elif run.out != rec.table_bytes:
                    rec.table_differs += 1
                rows = _parse_table(text)
                if len(rows) != self.params["rows"]:
                    raise ValueError(f"{len(rows)} rows")
                for k, value in rows:
                    ok = self.oracle.judge(self.ref(k), value)
                    rec.values += ok
                    rec.wrong += not ok
            else:
                cases, failing = _suite_cases(run.err.decode("ascii", "replace"))
                if failing or not cases:
                    raise ValueError(f"{failing} failing suites")
                rec.values += cases
        except (ValueError, IndexError):
            rec.bad_launches += 1


def run_commands(params: dict, tmp: Path, reps: int, deadline: float | None = None,
                 traced: bool = False) -> tuple[list[tuple[str, Launch, dict | None]], float]:
    """Launch eval, table, verify in turn, ``reps`` times, and then on until
    ``deadline`` if one is given, each round after one reference launch.
    Returns the (command, launch, child report) triples and the fastest
    reference launch."""
    args = cli_args(params)
    report = tmp / "child.json"
    runs = []
    ref = math.inf
    n = 0
    while n < reps or (deadline is not None and perf_counter() < deadline):
        ref = min(ref, launch([sys.executable, *REF_LAUNCH], tmp).wall_s)
        for cmd in COMMANDS:
            if traced:
                argv = [sys.executable, "-X", "importtime", str(HERE / "clichild.py"),
                        str(report), *args[cmd]]
            else:
                argv = [sys.executable, "-m", "pqelliptic", *args[cmd]]
            run = launch(argv, tmp)
            child = None
            if traced and report.exists():
                child = json.loads(report.read_text())
                child["numpy_import_s"] = numpy_import_s(run.err.decode("ascii", "replace"))
                report.unlink()
            runs.append((cmd, run, child))
        n += 1
    return runs, ref


def cli_layer_metrics(runs: list) -> dict[str, float]:
    """cli.* and suites.* metrics (medians) from traced launches."""
    start, imp, npy = [], [], []
    command: dict[str, list] = {c: [] for c in COMMANDS}
    suites: dict[str, list] = {}
    cases: dict[str, int] = {}
    for cmd, run, child in runs:
        if child is None:
            continue
        start.append(run.wall_s - child["in_script_s"])
        imp.append(child["import_s"])
        npy.append(child["numpy_import_s"])
        command[cmd].append(child["command_s"])
        for name, (elapsed, n) in child["suites"].items():
            suites.setdefault(name, []).append(elapsed)
            cases[name] = n

    def med(xs: list) -> float:
        return statistics.median(xs) if xs else 0.0

    out = {
        "cli.python_start_s": med(start),
        "cli.import_s": med(imp),
        "cli.numpy_import_s": med(npy),
        "cli.command_s": med(command["eval"]),
        "cli.table.command_s": med(command["table"]),
        "cli.verify.command_s": med(command["verify"]),
    }
    for name, elapsed in suites.items():
        out[f"suites.{name}.elapsed_s"] = med(elapsed)
        out[f"suites.{name}.cases"] = float(cases[name])
    return out

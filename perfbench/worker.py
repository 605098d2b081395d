"""Child process that runs the library: one closed-loop caller, one thread.

    python3 perfbench/worker.py setup WORKLOAD
    python3 perfbench/worker.py measure JOB.json OUT_PREFIX

``setup`` imports the library, makes the workload's first calls and prints
the seconds both took, from a cold start of the library.  ``measure`` makes
the same first calls untimed, then reads a pool of calls, makes one untimed
pass over it that sets aside the inputs on which the library raises, and
cycles through the rest until the time is up, the next call starting when
the previous one returns.  It imports nothing of the benchmark's oracle, so
its peak RSS is the library's and the interpreter's.  Per-call times of the
timed loop go to OUT_PREFIX.dts; everything else goes to OUT_PREFIX.json.
"""

from __future__ import annotations

import json
import math
import resource
import sys
from array import array
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

# room for every call of a run; allocated in full up front so that peak RSS
# does not grow with the number of calls a faster library fits in
CAPACITY = 1 << 20

# Machine-speed reference.  The shared host this benchmark was built on
# drifts between speed states, the slowest 1.6x slower, for stretches of up
# to tens of seconds; even the fastest repeat of a call is slower through
# them, and calls that walk more memory slow down more.  Every run therefore
# also times a fixed pure-Python walk over a 30,000-entry table (a few MB,
# like the quadrature node cache) throughout, and reports its timings scaled
# by REF_NOMINAL_S over the walk's fastest time in the same run: seconds on
# a machine where the walk takes exactly REF_NOMINAL_S, about its fastest
# time on that host.
REF_NOMINAL_S = 2e-3
REF_EVERY_S = 0.1  # how often the worker times the reference walk
_ref_table: list = []


def reference_s(reps: int = 3) -> float:
    """The fastest of ``reps`` timings of the reference walk, now."""
    if not _ref_table:
        _ref_table.extend((i * 1e-5, 1.0 - i * 1e-5, 1.0 + i * 1e-6) for i in range(30_000))
    best = math.inf
    for _ in range(reps):
        t0 = perf_counter()
        total = 0.0
        for t, tc, w in _ref_table:
            total += w * math.sqrt(t * tc)
        best = min(best, perf_counter() - t0)
    return best


# first calls of each workload: every route its pool reaches once.  The last
# means-mix call needs quadrature level 11, the deepest level its pools reach,
# so the node cache, and with it peak RSS, does not depend on the seed.
SETUP_CALLS = {
    "elliptic-sweep": (
        ("K_pq", (2.0, 2.0, 0.5)),
        ("K_pq", (2.0, 2.0, 0.9999)),
        ("E_pq", (2.0, 2.0, 0.5)),
        ("E_pq", (2.0, 2.0, 0.9999)),
    ),
    "trig-inverse": (
        ("sin_pq", (2.0, 2.0, 0.5)),
        ("cos_pq", (2.0, 2.0, 0.5)),
        ("tan_pq", (2.0, 2.0, 0.5)),
    ),
    "means-mix": (
        ("mean_mp", (1.0, 0.3, 2.0)),
        ("mean_mp", (1.0, 1e-6, 3.0)),
        ("mean_kp", (1.0, 0.3, 2.0)),
        ("ordering", (1.0, 0.3, 2.0)),
        ("mean_mp", (1.0, 0.00029478208819208346, 62.31642096390851)),
    ),
}


def adapters(wrap=None) -> dict:
    """Callables taking a workload's plain-float arguments and returning
    (value, aux); aux is the ordering verdict, else None.  ``wrap``, if
    given, wraps each public function first (the tracer's spans)."""
    import pqelliptic as lib

    def w(name):
        fn = getattr(lib, name)
        return wrap(name, fn) if wrap else fn

    K, E, S, C, T = w("K_pq"), w("E_pq"), w("sin_pq"), w("cos_pq"), w("tan_pq")
    MP, KP, ORD = w("mean_mp"), w("mean_kp"), w("ordering")
    PQ = lib.PQParams

    def ordering(a, b, p):
        r = ORD(a, b, p)
        return r.gap, r.verdict

    return {
        "K_pq": lambda p, q, k: (K(PQ(p, q), k).value, None),
        "E_pq": lambda p, q, k: (E(PQ(p, q), k).value, None),
        "sin_pq": lambda p, q, t: (S(PQ(p, q), t), None),
        "cos_pq": lambda p, q, t: (C(PQ(p, q), t), None),
        "tan_pq": lambda p, q, t: (T(PQ(p, q), t), None),
        "mean_mp": lambda a, b, p: (MP(a, b, p), None),
        "mean_kp": lambda a, b, p: (KP(a, b, p), None),
        "ordering": ordering,
    }


class Loop:
    """Closed-loop caller over a pool; remembers each pool entry's first
    result and counts later results that differ from it."""

    def __init__(self, size: int, capacity: int = CAPACITY) -> None:
        self.first: list = [None] * size
        self.errors: list = [None] * size
        self.mismatches = 0
        self.attempted = 0
        self.failed = 0
        self.capacity = capacity
        self.dts = array("d", bytes(8 * capacity))
        self.recorded = 0
        self.ref_s = math.inf  # fastest reference walk seen while recording

    def run(self, calls: list, deadline: float | None, record: bool) -> float:
        """One pass over ``calls`` (deadline None), or cycle until deadline.
        Returns the wall time spent."""
        n = len(calls)
        first, errors = self.first, self.errors
        dts = self.dts
        j = 0
        start = next_ref = perf_counter()
        while True:
            i = j % n
            fn, args = calls[i]
            err = None
            t0 = perf_counter()
            try:
                out = fn(*args)
            except Exception as exc:  # a raising call is a counted failure
                err = type(exc).__name__
            t1 = perf_counter()
            j += 1
            if err is None:
                if first[i] is None:
                    first[i] = out
                elif out != first[i]:
                    self.mismatches += 1
            else:
                self.failed += 1
                errors[i] = err
            if record:
                if self.recorded < self.capacity:
                    dts[self.recorded] = t1 - t0
                    self.recorded += 1
                if t1 >= next_ref:  # between calls, never inside one
                    self.ref_s = min(self.ref_s, reference_s(1))
                    next_ref = perf_counter() + REF_EVERY_S
            if deadline is None:
                if j == n:
                    break
            elif t1 >= deadline or (record and self.recorded >= self.capacity):
                break
        self.attempted += j
        return perf_counter() - start


def screen(calls: list) -> tuple[list[int], dict[int, str]]:
    """One untimed pass over ``calls``: the indices of the calls that
    returned, and the exception name of each call that raised.

    The library is deterministic, so a call that raised here raises on every
    repeat.  Such inputs (ROADMAP item 4's domain holds some) are reported,
    as the share of the pool that raised, and kept out of the timed loop,
    whose ``failed`` count then holds only calls that raised unexpectedly."""
    loop = Loop(len(calls), capacity=0)
    loop.run(calls, None, record=False)
    raised = {i: err for i, err in enumerate(loop.errors) if err is not None}
    return [i for i in range(len(calls)) if i not in raised], raised


def measure(job_path: str, out_prefix: str) -> None:
    job = json.loads(Path(job_path).read_text())
    setup(job["workload"])
    pool = [(fn, tuple(args)) for fn, args in job["calls"]]
    plain = adapters()
    calls = [(plain[fn], args) for fn, args in pool]
    kept, raised = screen(calls)
    pool = [pool[i] for i in kept]
    calls = [calls[i] for i in kept]
    loop = Loop(len(kept))
    meta: dict = {"kept": kept, "raised": raised}
    if not job["trace"]:
        meta["window_s"] = loop.run(calls, perf_counter() + job["seconds"], record=True)
    else:
        from tracer import Tracer, merge

        tracer = Tracer()
        wrapped = adapters(tracer.public)
        traced_calls = [(wrapped[fn], args) for fn, args in pool]
        untraced, traced, snaps = [], [], []
        deadline = perf_counter() + job["seconds"]
        while not traced or perf_counter() < deadline:
            untraced.append(loop.run(calls, None, record=False))
            tracer.reset()
            tracer.install()
            try:
                traced.append(loop.run(traced_calls, None, record=False))
            finally:
                tracer.uninstall()
            snaps.append(tracer.snapshot())
        meta.update(untraced_s=untraced, traced_s=traced, trace=merge(snaps))
    meta.update(
        attempted=loop.attempted,
        failed=loop.failed,
        mismatches=loop.mismatches,
        recorded=loop.recorded,
        ref_s=loop.ref_s,
        first=loop.first,
        errors=loop.errors,
        rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    with open(out_prefix + ".dts", "wb") as fh:
        loop.dts[: loop.recorded].tofile(fh)
    Path(out_prefix + ".json").write_text(json.dumps(meta))


def setup(workload: str) -> float:
    """Import the library and make the workload's first calls; returns the
    seconds this took, scaled to the reference speed."""
    ref = reference_s()
    t0 = perf_counter()
    if workload == "cli-batch":
        import pqelliptic.cli  # noqa: F401  (the CLI's whole import chain)
    else:
        fns = adapters()
        for fn, args in SETUP_CALLS[workload]:
            fns[fn](*args)
    return (perf_counter() - t0) * REF_NOMINAL_S / ref


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        print(repr(setup(sys.argv[2])))
    else:
        measure(sys.argv[2], sys.argv[3])

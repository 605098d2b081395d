"""Child process for a traced CLI launch.

    python3 -X importtime perfbench/clichild.py OUT.json CLI-ARGS...

Installs the tracer before ``pqelliptic.cli`` is imported, runs
``pqelliptic.cli.main`` on CLI-ARGS, and writes its import and command
times, the suites' reports and the trace counters to OUT.json.  The launch's
wall time less the time spent in this script is the interpreter's start and
exit.
"""

from time import perf_counter

T_ENTER = perf_counter()  # before any other import, so they count as the script's

import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer  # noqa: E402


def main(report_path: str, argv: list[str]) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    t0 = perf_counter()
    import pqelliptic  # noqa: F401
    import pqelliptic.suites as suites

    import_s = perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    tracer.install_public()
    reports = {}
    original = suites.run_suite

    def run_suite(name):
        report, cases = original(name)
        reports[name] = (report.elapsed, report.cases)
        return report, cases

    suites.run_suite = run_suite
    t1 = perf_counter()
    cli = importlib.import_module("pqelliptic.cli")
    t2 = perf_counter()
    code = cli.main(argv)
    t3 = perf_counter()
    sys.stdout.flush()
    Path(report_path).write_text(json.dumps({
        "import_s": import_s + (t2 - t1),
        "command_s": t3 - t2,
        "suites": reports,
        "trace": tracer.snapshot(),
        "in_script_s": perf_counter() - T_ENTER,
    }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))

"""Batch command-line front end.

Three subcommands: ``eval`` computes one function at one point, ``table``
sweeps up to two parameter grids into a CSV, and ``verify`` runs the named
verification suites.  Exit status: 0 on success, 1 on domain or verification
failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable, TextIO

from .elliptic import E_pq, K_pq
from .gentrig import PQParams, cos_pq, pi_pq, sin_pq, tan_pq
from .means import _mean_kp, _mean_mp, mean_ag, mean_log, ordering
from .numerics import ConvergenceError, EvalResult, HypSeriesSpec, _closed_form, hyp2f1
from .suites import SUITE_NAMES, run_suite

__all__ = ["main"]

# canonical flag order; grid axes iterate in this order, first axis outermost
_AXIS_FLAGS = ("p", "q", "k", "a", "b", "c", "x")


class _UsageError(Exception):
    """Bad invocation that argparse itself cannot catch (exit code 2)."""


@dataclass(frozen=True)
class GridSpec:
    """Affine grid start:stop:count, inclusive of both endpoints."""

    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        if not self.start < self.stop:
            raise _UsageError(f"grid needs start < stop, got {self.start}:{self.stop}")
        if self.count < 2:
            raise _UsageError(f"grid needs count >= 2, got {self.count}")

    def points(self) -> list[float]:
        """numpy.linspace's formula: start + i*step, the last point pinned to stop."""
        div = self.count - 1
        delta = self.stop - self.start
        step = delta / div
        if step == 0.0:  # the step underflows; scale the fraction i/div instead
            pts = [self.start + i / div * delta for i in range(div)]
        else:
            pts = [self.start + i * step for i in range(div)]
        return pts + [self.stop]


def _need(args: dict, names: tuple[str, ...], fn: str) -> list[float]:
    vals = []
    for n in names:
        v = args.get(n)
        if v is None:
            raise _UsageError(f"--fn {fn} requires --{n}")
        vals.append(v)
    return vals


def _eval_closed(fn: Callable, flags: tuple[str, ...], name: str) -> Callable[[dict], EvalResult]:
    def handler(args: dict) -> EvalResult:
        return _closed_form(fn(*_need(args, flags, name)))

    return handler


def _eval_trig(fn: Callable, name: str) -> Callable[[dict], EvalResult]:
    def handler(args: dict) -> EvalResult:
        p, q, x = _need(args, ("p", "q", "x"), name)
        v = fn(PQParams(p, q), x)
        return EvalResult(v, 1e-12, "quadrature")

    return handler


def _eval_routed(fn: Callable, flags: tuple[str, ...], name: str) -> Callable[[dict], EvalResult]:
    """Handler for a function with named routes: forwards --method and --tol
    and returns the function's own result, which names the route that ran."""

    def handler(args: dict) -> EvalResult:
        kwargs = {"method": args["method"]} if args.get("method") else {}
        if args.get("tol") is not None:
            kwargs["tol"] = args["tol"]
        return fn(*_need(args, flags, name), **kwargs)

    return handler


def _eval_hyp(args: dict) -> EvalResult:
    a, b, c, x = _need(args, ("a", "b", "c", "x"), "hyp2f1")
    tol = {"rel_tol": args["tol"]} if args.get("tol") is not None else {}
    return hyp2f1(HypSeriesSpec(a, b, c, x, **tol))


def _ordering_gap(args: dict) -> float:
    a = args.get("a", 1.0)
    b = args.get("b")
    if b is None:
        if args.get("x") is None:
            raise _UsageError("--fn ordering requires --x (or --a/--b) and --p")
        b = args["x"]
    (p,) = _need(args, ("p",), "ordering")
    return ordering(a, b, p).gap


_EVAL_FNS: dict[str, Callable[[dict], EvalResult]] = {
    "pipq": _eval_closed(lambda p, q: pi_pq(PQParams(p, q)), ("p", "q"), "pi_pq"),
    "sinpq": _eval_trig(sin_pq, "sin_pq"),
    "cospq": _eval_trig(cos_pq, "cos_pq"),
    "tanpq": _eval_trig(tan_pq, "tan_pq"),
    "kpq": _eval_routed(
        lambda p, q, k, **kw: K_pq(PQParams(p, q), k, **kw), ("p", "q", "k"), "K_pq"
    ),
    "epq": _eval_routed(
        lambda p, q, k, **kw: E_pq(PQParams(p, q), k, **kw), ("p", "q", "k"), "E_pq"
    ),
    "l": _eval_closed(mean_log, ("a", "b"), "L"),
    "ag": _eval_closed(mean_ag, ("a", "b"), "AG"),
    "mp": _eval_routed(_mean_mp, ("a", "b", "p"), "Mp"),
    "kp": _eval_routed(_mean_kp, ("a", "b", "p"), "Kp"),
    "hyp2f1": _eval_hyp,
}

# a table cell is a handler's value; ordering's is the gap M_p - K_p (table-only)
_TABLE_FNS: dict[str, Callable[[dict], float]] = {
    **{fn: lambda args, h=h: h(args).value for fn, h in _EVAL_FNS.items()},
    "ordering": _ordering_gap,
}


def _canon(fn: str) -> str:
    return fn.lower().replace("_", "").replace("-", "")


def _parse_axis(flag: str, text: str) -> float | GridSpec:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise _UsageError(f"--{flag}: grid syntax is start:stop:count, got {text!r}")
        try:
            start, stop = float(parts[0]), float(parts[1])
            count = int(parts[2])
        except ValueError:
            raise _UsageError(f"--{flag}: cannot parse grid {text!r}") from None
        if not math.isfinite(stop - start):
            raise _UsageError(f"--{flag}: grid span {text!r} is not finite")
        return GridSpec(start, stop, count)
    try:
        return float(text)
    except ValueError:
        raise _UsageError(f"--{flag}: cannot parse number {text!r}") from None


def _cmd_eval(ns: argparse.Namespace) -> int:
    fn = _canon(ns.fn)
    handler = _EVAL_FNS.get(fn)
    if handler is None:
        raise _UsageError(f"unknown function {ns.fn!r}; expected one of "
                          "pi_pq sin_pq cos_pq tan_pq K_pq E_pq L AG Mp Kp hyp2f1")
    args = {f: getattr(ns, f) for f in _AXIS_FLAGS}
    args["method"] = ns.method
    args["tol"] = ns.tol
    r = handler(args)
    print(f"{r.value:.15g}  abs_err={r.abs_err:.2e}  method={r.method}")
    return 0


def _cmd_table(ns: argparse.Namespace) -> int:
    fn = _canon(ns.fn)
    value_of = _TABLE_FNS.get(fn)
    if value_of is None:
        raise _UsageError(f"unknown function {ns.fn!r}")
    fixed: dict = {"method": ns.method, "tol": ns.tol}
    axes: list[tuple[str, list[float]]] = []
    for flag in _AXIS_FLAGS:
        text = getattr(ns, flag)
        if text is None:
            continue
        parsed = _parse_axis(flag, text)
        if isinstance(parsed, GridSpec):
            axes.append((flag, parsed.points()))
        else:
            fixed[flag] = parsed
    if not axes:
        raise _UsageError("table needs at least one grid axis (start:stop:count)")
    if len(axes) > 2:
        raise _UsageError(f"table supports at most 2 grid axes, got {len(axes)}")

    names = [name for name, _ in axes]
    rows = [
        [*point, value_of({**fixed, **dict(zip(names, point))})]
        for point in itertools.product(*(pts for _, pts in axes))
    ]

    lines = [",".join(names + ["value"])]
    lines.extend(",".join(f"{v:.17g}" for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if ns.out:
        try:
            with open(ns.out, "w", encoding="ascii", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {ns.out}: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(ns: argparse.Namespace, err: TextIO) -> int:
    if ns.suite == "all":
        names = SUITE_NAMES
    elif ns.suite in SUITE_NAMES:
        names = (ns.suite,)
    else:
        raise _UsageError(
            f"unknown suite {ns.suite!r}; expected one of {', '.join(SUITE_NAMES)} or all"
        )
    all_passed = True
    for name in names:
        report, cases = run_suite(name)
        if ns.verbose:
            for c in cases:
                mark = "ok  " if c.passed else "FAIL"
                print(f"  {mark} {name}: {c.name}  residual={c.residual:.3e} "
                      f"(bound {c.bound:.1e})", file=err)
        status = "PASS" if report.passed else "FAIL"
        print(
            f"{status} {report.suite}: {report.cases} cases, "
            f"{report.failures} failures, max residual {report.max_residual:.3e}, "
            f"{report.elapsed:.2f} s",
            file=err,
        )
        if not report.passed:
            all_passed = False
            failing = [c for c in cases if not c.passed][:10]
            for c in failing:
                print(f"  failing: {c.name}  residual={c.residual:.3e} "
                      f"(bound {c.bound:.1e})", file=err)
    return 0 if all_passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqelliptic",
        description="Evaluate, tabulate, and verify the (p,q)-elliptic "
        "integrals, generalized trigonometric functions, and mean families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate one function at one point")
    pe.add_argument("--fn", required=True,
                    help="pi_pq sin_pq cos_pq tan_pq K_pq E_pq L AG Mp Kp hyp2f1")
    for flag in _AXIS_FLAGS:
        pe.add_argument(f"--{flag}", type=float)
    pe.add_argument("--method", help="representation to use where applicable")
    pe.add_argument("--tol", type=float)

    pt = sub.add_parser("table", help="sweep up to two grids into a CSV")
    pt.add_argument("--fn", required=True, help="eval functions plus 'ordering'")
    for flag in _AXIS_FLAGS:
        pt.add_argument(f"--{flag}", help="number, or grid start:stop:count")
    pt.add_argument("--method")
    pt.add_argument("--tol", type=float)
    pt.add_argument("--out", help="CSV output path (default: stdout)")

    pv = sub.add_parser(
        "verify",
        help="run a named verification suite: " + ", ".join(SUITE_NAMES) + ", or all",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "suites and their built-in grids:\n"
            "  legendre       (p,q) in {(2,3),(3,2),(1.5,4),(4,1.5),(2.5,2.5)} x\n"
            "                 k in {0,0.2,0.5,0.8,0.95}, residual bound 1e-9\n"
            "  derivatives    (p,q) in {(2,2),(3,2),(2,3)} x k in {0.1..0.9},\n"
            "                 closed forms vs central differences, bound 1e-5\n"
            "  hypergeo       (p,q) in {(2,2),(3,2),(2,3),(1.5,4)} x k in {0..0.9},\n"
            "                 series vs quadrature for K and E, bound 1e-10\n"
            "  quadtransform  (a,b) in {(1/3,1/3),(1,1/3),(1/2,1/4)} x x in\n"
            "                 {0,0.2,0.5,0.8}, bound 1e-10\n"
            "  means-ordering p in {0.25,0.5,0.75,1.5,2,3,5} x x in {0.05..0.99},\n"
            "                 strict sign of M_p - K_p, plus the p in {0,1} anchors\n"
            "  means-bridge   M_2 = AG on x in {0.01,0.1..0.9} (1e-10) and the\n"
            "                 L-mean identities at p in {0,1,2} (1e-12)\n"
            "  moments        (p,q) in {(2,2),(3,2),(1.5,4)} x n in {0..5},\n"
            "                 closed form vs beta integral, bound 1e-9\n"
            "  nakamura       p in {0.5,1.5,3} x x in {0.2,0.5,0.8}, equal-truncation\n"
            "                 partial sums (1e-12) and full values (1e-10)\n"
        ),
    )
    pv.add_argument("suite", nargs="?", default="all")
    pv.add_argument("--verbose", action="store_true", help="print every case residual")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.command == "eval":
            return _cmd_eval(ns)
        if ns.command == "table":
            return _cmd_table(ns)
        return _cmd_verify(ns, sys.stderr)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

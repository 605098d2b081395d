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
import os
import sys
from collections.abc import Callable, Collection

from .elliptic import E_pq, K_pq
from .gentrig import PQParams, _pi_pq_rel, _sin_pq
from .means import _mean_kp, _mean_mp, mean_ag, mean_log, ordering
from .numerics import ConvergenceError, EvalResult, HypSeriesSpec, _closed_form, _scaled, hyp2f1
from .suites import _SUITES, SUITE_NAMES, run_suite

__all__ = ["main"]

# canonical flag order; grid axes iterate in this order, first axis outermost
_AXIS_FLAGS = ("p", "q", "k", "a", "b", "c", "x")


class _UsageError(Exception):
    """Bad invocation that argparse itself cannot catch (exit code 2)."""


def _grid(start: float, stop: float, count: int) -> list[float]:
    """The grid start:stop:count, inclusive of both ends, by numpy.linspace's
    formula: start + i*step, the last point pinned to stop."""
    if not start < stop:
        raise _UsageError(f"grid needs start < stop, got {start}:{stop}")
    if count < 2:
        raise _UsageError(f"grid needs count >= 2, got {count}")
    div = count - 1
    delta = stop - start
    step = delta / div
    if step == 0.0:  # the step underflows; scale the fraction i/div instead
        return [start + i / div * delta for i in range(div)] + [stop]
    return [start + i * step for i in range(div)] + [stop]


def _need(args: dict, names: tuple[str, ...], fn: str) -> list[float]:
    missing = [n for n in names if args.get(n) is None]
    if missing:
        raise _UsageError(f"--fn {fn} requires --{missing[0]}")
    return [args[n] for n in names]


def _pi_pq(p: float, q: float) -> EvalResult:
    """pi_pq with its beta function's rounding."""
    pi, rel = _pi_pq_rel(PQParams(p, q))
    return _scaled(1.0, _closed_form(pi), rel)


# --fn display name -> (function returning an EvalResult, the flags it takes
# in order, the options it forwards); the names, in this order, are --fn's
# help and its unknown-function error.  The trig functions report the error
# and route of ``_sin_pq``.
_FNS: dict[str, tuple[Callable[..., EvalResult], tuple[str, ...], tuple[str, ...]]] = {
    "pi_pq": (_pi_pq, ("p", "q"), ()),
    "sin_pq": (lambda p, q, x: _sin_pq(PQParams(p, q), x, "sin"), ("p", "q", "x"), ()),
    "cos_pq": (lambda p, q, x: _sin_pq(PQParams(p, q), x, "cos"), ("p", "q", "x"), ()),
    "tan_pq": (lambda p, q, x: _sin_pq(PQParams(p, q), x, "tan"), ("p", "q", "x"), ()),
    "K_pq": (lambda p, q, k, **kw: K_pq(PQParams(p, q), k, **kw), ("p", "q", "k"), ("method",)),
    "E_pq": (lambda p, q, k, **kw: E_pq(PQParams(p, q), k, **kw), ("p", "q", "k"), ("method",)),
    "L": (lambda a, b: _closed_form(mean_log(a, b)), ("a", "b"), ()),
    "AG": (lambda a, b: _closed_form(mean_ag(a, b)), ("a", "b"), ()),
    "Mp": (_mean_mp, ("a", "b", "p"), ("method",)),
    "Kp": (_mean_kp, ("a", "b", "p"), ("method",)),
    "hyp2f1": (
        lambda a, b, c, x, **tol: hyp2f1(HypSeriesSpec(a, b, c, x, *tol.values())),
        ("a", "b", "c", "x"), ("tol",),
    ),
}
_EVAL_NAMES = " ".join(_FNS)


def _canon(fn: str) -> str:
    return fn.lower().replace("_", "").replace("-", "")


# canonical spelling -> display name; ordering is the one table-only function
_BY_CANON = {_canon(name): name for name in (*_FNS, "ordering")}


def _evaluate(name: str, args: dict) -> EvalResult:
    """Row ``name`` of _FNS at args, with the options it forwards."""
    fn, flags, options = _FNS[name]
    kwargs = {o: args[o] for o in options if args.get(o) not in (None, "")}
    return fn(*_need(args, flags, name), **kwargs)


def _ordering_gap(args: dict) -> float:
    a = args.get("a", 1.0)
    b = args.get("b")
    if b is None:
        if args.get("x") is None:
            raise _UsageError("--fn ordering requires --x (or --a/--b) and --p")
        b = args["x"]
    (p,) = _need(args, ("p",), "ordering")
    return ordering(a, b, p).gap


def _cell(name: str, args: dict) -> float:
    """A table cell: the row's value; ordering's is the gap M_p - K_p."""
    return _ordering_gap(args) if name == "ordering" else _evaluate(name, args).value


def _lookup(ns: argparse.Namespace, known: Collection[str], unknown: str) -> str:
    """The display name --fn spells, if ``known`` holds it; --method and --tol
    are usage errors where its row does not forward them."""
    name = _BY_CANON.get(_canon(ns.fn))
    if name not in known:
        raise _UsageError(unknown)
    accepted = _FNS[name][2] if name in _FNS else ()
    for opt in ("method", "tol"):
        if getattr(ns, opt) is not None and opt not in accepted:
            raise _UsageError(f"--{opt} does not apply to --fn {ns.fn}")
    return name


def _parse_axis(flag: str, text: str) -> float | list[float]:
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
        return _grid(start, stop, count)
    try:
        return float(text)
    except ValueError:
        raise _UsageError(f"--{flag}: cannot parse number {text!r}") from None


def _cmd_eval(ns: argparse.Namespace) -> int:
    name = _lookup(ns, _FNS, f"unknown function {ns.fn!r}; expected one of {_EVAL_NAMES}")
    r = _evaluate(name, {f: getattr(ns, f) for f in (*_AXIS_FLAGS, "method", "tol")})
    print(f"{r.value:.15g}  abs_err={r.abs_err:.2e}  method={r.method}")
    return 0


def _cmd_table(ns: argparse.Namespace) -> int:
    fn = _lookup(ns, _BY_CANON.values(), f"unknown function {ns.fn!r}")
    fixed: dict = {"method": ns.method, "tol": ns.tol}
    axes: list[tuple[str, list[float]]] = []
    for flag in _AXIS_FLAGS:
        text = getattr(ns, flag)
        if text is None:
            continue
        parsed = _parse_axis(flag, text)
        if isinstance(parsed, list):
            axes.append((flag, parsed))
        else:
            fixed[flag] = parsed
    if not axes:
        raise _UsageError("table needs at least one grid axis (start:stop:count)")
    if len(axes) > 2:
        raise _UsageError(f"table supports at most 2 grid axes, got {len(axes)}")

    names = [name for name, _ in axes]
    rows = [
        [*point, _cell(fn, {**fixed, **dict(zip(names, point))})]
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


def _cmd_verify(ns: argparse.Namespace) -> int:
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
                      f"(bound {c.bound:.1e})", file=sys.stderr)
        status = "PASS" if report.passed else "FAIL"
        print(
            f"{status} {report.suite}: {report.cases} cases, "
            f"{report.failures} failures, max residual {report.max_residual:.3e}, "
            f"{report.elapsed:.2f} s",
            file=sys.stderr,
        )
        if not report.passed:
            all_passed = False
            for c in [c for c in cases if not c.passed][:10]:
                print(f"  failing: {c.name}  residual={c.residual:.3e} "
                      f"(bound {c.bound:.1e})", file=sys.stderr)
    return 0 if all_passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqelliptic",
        description="Evaluate, tabulate, and verify the (p,q)-elliptic "
        "integrals, generalized trigonometric functions, and mean families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate one function at one point")
    pe.add_argument("--fn", required=True, help=_EVAL_NAMES)
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
        epilog="suites:\n" + "".join(
            f"  {name:<15}{_SUITES[name].__doc__.splitlines()[0]}\n" for name in SUITE_NAMES
        ),
    )
    pv.add_argument("suite", nargs="?", default="all")
    pv.add_argument("--verbose", action="store_true", help="print every case residual")
    return parser


_NUMBER_OPTIONS = frozenset(f"--{flag}" for flag in (*_AXIS_FLAGS, "tol"))


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with each negative number that follows a number option joined
    to it, as in --p=-1e-3.  argparse reads a token that starts with '-' as
    an option unless it has the form -5 or -.5, so it would take '-1e-3',
    '-inf' and the grid '-50:-0.01:3' for options; no option here looks like
    a number."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _NUMBER_OPTIONS and tok[:1] == "-" and _is_number(tok.split(":")[0]):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _is_number(tok: str) -> bool:
    try:
        float(tok)
    except ValueError:
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        # argparse before Python 3.13 takes an option value of '--' as an empty list
        for name, value in vars(ns).items():
            if value == []:
                raise _UsageError(f"--{name} expects one value, got '--'")
        status = {"eval": _cmd_eval, "table": _cmd_table, "verify": _cmd_verify}[ns.command](ns)
        sys.stdout.flush()  # a failed write to stdout raises here at the latest
        return status
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        with open(os.devnull, "w") as devnull:  # the unwritten output goes there at exit
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Line-coverage gate: every executable line of ``src/pqelliptic`` must run
under tier-1's tests.

    python tests/uncovered.py [pytest options]

Runs pytest in this process on both test paths with a ``sys.settrace``
collector on the package's frames, then compares the lines it saw with the
lines each file's code objects hold (``co_lines``).  It prints every line
that no test reached and exits 1 on any such line outside ``ALLOWED``, or
on any test failure.  pytest does not collect this file (no ``test_``
prefix); the tracer makes the run about three times slower than pytest alone.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pqelliptic"

# Lines that tier-1 runs only in subprocesses, which the collector does not
# follow: file name -> the stripped source of its allowed lines, or None for
# the whole file.
ALLOWED: dict[str, set[str] | None] = {
    "__main__.py": None,  # `python -m pqelliptic`
    "cli.py": {"sys.exit(main())"},  # `python -m pqelliptic.cli`
}


def _executable(code: types.CodeType) -> set[int]:
    """The line numbers of code and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}  # None and 0 are not lines
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _executable(const)
    return lines


def main(args: list[str]) -> int:
    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    seen: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        if frame.f_code.co_filename not in files:
            return None
        seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    sys.path.insert(0, str(PACKAGE.parent))  # this checkout, not an installed copy
    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main([str(ROOT / "tests"), str(ROOT / "perfbench" / "tests"), *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unseen = 0
    for name, path in files.items():
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        allowed = ALLOWED.get(path.name, set())
        for line in sorted(_executable(compile(source, name, "exec"))):
            if (name, line) in seen:
                continue
            mark = "allowed" if allowed is None or text[line - 1].strip() in allowed else "UNSEEN"
            unseen += mark == "UNSEEN"
            print(f"{mark} {path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print(f"{unseen} executable line(s) of {PACKAGE.relative_to(ROOT)} not run by any test")
    return 1 if status != 0 or unseen else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

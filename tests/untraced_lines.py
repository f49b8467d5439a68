"""List each executable line of src/pvalent/*.py that no tier-1 test executes.

Runs the test suite in this process under a ``sys.settrace`` line trace (stdlib only), then prints one
``module.py:line  source`` row per unexecuted line and a count, as a fenced block on stdout; pytest's own
output goes to stderr.  Lines run only in the child processes that some tests start are not seen.  Extra
arguments are passed to pytest.  It gates nothing: the exit status is 0 whatever the tests do.

    PYTHONPATH=src python tests/untraced_lines.py
"""

import contextlib
import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pvalent"


def executable_lines(path):
    """Line numbers that carry bytecode in the module at path or in any code object nested in it."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(const for const in code.co_consts if isinstance(const, CodeType))
    return lines


def main(args):
    files = {str(path): path for path in sorted(SRC.glob("*.py"))}
    seen = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename in files:
            seen.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    with contextlib.redirect_stdout(sys.stderr):
        threading.settrace(tracer)
        sys.settrace(tracer)
        try:
            pytest.main(["-q", "-p", "no:cacheprovider", *args])
        finally:
            sys.settrace(None)
            threading.settrace(None)
    rows, total = [], 0
    for name, path in files.items():
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        rows += [f"{path.name}:{n}  {source[n - 1].strip()}" for n in sorted(lines) if (name, n) not in seen]
    print("```")
    print(*rows, sep="\n")
    print(f"{len(rows)} of {total} executable lines in src/pvalent/ unexecuted by the tests")
    print("```")


if __name__ == "__main__":
    main(sys.argv[1:])

"""Golden transcript of the command line: fixed argv lists, each with its exit code, stdout, stderr and warnings.

``tests/cli_transcript.txt`` holds what ``pvalent.cli.main`` gave for each case below.  The test replays
every case and compares the whole transcript byte for byte, so any change to a report's JSON, a curve's
CSV or an error line shows here.  Warnings are recorded by category and message, without the file and
line that Python's own warning line would print.  ``selftest`` is left out: its timing column varies.

Regenerate the file, after a deliberate change of output, with::

    PYTHONPATH=src python tests/test_cli_transcript.py
"""

from __future__ import annotations

import io
import shlex
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from pvalent.cli import main

TRANSCRIPT = Path(__file__).with_name("cli_transcript.txt")

CANON = ["--alpha", "0", "--A", "1", "--B", "-1"]
SMOOTH = ["--p", "2", "--alpha", "0.5", "--A", "0.9", "--B", "-0.7", "--mu", "0.3", "--delta", "0.5"]
HEAVY = [*CANON, "--mu", "0.9", "--delta", "0"]  # outside every budget certificate: bounds warn
# the extremal product escapes every order: the Hadamard report prints "product": null
ESCAPING = [
    "--alpha", "0.007091828603166261", "--A", "0.7862543642558205", "--B", "0.22686970159240083",
    "--mu", "0.8272135243352714", "--delta", "0.28187782736454214",
]
ONE = '{"p": 1, "coeffs": [[2, 0.1], [3, 0.05]]}'
TWO = '{"p": 2, "coeffs": [[3, 0.02], [5, 0.001]]}'

# (argv, stdin or None)
CASES: list[tuple[list[str], str | None]] = [
    (["check", "-", "--class", "r", *CANON], ONE),
    (["check", "-", "--class", "p", *SMOOTH], TWO),
    (["check", "-", "--class", "r", *CANON], '{"p": 1'),
    (["check", "-", "--class", "r", *CANON], '{"coeffs": []}'),
    (["check", "-", "--class", "r", *SMOOTH], ONE),
    (["check", "-", "--class", "r", *CANON], '{"p": 1, "coeffs": [[2, -0.5]]}'),
    (["extremal", "--k", "3", "--class", "r", *SMOOTH], None),
    (["extremal", "--k", "5", "--class", "p", *SMOOTH], None),
    (["extremal", "--k", "1", "--class", "r", *CANON], None),
    (["radius", "--kind", "starlike", "--kmax", "6", *CANON], None),
    (["radius", "--kind", "convex", "--zeta", "0.5", "--kmax", "8", *SMOOTH], None),
    (["radius", "--kind", "ctc", "--kmax", "5", *SMOOTH], None),
    (["radius", "--kind", "starlike", "--zeta", "3", *SMOOTH], None),
    (["distortion", "--m", "1", "--rmin", "0.1", "--rmax", "0.5", "--steps", "3", *CANON], None),
    (["distortion", "--m", "2", "--rmin", "0.2", "--rmax", "0.8", "--steps", "4", *SMOOTH], None),
    (["distortion", "--m", "1", "--rmin", "0.3", "--rmax", "0.6", "--steps", "2", *HEAVY], None),
    (["hadamard", "--extremal", "--beta", "0.5", *CANON], None),
    (["hadamard", *SMOOTH], None),
    (["hadamard", "--extremal", "--kmax", "8", *SMOOTH], None),
    (["hadamard", "--extremal", *ESCAPING], None),
    (["fracbound", "--theorem", "7", "--c", "1", "--eta", "1", "--rmin", "0.25", "--rmax", "0.75",
      "--steps", "3", *CANON], None),
    (["fracbound", "--theorem", "8", "--c", "1", "--eta", "0.5", "--rmin", "0.2", "--rmax", "0.8",
      "--steps", "3", "--as-printed", *SMOOTH], None),
    (["fracbound", "--theorem", "9", "--c", "2", "--eta", "0.5", "--rmin", "0.5", "--rmax", "0.5",
      "--steps", "1", "--as-printed", *CANON], None),
    (["fracbound", "--theorem", "10", "--c", "0.5", "--eta", "0.25", "--rmin", "0.3", "--rmax", "0.6",
      "--steps", "2", *SMOOTH], None),
    (["fracbound", "--theorem", "8", "--c", "1", "--eta", "0.5", "--rmin", "0.3", "--rmax", "0.6",
      "--steps", "2", *HEAVY], None),
    (["fracbound", "--theorem", "7", "--c", "1", "--eta", "4", "--rmin", "0.5", "--rmax", "0.5",
      "--steps", "1", "--as-printed", *CANON], None),
    (["oracle", "-", "--check", "subordination", *CANON], ONE),
    (["oracle", "-", "--check", "subordination", "--angles", "64", "--refine", "0", *CANON],
     '{"p": 1, "coeffs": [[2, 0.3]]}'),
    (["oracle", "-", "--check", "starlike", "--zeta", "0.2", "--r", "0.5", *SMOOTH], TWO),
    (["oracle", "-", "--check", "convex", "--r", "0.7", *CANON], ONE),
    (["oracle", "-", "--check", "ctc", "--zeta", "0.5", "--angles", "32", *CANON], ONE),
    (["oracle", "-", "--check", "starlike", "--zeta", "5", "--r", "0.5", *CANON], ONE),
    # r^p underflows (p = 40, r = 1e-8; p = 1000, r = 0.4): each check samples h/z^p, so both answer
    (["oracle", "-", "--check", "starlike", "--r", "1e-8", "--p", "40", *CANON], '{"p": 40, "coeffs": [[41, 0.001]]}'),
    (["oracle", "-", "--check", "convex", "--r", "0.4", "--p", "1000", *CANON], '{"p": 1000, "coeffs": [[1001, 0.001]]}'),
]


def _replay(argv: list[str], stdin: str | None) -> str:
    """One case's block of the transcript."""
    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
    finally:
        sys.stdin = saved
    block = [f"=== pvalent {shlex.join(argv)}"]
    if stdin is not None:
        block += ["--- stdin", stdin]
    block += [f"--- exit {code}", "--- stdout", out.getvalue(), "--- stderr", err.getvalue()]
    block += ["--- warnings", *(f"{w.category.__name__}: {w.message}" for w in caught)]
    return "\n".join(block) + "\n"


def transcript() -> str:
    return "".join(_replay(argv, stdin) for argv, stdin in CASES)


def test_cli_transcript_replays_byte_for_byte():
    assert transcript() == TRANSCRIPT.read_text()


if __name__ == "__main__":
    TRANSCRIPT.write_text(transcript())

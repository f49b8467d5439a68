"""The seven frozen files under ``tests/``, each the full text of one function below.

The files pin the package's outputs bit for bit: the printed-vs-derived audit, every row of the selftest battery
at seeds 0-2, the composition bounds, every oracle output of 40 seeded draws, every radius candidate of eight
classes, the certificates, orders and radii of 40 classes, and a transcript of the command line.  One test
compares each file with its function's text, byte for byte, and names the first line that differs.
``composition_table.csv`` and ``scan_table.csv`` hold their own inputs: their functions read the input columns
back and recompute the rest.  The seed-0 battery runs once per session, in :func:`battery`, for every test that
reads it without patching it.

Regenerate all seven, after a deliberate change of output, with::

    PYTHONPATH=src python tests/test_frozen.py
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import re
import shlex
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest

from pvalent import (
    ClassParams, SampleGrid, budget_certified, composition_bound, composition_certified, convex_min_re, ctc_max_dev,
    locate_real_axis_violation, make_series, radius_close_to_convex, radius_convex, radius_starlike, random_member,
    random_params, schild_silverman_lambda, starlike_min_re, subordination_margin, subordination_ratio_real,
)
from pvalent.cli import main
from pvalent.errors import UncertifiedBoundWarning

HERE = Path(__file__).parent
RADII = (("starlike", radius_starlike), ("convex", radius_convex), ("ctc", radius_close_to_convex))


@functools.cache
def battery(seed: int) -> tuple:
    """``selftest.run_all(seed)``, run once per session; a tuple, so no reader can change what the next one reads."""
    from pvalent.selftest import run_all

    return tuple(run_all(seed))


def _csv(header: list[str], rows) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *rows])
    return out.getvalue()


def _own_inputs(name: str, columns: list[str]) -> list[list]:
    """The input columns of each row of a file that holds its own inputs: p and theorem as ints, the rest floats."""
    with open(HERE / name, newline="") as fh:
        return [[(int if c in ("p", "theorem") else float)(row[c]) for c in columns] for row in csv.DictReader(fh)]


def audit_table() -> str:
    """``audit_rows()`` as ``selftest`` prints it: theorems 7-10 at p = 1 and p = 2, each value a ``repr``."""
    from pvalent.selftest import audit_rows

    header = ["theorem", "p", "eta", "lower", "upper", "printed_lower", "printed_upper"]
    return _csv(header, ([repr(row[k]) for k in header] for row in audit_rows()))


def battery_draws() -> str:
    """Every battery row of seeds 0-2.  Each check draws from one seeded generator, so a rewrite of
    ``random_params``, ``random_member`` or a check body that moves the generator's stream shows here; the one
    figure that varies between runs, coefficient-bound's microseconds per check, is masked."""
    rows = ([str(seed), r.name, str(r.passed), re.sub(r"\b\d+ us/check\b", "<us> us/check", r.detail)]
            for seed in (0, 1, 2) for r in battery(seed))
    return _csv(["seed", "name", "passed", "detail"], rows)


COMPOSITION_INPUTS = ["theorem", "p", "alpha", "A", "B", "mu", "delta", "c", "eta", "r"]
COMPOSITION_OUTPUTS = ["lower", "upper", "printed_lower", "printed_upper"]


def _compositions() -> list[tuple]:
    """(inputs, bound, warnings, certified) of each composition_table.csv row: 16 rows, theorems 7-10 on four
    non-canonical classes, the last uncertified, with the printed bounds."""
    rows = []
    for inputs in _own_inputs("composition_table.csv", COMPOSITION_INPUTS):
        theorem, p, alpha, A, B, mu, delta, c, eta, r = inputs
        cp = ClassParams(p, alpha, A, B, mu, delta)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bound = composition_bound(theorem, cp, c, eta, r)
        rows.append((inputs, bound, caught, composition_certified(theorem, cp, c, eta)))
    return rows


def composition_table() -> str:
    rows = ([*map(repr, inputs), *(repr(getattr(b, k)) for k in COMPOSITION_OUTPUTS)]
            for inputs, b, _, _ in _compositions())
    return _csv(COMPOSITION_INPUTS + COMPOSITION_OUTPUTS, rows)


def _oracle_value(fn, *args) -> str:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = fn(*args)
    except Exception as exc:  # a refusal is an output too
        return f"{type(exc).__name__}: {exc}"
    if isinstance(out, (tuple, float)):
        return repr(out)
    return repr((out.extremum, out.threshold, out.arg_z, out.passed, out.tolerance, out.n_angles, out.warnings))


def oracle_table() -> str:
    """Every oracle output of 40 seeded draws.  Each draw is a class from ``random_params`` (mu up to 0.99) and a
    member from ``random_member`` at a criterion sum in [0, 3]; every third member has one more index, up to
    p + 312, with a coefficient of 10^u for u uniform in [-30, 308].  Each draw also takes r in [0.05, 0.99], n in
    {8, 9, 64, 256} and zeta in [0, 0.9 p).  Its rows are the inputs, the subordination report on the circle r
    with n base angles, the starlike, convex and close-to-convex reports at (zeta, r, n), the ratio at the real
    point r and the real-axis walk, each a ``repr``, a refusal its type and text.  The samples are numpy FFTs, so
    the text is exact for one numpy build; it was generated with numpy 2.4."""
    rng, rows = np.random.default_rng(30), []
    for i in range(40):
        cp = random_params(rng, mu_range=(0.0, 0.99))
        f = random_member(cp, rng, target_sum=float(rng.uniform(0.0, 3.0)))
        if i % 3 == 0:
            far = cp.p + 13 + int(rng.integers(0, 300))
            f = make_series(cp.p, [*f.coeffs.items(), (far, float(10.0 ** rng.uniform(-30.0, 308.0)))])
        r, n = float(rng.uniform(0.05, 0.99)), int(rng.choice([8, 9, 64, 256]))
        zeta = float(rng.uniform(0.0, 0.9 * cp.p))
        params = (cp.p, cp.alpha, cp.A, cp.B, cp.rafid.mu, cp.rafid.delta)
        entries = [
            ("input", repr((params, sorted(f.coeffs.items()), r, n, zeta))),
            ("subordination", _oracle_value(subordination_margin, f, cp, SampleGrid(radii=(r,), angles_per_radius=n))),
            ("starlike", _oracle_value(starlike_min_re, f, zeta, r, n)),
            ("convex", _oracle_value(convex_min_re, f, zeta, r, n)),
            ("close-to-convex", _oracle_value(ctc_max_dev, f, zeta, r, n)),
            ("point", _oracle_value(subordination_ratio_real, f, cp, r)),
            ("walk", _oracle_value(locate_real_axis_violation, f, cp)),
        ]
        rows += [[str(i), entry, value] for entry, value in entries]
    return _csv(["draw", "entry", "value"], rows)


# (p, alpha, A, B, mu, delta, zeta): each (mu, delta) pair at two valences
CANDIDATE_CLASSES = [
    (1, 0.0, 1.0, -1.0, 0.0, 1.0, 0.0),
    (3, 1.2, 0.4, -0.7, 0.0, 1.0, 2.5),
    (2, 0.5, 0.8, -0.4, 0.0, 0.0, 0.3),
    (4, 3.5, 0.9, 0.2, 0.0, 0.0, 1.0),
    (1, 0.3, 0.5, -0.5, 0.95, 1.0, 0.6),
    (4, 0.0, 1.0, -1.0, 0.95, 1.0, 0.0),
    (2, 1.9, 0.3, -0.9, 0.95, 0.0, 1.7),
    (3, 0.7, 1.0, 0.5, 0.95, 0.0, 0.25),
]


CANDIDATE_HEADER = ["p", "alpha", "A", "B", "mu", "delta", "zeta", "k_max", "kind", "count", "radius", "argmin_k",
                    "certified", "first", "last", "sha256"]


@functools.cache
def candidate_rows(i: int) -> tuple:
    """The six rows of ``CANDIDATE_CLASSES[i]``, k_max 200 and 2000 by kind, each a tuple; computed once per
    session for the byte comparison and the per-class tests of ``test_radius_candidates.py``."""
    *params, zeta = CANDIDATE_CLASSES[i]
    rows = []
    for k_max in (200, 2000):
        for kind, radius in RADII:
            rep = radius(ClassParams(*params), zeta, k_max)
            digest = hashlib.sha256("".join(f"{k} {r.hex()}\n" for k, r in rep.candidates).encode())
            rows.append((*map(repr, (*params, zeta)), str(k_max), kind, str(len(rep.candidates)),
                         repr(rep.radius), str(rep.argmin_k), str(rep.certified), repr(rep.candidates[0][1]),
                         repr(rep.candidates[-1][1]), digest.hexdigest()))
    return tuple(rows)


def radius_candidates() -> str:
    """The full starlike, convex and close-to-convex candidate lists of eight classes at k_max 200 and 2000.  Each
    row holds the count, the radius, argmin and flag, the first and last candidate, and a SHA-256 digest of every
    candidate as ``k r.hex()`` lines, so a change in the last bit of any r_k, at any k, fails its row."""
    return _csv(CANDIDATE_HEADER, (row for i in range(len(CANDIDATE_CLASSES)) for row in candidate_rows(i)))


def scan_table() -> str:
    """Certificates, orders and radii of 40 classes, p 1-6, mu up to 0.99, delta 0 or 1; three run the Phi scan to
    its cap of 64, with a nan Phi past p+1.  Each row holds budget_certified for m = 0..p, composition_certified for
    theorems 7-10 at c = 1 and eta = 0.5, the k_max = 64 order report, and radius, argmin_k and certified of the
    three radii at k_max = 200 and the row's zeta."""
    inputs = ["p", "alpha", "A", "B", "mu", "delta", "zeta"]
    header, rows = [*inputs, "budget", "comp7", "comp8", "comp9", "comp10", "order", "saturation_margin",
                    "phi_increasing", "verified_best"], []
    header += [f"{kind}_{field}" for kind, _ in RADII for field in ("radius", "argmin_k", "certified")]
    for *params, zeta in _own_inputs("scan_table.csv", inputs):
        cp = ClassParams(*params)
        lam = schild_silverman_lambda(cp, 64)
        row = [*map(repr, (*params, zeta)), " ".join(str(budget_certified(cp, m)) for m in range(cp.p + 1)),
               *(str(composition_certified(n, cp, 1.0, 0.5)) for n in (7, 8, 9, 10)),
               repr(lam.order), repr(lam.saturation_margin), str(lam.phi_increasing), str(lam.verified_best)]
        for _, radius in RADII:
            rep = radius(cp, zeta, 200)
            row += [repr(rep.radius), str(rep.argmin_k), str(rep.certified)]
        rows.append(row)
    return _csv(header, rows)


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
CLI_CASES: list[tuple[list[str], str | None]] = [
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


def cli_transcript() -> str:
    """What ``pvalent.cli.main`` gives for each case above: exit code, stdout, stderr and warnings, the last by
    category and message, without the file and line of Python's own warning line.  ``selftest`` is left out: its
    timing column varies."""
    return "".join(_replay(argv, stdin) for argv, stdin in CLI_CASES)


FILES = {
    "audit_table.csv": audit_table,
    "battery_draws.csv": battery_draws,
    "composition_table.csv": composition_table,
    "oracle_table.csv": oracle_table,
    "radius_candidates.csv": radius_candidates,
    "scan_table.csv": scan_table,
    "cli_transcript.txt": cli_transcript,
}


@pytest.mark.parametrize("name", FILES)
def test_frozen_file_is_the_text_of_the_code(name):
    have, want = (HERE / name).read_bytes(), FILES[name]().encode()
    if have != want:
        lines = enumerate(zip_longest(have.splitlines(True), want.splitlines(True)), 1)
        i, (old, new) = next((i, pair) for i, pair in lines if pair[0] != pair[1])
        pytest.fail(f"{name} line {i} differs: the file has {old!r}, the code gives {new!r} (None: no such line)")


def test_composition_rows_warn_exactly_where_uncertified():
    rows = _compositions()
    assert not all(certified for *_, certified in rows)
    for inputs, _, caught, certified in rows:
        assert [w.category for w in caught] == ([] if certified else [UncertifiedBoundWarning]), inputs


if __name__ == "__main__":
    for name, text in FILES.items():
        (HERE / name).write_bytes(text().encode())

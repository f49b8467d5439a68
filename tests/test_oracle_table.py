"""Every oracle output of 40 seeded draws, frozen as ``tests/oracle_table.csv``.

Each draw is a class from :func:`pvalent.classes.random_params` (mu up to 0.99) and a member from
:func:`pvalent.classes.random_member` at a criterion sum in [0, 3]; every third member has one more index, up
to p + 312, with a coefficient of 10^u for u uniform in [-30, 308].  Each draw also takes r in [0.05, 0.99],
n in {8, 9, 64, 256} and zeta in [0, 0.9 p).  Its rows are the inputs, then the subordination report on the
circle r with n base angles, the starlike, convex and close-to-convex reports at (zeta, r, n), the ratio at
the real point r and the real-axis walk.  Every value is a ``repr``, an exception its type and text, so a
change in the last bit of any sample that an output reads shows here as a diff.  The samples are numpy FFTs,
so the table is exact for one numpy build; it was generated with numpy 2.4.

Regenerate the file, after a deliberate change of the oracle, with::

    PYTHONPATH=src python tests/test_oracle_table.py
"""

from __future__ import annotations

import csv
import warnings
from pathlib import Path

import numpy as np

from pvalent import (
    SampleGrid, convex_min_re, ctc_max_dev, locate_real_axis_violation, make_series, random_member,
    random_params, starlike_min_re, subordination_margin, subordination_ratio_real,
)

TABLE = Path(__file__).with_name("oracle_table.csv")
HEADER = ["draw", "entry", "value"]
SEED, DRAWS = 30, 40


def _value(fn, *args) -> str:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = fn(*args)
    except Exception as exc:  # a refusal is an output too
        return f"{type(exc).__name__}: {exc}"
    if isinstance(out, tuple):
        return repr(out)
    return repr(out if isinstance(out, float) else
                (out.extremum, out.threshold, out.arg_z, out.passed, out.tolerance, out.n_angles, out.warnings))


def _rows() -> list[list[str]]:
    rng, rows = np.random.default_rng(SEED), []
    for i in range(DRAWS):
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
            ("subordination", _value(subordination_margin, f, cp, SampleGrid(radii=(r,), angles_per_radius=n))),
            ("starlike", _value(starlike_min_re, f, zeta, r, n)),
            ("convex", _value(convex_min_re, f, zeta, r, n)),
            ("close-to-convex", _value(ctc_max_dev, f, zeta, r, n)),
            ("point", _value(subordination_ratio_real, f, cp, r)),
            ("walk", _value(locate_real_axis_violation, f, cp)),
        ]
        rows += [[str(i), entry, value] for entry, value in entries]
    return rows


def test_every_oracle_output_of_the_seeded_draws_is_frozen():
    with open(TABLE, newline="") as fh:
        frozen = list(csv.reader(fh))
    assert frozen[0] == HEADER
    assert len(frozen) == 1 + 7 * DRAWS
    for row, want in zip(_rows(), frozen[1:]):
        assert row == want, (row[0], row[1])


if __name__ == "__main__":
    with open(TABLE, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([HEADER, *_rows()])

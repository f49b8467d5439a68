"""The selftest battery's draws, frozen: every row of seeds 0-2 as in ``tests/battery_draws.csv``.

Each check draws its parameters and members from one seeded generator, and its detail reports counts and
worst errors over those draws, so a rewrite of :func:`pvalent.classes.random_params`,
:func:`pvalent.classes.random_member` or a check body that moves the generator's stream shows here.  The
only figure that varies between runs, coefficient-bound's microseconds per check, is masked.

Regenerate the file, after a deliberate change of draws, with::

    PYTHONPATH=src python tests/test_battery_draws.py
"""

from __future__ import annotations

import csv
import re
from pathlib import Path

from pvalent.selftest import run_all

TABLE = Path(__file__).with_name("battery_draws.csv")
SEEDS = (0, 1, 2)
HEADER = ["seed", "name", "passed", "detail"]


def _rows() -> list[list[str]]:
    return [
        [str(seed), r.name, str(r.passed), re.sub(r"\b\d+ us/check\b", "<us> us/check", r.detail)]
        for seed in SEEDS
        for r in run_all(seed)
    ]


def test_every_battery_row_of_seeds_0_to_2_is_frozen():
    with open(TABLE, newline="") as fh:
        frozen = list(csv.reader(fh))
    assert frozen[0] == HEADER
    assert len(frozen) == 1 + 9 * len(SEEDS)
    for row, want in zip(_rows(), frozen[1:]):
        assert row == want, (row[0], row[1])


if __name__ == "__main__":
    with open(TABLE, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([HEADER, *_rows()])

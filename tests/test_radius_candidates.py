"""Every radius candidate, class by class: each of the eight classes of ``radius_candidates.csv`` in a test of
its own, so a change names the class whose candidates moved.  ``test_frozen.py`` writes the file and compares it
byte for byte; both read the rows from :func:`test_frozen.candidate_rows`, computed once per session."""

from __future__ import annotations

import csv

import pytest

from test_frozen import CANDIDATE_CLASSES, CANDIDATE_HEADER, HERE, RADII, candidate_rows

PER_CLASS = 2 * len(RADII)  # k_max 200 and 2000, by kind


def _frozen() -> list[list[str]]:
    with open(HERE / "radius_candidates.csv", newline="") as fh:
        return list(csv.reader(fh))


def test_table_holds_six_rows_per_class():
    frozen = _frozen()
    assert frozen[0] == CANDIDATE_HEADER and len(frozen) == 1 + len(CANDIDATE_CLASSES) * PER_CLASS


@pytest.mark.parametrize("i", range(len(CANDIDATE_CLASSES)))
def test_every_radius_candidate_is_frozen(i):
    frozen = _frozen()[1 + i * PER_CLASS : 1 + (i + 1) * PER_CLASS]
    rows = candidate_rows(i)
    assert len(rows) == len(frozen) == PER_CLASS
    for row, want in zip(rows, frozen):
        assert list(row) == want, row[:9]

"""Every radius candidate, frozen: the full starlike, convex and close-to-convex lists of eight classes.

``tests/scan_table.csv`` freezes each minimum, its argmin and the certified flag; this table freezes the lists
they are read from.  Each row is one (class, zeta, k_max, kind) with the candidate count, the radius, argmin and
flag, the first and last candidate, and a SHA-256 digest of every candidate as ``k r.hex()`` lines, so a change
in the last bit of any r_k, at any k, fails its row.  The classes take mu in {0, 0.95}, delta in {0, 1} and
p = 1..4; k_max is 200 and 2000.

Regenerate the file, after a deliberate change of candidates, with::

    PYTHONPATH=src python tests/test_radius_candidates.py
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

import pytest

from pvalent import ClassParams, radius_close_to_convex, radius_convex, radius_starlike

TABLE = Path(__file__).with_name("radius_candidates.csv")
HEADER = ["p", "alpha", "A", "B", "mu", "delta", "zeta", "k_max", "kind", "count", "radius", "argmin_k",
          "certified", "first", "last", "sha256"]
# (p, alpha, A, B, mu, delta, zeta): each (mu, delta) pair at two valences
CLASSES = [
    (1, 0.0, 1.0, -1.0, 0.0, 1.0, 0.0),
    (3, 1.2, 0.4, -0.7, 0.0, 1.0, 2.5),
    (2, 0.5, 0.8, -0.4, 0.0, 0.0, 0.3),
    (4, 3.5, 0.9, 0.2, 0.0, 0.0, 1.0),
    (1, 0.3, 0.5, -0.5, 0.95, 1.0, 0.6),
    (4, 0.0, 1.0, -1.0, 0.95, 1.0, 0.0),
    (2, 1.9, 0.3, -0.9, 0.95, 0.0, 1.7),
    (3, 0.7, 1.0, 0.5, 0.95, 0.0, 0.25),
]
KINDS = (("starlike", radius_starlike), ("convex", radius_convex), ("ctc", radius_close_to_convex))


def _class_rows(p, alpha, A, B, mu, delta, zeta) -> list[list[str]]:
    cp, rows = ClassParams(p, alpha, A, B, mu, delta), []
    for k_max in (200, 2000):
        for kind, radius in KINDS:
            rep = radius(cp, zeta, k_max)
            digest = hashlib.sha256("".join(f"{k} {r.hex()}\n" for k, r in rep.candidates).encode())
            rows.append([*map(repr, (p, alpha, A, B, mu, delta, zeta)), str(k_max), kind, str(len(rep.candidates)),
                         repr(rep.radius), str(rep.argmin_k), str(rep.certified), repr(rep.candidates[0][1]),
                         repr(rep.candidates[-1][1]), digest.hexdigest()])
    return rows


def _frozen() -> list[list[str]]:
    with open(TABLE, newline="") as fh:
        return list(csv.reader(fh))


def test_table_holds_six_rows_per_class():
    frozen = _frozen()
    assert frozen[0] == HEADER and len(frozen) == 1 + len(CLASSES) * 2 * len(KINDS)


@pytest.mark.parametrize("i", range(len(CLASSES)))
def test_every_radius_candidate_is_frozen(i):
    per_class = 2 * len(KINDS)
    frozen = _frozen()[1 + i * per_class : 1 + (i + 1) * per_class]
    rows = _class_rows(*CLASSES[i])
    assert len(rows) == len(frozen) == per_class
    for row, want in zip(rows, frozen):
        assert row == want, row[:9]


if __name__ == "__main__":
    with open(TABLE, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([HEADER, *(row for c in CLASSES for row in _class_rows(*c))])

"""One test per acceptance criterion, same code the selftest subcommand runs.

Each test prints its own pass/fail line so `pytest -v` reads as the
acceptance table; failures carry the check detail in the assertion message.
"""

import dataclasses

import pytest

from pvalent.calculus_bounds import CompositionBound
from pvalent.selftest import (
    audit_rows,
    check_coefficient_bound,
    check_criterion_oracle_agreement,
    check_distortion,
    check_family_correspondence,
    check_fractional_compositions,
    check_hadamard_orders,
    check_printed_audit,
    check_quadrature_closed_form,
    check_radii,
)

SEED = 0


def _require(result):
    line = f"{'PASS' if result.passed else 'FAIL'}  {result.name}: {result.detail}"
    print(line)
    assert result.passed, line


def test_criterion_1_sharp_coefficient_bound():
    _require(check_coefficient_bound(SEED))


def test_criterion_2_criterion_matches_oracle():
    _require(check_criterion_oracle_agreement(SEED))


def test_criterion_3_quadrature_matches_closed_form():
    _require(check_quadrature_closed_form(SEED))


def test_criterion_4_family_correspondence():
    _require(check_family_correspondence(SEED))


def test_criterion_5_distortion_bounds():
    _require(check_distortion(SEED))


def test_criterion_6_radii():
    _require(check_radii(SEED))


def test_criterion_7_hadamard_orders():
    _require(check_hadamard_orders(SEED))


def test_criterion_8_fractional_compositions():
    _require(check_fractional_compositions(SEED))


def test_criterion_9_printed_form_audit():
    _require(check_printed_audit(SEED))
    rows = audit_rows()
    assert len(rows) == 8  # theorems 7..10 at p = 1 and p = 2
    for row in rows:
        assert {"theorem", "p", "eta", "lower", "upper", "printed_lower", "printed_upper"} <= set(row)
        assert list(row) == [f.name for f in dataclasses.fields(CompositionBound)] + ["p"]


def test_total_runtime_budget():
    """The whole battery must stay under two minutes; warn-level margin here."""
    import time

    from pvalent.selftest import run_all

    t0 = time.perf_counter()
    results = run_all(seed=SEED)
    elapsed = time.perf_counter() - t0
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]
    assert elapsed < 120.0


def test_audit_table_is_frozen():
    """Every audit value prints as in tests/audit_table.csv, the rows `selftest` prints."""
    import csv
    from pathlib import Path

    with open(Path(__file__).with_name("audit_table.csv"), newline="") as fh:
        frozen = list(csv.DictReader(fh))
    rows = audit_rows()
    assert len(rows) == len(frozen) == 8
    for row, want in zip(rows, frozen):
        for key, text in want.items():
            assert repr(row[key]) == text, (row["theorem"], row["p"], key)

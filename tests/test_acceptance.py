"""One test per acceptance criterion, read off the same battery the selftest subcommand runs.

The seed-0 battery runs once per session (:func:`test_frozen.battery`), and criterion n is its n-th row.
Each test prints its own pass/fail line so `pytest -v` reads as the acceptance table; failures carry the
check detail in the assertion message.
"""

from pvalent.calculus_bounds import CompositionBound
from pvalent.selftest import audit_rows
from test_frozen import battery

SEED = 0


def _require(criterion):
    result = battery(SEED)[criterion - 1]
    line = f"{'PASS' if result.passed else 'FAIL'}  {result.name}: {result.detail}"
    print(line)
    assert result.passed, line


def test_criterion_1_sharp_coefficient_bound():
    _require(1)


def test_criterion_2_criterion_matches_oracle():
    _require(2)


def test_criterion_3_quadrature_matches_closed_form():
    _require(3)


def test_criterion_4_family_correspondence():
    _require(4)


def test_criterion_5_distortion_bounds():
    _require(5)


def test_criterion_6_radii():
    _require(6)


def test_criterion_7_hadamard_orders():
    _require(7)


def test_criterion_8_fractional_compositions():
    _require(8)


def test_criterion_9_printed_form_audit():
    _require(9)
    rows = audit_rows()
    assert len(rows) == 8  # theorems 7..10 at p = 1 and p = 2
    for row in rows:
        assert {"theorem", "p", "eta", "lower", "upper", "printed_lower", "printed_upper"} <= set(row)
        assert list(row) == list(CompositionBound._fields) + ["p"]


def test_total_runtime_budget():
    """The whole battery must stay under two minutes, read as the sum of its rows' times; warn-level margin here."""
    results = battery(SEED)
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]
    assert sum(r.elapsed for r in results) < 120.0

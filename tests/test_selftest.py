"""The selftest harness: one name, one generator, one clock and one guard per check."""

import dataclasses
import itertools
import time

import numpy as np
import pytest

from pvalent import selftest
from pvalent.errors import ParameterOutOfRangeError

# the first helper each check calls, so that raising in all of them makes every check raise
HELPERS = (
    "make_series", "random_params", "coeff_bound_r", "coeff_bound_p", "radius_starlike",
    "schild_silverman_lambda", "composition_bound",
)


def test_a_raising_check_keeps_its_name(monkeypatch):
    names = [r.name for r in selftest.run_all(seed=0)]

    def boom(*args, **kwargs):
        raise RuntimeError("helper down")

    for helper in HELPERS:
        monkeypatch.setattr(selftest, helper, boom)
    results = selftest.run_all(seed=0)
    assert [r.name for r in results] == names
    for r in results:
        assert not r.passed
        assert r.detail == "raised RuntimeError('helper down')", r


def test_a_body_past_its_budget_fails_with_the_note():
    def body(failures, rng):
        time.sleep(0.01)
        return "done"

    result = selftest._check("slow", budget_s=0.001)(body)(seed=0)
    assert result.name == "slow" and not result.passed
    assert result.detail.startswith("took ") and result.detail.endswith(" s (budget 0.001 s)")
    assert result.elapsed >= 0.01


def test_the_body_gets_the_seeded_generator():
    def body(failures, rng):
        """A pass that reports its draw."""
        return repr(rng.random())

    check = selftest._check("draw")(body)
    result = check(7)
    assert result.passed and result.name == "draw"
    assert result.detail == repr(np.random.default_rng(7).random())
    assert check.__name__ == "body" and check.__doc__ == "A pass that reports its draw."
    assert check(np.int64(7)).detail == result.detail


@pytest.mark.parametrize("seed", [-1, True, 1.5, None])
def test_a_seed_that_is_not_a_non_negative_integer_is_refused_once(seed):
    """selftest --seed -1 once printed nine FAIL rows, each with the generator's ValueError."""
    calls = []
    check = selftest._check("draw")(lambda failures, rng: calls.append(rng) or "drawn")
    with pytest.raises(ParameterOutOfRangeError, match="seed must be an integer >= 0"):
        check(seed)
    assert calls == []


def test_failures_fail_the_row_and_replace_the_detail():
    def body(failures, rng):
        failures.extend(f"note {i}" for i in range(6))
        return "unused"

    result = selftest._check("noisy")(body)(seed=0)
    assert not result.passed
    assert result.detail == "note 0; note 1; note 2; note 3"


def _missed_on_draw(real, draw, move):
    """real, but at call draw (counted from 0) with (lower, upper) moved by move: a distortion pair or a
    composition bound."""
    calls = itertools.count()

    def bound(*args, **kwargs):
        got = real(*args, **kwargs)
        if next(calls) != draw:
            return got
        if isinstance(got, tuple):
            return move(*got)
        lower, upper = move(got.lower, got.upper)
        return dataclasses.replace(got, lower=lower, upper=upper)

    return bound


@pytest.mark.parametrize("check, bound", [("check_distortion", "distortion_bounds"),
                                          ("check_fractional_compositions", "composition_bound")])
def test_a_draw_outside_its_bound_fails_the_containment_check_at_that_draw(monkeypatch, check, bound):
    """Criteria 5 and 8: a value above the upper bound at draw 3, or a lower bound the extremal misses at draw 10,
    fails the row and names the draw."""
    real = getattr(selftest, bound)
    monkeypatch.setattr(selftest, bound, _missed_on_draw(real, 3, lambda lower, upper: (-2.0, -1.0)))
    result = getattr(selftest, check)(seed=0)
    assert not result.passed
    assert result.detail.startswith("draw 3: |") and result.detail.endswith(" outside [-2.0, -1.0]"), result.detail
    monkeypatch.setattr(selftest, bound, _missed_on_draw(real, 10, lambda lower, upper: (lower - 1e-6, upper)))
    result = getattr(selftest, check)(seed=0)
    assert not result.passed
    assert result.detail.startswith("draw 10: extremal value "), result.detail

"""The selftest harness: one name, one generator, one clock and one guard per check."""

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

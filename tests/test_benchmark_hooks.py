"""The benchmark's traced run wraps pvalent functions by name and binds some of their arguments.

``perfbench/spans.py`` lists those names in ``WRAPPED``; a rename or a changed
signature would silently drop them from the per-layer metrics, so they are
pinned here.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest
from test_frozen import battery

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrapped() -> dict:
    return _spans().WRAPPED


@pytest.mark.parametrize(
    "layer, name", [(layer, name) for layer, names in _wrapped().items() for name in names]
)
def test_wrapped_function_exists(layer, name):
    assert callable(getattr(importlib.import_module(f"pvalent.{layer}"), name))


@pytest.mark.parametrize(
    "name, params",
    [
        ("subordination_margin", {"f", "grid"}),
        ("starlike_min_re", {"f", "n_angles"}),
        ("convex_min_re", {"f", "n_angles"}),
        ("ctc_max_dev", {"f", "n_angles"}),
        ("locate_real_axis_violation", {"f"}),
    ],
)
def test_hooked_arguments_keep_their_names(name, params):
    from pvalent import oracle

    assert params <= set(inspect.signature(getattr(oracle, name)).parameters)


def test_selftest_names_are_the_benchmark_metric_names():
    assert tuple(r.name for r in battery(0)) == _spans().SELFTEST_NAMES


def test_every_check_takes_a_seed_keyword():
    from pvalent import selftest

    assert len(selftest.ALL_CHECKS) == 9
    for fn in selftest.ALL_CHECKS:
        inspect.signature(fn).bind(seed=0)

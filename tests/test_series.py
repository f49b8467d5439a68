"""Construction, evaluation and serialization of the series types."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvalent import (
    FractionalSeries,
    derivative_m,
    evaluate,
    hadamard_product,
    make_series,
)
from pvalent.errors import (
    DivergentInputError,
    DuplicateIndexError,
    ExponentUnderflowError,
    IndexBelowValenceError,
    NegativeCoefficientError,
    OrderExceedsValenceError,
    ParameterOutOfRangeError,
    SeriesFormatError,
    ValenceMismatchError,
)
from pvalent.series import from_json, to_json


def test_make_series_basic():
    f = make_series(1, [(2, 0.25), (4, 0.0)])
    assert f.p == 1
    assert f.truncation_degree == 4
    assert f.coefficient(2) == 0.25
    assert f.coefficient(4) == 0.0
    assert f.coefficient(3) == 0.0


def test_bare_monomial_degree_is_p():
    assert make_series(3).truncation_degree == 3


@pytest.mark.parametrize("p", [0, -2, True])
def test_rejects_bad_valence(p):
    with pytest.raises(ParameterOutOfRangeError):
        make_series(p, [(5, 0.1)])


def test_rejects_index_at_or_below_valence():
    with pytest.raises(IndexBelowValenceError):
        make_series(2, [(2, 0.1)])
    with pytest.raises(IndexBelowValenceError):
        make_series(2, [(1, 0.1)])


def test_rejects_duplicate_index():
    with pytest.raises(DuplicateIndexError):
        make_series(1, [(2, 0.1), (2, 0.2)])


def test_rejects_negative_coefficient():
    with pytest.raises(NegativeCoefficientError):
        make_series(1, [(2, -0.5)])


def test_evaluate_matches_direct_powers(rng):
    # Horner against a naive power sum on random draws
    for _ in range(50):
        p = int(rng.integers(1, 5))
        ks = rng.choice(np.arange(p + 1, p + 13), size=3, replace=False)
        f = make_series(p, [(int(k), float(rng.uniform(0, 2))) for k in ks])
        z = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        direct = z**p - sum(f.coefficient(int(k)) * z ** int(k) for k in ks)
        assert evaluate(f, z) == pytest.approx(direct, rel=1e-13, abs=1e-15)


def test_evaluate_at_zero():
    f = make_series(2, [(3, 1.0)])
    assert evaluate(f, 0.0) == 0.0


def test_derivative_order_zero_is_identity_map():
    f = make_series(1, [(2, 0.25)])
    g = derivative_m(f, 0)
    assert g.shift == 0.0 and g.leading == 1.0
    for x in (0.3, -0.5, 0.1 + 0.2j):
        assert g.evaluate(x) == pytest.approx(evaluate(f, x), rel=1e-14)


def test_first_derivative_values():
    f = make_series(1, [(2, 0.25)])
    d = derivative_m(f, 1)
    # f' = 1 - 0.5 z
    assert d.evaluate(0.4) == pytest.approx(0.8, rel=1e-15)
    assert d.evaluate(0.0) == 1.0


def test_derivative_shift_composes(rng):
    f = make_series(4, [(6, 0.3), (9, 0.1)])
    d2 = derivative_m(derivative_m(f, 1), 1)
    d2_direct = derivative_m(f, 2)
    z = 0.37 - 0.21j
    assert d2.evaluate(z) == pytest.approx(d2_direct.evaluate(z), rel=1e-13)
    assert d2.shift == d2_direct.shift


def test_derivative_order_above_valence_rejected():
    with pytest.raises(OrderExceedsValenceError):
        derivative_m(make_series(1, [(2, 0.1)]), 2)


def test_derivative_past_the_factorial_range_rounds_the_exact_product_once():
    """From s = 171 the falling factorial is no double: a coefficient inside double range comes back
    finite, rounded once from the exact product, and one past it raises a DomainError."""
    from fractions import Fraction

    for m in (168, 169, 170):
        d = derivative_m(make_series(170, [(171, 1e-300), (172, 0.0)]), m)
        assert d.leading == float(math.perm(170, m))  # a double: the bits of float(perm) * 1.0
        assert d.terms[171] == float(-math.perm(171, m) * Fraction(1e-300))
        assert math.copysign(1.0, d.terms[172]) == -1.0 and d.terms[172] == 0.0  # -0.0, as below s = 171
    with pytest.raises(DivergentInputError, match="order-171 derivative of z\\^171"):
        derivative_m(make_series(171), 171)
    with pytest.raises(DivergentInputError, match="order-170 derivative of z\\^171 times -1.0"):
        derivative_m(make_series(170, [(171, 1.0)]), 170)


@settings(max_examples=200)
@given(
    p=st.integers(1, 6),
    tail=st.dictionaries(st.integers(1, 40), st.floats(0.0, 10.0), max_size=8),
    r=st.floats(0.0, 1.0, exclude_max=True),
    theta=st.floats(-math.pi, math.pi),
)
def test_order_zero_derivative_evaluates_exactly_as_the_series(p, tail, r, theta):
    f = make_series(p, [(p + d, a) for d, a in tail.items()])
    z = r * complex(math.cos(theta), math.sin(theta))
    assert derivative_m(f, 0).evaluate(z) == evaluate(f, z)


def test_fractional_series_principal_branch():
    """|z^s| on a circle equals r^s regardless of angle."""
    fs = FractionalSeries(p=1, shift=0.5, leading=2.0, terms={3: -0.25})
    assert [fs.coefficient(k) for k in (1, 2, 3)] == [2.0, 0.0, -0.25]
    r = 0.7
    for theta in (0.3, 2.0, -1.2):
        z = r * complex(math.cos(theta), math.sin(theta))
        lead = abs(2.0 * z ** 1.5)
        assert lead == pytest.approx(2.0 * r**1.5, rel=1e-12)
        val = fs.evaluate(z)
        direct = 2.0 * z**1.5 - 0.25 * z**3.5
        assert val == pytest.approx(direct, rel=1e-12)


def test_fractional_series_zero_rules():
    # positive leading exponent: value 0; zero exponent: leading survives
    pos = FractionalSeries(p=1, shift=0.5, leading=1.0)
    assert pos.evaluate(0.0) == 0.0
    flat = FractionalSeries(p=1, shift=-1.0, leading=3.0)
    assert flat.evaluate(0.0) == 3.0


def test_fractional_series_exponent_validation():
    with pytest.raises(ExponentUnderflowError, match=r"leading exponent p\+shift = -0.5 is negative"):
        FractionalSeries(p=1, shift=-1.5, leading=1.0)
    with pytest.raises(ExponentUnderflowError):
        FractionalSeries(p=2, shift=-2.5, leading=1.0, terms={3: -0.1})
    # a nan shift once passed every check and evaluated to (nan+nanj)
    for shift in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterOutOfRangeError, match="exponent shift must be finite"):
            FractionalSeries(p=1, shift=shift, leading=1.0, terms={2: -0.25})
    assert issubclass(ExponentUnderflowError, ParameterOutOfRangeError)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_fractional_series_refuses_a_tail_value_that_is_not_finite(value):
    with pytest.raises(ParameterOutOfRangeError, match="coefficient at index 3 is not finite"):
        FractionalSeries(p=2, shift=0.0, leading=1.0, terms={3: value})


@pytest.mark.parametrize("leading", [math.inf, -math.inf, math.nan])
def test_fractional_series_refuses_a_leading_coefficient_that_is_not_finite(leading):
    # the tail values were refused, the leading coefficient was not
    with pytest.raises(ParameterOutOfRangeError, match="leading coefficient is not finite"):
        FractionalSeries(p=2, shift=0.0, leading=leading, terms={3: -1.0})


def test_derivative_leading_past_double_range_is_refused():
    # 2 * 1e308 rounds to inf: this once came back as a series with leading inf
    with pytest.raises(ParameterOutOfRangeError, match="leading coefficient is not finite"):
        derivative_m(FractionalSeries(p=2, shift=0.0, leading=1e308, terms={3: -1.0}), 1)


def test_hadamard_product_shared_indices_only():
    f = make_series(1, [(2, 0.5), (3, 2.0)])
    g = make_series(1, [(2, 0.25)])
    h = hadamard_product(f, g)
    assert dict(h.coeffs) == {2: 0.125}


def test_hadamard_product_valence_mismatch():
    with pytest.raises(ValenceMismatchError):
        hadamard_product(make_series(1, [(2, 0.1)]), make_series(2, [(3, 0.1)]))


def test_json_round_trip_keeps_explicit_zeros():
    f = make_series(1, [(2, 0.25), (4, 0.0)])
    g = from_json(to_json(f))
    assert g == f
    assert json.loads(to_json(f)) == {"p": 1, "coeffs": [[2, 0.25], [4, 0.0]]}


@settings(max_examples=50)
@given(
    p=st.integers(1, 6),
    tail=st.dictionaries(
        st.integers(1, 500),
        st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
        max_size=10,
    ),
)
def test_json_round_trip_property(p, tail):
    f = make_series(p, [(p + d, a) for d, a in tail.items()])
    g = from_json(to_json(f))
    assert g == f
    assert to_json(g) == to_json(f)


def test_from_json_error_split():
    # structural problems and malformed text map to different exceptions
    with pytest.raises(SeriesFormatError):
        from_json('{"p": 1, "coeffs": [[2]]}')
    with pytest.raises(SeriesFormatError):
        from_json("[1, 2]")
    with pytest.raises(json.JSONDecodeError):
        from_json('{"p": 1, "coeffs": [[2, 0.1]')
    # an integer-valued float index is the int, as in make_series
    assert from_json('{"p": 1, "coeffs": [[2.0, 0.1]]}') == make_series(1, [(2, 0.1)])

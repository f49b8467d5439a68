"""Smoothing operator, quadrature agreement and fractional calculus."""

import math

import mpmath
import numpy as np
import pytest

from pvalent import (
    QuadratureConfig,
    RafidParams,
    apply_rafid,
    bernardi,
    evaluate,
    fractional_derivative,
    fractional_integral,
    gamma_ratio,
    make_series,
    rafid_quadrature,
)
from pvalent.errors import (
    DivergentInputError,
    ExponentUnderflowError,
    ParameterOutOfRangeError,
    QuadratureUnavailableError,
)
from pvalent.operators import _laguerre_rule, rafid_multiplier, rafid_weight


def test_gamma_ratio_integer_gap_exact():
    assert gamma_ratio(5.0, 3.0) == 12.0
    assert gamma_ratio(3.0, 5.0) == 1.0 / 12.0
    assert gamma_ratio(7.5, 7.5) == 1.0
    # unit reciprocal used by the eta=1 classical check
    for k in range(1, 41):
        assert gamma_ratio(k + 1.0, k + 2.0) == 1.0 / (k + 1.0)


def test_gamma_ratio_lgamma_path():
    got = gamma_ratio(200.5, 100.25)
    want = math.exp(math.lgamma(200.5) - math.lgamma(100.25))
    assert got == pytest.approx(want, rel=1e-12)
    assert gamma_ratio(1e308, 1.0) == math.inf


@pytest.mark.parametrize(
    "x, y",
    [(5.5, 3.25), (3.0, 70.0), (200.5, 100.25), (10_000.0, 9_937.0), (10_000.5, 9_999.75)],
)
def test_gamma_ratio_matches_mpmath(x, y, mpref):
    with mpmath.workdps(50):
        want = mpmath.loggamma(x) - mpmath.loggamma(y)
    got = gamma_ratio(x, y)
    assert abs(math.log(got) - want) <= mpref.tolerance(math.lgamma(x), math.lgamma(y))


@pytest.mark.parametrize(
    "k, p, mu, delta",
    [
        (2, 1, 0.0, 1.0),
        (60, 2, 0.3, 0.6),
        (171, 1, 0.0, 1.0),  # first canonical index past double range
        (500, 3, 0.5, 0.25),
        (1_000, 1, 0.6, 1.0),  # (1-mu)^(k-p) alone underflows
        (10_000, 1, 0.0, 0.0),
        (10_000, 4, 0.9997, 0.7),
    ],
)
def test_rafid_multiplier_matches_mpmath(k, p, mu, delta, mpref):
    m, e = rafid_multiplier(k, p, RafidParams(mu, delta))
    want = mpref.log_weight(k, p, mu, delta)
    assert 0.5 <= m <= 1.0
    with mpmath.workdps(50):
        got = mpmath.log(m) + e * mpmath.log(2)
    assert abs(got - want) <= mpref.tolerance(want, math.lgamma(k + delta))


def test_rafid_weight_canonical():
    rp = RafidParams(0.0, 1.0)
    assert rafid_weight(2, 1, rp) == 2.0
    assert rafid_weight(3, 1, rp) == 6.0
    # mu damps geometrically on the index gap
    damped = RafidParams(0.5, 1.0)
    assert rafid_weight(3, 1, damped) == pytest.approx(6.0 * 0.25, rel=1e-15)


def test_rafid_params_validation():
    with pytest.raises(ParameterOutOfRangeError):
        RafidParams(1.0, 0.5)
    with pytest.raises(ParameterOutOfRangeError):
        RafidParams(0.0, 1.5)
    with pytest.raises(ParameterOutOfRangeError):
        RafidParams(-0.1, 0.5)


def test_apply_rafid_is_a_coefficient_map():
    f = make_series(1, [(2, 0.25), (5, 0.1)])
    rp = RafidParams(0.2, 0.7)
    g = apply_rafid(f, rp)
    for k in (2, 5):
        assert g.coefficient(k) == pytest.approx(
            f.coefficient(k) * rafid_weight(k, 1, rp), rel=1e-15
        )


def test_quadrature_matches_closed_form(rng):
    q = QuadratureConfig(nodes=64)
    for _ in range(40):
        p = int(rng.integers(1, 5))
        ks = rng.choice(np.arange(p + 1, p + 13), size=3, replace=False)
        f = make_series(p, [(int(k), float(rng.uniform(0, 2))) for k in ks])
        rp = RafidParams(float(rng.uniform(0, 0.9)), float(rng.uniform(0.1, 1.0)))
        theta = float(rng.uniform(0, 2 * math.pi))
        z = float(rng.uniform(0.1, 0.9)) * complex(math.cos(theta), math.sin(theta))
        exact = evaluate(apply_rafid(f, rp), z)
        quad = rafid_quadrature(f, rp, z, q)
        assert abs(quad - exact) <= 1e-8 * abs(exact)


@pytest.mark.parametrize("a", [-0.9, -0.5, 0.0])
@pytest.mark.parametrize("n", [8, 64, 128])
def test_laguerre_rule_moments(n, a):
    """The n-point rule integrates u^d against u^a e^-u to Gamma(a+d+1) for d < 2n (up to 39)."""
    x, w = _laguerre_rule(n, a)
    assert np.all(x > 0.0) and np.all(np.diff(x) > 0.0)
    assert np.all(np.isfinite(w)) and np.all(w > 0.0)
    for d in range(min(40, 2 * n)):
        moment = math.fsum(w * x**d)
        assert moment == pytest.approx(math.gamma(a + d + 1.0), rel=1e-13)


def test_quadrature_delta_zero_fallback():
    """delta=0 has no weight function; the closed form takes over unless forbidden."""
    f = make_series(1, [(2, 0.25)])
    rp = RafidParams(0.3, 0.0)
    assert rafid_quadrature(f, rp, 0.4) == evaluate(apply_rafid(f, rp), 0.4)
    with pytest.raises(QuadratureUnavailableError):
        rafid_quadrature(f, rp, 0.4, require_quadrature=True)


def test_quadrature_rejects_boundary():
    f = make_series(1, [(2, 0.25)])
    with pytest.raises(DivergentInputError):
        rafid_quadrature(f, RafidParams(0.0, 1.0), 1.0)


def test_quadrature_config_validation():
    with pytest.raises(ParameterOutOfRangeError):
        QuadratureConfig(nodes=4)


def test_bernardi_coefficient_map():
    f = make_series(1, [(2, 0.25)])
    b = bernardi(f, 1.0)
    # multiplier (c+p)/(c+k)
    assert b.coefficient(2) == pytest.approx(0.25 * 2.0 / 3.0, rel=1e-15)
    with pytest.raises(ParameterOutOfRangeError):
        bernardi(f, -1.0)


def test_bernardi_on_fractional_series():
    # the multiplier reads the actual exponent, not the integer index
    f = make_series(1, [(2, 0.25)])
    fi = fractional_integral(f, 0.5)
    b = bernardi(fi, 1.0)
    assert b.leading == pytest.approx(fi.leading * 2.0 / 2.5, rel=1e-15)
    assert b.terms[2] == pytest.approx(fi.terms[2] * 2.0 / 3.5, rel=1e-15)
    with pytest.raises(ParameterOutOfRangeError):
        bernardi(fi, -1.5)


def test_fractional_integral_frozen_example():
    fi = fractional_integral(make_series(1, [(2, 0.25)]), 1.0)
    assert fi.shift == 1.0
    assert fi.leading == 0.5
    assert fi.terms[2] == -(0.25 / 3.0)


def test_fractional_derivative_of_monomial():
    fd = fractional_derivative(make_series(1), 0.5)
    # Gamma(2)/Gamma(3/2) = 2/sqrt(pi)
    assert fd.leading == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-14)
    assert fd.shift == -0.5


def test_fractional_roundtrip(rng):
    for _ in range(100):
        p = int(rng.integers(1, 5))
        ks = rng.choice(np.arange(p + 1, p + 13), size=4, replace=False)
        f = make_series(p, [(int(k), float(rng.uniform(0, 5))) for k in ks])
        eta = float(rng.uniform(0.05, 0.95))
        g = fractional_derivative(fractional_integral(f, eta), eta)
        assert g.shift == 0.0
        assert abs(g.leading - 1.0) <= 1e-10
        for k in ks:
            want = -f.coefficient(int(k))
            assert g.terms[int(k)] == pytest.approx(want, rel=1e-10)


def test_fractional_parameter_validation():
    f = make_series(1, [(2, 0.25)])
    with pytest.raises(ParameterOutOfRangeError):
        fractional_integral(f, 0.0)
    with pytest.raises(ParameterOutOfRangeError):
        fractional_derivative(f, 1.0)
    with pytest.raises(ExponentUnderflowError):
        fractional_derivative(fractional_derivative(f, 0.9), 0.9)

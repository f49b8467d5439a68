"""Smoothing operator, quadrature agreement and fractional calculus."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvalent import (
    ClassParams,
    RafidParams,
    apply_rafid,
    bernardi,
    check_r_membership,
    evaluate,
    fractional_derivative,
    fractional_integral,
    gamma_ratio,
    make_series,
    r_criterion_term,
    rafid_quadrature,
)
from pvalent.errors import (
    DivergentInputError,
    ExponentUnderflowError,
    IndexBelowValenceError,
    NonpositiveArgumentError,
    ParameterOutOfRangeError,
)
from pvalent import operators
from pvalent.operators import _laguerre_rule, rafid_multiplier, rafid_multipliers, rafid_weight


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
    # past about 2.55e305 lgamma overflows: the side of the larger argument wins, and an exp overflow stays inf
    assert gamma_ratio(2.0, 2.5e305) == 0.0
    assert gamma_ratio(2.0, 2.6e305) == 0.0  # once read inf
    assert gamma_ratio(2.6e305, 2.0) == math.inf
    assert gamma_ratio(2.6e305, 2.7e305) == 0.0 and gamma_ratio(2.7e305, 2.6e305) == math.inf
    # 1e-310 - 1.0 rounds to -1.0, an integer gap: the exact product 1/1e-310 overflows
    assert gamma_ratio(1e-310, 1.0) == math.inf
    assert gamma_ratio(1e-310, 1.5) == math.inf  # both log-gammas finite, the exp past double range


@pytest.mark.parametrize("x, y", [(math.inf, math.inf), (math.inf, 1.0), (1.0, math.inf)])
def test_gamma_ratio_refuses_infinite_arguments(x, y):
    """inf once passed the positivity check: (inf, inf) read nan, (inf, 1) inf and (1, inf) 0.0."""
    with pytest.raises(NonpositiveArgumentError, match=r"^gamma_ratio needs finite positive arguments, got"):
        gamma_ratio(x, y)


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


def test_multiplier_sequence_matches_mpmath(mpref):
    """Every index p+1..p+80 of one series: w_k a_k within 2(k-p+1) ulp-units of 40 digits."""
    rng = np.random.default_rng(6)
    for _ in range(45):
        p = int(rng.integers(1, 5))
        mu, delta = float(rng.uniform(0.0, 0.95)), float(rng.uniform(0.0, 1.0))
        f = make_series(p, [(k, float(rng.uniform(0.5, 1.0))) for k in range(p + 1, p + 81)])
        g = apply_rafid(f, RafidParams(mu, delta))
        with mpmath.workdps(40):
            for k in range(p + 1, p + 81):
                want = mpmath.exp(mpref.log_weight(k, p, mu, delta)) * f.coeffs[k]
                rel = abs((g.coeffs[k] - want) / want)
                assert rel <= 2 * (k - p + 1) * 2.0**-52, (p, mu, delta, k, float(rel))


@settings(max_examples=60)
@given(
    p=st.integers(1, 4),
    mu=st.floats(0.0, 0.95),
    delta=st.floats(0.0, 1.0),
    coeffs=st.dictionaries(st.integers(1, 60), st.floats(1e-3, 1.0), min_size=1, max_size=8),
)
def test_sequence_gives_each_lone_value_bit_for_bit(p, mu, delta, coeffs):
    """One pass over a sorted index set reproduces every lone-index walk exactly."""
    cp = ClassParams(p=p, mu=mu, delta=delta)
    f = make_series(p, [(p + gap, a) for gap, a in coeffs.items()])
    g = apply_rafid(f, cp.rafid)
    per_term = dict(check_r_membership(f, cp).per_term)
    for k, a in f.coeffs.items():
        assert g.coeffs[k] == rafid_weight(k, p, cp.rafid) * a
        assert per_term[k] == r_criterion_term(k, cp) * a
    ks = sorted(f.coeffs)
    lone = [rafid_multiplier(k, p, cp.rafid) for k in ks]
    assert list(rafid_multipliers(p, cp.rafid, ks)) == lone


def test_sequence_refuses_a_decreasing_or_low_index():
    rp = RafidParams(0.3, 0.7)
    assert len(list(rafid_multipliers(2, rp, [3, 3, 5]))) == 3
    with pytest.raises(ParameterOutOfRangeError, match="nondecreasing"):
        list(rafid_multipliers(2, rp, [5, 4]))
    with pytest.raises(IndexBelowValenceError):
        list(rafid_multipliers(2, rp, [3, 1]))
    with pytest.raises(IndexBelowValenceError):
        rafid_weight(1, 2, rp)


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
    for _ in range(40):
        p = int(rng.integers(1, 5))
        ks = rng.choice(np.arange(p + 1, p + 13), size=3, replace=False)
        f = make_series(p, [(int(k), float(rng.uniform(0, 2))) for k in ks])
        rp = RafidParams(float(rng.uniform(0, 0.9)), float(rng.uniform(0.1, 1.0)))
        theta = float(rng.uniform(0, 2 * math.pi))
        z = float(rng.uniform(0.1, 0.9)) * complex(math.cos(theta), math.sin(theta))
        exact = evaluate(apply_rafid(f, rp), z)
        quad = rafid_quadrature(f, rp, z)
        assert abs(quad - exact) <= 1e-8 * abs(exact)


@pytest.mark.parametrize("a", [-0.9, -0.5, 0.0, 300.5])  # Gamma(301.5) overflows a double
@pytest.mark.parametrize("n", [8, 64, 128])
def test_laguerre_rule_moments(n, a):
    """The n-point rule integrates u^d against u^a e^-u / Gamma(a+1) to Gamma(a+d+1)/Gamma(a+1) for d < 2n (up to 39)."""
    x, w = _laguerre_rule(n, a)
    assert np.all(x > 0.0) and np.all(np.diff(x) > 0.0)
    assert np.all(np.isfinite(w)) and np.all(w > 0.0)
    for d in range(min(40, 2 * n)):
        moment = math.fsum(w * x**d)
        assert moment == pytest.approx(float(mpmath.rf(mpmath.mpf(a) + 1, d)), rel=1e-13)


@pytest.mark.parametrize("a", [-0.9, -0.5])
def test_laguerre_nodes_match_mpmath(a):
    """At n = 64 every node is within 1e-14 relative of the 40-digit Jacobi eigenvalues."""
    n = 64
    with mpmath.workdps(40):
        jacobi = mpmath.zeros(n, n)
        for i in range(n):
            jacobi[i, i] = 2 * i + mpmath.mpf(a) + 1
            if i:
                jacobi[i, i - 1] = jacobi[i - 1, i] = mpmath.sqrt(i * (i + mpmath.mpf(a)))
        ref = sorted(mpmath.eigsy(jacobi, eigvals_only=True))
    x, _ = _laguerre_rule(n, a)
    for node, exact in zip(x, ref):
        assert float(abs(node - exact) / exact) <= 1e-14


def test_quadrature_delta_zero_fallback(monkeypatch):
    """delta = 0 takes the one quadrature path, with the rule for u^(p-1) e^-u, and meets the closed form."""
    calls = []

    def spy(n, a):
        calls.append(a)
        return _laguerre_rule(n, a)

    monkeypatch.setattr(operators, "_laguerre_rule", spy)
    for p in (1, 3):
        f = make_series(p, [(p + 1, 0.25), (p + 5, 0.01)])
        rp = RafidParams(0.3, 0.0)
        exact = evaluate(apply_rafid(f, rp), 0.4)
        assert abs(rafid_quadrature(f, rp, 0.4) - exact) <= 1e-15 * abs(exact)
    assert calls == [0.0, 2.0]


def test_quadrature_rejects_boundary():
    f = make_series(1, [(2, 0.25)])
    with pytest.raises(DivergentInputError):
        rafid_quadrature(f, RafidParams(0.0, 1.0), 1.0)


@pytest.mark.parametrize("z", [complex("nan"), complex(0.5, math.nan), complex(math.inf, 0.0)])
@pytest.mark.parametrize("delta", [0.7, 0.0])
def test_quadrature_refuses_non_finite_points(z, delta):
    f = make_series(1, [(2, 0.25)])
    with pytest.raises(DivergentInputError):
        rafid_quadrature(f, RafidParams(0.3, delta), z)


@pytest.mark.parametrize(
    "p, coeffs, size",
    [
        (1, [], 8),  # a bare monomial: D = p
        (1, [(2, 0.25)], 8),
        (1, [(15, 0.01)], 8),
        (1, [(16, 0.01)], 8),
        (1, [(2, 0.25), (41, 1e-40)], 21),
        (1, [(2, 0.25), (300, 0.0)], 8),  # an explicit zero does not raise the degree
        (1, [(2, 0.25), (126, 1e-200)], 63),
        (1, [(2, 0.25), (127, 1e-200)], 64),  # D - p >= 126: the cap binds
        (1, [(2, 0.25), (200, 1e-300)], 64),
        (15, [], 8),
        (16, [], 8),
        (40, [], 8),  # D - p, not D, sets the size
    ],
)
def test_quadrature_rule_is_sized_to_the_degree(monkeypatch, p, coeffs, size):
    """n = min(64, max(8, (D-p)//2 + 1)) for D the highest index with a nonzero coefficient, else p."""
    sizes = []

    def spy(n, a):
        sizes.append(n)
        return _laguerre_rule(n, a)

    monkeypatch.setattr(operators, "_laguerre_rule", spy)
    rafid_quadrature(make_series(p, coeffs), RafidParams(0.3, 0.7), 0.4)
    assert sizes == [size]


def test_quadrature_matches_mpmath_up_to_degree_p_plus_60(mpref):
    """Seeded members up to degree p+60 agree with a 40-digit closed form to 1e-13 relative.

    Image coefficients a_k w_k share a budget below one, so |value| >= (1 - budget) |z|^p
    and the relative error is well conditioned.  Besides p in 1..4 the draws take p = 170,
    171 and 400, with delta = 0 on every fourth, and |z| >= 10^(-250/p) keeps |z|^p in range;
    one fixed member at p = 170 sits near the boundary, at z = 0.999, and one at p = 5000 holds
    the subnormal a_5086 = 1.2e-319 with a share of about 0.31.  The reference takes z^p as the
    double the code forms too: its rounding, about p ulp, is not the quadrature's.
    """
    rng = np.random.default_rng(60)
    rp = RafidParams(0.5, 0.5)
    members = [
        (make_series(170, [(171, 0.5 / rafid_weight(171, 170, rp))]), rp, 0.999 + 0j),
        (make_series(5000, [(5001, 1e-4), (5086, 1.2e-319)]), RafidParams(0.0, 1.0), 0.99j),
    ]
    for i in range(124):
        p = int(rng.integers(1, 5)) if i < 100 else (170, 171, 400)[i % 3]
        mu = float(rng.uniform(0.0, 0.9))
        delta = rng.uniform(0.1, 1.0) if i < 100 else 0.0 if i % 4 == 0 else rng.uniform(0.0, 1.0)
        rp = RafidParams(mu, delta)
        ks = sorted(int(k) for k in p + 1 + rng.choice(60, size=int(rng.integers(1, 7)), replace=False))
        shares = rng.dirichlet(np.ones(len(ks))) * rng.uniform(0.0, 0.999)
        r = rng.uniform(max(0.1, 10.0 ** (-250 / p)), 0.9)
        z = complex(r * np.exp(1j * rng.uniform(0.0, 2 * math.pi)))
        with mpmath.workdps(40):
            w = {k: mpmath.exp(mpref.log_weight(k, p, rp.mu, rp.delta)) for k in ks}
            members.append((make_series(p, [(k, float(share / w[k])) for k, share in zip(ks, shares)]), rp, z))
    for f, rp, z in members:
        with mpmath.workdps(40):
            zz = mpmath.mpc(z)
            exact = mpmath.mpc(z**f.p) * (1 - mpmath.fsum(
                mpmath.mpf(a) * mpmath.exp(mpref.log_weight(k, f.p, rp.mu, rp.delta)) * zz ** (k - f.p)
                for k, a in f.coeffs.items()
            ))
            got = rafid_quadrature(f, rp, z)
            assert abs(mpmath.mpc(got) - exact) <= 1e-13 * abs(exact)


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


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_bernardi_refuses_non_finite_c(c):
    f = make_series(1, [(2, 0.25)])
    for g in (f, fractional_integral(f, 0.5)):
        with pytest.raises(ParameterOutOfRangeError):
            bernardi(g, c)


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
    with pytest.raises(ExponentUnderflowError, match=r"leading exponent p\+shift = -0.8 is negative"):
        fractional_derivative(fractional_derivative(f, 0.9), 0.9)


def test_fractional_integral_at_a_huge_order():
    # Gamma(s+1)/Gamma(s+1+eta) underflows: coefficients 0.0, where "leading coefficient is not finite" was raised
    fi = fractional_integral(make_series(1, [(2, 0.25)]), 3e305)
    assert (fi.shift, fi.leading, fi.terms) == (3e305, 0.0, {2: 0.0})


@pytest.mark.parametrize("k", [2.5, math.inf, math.nan])
def test_lone_weight_refuses_a_non_integer_index(k):
    with pytest.raises(IndexBelowValenceError):
        rafid_weight(k, 1, RafidParams(mu=0.3, delta=0.5))
    with pytest.raises(IndexBelowValenceError):
        rafid_multiplier(k, 1, RafidParams())


def test_lone_weight_takes_integer_valued_indices():
    rp = RafidParams(mu=0.3, delta=0.5)
    assert rafid_weight(5.0, 2, rp) == rafid_weight(np.int64(5), 2, rp) == rafid_weight(5, 2, rp)


@pytest.mark.parametrize("p, coeffs", [(1, [(2, 1e308)]), (3000, [(3200, 1.0)]), (1, [(2, 5e307)])])
def test_quadrature_refuses_a_horner_sum_past_double_range(p, coeffs):
    """Once a scaled coefficient or a Horner step leaves double range the quadrature refuses, with no nan or warning."""
    with pytest.raises(DivergentInputError, match="exceeds double range"):
        rafid_quadrature(make_series(p, coeffs), RafidParams(0.0, 1.0), 0.9)


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_pow2_product_gives_a_zero_factor_itself(zero):
    """A zero factor gives that zero, sign included, also against an inf mantissa, where m a would read nan."""
    from pvalent.operators import pow2_product

    for m, e, a in [(math.inf, 0, zero), (math.inf, -3000, zero), (0.75, 2000, zero), (zero, 0, math.inf), (zero, 5, 3.0)]:
        got = pow2_product(m, e, a)
        assert got == 0.0 and math.copysign(1.0, got) == math.copysign(1.0, zero), (m, e, a)

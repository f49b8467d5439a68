"""Bounds for Bernardi/fractional compositions and the printed-form audit."""

import math
import warnings

import mpmath
import pytest

from pvalent import (
    ClassParams,
    bernardi,
    budget_certified,
    check_r_membership,
    composed_extremal,
    composition_bound,
    composition_certified,
    fractional_derivative,
    fractional_integral,
    lower_bound_peak,
    make_series,
    r_criterion_term,
    random_member,
    random_params,
)
from pvalent.calculus_bounds import THEOREMS, _multiplier
from pvalent.errors import ParameterOutOfRangeError, UncertifiedBoundWarning

CANONICAL = ClassParams()


def _compose(theorem, f, c, eta):
    # same operator order as composed_extremal, applied to an arbitrary series
    if theorem == 7:
        return fractional_integral(bernardi(f, c), eta)
    if theorem == 8:
        return fractional_derivative(bernardi(f, c), eta)
    if theorem == 9:
        return bernardi(fractional_derivative(f, eta), c)
    return bernardi(fractional_integral(f, eta), c)


def test_theorem_list():
    assert THEOREMS == (7, 8, 9, 10)


def test_canonical_t7_frozen():
    b = composition_bound(7, CANONICAL, 1.0, 1.0, 0.5, include_printed=False)
    assert b.lower == 17.0 / 144.0
    assert b.upper == pytest.approx(19.0 / 144.0, rel=1e-15)


def test_t7_lower_attained_by_composed_extremal(rng):
    for _ in range(25):
        cp = random_params(rng, require_budget_orders=(0,))
        c = float(rng.uniform(-cp.p + 0.5, 3.0))
        eta = float(rng.uniform(0.1, 1.5))
        r = float(rng.uniform(0.05, 0.95))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UncertifiedBoundWarning)
            b = composition_bound(7, cp, c, eta, r, include_printed=False)
        val = composed_extremal(7, cp, c, eta).evaluate(r)
        assert val.imag == 0.0
        assert abs(val.real - b.lower) <= 1e-10 * max(1.0, abs(b.lower))


def test_containment_under_light_damping(rng):
    """mu=0 keeps every multiplier ratio below the criterion ratio."""
    for theorem in (8, 9, 10):
        for _ in range(25):
            cp = random_params(rng, mu_range=(0.0, 0.0))
            eta = float(rng.uniform(0.1, 0.9))
            c = float(rng.uniform(-cp.p + 0.5, 3.0))
            if theorem == 9 and c + cp.p - eta <= 0:
                continue
            r = float(rng.uniform(0.05, 0.95))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UncertifiedBoundWarning)
                b = composition_bound(theorem, cp, c, eta, r, include_printed=False)
            f = random_member(cp, rng)
            theta = float(rng.uniform(0, 2 * math.pi))
            z = r * complex(math.cos(theta), math.sin(theta))
            val = abs(_compose(theorem, f, c, eta).evaluate(z))
            slack = 1e-12 * max(1.0, b.upper)
            assert b.lower - slack <= val <= b.upper + slack


def test_growth_multiplier_defeats_order_zero_budget():
    """A member can exceed the aggregated bound when the multiplier grows in k."""
    cp = ClassParams(mu=0.75)
    assert budget_certified(cp, 0)
    assert not composition_certified(8, cp, 2.0, 0.9)
    f = make_series(1, [(3, 1.0 / r_criterion_term(3, cp))])
    assert check_r_membership(f, cp).member
    with pytest.warns(UncertifiedBoundWarning):
        b = composition_bound(8, cp, 2.0, 0.9, 0.99, include_printed=False)
    val = abs(fractional_derivative(bernardi(f, 2.0), 0.9).evaluate(0.99j))
    assert val > b.upper + 5e-3


def test_decreasing_multipliers_stay_certified(rng):
    # theorems 7 and 10 shrink coefficients with k, so the budget carries over
    for _ in range(25):
        cp = random_params(rng, require_budget_orders=(0,))
        c = float(rng.uniform(-cp.p + 0.5, 3.0))
        eta = float(rng.uniform(0.1, 1.5))
        assert composition_certified(7, cp, c, eta)
        assert composition_certified(10, cp, c, eta)


def test_printed_divergence_map():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UncertifiedBoundWarning)
        t7 = composition_bound(7, CANONICAL, 1.0, 1.0, 0.5)
        t8 = composition_bound(8, CANONICAL, 1.0, 0.5, 0.5)
        t9 = composition_bound(9, CANONICAL, 1.0, 0.5, 0.5)
        t10 = composition_bound(10, CANONICAL, 1.0, 1.0, 0.5)
    # the printed lower for 7 carries a sign slip that lands on the upper value
    assert math.isclose(t7.printed_lower, t7.upper, rel_tol=1e-15)
    assert not math.isclose(t7.printed_upper, t7.upper, rel_tol=1e-9)
    # 8: leading prefactor diverges on both lines
    assert not math.isclose(t8.printed_lower, t8.lower, rel_tol=1e-9)
    # 9: both printed lines are the same expression
    assert t9.printed_upper == t9.printed_lower
    assert not math.isclose(t9.printed_upper, t9.upper, rel_tol=1e-9)
    # 10: tail ratio pins a stray 1/Gamma(p+1) plus an eta shift
    ratio1 = (t10.printed_upper - t10.printed_lower) / (t10.upper - t10.lower)
    assert ratio1 == pytest.approx(4.0 / 3.0, rel=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UncertifiedBoundWarning)
        t10p2 = composition_bound(10, ClassParams(p=2), 1.0, 1.0, 0.5)
    ratio2 = (t10p2.printed_upper - t10p2.printed_lower) / (t10p2.upper - t10p2.lower)
    assert ratio2 == pytest.approx(5.0 / 8.0, rel=1e-12)


def test_printed_values_omitted_on_request():
    b = composition_bound(7, CANONICAL, 1.0, 1.0, 0.5, include_printed=False)
    assert b.printed_lower is None and b.printed_upper is None


def test_lower_bound_peak_is_a_turnover():
    cp = ClassParams(mu=0.9)  # big budget pulls the turnover inside the disk
    r_star = lower_bound_peak(7, cp, 1.0, 1.0)
    assert 0.0 < r_star < 1.0

    def lower_at(r):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UncertifiedBoundWarning)
            return composition_bound(7, cp, 1.0, 1.0, r, include_printed=False).lower

    eps = 1e-4
    assert lower_at(r_star) >= lower_at(r_star - eps)
    assert lower_at(r_star) >= lower_at(r_star + eps)


def test_validation():
    with pytest.raises(ParameterOutOfRangeError):
        composition_bound(6, CANONICAL, 1.0, 1.0, 0.5)
    with pytest.raises(ParameterOutOfRangeError):
        composition_bound(7, CANONICAL, 1.0, 1.0, 1.0)
    with pytest.raises(ParameterOutOfRangeError):
        composition_bound(9, CANONICAL, -0.6, 0.7, 0.5)  # needs c + p - eta > 0


@pytest.mark.parametrize("theorem", THEOREMS)
@pytest.mark.parametrize("k", [2, 3, 50, 1_000, 10_000])
def test_composition_multiplier_matches_mpmath(theorem, k, mpref):
    p, c, eta = 2, 0.7, 0.45
    with mpmath.workdps(50):
        c_, eta_ = mpmath.mpf(c), mpmath.mpf(eta)

        def ratio(s):  # Gamma(k+1)/Gamma(k+1+s), the fractional multiplier on z^k
            return mpmath.exp(mpmath.loggamma(k + 1) - mpmath.loggamma(k + 1 + s))

        want = {
            7: (c_ + p) / (c_ + k) * ratio(eta_),  # Bernardi, then the integral
            8: (c_ + p) / (c_ + k) * ratio(-eta_),  # Bernardi, then the derivative
            9: ratio(-eta_) * (c_ + p) / (c_ + k - eta_),  # derivative, then Bernardi
            10: ratio(eta_) * (c_ + p) / (c_ + k + eta_),  # integral, then Bernardi
        }[theorem]
    got = _multiplier(theorem, p, c, eta, k)
    assert got == pytest.approx(float(want), rel=mpref.tolerance(math.lgamma(k + 1.0)))


@pytest.mark.parametrize("theorem", [7, 10])
def test_integral_compositions_refuse_an_infinite_order(theorem):
    # eta = inf once gave lower = upper = 0.0, and a nan peak
    cp = ClassParams()
    with pytest.raises(ParameterOutOfRangeError):
        composition_bound(theorem, cp, 1.0, math.inf, 0.5)
    with pytest.raises(ParameterOutOfRangeError):
        composition_bound(theorem, cp, 1.0, math.inf, 0.5, include_printed=False)
    with pytest.raises(ParameterOutOfRangeError):
        lower_bound_peak(theorem, cp, 1.0, math.inf)
    with pytest.raises(ParameterOutOfRangeError):
        composition_certified(theorem, cp, 1.0, math.inf)

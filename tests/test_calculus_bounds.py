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
from pvalent.calculus_bounds import THEOREMS, _composition, _multiplier
from pvalent.errors import DomainError, ParameterOutOfRangeError, UncertifiedBoundWarning

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


@pytest.mark.parametrize("theorem", [7, 10])
@pytest.mark.parametrize("eta", [170.0, 180.0, 200.0])
def test_lower_bound_peak_at_a_large_integral_order(theorem, eta, mpref):
    # A0 and A1 T both underflow here, and A0 e0 / (A1 T (e0+1)) once raised ZeroDivisionError
    for cp, c in [(ClassParams(), 1.0), (ClassParams(p=3, alpha=0.5, A=0.5, B=-0.5, mu=0.6, delta=0.3), 0.25)]:
        p = cp.p
        with mpmath.workdps(50):
            eta_ = mpmath.mpf(eta)

            def mult(k):  # 7: Bernardi, then the integral; 10: the integral, then Bernardi
                return mpref.composed_multiplier(k, p, c, eta, eta if theorem == 10 else 0)

            t = mpmath.exp(-mpref.log_term(p + 1, cp))
            want = mult(p) * (p + eta_) / (mult(p + 1) * t * (p + eta_ + 1))
        assert lower_bound_peak(theorem, cp, c, eta) == pytest.approx(float(want), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("theorem, peak", [(7, 9e305), (10, 6e305)])
def test_lower_bound_peak_at_a_huge_integral_order(theorem, peak, mpref):
    # the peak once read inf here: (p+1+s)/(p+1) times e0 passed double range before the division by e0 + 1
    cp, eta = ClassParams(), 3e305
    with mpmath.workdps(50):
        s = mpmath.mpf(eta)
        b = s if theorem == 10 else 0  # 10: the integral, then Bernardi, which sees the shifted exponent
        t = mpmath.exp(-mpref.log_term(2, cp))
        want = (2 + s) / 2 * (3 + b) / (2 + b) * (1 + s) / (t * (2 + s))
    assert lower_bound_peak(theorem, cp, 1.0, eta) == pytest.approx(float(want), rel=1e-15, abs=0.0)
    assert float(want) == pytest.approx(peak, rel=1e-15)


@pytest.mark.parametrize("p", [1, 2])
def test_printed_form_7_needs_eta_below_p_plus_2(p):
    # Gamma(p - eta + 2) once raised "gamma_ratio needs positive arguments", naming an internal function
    cp = ClassParams(p=p)
    assert composition_bound(7, cp, 1.0, math.nextafter(p + 2.0, 0.0), 0.5).printed_upper > 0.0
    for eta in (p + 2.0, 200.0):
        assert composition_bound(7, cp, 1.0, eta, 0.5, include_printed=False).printed_upper is None
        with pytest.raises(DomainError, match=r"Gamma\(p - eta \+ 2\) with eta < p \+ 2.*include_printed=False"):
            composition_bound(7, cp, 1.0, eta, 0.5)


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
    s, b = {
        7: (eta, 0),  # Bernardi, then the integral
        8: (-eta, 0),  # Bernardi, then the derivative
        9: (-eta, -eta),  # derivative, then Bernardi
        10: (eta, eta),  # integral, then Bernardi
    }[theorem]
    want = mpref.composed_multiplier(k, p, c, s, b)
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


@pytest.mark.parametrize("theorem", [7, 10])
def test_integral_compositions_answer_at_a_huge_order(theorem):
    # log Gamma(k+1+eta) overflows past about 2.55e305: the scan once raised a bare OverflowError here
    cp = ClassParams()
    assert composition_certified(theorem, cp, 1.0, 3e305) is True
    bound = composition_bound(theorem, cp, 1.0, 3e305, 0.5, include_printed=False)
    assert (bound.lower, bound.upper) == (0.0, 0.0)


# p = 2: (c + p) - eta rounds above 0 here, while the Bernardi integral's own c + (p - eta) does not
WITNESS_9 = dict(eta=0.36995516654807925, c=-1.6300448334519206)


def test_composition_9_refuses_through_the_bernardi_rule():
    cp, c, eta = ClassParams(p=2), WITNESS_9["c"], WITNESS_9["eta"]
    with pytest.raises(ParameterOutOfRangeError) as bernardi_error:
        bernardi(fractional_derivative(make_series(2, [(3, 0.1)]), eta), c)
    for call in (
        lambda: composition_bound(9, cp, c, eta, 0.5),
        lambda: composition_bound(9, cp, c, eta, 0.5, include_printed=False),
        lambda: lower_bound_peak(9, cp, c, eta),
        lambda: composed_extremal(9, cp, c, eta),
        lambda: composition_certified(9, cp, c, eta),
    ):
        with pytest.raises(ParameterOutOfRangeError) as err:
            call()
        assert str(err.value) == str(bernardi_error.value)


def test_composition_9_refuses_where_its_leading_denominator_is_zero():
    # c + (1 - eta) = 2^-55 passes the Bernardi rule, but the derived bounds
    # divide by (c + 1) - eta, where c + 1 rounds to eta
    eta = 0.75
    c = math.nextafter(eta - 1.0, 0.0)
    assert c + (1.0 - eta) > 0.0 and (c + 1.0) - eta == 0.0
    bernardi(fractional_derivative(make_series(1, [(2, 0.1)]), eta), c)  # the operator accepts it
    for call in (
        lambda: composition_bound(9, CANONICAL, c, eta, 0.5, include_printed=False),
        lambda: lower_bound_peak(9, CANONICAL, c, eta),
        lambda: composed_extremal(9, CANONICAL, c, eta),
    ):
        with pytest.raises(ParameterOutOfRangeError):
            call()


@pytest.mark.parametrize("theorem", [7.0, 8.0, True, "7", None])
def test_theorem_must_be_an_integer(theorem):
    cp = ClassParams()
    for cached in THEOREMS:
        composition_certified(cached, cp, 1.0, 0.5)
    for call in (
        lambda: composition_bound(theorem, cp, 1.0, 0.5, 0.5),
        lambda: lower_bound_peak(theorem, cp, 1.0, 0.5),
        lambda: composed_extremal(theorem, cp, 1.0, 0.5),
        lambda: composition_certified(theorem, cp, 1.0, 0.5),  # an equal integer's entry is cached
    ):
        with pytest.raises(ParameterOutOfRangeError, match="theorem must be an integer >= 7"):
            call()


def test_numpy_theorem_is_stored_as_a_plain_int():
    import json

    import numpy as np

    b = composition_bound(np.int64(8), CANONICAL, 1.0, 0.5, 0.5)
    assert type(b.theorem) is int and b == composition_bound(8, CANONICAL, 1.0, 0.5, 0.5)
    assert json.loads(json.dumps(b.to_dict()))["theorem"] == 8


@pytest.mark.parametrize("theorem, c, sign", [(9, -0.5, "-"), (10, -1.5, "+")])
def test_zero_printed_denominator_is_a_domain_error(theorem, c, sign):
    cp = ClassParams(p=2)
    message = rf"printed denominator c \{sign} eta \+ 1 .* include_printed=False"
    # the derived-only record of the same parameters, cached either side, does not stand in
    for _ in range(2):
        b = composition_bound(theorem, cp, c, 0.5, 0.5, include_printed=False)
        assert 0.0 < b.lower < b.upper < math.inf
        with pytest.raises(DomainError, match=message):
            composition_bound(theorem, cp, c, 0.5, 0.5)


def _printed_mp(theorem, cp, c, eta, r):
    """The printed forms at 50 digits, slips included."""
    with mpmath.workdps(50):
        p, c, eta, r = cp.p, mpmath.mpf(c), mpmath.mpf(eta), mpmath.mpf(r)
        scale = mpmath.mpf(cp.scale)
        d_den = ((1 - mpmath.mpf(cp.B)) + scale) * (1 - mpmath.mpf(cp.mu)) * (p + mpmath.mpf(cp.delta))
        g = mpmath.gamma
        if theorem == 7:  # (B-A) on the lower line, Gamma(p-eta+2) on the upper one
            lead = g(p + 1) / g(p + 1 + eta)
            low = (c + p) * g(p + 2) / g(p + eta + 2) * (mpmath.mpf(cp.B) - cp.A) * (p - mpmath.mpf(cp.alpha))
            up = (c + p) * g(p + 2) / g(p - eta + 2) * scale
            low, up = low / ((c + p + 1) * d_den), up / ((c + p + 1) * d_den)
            return (lead - low * r) * r ** (p + eta), (lead + up * r) * r ** (p + eta)
        tail = (c + p) * g(p + 2) * scale / ((c + p + 1) * g(p + 1) * g(p + eta + 2) * d_den)
        s = eta if theorem == 10 else -eta
        lead = g(p + 1) / g(p + 1 + eta) if theorem == 8 else (c + p) / ((c + s + 1) * g(p + 1 + s))
        lower = (lead - tail * r) * r ** (p + s)
        upper = lower if theorem == 9 else (lead + tail * r) * r ** (p + s)
        return lower, upper


def _assert_printed_near_mp(theorem, cp, c, eta, r):
    # within reach of the 50-digit reference, and 0.0 only below the range
    b = composition_bound(theorem, cp, c, eta, r)
    for got, want in zip((b.printed_lower, b.printed_upper), _printed_mp(theorem, cp, c, eta, r)):
        if abs(want) < 2.0**-1074:
            assert got == 0.0
        elif abs(want) < 2.0**-1022:  # subnormal: a few units of the last place
            assert got == pytest.approx(float(want), abs=2.0**-1070)
        else:
            assert got == pytest.approx(float(want), rel=1e-11, abs=0.0)


@pytest.mark.parametrize("theorem", [8, 9, 10])
@pytest.mark.parametrize("p", [80, 81, 120, 169, 170, 171, 175, 180, 400])
@pytest.mark.parametrize("c", [1.0, 1e5])
def test_printed_forms_past_double_range(theorem, p, c):
    # Gamma(p+1) Gamma(p+eta+2) leaves double range from p ~ 100 and math.gamma from p ~ 170
    # (p = 80 and 81 straddle the switch from the literal arithmetic to the ratio form)
    cp = ClassParams(p=p, alpha=0.5, A=0.5, B=-0.5, mu=0.5, delta=0.5)
    _assert_printed_near_mp(theorem, cp, c, 0.4, 0.9)


@pytest.mark.parametrize("theorem", THEOREMS)
@pytest.mark.parametrize("p", [1, 2, 80, 81])
@pytest.mark.parametrize("c", [1e70, 1e150, 1e300, 1e307])
def test_printed_forms_at_huge_c(theorem, p, c):
    # the printed products leave double range with c, where the c factors are formed first:
    # at p = 80 and c = 1e70 the tail of 10 once read 0.0 (printed lower == upper), and the
    # pair of 8 at p = 2 and c = 1e307 read nan
    for cp, eta in [
        (ClassParams(p=p), 1.0 if theorem in (7, 10) else 0.5),
        (ClassParams(p=p, alpha=0.5, A=0.5, B=-0.5, mu=0.5, delta=0.5), 0.4),
    ]:
        _assert_printed_near_mp(theorem, cp, c, eta, 0.5)


@pytest.mark.parametrize("p", [1, 2, 80])
@pytest.mark.parametrize("eta", [60.0, 150.0, 400.0])
def test_printed_form_10_past_the_gamma_range(p, eta):
    # Gamma(p+eta+2) is past math.gamma's range here, which once raised OverflowError
    _assert_printed_near_mp(10, ClassParams(p=p), 1.0, eta, 0.9)


def test_printed_forms_keep_their_bits_below_the_range():
    # p = 60: no Gamma value or product leaves double range, so the literal arithmetic stands
    cp = ClassParams(p=60)
    b = composition_bound(10, cp, 1.0, 1.0, 0.5)
    lead = (1.0 + 60) / ((1.0 + 1.0 + 1.0) * math.gamma(60 + 1.0 + 1.0))
    d_den = ((1.0 - cp.B) + cp.scale) * (1.0 - cp.mu) * (60 + cp.delta)
    tail = (1.0 + 60) * math.gamma(62.0) * cp.scale / (
        (1.0 + 60 + 1.0) * math.gamma(61.0) * math.gamma(63.0) * d_den
    )
    assert b.printed_lower == (lead - tail * 0.5) * 0.5 ** (60 + 1.0)
    # p = 2 and c = 1e300: every literal product is still finite, so a huge c keeps the literal bits
    cp, c = ClassParams(p=2), 1e300
    b = composition_bound(9, cp, c, 0.5, 0.5)
    lead = (c + 2) / ((c - 0.5 + 1.0) * math.gamma(2 + 1.0 - 0.5))
    d_den = ((1.0 - cp.B) + cp.scale) * (1.0 - cp.mu) * (2 + cp.delta)
    tail = (c + 2) * math.gamma(4.0) * cp.scale / (
        (c + 2 + 1.0) * math.gamma(3.0) * math.gamma(2 + 0.5 + 2.0) * d_den
    )
    assert b.printed_lower == b.printed_upper == (lead - tail * 0.5) * 0.5 ** (2 - 0.5)


def test_one_warning_text_for_every_tail_aggregated_bound():
    from pvalent import distortion_bounds

    cp = ClassParams(mu=0.75)
    text = "^tail aggregation not certified for {} at ClassParams"
    for _ in range(2):  # the second, identical call reads the memo and still warns
        with pytest.warns(UncertifiedBoundWarning, match=text.format("composition 8")):
            composition_bound(8, cp, 2.0, 0.9, 0.5)
        with pytest.warns(UncertifiedBoundWarning, match=text.format("distortion order 1")):
            distortion_bounds(ClassParams(mu=0.9, delta=0.0), 1, 0.5)


def test_uncertified_composition_warns_once_per_call_at_its_caller():
    cp = ClassParams(mu=0.75)
    text = f"tail aggregation not certified for composition 8 at {cp}"
    text += "; admissible members may exceed these bounds"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for i in range(50):  # every call after the first reads the record
            composition_bound(8, cp, 2.0, 0.9, 0.01 * (i + 1))
    assert len(caught) == 50
    assert all(w.category is UncertifiedBoundWarning and str(w.message) == text for w in caught)
    assert {w.filename for w in caught} == {__file__}


def test_composition_memo_hits_equal_cold_calls(rng):
    """The record kept per (theorem, class, c, eta, include_printed) moves no bit."""
    radii = [0.1, 0.5, 0.9]
    curves = []
    for cp in [random_params(rng) for _ in range(3)]:
        for theorem in THEOREMS:
            c, eta = float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.05, 0.95))
            curves += [(theorem, cp, c, eta, printed) for printed in (True, False)]
    curves += [curves[i] for i in rng.permutation(len(curves))]
    hits = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UncertifiedBoundWarning)
        for theorem, cp, c, eta, printed in curves:
            warm = [composition_bound(theorem, cp, c, eta, r, include_printed=printed) for r in radii]
            hits += _composition.cache_info().hits
            peak = lower_bound_peak(theorem, cp, c, eta)
            cold = []
            for r in radii:
                _composition.cache_clear()
                cold.append(composition_bound(theorem, cp, c, eta, r, include_printed=printed))
            _composition.cache_clear()
            assert repr(cold) == repr(warm)
            assert repr(lower_bound_peak(theorem, cp, c, eta)) == repr(peak)
    assert hits >= 2 * len(curves)


def test_composition_memo_keeps_typed_entries():
    # 7.0 == 7 and 1 == 1.0 hash alike: the memo is typed, as composition_certified is
    cp = ClassParams()
    composition_bound(7, cp, 1.0, 0.5, 0.5)
    with pytest.raises(ParameterOutOfRangeError, match="theorem must be an integer"):
        composition_bound(7.0, cp, 1.0, 0.5, 0.5)
    composition_bound(7, cp, 1.0, 0.5, 0.5)
    misses = _composition.cache_info().misses
    b = composition_bound(7, cp, 1, 0.5, 0.5)
    assert _composition.cache_info().misses == misses + 1
    assert b == composition_bound(7, cp, 1.0, 0.5, 0.5) and type(b.c) is float
    # a ClassParams with numpy fields equals, and hashes as, its float twin: the record holds plain floats
    import numpy as np

    composition_bound(8, ClassParams(alpha=np.float64(0.5)), 1.0, 0.5, 0.5)
    warm = composition_bound(8, ClassParams(alpha=0.5), 1.0, 0.5, 0.5)
    _composition.cache_clear()
    assert repr(warm) == repr(composition_bound(8, ClassParams(alpha=0.5), 1.0, 0.5, 0.5))


"""Membership criteria, sharp bounds and extremal functions for both families."""

import math
import re
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pvalent import (
    ClassParams,
    budget_certified,
    check_p_membership,
    check_r_membership,
    coeff_bound_p,
    coeff_bound_r,
    extremal_p,
    extremal_r,
    make_series,
    r_criterion_term,
    random_member,
    random_params,
    zf_prime_over_p,
)
from pvalent import classes, operators, oracle
from pvalent.classes import log_r_criterion_term
from pvalent.errors import IndexBelowValenceError, ParameterOutOfRangeError, ValenceMismatchError
from pvalent.operators import apply_rafid
from pvalent.oracle import convex_min_re, ctc_max_dev, locate_real_axis_violation, starlike_min_re, subordination_margin
from pvalent.series import CoefficientSeries

CANONICAL = ClassParams()


def test_canonical_criterion_terms_frozen():
    assert r_criterion_term(2, CANONICAL) == 4.0
    assert r_criterion_term(3, CANONICAL) == 18.0


def test_canonical_bounds_frozen():
    assert coeff_bound_r(2, CANONICAL) == 0.25
    assert coeff_bound_p(2, CANONICAL) == 0.125


def test_log_term_consistent_with_term(rng):
    for _ in range(30):
        cp = random_params(rng)
        k = cp.p + int(rng.integers(1, 10))
        assert log_r_criterion_term(k, cp) == pytest.approx(
            math.log(r_criterion_term(k, cp)), abs=1e-12
        )


def test_extremal_saturates_and_flips():
    rep = check_r_membership(extremal_r(2, CANONICAL), CANONICAL)
    assert rep.member and rep.margin == 0.0
    bumped = make_series(1, [(2, 0.25 * (1.0 + 1e-9))])
    assert not check_r_membership(bumped, CANONICAL).member


def test_flip_holds_across_random_configs(rng):
    for _ in range(50):
        cp = random_params(rng)
        k = cp.p + int(rng.integers(1, 8))
        assert check_r_membership(extremal_r(k, cp), cp).member
        bumped = make_series(cp.p, [(k, coeff_bound_r(k, cp) * (1.0 + 1e-9))])
        assert not check_r_membership(bumped, cp).member


def test_membership_report_shape():
    f = make_series(1, [(2, 0.1), (3, 0.01)])
    rep = check_r_membership(f, CANONICAL)
    assert rep.sum == pytest.approx(0.1 * 4.0 + 0.01 * 18.0, rel=1e-15)
    assert rep.margin == pytest.approx(1.0 - rep.sum, rel=1e-15)
    assert [k for k, _ in rep.per_term] == [2, 3]
    d = rep.to_dict()
    assert set(d) == {"sum", "member", "margin", "per_term"}


def test_sum_scales_linearly(rng):
    """Scaling every coefficient by t scales the criterion sum by t."""
    for _ in range(20):
        cp = random_params(rng)
        f = random_member(cp, rng)
        t = 0.5  # power of two keeps the products exact
        g = CoefficientSeries(p=f.p, coeffs={k: t * a for k, a in f.coeffs.items()})
        assert check_r_membership(g, cp).sum == t * check_r_membership(f, cp).sum


def test_p_family_matches_mapped_r_family(rng):
    for _ in range(50):
        cp = random_params(rng)
        f = random_member(cp, rng)
        via_p = check_p_membership(f, cp)
        via_r = check_r_membership(zf_prime_over_p(f), cp)
        assert via_p.sum == via_r.sum
        assert via_p.per_term == via_r.per_term


def test_extremal_p_saturates(rng):
    for _ in range(20):
        cp = random_params(rng)
        k = cp.p + int(rng.integers(1, 6))
        rep = check_p_membership(extremal_p(k, cp), cp)
        assert abs(rep.margin) <= 1e-12


def test_random_member_is_member(rng):
    for _ in range(50):
        cp = random_params(rng)
        f = random_member(cp, rng)
        assert check_r_membership(f, cp).member


def test_random_member_target_sum(rng):
    cp = random_params(rng)
    f = random_member(cp, rng, target_sum=0.7)
    assert check_r_membership(f, cp).sum == pytest.approx(0.7, rel=1e-12)


def test_random_params_ranges(rng):
    for _ in range(100):
        cp = random_params(rng)
        assert 1 <= cp.p <= 4
        assert 0.0 <= cp.alpha < cp.p
        assert -1.0 <= cp.B < cp.A <= 1.0
        assert 0.0 <= cp.mu < 1.0
        assert 0.0 <= cp.delta <= 1.0


def test_random_params_budget_requirement(rng):
    for _ in range(30):
        cp = random_params(rng, require_budget_orders=(0, 1))
        assert budget_certified(cp, 0) and budget_certified(cp, 1)


def test_budget_certified_cases():
    assert budget_certified(CANONICAL, 0)
    assert budget_certified(CANONICAL, 1)
    # heavy damping with delta=0 makes the tail terms shrink
    assert not budget_certified(ClassParams(mu=0.9, delta=0.0), 1)


def test_class_params_validation():
    with pytest.raises(ParameterOutOfRangeError):
        ClassParams(alpha=1.0)  # alpha must stay below p
    with pytest.raises(ParameterOutOfRangeError):
        ClassParams(A=-1.0, B=-1.0)  # need B < A
    with pytest.raises(ParameterOutOfRangeError):
        ClassParams(B=-1.5)
    with pytest.raises(ParameterOutOfRangeError):
        ClassParams(A=1.2)
    with pytest.raises(ParameterOutOfRangeError):
        ClassParams(p=0)


def test_valence_mismatch_rejected():
    with pytest.raises(ValenceMismatchError):
        check_r_membership(make_series(2, [(3, 0.1)]), CANONICAL)


def test_scale_and_rafid_accessors():
    cp = ClassParams(p=2, alpha=0.5, A=0.8, B=-0.4, mu=0.1, delta=0.6)
    assert cp.scale == pytest.approx((0.8 + 0.4) * (2 - 0.5), rel=1e-15)
    assert cp.rafid.mu == 0.1 and cp.rafid.delta == 0.6


@pytest.mark.parametrize(
    "k, mu",
    [(172, 0.5), (178, 0.5), (184, 0.5), (190, 0.5), (66, 0.99999)],
)
def test_bound_past_double_range_of_the_term(k, mu, mpref):
    """Finite sharp bounds where the linear term overflows (mu = 1/2) or underflows (mu ~ 1)."""
    cp = ClassParams(mu=mu)
    want = -mpref.log_term(k, cp)
    got = coeff_bound_r(k, cp)
    assert 0.0 < got < math.inf
    assert abs(math.log(got) - want) <= mpref.tolerance(want, math.lgamma(k + 1.0))


@pytest.mark.parametrize("k0", [171, 180])
def test_explicit_zero_past_double_range(k0):
    base = [(2, 0.125), (3, 0.02)]
    with_zero = check_r_membership(make_series(1, base + [(k0, 0.0)]), CANONICAL)
    plain = check_r_membership(make_series(1, base), CANONICAL)
    assert (with_zero.sum, with_zero.member, with_zero.margin) == (
        plain.sum,
        plain.member,
        plain.margin,
    )
    assert with_zero.per_term == plain.per_term + ((k0, 0.0),)


_DEEP_TERMS = [
    (2, CANONICAL),
    (3, CANONICAL),
    (60, ClassParams(p=2, alpha=0.5, A=0.8, B=-0.4, mu=0.3, delta=0.6)),
    (170, CANONICAL),  # term just past double range
    (1_000, ClassParams(p=3, alpha=1.0, A=0.5, B=-0.5, mu=0.997, delta=0.25)),
    (10_000, ClassParams(p=1, alpha=0.2, A=0.9, B=0.1, mu=0.99973, delta=0.7)),
    (10_000, ClassParams(p=4, alpha=3.5, A=1.0, B=0.5, mu=0.9996, delta=0.0)),
]


@pytest.mark.parametrize("k, cp", _DEEP_TERMS)
def test_criterion_terms_match_mpmath(k, cp, mpref):
    want = mpref.log_term(k, cp)
    tol = mpref.tolerance(want, math.lgamma(k + cp.delta))
    assert abs(log_r_criterion_term(k, cp) - want) <= tol
    term = r_criterion_term(k, cp)
    if want < 709.0:
        assert abs(math.log(term) - want) <= tol
    else:
        assert term == math.inf
        # the bound is the reciprocal, down in the subnormals or zero
        assert coeff_bound_r(k, cp) == pytest.approx(float(mpmath.exp(-want)), rel=1e-12)
    if abs(want) < 700.0:
        # per-term values stay finite even where the term alone overflows
        a = float(mpmath.exp(-want)) / 2.0
        (_, r_val), = check_r_membership(make_series(cp.p, [(k, a)]), cp).per_term
        (_, p_val), = check_p_membership(make_series(cp.p, [(k, a)]), cp).per_term
        with mpmath.workdps(50):
            r_want = mpmath.exp(want) * a
        assert r_val == pytest.approx(float(r_want), rel=tol + 1e-15)
        assert p_val == pytest.approx(float(r_want * k / cp.p), rel=tol + 1e-15)


@st.composite
def class_params(draw):
    p = draw(st.integers(1, 4))
    B = draw(st.floats(-1.0, 0.8))
    return ClassParams(
        p=p,
        alpha=draw(st.floats(0.0, 0.95)) * p,
        A=draw(st.floats(B + 0.05, 1.0)),
        B=B,
        mu=draw(st.floats(0.0, 0.95)),
        delta=draw(st.floats(0.0, 1.0)),
    )


@st.composite
def members_and_more(draw, cp):
    """Up to 4 coefficients, each a fraction of its sharp bound, at indices up to p+300."""
    ks = draw(st.lists(st.integers(cp.p + 1, cp.p + 300), max_size=4, unique=True))
    return make_series(cp.p, [(k, draw(st.floats(0.0, 0.6)) * coeff_bound_r(k, cp)) for k in ks])


@settings(max_examples=30)
@given(data=st.data())
def test_membership_monotone_when_coefficients_shrink(data):
    cp = data.draw(class_params())
    f = data.draw(members_and_more(cp))
    shrink = [data.draw(st.floats(0.0, 1.0)) for _ in f.coeffs]
    g = make_series(cp.p, [(k, t * f.coeffs[k]) for k, t in zip(f.coeffs, shrink)])
    rep_f, rep_g = check_r_membership(f, cp), check_r_membership(g, cp)
    assert rep_g.sum <= rep_f.sum
    assert rep_g.member or not rep_f.member


@settings(max_examples=30)
@given(
    p=st.integers(1, 3),
    gap=st.integers(1, 1_000),
    c=st.floats(2.0, 4.0),
    delta=st.floats(0.0, 1.0),
)
def test_extremal_margin_vanishes_at_every_index(p, gap, c, delta):
    # mu = 1 - c/gap keeps the sharp bound a normal double out to gap = 1000
    cp = ClassParams(p=p, mu=min(max(0.0, 1.0 - c / gap), 0.999), delta=delta)
    k = p + gap
    assume(sys.float_info.min <= coeff_bound_p(k, cp) and coeff_bound_r(k, cp) < math.inf)
    assert abs(check_r_membership(extremal_r(k, cp), cp).margin) <= 1e-12
    assert abs(check_p_membership(extremal_p(k, cp), cp).margin) <= 1e-12


@settings(max_examples=30)
@given(data=st.data())
def test_p_and_r_correspond_per_term(data):
    cp = data.draw(class_params())
    f = data.draw(members_and_more(cp))
    via_p = check_p_membership(f, cp)
    via_r = check_r_membership(zf_prime_over_p(f), cp)
    assert via_p.per_term == via_r.per_term and via_p.sum == via_r.sum
    for (k, p_val), (_, r_val) in zip(via_p.per_term, check_r_membership(f, cp).per_term):
        if f.coeffs[k] >= sys.float_info.min:  # z f'/p rounds subnormal coefficients coarsely
            assert p_val == pytest.approx(k / cp.p * r_val, rel=1e-14, abs=1e-300)


@pytest.mark.parametrize(
    "fn",
    [r_criterion_term, log_r_criterion_term, coeff_bound_r, coeff_bound_p, extremal_r, extremal_p],
)
@pytest.mark.parametrize("k", [2.5, math.inf, math.nan])
def test_lone_index_names_refuse_a_non_integer_index(fn, k):
    # 2.5 once gave a value between the neighbours' and inf never returned
    with pytest.raises(IndexBelowValenceError):
        fn(k, ClassParams())


def test_lone_index_names_take_integer_valued_indices():
    cp = ClassParams(p=2, alpha=0.5, mu=0.3, delta=0.5)
    assert coeff_bound_r(4.0, cp) == coeff_bound_r(np.int64(4), cp) == coeff_bound_r(4, cp)


@st.composite
def one_pass_series(draw):
    """A class with mu up to 0.99, and up to 12 coefficients at indices up to p+400: 0.0, subnormal, normal, or
    large enough that the contribution leaves double range."""
    p = draw(st.integers(1, 6))
    B = draw(st.floats(-1.0, 0.8))
    cp = ClassParams(
        p=p, alpha=draw(st.floats(0.0, 0.95)) * p, A=draw(st.floats(B + 0.05, 1.0)), B=B,
        mu=draw(st.floats(0.0, 0.99)), delta=draw(st.floats(0.0, 1.0)),
    )
    ks = draw(st.lists(st.integers(p + 1, p + 400), max_size=12, unique=True))
    coefficient = st.one_of(
        st.just(0.0),
        st.floats(5e-324, sys.float_info.min, exclude_max=True),
        st.floats(1e-300, 1e300),
        st.floats(1e300, sys.float_info.max),
    )
    return cp, make_series(p, [(k, draw(coefficient)) for k in ks])


@settings(max_examples=200)
@given(data=one_pass_series())
def test_one_pass_sum_rounds_each_term_as_the_lone_product(data):
    """Each per-term value of the one-pass sum has the bits of the lone term times a_k, rounded once, and each
    P value those of the lone term times (k/p) a_k: the R report of z f'/p, or, where a (k/p) a_k leaves double
    range and zf_prime_over_p refuses the series, an inf term and a sum of inf."""
    from pvalent.classes import _term
    from pvalent.operators import pow2_product, rafid_multiplier

    cp, f = data
    rep, rep_p = check_r_membership(f, cp), check_p_membership(f, cp)
    assert [k for k, _ in rep.per_term] == [k for k, _ in rep_p.per_term] == sorted(f.coeffs)
    for (k, c), (_, c_p) in zip(rep.per_term, rep_p.per_term):
        term = _term(k, cp, *rafid_multiplier(k, cp.p, cp.rafid))
        assert c.hex() == pow2_product(*term, f.coeffs[k]).hex()
        assert c_p.hex() == pow2_product(*term, (k / cp.p) * f.coeffs[k]).hex()
    assert repr(rep.sum) == repr(math.fsum(c for _, c in rep.per_term))
    if math.inf in [(k / cp.p) * a for k, a in f.coeffs.items()]:
        with pytest.raises(ParameterOutOfRangeError, match=r"^coefficient at index \d+ is not finite$"):
            zf_prime_over_p(f)
        assert (rep_p.sum, rep_p.member) == (math.inf, False)
    else:
        assert repr(rep_p) == repr(check_r_membership(zf_prime_over_p(f), cp))


def test_one_pass_sum_refuses_an_index_at_p():
    cp = ClassParams(p=2)
    with pytest.raises(IndexBelowValenceError):
        check_r_membership(CoefficientSeries(p=2, coeffs={3: 0.1, 2: 0.1}), cp)


@pytest.mark.parametrize("coeffs", [{1: 0.1}, {2: 0.1}, {1: 0.0, 5: 0.0}, {2: -0.0}, {2: 0.0, 3: 0.1}])
def test_membership_refusal_of_a_low_index_names_p_plus_one(coeffs):
    """An index below p once read ">= p" (the walk's own bound, w_p being a weight) and one at p ">= p+1"."""
    low = min(coeffs)
    with pytest.raises(IndexBelowValenceError, match=f"^index must be an integer >= 3, got {low}$"):
        check_r_membership(CoefficientSeries(p=2, coeffs=coeffs), ClassParams(p=2, alpha=0.5))


@pytest.mark.parametrize(
    "kwargs", [dict(A=5e-324, B=0.0, alpha=0.6), dict(A=0.0, B=-2.225073858507e-311, alpha=math.nextafter(1.0, 0.0))]
)
def test_a_scale_that_rounds_to_zero_is_refused(kwargs):
    """Every criterion term divides by (A-B)(p-alpha): a zero scale once raised a bare ZeroDivisionError there."""
    with pytest.raises(ParameterOutOfRangeError, match=r"^\(A-B\)\(p-alpha\) rounds to 0\.0"):
        ClassParams(**kwargs)
    subnormal = ClassParams(A=0.0, B=-2.225073858507e-311)  # a subnormal scale is still admitted
    assert 0.0 < subnormal.scale < sys.float_info.min


def test_finite_terms_past_double_range_sum_to_inf():
    """fsum raised a bare OverflowError on terms 1.6e308 and 9e307; the report reads as an inf term's does."""
    rep = check_r_membership(make_series(1, [(2, 4e307), (3, 5e306)]), CANONICAL)
    assert rep.per_term == ((2, 1.6e308), (3, 9e307))
    assert (rep.sum, rep.member, rep.margin) == (math.inf, False, -math.inf)
    inf_term = check_r_membership(make_series(1, [(2, 1e308)]), CANONICAL)
    assert (inf_term.sum, inf_term.member, inf_term.margin) == (math.inf, False, -math.inf)


@st.composite
def series_and_zero(draw):
    """A one-pass class and series, an index up to p + 10^4 that it does not carry, and a zero of either sign."""
    cp, f = draw(one_pass_series())
    k = draw(st.integers(cp.p + 1, cp.p + 10**4).filter(lambda k: k not in f.coeffs))
    return cp, f, k, draw(st.sampled_from([0.0, -0.0]))


def _asked_indices(monkeypatch, *modules):
    """The indices rafid_multipliers is asked for through each module's name for it, in the order asked."""
    asked, walk = [], operators.rafid_multipliers

    def recording(p, rp, ks):
        return walk(p, rp, (asked.append(k) or k for k in ks))  # the walk pulls an index just before it goes there

    for module in modules:
        monkeypatch.setattr(module, "rafid_multipliers", recording)
    return asked


@pytest.mark.parametrize(
    "module, call",
    [
        (classes, lambda f: check_r_membership(f, CANONICAL)),
        (classes, lambda f: check_p_membership(f, CANONICAL)),
        (operators, lambda f: apply_rafid(f, CANONICAL.rafid)),
        (oracle, lambda f: subordination_margin(f, CANONICAL)),
        (oracle, lambda f: locate_real_axis_violation(f, CANONICAL)),
    ],
    ids=["check_r", "check_p", "apply_rafid", "subordination_margin", "locate_real_axis_violation"],
)
def test_no_walk_to_an_explicit_zero_past_the_last_term(monkeypatch, module, call):
    """A zero kept at k = 10^6 for the round trip once cost a walk of 10^6 steps of w_k; none is asked past k = 3."""
    f = make_series(1, [(2, 0.125), (3, 0.02), (10**6, 0.0)])
    asked = _asked_indices(monkeypatch, module)
    call(f)
    assert asked == [2, 3]


@pytest.mark.parametrize(
    "call",
    [
        lambda f: starlike_min_re(f, 0.0, 0.5),
        lambda f: convex_min_re(f, 0.0, 0.5),
        lambda f: ctc_max_dev(f, 0.0, 0.5),
        lambda f: subordination_margin(f, CANONICAL),
    ],
    ids=["starlike", "convex", "close-to-convex", "subordination"],
)
def test_no_circle_term_past_the_last_term(monkeypatch, call):
    """The circles once folded the zero at k = 10^6 as a term of r^(10^6 - 1): no exponent past k - p = 2 is folded."""
    f = make_series(1, [(2, 0.125), (3, 0.02), (10**6, 0.0)])
    folded, fold = [], oracle._half_circle
    monkeypatch.setattr(oracle, "_half_circle", lambda e, *rest: folded.append(e.tolist()) or fold(e, *rest))
    call(f)
    assert folded and all(e == [0, 1, 2] for e in folded)


@settings(max_examples=150, deadline=None)
@given(data=series_and_zero())
def test_an_inserted_zero_changes_nothing_and_walks_nothing(data):
    """A zero added at any index leaves the sum, verdict, margin and every other term of both criteria, and
    every other smoothed coefficient, as they were; its own term and smoothed coefficient are that zero, and
    no w_k is walked past the last nonzero coefficient.  A smoothed image past double range is refused, with
    and without the zero alike."""
    cp, f, k, zero = data
    g = make_series(cp.p, [*f.coeffs.items(), (k, zero)])
    last = max((j for j, a in f.coeffs.items() if a), default=None)
    images, refusals = [], []
    with pytest.MonkeyPatch.context() as monkeypatch:
        asked = _asked_indices(monkeypatch, classes, operators)
        reports = [(check(f, cp), check(g, cp)) for check in (check_r_membership, check_p_membership)]
        for series in (f, g):
            try:
                images.append(apply_rafid(series, cp.rafid))
            except ParameterOutOfRangeError as refusal:
                refusals.append(str(refusal))
    assert all(j <= last for j in asked) if last is not None else not asked
    for before, after in reports:
        assert after.sum == before.sum and repr(after.margin) == repr(before.margin)
        assert after.member is before.member
        terms = dict(after.per_term)
        assert terms.pop(k).hex() == zero.hex()
        assert [(j, c.hex()) for j, c in terms.items()] == [(j, c.hex()) for j, c in before.per_term]
    if refusals:
        assert len(refusals) == 2 and refusals[0] == refusals[1], refusals
        assert re.fullmatch(r"coefficient at index \d+ is not finite", refusals[0])
        return
    image = dict(images[1].coeffs)
    assert image.pop(k).hex() == zero.hex()
    assert [(j, c.hex()) for j, c in image.items()] == [(j, c.hex()) for j, c in images[0].coeffs.items()]


def test_certificate_scan_stops_at_its_step_cap():
    """The proved stop lies near k = 1/(1-mu): about 10^6 steps past p here, so the 200 000-step cap
    decides, in one call, and its verdict is False (the uncapped walk certifies, after about 2.7 s)."""
    p = 10**11
    cp = ClassParams(p=p, alpha=math.nextafter(p, 0), A=1.0, B=-1.0, mu=1.0 - 0.99999 / (p + 1), delta=1.0)
    assert budget_certified(cp, 0) is False


@st.composite
def tail_bound_draws(draw):
    """(cp, m or None, theorem or None, c, eta, r) over the documented domain: p in 1..6 and 169..171,
    every m <= p, theorems 7-10 under their c and eta rules (README "Arguments"), mu up to 0.99."""
    p = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 169, 170, 171]))
    B = draw(st.floats(-1.0, 1.0, exclude_max=True))
    cp = ClassParams(
        p=p, alpha=draw(st.floats(0.0, p, exclude_max=True)), A=draw(st.floats(B, 1.0, exclude_min=True)), B=B,
        mu=draw(st.floats(0.0, 0.99)), delta=draw(st.floats(0.0, 1.0)),
    )
    r = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    theorem = draw(st.sampled_from([None, 7, 8, 9, 10]))
    if theorem is None:
        return cp, draw(st.integers(0, p)), None, None, None, r
    integral = st.floats(0.0, 4.0, exclude_min=True)
    eta = draw(integral if theorem in (7, 10) else st.floats(0.0, 1.0, exclude_max=True))
    return cp, None, theorem, draw(st.floats(-p, 4.0, exclude_min=True)), eta, r


@settings(max_examples=300, derandomize=True)
@given(draw=tail_bound_draws())
def test_every_tail_aggregated_bound_follows_the_one_rule(draw):
    """Distortion and compositions 7-10: a DomainError, or lower <= upper with no nan, one warning per sample
    exactly outside the certificate, naming this file, and the image of the k = p+1 extremal at r on lower."""
    from pvalent import composed_extremal, composition_bound, composition_certified, derivative_m
    from pvalent import distortion_bounds, distortion_curve
    from pvalent.calculus_bounds import _composition
    from pvalent.errors import DomainError, UncertifiedBoundWarning
    from pvalent.geometry import _distortion

    cp, m, theorem, c, eta, r = draw
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("error")
        warnings.simplefilter("always", UncertifiedBoundWarning)
        try:
            if theorem is None:
                certified = budget_certified(cp, m)
                samples = [(r, *distortion_bounds(cp, m, r)), *distortion_curve(cp, m, [r, r]).samples]
                _, a0, e0, a1_t = _distortion(cp, m)
                image = derivative_m(extremal_r(cp.p + 1, cp), m)
            else:
                certified = composition_certified(theorem, cp, c, eta)
                b = composition_bound(theorem, cp, c, eta, r, include_printed=False)
                samples = [(b.r, b.lower, b.upper)]
                _, a0, e0, a1_t = _composition(theorem, cp, c, eta, False)[1]
                image = composed_extremal(theorem, cp, c, eta)
        except DomainError:
            return
    assert all(s == samples[0] for s in samples)
    _, lower, upper = samples[0]
    assert lower <= upper  # nan fails
    assert all(w.category is UncertifiedBoundWarning for w in caught)
    assert len(caught) == (0 if certified else len(samples))
    assert {w.filename for w in caught} <= {__file__}
    size = max(abs(a0 * r**e0), abs(a1_t * r ** (e0 + 1.0)))
    assert abs(image.evaluate(r).real - lower) <= 1e-13 * size


def test_zero_coefficient_adds_zero_at_a_subnormal_scale():
    """scale = (A-B)(p-alpha) subnormal makes every criterion term inf; a zero a_k still adds 0.0, not 0 inf = nan."""
    cp = ClassParams(A=0.0, B=-2.225073858507e-311)
    rep = check_p_membership(make_series(1, [(2, 0.0)]), cp)
    assert (rep.sum, rep.member, rep.margin) == (0.0, True, 1.0)
    rep = check_r_membership(make_series(1, [(2, 0.0), (3, 1e-300), (5, 1.0)]), cp)
    assert rep.per_term == ((2, 0.0), (3, math.inf), (5, math.inf))
    assert rep.sum == math.inf and not rep.member
    ((_, zero),) = check_r_membership(make_series(1, [(2, -0.0)]), cp).per_term
    assert zero == 0.0 and math.copysign(1.0, zero) == -1.0  # a signed zero keeps its sign, as at a normal scale


@pytest.mark.parametrize("cp", [ClassParams(), ClassParams(p=3, alpha=1.2, A=0.4, B=-0.7, mu=0.97, delta=0.0)])
def test_log_term_pass_matches_the_lone_walk_bit_for_bit(cp):
    """The radius record's one pass over p+1 .. p+300 gives, at each index, the bits of log_r_criterion_term,
    which walks w_k from p alone."""
    from pvalent.geometry import _radius_scan

    ks, log_terms = _radius_scan(cp, 0.0, cp.p + 300)[:2]
    assert ks == range(cp.p + 1, cp.p + 301)
    assert list(log_terms) == [log_r_criterion_term(k, cp) for k in ks]


def _log_terms_from_rafid_multipliers(cp, ks):
    """log term(k) read off the operators' multiplier pass through _term's expression: the reference."""
    from pvalent.operators import rafid_multipliers

    p, slope, s = cp.p, 1.0 - cp.B, cp.scale
    return [math.log((slope * (k - p) + s) * m / s) + e * math.log(2.0)
            for k, (m, e) in zip(ks, rafid_multipliers(p, cp.rafid, ks))]


_WALK_CLASSES = [
    ClassParams(p=p, alpha=0.4 * p, A=0.7, B=-0.3, mu=mu, delta=delta)
    for p in (1, 4) for mu in (0.0, 0.5, 0.95, 0.999) for delta in (0.0, 1.0)
]


@pytest.mark.parametrize("cp", _WALK_CLASSES, ids=repr)
def test_log_terms_walk_equals_rafid_multipliers(cp):
    """The radius record's pass over p+1 .. 3000 and log_r_criterion_term at lone indices (contiguous, sparse
    with repeats, 171, 1000, 3000) give the bits of the log formed from rafid_multipliers' (m, e) with _term's
    expression, so the record and the lone term agree bit for bit.
    mu = 0.999 takes the product below 2^-500 near k = 1000 and back above 2^500 by k = 3000; there the lone term
    is also read at every index of the record, a walk of k - p steps each."""
    from pvalent.geometry import _radius_scan

    ks, log_terms = _radius_scan(cp, 0.0, 3000)[:2]
    assert list(log_terms) == _log_terms_from_rafid_multipliers(cp, ks)
    if cp.mu == 0.999:
        assert list(log_terms) == [log_r_criterion_term(k, cp) for k in ks]
    rng = np.random.default_rng(cp.p + round(1000 * cp.mu) + int(cp.delta))
    sparse = sorted(rng.integers(cp.p + 1, 3001, size=60).tolist() + [cp.p + 1, cp.p + 1, 3000])
    for lone in (range(cp.p + 1, 200), sparse, [cp.p + 1], [171], [1000], [3000]):
        assert [log_r_criterion_term(k, cp) for k in lone] == _log_terms_from_rafid_multipliers(cp, lone)


def test_log_terms_read_inf_at_a_subnormal_scale():
    """scale = (A-B)(p-alpha) subnormal: the bracket over the scale overflows, so log term(k) is inf, not finite."""
    from pvalent import radius_starlike

    cp = ClassParams(A=0.0, B=-2.225073858507e-311)
    assert log_r_criterion_term(3, cp) == math.inf
    assert radius_starlike(cp, 0.0, 3).candidates == ((2, math.inf), (3, math.inf))


@pytest.mark.parametrize(
    "cp, coeffs, bits",
    [
        (
            ClassParams(A=0.0, B=-2.225073858507e-311),
            [(2, 0.0), (3, 1e-300), (5, 1.0)],
            [(2, "0x0.0p+0"), (3, "inf"), (5, "inf")],
        ),
        (ClassParams(A=0.0, B=-2.225073858507e-311), [(2, -0.0)], [(2, "-0x0.0p+0")]),
        (
            CANONICAL,
            [(2, 0.125), (3, 0.02), (171, 0.0), (180, -0.0)],
            [(2, "0x1.0000000000000p-1"), (3, "0x1.70a3d70a3d70ap-2"), (171, "0x0.0p+0"), (180, "-0x0.0p+0")],
        ),
    ],
)
def test_zero_coefficients_keep_their_per_term_bits(cp, coeffs, bits):
    """A zero a_k is its own term, sign included: through pow2_product, also against an inf term, before the last
    nonzero coefficient, and read off the series past it; the per-term values keep the bits they had behind a zero
    guard."""
    rep = check_r_membership(make_series(1, coeffs), cp)
    assert [(k, c.hex()) for k, c in rep.per_term] == bits


def _reference_params(rng, mu_range=(0.0, 0.9), delta_range=(0.0, 1.0), require_budget_orders=()):
    """random_params's one-call law: each attempt reads the six doubles of one rng.random(6), p from the first and
    alpha, B, A, mu, delta from the rest, each range mapped as rng.uniform maps a double."""
    while True:
        u = rng.random(6)  # numpy doubles: the same IEEE arithmetic as random_params's floats
        p = 1 + int(np.floor(4.0 * u[0]))
        alpha, B = 0.8 * p * u[1], -1.0 + 1.8 * u[2]
        A = B + 0.1 + (1.0 - (B + 0.1)) * u[3]
        mu = mu_range[0] + (mu_range[1] - mu_range[0]) * u[4]
        delta = delta_range[0] + (delta_range[1] - delta_range[0]) * u[5]
        cp = ClassParams(p=p, alpha=float(alpha), A=float(A), B=float(B), mu=float(mu), delta=float(delta))
        if all(budget_certified(cp, m) for m in require_budget_orders if m <= p):
            return cp


def _reference_member(cp, rng, target_sum=None):
    """random_member's one-call law from the twelve doubles of one rng.random(12): the count from the first, a
    partial Fisher-Yates shuffle of p+1..p+12 from the next five, weights under numpy's normalization from the
    next five, and the default target 0.999 u from the last; each bound by its own lone walk."""
    u = rng.random(12)
    count = 1 + int(np.floor(5.0 * u[0]))
    slots = np.arange(cp.p + 1, cp.p + 13)
    for i in range(count):
        j = i + int(np.floor((12 - i) * u[1 + i]))
        slots[[i, j]] = slots[[j, i]]
    w = u[6 : 6 + count] / u[6 : 6 + count].sum()
    s = 0.999 * float(u[11]) if target_sum is None else float(target_sum)
    return make_series(cp.p, [(int(k), s * float(wi) * coeff_bound_r(int(k), cp)) for k, wi in zip(slots, w)])


@pytest.mark.parametrize(
    "kwargs",
    [{}, {"mu_range": (0.55, 0.9)}, {"delta_range": (0.0, 0.0)}, {"require_budget_orders": (0, 1)}],
)
def test_random_params_takes_each_attempt_from_one_call(kwargs):
    """Seeded draws equal the one-call reference, and leave the generator in the same state."""
    ours, ref = np.random.default_rng(25), np.random.default_rng(25)
    for _ in range(300):
        assert repr(random_params(ours, **kwargs)) == repr(_reference_params(ref, **kwargs))
    assert ours.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("target_sum", [None, 0.5, 1.0])
def test_random_member_keeps_its_draws_and_bounds(target_sum):
    """Each coefficient has the bits of the reference's: the left-to-right weight sum is numpy's for up to 5
    doubles, and the one multiplier pass gives each bound the bits of coeff_bound_r's lone walk."""
    ours, ref, classes = np.random.default_rng(26), np.random.default_rng(26), np.random.default_rng(27)
    for _ in range(300):
        cp = random_params(classes)
        f, want = random_member(cp, ours, target_sum), _reference_member(cp, ref, target_sum)
        assert [(k, a.hex()) for k, a in f.coeffs.items()] == [(k, a.hex()) for k, a in want.coeffs.items()]
    assert ours.bit_generator.state == ref.bit_generator.state


def test_random_draws_reach_every_count_index_and_valence():
    """Over 600 seeded draws the count takes 1..5, the indices are distinct in p+1..p+12 and reach each of them,
    p takes 1..4, and an explicit target_sum is met to 4 ulp."""
    rng, counts, offsets, valences = np.random.default_rng(40), set(), set(), set()
    for i in range(600):
        cp, target = random_params(rng), (0.25, 0.75, 1.25)[i % 3]
        f = random_member(cp, rng, target)
        ks = list(f.coeffs)
        assert len(set(ks)) == len(ks) and all(cp.p < k <= cp.p + 12 for k in ks)
        assert abs(check_r_membership(f, cp).sum - target) <= 4 * math.ulp(target)
        counts.add(len(ks))
        offsets.update(k - cp.p for k in ks)
        valences.add(cp.p)
    assert (counts, offsets, valences) == (set(range(1, 6)), set(range(1, 13)), set(range(1, 5)))


def test_distinct_indices_stay_in_range_at_the_ends_of_the_unit_interval():
    """(12 - i) u rounds below 12 - i at the largest double below one, so every slot index j stays in range."""
    top = math.nextafter(1.0, 0.0)
    assert classes._distinct_indices(1, [0.0] * 12) == list(range(2, 14))
    assert sorted(classes._distinct_indices(1, [top] * 12)) == list(range(2, 14))

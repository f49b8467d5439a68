"""Membership criteria, sharp bounds and extremal functions for both families."""

import math
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
from pvalent.classes import log_r_criterion_term
from pvalent.errors import IndexBelowValenceError, ParameterOutOfRangeError, ValenceMismatchError
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
        cp = random_params(rng, max_p=4)
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
    """Each per-term value of the one-pass sum has the bits of the lone term times a_k, rounded once."""
    from pvalent.classes import _term
    from pvalent.operators import pow2_product, rafid_multiplier

    cp, f = data
    rep = check_r_membership(f, cp)
    assert [k for k, _ in rep.per_term] == sorted(f.coeffs)
    for k, c in rep.per_term:
        want = pow2_product(*_term(k, cp, *rafid_multiplier(k, cp.p, cp.rafid)), f.coeffs[k])
        assert c.hex() == want.hex()
    assert repr(rep.sum) == repr(math.fsum(c for _, c in rep.per_term))
    assert repr(check_p_membership(f, cp)) == repr(check_r_membership(zf_prime_over_p(f), cp))


def test_one_pass_sum_refuses_an_index_at_p():
    cp = ClassParams(p=2)
    with pytest.raises(IndexBelowValenceError):
        check_r_membership(CoefficientSeries(p=2, coeffs={3: 0.1, 2: 0.1}), cp)


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
    """One pass of _log_terms over p+1 .. p+300 gives, at each index, the bits of log_r_criterion_term there."""
    from pvalent.classes import _log_terms

    ks = range(cp.p + 1, cp.p + 301)
    assert list(_log_terms(cp, ks)) == [log_r_criterion_term(k, cp) for k in ks]


def _log_terms_from_rafid_multipliers(cp, ks):
    """log term(k) read off the operators' multiplier pass: the reference that the walk of _log_terms must match."""
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
    """_log_terms walks w_k itself: over contiguous ranges to k = 3000, sparse sorted sets with repeats and lone
    indices it gives the bits of the log formed from rafid_multipliers' (m, e), and refuses what that pass refuses.
    mu = 0.999 takes the product below 2^-500 near k = 1000 and back above 2^500 by k = 3000."""
    from pvalent.classes import _log_terms

    rng = np.random.default_rng(cp.p + round(1000 * cp.mu) + int(cp.delta))
    sparse = sorted(rng.integers(cp.p, 3001, size=60).tolist() + [cp.p + 1, cp.p + 1, 3000])
    for ks in (range(cp.p, 3001), range(cp.p + 1, 200), sparse, [cp.p], [cp.p + 1], [171], [1000], [3000]):
        assert list(_log_terms(cp, ks)) == _log_terms_from_rafid_multipliers(cp, ks)
    for ks, error in (([cp.p + 3, cp.p + 2], ParameterOutOfRangeError), ([cp.p + 1, cp.p - 1], IndexBelowValenceError)):
        with pytest.raises(error) as walk:
            list(_log_terms(cp, ks))
        with pytest.raises(error) as multipliers:
            _log_terms_from_rafid_multipliers(cp, ks)
        assert str(walk.value) == str(multipliers.value)


def test_log_terms_read_inf_at_a_subnormal_scale():
    """scale = (A-B)(p-alpha) subnormal: the bracket over the scale overflows, so log term(k) is inf, not finite."""
    from pvalent.classes import _log_terms

    cp = ClassParams(A=0.0, B=-2.225073858507e-311)
    assert log_r_criterion_term(3, cp) == math.inf
    assert list(_log_terms(cp, [3])) == _log_terms_from_rafid_multipliers(cp, [3]) == [math.inf]


def test_scan_table_is_frozen():
    """40 classes, p 1-6, mu up to 0.99, delta 0 or 1; three run the Phi scan to its cap of 64, with a nan Phi
    past p+1.  Each row holds budget_certified for m = 0..p, composition_certified for theorems 7-10 at c = 1 and
    eta = 0.5, the k_max = 64 order report, and radius, argmin_k and certified of the three radii at k_max = 200 and
    the row's zeta: every value prints as in tests/scan_table.csv."""
    import csv
    from pathlib import Path

    from pvalent import composition_certified, radius_close_to_convex, radius_convex, radius_starlike
    from pvalent import schild_silverman_lambda

    with open(Path(__file__).with_name("scan_table.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 40
    for row in rows:
        cp = ClassParams(int(row["p"]), *(float(row[k]) for k in ("alpha", "A", "B", "mu", "delta")))
        zeta = float(row["zeta"])
        lam = schild_silverman_lambda(cp, 64)
        got = {
            "budget": " ".join(str(budget_certified(cp, m)) for m in range(cp.p + 1)),
            **{f"comp{n}": str(composition_certified(n, cp, 1.0, 0.5)) for n in (7, 8, 9, 10)},
            "order": repr(lam.order), "saturation_margin": repr(lam.saturation_margin),
            "phi_increasing": str(lam.phi_increasing), "verified_best": str(lam.verified_best),
        }
        for kind, fn in (("starlike", radius_starlike), ("convex", radius_convex), ("ctc", radius_close_to_convex)):
            rep = fn(cp, zeta, 200)
            got.update({f"{kind}_radius": repr(rep.radius), f"{kind}_argmin_k": str(rep.argmin_k),
                        f"{kind}_certified": str(rep.certified)})
        assert got == {k: row[k] for k in got}, row


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
    """A zero a_k reaches pow2_product, which gives the zero itself, sign included, also against an inf term:
    the subnormal-scale and explicit-zero per-term values keep the bits they had behind a zero guard."""
    rep = check_r_membership(make_series(1, coeffs), cp)
    assert [(k, c.hex()) for k, c in rep.per_term] == bits


def _reference_params(rng, max_p=4, mu_range=(0.0, 0.9), delta_range=(0.0, 1.0), require_budget_orders=()):
    """random_params as five scalar rng.uniform calls per attempt: the stream the seeded draws rest on."""
    while True:
        p = int(rng.integers(1, max_p + 1))
        alpha = float(rng.uniform(0.0, 0.8 * p))
        B = float(rng.uniform(-1.0, 0.8))
        A = float(rng.uniform(B + 0.1, 1.0))
        mu, delta = float(rng.uniform(*mu_range)), float(rng.uniform(*delta_range))
        cp = ClassParams(p=p, alpha=alpha, A=A, B=B, mu=mu, delta=delta)
        if all(budget_certified(cp, m) for m in require_budget_orders if m <= p):
            return cp


def _reference_member(cp, rng, target_sum=None):
    """random_member with numpy's normalization, rng.uniform's target and a lone walk per bound."""
    count = int(rng.integers(1, 6))
    ks = [int(k) for k in cp.p + 1 + rng.choice(12, size=count, replace=False)]
    u = rng.random(count)
    u = u / u.sum()
    s = float(rng.uniform(0.0, 0.999)) if target_sum is None else float(target_sum)
    return make_series(cp.p, [(k, s * float(ui) * coeff_bound_r(k, cp)) for k, ui in zip(ks, u)])


@pytest.mark.parametrize(
    "kwargs",
    [{}, {"mu_range": (0.55, 0.9)}, {"delta_range": (0.0, 0.0)}, {"require_budget_orders": (0, 1)}, {"max_p": 9}],
)
def test_random_params_keeps_the_stream_of_five_uniform_calls(kwargs):
    """Seeded draws equal the scalar rng.uniform reference, and leave the generator in the same state."""
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

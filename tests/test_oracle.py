"""Disk-sampling verification of the defining inequalities."""

import math
import warnings

import pytest

from pvalent import (
    ClassParams,
    SampleGrid,
    check_r_membership,
    convex_min_re,
    ctc_max_dev,
    extremal_r,
    locate_real_axis_violation,
    make_series,
    random_member,
    random_params,
    starlike_min_re,
    subordination_certified,
    subordination_margin,
    subordination_ratio_real,
)
from pvalent.errors import (
    DivergentInputError,
    ParameterOutOfRangeError,
    PoleOnGridError,
    RadiusOutOfRangeError,
)

CANONICAL = ClassParams()


def test_monomial_ratio_is_zero():
    # w = z g'/g is p up to rounding in the complex division
    rep = subordination_margin(make_series(2), ClassParams(p=2))
    assert rep.extremum <= 1e-14
    assert rep.passed


def test_canonical_extremal_passes_and_saturates():
    rep = subordination_margin(extremal_r(2, CANONICAL), CANONICAL)
    assert rep.passed
    assert rep.arg_z.imag == 0.0 and rep.arg_z.real > 0
    # frozen grid maximum at r = 0.99 on the positive real axis
    assert rep.extremum == pytest.approx(0.9611650485436893, rel=1e-12)
    # grows along the real axis toward the boundary
    rr = [subordination_ratio_real(extremal_r(2, CANONICAL), CANONICAL, r) for r in (0.5, 0.9, 0.99)]
    assert rr[0] < rr[1] < rr[2] < 1.0


def test_nonmember_fails_on_real_axis():
    f = make_series(1, [(2, 0.3)])  # criterion sum 1.2
    assert not check_r_membership(f, CANONICAL).member
    found, r_at, ratio = locate_real_axis_violation(f, CANONICAL)
    assert found
    assert ratio >= 1.0 - 1e-3
    assert 0.9 <= r_at < 1.0
    assert not subordination_margin(f, CANONICAL).passed


def test_positive_b_breaks_the_implication():
    """Criterion sum below one does not control the ratio off-axis for B > 0."""
    cp = ClassParams(B=0.5)
    f = make_series(1, [(6, 0.9 / 4320.0)])
    rep = check_r_membership(f, cp)
    assert rep.member and rep.sum == pytest.approx(0.9, rel=1e-15)
    assert not subordination_certified(f, cp)
    orep = subordination_margin(f, cp)
    assert not orep.passed
    assert orep.extremum > 3.0
    # on the positive real axis the criterion still controls the ratio
    assert subordination_ratio_real(f, cp, 0.99) < 1.0


def test_certified_members_pass(rng):
    checked = 0
    while checked < 30:
        cp = random_params(rng)
        f = random_member(cp, rng)
        if not subordination_certified(f, cp):
            continue
        assert subordination_margin(f, cp).passed
        checked += 1


def test_certified_predicate_rules():
    f_near = make_series(1, [(2, 0.01)])
    f_far = make_series(1, [(9, 1e-9)])
    cp = ClassParams(B=0.2)
    # B(k-p) <= (A-B)(p-alpha) holds at k=2 but not at k=9
    assert subordination_certified(f_near, cp)
    assert not subordination_certified(f_far, cp)
    assert subordination_certified(f_far, ClassParams(B=-0.3))


def test_pole_on_grid_reported():
    # smoothing doubles the coefficient: g = z - 2 z^2 vanishes at z = 0.5 exactly
    f = make_series(1, [(2, 1.0)])
    with pytest.raises(PoleOnGridError):
        subordination_margin(f, CANONICAL)


def test_refinement_only_raises_the_maximum():
    f = extremal_r(2, ClassParams(alpha=0.3))
    cp = ClassParams(alpha=0.3)
    coarse = subordination_margin(f, cp, SampleGrid(refinement=0))
    fine = subordination_margin(f, cp, SampleGrid(refinement=3))
    assert fine.extremum >= coarse.extremum


def test_starlike_frozen_value():
    rep = starlike_min_re(make_series(1, [(2, 0.6)]), 0.0, 0.9)
    assert rep.extremum == pytest.approx(-0.08 / 0.46, rel=1e-12)
    assert not rep.passed
    assert rep.arg_z == pytest.approx(0.9 + 0j)


def test_starlike_and_convex_on_monomial():
    f = make_series(3)
    assert starlike_min_re(f, 0.0, 0.5).extremum == pytest.approx(3.0, rel=1e-12)
    assert convex_min_re(f, 0.0, 0.5).extremum == pytest.approx(3.0, rel=1e-12)


def test_convex_detects_curvature_loss():
    # f = z - 0.4 z^2 stops being convex well inside the disk
    f = make_series(1, [(2, 0.4)])
    rep = convex_min_re(f, 0.0, 0.9)
    assert rep.extremum < 0.0 and not rep.passed


def test_ctc_deviation_threshold():
    f = make_series(1, [(2, 0.2)])
    rep = ctc_max_dev(f, 0.0, 0.5)
    # |f'/z^(p-1) - p| = |2 a2 z| = 0.2 at r = 0.5, against threshold p - zeta
    assert rep.extremum == pytest.approx(0.2, rel=1e-12)
    assert rep.passed


def test_grid_validation():
    with pytest.raises(ParameterOutOfRangeError):
        SampleGrid(radii=(0.5, 0.4))
    with pytest.raises(RadiusOutOfRangeError):
        SampleGrid(radii=(0.5, 1.0))
    with pytest.raises(ParameterOutOfRangeError):
        SampleGrid(angles_per_radius=4)


def test_report_dict_shape():
    d = subordination_margin(make_series(1), CANONICAL).to_dict()
    assert set(d) == {
        "check",
        "extremum",
        "threshold",
        "arg_z",
        "pass",
        "tolerance",
        "warnings",
    }
    assert set(d["arg_z"]) == {"re", "im"}


@pytest.mark.parametrize("k0", [171, 180])
def test_explicit_zero_past_double_range_passes(k0):
    """w_k is beyond double range at k0; the zero coefficient must stay zero in the image."""
    f = make_series(1, [(2, 0.125), (3, 0.02), (k0, 0.0)])
    rep = subordination_margin(f, CANONICAL)
    plain = subordination_margin(make_series(1, [(2, 0.125), (3, 0.02)]), CANONICAL)
    assert rep.passed
    assert rep.extremum == pytest.approx(plain.extremum, rel=1e-12)


def test_smoothed_coefficient_past_double_range_is_refused():
    """w_200 a_200 is about 1e364 at mu = 0: refused by index, before any sampling."""
    f = make_series(1, [(200, 1e-10)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (
            lambda: subordination_margin(f, CANONICAL),
            lambda: subordination_ratio_real(f, CANONICAL, 0.5),
        ):
            with pytest.raises(DivergentInputError, match=r"k = 200 .*exceeds double range"):
                call()

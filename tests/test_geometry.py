"""Distortion bounds, their certification premise, and the three radii."""

import math
import warnings

import mpmath
import pytest

from pvalent import (
    ClassParams,
    budget_certified,
    check_r_membership,
    derivative_m,
    distortion_bounds,
    distortion_curve,
    extremal_r,
    make_series,
    r_criterion_term,
    radius_close_to_convex,
    radius_convex,
    radius_starlike,
    random_member,
    random_params,
    starlike_min_re,
)
from pvalent.classes import log_r_criterion_term
from pvalent.errors import ParameterOutOfRangeError, RadiusOutOfRangeError, UncertifiedBoundWarning

CANONICAL = ClassParams()


def test_canonical_distortion_frozen():
    assert distortion_bounds(CANONICAL, 0, 0.5) == (0.4375, 0.5625)
    assert distortion_bounds(CANONICAL, 1, 0.5) == (0.75, 1.25)


def test_distortion_contains_members(rng):
    for _ in range(100):
        cp = random_params(rng, require_budget_orders=(0, 1))
        f = random_member(cp, rng)
        m = int(rng.integers(0, 2))
        r = float(rng.uniform(0.05, 0.95))
        lo, up = distortion_bounds(cp, m, r)
        theta = float(rng.uniform(0, 2 * math.pi))
        z = r * complex(math.cos(theta), math.sin(theta))
        val = abs(derivative_m(f, m).evaluate(z))
        slack = 1e-12 * max(1.0, up)
        assert lo - slack <= val <= up + slack


def test_extremal_attains_lower_bound_on_real_axis(rng):
    for _ in range(25):
        cp = random_params(rng, require_budget_orders=(0,))
        r = float(rng.uniform(0.1, 0.9))
        lo, _ = distortion_bounds(cp, 0, r)
        val = derivative_m(extremal_r(cp.p + 1, cp), 0).evaluate(r)
        assert val.imag == 0.0
        assert abs(val.real - lo) <= 1e-10 * max(1.0, abs(lo))


def test_distortion_rejects_radius_outside_disk():
    with pytest.raises(RadiusOutOfRangeError):
        distortion_bounds(CANONICAL, 0, 1.0)
    with pytest.raises(RadiusOutOfRangeError):
        distortion_bounds(CANONICAL, 0, -0.1)


def test_distortion_curve_shape():
    curve = distortion_curve(CANONICAL, 1, [0.1, 0.3, 0.5])
    assert curve.m == 1
    assert len(curve.samples) == 3
    assert curve.samples[2] == (0.5, 0.75, 1.25)


def test_uncertified_budget_has_a_violating_member():
    """Heavy damping breaks the tail aggregation the bounds rely on."""
    cp = ClassParams(mu=0.9, delta=0.0)
    assert not budget_certified(cp, 1)
    # mass far out: the criterion admits a huge third coefficient
    a3 = 1.0 / r_criterion_term(3, cp)
    f = make_series(1, [(3, a3)])
    assert check_r_membership(f, cp).member
    with pytest.warns(UncertifiedBoundWarning):
        _, up = distortion_bounds(cp, 1, 0.5)
    val = abs(derivative_m(f, 1).evaluate(0.5j))
    assert val == pytest.approx(13.5, rel=1e-12)
    assert val > up  # the printed bound (6.0) genuinely fails here


def test_certified_regime_emits_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error", UncertifiedBoundWarning)
        distortion_bounds(CANONICAL, 1, 0.5)


def test_canonical_radius_candidates_frozen():
    rep = radius_starlike(CANONICAL)
    ks, vals = zip(*rep.candidates)
    assert ks[0] == 2 and ks[1] == 3
    assert vals[0] == pytest.approx(2.0, abs=1e-12)
    assert vals[1] == pytest.approx(math.sqrt(6.0), abs=1e-12)
    assert rep.argmin_k == 2
    assert rep.radius == vals[0]
    assert rep.certified and rep.whole_disk
    # increasing along the first stretch
    assert all(a < b for a, b in zip(vals[:10], vals[1:11]))


def test_convex_at_most_starlike(rng):
    for _ in range(25):
        cp = random_params(rng, mu_range=(0.55, 0.9))
        zeta = float(rng.uniform(0.0, 0.6 * cp.p))
        rs = radius_starlike(cp, zeta).radius
        rc = radius_convex(cp, zeta).radius
        assert rc <= rs * (1.0 + 1e-12)


def test_radius_confirmed_by_sign_change(rng):
    checked = 0
    for _ in range(200):
        cp = random_params(rng, mu_range=(0.55, 0.9))
        zeta = float(rng.uniform(0.0, 0.6 * cp.p))
        rep = radius_starlike(cp, zeta)
        if rep.radius >= 0.999 or not rep.certified:
            continue
        f = extremal_r(rep.argmin_k, cp)
        inside = starlike_min_re(f, zeta, rep.radius * (1.0 - 1e-5))
        outside = starlike_min_re(f, zeta, rep.radius * (1.0 + 1e-5))
        assert inside.extremum > zeta
        assert outside.extremum < zeta
        checked += 1
        if checked == 25:
            break
    assert checked == 25


def test_close_to_convex_radius_is_reported():
    rep = radius_close_to_convex(CANONICAL, zeta=0.0)
    assert rep.kind == "close-to-convex"
    assert rep.radius > 0
    assert rep.argmin_k >= 2


def test_radius_report_dict_round():
    d = radius_starlike(CANONICAL).to_dict()
    assert d["kind"] == "starlike"
    assert d["argmin_k"] == 2


@pytest.mark.parametrize(
    "radius, kind",
    [(radius_starlike, "starlike"), (radius_convex, "convex"), (radius_close_to_convex, "ctc")],
)
def test_radius_candidates_match_mpmath(radius, kind, mpref):
    cp = ClassParams(p=2, alpha=0.5, A=0.8, B=-0.4, mu=0.3, delta=0.6)
    zeta = 0.4
    candidates = dict(radius(cp, zeta, k_max=10_000).candidates)
    for k in (3, 4, 50, 171, 1_000, 10_000):
        with mpmath.workdps(50):
            p, z = cp.p, mpmath.mpf(zeta)
            factor = {
                "starlike": (p - z) / (k - z),
                "convex": p * (p - z) / (k * (k - z)),
                "ctc": (p - z) / k,
            }[kind]
            want = mpmath.exp((mpref.log_term(k, cp) + mpmath.log(factor)) / (k - p))
        assert candidates[k] == pytest.approx(float(want), rel=1e-13)


def _log_factor(kind, k, p, zeta):
    """log factor(k), summed left to right as the scan sums it."""
    if kind == "starlike":
        return math.log(p - zeta) - math.log(k - zeta)
    if kind == "convex":
        return math.log(p) + math.log(p - zeta) - math.log(k) - math.log(k - zeta)
    return math.log(p - zeta) - math.log(k)


@pytest.mark.parametrize(
    "radius, kind",
    [(radius_starlike, "starlike"), (radius_convex, "convex"), (radius_close_to_convex, "ctc")],
)
def test_radius_candidates_bit_exact(radius, kind, rng):
    """Each candidate is exp((log term(k) + log factor(k)) / (k-p)), rounded in that order."""
    for draw in range(40):
        cp = random_params(rng, mu_range=(0.0, 0.0) if draw % 2 else (0.0, 0.95))
        zeta = float(rng.uniform(0.0, cp.p))
        candidates = dict(radius(cp, zeta, k_max=300).candidates)
        assert list(candidates) == list(range(cp.p + 1, 301))
        # at mu = 0 the term leaves double range from k = 171
        for k in [*range(cp.p + 1, cp.p + 13), 170, 171, 172, 250, 300]:
            log_r = log_r_criterion_term(k, cp) + _log_factor(kind, k, cp.p, zeta)
            assert candidates[k] == math.exp(log_r / (k - cp.p))


@pytest.mark.parametrize("radius", [radius_starlike, radius_convex, radius_close_to_convex])
@pytest.mark.parametrize("k_max", [2.5, 60.0, True])
def test_radius_scans_refuse_a_k_max_that_is_not_an_integer(radius, k_max):
    # 2.5 once raised TypeError from range
    with pytest.raises(ParameterOutOfRangeError):
        radius(ClassParams(), k_max=k_max)

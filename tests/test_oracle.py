"""Disk-sampling verification of the defining inequalities."""

import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from pvalent import (
    ClassParams,
    SampleGrid,
    apply_rafid,
    check_r_membership,
    coeff_bound_r,
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
    DomainError,
    ParameterOutOfRangeError,
    PoleOnGridError,
    RadiusOutOfRangeError,
    ValenceMismatchError,
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
    """z^p alone: one term for starlike and convex, none at all for close-to-convex, on any angle count."""
    f = make_series(3)
    for n in (8, 9, 256):
        for check, extremum in ((starlike_min_re, 3.0), (convex_min_re, 3.0), (ctc_max_dev, 0.0)):
            rep = check(f, 0.0, 0.5, n_angles=n)
            assert rep.passed and rep.warnings == () and rep.n_angles == n
            assert rep.extremum == pytest.approx(extremum, rel=1e-12, abs=1e-12)


def _reference_fold(e, c, power, n):
    """The fold as one bincount over the concatenated slots, then the conjugated rfft."""
    slot = e % n
    rows = np.concatenate([c * power, c * e * power])
    folded = np.bincount(np.concatenate([slot, slot + n]), rows, 2 * n)
    return np.fft.rfft(folded.reshape(2, n)).conj()


@pytest.mark.parametrize("n", [8, 9])
@pytest.mark.parametrize(
    "e, c",
    [
        ([0, 1, 5, 8, 9, 13, 16, 17, 40], [1.0, -0.3, -0.01, -2e-3, -1e-3, -5e-4, -1e-4, -3e-5, -1e-9]),
        ([0, 3, 8, 9, 11, 17], [1.0, -0.0, -0.0, -0.2, -0.0, -0.1]),  # zeros give -0.0 products
        ([0, 8, 16, 24], [-0.0, -0.0, -0.0, -0.0]),
        ([], []),
    ],
)
def test_half_circle_matches_the_reference_fold_bit_for_bit(n, e, c):
    """Degree past n with colliding slots, -0.0 products and no terms at all fold as the reference does, h and z h'
    together or h alone."""
    import pvalent.oracle as oracle

    e, c = np.asarray(e, dtype=np.int64), np.asarray(c, dtype=float)
    power = 0.93**e
    want = _reference_fold(e, c, power, n)
    for rows in (2, 1):
        got = oracle._half_circle(e, c, power, n, rows)
        assert got.shape == (rows, n // 2 + 1)
        assert np.array_equal(got.view(np.int64), want[:rows].view(np.int64))


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
    with pytest.raises(ParameterOutOfRangeError, match="grid needs at least one radius"):
        SampleGrid(radii=())
    with pytest.raises(ParameterOutOfRangeError):
        SampleGrid(radii=(0.5, 0.4))
    with pytest.raises(RadiusOutOfRangeError):
        SampleGrid(radii=(0.5, 1.0))
    with pytest.raises(ParameterOutOfRangeError):
        SampleGrid(angles_per_radius=4)


def test_circle_through_a_zero_is_refused():
    # f/z = 1 - 2z at a_2 = 2 and f' = 1 - 2z at a_2 = 1 vanish at z = 0.5 itself, a grid point
    with pytest.raises(PoleOnGridError, match=r"^f vanishes on \|z\| = 0.5$"):
        starlike_min_re(make_series(1, [(2, 2.0)]), 0.0, 0.5)
    with pytest.raises(PoleOnGridError, match=r"^f' vanishes on \|z\| = 0.5$"):
        convex_min_re(make_series(1, [(2, 1.0)]), 0.0, 0.5)
    # z - z^2 has its zero at 1, and the smoothed image at mu = 0, delta = 1 is z - 2 z^2, zero at 0.5
    with pytest.raises(PoleOnGridError, match=r"smoothed image vanishes at z = \(0.5\+0j\)"):
        subordination_ratio_real(make_series(1, [(2, 1.0)]), ClassParams(), 0.5)


def test_report_dict_shape():
    d = subordination_margin(make_series(1), CANONICAL).to_dict()
    assert set(d) == {
        "check",
        "extremum",
        "threshold",
        "arg_z",
        "pass",
        "tolerance",
        "n_angles",
        "warnings",
    }
    assert set(d["arg_z"]) == {"re", "im"}
    assert d["n_angles"] == 256


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


def test_real_axis_walk_smooths_once(monkeypatch):
    """One multiplier pass per walk, with the values of a walk of single real points."""
    import pvalent.oracle as oracle

    passes = []
    multipliers = oracle.rafid_multipliers

    def counting(p, rp, ks):
        passes.append(list(ks))
        return multipliers(p, rp, ks)

    # criterion sums 0.5 (all 40 steps, nothing found) and 1.2 (found early)
    for f in (make_series(1, [(2, 0.125)]), make_series(1, [(2, 0.3)])):
        best_r, best_ratio, expected = 0.9, -math.inf, None
        for j in range(40):
            r = 1.0 - 0.1 * 0.5**j
            ratio = subordination_ratio_real(f, CANONICAL, r)
            if ratio > best_ratio:
                best_r, best_ratio = r, ratio
            if ratio >= 1.0 - 1e-3:
                expected = (True, r, ratio)
                break
        expected = expected or (False, best_r, best_ratio)
        passes.clear()
        monkeypatch.setattr(oracle, "rafid_multipliers", counting)
        assert locate_real_axis_violation(f, CANONICAL) == expected
        monkeypatch.undo()
        assert passes == [sorted(f.coeffs)]


def test_walk_radii_increase_strictly_below_one(monkeypatch):
    """The walk's 40 fixed radii start at 0.9, increase strictly and never reach 1."""
    import pvalent.oracle as oracle

    radii = []

    def spy(f, cp, walk):
        radii.extend(walk)
        return iter([0.0] * len(walk))  # never reaches the threshold, so every radius is visited

    monkeypatch.setattr(oracle, "_axis", spy)
    assert locate_real_axis_violation(make_series(1, [(2, 0.125)]), CANONICAL) == (False, 0.9, 0.0)
    assert len(radii) == 40 and all(type(r) is float for r in radii)
    assert radii[0] == 0.9 and radii[-1] < 1.0
    assert all(a < b for a, b in zip(radii, radii[1:]))


def test_valence_mismatch_refused_on_every_path():
    """z^2 - 0.01 z^3 under p = 1 parameters: no ratio is computed anywhere."""
    f = make_series(2, [(3, 0.01)])
    cp = ClassParams(p=1)
    for call in (
        lambda: subordination_margin(f, cp),
        lambda: subordination_ratio_real(f, cp, 0.5),
        lambda: locate_real_axis_violation(f, cp),
    ):
        with pytest.raises(ValenceMismatchError, match="valence 2 != parameter valence 1"):
            call()


def _mp_ratio(z, b, cp):
    """50-digit subordination ratio at z for the smoothed image z^p - sum b[k] z^k."""
    p = cp.p
    with mpmath.workdps(50):
        z = mpmath.mpc(z)
        g = z**p - mpmath.fsum(bk * z**k for k, bk in b.items())
        w = (p * z**p - mpmath.fsum(k * bk * z**k for k, bk in b.items())) / g
        B = mpmath.mpf(cp.B)
        return abs((w - p) / (B * w - (B * p + mpmath.mpf(cp.scale))))


def test_reported_point_lies_in_upper_half_plane():
    """z - 9e-4 z^5 has equal maxima at the four angles pi/4 + k pi/2; the report takes pi/4."""
    f = make_series(1, [(5, 9e-4)])
    rep = subordination_margin(f, ClassParams(B=0.5), SampleGrid(refinement=0))
    assert rep.arg_z.imag >= 0.0 and abs(rep.arg_z) == 0.99
    assert rep.arg_z.real > 0.0


@pytest.mark.parametrize(
    "check, k, a, r",
    [(starlike_min_re, 9, 0.05, 0.9), (convex_min_re, 9, 0.01, 0.9), (ctc_max_dev, 5, 0.001, 0.5)],
)
def test_circle_extremum_lies_in_upper_half_plane(check, k, a, r):
    """z - a z^k attains each circle extremum at k-1 angles, z = r among them."""
    f = make_series(1, [(k, a)])
    rep = check(f, 0.0, r)
    assert rep.arg_z.imag >= 0.0 and abs(rep.arg_z) == pytest.approx(r, rel=1e-15)
    # the coarse grid holds the same tied extremum
    coarse = check(f, 0.0, r, n_angles=8)
    assert rep.extremum == pytest.approx(coarse.extremum, rel=1e-12)


def test_folded_indices_match_mpmath_on_eight_angles():
    """Support to p+30 on 8 angles folds every exponent mod 8 several times."""
    cp = ClassParams(mu=0.5, delta=0.5)
    ks = range(2, 32)
    w = {k: apply_rafid(make_series(1, [(k, 1.0)]), cp.rafid).coeffs[k] for k in ks}
    f = make_series(1, [(k, 0.3 * 1.5 ** (1 - k) / (30 * w[k])) for k in ks])
    b = apply_rafid(f, cp.rafid).coeffs
    rep = subordination_margin(f, cp, SampleGrid(radii=(0.5,), angles_per_radius=8, refinement=0))
    with mpmath.workdps(50):
        points = [mpmath.mpf(0.5) * mpmath.expjpi(mpmath.mpf(j) / 4) for j in range(8)]
        ratio = max(_mp_ratio(z, b, cp) for z in points)
        fp = [mpmath.fsum(k * a * z ** (k - 1) for k, a in f.coeffs.items()) for z in points]
        dev = max(abs(v) for v in fp)
    assert rep.extremum == pytest.approx(float(ratio), rel=1e-12)
    assert ctc_max_dev(f, 0.0, 0.5, n_angles=8).extremum == pytest.approx(float(dev), rel=1e-12)


def test_long_member_matches_mpmath_at_reported_point(mpref):
    """150 terms on the default grid: the reported ratio is the 50-digit ratio at arg_z."""
    f = make_series(1, [(k, 0.9 / 150 * coeff_bound_r(k, CANONICAL)) for k in range(2, 152)])
    rep = subordination_margin(f, CANONICAL)
    with mpmath.workdps(50):
        b = {k: mpmath.exp(mpref.log_weight(k, 1, 0.0, 1.0)) * a for k, a in f.coeffs.items()}
        assert rep.extremum == pytest.approx(float(_mp_ratio(rep.arg_z, b, CANONICAL)), rel=1e-12)


@pytest.mark.parametrize(
    "call",
    [
        lambda: SampleGrid(angles_per_radius=7),
        lambda: SampleGrid(angles_per_radius=8.5),
        lambda: SampleGrid(angles_per_radius=True),
        lambda: SampleGrid(refinement=1.5),
        lambda: SampleGrid(refinement=-1),
        lambda: SampleGrid(refinement=False),
        lambda: starlike_min_re(make_series(1, [(2, 0.1)]), 0.0, 0.5, n_angles=0),
        lambda: convex_min_re(make_series(1, [(2, 0.1)]), 0.0, 0.5, n_angles=7),
        lambda: ctc_max_dev(make_series(1, [(2, 0.1)]), 0.0, 0.5, n_angles=16.0),
    ],
)
def test_angle_and_refinement_counts_refused(call):
    """Every circle takes an integer of at least 8 angles, and refinement an integer >= 0."""
    with pytest.raises(ParameterOutOfRangeError, match="must be an integer"):
        call()


def _inside(coefs, r):
    """Zeros of sum coefs[e] z^e in |z| < r, from numpy.roots."""
    return int((np.abs(np.roots(coefs[::-1])) < r).sum())


def _near_threshold_draws(rng, count, r):
    """Members rescaled so that the tail of H (even i) or of D (odd i) on |z| = r is its
    constant term times 1 +- delta, delta log-uniform in [1e-12, 1e-6]."""
    for i in range(count):
        cp = random_params(rng)
        f = random_member(cp, rng, target_sum=0.5)
        b = apply_rafid(f, cp.rafid).coeffs
        factor = {k: 1.0 if i % 2 == 0 else abs(cp.B * (k - cp.p) - cp.scale) / cp.scale for k in b}
        tail = math.fsum(factor[k] * bk * r ** (k - cp.p) for k, bk in b.items())
        target = 1.0 + (-1.0) ** (i // 2) * 10.0 ** rng.uniform(-12.0, -6.0)
        yield cp, make_series(cp.p, [(k, a * target / tail) for k, a in f.coeffs.items()])


def test_zero_counts_match_numpy_roots():
    """H = g/z^p and D = B zH' - (A-B)(p-alpha) H: proved counts against numpy.roots.

    A zero of H raises and names its count; zeros of D are the poles the
    report names; no count warning means both counts are 0.  The near-threshold
    draws put a tail within 1e-12 to 1e-6 of its constant term, on either side,
    where only the rounding margin of the dominance test separates the cases.
    """
    rng = np.random.default_rng(3)
    draws = []
    for i in range(600):
        cp = random_params(rng)
        draws.append((cp, random_member(cp, rng, target_sum=float(rng.uniform(0.0, 8.0)))))
    draws += _near_threshold_draws(np.random.default_rng(4), 120, 0.99)
    seen = {"H": 0, "D": 0, "none": 0}
    for i, (cp, f) in enumerate(draws):
        n, r = (8, 9, 64, 129, 256, 257)[i % 6], 0.99
        b = apply_rafid(f, cp.rafid).coeffs
        h = np.zeros(max(b) - cp.p + 1)
        h[0] = 1.0
        for k, bk in b.items():
            h[k - cp.p] -= bk
        d = (cp.B * np.arange(h.size) - cp.scale) * h
        try:
            rep = subordination_margin(f, cp, SampleGrid(radii=(r,), angles_per_radius=n))
        except PoleOnGridError as exc:
            assert str(exc) == f"smoothed image has {_inside(h, r)} zero(s) inside |z| < {r}"
            seen["H"] += 1
            continue
        if any("not proved" in w for w in rep.warnings):
            continue
        assert _inside(h, r) == 0
        poles = [w for w in rep.warnings if "pole" in w]
        assert poles == ([f"ratio has {_inside(d, r)} pole(s) inside |z| < {r}"] if _inside(d, r) else [])
        assert rep.passed is (not poles and rep.extremum < 1.0 - rep.tolerance)
        seen["D" if poles else "none"] += 1
    assert seen["H"] >= 30 and seen["D"] >= 30 and seen["none"] >= 100


def test_aliased_zeros_are_not_certified():
    """g = z - 2 z^9 takes one value on all 8 angles of |z| = 0.95, yet has 8 zeros at |z| = 2^(-1/8)."""
    f = make_series(1, [(9, 2.0 / 362880.0)])  # w_9 = 9! at the canonical parameters
    rep = subordination_margin(f, CANONICAL, SampleGrid(radii=(0.95,), angles_per_radius=8))
    # the 8 samples alone would pass: the ratio is about 0.94 at each of them
    assert rep.extremum < 1.0 and not rep.passed
    assert rep.warnings == ("zero counts inside |z| < 0.95 not proved; no disk bound",)
    with pytest.raises(PoleOnGridError, match=r"has 8 zero\(s\) inside \|z\| < 0.95"):
        subordination_margin(f, CANONICAL, SampleGrid(radii=(0.95,)))


def test_outer_circle_bounds_every_inner_circle(rng):
    """On certified members the counts are proved 0, so no default radius beats the outer one."""
    checked = 0
    while checked < 30:
        cp = random_params(rng)
        f = random_member(cp, rng, target_sum=float(rng.choice([0.5, 0.999, 1.0])))
        if not subordination_certified(f, cp):
            continue
        rep = subordination_margin(f, cp, SampleGrid(refinement=0))
        assert rep.passed is (rep.extremum < 1.0 - rep.tolerance)
        assert not any("pole" in w or "not proved" in w for w in rep.warnings)
        inner = [subordination_margin(f, cp, SampleGrid(radii=(r,), refinement=0)) for r in SampleGrid().radii]
        assert rep.extremum == max(c.extremum for c in inner)
        checked += 1


def test_uncertified_witness_reports_poles():
    """Draw 474 of seed 8 (criterion sum 0.50, B ~ 0.8): D has 2 zeros inside |z| < 0.99.

    Ten circles found a larger ratio, 9.36, at r = 0.9 near those poles; the
    one circle reports its own maximum and names the poles instead.
    """
    cp = ClassParams(
        p=2, alpha=0.7407461424369489, A=0.9656433018174384, B=0.7964919601130993,
        mu=0.45315014421690136, delta=0.3128383369780001,
    )
    f = make_series(2, [(6, 0.002440069495678992), (7, 0.0010146684014693684)])
    assert check_r_membership(f, cp).member and not subordination_certified(f, cp)
    rep = subordination_margin(f, cp)
    assert not rep.passed
    assert "ratio has 2 pole(s) inside |z| < 0.99" in rep.warnings
    assert abs(rep.arg_z) == pytest.approx(0.99, rel=1e-15)
    b = apply_rafid(f, cp.rafid).coeffs
    assert rep.extremum == pytest.approx(float(_mp_ratio(rep.arg_z, b, cp)), rel=1e-12)


def test_zero_off_every_grid_circle_raises():
    """g = z - 1.8 z^2 vanishes at 5/9, between the default circles 0.5 and 0.6."""
    f = make_series(1, [(2, 0.9)])
    with pytest.raises(PoleOnGridError, match=r"has 1 zero\(s\) inside \|z\| < 0.99"):
        subordination_margin(f, CANONICAL)


def test_dominated_counts_need_no_argument_principle(monkeypatch, rng):
    """On a certified member the tails of H and D stay below their constant terms, so the
    coefficients alone prove both counts 0, on any number of angles."""
    import pvalent.oracle as oracle

    def refuse(h, slack):
        raise AssertionError("argument-principle count on a dominated polynomial")

    monkeypatch.setattr(oracle, "_zero_count", refuse)
    checked = 0
    while checked < 30:
        cp = random_params(rng)
        f = random_member(cp, rng, target_sum=float(rng.choice([0.5, 0.999, 1.0])))
        if not subordination_certified(f, cp):
            continue
        for grid in (SampleGrid(), SampleGrid(radii=(0.95,), angles_per_radius=8)):
            rep = subordination_margin(f, cp, grid)
            assert rep.passed is (rep.extremum < 1.0 - rep.tolerance)
            assert not any("pole" in w or "not proved" in w for w in rep.warnings)
        checked += 1


def test_dominated_member_passes_on_eight_angles():
    """g = z - 0.11 z^9 (criterion sum 0.99) on 8 angles: L pi/n alone leaves D's count
    unproved, since the slack 3.2 exceeds min |D| = 0.98, but D's tail 10 (0.11) 0.99^8 is
    below its constant term 2."""
    f = make_series(1, [(9, 0.11 / 362880.0)])  # w_9 = 9! at the canonical parameters
    assert check_r_membership(f, CANONICAL).sum == pytest.approx(0.99, rel=1e-15)
    rep = subordination_margin(f, CANONICAL, SampleGrid(angles_per_radius=8))
    assert rep.passed and rep.warnings == ()
    # z^8 takes one value on all 8 angles, so every sample holds the real-axis ratio
    b = 0.11 * 0.99**8
    assert rep.extremum == pytest.approx(8 * b / (2.0 - 10 * b), rel=1e-12)


@pytest.mark.parametrize("check", [starlike_min_re, convex_min_re, ctc_max_dev])
@pytest.mark.parametrize("zeta", [-0.1, 2.0, 5.0, math.nan, math.inf])
def test_circle_order_outside_zero_to_p_refused(check, zeta):
    """Orders run over [0, p), as for the radii; zeta = 5 once gave a negative threshold."""
    with pytest.raises(ParameterOutOfRangeError, match=r"zeta must lie in \[0, p\)"):
        check(make_series(2, [(3, 0.01)]), zeta, 0.5)


def test_order_just_below_p_accepted():
    assert ctc_max_dev(make_series(2, [(3, 0.01)]), np.nextafter(2.0, 0.0), 0.5).threshold > 0.0


@pytest.mark.parametrize(
    "check, a, name, circle_min",
    [(starlike_min_re, 1.8, "f", 1.618320610687023), (convex_min_re, 0.9, "f'", 1.618320610687023)],
)
def test_circle_check_fails_on_a_zero_inside(check, a, name, circle_min):
    """f = z - 1.8 z^2 and f' = 1 - 1.8 z vanish at 5/9: the circle |z| = 0.9 looks fine, the disk is not."""
    rep = check(make_series(1, [(2, a)]), 0.0, 0.9)
    assert rep.extremum == pytest.approx(circle_min, rel=1e-12)
    assert not rep.passed
    assert rep.warnings == (f"{name} has 1 zero(s) in 0 < |z| < 0.9; no disk bound",)
    # inside the zero the same check proves the disk and passes
    inner = check(make_series(1, [(2, a)]), 0.0, 0.5)
    assert inner.warnings == () and inner.passed is (inner.extremum >= -1e-9)


def test_circle_zero_counts_match_numpy_roots():
    """The starlike and convex notes name the zeros of f/z^p and f'/z^(p-1) in 0 < |z| < r that
    numpy.roots finds, for tails on |z| = r from 0.2 to 4 times the leading term."""
    rng = np.random.default_rng(5)
    seen = {"proved": 0, "zeros": 0}
    for i in range(400):
        p, r, n = int(rng.integers(1, 4)), float(rng.uniform(0.3, 0.99)), (8, 64, 256, 257)[i % 4]
        ks = sorted(int(k) for k in p + 1 + rng.choice(8, size=int(rng.integers(1, 5)), replace=False))
        a = rng.random(len(ks))
        a *= rng.uniform(0.2, 4.0) / (a * r ** (np.array(ks) - p)).sum()
        f = make_series(p, list(zip(ks, a.tolist())))
        for check, name, weight in ((starlike_min_re, "f", lambda k: 1), (convex_min_re, "f'", lambda k: k)):
            poly = np.zeros(ks[-1] - p + 1)
            poly[0] = weight(p)
            for k, ak in zip(ks, a):
                poly[k - p] -= weight(k) * ak
            rep = check(f, 0.0, r, n_angles=n)
            if any("not proved" in w for w in rep.warnings):
                continue
            inside = _inside(poly, r)
            want = (f"{name} has {inside} zero(s) in 0 < |z| < {r}; no disk bound",) if inside else ()
            assert rep.warnings == want
            assert rep.passed is (not inside and rep.extremum >= -rep.tolerance)
            seen["zeros" if inside else "proved"] += 1
    assert seen["zeros"] >= 200 and seen["proved"] >= 100


def test_dominated_circle_checks_need_no_argument_principle(monkeypatch, rng):
    """A leading term that outweighs the tail, as for every benchmark circle member, proves the disk alone."""
    import pvalent.oracle as oracle

    def refuse(h, slack):
        raise AssertionError("argument-principle count on a dominated polynomial")

    monkeypatch.setattr(oracle, "_zero_count", refuse)
    checked = 0
    for _ in range(50):
        cp = random_params(rng)
        f = random_member(cp, rng)
        r = float(rng.uniform(0.1, 0.95))
        tails = {
            starlike_min_re: sum(a * r ** (k - f.p) for k, a in f.coeffs.items()),
            convex_min_re: sum(k / f.p * a * r ** (k - f.p) for k, a in f.coeffs.items()),
        }
        for check, tail in tails.items():
            if tail < 0.9:
                assert check(f, 0.0, r, n_angles=8).warnings == ()
                checked += 1
    assert checked >= 60


def _record_angles(monkeypatch):
    """Angle counts of every circle that subordination_margin samples, in order."""
    import pvalent.oracle as oracle

    seen = []
    sample = oracle._half_circle

    def recording(e, c, power, n, rows):
        seen.append(n)
        return sample(e, c, power, n, rows)

    monkeypatch.setattr(oracle, "_half_circle", recording)
    return seen


def _circle(cp, f, r, n):
    """|zH'| and |D| on the closed upper half of the n-angle circle, and the coefficient data."""
    import pvalent.oracle as oracle

    b = apply_rafid(f, cp.rafid).coeffs
    e = np.array([0] + [k - cp.p for k in sorted(b)])
    c = np.array([1.0] + [-b[k] for k in sorted(b)])
    hv, zhp = oracle._half_circle(e, c, r**e, n, 2)
    return np.abs(zhp), np.abs(cp.B * zhp - cp.scale * hv), e, np.abs(c) * r**e


def _proved_bound(cp, f, r, n):
    """U = (max |zH'_j| + a)/(min |D_j| - b) from the module docstring, written out here."""
    azhp, aden, e, mag = _circle(cp, f, r, n)
    rounding = (len(e) + n) * 2.0**-49
    lh, sh, l2 = e @ mag, mag.sum(), (e * e) @ mag
    ld = e @ (np.abs(cp.B * e - cp.scale) * mag)
    a = l2 * math.pi / n + rounding * (l2 + lh)
    b = ld * math.pi / n + rounding * (ld + abs(cp.B) * lh + cp.scale * sh)
    lo = aden.min() - b
    return (azhp.max() + a) / lo if lo > 0.0 else math.inf


def _ratio_at(z, exps, coefs, cp):
    """The ratio at one complex point, as |(w - p)/(B w - Bp - scale)| with w = z g'/g from complex powers of z."""
    g = zgp = 0j
    for e, c in zip(exps, coefs):
        term = c * z**e
        g += term
        zgp += e * term
    w = zgp / g
    den = cp.B * w - (cp.B * cp.p + cp.scale)
    return math.inf if den == 0 else abs((w - cp.p) / den)


def _bisected(cp, f, grid):
    """Largest ratio found by the angle bisection this check once made, and where it was found."""
    r, n = grid.radii[-1], grid.angles_per_radius
    azhp, aden, _, _ = _circle(cp, f, r, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = azhp / aden
    j = int(np.argmax(ratio))
    best_val, best_z = float(ratio[j]), complex(r * np.exp(2j * np.pi * j / n))
    b = apply_rafid(f, cp.rafid).coeffs
    exps, coefs = [cp.p, *sorted(b)], [1.0] + [-b[k] for k in sorted(b)]
    step, theta = 2.0 * math.pi / n, 2.0 * math.pi * j / n
    for _ in range(grid.refinement):
        step *= 0.5
        for cand in (theta - step, theta + step):
            z = r * complex(math.cos(cand), math.sin(cand))
            val = _ratio_at(z, exps, coefs, cp)
            if val > best_val:
                best_val, best_z, theta = val, z, cand
    return best_val, best_z


def _bound_draws(seed, count):
    """Certified and uncertified draws, sums near and below 1, on the default and 8-angle grids."""
    rng = np.random.default_rng(seed)
    grids = (SampleGrid(), SampleGrid(angles_per_radius=8), SampleGrid(radii=(0.9,), angles_per_radius=8))
    for i in range(count):
        cp = random_params(rng)
        f = random_member(cp, rng, target_sum=float(rng.uniform(0.0, 0.999) if i % 3 else rng.uniform(0.9, 1.1)))
        yield cp, f, grids[i % 3]


def test_bound_between_samples_holds_on_a_finer_circle(monkeypatch):
    """A pass before the last doubling rests on U < 1 - tol; the ratio on 16n angles stays below U."""
    seen = _record_angles(monkeypatch)
    early, doubled, kinds = 0, 0, set()
    for cp, f, grid in _bound_draws(6, 1200):
        seen.clear()
        try:
            rep = subordination_margin(f, cp, grid)
        except PoleOnGridError:
            continue
        n = seen[-1]
        assert seen == [grid.angles_per_radius * 2**i for i in range(len(seen))]
        assert rep.n_angles == n
        if not rep.passed or n == grid.angles_per_radius * 2**grid.refinement:
            continue
        bound = _proved_bound(cp, f, grid.radii[-1], n)
        assert bound < 1.0 - rep.tolerance
        azhp, aden, _, _ = _circle(cp, f, grid.radii[-1], 16 * n)
        assert (azhp / aden).max() <= bound
        early += 1
        doubled += n > grid.angles_per_radius
        kinds.add(subordination_certified(f, cp))
    assert early >= 500 and doubled >= 100 and kinds == {True, False}


def test_doubling_is_never_more_lenient_than_bisection():
    """Every pass is a pass of the bisection it replaced, on the same draws and grids."""
    passes, kinds = 0, set()
    for cp, f, grid in _bound_draws(7, 1200):
        try:
            rep = subordination_margin(f, cp, grid)
        except PoleOnGridError:
            continue
        if rep.passed:
            assert _bisected(cp, f, grid)[0] < 1.0 - rep.tolerance
            passes += 1
            kinds.add(subordination_certified(f, cp))
    assert passes >= 700 and kinds == {True, False}


def test_certified_members_keep_their_bisected_extremum():
    """Bisection never raised a certified member's extremum on seed 8, so dropping it moves no bit."""
    rng = np.random.default_rng(8)
    checked = 0
    while checked < 1000:
        cp = random_params(rng)
        f = random_member(cp, rng)
        if not subordination_certified(f, cp):
            continue
        rep = subordination_margin(f, cp)
        assert (rep.extremum, rep.arg_z) == _bisected(cp, f, SampleGrid())
        checked += 1


@pytest.mark.parametrize(
    "terms, circle, passed",
    [([(3, 0.1 / 6), (6, 0.1 / 720)], 16, False), ([(3, 0.1 / 6), (4, 0.1 / 24)], 32, True)],
)
def test_eight_angles_double_until_the_bound_decides(monkeypatch, terms, circle, passed):
    """Off-axis maxima at B = 1/2 lie between the 8 angles: the 2n and 4n circles find them.

    z - z^3/60 - z^6/7200 passes on its 8 samples (0.71), yet reaches 1.22 on
    16; z - z^3/60 - z^4/240 passes with its maximum on the 32-angle circle.
    """
    seen = _record_angles(monkeypatch)
    cp, f = ClassParams(B=0.5), make_series(1, terms)
    grid = SampleGrid(radii=(0.9,), angles_per_radius=8)
    rep = subordination_margin(f, cp, grid)
    assert seen[-1] == rep.n_angles == circle and rep.passed is passed
    assert rep.extremum > subordination_margin(f, cp, SampleGrid(radii=(0.9,), angles_per_radius=8, refinement=0)).extremum
    index = math.atan2(rep.arg_z.imag, rep.arg_z.real) * circle / (2.0 * math.pi)
    assert abs(rep.arg_z) == pytest.approx(0.9, rel=1e-15)
    assert index == pytest.approx(round(index), abs=1e-9) and round(index) % (circle // 8) != 0
    b = apply_rafid(f, cp.rafid).coeffs
    assert rep.extremum == pytest.approx(float(_mp_ratio(rep.arg_z, b, cp)), rel=1e-12)


def test_coefficient_times_exponent_overflow_folds_without_warning(monkeypatch):
    """a_13 = 1.7e308 at p = 5 gives c_8 e = 8 c_8 past double range while c_8 e r^e is not: zH' folds as
    c (e r^e), so under warnings-as-errors the report fails on its unproved zero counts with ratio 8/18."""
    import pvalent.oracle as oracle

    swapped, sample = [], oracle._half_circle

    def recording(e, c, power, n, rows):
        swapped.append(bool(c[-1] > 0.0))  # H's top coefficient is negative, r^e positive
        return sample(e, c, power, n, rows)

    monkeypatch.setattr(oracle, "_half_circle", recording)
    cp, f = ClassParams(p=5, mu=0.905, delta=0.0), make_series(5, [(13, 1.7e308)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = subordination_margin(f, cp, SampleGrid(radii=(0.113,), angles_per_radius=8))
        ordinary = subordination_margin(make_series(5, [(13, 0.1)]), cp, SampleGrid(radii=(0.113,), angles_per_radius=8))
    assert not rep.passed and rep.n_angles == 8 and rep.arg_z == 0.113
    assert rep.extremum == pytest.approx(8.0 / 18.0, rel=1e-12)
    assert rep.warnings == ("zero counts inside |z| < 0.113 not proved; no disk bound",)
    assert ordinary.passed and swapped == [True, False]
    b = apply_rafid(f, cp.rafid).coeffs[13]
    assert math.isinf(8.0 * b) and math.isfinite(8.0 * (b * 0.113**8))


def _sum_draws(data):
    """Parameters (B > 0 in about half), 0 to 200 indices up to p + 200 or p + 400, coefficients 0, subnormal,
    moderate or up to 2^997, and radii down to 0.01, where r^e of the top index is subnormal or 0."""
    p, mu = data.draw(st.sampled_from([1, 2, 3, 5])), data.draw(st.sampled_from([0.9, 0.99]))
    B = data.draw(st.sampled_from([-1.0, -0.5, -0.1, 0.1, 0.5, 0.9]))
    A = B + (1.0 - B) * data.draw(st.floats(0.05, 1.0))
    alpha, delta = data.draw(st.floats(0.0, 0.99)) * p, data.draw(st.sampled_from([0.0, 0.3, 1.0]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    span, m = 400 if mu == 0.99 else 200, data.draw(st.sampled_from([0, 1, 3, 10, 50, 120, 200]))
    ks = sorted(int(k) for k in rng.choice(np.arange(p + 1, p + span + 1), m, replace=False))
    kind = rng.choice(3, m, p=[0.1, 0.1, 0.8])
    low, high = np.array([[0.0, 0.0], [-1074.0, -1023.0], [-60.0, -10.0]])[kind].T
    a = np.where(kind > 0, 2.0 ** rng.uniform(low, high), 0.0)
    if m and data.draw(st.booleans()):
        a[rng.integers(m)] = 2.0 ** rng.uniform(900.0, 997.0)
    f = make_series(p, zip(ks, a.tolist()))
    return ClassParams(p, alpha, A, B, mu, delta), f, ks, data.draw(st.sampled_from([0.01, 0.05, 0.3, 0.9, 0.999]))


@settings(max_examples=150)
@given(data=st.data())
def test_one_pass_sums_stay_within_the_stated_slack(data):
    """The pass's tails and derivative sums are within (m + 8) 2^-52 relative of math.fsum over the same products
    (numpy's r**e and the array forms of |c| r^e), its coefficients are apply_rafid's bit for bit, and every
    dominance verdict outside the slack is the exact one (mpmath at 60 digits, exact r^e)."""
    import pvalent.oracle as oracle

    cp, f, ks, r = _sum_draws(data)
    e = np.array([cp.p, *ks]) - cp.p
    pw = r**e
    try:
        coefs, th, lh, l2, td, ld, _ = oracle._smoothed_sums(f, cp, ks, pw[1:].tolist())
    except DivergentInputError:
        reject()
    b = apply_rafid(f, cp.rafid).coeffs
    assert coefs == [1.0] + [-b[k] for k in ks]
    slack = (len(coefs) + 8) * 2.0**-52
    with np.errstate(over="ignore"):  # a product past double range is inf in the pass as well
        mh = np.abs(np.array(coefs)) * pw
        md = np.abs(cp.B * e - cp.scale) * mh
        products = (th, mh[1:]), (lh, e * mh), (l2, e * e * mh), (td, md[1:]), (ld, e * md)
    for got, terms in products:
        try:
            exact = math.fsum(terms)
        except OverflowError:  # finite terms whose sum is past double range
            exact = math.inf
        assert abs(got - exact) <= slack * exact or got == exact
    verdicts, dominates = [], oracle._dominates
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_dominates", lambda *a: verdicts.append((*a, dominates(*a))) or verdicts[-1][-1])
        try:  # the verdicts come before any sample; what the circle makes of the draw does not matter here
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("ignore")
                subordination_margin(f, cp, SampleGrid(radii=(r,), angles_per_radius=8, refinement=0))
        except (PoleOnGridError, DivergentInputError):  # the refusal of samples past double range comes after too
            pass
    (lead_h, _, _, err_h, dom_h), (lead_d, _, _, err_d, dom_d) = verdicts
    with mpmath.workdps(60):
        powers = [mpmath.mpf(r) ** int(x) for x in e[1:]]
        tail_h = mpmath.fsum(abs(mpmath.mpf(c)) * w for c, w in zip(coefs[1:], powers))
        factor = [abs(mpmath.mpf(cp.B) * int(x) - mpmath.mpf(cp.scale)) for x in e[1:]]
        tail_d = mpmath.fsum(abs(mpmath.mpf(c)) * w * g for c, w, g in zip(coefs[1:], powers, factor))
        for lead, tail, err, dom in ((lead_h, tail_h, err_h, dom_h), (lead_d, tail_d, err_d, dom_d)):
            if tail >= lead:
                assert not dom
            elif tail * (1 + 2 * slack) + err < lead:
                assert dom
    if pw[-1] < 2.0**-1022:
        assert not dom_h and not dom_d  # no proof past a subnormal r^e


def test_circle_checks_refuse_samples_past_double_range():
    # k a_k = 3e308 once gave a ValueError from round(nan) in the zero count (convex) and a nan with no note (ctc)
    f = make_series(1, [(30, 1e307)])
    with pytest.raises(DivergentInputError, match=r"f' on \|z\| = 0.99 reaches double range"):
        convex_min_re(f, 0.0, 0.99)
    with pytest.raises(DivergentInputError, match=r"p on \|z\| = 0.99 reaches double range"):
        ctc_max_dev(f, 0.0, 0.99)
    # samples that do fit: 13 a_13 overflows alone, so z f' is folded as a_13 (13 r^13); once a nan extremum
    rep = starlike_min_re(make_series(1, [(13, 1.7e308)]), 0.0, 0.5)
    # f = z (1 - a z^12) has its other 12 zeros at |z| = a^(-1/12), and z f'/f is about 13 on |z| = 0.5
    assert rep.extremum == pytest.approx(13.0, rel=1e-12) and not rep.passed
    assert rep.warnings == ("f has 12 zero(s) in 0 < |z| < 0.5; no disk bound",)
    with pytest.raises(DivergentInputError, match=r"f on \|z\| = 0.99 reaches double range"):
        starlike_min_re(make_series(1, [(2, 1e308)]), 0.0, 0.99)


def test_ctc_folds_its_one_row_without_a_numpy_flag(monkeypatch):
    """3 a_3 = 1.5e308 times e = 2 passes double range; close-to-convex reads |K| alone, so that product is never
    formed and the report raises no flag under warnings-as-errors, where an errstate used to hide it."""
    import pvalent.oracle as oracle

    rows, sample = [], oracle._half_circle

    def recording(e, c, power, n, count):
        rows.append(count)
        return sample(e, c, power, n, count)

    monkeypatch.setattr(oracle, "_half_circle", recording)
    f = make_series(1, [(3, 5e307)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = ctc_max_dev(f, 0.0, 0.5)
        convex_min_re(make_series(1, [(2, 0.1)]), 0.0, 0.5)
    assert rep.extremum == 3.7500000000000005e307 and not rep.passed and rep.warnings == ()
    assert rows == [1, 2] and math.isinf(3.0 * 5e307 * 2.0)


def test_subordination_raises_no_numpy_flag_at_the_ends_of_double_range():
    grid = SampleGrid(radii=(0.3,), angles_per_radius=8)
    # a subnormal scale makes every |D_j| subnormal: the quotient overflowed outside the errstate guard
    rep = subordination_margin(make_series(1, [(2, 0.3)]), ClassParams(A=0.0, B=-2.225073858507e-311), grid)
    assert rep.extremum == math.inf and not rep.passed
    assert rep.warnings == ("zero counts inside |z| < 0.3 not proved; no disk bound",)
    # samples of D past double range once overflowed into an extremum of 0.0
    with pytest.raises(DivergentInputError, match=r"smoothed image on \|z\| = 0.9 reaches double range"):
        subordination_margin(make_series(1, [(2, 8e307)]), CANONICAL, SampleGrid(radii=(0.9,), angles_per_radius=8))


@pytest.mark.parametrize("p, r", [(1000, 0.4), (40, 1e-8)])
def test_checks_answer_where_r_to_the_p_underflows(p, r):
    """z^p - 0.001 z^(p+1): r^p is 0.0 or subnormal, yet K = h/z^p is 1 - 0.001 z on the circle.

    Sampling h itself once refused the first circle ('f vanishes') and overflowed a quotient on the second; the
    real point read 'smoothed image vanishes' on the first and 0.0 on the second."""
    f, cp = make_series(p, [(p + 1, 0.001)]), ClassParams(p=p)
    for check in (starlike_min_re, convex_min_re):
        rep = check(f, 0.0, r)
        assert rep.passed and rep.warnings == () and rep.extremum == pytest.approx(p, rel=1e-6)
    point = subordination_ratio_real(f, cp, r)
    assert point == pytest.approx(subordination_margin(f, cp, SampleGrid(radii=(r,))).extremum, rel=1e-13)
    assert point == pytest.approx(float(_mp_axis_ratio(f, cp, r)[1]), rel=1e-13)
    assert point == pytest.approx({1000: 3.34e-4, 40: 5.125e-12}[p], rel=1e-3)


def test_point_refuses_samples_past_double_range_as_the_circle_does():
    """Smoothed coefficients 1.5e308 at k = 2 and 3: the point once read this as a pole, not as overflow."""
    cp = ClassParams(mu=0.5)
    f = make_series(1, [(2, 1.5e308), (3, 1e308)])  # w_k = (1 - mu)^(k-1) k!: w_2 = 1, w_3 = 1.5
    assert apply_rafid(f, cp.rafid).coeffs == {2: 1.5e308, 3: 1.5e308}
    for call in (lambda: subordination_ratio_real(f, cp, 0.99), lambda: subordination_margin(f, cp)):
        with pytest.raises(DivergentInputError, match=r"smoothed image on \|z\| = 0.99 reaches double range"):
            call()


def test_zero_of_h_on_the_circle_and_of_d_at_the_point():
    """g = z - 2 z^2 vanishes on the circle's first sample; at alpha = 1/2, H(0.5) = 1/2 and D = 0 exactly."""
    with pytest.raises(PoleOnGridError, match=r"^smoothed image vanishes on \|z\| = 0.5 at z = \(0.5\+0j\)$"):
        subordination_margin(make_series(1, [(2, 1.0)]), CANONICAL, SampleGrid(radii=(0.5,)))
    assert subordination_ratio_real(make_series(1, [(2, 0.5)]), ClassParams(alpha=0.5), 0.5) == math.inf


def _mp_axis_ratio(f, cp, r):
    """50-digit |zH'|/|D| at z = r for the smoothed image, with H = g/z^p and D = B zH' - scale H."""
    b = apply_rafid(f, cp.rafid).coeffs
    with mpmath.workdps(50):
        r = mpmath.mpf(r)
        h = 1 - mpmath.fsum(bk * r ** (k - cp.p) for k, bk in b.items())
        zhp = -mpmath.fsum((k - cp.p) * bk * r ** (k - cp.p) for k, bk in b.items())
        den = mpmath.mpf(cp.B) * zhp - mpmath.mpf(cp.scale) * h
        return h, abs(zhp) / abs(den) if den else mpmath.inf


@settings(max_examples=200)
@given(p=st.sampled_from([1, 2, 10, 40, 200, 1000]), data=st.data())
def test_every_check_answers_at_any_valence_and_radius(p, data):
    """One or two tail terms at p+1..p+4, member-sized (each a share of its lone bound, the shares summing to at most
    1), and r log-uniform on [1e-300, 0.99].  Every circle check and the point give finite values or refuse with a
    DomainError, with no numpy warning; the point raises PoleOnGridError only where H(r) is 0 at 50 digits, and is
    the 50-digit ratio to 1e-13 relative, plus what subnormal sums and quotients lose."""
    B = data.draw(st.sampled_from([-1.0, -0.5, 0.0, 0.5]))
    cp = ClassParams(
        p, data.draw(st.floats(0.0, 0.9)) * p, B + (1.0 - B) * data.draw(st.floats(0.05, 1.0)), B,
        data.draw(st.sampled_from([0.0, 0.5, 0.9])), data.draw(st.sampled_from([0.0, 0.5, 1.0])),
    )
    ks = data.draw(st.lists(st.integers(p + 1, p + 4), min_size=1, max_size=2, unique=True))
    f = make_series(p, [(k, data.draw(st.floats(0.0, 1.0)) / len(ks) * coeff_bound_r(k, cp)) for k in ks])
    r = 10.0 ** data.draw(st.floats(-300.0, math.log10(0.99)))
    for check in (starlike_min_re, convex_min_re, ctc_max_dev):
        try:
            rep = check(f, 0.0, r)
        except DomainError:
            continue
        assert math.isfinite(rep.extremum) and cmath.isfinite(rep.arg_z)
    h, want = _mp_axis_ratio(f, cp, r)
    try:
        got = subordination_ratio_real(f, cp, r)
    except PoleOnGridError:
        assert h == 0
        return
    except DomainError:
        return
    # once subnormal, lh is within 2^-1074 per product and addition, and the quotient within 2^-1074; D is about scale H
    tiny = mpmath.ldexp(1, -1074) * (1 + 4 * len(ks) / (abs(h) * cp.scale))
    assert math.isfinite(got) and abs(got - want) <= 1e-13 * want + tiny

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
from pvalent.errors import (
    DivergentInputError, OrderExceedsValenceError, ParameterOutOfRangeError, RadiusOutOfRangeError,
    UncertifiedBoundWarning,
)

CANONICAL = ClassParams()


def test_canonical_distortion_frozen():
    assert distortion_bounds(CANONICAL, 0, 0.5) == (0.4375, 0.5625)
    assert distortion_bounds(CANONICAL, 1, 0.5) == (0.75, 1.25)


@pytest.mark.parametrize("m", [168, 169, 170])
def test_distortion_past_the_factorial_range_matches_mpmath(m):
    """At p = 170 fallfac(171, m) is no double from m = 168, yet the bounds are: 50-digit reference."""
    cp, r = ClassParams(p=170), 0.5
    lower, upper = distortion_bounds(cp, m, r)
    assert distortion_curve(cp, m, [r]).samples == ((r, lower, upper),)
    with mpmath.workdps(50):
        scale = (mpmath.mpf(cp.A) - cp.B) * (cp.p - mpmath.mpf(cp.alpha))
        t = scale / ((1 - mpmath.mpf(cp.B) + scale) * (1 - mpmath.mpf(cp.mu)) * (cp.p + mpmath.mpf(cp.delta)))
        lead = mpmath.mpf(math.perm(170, m)) * mpmath.mpf(r) ** (170 - m)
        tail = mpmath.mpf(math.perm(171, m)) * t * mpmath.mpf(r) ** (171 - m)
        want = (float(lead - tail), float(lead + tail))
    assert lower == pytest.approx(want[0], rel=1e-14) and upper == pytest.approx(want[1], rel=1e-14)
    if m == 170:
        assert (lower, upper) == pytest.approx((3.6499283211490522e306, 1.0864902909466946e307), rel=1e-14)


def test_distortion_constants_past_double_range_are_refused():
    # A0 = 171! and A1 T = 172! T: returning inf would give inf - inf = nan
    with pytest.raises(DivergentInputError, match="order-171 derivative"):
        distortion_bounds(ClassParams(p=171), 171, 0.5)
    # fallfac(172, 165) = 4.2e307 is a double, but its product with T = 58.1 at mu = 0.9999 is not
    with pytest.raises(DivergentInputError, match="distortion order 165 has constants past double range"):
        distortion_bounds(ClassParams(p=171, mu=0.9999, delta=0.0), 165, 0.5)


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


@pytest.mark.parametrize(
    "m, error", [(99, OrderExceedsValenceError), (-1, ParameterOutOfRangeError), (True, ParameterOutOfRangeError)]
)
def test_distortion_curve_checks_the_order_with_no_radii(m, error):
    with pytest.raises(error):
        distortion_curve(CANONICAL, m, [])


def test_uncertified_curve_warns_once_per_sample_at_its_caller():
    cp = ClassParams(mu=0.9, delta=0.0)
    radii = [0.01 * (i + 1) for i in range(50)]
    text = f"tail aggregation not certified for distortion order 1 at {cp}"
    text += "; admissible members may exceed these bounds"
    for _ in range(2):  # the second curve reads the record the first one left
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            distortion_curve(cp, 1, radii)
        assert len(caught) == 50
        assert all(w.category is UncertifiedBoundWarning and str(w.message) == text for w in caught)
        assert {w.filename for w in caught} == {__file__}


def test_numpy_twin_is_stored_as_floats_and_warns_alike():
    # numpy fields are stored as plain floats, so the twin is the float class and its warning names mu=0.9
    import numpy as np

    twin = ClassParams(mu=np.float64(0.9), delta=0.0)
    plain = ClassParams(mu=0.9, delta=0.0)
    assert twin == plain and repr(twin) == repr(plain)
    for cp in (twin, plain):
        with pytest.warns(UncertifiedBoundWarning, match=r"mu=0\.9,"):
            assert distortion_bounds(cp, 1, 0.5) == distortion_bounds(plain, 1, 0.5)


@pytest.mark.parametrize("first", ["float32", "float"])
def test_float32_twin_gives_the_float_reports_in_either_order(first):
    """A float32 delta is stored as a float in the smoothing parameters too, so no float32 arithmetic
    overflows the k = 50 multiplier, and the records keyed by the class serve both twins one value."""
    import numpy as np

    from pvalent import coeff_bound_r, geometry

    delta = np.float32(0.3)
    twins = {"float32": ClassParams(mu=0.6, delta=delta), "float": ClassParams(mu=0.6, delta=float(delta))}
    f = make_series(1, [(2, 0.1), (7, 1e-4)])
    geometry._radius_scan.cache_clear()
    budget_certified.cache_clear()
    reports = {}
    for name in sorted(twins, key=lambda name: name != first):
        cp = twins[name]
        reports[name] = (coeff_bound_r(50, cp), check_r_membership(f, cp), radius_starlike(cp))
    assert reports["float32"] == reports["float"]
    assert type(twins["float32"].rafid.delta) is float and reports["float"][0] > 0.0


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
        k_max = 2000 if draw % 4 < 2 else 300
        candidates = dict(radius(cp, zeta, k_max=k_max).candidates)
        assert list(candidates) == list(range(cp.p + 1, k_max + 1))
        # at mu = 0 the term leaves double range from k = 171
        deep = (1000, 1999, 2000) if k_max == 2000 else ()
        for k in [*range(cp.p + 1, cp.p + 13), 170, 171, 172, 250, 300, *deep]:
            log_r = log_r_criterion_term(k, cp) + _log_factor(kind, k, cp.p, zeta)
            assert candidates[k] == math.exp(log_r / (k - cp.p))


@pytest.mark.parametrize("radius", [radius_starlike, radius_convex, radius_close_to_convex])
@pytest.mark.parametrize("k_max", [2.5, 60.0, True])
def test_radius_scans_refuse_a_k_max_that_is_not_an_integer(radius, k_max):
    # 2.5 once raised TypeError from range; 60.0 must not hit the memo entry of 60
    radius(ClassParams(), k_max=60)
    with pytest.raises(ParameterOutOfRangeError):
        radius(ClassParams(), k_max=k_max)


KINDS = (radius_starlike, radius_convex, radius_close_to_convex)


def test_memo_hits_equal_cold_calls(rng):
    """The radius scan record kept per parameter set moves no bit."""
    from pvalent.geometry import _radius_scan

    calls = []
    for cp in [random_params(rng) for _ in range(4)]:
        zeta = float(rng.uniform(0.0, cp.p))
        for k_max in (cp.p + 1, 50, 200):
            calls += [(kind, cp, zeta, k_max) for kind in KINDS]
        # consecutive calls that change only zeta, then only k_max, must miss and still match
        other = float(rng.uniform(0.0, cp.p))
        calls += [(radius_convex, cp, zeta, 50), (radius_convex, cp, other, 50), (radius_convex, cp, other, 51)]
    # runs of one (class, zeta, k_max) hit the memo; the shuffled copy interleaves kinds, classes and k_max
    ordered = len(calls)
    calls += [calls[i] for i in rng.permutation(len(calls))]
    _radius_scan.cache_clear()  # count this test's hits only
    hits, last = 0, None
    for i, (kind, cp, zeta, k_max) in enumerate(calls):
        warm = kind(cp, zeta, k_max)
        # one entry: a call hits exactly when the one before it had the same (class, zeta, k_max)
        hit = _radius_scan.cache_info().hits
        assert hit == ((cp, zeta, k_max) == last)
        hits += hit if i < ordered else 0
        _radius_scan.cache_clear()
        assert repr(kind(cp, zeta, k_max)) == repr(warm)
        last = (cp, zeta, k_max)
    assert hits >= ordered // 2


def test_distortion_order_refused_right_after_a_memo_hit():
    # True == 1 and hashes alike: a call at 1 must not let True through
    distortion_bounds(CANONICAL, 1, 0.5)
    with pytest.raises(ParameterOutOfRangeError, match="order must be an integer"):
        distortion_bounds(CANONICAL, True, 0.5)


_TRIPLE = (("starlike", radius_starlike), ("convex", radius_convex), ("ctc", radius_close_to_convex))


def test_log_k_table_grown_and_sliced(rng, monkeypatch):
    """k_max 3000 scanned before and after 300: the log k table is grown from empty and sliced, or grown twice,
    and every candidate keeps its bits."""
    from pvalent import geometry

    for draw in range(4):
        cp = random_params(rng, mu_range=(0.0, 0.0) if draw % 2 else (0.0, 0.95))
        zeta = float(rng.uniform(0.0, cp.p))
        runs = {}
        for order in ((3000, 300), (300, 3000)):
            monkeypatch.setattr(geometry, "_LOG_K", [-math.inf])
            geometry._radius_scan.cache_clear()
            for k_max in order:
                for kind, radius in _TRIPLE:
                    runs.setdefault((kind, k_max), []).append(repr(radius(cp, zeta, k_max).candidates))
            assert len(geometry._LOG_K) == 3001
        for kind, radius in _TRIPLE:
            (long_a, long_b), (short_a, short_b) = runs[(kind, 3000)], runs[(kind, 300)]
            assert long_a == long_b and short_a == short_b
            long = radius(cp, zeta, 3000).candidates
            assert repr(long[: 300 - cp.p]) == short_a
            for k in [*range(cp.p + 1, cp.p + 13), 299, 300, 301, 1500, 2999, 3000]:
                log_r = log_r_criterion_term(k, cp) + _log_factor(kind, k, cp.p, zeta)
                assert long[k - cp.p - 1] == (k, math.exp(log_r / (k - cp.p)))


def test_log_k_table_under_racing_threads(rng, monkeypatch):
    """Four threads scanning different k_max in a loop, one of them emptying the table each time so the others
    regrow it, get the serial candidates."""
    import sys
    import threading

    from pvalent import geometry

    jobs = []
    for k_max in (400, 2500, 1200, 3100):
        cp = random_params(rng)
        jobs.append((cp, float(rng.uniform(0.0, cp.p)), k_max))
    serial = [repr(radius_convex(*job).candidates) for job in jobs]
    monkeypatch.setattr(geometry, "_LOG_K", geometry._LOG_K)  # restored after the test
    results: list[list[str]] = [[] for _ in jobs]

    def scan(i):
        for _ in range(20):
            if i == 0:
                geometry._LOG_K = [-math.inf]
            results[i].append(repr(radius_convex(*jobs[i]).candidates))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=scan, args=(i,)) for i in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == [[want] * 20 for want in serial]

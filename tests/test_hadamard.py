"""Orders preserved by coefficientwise products of class members."""

import itertools
import math
import struct

import mpmath
import numpy as np
import pytest

from pvalent import (
    ClassParams,
    check_r_membership,
    class_order_candidate,
    extremal_r,
    hadamard_product,
    mixed_order_candidate,
    mixed_order_xi,
    random_member,
    random_params,
    schild_silverman_lambda,
)
from pvalent import hadamard
from pvalent.errors import DegenerateDenominatorError, DomainError, IndexBelowValenceError, ParameterOutOfRangeError
from pvalent.operators import rafid_multiplier, rafid_multipliers

CANONICAL = ClassParams()


def _membership_saturation(cp, beta, order, k=None):
    """(margin at the order, fails at order + bump) of the product of the two k-extremals (k = p+1 by default),
    read by check_r_membership: the reference the closed-form saturation must match bit for bit."""
    k = cp.p + 1 if k is None else k
    product = hadamard_product(extremal_r(k, cp), extremal_r(k, cp.replace(alpha=beta)))
    margin = check_r_membership(product, cp.replace(alpha=order)).margin
    bumped = order + hadamard._ORDER_BUMP
    return margin, bumped >= cp.p or not check_r_membership(product, cp.replace(alpha=bumped)).member


def _outcome(fn, *args):
    """fn(*args), or the type of the arithmetic or domain error it raises."""
    try:
        return fn(*args)
    except (ArithmeticError, DomainError) as exc:
        return type(exc)


def _edge_pairs():
    """(class, beta) at the edges of the domain: p up to 1000, a subnormal A-B (2.2e-311 or 5e-324),
    mu next to 1, delta 0 and 5e-324, and alpha and beta over 0, p/2, p - 1e-6 and the double below p."""
    for p, (A, B), mu, delta in itertools.product(
        (1, 2, 7, 1000), ((1.0, -1.0), (0.5, 0.25), (0.0, -2.225073858507e-311), (5e-324, 0.0)),
        (0.0, 0.5, math.nextafter(1.0, 0.0)), (0.0, 5e-324, 1.0),
    ):
        orders = (0.0, p / 2, p - 1e-6, math.nextafter(float(p), 0.0))
        for alpha, beta in itertools.product(orders, orders):
            if (A - B) * (p - alpha):  # ClassParams refuses a scale that rounds to 0.0
                yield ClassParams(p=p, alpha=alpha, A=A, B=B, mu=mu, delta=delta), beta


def _random_pairs(count):
    """(class, beta) from random_params with mu up to 0.99; beta is alpha on odd draws, else uniform in [0, p)."""
    rng = np.random.default_rng(7)
    for draw in range(count):
        cp = random_params(rng, mu_range=(0.0, 0.99))
        yield cp, cp.alpha if draw % 2 else float(rng.uniform(0.0, cp.p))


@pytest.mark.parametrize("pairs, least", [(_edge_pairs, 500), (lambda: _random_pairs(3000), 2500)],
                         ids=["edges", "random"])
def test_saturation_matches_the_extremal_product(pairs, least):
    """saturation_margin and verified_best equal, byte for byte, what check_r_membership reads off the product
    of the two k = p+1 extremals, raises included; least is how many orders in [0, p) the draws must reach."""
    inside = 0
    for cp, beta in pairs():
        rep, order = _outcome(mixed_order_xi, cp, beta, cp.p + 63), _outcome(mixed_order_candidate, cp.p + 1, cp, beta)
        if isinstance(order, type):
            assert rep is order, (cp, beta)
            continue
        margin, fails_above = math.nan, False
        if 0.0 <= order < cp.p:
            reference = _outcome(_membership_saturation, cp, beta, order)
            if isinstance(reference, type):
                assert rep is reference, (cp, beta)
                continue
            margin, fails_above = reference
            inside += 1
        assert rep.order == order, (cp, beta)
        assert struct.pack("<d", rep.saturation_margin) == struct.pack("<d", margin), (cp, beta)
        assert rep.verified_best == (rep.phi_increasing and abs(margin) <= 1e-10 and fails_above), (cp, beta)
    assert inside >= least


def test_closed_form_saturation_matches_the_product_at_any_index_and_order():
    """hadamard._saturation at k up to p+299 and at orders across [0, p), not only at Phi(p+1), equals the
    membership route bit for bit: products that fail past the bump, that stay inside past it, and products whose
    coefficient or criterion term underflows to zero or to a subnormal."""
    rng, verdicts = np.random.default_rng(13), set()
    for _ in range(1500):
        cp = random_params(rng, mu_range=(0.0, 0.99))
        beta, order, k = float(rng.uniform(0.0, cp.p)), float(rng.uniform(0.0, cp.p)), cp.p + int(rng.integers(1, 300))
        got = _outcome(hadamard._saturation, k, cp, beta, order, *rafid_multiplier(k, cp.p, cp.rafid))
        want = _outcome(_membership_saturation, cp, beta, order, k)
        if isinstance(want, type):
            assert got is want, (cp, beta, order, k)
            continue
        assert struct.pack("<d", got[0]) == struct.pack("<d", want[0]) and got[1] == want[1], (cp, beta, order, k)
        verdicts.add((want[0] == 1.0, want[1]))
    assert verdicts == {(True, False), (False, False), (False, True)}


def test_canonical_lambda_frozen():
    rep = schild_silverman_lambda(CANONICAL)
    assert rep.order == pytest.approx(6.0 / 7.0, abs=1e-12)
    assert rep.saturating_k == 2
    assert rep.verified_best
    assert rep.phi_increasing
    assert abs(rep.saturation_margin) <= 1e-10


def test_canonical_xi_frozen():
    rep = mixed_order_xi(CANONICAL, 0.5)
    assert rep.order == pytest.approx(10.0 / 11.0, abs=1e-12)
    assert abs(rep.saturation_margin) <= 1e-10


def test_xi_collapses_to_lambda_at_equal_orders(rng):
    for _ in range(50):
        cp = random_params(rng)
        try:
            lam = schild_silverman_lambda(cp).order
            xi = mixed_order_xi(cp, cp.alpha).order
        except DegenerateDenominatorError:
            continue
        assert xi == lam  # same code path, bit for bit


def test_candidate_consistency():
    assert class_order_candidate(2, CANONICAL) == mixed_order_candidate(
        2, CANONICAL, CANONICAL.alpha
    )


def test_order_in_range_for_light_damping(rng):
    """With mu <= 1/2 the order stays in [alpha, p) and the candidates increase."""
    for _ in range(50):
        cp = random_params(rng, mu_range=(0.0, 0.5))
        rep = schild_silverman_lambda(cp)
        assert cp.alpha <= rep.order < cp.p
        assert rep.phi_increasing


def test_product_of_members_has_the_order(rng):
    for _ in range(50):
        cp = random_params(rng, mu_range=(0.0, 0.5))
        lam = schild_silverman_lambda(cp).order
        f = random_member(cp, rng)
        g = random_member(cp, rng)
        h = hadamard_product(f, g)
        assert check_r_membership(h, cp.replace(alpha=lam)).member


def test_product_of_extremals_saturates_exactly():
    lam = schild_silverman_lambda(CANONICAL).order
    f = extremal_r(2, CANONICAL)
    h = hadamard_product(f, f)
    rep = check_r_membership(h, CANONICAL.replace(alpha=lam))
    assert abs(rep.margin) <= 1e-10
    # any larger claimed order loses the product
    worse = check_r_membership(h, CANONICAL.replace(alpha=lam + 1e-6))
    assert not worse.member


def test_degenerate_denominator_is_reachable():
    cp = ClassParams(mu=0.9, delta=0.0)
    with pytest.raises(DegenerateDenominatorError):
        schild_silverman_lambda(cp)


def test_report_dict_shape():
    d = schild_silverman_lambda(CANONICAL).to_dict()
    assert set(d) == {
        "order",
        "saturating_k",
        "verified_best",
        "phi_increasing",
        "saturation_margin",
    }


def test_deep_order_under_strong_damping(mpref):
    """Past k ~ 813 at mu = 0.6, w_k leaves double range; Phi must still increase."""
    cp = ClassParams(mu=0.6)
    rep = schild_silverman_lambda(cp, k_max=1000)
    assert rep.phi_increasing and rep.verified_best
    with mpmath.workdps(50):
        s = mpmath.mpf(cp.scale)
        phi = []
        for k in range(2, 1001):
            bracket = (1 - mpmath.mpf(cp.B)) * (k - 1) + s
            w = mpmath.exp(mpref.log_weight(k, 1, cp.mu, cp.delta))
            phi.append(1 - (1 - mpmath.mpf(cp.B)) * (k - 1) * s / (bracket**2 * w - s**2))
    assert all(a <= b for a, b in zip(phi, phi[1:]))
    assert rep.order == pytest.approx(float(phi[0]), rel=1e-13)


def test_stopped_scan_agrees_with_full_scan(rng):
    """The proved stop never changes order, phi_increasing or verified_best, up to mu = 0.999."""
    checked = 0
    for draw in range(300):
        p = int(rng.integers(1, 5))
        B = float(rng.uniform(-1.0, 0.999))
        A = float(rng.uniform(B, 1.0))
        if not A > B:
            continue
        cp = ClassParams(
            p=p, alpha=float(rng.uniform(0.0, p)), A=A, B=B,
            mu=float(rng.uniform(0.0, 0.999)), delta=float(rng.uniform(0.0, 1.0)),
        )
        beta = cp.alpha if draw % 2 else float(rng.uniform(0.0, p))
        ks = range(p + 1, 1001)
        try:
            full = [hadamard._phi(k, cp, beta, m, e) for k, (m, e) in
                    zip(ks, rafid_multipliers(p, cp.rafid, ks))]
        except DegenerateDenominatorError:
            with pytest.raises(DegenerateDenominatorError):
                mixed_order_xi(cp, beta)
            continue
        order = full[0]
        if 0.0 <= order < p:
            margin, fails_above = _membership_saturation(cp, beta, order)
            saturated = abs(margin) <= 1e-10 and fails_above
        else:
            saturated = False
        for k_max in (p + 1, p + 2, 64, 1000):
            head = full[: k_max - p]
            increasing = all(a - 1e-12 <= b for a, b in zip(head, head[1:]))
            rep = mixed_order_xi(cp, beta, k_max=k_max)
            assert rep.order == order
            assert rep.phi_increasing == increasing
            assert rep.verified_best == (increasing and saturated)
        checked += 1
    assert checked > 250


def test_order_scan_stops_at_proved_point(monkeypatch):
    """At mu = 0.3 Phi is proved nondecreasing after a few indices; a huge k_max costs nothing."""
    ks = []
    phi = hadamard._phi

    def counted(k, *args):
        ks.append(k)
        return phi(k, *args)

    monkeypatch.setattr(hadamard, "_phi", counted)
    rep = schild_silverman_lambda(ClassParams(mu=0.3), k_max=10**5)
    assert len(ks) <= 10
    assert rep.phi_increasing and rep.verified_best


@pytest.mark.parametrize("fn", [mixed_order_candidate, class_order_candidate])
def test_order_candidates_refuse_a_non_integer_index(fn):
    args = (0.0,) if fn is mixed_order_candidate else ()
    with pytest.raises(IndexBelowValenceError):
        fn(2.5, ClassParams(), *args)


@pytest.mark.parametrize(
    "scan", [schild_silverman_lambda, lambda cp, k_max: mixed_order_xi(cp, 0.5, k_max)]
)
@pytest.mark.parametrize("k_max", [2.5, 64.0, True])
def test_order_scans_refuse_a_k_max_that_is_not_an_integer(scan, k_max):
    with pytest.raises(ParameterOutOfRangeError):
        scan(ClassParams(), k_max=k_max)

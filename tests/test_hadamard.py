"""Orders preserved by coefficientwise products of class members."""

from dataclasses import replace

import mpmath
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
from pvalent.errors import DegenerateDenominatorError

CANONICAL = ClassParams()


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
        assert check_r_membership(h, replace(cp, alpha=lam)).member


def test_product_of_extremals_saturates_exactly():
    lam = schild_silverman_lambda(CANONICAL).order
    f = extremal_r(2, CANONICAL)
    h = hadamard_product(f, f)
    rep = check_r_membership(h, replace(CANONICAL, alpha=lam))
    assert abs(rep.margin) <= 1e-10
    # any larger claimed order loses the product
    worse = check_r_membership(h, replace(CANONICAL, alpha=lam + 1e-6))
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

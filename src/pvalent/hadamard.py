"""Class orders preserved by coefficientwise (Hadamard) products.

For two members of the order-alpha R family the product f1 * f2 lies in the
order-lambda family, where lambda comes from the k = p+1 case of

    Phi(k) = p - (1-B)(k-p)(A-B)(p-alpha)^2
             / ([(1-B)(k-p)+(A-B)(p-alpha)]^2 w_k - [(A-B)(p-alpha)]^2),

w_k the smoothing multiplier.  The order is best possible: the squared
k = p+1 extremal saturates it.  Phi being smallest at k = p+1 is checked
numerically on every call rather than assumed; the mixed-order variant
(factors of orders alpha and beta) follows the same pattern and collapses
to lambda at beta = alpha.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

from .classes import ClassParams, _nondecreasing, _scan_candidates, check_r_membership, extremal_r
from .errors import DegenerateDenominatorError, ParameterOutOfRangeError
from .operators import log_rafid_weight, pow2_product, split_log
from .series import hadamard_product

_SATURATION_TOL = 1e-10
_ORDER_BUMP = 1e-6


@dataclass(frozen=True)
class ConvolutionOrderReport:
    order: float
    saturating_k: int
    verified_best: bool
    phi_increasing: bool
    saturation_margin: float

    def to_dict(self) -> dict:
        return asdict(self)


def _phi_pieces(k: int, cp: ClassParams, beta: float) -> tuple[float, float]:
    """Numerator and denominator of p - Phi(k) for orders (alpha, beta).

    w_k enters in log form, scaled once: past double range the denominator
    saturates to inf (Phi = p) or to -s_a s_b (degenerate), never nan.
    """
    s_a = cp.scale
    s_b = (cp.A - cp.B) * (cp.p - beta)
    growth = (1.0 - cp.B) * (k - cp.p)
    m, e = split_log(log_rafid_weight(k, cp.p, cp.rafid))
    # one factor (A-B) total: s_a carries it, the beta side enters as (p-beta)
    num = growth * s_a * (cp.p - beta)
    den = pow2_product((growth + s_a) * (growth + s_b) * m, e) - s_a * s_b
    return num, den


def mixed_order_candidate(k: int, cp: ClassParams, beta: float) -> float:
    """Order contributed by index k when convolving orders alpha and beta.

    Returns nan when the denominator degenerates at k > p+1 (strong
    smoothing); the k = p+1 case raises instead, since the reported order
    itself would be meaningless.
    """
    if k < cp.p + 1:
        raise ParameterOutOfRangeError(f"candidates start at k = p+1, got {k}")
    if not (0.0 <= beta < cp.p):
        raise ParameterOutOfRangeError(f"beta must lie in [0, p), got {beta}")
    num, den = _phi_pieces(k, cp, beta)
    if den <= 0.0:
        if k == cp.p + 1:
            raise DegenerateDenominatorError(
                f"order denominator {den} not positive at k = p+1; "
                "the squared extremal escapes every order for these parameters"
            )
        return math.nan
    return cp.p - num / den


def class_order_candidate(k: int, cp: ClassParams) -> float:
    """Same-order special case of :func:`mixed_order_candidate`."""
    return mixed_order_candidate(k, cp, cp.alpha)


def _saturation(cp: ClassParams, beta: float, order: float) -> tuple[float, bool]:
    """(margin at the order, fails at order + bump) for the product of extremals."""
    cp_b = replace(cp, alpha=beta)
    product = hadamard_product(extremal_r(cp.p + 1, cp), extremal_r(cp.p + 1, cp_b))
    margin = check_r_membership(product, replace(cp, alpha=order)).margin
    bumped = order + _ORDER_BUMP
    # past p no admissible higher order exists at all
    fails = bumped >= cp.p or not check_r_membership(product, replace(cp, alpha=bumped)).member
    return margin, fails


def _order_report(cp: ClassParams, beta: float, k_max: int) -> ConvolutionOrderReport:
    scan = _scan_candidates(cp, k_max, lambda k: mixed_order_candidate(k, cp, beta))
    order = scan[0][1]
    increasing = _nondecreasing([v for _, v in scan], tol=1e-12)
    if 0.0 <= order < cp.p:
        margin, fails_above = _saturation(cp, beta, order)
        saturated = abs(margin) <= _SATURATION_TOL and fails_above
    else:
        margin, saturated = math.nan, False
    return ConvolutionOrderReport(
        order=order,
        saturating_k=cp.p + 1,
        verified_best=increasing and saturated,
        phi_increasing=increasing,
        saturation_margin=margin,
    )


def schild_silverman_lambda(cp: ClassParams, k_max: int = 64) -> ConvolutionOrderReport:
    """Order preserved when convolving two order-alpha members."""
    return _order_report(cp, cp.alpha, k_max)


def mixed_order_xi(cp: ClassParams, beta: float, k_max: int = 64) -> ConvolutionOrderReport:
    """Order preserved when convolving an order-alpha with an order-beta member."""
    return _order_report(cp, beta, k_max)

"""Class orders preserved by coefficientwise (Hadamard) products.

For two members of the order-alpha R family the product f1 * f2 lies in the
order-lambda family, where lambda comes from the k = p+1 case of

    Phi(k) = p - (1-B)(k-p)(A-B)(p-alpha)^2
             / ([(1-B)(k-p)+(A-B)(p-alpha)]^2 w_k - [(A-B)(p-alpha)]^2),

w_k the smoothing multiplier.  The order is best possible: the product of
the two k = p+1 extremals saturates it.  That product has one coefficient,
so its criterion sum is read in closed form (:func:`_saturation`), from the
w_(p+1) the Phi scan forms anyway.  Phi being smallest at k = p+1 is checked, not
assumed: numerically up to the first k with den(k) > 0 where the proved stop
:func:`pvalent.classes._grows_past` holds at target 2, and by its proof past it.  The
mixed-order variant (factors of orders alpha and beta) follows the same pattern
and collapses to lambda at beta = alpha.
"""

from __future__ import annotations

import math

from .classes import ClassParams, _Report, _bound, _grows_past, _nondecreasing, _require_order, _scan_indices
from .errors import DegenerateDenominatorError, _require_index, _setattr
from .operators import pow2_product, rafid_multiplier, rafid_multipliers

_SATURATION_TOL = 1e-10
_ORDER_BUMP = 1e-6


class ConvolutionOrderReport(_Report):
    __slots__ = _fields = ("order", "saturating_k", "verified_best", "phi_increasing", "saturation_margin")

    def __init__(
        self, order: float, saturating_k: int, verified_best: bool, phi_increasing: bool, saturation_margin: float
    ) -> None:
        _setattr(self, "order", order)
        _setattr(self, "saturating_k", saturating_k)
        _setattr(self, "verified_best", verified_best)
        _setattr(self, "phi_increasing", phi_increasing)
        _setattr(self, "saturation_margin", saturation_margin)


def mixed_order_candidate(k: int, cp: ClassParams, beta: float) -> float:
    """Order contributed by index k when convolving orders alpha and beta.

    Returns nan when the denominator degenerates at k > p+1 (strong
    smoothing); the k = p+1 case raises instead, since the reported order
    itself would be meaningless.
    """
    m, e = rafid_multiplier(k, cp.p, cp.rafid)  # refuses k < p; the term index then must exceed p
    return _phi(_require_index(k, cp.p), cp, _require_order("beta", beta, cp.p), m, e)


def _phi(k: int, cp: ClassParams, beta: float, m: float, e: int) -> float:
    """Phi(k) = p - num/den for orders (alpha, beta), given w_k = m 2^e, k > p and beta in [0, p).

    w_k enters as (m, e), scaled once: past double range the denominator
    saturates to inf (Phi = p) or to -s_a s_b (degenerate), never nan.
    """
    s_a, s_b = cp.scale, (cp.A - cp.B) * (cp.p - beta)
    growth = (1.0 - cp.B) * (k - cp.p)
    # one factor (A-B) total: s_a carries it, the beta side enters as (p-beta)
    num = growth * s_a * (cp.p - beta)
    den = pow2_product((growth + s_a) * (growth + s_b) * m, e) - s_a * s_b
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


def _saturation(k: int, cp: ClassParams, beta: float, order: float, m: float, e: int) -> tuple[float, bool]:
    """(margin at the order, fails at order + bump) of the product of the k-extremals of orders alpha and beta.

    With d = k-p, w_k = m 2^e and s_x = (A-B)(p-x), the order-x criterion term at k is t_x 2^e, where
    t_x = [(1-B) d + s_x] m / s_x.  The product's lone coefficient is a = _bound(t_alpha, e) _bound(t_beta, e),
    the two coeff_bound_r values multiplied as hadamard_product does, and its criterion sum at order x is
    pow2_product(t_x, e, a), of which check_r_membership's inline ldexp is a fast path: the margin 1 - sum and the
    bumped verdict are bit for bit those of the membership route, 0 inf giving 0.0 and overflow inf.
    """
    growth, gap = (1.0 - cp.B) * (k - cp.p), cp.A - cp.B

    def term(x: float) -> float:  # t_x; s_alpha is cp.scale, formed by the same expression
        s = gap * (cp.p - x)
        return (growth + s) * m / s

    a = _bound(term(cp.alpha), e) * _bound(term(beta), e)
    margin, bumped = 1.0 - pow2_product(term(order), e, a), order + _ORDER_BUMP
    # past p no admissible higher order exists at all; a nan sum fails
    return margin, bumped >= cp.p or not pow2_product(term(bumped), e, a) <= 1.0


def _order_report(cp: ClassParams, beta: float, k_max: int) -> ConvolutionOrderReport:
    ks, phis, beta = _scan_indices(cp, k_max), [], _require_order("beta", beta, cp.p)
    for k, (m, e) in zip(ks, rafid_multipliers(cp.p, cp.rafid, ks)):
        phis.append(_phi(k, cp, beta, m, e))
        if k == cp.p + 1:
            w_first = m, e  # w_(p+1), for the saturation
        if _grows_past(cp, k, 2.0) and not math.isnan(phis[-1]):  # den(k) > 0: Phi proved nondecreasing past k
            break
    order = phis[0]
    increasing = _nondecreasing(phis, tol=1e-12)
    if 0.0 <= order < cp.p:
        margin, fails_above = _saturation(cp.p + 1, cp, beta, order, *w_first)
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
    """Order preserved when convolving two order-alpha members.

    ``phi_increasing`` certifies Phi nondecreasing over p+1..k_max: checked up to the
    proved stop near k = 2/(1-mu) - delta (``classes._grows_past``), proved past it.
    """
    return _order_report(cp, cp.alpha, k_max)


def mixed_order_xi(cp: ClassParams, beta: float, k_max: int = 64) -> ConvolutionOrderReport:
    """Order preserved for factors of orders alpha and beta; scanned as the lambda scan."""
    return _order_report(cp, beta, k_max)

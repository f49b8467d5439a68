"""Modulus bounds for fractional calculus composed with the Bernardi integral.

Four compositions of a fractional integral or derivative of order eta with
the Bernardi integral J_c are covered, numbered as the CLI theorems and each
declared once, in ``_COMPOSITIONS``: the sign of the fractional order and
whether J_c acts last.  Validation, shifts, multipliers, certificate and the
composed extremal all read that table.

Each composition acts diagonally, so with A0 the composed multiplier on z^p,
A1 the one on z^(p+1), e0 = p +- eta and T the sharp k = p+1 coefficient bound,

    lower(r) = A0 r^e0 - A1 T r^(e0+1),    upper(r) = A0 r^e0 + A1 T r^(e0+1).

These are the tail-aggregated bounds of :mod:`pvalent.classes`, evaluated by its one
rule.  One record, ``_composition``, kept for the last (theorem, class, c, eta), holds
the validated theorem, that module's record of (A0, e0, A1 T) and the printed constants.

These derived bounds are what the package stands behind.  The source
formulas they descend from contain several transcription slips (a flipped
sign, a stray Gamma(p+1), reversed eta signs in Gamma arguments, and
prefactors that only match at p = 1), so every bound can also be evaluated
"as printed" for audit; the two sets are reported side by side and their
divergence is asserted by the acceptance suite, never patched over.

Like the distortion bounds, these replace every tail multiplier by the k = p+1
one, valid only where the one certificate scan of :mod:`pvalent.classes` holds on the
composed multiplier (:func:`composition_certified`).  Its Gamma(k+1)/Gamma(k+1-eta)
grows in k for the derivative compositions, so even an order-0 certified budget can
under-aggregate the tail; outside the certificate admissible members do escape the bounds.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .classes import ClassParams, _Report, _certified_scan, _tail_bounds, _tail_record, coeff_bound_r, extremal_r
from .errors import DomainError, ParameterOutOfRangeError, _require_int, _setattr
from .operators import (
    _require_c, _require_eta, bernardi, fractional_derivative, fractional_integral, gamma_ratio,
)
from .series import FractionalSeries

# theorem -> (sign of the fractional order, whether the Bernardi integral J_c acts last):
#   7: D^-eta (J_c f)    8: D^eta (J_c f)    9: J_c (D^eta f)    10: J_c (D^-eta f)
_COMPOSITIONS = {7: (1, False), 8: (-1, False), 9: (-1, True), 10: (1, True)}
THEOREMS = tuple(_COMPOSITIONS)

# The printed forms of 8-10 keep their literal Gamma arithmetic, which carries the
# audit-table bits, up to this p, wherever Gamma(p+1) Gamma(p+eta+2) and the class factor
# stay in range (below 1e242 times it for eta <= 1).  Elsewhere they are evaluated as ratios.
_LITERAL_P_MAX = 80
_GAMMA_PIVOT = 170.0  # math.gamma is finite up to about 171.6


class CompositionBound(_Report):
    __slots__ = _fields = ("theorem", "c", "eta", "r", "lower", "upper", "printed_lower", "printed_upper")

    def __init__(
        self, theorem: int, c: float, eta: float, r: float, lower: float, upper: float,
        printed_lower: float | None = None, printed_upper: float | None = None,
    ) -> None:
        _setattr(self, "theorem", theorem)
        _setattr(self, "c", c)
        _setattr(self, "eta", eta)
        _setattr(self, "r", r)
        _setattr(self, "lower", lower)
        _setattr(self, "upper", upper)
        _setattr(self, "printed_lower", printed_lower)
        _setattr(self, "printed_upper", printed_upper)


def _validate(theorem: int, cp: ClassParams, c: float, eta: float) -> int:
    """theorem as an int, once eta and c pass the rules of the operators it composes."""
    theorem = _require_int("theorem", theorem, THEOREMS[0])
    if theorem not in _COMPOSITIONS:
        raise ParameterOutOfRangeError(f"theorem must be one of {THEOREMS}, got {theorem}")
    _require_eta(eta, integral=_COMPOSITIONS[theorem][0] > 0)
    _, b = _shifts(theorem, eta)
    # c + p > 0, tightened to c + (p - eta) > 0 when J_c acts last on a derivative (9)
    _require_c(c, min(cp.p, cp.p + b))  # min keeps an int p an int in the message
    if c + cp.p + b <= 0.0:  # A0's denominator, 0 where c + 1 rounds to eta though c + (1 - eta) > 0
        raise ParameterOutOfRangeError(f"the derived bounds divide by (c + p) - eta = 0 at c = {c}, eta = {eta}")
    return theorem


def _shifts(theorem: int, eta: float) -> tuple[float, float]:
    """(s, b) with composed multiplier (c+p)/(c+k+b) * Gamma(k+1)/Gamma(k+1+s) on z^k.

    s = +eta for an integral, -eta for a derivative; a Bernardi integral acting
    last sees the shifted exponent (b = s), acting first the plain index (b = 0).
    """
    sign, bernardi_last = _COMPOSITIONS[theorem]
    s = sign * eta
    return s, (s if bernardi_last else 0.0)


def _multiplier(theorem: int, p: int, c: float, eta: float, k: int) -> float:
    """Composed multiplier on z^k, in each composition's own order of operations."""
    s, b = _shifts(theorem, eta)
    g = gamma_ratio(k + 1.0, k + 1.0 + s)
    # (c+p) + (k-p) rather than c+k: A0 and A1 keep the bits of the audit table
    if _COMPOSITIONS[theorem][1]:  # the Bernardi integral acts last
        return g * (c + p) / (c + p + (k - p) + b)
    return (c + p) / (c + p + (k - p)) * g


@lru_cache(maxsize=4096, typed=True)  # typed: a float theorem must not hit its integer's entry
def composition_certified(theorem: int, cp: ClassParams, c: float, eta: float) -> bool:
    """Whether the k = p+1 composed multiplier binds the aggregated tail.

    The bounds need  term(k) * mult(p+1) / mult(k) >= term(p+1)  for every
    k > p: the certificate scan of :mod:`pvalent.classes` on mult(k).
    """
    theorem = _validate(theorem, cp, float(c), float(eta))
    s, b = _shifts(theorem, eta)
    return _certified_scan(cp, s, c, b)


def _c_quotient(a: float, top: tuple[float, ...], b: float, bottom: tuple[float, ...]) -> float:
    """a top_1 top_2 ... / (b bottom_1 ...), with a and b the sums in c of a printed form.

    Multiplied left to right, as printed, where both products are finite; otherwise a/b
    is formed first, so that a huge c cannot carry them out of double range.
    """
    num, den = math.prod(top, start=a), math.prod(bottom, start=b)
    if math.isfinite(num) and math.isfinite(den):
        return num / den
    return math.prod(top, start=a / b) / math.prod(bottom)


def _printed(theorem: int, cp: ClassParams, c: float, eta: float) -> tuple[float, float, float]:
    """Literal transcription of the source inequalities, slips included, as (lead, low, up):

        printed lower = (lead - low r) r^e0,    printed upper = (lead + up r) r^e0.

    A printed denominator of 0, or theorem 7's Gamma(p - eta + 2) at eta >= p + 2, raises
    :class:`DomainError`.  Past ``_LITERAL_P_MAX``, or where the Gamma product leaves
    double range, the Gamma values are carried as ratios, and past the range of the
    printed products the c factors are formed first (:func:`_c_quotient`), so only
    true values beyond double range read 0.0.
    """
    p = cp.p
    d_den = ((1.0 - cp.B) + cp.scale) * (1.0 - cp.mu) * (p + cp.delta)
    if theorem == 7:
        if not p - eta + 2.0 > 0.0:
            raise DomainError(
                f"the printed upper line of composition 7 needs Gamma(p - eta + 2) with eta < p + 2, got "
                f"p = {p}, eta = {eta}; pass include_printed=False (no --as-printed) for the derived bounds"
            )
        lead = gamma_ratio(p + 1.0, p + 1.0 + eta)
        # lower line carries (B-A) where (A-B) is meant, flipping the sign
        gamma_low = gamma_ratio(p + 2.0, p + eta + 2.0)
        low = _c_quotient(c + p, (gamma_low, cp.B - cp.A, p - cp.alpha), c + p + 1.0, (d_den,))
        # upper line prints Gamma(p-eta+2) in place of Gamma(p+eta+2)
        up = _c_quotient(c + p, (gamma_ratio(p + 2.0, p - eta + 2.0), cp.scale), c + p + 1.0, (d_den,))
        return lead, low, up

    # compositions 8, 9, 10 share one printed tail, carrying a stray
    # Gamma(p+1) and a +eta Gamma argument even in the derivative cases
    s, _ = _shifts(theorem, eta)
    den = c + s + 1.0  # c -+ eta + 1, under the leads of 9 and 10
    if theorem != 8 and den == 0.0:
        raise DomainError(
            f"printed denominator c {'+' if s > 0 else '-'} eta + 1 of composition {theorem} is 0 "
            f"at c = {c}, eta = {eta}; pass include_printed=False (no --as-printed) for the derived bounds"
        )
    try:
        bottom = (math.gamma(p + 1.0), math.gamma(p + eta + 2.0), d_den)
    except OverflowError:  # math.gamma past about 171.6
        bottom = (math.inf,)
    literal = p <= _LITERAL_P_MAX and math.isfinite(math.prod(bottom))
    if literal:
        tail = _c_quotient(c + p, (math.gamma(p + 2.0), cp.scale), c + p + 1.0, bottom)
    else:
        # the same values as Gamma ratios, with 1/Gamma(p+1) = gamma_ratio(h, p+1)/Gamma(h)
        # applied last, so only true values outside double range read 0.0
        h = min(p + 1.0, _GAMMA_PIVOT)
        tail = _c_quotient(c + p, (gamma_ratio(p + 2.0, p + eta + 2.0), cp.scale), c + p + 1.0, (d_den,))
        tail = tail * gamma_ratio(h, p + 1.0) / math.gamma(h)
    if theorem == 8:  # prints +eta for a derivative
        lead = gamma_ratio(p + 1.0, p + 1.0 + eta)
    elif literal:
        lead = _c_quotient(c + p, (), den, (math.gamma(p + 1.0 + s),))
    else:
        lead = _c_quotient(c + p, (gamma_ratio(p + 1.0, p + 1.0 + s),), den, ())
        lead = lead * gamma_ratio(h, p + 1.0) / math.gamma(h)
    # 9 prints its upper line with a minus too: a sign slip
    return lead, tail, (-tail if theorem == 9 else tail)


@lru_cache(maxsize=1, typed=True)  # typed, as composition_certified: 7.0 and c = 1 keep entries of their own
def _composition(
    theorem: int, cp: ClassParams, c: float, eta: float, include_printed: bool
) -> tuple[int, tuple, tuple[float, float, float] | None]:
    """(theorem, record, printed): the validated theorem, the :func:`_tail_record` of (A0, e0, A1 T), and
    :func:`_printed`'s (lead, low, up) with include_printed, else None; plain floats for a numpy c or eta too."""
    theorem, c, eta = _validate(theorem, cp, c, eta), float(c), float(eta)
    certified = composition_certified(theorem, cp, c, eta)
    s, _ = _shifts(theorem, eta)
    a0, a1 = _multiplier(theorem, cp.p, c, eta, cp.p), _multiplier(theorem, cp.p, c, eta, cp.p + 1)
    printed = _printed(theorem, cp, c, eta) if include_printed else None
    record = _tail_record(f"composition {theorem}", cp, certified, a0, cp.p + s, a1 * coeff_bound_r(cp.p + 1, cp))
    return theorem, record, printed


def composition_bound(
    theorem: int, cp: ClassParams, c: float, eta: float, r: float, include_printed: bool = True
) -> CompositionBound:
    """Derived (and optionally as-printed) bounds at radius r in (0, 1)."""
    theorem, record, printed = _composition(theorem, cp, c, eta, include_printed)
    r, lower, upper, scale = _tail_bounds(record, r)
    printed_lower = printed_upper = None
    if printed is not None:
        lead, low, up = printed
        printed_lower, printed_upper = (lead - low * r) * scale, (lead + up * r) * scale
    return CompositionBound(theorem, float(c), float(eta), r, lower, upper, printed_lower, printed_upper)


def lower_bound_peak(theorem: int, cp: ClassParams, c: float, eta: float) -> float:
    """Radius where the derived lower bound turns over: A0 e0 = A1 T (e0+1) r.

    A0/A1 = (p+1+s)/(p+1) (c+p+1+b)/(c+p+b) is formed directly (see :func:`_shifts`),
    since A0 and A1 T both underflow at a large integral order; each ratio, and e0/(e0+1), is formed
    before the product, which a huge order would otherwise carry past double range.
    """
    theorem, (_, _, e0, _), _ = _composition(theorem, cp, c, eta, False)
    c, (s, b) = float(c), _shifts(theorem, float(eta))
    p, t = cp.p, coeff_bound_r(cp.p + 1, cp)
    return (p + 1.0 + s) / (p + 1.0) * ((c + p + 1.0 + b) / (c + p + b)) * (e0 / (e0 + 1.0)) / t


def composed_extremal(theorem: int, cp: ClassParams, c: float, eta: float) -> FractionalSeries:
    """Image of the k = p+1 extremal under the actual operator composition.

    Evaluated at real r this attains the derived lower bound exactly, which
    the tests use as the sharpness witness.
    """
    sign, bernardi_last = _COMPOSITIONS[_validate(theorem, cp, c, eta)]
    fractional = fractional_integral if sign > 0 else fractional_derivative
    f = extremal_r(cp.p + 1, cp)
    return bernardi(fractional(f, eta), c) if bernardi_last else fractional(bernardi(f, c), eta)

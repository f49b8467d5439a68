"""Modulus bounds for fractional calculus composed with the Bernardi integral.

Four compositions are covered (numbered as exposed on the CLI):

    7:  D^-eta (J_c f)      8:  D^eta (J_c f)
    9:  J_c (D^eta f)      10:  J_c (D^-eta f)

Each composition acts diagonally, so with A0 the composed multiplier on z^p,
A1 the one on z^(p+1), e0 = p +- eta and the aggregated tail budget
T = (A-B)(p-alpha) / ([(1-B)+(A-B)(p-alpha)](1-mu)(p+delta)),

    lower(r) = A0 r^e0 - A1 T r^(e0+1),    upper(r) = A0 r^e0 + A1 T r^(e0+1).

These derived bounds are what the package stands behind.  The source
formulas they descend from contain several transcription slips (a flipped
sign, a stray Gamma(p+1), reversed eta signs in Gamma arguments, and
prefactors that only match at p = 1), so every bound can also be evaluated
"as printed" for audit; the two sets are reported side by side and their
divergence is asserted by the acceptance suite, never patched over.

The budget T shares the certification caveat of the distortion bounds, and
the derivative compositions (8, 9) add one of their own: their multiplier
Gamma(k+1)/Gamma(k+1-eta) grows in k, so even an order-0 certified budget
can under-aggregate the tail.  :func:`composition_certified` scans the
combined ratio; bounds evaluated outside the certified regime raise a
warning because admissible members really do escape them there.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from functools import lru_cache

from .classes import ClassParams, _certified_scan, coeff_bound_r, extremal_r
from .errors import ParameterOutOfRangeError, UncertifiedBoundWarning, _require_radius
from .operators import (
    _require_c, _require_eta, bernardi, fractional_derivative, fractional_integral, gamma_ratio,
)
from .series import CoefficientSeries, FractionalSeries

THEOREMS = (7, 8, 9, 10)


@dataclass(frozen=True)
class CompositionBound:
    theorem: int
    c: float
    eta: float
    r: float
    lower: float
    upper: float
    printed_lower: float | None = None
    printed_upper: float | None = None

    def to_dict(self) -> dict:
        out = asdict(self)
        if self.printed_lower is None:
            del out["printed_lower"], out["printed_upper"]
        return out


def _validate(theorem: int, cp: ClassParams, c: float, eta: float) -> None:
    if theorem not in THEOREMS:
        raise ParameterOutOfRangeError(f"theorem must be one of {THEOREMS}, got {theorem}")
    _require_c(c, cp.p)
    _require_eta(eta, integral=theorem in (7, 10))
    if theorem == 9 and c + cp.p - eta <= 0.0:
        raise ParameterOutOfRangeError(
            f"composition 9 needs c + p - eta > 0, got {c + cp.p - eta}"
        )


def _shifts(theorem: int, eta: float) -> tuple[float, float]:
    """(s, b) with composed multiplier (c+p)/(c+k+b) * Gamma(k+1)/Gamma(k+1+s) on z^k.

    s = +eta for the integral compositions (7, 10) and -eta for the
    derivative ones (8, 9); the Bernardi factor sees the shifted exponent
    (b = s) when it acts last (9, 10) and the plain index (b = 0) otherwise.
    """
    s = eta if theorem in (7, 10) else -eta
    return s, (s if theorem in (9, 10) else 0.0)


def _multiplier(theorem: int, p: int, c: float, eta: float, k: int) -> float:
    """Composed multiplier on z^k, in each theorem's own order of operations."""
    s, b = _shifts(theorem, eta)
    g = gamma_ratio(k + 1.0, k + 1.0 + s)
    # (c+p) + (k-p) rather than c+k: A0 and A1 keep the bits of the audit table
    if theorem in (7, 8):
        return (c + p) / (c + p + (k - p)) * g
    return g * (c + p) / (c + p + (k - p) + b)


def _leading(theorem: int, p: int, c: float, eta: float) -> tuple[float, float, float]:
    """(A0, A1, e0): the multipliers on z^p and z^(p+1) and the leading exponent."""
    s, _ = _shifts(theorem, eta)
    return _multiplier(theorem, p, c, eta, p), _multiplier(theorem, p, c, eta, p + 1), p + s


@lru_cache(maxsize=4096)
def composition_certified(theorem: int, cp: ClassParams, c: float, eta: float) -> bool:
    """Whether the k = p+1 composed multiplier binds the aggregated tail.

    The bounds need  term(k) * mult(p+1) / mult(k) >= term(p+1)  for every
    k > p: the shared log-space scan of :mod:`pvalent.classes` with weight
    mult(k) and shift eta for the derivative compositions (8, 9), 0 otherwise.
    """
    _validate(theorem, cp, float(c), float(eta))
    s, b = _shifts(theorem, eta)

    def log_mult(k: int) -> float:
        # the constant log(c+p) cancels in the ratio; lgamma stays finite where mult(k) underflows
        return math.lgamma(k + 1.0) - math.lgamma(k + 1.0 + s) - math.log(c + k + b)

    return _certified_scan(cp, max(-s, 0.0), log_mult)


def _printed(
    theorem: int, cp: ClassParams, c: float, eta: float, r: float
) -> tuple[float, float]:
    """Literal transcription of the source inequalities, slips included."""
    p = cp.p
    d_den = ((1.0 - cp.B) + cp.scale) * (1.0 - cp.mu) * (p + cp.delta)
    if theorem == 7:
        lead = gamma_ratio(p + 1.0, p + 1.0 + eta)
        # lower line carries (B-A) where (A-B) is meant, flipping the sign
        tail_low = (
            (c + p)
            * gamma_ratio(p + 2.0, p + eta + 2.0)
            * (cp.B - cp.A)
            * (p - cp.alpha)
            / ((c + p + 1.0) * d_den)
        )
        # upper line prints Gamma(p-eta+2) in place of Gamma(p+eta+2)
        tail_up = (
            (c + p)
            * gamma_ratio(p + 2.0, p - eta + 2.0)
            * cp.scale
            / ((c + p + 1.0) * d_den)
        )
        scale = r ** (p + eta)
        return (lead - tail_low * r) * scale, (lead + tail_up * r) * scale
    # compositions 8, 9, 10 share one printed tail, carrying a stray
    # Gamma(p+1) and a +eta Gamma argument even in the derivative cases
    tail = (
        (c + p)
        * math.gamma(p + 2.0)
        * cp.scale
        / ((c + p + 1.0) * math.gamma(p + 1.0) * math.gamma(p + eta + 2.0) * d_den)
    )
    if theorem == 8:
        lead = gamma_ratio(p + 1.0, p + 1.0 + eta)  # +eta printed for a derivative
        scale = r ** (p - eta)
        return (lead - tail * r) * scale, (lead + tail * r) * scale
    if theorem == 9:
        lead = (c + p) / ((c - eta + 1.0) * math.gamma(p + 1.0 - eta))
        scale = r ** (p - eta)
        # both printed lines subtract; the upper bound's sign is a slip
        return (lead - tail * r) * scale, (lead - tail * r) * scale
    lead = (c + p) / ((c + eta + 1.0) * math.gamma(p + 1.0 + eta))
    scale = r ** (p + eta)
    return (lead - tail * r) * scale, (lead + tail * r) * scale


def composition_bound(
    theorem: int,
    cp: ClassParams,
    c: float,
    eta: float,
    r: float,
    include_printed: bool = True,
) -> CompositionBound:
    """Derived (and optionally as-printed) bounds at radius r in (0, 1)."""
    _validate(theorem, cp, c, eta)
    r = _require_radius(r)
    if not composition_certified(theorem, cp, float(c), float(eta)):
        warnings.warn(
            f"tail aggregation not certified for composition {theorem} at {cp}; "
            "admissible functions may exceed these bounds",
            UncertifiedBoundWarning,
            stacklevel=2,
        )
    a0, a1, e0 = _leading(theorem, cp.p, c, eta)
    budget = coeff_bound_r(cp.p + 1, cp)
    lower = a0 * r**e0 - a1 * budget * r ** (e0 + 1.0)
    upper = a0 * r**e0 + a1 * budget * r ** (e0 + 1.0)
    printed_lower = printed_upper = None
    if include_printed:
        printed_lower, printed_upper = _printed(theorem, cp, c, eta, r)
    return CompositionBound(
        theorem=theorem,
        c=float(c),
        eta=float(eta),
        r=r,
        lower=lower,
        upper=upper,
        printed_lower=printed_lower,
        printed_upper=printed_upper,
    )


def lower_bound_peak(theorem: int, cp: ClassParams, c: float, eta: float) -> float:
    """Radius where the derived lower bound turns over: A0 e0 = A1 T (e0+1) r."""
    _validate(theorem, cp, c, eta)
    a0, a1, e0 = _leading(theorem, cp.p, c, eta)
    return a0 * e0 / (a1 * coeff_bound_r(cp.p + 1, cp) * (e0 + 1.0))


def composed_extremal(
    theorem: int, cp: ClassParams, c: float, eta: float
) -> FractionalSeries:
    """Image of the k = p+1 extremal under the actual operator composition.

    Evaluated at real r this attains the derived lower bound exactly, which
    the tests use as the sharpness witness.
    """
    _validate(theorem, cp, c, eta)
    f0: CoefficientSeries = extremal_r(cp.p + 1, cp)
    if theorem == 7:
        return fractional_integral(bernardi(f0, c), eta)
    if theorem == 8:
        return fractional_derivative(bernardi(f0, c), eta)
    if theorem == 9:
        return bernardi(fractional_derivative(f0, eta), c)
    return bernardi(fractional_integral(f0, eta), c)

"""Coefficient criteria for the two subordination-defined families.

The R family collects series f(z) = z^p - sum a_k z^k whose smoothed image
has z g'(z)/g(z) subordinate to (p + [Bp + (A-B)(p-alpha)] z)/(1 + B z);
the P family asks the same of z f'(z)/p.  For negative-coefficient tails
both reduce to a single sharp linear criterion

    sum_k  [(1-B)(k-p) + (A-B)(p-alpha)] w_k a_k  <=  (A-B)(p-alpha),

with w_k the smoothing multiplier, and the P criterion carrying one extra
factor k/p.  Everything here works with the normalized form: the
per-coefficient term is divided by the right-hand side, so membership is
``sum <= 1`` and the sharp bound for a lone coefficient is the reciprocal
of its term.

Terms are carried as a mantissa and a power of two, read off the running
product :func:`pvalent.operators.rafid_multipliers`, and scaled once, after the
product with a_k or the reciprocal, so sums, bounds and margins stay finite at
every index.  Sums, random members and scans over k make one pass along their
sorted indices; a lone term or bound at k walks the product from p, in k-p steps.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

from .errors import (
    OrderExceedsValenceError, ParameterOutOfRangeError, UncertifiedBoundWarning, ValenceMismatchError,
    _require_index, _require_int,
)
from .operators import RafidParams, pow2_product, rafid_multiplier, rafid_multipliers
from .series import CoefficientSeries, make_series

if TYPE_CHECKING:
    import numpy as np

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class ClassParams:
    """Family parameters: p >= 1, 0 <= alpha < p, -1 <= B < A <= 1, plus smoothing (mu, delta)."""

    p: int = 1
    alpha: float = 0.0
    A: float = 1.0
    B: float = -1.0
    mu: float = 0.0
    delta: float = 1.0
    # derived once, since every criterion term reads them; scale = (A-B)(p-alpha) is
    # the right-hand side of the unnormalized criterion
    rafid: RafidParams = field(init=False, repr=False, compare=False)
    scale: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _require_int("valence p", self.p, 1))
        if not (0.0 <= self.alpha < self.p):
            raise ParameterOutOfRangeError(f"alpha must lie in [0, p), got {self.alpha}")
        if not (-1.0 <= self.B < self.A <= 1.0):
            raise ParameterOutOfRangeError(
                f"need -1 <= B < A <= 1, got A = {self.A}, B = {self.B}"
            )
        # RafidParams checks mu and delta
        object.__setattr__(self, "rafid", RafidParams(self.mu, self.delta))
        object.__setattr__(self, "scale", (self.A - self.B) * (self.p - self.alpha))


@dataclass(frozen=True)
class MembershipReport:
    sum: float
    member: bool
    margin: float
    per_term: tuple[tuple[int, float], ...]

    def to_dict(self) -> dict:
        return {
            "sum": self.sum,
            "member": self.member,
            "margin": self.margin,
            "per_term": [[k, c] for k, c in self.per_term],
        }


def _term(k: int, cp: ClassParams, m: float, e: int) -> tuple[float, int]:
    """(t, e) with r_criterion_term(k) = t 2^e, given w_k = m 2^e."""
    if k <= cp.p:
        _require_index(k, cp.p)  # raises
    return ((1.0 - cp.B) * (k - cp.p) + cp.scale) * m / cp.scale, e


def _log_term(k: int, cp: ClassParams, m: float, e: int) -> float:
    """log r_criterion_term(k), given w_k = m 2^e; finite at every index."""
    return math.log(_term(k, cp, m, e)[0]) + e * _LN2


def r_criterion_term(k: int, cp: ClassParams) -> float:
    """Normalized criterion multiplier of a_k for the R family.

    [(1-B)(k-p) + (A-B)(p-alpha)] w_k / ((A-B)(p-alpha)); always >= w_k >= 1
    at mu = 0 and strictly increasing once the smoothing growth takes over.
    Comes back as inf only where the true term exceeds double range.
    """
    return pow2_product(*_term(k, cp, *rafid_multiplier(k, cp.p, cp.rafid)))


def log_r_criterion_term(k: int, cp: ClassParams) -> float:
    """log of :func:`r_criterion_term`, finite at every index."""
    return _log_term(k, cp, *rafid_multiplier(k, cp.p, cp.rafid))


def check_r_membership(f: CoefficientSeries, cp: ClassParams) -> MembershipReport:
    """Exact finite criterion sum; member iff sum <= 1, margin = 1 - sum; zeros add 0.0."""
    if f.p != cp.p:
        raise ValenceMismatchError(f"series valence {f.p} != parameter valence {cp.p}")
    p, a, slope, s, ks, cs = cp.p, f.coeffs, 1.0 - cp.B, cp.scale, sorted(f.coeffs), []
    inf, ldexp = math.inf, math.ldexp
    for k, (m, e) in zip(ks, rafid_multipliers(p, cp.rafid, ks)):
        if k <= p:
            _require_index(k, p)  # raises
        # pow2_product(*_term(k, cp, m, e), a_k) inline: a t a_k rounded into (2^-1022, inf) is t ma 2^ea rounded
        c = (t := (slope * (k - p) + s) * m / s) * a[k]
        try:
            cs.append(ldexp(c, e) if 2.0**-1022 < c < inf else pow2_product(t, e, a[k]))
        except OverflowError:  # only a positive c reaches ldexp
            cs.append(inf)
    total = math.fsum(cs)
    return MembershipReport(sum=total, member=total <= 1.0, margin=1.0 - total, per_term=tuple(zip(ks, cs)))


def coeff_bound_r(k: int, cp: ClassParams) -> float:
    """Largest admissible lone coefficient at index k (sharp).

    Walks w_k from p in k-p steps, no cap: about 0.09 µs a step, 90 ms at k = 10^6 (README).
    """
    t, e = _term(k, cp, *rafid_multiplier(k, cp.p, cp.rafid))
    return pow2_product(1.0 / t, -e)


def extremal_r(k: int, cp: ClassParams) -> CoefficientSeries:
    """z^p - coeff_bound_r(k) z^k; saturates the criterion with margin ~0."""
    return make_series(cp.p, [(k, coeff_bound_r(k, cp))])


def zf_prime_over_p(f: CoefficientSeries) -> CoefficientSeries:
    """Coefficient map of z f'(z)/p, which carries the P family onto the R family."""
    return CoefficientSeries(
        p=f.p, coeffs={k: (k / f.p) * a for k, a in f.coeffs.items()}
    )


def check_p_membership(f: CoefficientSeries, cp: ClassParams) -> MembershipReport:
    """P-family criterion, evaluated as the R criterion of z f'/p.

    Routing through the same code path makes the correspondence exact per
    term, not merely up to rounding.
    """
    return check_r_membership(zf_prime_over_p(f), cp)


def coeff_bound_p(k: int, cp: ClassParams) -> float:
    """Sharp P-family lone bound, the R bound shrunk by p/k, at the cost of coeff_bound_r."""
    t, e = _term(k, cp, *rafid_multiplier(k, cp.p, cp.rafid))
    return pow2_product(1.0 / ((k / cp.p) * t), -e)


def extremal_p(k: int, cp: ClassParams) -> CoefficientSeries:
    return make_series(cp.p, [(k, coeff_bound_p(k, cp))])


def random_member(
    cp: ClassParams, rng: np.random.Generator, target_sum: float | None = None
) -> CoefficientSeries:
    """Random R-family member with criterion sum equal to target (default U(0, 0.999)).

    It has one to five terms at indices p+1..p+12.  Coefficients are sharp
    bounds scaled by a random convex combination, so the membership sum is
    the target up to a few ulp.
    """
    count = int(rng.integers(1, 6))
    ks = [int(k) for k in cp.p + 1 + rng.choice(12, size=count, replace=False)]
    u = rng.random(count)
    u = u / u.sum()
    s = float(rng.uniform(0.0, 0.999)) if target_sum is None else float(target_sum)
    return make_series(cp.p, [(k, s * float(ui) * coeff_bound_r(k, cp)) for k, ui in zip(ks, u)])


def _certified_scan(cp: ClassParams, s: float, c: float | None = None, b: float = 0.0) -> bool:
    """Whether term(k) / weight(k) stays at or above its k = p+1 value for all k > p.

    weight(k) = Gamma(k+1)/Gamma(k+1+s), over c+k+b when a Bernardi factor acts:
    the tail multiplier of an order-m derivative (s = -m) or of a composition.
    Log space, tolerance 1e-9.  The scan stops once the growth factor
    (1-mu)(k+delta)(k+1-shift)/(k+1), shift = max(-s, 0), reaches one, after
    which the ratio cannot dip; one still running after 200 000 steps is not certified.
    """
    k, shift = cp.p + 1, max(-s, 0.0)
    for m, e in rafid_multipliers(cp.p, cp.rafid, itertools.count(k)):
        # lgamma stays finite where the weight underflows; the constant c+p cancels in the ratio
        w = math.lgamma(k + 1.0) - math.lgamma(k + 1.0 + s)
        ratio = _log_term(k, cp, m, e) - (w if c is None else w - math.log(c + k + b))
        base = ratio if k == cp.p + 1 else base
        if k - cp.p > 200_000 or ratio - base < -1e-9:
            return False
        if (1.0 - cp.mu) * (k + cp.delta) * (k + 1 - shift) / (k + 1) >= 1.0:
            return True
        k += 1


def _uncertified_text(what: str, cp: ClassParams) -> str:
    """The text of :func:`_warn_uncertified`, formed once per record of a bound's constants."""
    return f"tail aggregation not certified for {what} at {cp}; admissible members may exceed these bounds"


def _warn_uncertified(text: str | None) -> None:
    """The one warning of a tail-aggregated bound evaluated outside its certificate (text None inside it)."""
    if text is not None:
        warnings.warn(text, UncertifiedBoundWarning, stacklevel=3)


def _scan_indices(cp: ClassParams, k_max: int) -> range:
    """The indices p+1 .. k_max of a scan of radii or orders."""
    return range(cp.p + 1, _require_int("k_max", k_max, cp.p + 1) + 1)


def _require_zeta(zeta: float, p: int) -> float:
    """zeta as a float; an order of starlikeness, convexity or close-to-convexity lies in [0, p)."""
    zeta = float(zeta)
    if not (0.0 <= zeta < p):
        raise ParameterOutOfRangeError(f"zeta must lie in [0, p), got {zeta}")
    return zeta


def _nondecreasing(values: Sequence[float], rel: float = 0.0, tol: float = 0.0) -> bool:
    """Whether a - tol <= b (1 + rel) for each neighbouring pair; a nan fails."""
    return all(a - tol <= b * (1.0 + rel) for a, b in zip(values, values[1:]))


@lru_cache(maxsize=4096, typed=True)  # typed: True must not hit the entry of m = 1
def budget_certified(cp: ClassParams, m: int = 0) -> bool:
    """Whether the k = p+1 multiplier binds the order-m aggregated budget.

    The distortion and composition bounds replace the true per-coefficient
    multipliers by the single k = p+1 value, which is only valid when

        term(k) * fallfac(p+1, m) / fallfac(k, m)  >=  term(p+1)   for all k > p.

    This always holds at mu = 0 but fails for strong smoothing (large mu,
    small delta), where admissible functions genuinely escape those bounds.
    The check is the shared log-space scan at s = -m, where the weight is fallfac(k, m).
    """
    m = _require_int("order", m, 0)
    if m > cp.p:
        raise OrderExceedsValenceError(f"order {m} exceeds valence {cp.p}")
    return _certified_scan(cp, -m)


def random_params(
    rng: np.random.Generator,
    max_p: int = 4,
    mu_range: tuple[float, float] = (0.0, 0.9),
    delta_range: tuple[float, float] = (0.0, 1.0),
    require_budget_orders: Sequence[int] = (),
) -> ClassParams:
    """Draw admissible parameters, optionally rejecting uncertified budget regimes."""
    while True:
        p = int(rng.integers(1, max_p + 1))
        alpha = float(rng.uniform(0.0, 0.8 * p))
        B = float(rng.uniform(-1.0, 0.8))
        A = float(rng.uniform(B + 0.1, 1.0))
        mu = float(rng.uniform(*mu_range))
        delta = float(rng.uniform(*delta_range))
        cp = ClassParams(p=p, alpha=alpha, A=A, B=B, mu=mu, delta=delta)
        if all(budget_certified(cp, m) for m in require_budget_orders if m <= p):
            return cp

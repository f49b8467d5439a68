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
product :func:`pvalent.operators.rafid_multipliers`, the one walk of w_k, and scaled once,
after the product with a_k or the reciprocal, so sums, bounds and margins stay finite at
every index.  Sums, random members and scans over k make one pass along their sorted
indices; a lone term or bound at k walks the product from p, in k-p steps.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache, reduce
from typing import TYPE_CHECKING, Sequence

from .errors import (
    DivergentInputError, OrderExceedsValenceError, ParameterOutOfRangeError, UncertifiedBoundWarning,
    ValenceMismatchError, _Frozen, _require_index, _require_int, _require_radius, _setattr,
)
from .operators import RafidParams, pow2_product, rafid_multiplier, rafid_multipliers
from .series import CoefficientSeries, _support, make_series

if TYPE_CHECKING:
    import numpy as np

_LN2 = math.log(2.0)


class ClassParams(_Frozen):
    """Family parameters: p >= 1, 0 <= alpha < p, -1 <= B < A <= 1 with (A-B)(p-alpha) not rounding to 0.0, plus
    smoothing (mu, delta)."""

    _fields = ("p", "alpha", "A", "B", "mu", "delta")
    # derived once, since every criterion term reads them; scale = (A-B)(p-alpha) is
    # the right-hand side of the unnormalized criterion, and _hash keys every lru_cache on the hot path
    __slots__ = _fields + ("rafid", "scale", "_hash")

    def __init__(
        self, p: int = 1, alpha: float = 0.0, A: float = 1.0, B: float = -1.0, mu: float = 0.0, delta: float = 1.0
    ) -> None:
        p = _require_int("valence p", p, 1)
        _require_order("alpha", alpha, p)
        if not (-1.0 <= B < A <= 1.0):
            raise ParameterOutOfRangeError(f"need -1 <= B < A <= 1, got A = {A}, B = {B}")
        # RafidParams checks mu and delta; past the checks, which refuse a string, the five are stored as floats
        rafid = RafidParams(mu, delta)
        alpha, A, B = float(alpha), float(A), float(B)
        if not (scale := (A - B) * (p - alpha)):  # every criterion term divides by it
            raise ParameterOutOfRangeError(
                f"(A-B)(p-alpha) rounds to 0.0 at A = {A}, B = {B}, p = {p}, alpha = {alpha}"
            )
        _setattr(self, "p", p)
        _setattr(self, "alpha", alpha)
        _setattr(self, "A", A)
        _setattr(self, "B", B)
        _setattr(self, "mu", rafid.mu)
        _setattr(self, "delta", rafid.delta)
        _setattr(self, "rafid", rafid)
        _setattr(self, "scale", scale)
        _setattr(self, "_hash", hash((p, alpha, A, B, rafid.mu, rafid.delta)))

    def __hash__(self) -> int:
        return self._hash


class _Report(_Frozen):
    """Base of the report types: their JSON form holds every field, in order.

    The values are shared, not copied: a report is frozen and holds numbers, strings and tuples of them,
    and a deep copy of a 2,000-candidate radius report costs milliseconds.
    """

    __slots__ = ()

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}


class MembershipReport(_Report):
    __slots__ = _fields = ("sum", "member", "margin", "per_term")

    def __init__(self, sum: float, member: bool, margin: float, per_term: tuple[tuple[int, float], ...]) -> None:
        _setattr(self, "sum", sum)
        _setattr(self, "member", member)
        _setattr(self, "margin", margin)
        _setattr(self, "per_term", per_term)


def _term(k: int, cp: ClassParams, m: float, e: int) -> tuple[float, int]:
    """(t, e) with r_criterion_term(k) = t 2^e, given w_k = m 2^e."""
    if k <= cp.p:
        _require_index(k, cp.p)  # raises
    return ((1.0 - cp.B) * (k - cp.p) + cp.scale) * m / cp.scale, e


def r_criterion_term(k: int, cp: ClassParams) -> float:
    """Normalized criterion multiplier of a_k for the R family.

    [(1-B)(k-p) + (A-B)(p-alpha)] w_k / ((A-B)(p-alpha)); always >= w_k >= 1
    at mu = 0 and strictly increasing once the smoothing growth takes over.
    Comes back as inf only where the true term exceeds double range.
    """
    return pow2_product(*_term(k, cp, *rafid_multiplier(k, cp.p, cp.rafid)))


def log_r_criterion_term(k: int, cp: ClassParams) -> float:
    """log of :func:`r_criterion_term`, log t + e log 2; inf where the scale is subnormal."""
    t, e = _term(k, cp, *rafid_multiplier(k, cp.p, cp.rafid))
    return math.log(t) + e * _LN2


def check_r_membership(f: CoefficientSeries, cp: ClassParams) -> MembershipReport:
    """Finite criterion sum; member iff sum <= 1, margin = 1 - sum; a zero a_k is its own term, 0.0 or -0.0.

    The sum is the ``math.fsum`` of terms that are each rounded once, so it is the correctly rounded sum of
    those rounded terms, not of the exact ones: at ``ClassParams(mu=0.1)``, ``extremal_r(2, cp)`` reports a
    member with margin 0.0, while the exact sum of that double series exceeds 1 by about 3.8e-17.  Terms that
    are finite but sum past double range give sum inf, as an inf term does.  The walk of w_k stops at the last
    nonzero coefficient; an index at or below p is refused first, wherever its coefficient is zero.
    """
    if f.p != cp.p:
        raise ValenceMismatchError(f"series valence {f.p} != parameter valence {cp.p}")
    ks, walk = _support(f)
    p, a, slope, s, cs, inf, ldexp = cp.p, f.coeffs, 1.0 - cp.B, cp.scale, [], math.inf, math.ldexp
    for k, (m, e) in zip(walk, rafid_multipliers(p, cp.rafid, walk)):
        # pow2_product(*_term(k, cp, m, e), a_k) inline: a t a_k rounded into (2^-1022, inf) is t ma 2^ea rounded
        c = (t := (slope * (k - p) + s) * m / s) * a[k]
        try:
            cs.append(ldexp(c, e) if 2.0**-1022 < c < inf else pow2_product(t, e, a[k]))
        except OverflowError:  # only a positive c reaches ldexp
            cs.append(inf)
    if walk is not ks:
        cs.extend(a[k] for k in ks[len(walk) :])  # pow2_product(t, e, 0.0) is the zero itself, also at t = inf
    try:
        total = math.fsum(cs)
    except OverflowError:  # finite terms past double range
        total = inf
    return MembershipReport(sum=total, member=total <= 1.0, margin=1.0 - total, per_term=tuple(zip(ks, cs)))


def coeff_bound_r(k: int, cp: ClassParams) -> float:
    """Largest admissible lone coefficient at index k (sharp).

    Walks w_k from p in k-p steps, no cap: about 0.09 µs a step, 90 ms at k = 10^6 (README).
    """
    return _bound(*_term(k, cp, *rafid_multiplier(k, cp.p, cp.rafid)))


def _bound(t: float, e: int) -> float:
    """1 / (t 2^e), scaled once: the R bound of the term t 2^e, the P bound of (k/p) t 2^e."""
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
    return _bound((k / cp.p) * t, e)


def extremal_p(k: int, cp: ClassParams) -> CoefficientSeries:
    return make_series(cp.p, [(k, coeff_bound_p(k, cp))])


def random_member(
    cp: ClassParams, rng: np.random.Generator, target_sum: float | None = None
) -> CoefficientSeries:
    """Random R-family member with criterion sum equal to target (default U(0, 0.999)).

    It has one to five terms at indices p+1..p+12: sharp bounds from one multiplier pass, scaled by a random
    convex combination, so the membership sum is the target up to a few ulp.  A rewrite must keep the draws:
    weights ``rng.random(count)`` over their left-to-right sum, then ``rng.uniform(0.0, 0.999)``'s 0.999 u.
    """
    count = int(rng.integers(1, 6))
    ks = (cp.p + 1 + rng.choice(12, size=count, replace=False)).tolist()
    total = reduce(float.__add__, u := rng.random(count).tolist())  # not sum(), which compensates from Python 3.12
    s = 0.999 * rng.random() if target_sum is None else float(target_sum)
    bound = {k: _bound(*_term(k, cp, *me)) for k, me in zip(sorted(ks), rafid_multipliers(cp.p, cp.rafid, sorted(ks)))}
    return make_series(cp.p, [(k, s * (ui / total) * bound[k]) for k, ui in zip(ks, u)])


def _grows_past(cp: ClassParams, k: int, target: float, shift: float | None = None) -> bool:
    """Whether w_(j+1)/w_j = (1-mu)(j+delta), times (j+1-shift)/(j+1) given a shift, is >= target for all j >= k.

    Both factors are positive and nondecreasing in j (0 <= shift <= p < j+1), so true at k stays true.  As
    term(j+1)/term(j) is that ratio times a bracket ratio >= 1, target 1 with shift max(-s, 0) keeps the ratio of
    :func:`_certified_scan` from dipping (its weight ratio is at most (j+1)/(j+1-shift)), and target 2 keeps
    den(j+1) >= 2 den(j) >= den(j) num(j+1)/num(j) once den(k) > 0, so Phi of :mod:`pvalent.hadamard` rises.
    """
    growth = (1.0 - cp.mu) * (k + cp.delta)
    return (growth if shift is None else growth * (k + 1 - shift) / (k + 1)) >= target


def _certified_scan(cp: ClassParams, s: float, c: float | None = None, b: float = 0.0) -> bool:
    """Whether term(k) / weight(k) stays at or above its k = p+1 value for all k > p.

    weight(k) = Gamma(k+1)/Gamma(k+1+s), over c+k+b when a Bernardi factor acts: the tail multiplier of an
    order-m derivative (s = -m) or of a composition.  Log space, tolerance 1e-9, with w = log weight(p+1) -
    log weight(k) summed along k from weight(k)/weight(k+1) = (1 + s/(k+1)) (1 + 1/(c+k+b)), as
    :func:`rafid_multipliers` walks w_k, so every finite s gets a verdict.  It stops at :func:`_grows_past` with
    target 1, finite for every mu < 1 but unbounded (near k = 1/(1-mu), so p near 1/(1-mu) walks about
    1/(1-mu) - p steps, without limit as mu -> 1): a scan that walks 200 000 steps without it stops, not certified.
    """
    ks, shift, log, log1p, w = range(cp.p + 1, cp.p + 200_001), max(-s, 0.0), math.log, math.log1p, 0.0
    for k, (m, e) in zip(ks, rafid_multipliers(cp.p, cp.rafid, ks)):
        t, e = _term(k, cp, m, e)
        log_term = log(t) + e * _LN2
        base = log_term if k == cp.p + 1 else base
        if log_term + w - base < -1e-9:
            return False
        if _grows_past(cp, k, 1.0, shift):
            return True
        w += log1p(s / (k + 1)) + (0.0 if c is None else log1p(1.0 / (c + k + b)))
    return False


def _tail_record(what: str, cp: ClassParams, certified: bool, a0: float, e0: float, a1_t: float) -> tuple:
    """(warning, A0, e0, A1 T) of the bounds A0 r^e0 -+ A1 T r^(e0+1) of ``what``; the one home of the warning text."""
    if not (a0 < math.inf and a1_t < math.inf):  # the bounds would read inf - inf
        raise DivergentInputError(f"{what} has constants past double range: A0 = {a0!r}, A1 T = {a1_t!r}")
    warning = None if certified else (
        f"tail aggregation not certified for {what} at {cp}; admissible members may exceed these bounds"
    )
    return warning, a0, e0, a1_t


def _tail_bounds(record: tuple, r: float) -> tuple[float, float, float, float]:
    """(r, lower, upper, r^e0) from a :func:`_tail_record`: r is checked, then the warning names the caller's caller."""
    warning, a0, e0, a1_t = record
    r = _require_radius(r)
    if warning is not None:
        warnings.warn(warning, UncertifiedBoundWarning, stacklevel=3)
    scale = r**e0
    lead, tail = a0 * scale, a1_t * r ** (e0 + 1.0)
    return r, lead - tail, lead + tail, scale


def _scan_indices(cp: ClassParams, k_max: int) -> range:
    """The indices p+1 .. k_max of a scan of radii or orders."""
    return range(cp.p + 1, _require_int("k_max", k_max, cp.p + 1) + 1)


def _require_order(name: str, value: float, p: int) -> float:
    """value as a float; an order of starlikeness, convexity, close-to-convexity or a product factor lies in [0, p)."""
    if not (0.0 <= value < p):
        raise ParameterOutOfRangeError(f"{name} must lie in [0, p), got {value}")
    return float(value)


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
    mu_range: tuple[float, float] = (0.0, 0.9),
    delta_range: tuple[float, float] = (0.0, 1.0),
    require_budget_orders: Sequence[int] = (),
) -> ClassParams:
    """Draw admissible parameters, optionally rejecting uncertified budget regimes.

    A rewrite must keep the draws: p in 1..4 by ``rng.integers(1, 5)``, then alpha, B, A, mu, delta as
    ``rng.uniform`` maps the doubles of one ``rng.random(5)``, lo + (hi - lo) u, the stream of five such calls."""
    while True:
        p, (u0, u1, u2, u3, u4) = int(rng.integers(1, 5)), rng.random(5).tolist()
        alpha = 0.0 + (0.8 * p - 0.0) * u0
        B = -1.0 + (0.8 - -1.0) * u1
        A = (B + 0.1) + (1.0 - (B + 0.1)) * u2
        mu = mu_range[0] + (mu_range[1] - mu_range[0]) * u3
        delta = delta_range[0] + (delta_range[1] - delta_range[0]) * u4
        cp = ClassParams(p=p, alpha=alpha, A=A, B=B, mu=mu, delta=delta)
        if all(budget_certified(cp, m) for m in require_budget_orders if m <= p):
            return cp

"""Distortion bounds and radii of starlikeness, convexity and close-to-convexity.

Distortion: for R-family members and m <= p,

    fallfac(p,m) r^(p-m) -+ T fallfac(p+1,m) r^(p-m+1)  bounds  |f^(m)(z)|,  |z| = r,

with T the sharp k = p+1 coefficient bound and the falling factorials of the derivative
multiplier of :mod:`pvalent.series`: the tail-aggregated bound of :mod:`pvalent.classes`,
warned outside ``budget_certified``, where members can exceed it.  A curve forms its
record once for all its sample points.

Radii: the family property holds in |z| < r* with

    r_k = [term(k) * factor(k)]^(1/(k-p)),     r* = min_k r_k,

where factor is (p-z)/(k-z) for starlike of order z, p(p-z)/(k(k-z)) for
convex and (p-z)/k for close-to-convex.  The report lists every candidate
k = p+1..k_max, in log space so that term(k) cannot overflow, and records whether
they are nondecreasing past the argmin: a sampled certificate of the truncation, up
to k_max only.  One record per (class, z, k_max), kept for the last, holds the indices,
log term(k) from :func:`pvalent.classes._log_terms`, the steps k - p as floats, log(k - z)
read off those steps, and log k from a module table grown to the largest k_max asked: the
three kinds share it, and each adds a pass of exp divided by the float steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, repeat
from typing import Iterable

from .classes import (
    ClassParams, _Report, _log_terms, _nondecreasing, _require_order, _scan_indices, _tail_bounds, _tail_record,
    budget_certified, coeff_bound_r,
)
from .errors import _require_int
from .series import _falling

_LOG_K = [-math.inf]  # math.log(k) at index k; regrown as a new list, never extended in place

@dataclass(frozen=True)
class BoundCurve:
    m: int
    samples: tuple[tuple[float, float, float], ...]  # (r, lower, upper)


@dataclass(frozen=True)
class RadiusReport(_Report):
    kind: str
    radius: float
    argmin_k: int
    zeta: float
    candidates: tuple[tuple[int, float], ...]
    certified: bool
    whole_disk: bool


def _distortion(cp: ClassParams, m: int) -> tuple:
    """The :func:`_tail_record` of order m: A0 = fallfac(p, m), e0 = p - m, A1 T = fallfac(p+1, m) T."""
    m = _require_int("order", m, 0)
    certified = budget_certified(cp, m)  # refuses an order above p first
    # the sharp k = p+1 bound, reused as the aggregated tail budget, under the derivative multiplier
    a1_t = _falling(cp.p + 1, m, coeff_bound_r(cp.p + 1, cp))
    return _tail_record(f"distortion order {m}", cp, certified, _falling(cp.p, m), cp.p - m, a1_t)


def distortion_bounds(cp: ClassParams, m: int, r: float) -> tuple[float, float]:
    """(lower, upper) for |f^(m)| on |z| = r, 0 < r < 1, 0 <= m <= p."""
    _, lower, upper, _ = _tail_bounds(_distortion(cp, m), r)
    return lower, upper


def distortion_curve(cp: ClassParams, m: int, radii: Iterable[float]) -> BoundCurve:
    """distortion_bounds at each radius, one warning per sample; the order is checked even with no radii."""
    record, samples = _distortion(cp, m), []
    for r in radii:  # a loop, not a comprehension: the warning must name the caller on 3.10 and 3.11 too
        samples.append(_tail_bounds(record, r)[:3])
    return BoundCurve(m=m, samples=tuple(samples))


@lru_cache(maxsize=1, typed=True)  # typed: k_max = 3.0 must be refused, not hit the entry of 3
def _radius_scan(cp: ClassParams, zeta: float, k_max: int) -> tuple[range, tuple[float, ...], ...]:
    """The indices p+1 .. k_max with log term(k) (``classes._log_terms``), log(k - zeta), log k and k - p, a float."""
    global _LOG_K
    ks, log, log_k = _scan_indices(cp, k_max), math.log, _LOG_K
    if len(log_k) < ks.stop:  # a racing reader keeps the list it read, which is long enough for it
        _LOG_K = log_k = log_k + [log(k) for k in range(len(log_k), ks.stop)]
    # k - p counted in floats, exactly, divides sooner than an int; d + p is k exactly, so log(k - zeta) keeps its bits
    steps, p = tuple(accumulate(repeat(1.0, len(ks)))), float(cp.p)
    log_kz = tuple([log(d + p - zeta) for d in steps])
    return ks, tuple(_log_terms(cp, ks)), log_kz, tuple(log_k[ks.start : ks.stop]), steps


def _radius_report(cp: ClassParams, zeta: float, k_max: int, kind: str) -> RadiusReport:
    zeta = _require_order("zeta", zeta, cp.p)
    ks, log_terms, log_kz, log_k, steps = _radius_scan(cp, zeta, k_max)
    exp, log_pz = math.exp, math.log(cp.p - zeta)
    # r_k = exp((log term(k) + log factor(k)) / (k-p)), the factor summed left to right
    if kind == "starlike":
        radii = [exp((t + (log_pz - lz)) / d) for d, t, lz in zip(steps, log_terms, log_kz)]
    elif kind == "convex":
        log_ppz = math.log(cp.p) + log_pz
        radii = [exp((t + (log_ppz - lk - lz)) / d) for d, t, lz, lk in zip(steps, log_terms, log_kz, log_k)]
    else:
        radii = [exp((t + (log_pz - lk)) / d) for d, t, lk in zip(steps, log_terms, log_k)]
    radius = min(radii)
    i = radii.index(radius)  # the smallest argmin
    tail = radii[i:]
    return RadiusReport(
        kind=kind,
        radius=radius,
        argmin_k=ks[i],
        zeta=zeta,
        candidates=tuple(zip(ks, radii)),
        # radii are finite and >= 0: sorted leaves tail as is iff nondecreasing, which implies the tolerant pass
        certified=sorted(tail) == tail or _nondecreasing(tail, rel=1e-12),
        whole_disk=radius >= 1.0,
    )


def radius_starlike(cp: ClassParams, zeta: float = 0.0, k_max: int = 200) -> RadiusReport:
    """Radius in which every member satisfies Re(z f'/f) > zeta."""
    return _radius_report(cp, zeta, k_max, "starlike")


def radius_convex(cp: ClassParams, zeta: float = 0.0, k_max: int = 200) -> RadiusReport:
    """Radius in which every member satisfies Re(1 + z f''/f') > zeta."""
    return _radius_report(cp, zeta, k_max, "convex")


def radius_close_to_convex(
    cp: ClassParams, zeta: float = 0.0, k_max: int = 200
) -> RadiusReport:
    """Radius in which every member satisfies |f'(z)/z^(p-1) - p| < p - zeta."""
    return _radius_report(cp, zeta, k_max, "close-to-convex")

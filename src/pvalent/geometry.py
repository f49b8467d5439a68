"""Distortion bounds and radii of starlikeness, convexity and close-to-convexity.

Distortion: for R-family members and m <= p,

    [fallfac(p,m) -+ T fallfac(p+1,m) r] r^(p-m)  bounds  |f^(m)(z)|,  |z| = r,

with T the sharp k = p+1 coefficient bound, the tail budget shared with the
composition bounds of :mod:`pvalent.calculus_bounds`.  Replacing every tail
multiplier by the k = p+1 one is valid only where the one certificate of
:mod:`pvalent.classes` holds (``budget_certified``); outside it the bounds are
still reported, with that module's one warning, since members can exceed them.
The warning text (None inside the certificate) and the two falling factorials,
T included, are kept for the last (class, m), so the sample points of one curve
compute them once.

Radii: the family property holds in |z| < r* with

    r_k = [term(k) * factor(k)]^(1/(k-p)),     r* = min_k r_k,

where factor is (p-z)/(k-z) for starlike of order z, p(p-z)/(k(k-z)) for
convex and (p-z)/k for close-to-convex.  The report lists every candidate
k = p+1..k_max, evaluated in log space from one pass of the multiplier sequence
so that term(k) cannot overflow, and records whether they are nondecreasing
past the argmin: a sampled certificate of the truncation, up to k_max only.
One record per (class, z, k_max), kept for the last, holds the indices, log term(k),
log(k - z) and log k: the three kinds share its passes and each adds one pass of exp.
It slices log k from a module table, one float per index up to the largest k_max asked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .classes import (
    _LN2, ClassParams, _nondecreasing, _require_zeta, _scan_indices, _uncertified_text, _warn_uncertified,
    budget_certified, coeff_bound_r,
)
from .errors import _require_int, _require_radius
from .operators import rafid_multipliers

_LOG_K = [-math.inf]  # math.log(k) at index k; regrown as a new list, never extended in place

@dataclass(frozen=True)
class BoundCurve:
    m: int
    samples: tuple[tuple[float, float, float], ...]  # (r, lower, upper)


@dataclass(frozen=True)
class RadiusReport:
    kind: str
    radius: float
    argmin_k: int
    zeta: float
    candidates: tuple[tuple[int, float], ...]
    certified: bool
    whole_disk: bool

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "radius": self.radius,
            "argmin_k": self.argmin_k,
            "zeta": self.zeta,
            "candidates": [[k, r] for k, r in self.candidates],
            "certified": self.certified,
            "whole_disk": self.whole_disk,
        }


@lru_cache(maxsize=1, typed=True)  # typed: m = True must be refused, not hit the entry of 1
def _distortion(cp: ClassParams, m: int) -> tuple[str | None, float, float, int]:
    """(warning, fallfac(p, m), T fallfac(p+1, m), p - m): what the bounds of one curve share."""
    m = _require_int("order", m, 0)
    # budget_certified refuses an order above p first
    warning = None if budget_certified(cp, m) else _uncertified_text(f"distortion order {m}", cp)
    # the sharp k = p+1 bound, reused as the aggregated tail budget
    tail = coeff_bound_r(cp.p + 1, cp) * float(math.perm(cp.p + 1, m))
    return warning, float(math.perm(cp.p, m)), tail, cp.p - m


def _distortion_sample(record: tuple[str | None, float, float, int], r: float) -> tuple[float, float, float]:
    """(r, lower, upper) from a :func:`_distortion` record; r is checked, the warning left to the caller."""
    _, lead, tail, e = record
    r = _require_radius(r)
    tail, scale = tail * r, r**e
    return r, (lead - tail) * scale, (lead + tail) * scale


def distortion_bounds(cp: ClassParams, m: int, r: float) -> tuple[float, float]:
    """(lower, upper) for |f^(m)| on |z| = r, 0 < r < 1, 0 <= m <= p."""
    record = _distortion(cp, m)
    _, lower, upper = _distortion_sample(record, r)
    _warn_uncertified(record[0])
    return lower, upper


def distortion_curve(cp: ClassParams, m: int, radii: Iterable[float]) -> BoundCurve:
    """distortion_bounds at each radius, one warning per sample; the order is checked even with no radii."""
    record, samples = _distortion(cp, m), []
    for r in radii:
        samples.append(_distortion_sample(record, r))
        _warn_uncertified(record[0])
    return BoundCurve(m=m, samples=tuple(samples))


@lru_cache(maxsize=1, typed=True)  # typed: k_max = 3.0 must be refused, not hit the entry of 3
def _radius_scan(cp: ClassParams, zeta: float, k_max: int) -> tuple[range, tuple[float, ...], ...]:
    """The indices p+1 .. k_max with log term(k), from one pass of w_k, log(k - zeta) and log k (from _LOG_K)."""
    global _LOG_K
    ks = _scan_indices(cp, k_max)
    p, slope, s, log, log_k = cp.p, 1.0 - cp.B, cp.scale, math.log, _LOG_K
    if len(log_k) < ks.stop:  # a racing reader keeps the list it read, which is long enough for it
        _LOG_K = log_k = log_k + [log(k) for k in range(len(log_k), ks.stop)]
    weights = zip(ks, rafid_multipliers(p, cp.rafid, ks))
    log_terms = tuple([log((slope * (k - p) + s) * m / s) + e * _LN2 for k, (m, e) in weights])
    return ks, log_terms, tuple([log(k - zeta) for k in ks]), tuple(log_k[ks.start : ks.stop])


def _radius_report(cp: ClassParams, zeta: float, k_max: int, kind: str) -> RadiusReport:
    zeta = _require_zeta(zeta, cp.p)
    ks, log_terms, log_kz, log_k = _radius_scan(cp, zeta, k_max)
    steps, exp, log_pz = range(1, len(ks) + 1), math.exp, math.log(cp.p - zeta)  # steps: k - p
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

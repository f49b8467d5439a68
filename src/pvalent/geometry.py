"""Distortion bounds and radii of starlikeness, convexity and close-to-convexity.

Distortion: for R-family members and m <= p,

    [fallfac(p,m) -+ T fallfac(p+1,m) r] r^(p-m)  bounds  |f^(m)(z)|,  |z| = r,

with T the sharp k = p+1 coefficient bound, the tail budget shared with the
composition bounds of :mod:`pvalent.calculus_bounds`.  Replacing every tail
multiplier by the k = p+1 one is valid only where the one certificate of
:mod:`pvalent.classes` holds (``budget_certified``); outside it the bounds are
still reported, with that module's one warning, since members can exceed them.
The certificate verdict and the two falling factorials, T included, are kept for
the last (class, m), so the sample points of one curve compute them once.

Radii: the family property holds in |z| < r* with

    r_k = [term(k) * factor(k)]^(1/(k-p)),     r* = min_k r_k,

where factor is (p-z)/(k-z) for starlike of order z, p(p-z)/(k(k-z)) for
convex and (p-z)/k for close-to-convex.  The report lists every candidate
k = p+1..k_max, evaluated in log space from one pass of the multiplier sequence
so that term(k) cannot overflow, and records whether they are nondecreasing
past the argmin: a sampled certificate of the truncation, up to k_max only.
The pass is kept for the last (class, k_max), so the three kinds of one class share it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .classes import (
    ClassParams,
    _log_terms,
    _nondecreasing,
    _require_zeta,
    _warn_uncertified,
    budget_certified,
    coeff_bound_r,
)
from .errors import _require_int, _require_radius


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
def _distortion(cp: ClassParams, m: int) -> tuple[bool, float, float, int]:
    """(certified, fallfac(p, m), T fallfac(p+1, m), p - m): what the bounds of one curve share."""
    m = _require_int("order", m, 0)
    certified = budget_certified(cp, m)  # refuses an order above p first
    # the sharp k = p+1 bound, reused as the aggregated tail budget
    tail = coeff_bound_r(cp.p + 1, cp) * float(math.perm(cp.p + 1, m))
    return certified, float(math.perm(cp.p, m)), tail, cp.p - m


def distortion_bounds(cp: ClassParams, m: int, r: float) -> tuple[float, float]:
    """(lower, upper) for |f^(m)| on |z| = r, 0 < r < 1, 0 <= m <= p."""
    certified, lead, tail, e = _distortion(cp, m)
    r = _require_radius(r)
    if not certified:
        _warn_uncertified(f"distortion order {m}", cp)
    tail, scale = tail * r, r**e
    return ((lead - tail) * scale, (lead + tail) * scale)


def distortion_curve(cp: ClassParams, m: int, radii: Iterable[float]) -> BoundCurve:
    return BoundCurve(m=m, samples=tuple((float(r), *distortion_bounds(cp, m, r)) for r in radii))


def _radius_report(cp: ClassParams, zeta: float, k_max: int, kind: str) -> RadiusReport:
    zeta = _require_zeta(zeta, cp.p)
    ks, log_terms = _log_terms(cp, k_max)
    p, log, exp = cp.p, math.log, math.exp
    # r_k = exp((log term(k) + log factor(k)) / (k-p)), the factor summed left to right
    scan, log_pz = zip(ks, log_terms), log(p - zeta)
    if kind == "starlike":
        radii = [exp((t + (log_pz - log(k - zeta))) / (k - p)) for k, t in scan]
    elif kind == "convex":
        log_ppz = log(p) + log_pz
        radii = [exp((t + (log_ppz - log(k) - log(k - zeta))) / (k - p)) for k, t in scan]
    else:
        radii = [exp((t + (log_pz - log(k))) / (k - p)) for k, t in scan]
    radius = min(radii)
    i = radii.index(radius)  # the smallest argmin
    return RadiusReport(
        kind=kind,
        radius=radius,
        argmin_k=ks[i],
        zeta=zeta,
        candidates=tuple(zip(ks, radii)),
        certified=_nondecreasing(radii[i:], rel=1e-12),
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

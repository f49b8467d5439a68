"""Distortion bounds and radii of starlikeness, convexity and close-to-convexity.

Distortion: for R-family members and m <= p,

    [fallfac(p,m) -+ T fallfac(p+1,m) r] r^(p-m)  bounds  |f^(m)(z)|,  |z| = r,

with T = (A-B)(p-alpha) / ([(1-B)+(A-B)(p-alpha)](1-mu)(p+delta)), the sharp
k = p+1 coefficient bound.  The aggregation step behind T is only valid in
the certified budget regime (see classes.budget_certified); outside it the
bounds are still reported but a warning is raised, because admissible
members can exceed them.

Radii: the family property holds in |z| < r* with

    r_k = [term(k) * factor(k)]^(1/(k-p)),     r* = min_k r_k,

where factor is (p-z)/(k-z) for starlike of order z, p(p-z)/(k(k-z)) for
convex and (p-z)/k for close-to-convex.  Candidates are evaluated in log
space so the factorial growth of term(k) cannot overflow, and the report
records whether the candidates were observed nondecreasing beyond the
argmin (certifying the k_max truncation).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable

from .classes import (
    ClassParams,
    _nondecreasing,
    _scan_candidates,
    budget_certified,
    coeff_bound_r,
    log_r_criterion_term,
)
from .errors import (
    OrderExceedsValenceError,
    ParameterOutOfRangeError,
    RadiusOutOfRangeError,
    UncertifiedBoundWarning,
)


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


def distortion_bounds(cp: ClassParams, m: int, r: float) -> tuple[float, float]:
    """(lower, upper) for |f^(m)| on |z| = r, 0 < r < 1, 0 <= m <= p."""
    if isinstance(m, bool) or not isinstance(m, int) or m < 0:
        raise ParameterOutOfRangeError(f"order must be an integer >= 0, got {m!r}")
    if m > cp.p:
        raise OrderExceedsValenceError(f"order {m} exceeds valence {cp.p}")
    r = float(r)
    if not (0.0 < r < 1.0):
        raise RadiusOutOfRangeError(f"radius must lie in (0, 1), got {r}")
    if not budget_certified(cp, m):
        warnings.warn(
            f"tail budget not certified for {cp} at order {m}; "
            "admissible members may exceed these bounds",
            UncertifiedBoundWarning,
            stacklevel=2,
        )
    lead = float(math.perm(cp.p, m))
    # the sharp k = p+1 bound, reused as the aggregated tail budget
    tail = coeff_bound_r(cp.p + 1, cp) * float(math.perm(cp.p + 1, m)) * r
    scale = r ** (cp.p - m)
    return ((lead - tail) * scale, (lead + tail) * scale)


def distortion_curve(cp: ClassParams, m: int, radii: Iterable[float]) -> BoundCurve:
    return BoundCurve(m=m, samples=tuple((float(r), *distortion_bounds(cp, m, r)) for r in radii))


def _log_factor(kind: str, k: int, p: int, zeta: float) -> float:
    if kind == "starlike":
        return math.log(p - zeta) - math.log(k - zeta)
    if kind == "convex":
        return math.log(p) + math.log(p - zeta) - math.log(k) - math.log(k - zeta)
    return math.log(p - zeta) - math.log(k)


def _radius_report(cp: ClassParams, zeta: float, k_max: int, kind: str) -> RadiusReport:
    zeta = float(zeta)
    if not (0.0 <= zeta < cp.p):
        raise ParameterOutOfRangeError(f"zeta must lie in [0, p), got {zeta}")

    def candidate(k: int) -> float:
        log_r = log_r_criterion_term(k, cp) + _log_factor(kind, k, cp.p, zeta)
        return math.exp(log_r / (k - cp.p))

    candidates = _scan_candidates(cp, k_max, candidate)
    argmin_k, radius = min(candidates, key=lambda kr: (kr[1], kr[0]))
    return RadiusReport(
        kind=kind,
        radius=radius,
        argmin_k=argmin_k,
        zeta=zeta,
        candidates=tuple(candidates),
        certified=_nondecreasing([r for k, r in candidates if k >= argmin_k], rel=1e-12),
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

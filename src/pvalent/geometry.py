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
log term(k) from one pass of :func:`pvalent.operators.rafid_multipliers`, the steps k - p as
floats, log(k - z) read off those steps, and log k from a module table grown to the largest
k_max asked: the three kinds share it, and each adds a pass of exp divided by the float steps.
Once numpy is loaded, a scan of ``_ARRAY_SCAN_MIN`` indices or more takes the array form: the
same operations in the same order, as numpy arrays, from the twin walk
``operators._rafid_multiplier_arrays``, with every log and exp still :mod:`math`'s, so that
each candidate keeps every bit of the loops'.  The loops stay the cold path and the reference.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from itertools import accumulate, repeat
from typing import Iterable

from .classes import (
    _LN2, ClassParams, _Report, _nondecreasing, _require_order, _scan_indices, _tail_bounds, _tail_record,
    budget_certified, coeff_bound_r,
)
from .errors import _Frozen, _require_int, _setattr
from .operators import _rafid_multiplier_arrays, rafid_multipliers
from .series import _falling

# scans of at least this many indices take the array form when numpy is already loaded; a radius call never loads
# it, as the import would cost more than any scan saves (about 190 ms of a cold process on the VM below).  The
# crossover, timed on a shared 2-CPU VM (Python 3.11, numpy 2.4, one cold record and its three reports, mu from 0
# to 1 - 2^-53): the loops lead below about 48 indices and the arrays above about 96
_ARRAY_SCAN_MIN = 64
_LOG_K = [-math.inf]  # math.log(k) at index k, kept for speed; regrown as a new list, never extended in place


class BoundCurve(_Frozen):
    __slots__ = _fields = ("m", "samples")

    def __init__(self, m: int, samples: tuple[tuple[float, float, float], ...]) -> None:  # (r, lower, upper)
        _setattr(self, "m", m)
        _setattr(self, "samples", samples)


class RadiusReport(_Report):
    __slots__ = _fields = ("kind", "radius", "argmin_k", "zeta", "candidates", "certified", "whole_disk")

    def __init__(
        self, kind: str, radius: float, argmin_k: int, zeta: float, candidates: tuple[tuple[int, float], ...],
        certified: bool, whole_disk: bool,
    ) -> None:
        _setattr(self, "kind", kind)
        _setattr(self, "radius", radius)
        _setattr(self, "argmin_k", argmin_k)
        _setattr(self, "zeta", zeta)
        _setattr(self, "candidates", candidates)
        _setattr(self, "certified", certified)
        _setattr(self, "whole_disk", whole_disk)


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
def _radius_scan(cp: ClassParams, zeta: float, k_max: int) -> tuple:
    """The indices p+1 .. k_max with log term(k) from one :func:`rafid_multipliers` pass, bit for bit
    ``log_r_criterion_term``'s, log(k - zeta), log k and k - p, a float: tuples, or arrays in the array form."""
    global _LOG_K
    ks, log, log_k = _scan_indices(cp, k_max), math.log, _LOG_K
    if len(log_k) < ks.stop:  # a racing reader keeps the list it read, which is long enough for it
        _LOG_K = log_k = log_k + [log(k) for k in range(len(log_k), ks.stop)]
    log_k = log_k[ks.start : ks.stop]
    p, slope, s = float(cp.p), 1.0 - cp.B, cp.scale
    if len(ks) >= _ARRAY_SCAN_MIN and (np := sys.modules.get("numpy")) is not None:
        # the loops' expressions elementwise, each log mapped over the floats: np.log need not be libm's, bit for bit
        steps = np.arange(1.0, len(ks) + 1.0)
        m, e = _rafid_multiplier_arrays(cp.p, cp.rafid, len(ks))
        with np.errstate(over="ignore"):  # a subnormal scale takes a term to inf, as the float loop does silently
            terms = ((slope * steps + s) * m / s).tolist()
        log_terms = np.fromiter(map(log, terms), float, len(ks)) + e * _LN2
        log_kz = np.fromiter(map(log, ((steps + p) - zeta).tolist()), float, len(ks))
        return ks, log_terms, log_kz, np.fromiter(log_k, float, len(ks)), steps
    # k - p counted in floats, exactly, divides sooner than an int; d + p is k exactly, so log(k - zeta) keeps its bits
    steps = tuple(accumulate(repeat(1.0, len(ks))))
    log_kz = tuple([log(d + p - zeta) for d in steps])
    # classes._term's expression, inlined for speed; slope * d is slope * (k - p), as d is k - p exactly
    log_terms = [log((slope * d + s) * m / s) + e * _LN2
                 for d, (m, e) in zip(steps, rafid_multipliers(cp.p, cp.rafid, ks))]
    return ks, tuple(log_terms), log_kz, tuple(log_k), steps


def _radius_report(cp: ClassParams, zeta: float, k_max: int, kind: str) -> RadiusReport:
    zeta = _require_order("zeta", zeta, cp.p)
    ks, log_terms, log_kz, log_k, steps = _radius_scan(cp, zeta, k_max)
    exp, log_pz = math.exp, math.log(cp.p - zeta)
    log_ppz = math.log(cp.p) + log_pz
    # r_k = exp((log term(k) + log factor(k)) / (k-p)), the factor summed left to right
    # the record's form, not numpy's presence now, decides: a hit may read a loop record made before numpy loaded
    if type(steps) is not tuple:  # an array record: the loops' sums elementwise, exp mapped over the floats
        if kind == "starlike":
            x = (log_terms + (log_pz - log_kz)) / steps
        elif kind == "convex":
            x = (log_terms + (log_ppz - log_k - log_kz)) / steps
        else:
            x = (log_terms + (log_pz - log_k)) / steps
        radii = list(map(exp, x.tolist()))
    elif kind == "starlike":
        radii = [exp((t + (log_pz - lz)) / d) for d, t, lz in zip(steps, log_terms, log_kz)]
    elif kind == "convex":
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
        # sorted first, for speed: radii >= 0 sort to tail itself iff nondecreasing, which implies the tolerant pass
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

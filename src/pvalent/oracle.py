"""Brute-force disk sampling for the defining geometric inequalities.

Everything here works from the raw coefficients by direct power sums on
circles (vectorized), deliberately avoiding the Horner evaluation path and
the closed-form criteria it is meant to check.  The subordination test for
the R family bounds, with g the smoothed image of f,

    | (z g'/g - p) / (B z g'/g - [Bp + (A-B)(p-alpha)]) |  <  1

over a grid of circles; for negative-coefficient members the circle maximum
sits on the positive real axis, which is asserted on every run and surfaced
as a warning when violated rather than assumed.  The criterion implies the
disk-wide bound only inside the regime described by
``subordination_certified``; for B > 0 with support far beyond p the
implication can fail off the real axis.  Ties between equal maxima
resolve to the smallest angle, then the smallest radius, so reports are
deterministic; refinement bisects in angle around the running maximum and
can only raise the reported extremum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classes import ClassParams
from .errors import (
    DivergentInputError,
    ParameterOutOfRangeError,
    PoleOnGridError,
    RadiusOutOfRangeError,
)
from .operators import apply_rafid
from .series import CoefficientSeries

_DEFAULT_RADII = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99)


@dataclass(frozen=True)
class SampleGrid:
    radii: tuple[float, ...] = _DEFAULT_RADII
    angles_per_radius: int = 256
    refinement: int = 2

    def __post_init__(self) -> None:
        if not self.radii:
            raise ParameterOutOfRangeError("grid needs at least one radius")
        if any(not (0.0 < r < 1.0) for r in self.radii):
            raise RadiusOutOfRangeError(f"grid radii must lie in (0, 1): {self.radii}")
        if list(self.radii) != sorted(set(self.radii)):
            raise ParameterOutOfRangeError("grid radii must be strictly increasing")
        if self.angles_per_radius < 8:
            raise ParameterOutOfRangeError("need at least 8 angles per radius")
        if self.refinement < 0:
            raise ParameterOutOfRangeError("refinement must be >= 0")


@dataclass(frozen=True)
class OracleReport:
    check: str
    extremum: float
    threshold: float
    arg_z: complex
    passed: bool
    tolerance: float
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "extremum": self.extremum,
            "threshold": self.threshold,
            "arg_z": {"re": self.arg_z.real, "im": self.arg_z.imag},
            "pass": self.passed,
            "tolerance": self.tolerance,
            "warnings": list(self.warnings),
        }


def _term_arrays(f: CoefficientSeries) -> tuple[np.ndarray, np.ndarray]:
    exps = [f.p] + sorted(f.coeffs)
    coefs = [1.0] + [-f.coeffs[k] for k in sorted(f.coeffs)]
    return np.asarray(exps, dtype=float), np.asarray(coefs, dtype=float)


def _circle(r: float, n: int) -> np.ndarray:
    return r * np.exp(2j * np.pi * np.arange(n) / n)


def _power_sum(z: np.ndarray, exps: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    return (z[:, None] ** exps[None, :]) @ coefs.astype(complex)


def _smoothed(f: CoefficientSeries, cp: ClassParams) -> CoefficientSeries:
    """The smoothed image g of f; a coefficient of g beyond double range is refused."""
    g = apply_rafid(f, cp.rafid)
    for k, a in g.coeffs.items():
        if not math.isfinite(a):
            raise DivergentInputError(
                f"smoothed coefficient at k = {k} (a_k = {f.coeffs[k]!r}) exceeds double range"
            )
    return g


def _sub_target(cp: ClassParams) -> float:
    return cp.B * cp.p + cp.scale


def subordination_certified(f: CoefficientSeries, cp: ClassParams) -> bool:
    """True when the coefficient criterion provably implies the disk-wide ratio bound.

    The sufficiency argument bounds the denominator by the triangle
    inequality, which needs (A-B)(p-alpha) - B(k-p) >= 0 for every index
    carrying a coefficient.  That holds for all k when B <= 0 and otherwise
    only out to k <= p + scale/B.  Outside this regime a member of the
    coefficient class can violate the ratio bound off the real axis: with
    p=1, alpha=0, A=1, B=1/2 the function z - (0.9/4320) z^6 has criterion
    sum 0.9 yet ratio ~3.3 near z = 0.99 exp(i pi/5).
    """
    if cp.B <= 0.0:
        return True
    span = max((k - cp.p for k in f.coeffs if f.coeffs[k] != 0.0), default=0)
    return cp.B * span <= cp.scale


def _subordination_ratio_at(
    z: complex, exps: np.ndarray, coefs: np.ndarray, cp: ClassParams
) -> float:
    zz = np.asarray([z], dtype=complex)
    g = _power_sum(zz, exps, coefs)[0]
    zgp = _power_sum(zz, exps, exps * coefs)[0]
    if g == 0 or not np.isfinite(g):
        raise PoleOnGridError(f"smoothed image vanishes at z = {z}")
    w = zgp / g
    den = cp.B * w - _sub_target(cp)
    if den == 0:
        return math.inf
    return abs((w - cp.p) / den)


def subordination_margin(
    f: CoefficientSeries,
    cp: ClassParams,
    grid: SampleGrid = SampleGrid(),
    tolerance: float = 1e-9,
) -> OracleReport:
    """Grid maximum of the subordination ratio; pass iff max < 1 - tolerance."""
    if f.p != cp.p:
        raise ParameterOutOfRangeError(
            f"series valence {f.p} != parameter valence {cp.p}"
        )
    exps, coefs = _term_arrays(_smoothed(f, cp))
    target = _sub_target(cp)
    best_val = -math.inf
    best_angle_idx = 0
    best_radius = grid.radii[0]
    best_z = complex(grid.radii[0])
    warnings_found: list[str] = []
    n = grid.angles_per_radius
    for r in grid.radii:
        z = _circle(r, n)
        gv = _power_sum(z, exps, coefs)
        zgp = _power_sum(z, exps, exps * coefs)
        bad = (gv == 0) | ~np.isfinite(gv)
        if np.any(bad):
            raise PoleOnGridError(
                f"smoothed image vanishes on |z| = {r} at z = {z[np.argmax(bad)]}"
            )
        w = zgp / gv
        den = cp.B * w - target
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.abs(w - cp.p) / np.abs(den)
        ratio = np.where(np.abs(den) == 0.0, np.inf, ratio)
        if np.any(np.isnan(ratio)):
            raise PoleOnGridError(f"indeterminate ratio on |z| = {r}")
        idx = int(np.argmax(ratio))  # first occurrence = smallest angle
        val = float(ratio[idx])
        if val > best_val or (val == best_val and idx < best_angle_idx):
            best_val, best_angle_idx, best_radius, best_z = val, idx, r, complex(z[idx])
        if val > float(ratio[0]) + 1e-12 * max(1.0, val) and idx != 0:
            warnings_found.append(
                f"circle maximum off the positive real axis at r = {r} (angle index {idx})"
            )
    # angle bisection around the running maximum, monotone by construction
    step = 2.0 * math.pi / n
    theta = 2.0 * math.pi * best_angle_idx / n
    for _ in range(grid.refinement):
        step *= 0.5
        for cand in (theta - step, theta + step):
            z = best_radius * complex(math.cos(cand), math.sin(cand))
            val = _subordination_ratio_at(z, exps, coefs, cp)
            if val > best_val:
                best_val, best_z, theta = val, z, cand
    return OracleReport(
        check="subordination",
        extremum=best_val,
        threshold=1.0,
        arg_z=best_z,
        passed=best_val < 1.0 - tolerance,
        tolerance=tolerance,
        warnings=tuple(warnings_found),
    )


def subordination_ratio_real(f: CoefficientSeries, cp: ClassParams, r: float) -> float:
    """Subordination ratio at the single real point z = r."""
    if not (0.0 < r < 1.0):
        raise RadiusOutOfRangeError(f"need 0 < r < 1, got {r}")
    exps, coefs = _term_arrays(_smoothed(f, cp))
    return _subordination_ratio_at(complex(r), exps, coefs, cp)


def locate_real_axis_violation(
    f: CoefficientSeries,
    cp: ClassParams,
    threshold: float = 1.0 - 1e-3,
    start: float = 0.9,
    steps: int = 40,
) -> tuple[bool, float, float]:
    """Walk z = r -> 1^- along the real axis until the ratio reaches threshold.

    Returns (found, r, ratio at r); for criterion sums above one the ratio
    approaches a limit above one, so the walk finds the violation without
    ever sampling outside the disk.
    """
    best_r, best_ratio = start, -math.inf
    gap = 1.0 - start
    for j in range(steps):
        r = 1.0 - gap * 0.5**j
        ratio = subordination_ratio_real(f, cp, r)
        if ratio > best_ratio:
            best_r, best_ratio = r, ratio
        if ratio >= threshold:
            return True, r, ratio
    return False, best_r, best_ratio


def _extremum_report(
    check: str,
    values: np.ndarray,
    z: np.ndarray,
    threshold: float,
    tolerance: float,
    minimize: bool,
) -> OracleReport:
    idx = int(np.argmin(values) if minimize else np.argmax(values))
    ext = float(values[idx])
    passed = ext >= threshold - tolerance if minimize else ext <= threshold + tolerance
    return OracleReport(
        check=check,
        extremum=ext,
        threshold=threshold,
        arg_z=complex(z[idx]),
        passed=passed,
        tolerance=tolerance,
    )


def _require_circle(r: float) -> None:
    if not (0.0 < r < 1.0):
        raise RadiusOutOfRangeError(f"circle radius must lie in (0, 1), got {r}")


def starlike_min_re(
    f: CoefficientSeries,
    zeta: float,
    r: float,
    n_angles: int = 256,
    tolerance: float = 1e-9,
) -> OracleReport:
    """Minimum of Re(z f'/f) on |z| = r versus the order zeta."""
    _require_circle(r)
    exps, coefs = _term_arrays(f)
    z = _circle(r, n_angles)
    fv = _power_sum(z, exps, coefs)
    if np.any(fv == 0):
        raise PoleOnGridError(f"f vanishes on |z| = {r}")
    w = _power_sum(z, exps, exps * coefs) / fv
    return _extremum_report("starlike", w.real, z, float(zeta), tolerance, minimize=True)


def convex_min_re(
    f: CoefficientSeries,
    zeta: float,
    r: float,
    n_angles: int = 256,
    tolerance: float = 1e-9,
) -> OracleReport:
    """Minimum of Re(1 + z f''/f') on |z| = r versus the order zeta."""
    _require_circle(r)
    exps, coefs = _term_arrays(f)
    z = _circle(r, n_angles)
    fp = _power_sum(z, exps - 1.0, exps * coefs)
    if np.any(fp == 0):
        raise PoleOnGridError(f"f' vanishes on |z| = {r}")
    # z f'' = sum e (e-1) c z^(e-1)
    zfpp = _power_sum(z, exps - 1.0, exps * (exps - 1.0) * coefs)
    vals = 1.0 + (zfpp / fp).real
    return _extremum_report("convex", vals, z, float(zeta), tolerance, minimize=True)


def ctc_max_dev(
    f: CoefficientSeries,
    zeta: float,
    r: float,
    n_angles: int = 256,
    tolerance: float = 1e-9,
) -> OracleReport:
    """Maximum of |f'(z)/z^(p-1) - p| on |z| = r versus p - zeta.

    f'/z^(p-1) - p is the polynomial -sum k a_k z^(k-p), so no poles exist.
    """
    _require_circle(r)
    p = f.p
    z = _circle(r, n_angles)
    ks = sorted(f.coeffs)
    if ks:
        exps = np.asarray([k - p for k in ks], dtype=float)
        coefs = np.asarray([-k * f.coeffs[k] for k in ks], dtype=float)
        dev = np.abs(_power_sum(z, exps, coefs))
    else:
        dev = np.zeros(n_angles)
    return _extremum_report(
        "close-to-convex", dev, z, p - float(zeta), tolerance, minimize=False
    )

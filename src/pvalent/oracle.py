"""Brute-force disk sampling for the defining geometric inequalities.

Everything here works from the raw coefficients, deliberately avoiding the Horner
evaluation path and the closed-form criteria it is meant to check.  Every sample is
of h/z^p, a power series in e = k - p >= 0 with a constant lead, so none carries
r^p and each check answers at any p and any r in (0, 1).  One pass over the sorted
coefficients in plain floats smooths them and sums the bounds below; numpy serves
only r^e, read by the pass too (Python's r**e can differ in the last bit), and the
circle: n equally spaced angles are one real-input DFT of the coefficients times
r^e folded by e mod n, in _half_circle alone.  With g the smoothed image of f (the
multipliers of apply_rafid), the subordination test for the R family bounds

    | (z g'/g - p) / (B z g'/g - [Bp + (A-B)(p-alpha)]) |  <  1

on one circle |z| = r.  The ratio is |zH'|/|D| with H = g/z^p and D = B zH' -
(A-B)(p-alpha) H.  Neither vanishes in |z| <= r when its constant term outweighs
the sum of its other |coefficient| r^e (Rouche's theorem, easy case); else the
argument principle, counted on the same samples, decides.  Once both zero counts
are proved 0 the ratio is analytic in the disk and its circle maximum is its disk
maximum.  Each angle is within pi/n of a sample, |d(zH')/dtheta| <= sum e^2 |c_e|
r^e and |dD/dtheta| <= sum e |Be - scale| |c_e| r^e; times pi/n, plus DFT rounding,
these give a and b, and U = (max |zH'_j| + a)/(min |D_j| - b) bounds the ratio on
the circle.  While the samples pass and U does not, the angles double, at most
grid.refinement times, so a pass is never more lenient than angle bisection, whose
probes lie on those finer circles.  Every report names in n_angles the angle count
of its last circle, and passes within 1e-9 of its threshold, its ``tolerance``.
For negative-coefficient members the maximum sits on the positive real axis (a
warning when not), where H = 1 - th and zH' = -lh are real, th and lh the circle's
tail sums at r: a single point and the real-axis walk are lh/|D| under the
circle's refusal.  Real coefficients give conjugate values at conjugate points, so
only the closed upper half circle is sampled; ties resolve to the smallest angle.
Starlike and convex read Re(z h'/h) as p + Re(z K'/K), K = h/z^p for h = f and
z f', and prove K zero-free the same way, so their circle minimum is the disk's;
close-to-convex reads |K| for convex's K without its lead p, folded once, row 0 alone.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .classes import ClassParams, _require_order
from .errors import (
    DivergentInputError, ParameterOutOfRangeError, PoleOnGridError, ValenceMismatchError, _require_int, _require_radius,
)
from .operators import rafid_multipliers
from .series import CoefficientSeries

_DEFAULT_RADII = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99)
_TOLERANCE = 1e-9  # every check's pass margin, reported as OracleReport.tolerance
_WALK_THRESHOLD, _WALK_RADII = 1.0 - 1e-3, tuple(1.0 - (1.0 - 0.9) * 0.5**j for j in range(40))


@dataclass(frozen=True)
class SampleGrid:
    """Only radii[-1] is sampled; refinement caps the angle doublings made while samples pass and U does not."""

    radii: tuple[float, ...] = _DEFAULT_RADII
    angles_per_radius: int = 256
    refinement: int = 2

    def __post_init__(self) -> None:
        if not self.radii:
            raise ParameterOutOfRangeError("grid needs at least one radius")
        for r in self.radii:
            _require_radius(r)
        if list(self.radii) != sorted(set(self.radii)):
            raise ParameterOutOfRangeError("grid radii must be strictly increasing")
        _require_int("angles per circle", self.angles_per_radius, 8)
        _require_int("refinement", self.refinement, 0)


@dataclass(frozen=True)
class OracleReport:
    check: str
    extremum: float
    threshold: float
    arg_z: complex
    passed: bool
    tolerance: float
    n_angles: int
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "extremum": self.extremum,
            "threshold": self.threshold,
            "arg_z": {"re": self.arg_z.real, "im": self.arg_z.imag},
            "pass": self.passed,
            "tolerance": self.tolerance,
            "n_angles": self.n_angles,
            "warnings": list(self.warnings),
        }


def _half_circle(e: np.ndarray, c: np.ndarray, power: np.ndarray, n: int, rows: int) -> np.ndarray:
    """h = sum c z^e (e >= 0) and, for rows = 2, z h' at z = r exp(2 pi i j/n), j = 0..n//2; shape (rows, n//2 + 1).

    On n equally spaced angles a power series is the n-point DFT of its coefficients times power = r^e,
    folded by e mod n, exact at any degree; the coefficients are real, so the other half holds the conjugates.
    z h' folds (c e) r^e; c and power passed swapped fold c (e r^e), finite where c e overflows.
    """
    slot = e % n
    folded = np.empty((rows, n))
    folded[0] = np.bincount(slot, c * power, n)
    if rows == 2:
        folded[1] = np.bincount(slot, c * e * power, n)
    return np.fft.rfft(folded).conj()


def _zero_count(h: np.ndarray, slack: float) -> int | None:
    """Zeros in |z| < r of an analytic real-coefficient h from h_j = h(r e^(i theta_j)), j <= n//2.

    theta_j = 2 pi j/n; slack bounds L pi/n plus the rounding of each h_j, with
    L >= |dh/dtheta|.  Each point of the arc from theta_j to theta_(j+1) lies
    within slack of h_j or h_(j+1); once min |h_j| > slack neither disk holds
    0, each half arc turns by less than pi/2 about 0, and the principal angle
    of h_(j+1)/h_j is the true turn.  Conjugate symmetry doubles the upper
    half; for odd n the step across theta = pi is conj(h_m)/h_m (1 for even
    n).  The total turn over 2 pi is the count (argument principle); None
    when min |h_j| is nan or below slack or 2^-1021, where rounding stops being relative.
    """
    if not np.abs(h).min() > max(slack, 2.0**-1021):
        return None
    q, mid = h[1:] / h[:-1], complex(h[-1])
    turn = 2.0 * np.arctan2(q.imag, q.real).sum() + cmath.phase(mid.conjugate() / mid)
    return round(turn / (2.0 * math.pi))


def _slack(l: float, size: float, m: int, n: int) -> float:
    """Move l pi/n of an m-term series with |dh/dtheta| <= l from its nearest of n samples, plus
    8 ulp of 1 per term and angle of l and size (sum |c| r^e of what the samples came from)."""
    return l * math.pi / n + (m + n) * 2.0**-49 * (l + size)


def _dominates(lead: float, tail: float, m: int, err: float) -> bool:
    """Rouche, easy case: an m-term sum has no zero in |z| <= r but its lowest term's when that term's |b| r^e, lead,
    outweighs tail, the sum of the other |b_e| r^e, by more than its rounding and err."""
    return tail * (1.0 + (m + 8) * 2.0**-52) + err < lead


def _point(r: float, j: int, n: int) -> complex:
    """The grid point at angle index j on the circle |z| = r of n angles."""
    return cmath.rect(r, 2.0 * math.pi * j / n)


def _smoothed_sums(f: CoefficientSeries, cp: ClassParams, ks: list[int], xs: list[float]) -> tuple:
    """One pass over f's sorted indices ks: H = g/z^p's coefficients c_e, 1 first (apply_rafid's multipliers and
    pow2_product's rounding; refuses a valence other than cp.p or a coefficient past double range), and with xs the
    r^e of e = k - p: H's and D's tails sum |c_e| r^e and sum |B e - scale| |c_e| r^e, lh = sum e |c_e| r^e,
    l2 = sum e^2 |c_e| r^e, ld = sum e |B e - scale| |c_e| r^e, and whether some |c_e| e overflows."""
    if f.p != cp.p:
        raise ValenceMismatchError(f"series valence {f.p} != parameter valence {cp.p}")
    p, a, B, scale, less_p, ldexp = f.p, f.coeffs, cp.B, cp.scale, -float(f.p), math.ldexp
    lim = 2.0**1023 / max(ks[-1] - p, 1) if ks else 0.0
    coefs, th, lh, l2, td, ld, wide = [1.0], 0.0, 0.0, 0.0, 0.0, 0.0, False
    try:
        for k, x, (mk, sk) in zip(ks, xs, rafid_multipliers(p, cp.rafid, ks)):
            # pow2_product(mk, sk, a_k) inline: 1/2 <= mk < 1, so a normal mk a_k is its mk ma times 2^ea exactly
            t = mk * a[k]
            if t < 2.0**-1022:  # zero or subnormal: pow2_product's own order
                ma, ea = math.frexp(a[k])
                t, sk = mk * ma, sk + ea
            coefs.append(-(b := ldexp(t, sk)))
            ek, mh = less_p + k, b * x  # e = k - p as a float
            md = abs(scale - B * ek) * mh
            th, lh, l2 = th + mh, lh + ek * mh, l2 + ek * ek * mh
            td, ld = td + md, ld + ek * md
            if b > lim:  # only here can b e overflow
                wide = wide or b * ek == math.inf
    except OverflowError:
        raise DivergentInputError(f"smoothed coefficient at k = {k} (a_k = {a[k]!r}) exceeds double range") from None
    return coefs, th, lh, l2, td, ld, wide


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


def _sizes(cp: ClassParams, r: float, th: float, lh: float) -> tuple[float, float]:
    """1 + th and |B| lh + scale (1 + th), which with lh bound |H|, |zH'| and |D| on |z| = r; refused at 2^1023."""
    sh = 1.0 + th
    size_d = abs(cp.B) * lh + cp.scale * sh
    if not sh + lh + size_d < 2.0**1023:
        raise DivergentInputError(f"smoothed image on |z| = {r} reaches double range")
    return sh, size_d


def _axis(f: CoefficientSeries, cp: ClassParams, radii: tuple[float, ...]):
    """The ratio at z = r for each r of radii in turn, f smoothed once.  H(r) = 1 - th and zH'(r) = -lh are real,
    with th and lh the circle's tail sums at r (in its pass's order), so it is lh/|D| with D = -B lh - scale H,
    under the circle's refusal; H = 0 raises and D = 0 is an infinite ratio."""
    ks = sorted(f.coeffs)
    terms = list(zip([-c for c in _smoothed_sums(f, cp, ks, [0.0] * len(ks))[0][1:]], [k - f.p for k in ks]))
    for r in radii:
        th = lh = 0.0
        for b, ek in terms:
            th, lh = th + (mh := b * r**ek), lh + ek * mh
        _sizes(cp, r, th, lh)
        if th == 1.0:
            raise PoleOnGridError(f"smoothed image vanishes at z = {complex(r)}")
        den = cp.B * -lh - cp.scale * (1.0 - th)
        yield lh / abs(den) if den else math.inf


def subordination_margin(f: CoefficientSeries, cp: ClassParams, grid: SampleGrid = SampleGrid()) -> OracleReport:
    """Maximum of the ratio on |z| = grid.radii[-1], its angles doubled while the samples pass but
    the bound U between them does not; the disk maximum once H and D have no zeros.

    Passes iff it is below 1 - 1e-9 and both zero counts are proved 0.  A count is proved 0
    from the coefficients when the constant term dominates the rest on the circle (every certified
    member, any number of angles), else counted once from the samples of grid.angles_per_radius.  Samples that can reach
    2^1023 and a proved zero of H raise; a zero of D (a pole of the ratio) or an unproved count fails with a warning.
    """
    r, n, ks = grid.radii[-1], int(grid.angles_per_radius), sorted(f.coeffs)
    e = np.array([f.p, *ks]) - f.p
    xs = (pw := r**e).tolist()
    coefs, tail, lh, l2, tail_d, ld, wide = _smoothed_sums(f, cp, ks, xs[1:])
    # Rouche for H (constant 1) and D (constant -scale).  With every r^e normal (else no proof), 4 ulp for r^e and
    # 1 per product and addition keep each tail within (m + 8) 2^-52 relative of its exact value, in any order; B e -
    # scale adds (big + 1) 2^-52 of H's tail in all; an underflowed product is off by at most 2^-1074 (1 + big).
    m, big, c = len(coefs), abs(cp.B) * int(e[-1]) + cp.scale, np.array(coefs)
    tiny = m * (1.0 + big) * 2.0**-1074 if xs[-1] >= 2.0**-1022 else math.inf
    dom_h, dom_d = _dominates(1.0, tail, m, tiny), _dominates(cp.scale, tail_d, m, tail * (big + 1.0) * 2.0**-52 + tiny)
    fold, (sh, size_d) = ((e, pw, c) if wide else (e, c, pw)), _sizes(cp, r, tail, lh)  # c (e r^e) where c e overflows
    for doubling in range(grid.refinement + 1):
        hv, zhp = _half_circle(*fold, n, 2)
        ah = np.abs(hv)  # extrema below by arg index, which numpy finds with less overhead and the same nan rule
        if not 0.0 < ah[ah.argmin()] <= ah[ah.argmax()] < math.inf:
            z = _point(r, int(np.argmax((ah == 0) | ~np.isfinite(ah))), n)
            raise PoleOnGridError(f"smoothed image vanishes on |z| = {r} at z = {z}")
        den = cp.B * zhp - cp.scale * hv
        azhp, aden = np.abs(zhp), np.abs(den)
        # |zH'_j| < 2 lh, so when no |D_j| is 0 and lh / min |D_j| stays below 2^1023 the quotient
        # raises no flag and needs no errstate
        if (dmin := float(aden[aden.argmin()])) > 0.0 and lh < dmin * 2.0**1023:
            ratio = azhp / aden
        else:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                ratio = azhp / aden
        j = int(ratio.argmax())  # the first nan if any, so top is nan iff some sample is
        if math.isnan(top := float(ratio[j])):
            raise PoleOnGridError(f"indeterminate ratio on |z| = {r}")
        if not doubling:  # the zero counts, once, on the base grid
            zeros_h = 0 if dom_h else _zero_count(hv, _slack(lh, sh, m, n))
            if zeros_h:
                raise PoleOnGridError(f"smoothed image has {zeros_h} zero(s) inside |z| < {r}")
            zeros_d = 0 if dom_d else _zero_count(den, _slack(ld, size_d, m, n))
        # double the angles while the samples pass but the bound U between them does not
        if doubling == grid.refinement or not (zeros_h == zeros_d == 0 and top < 1.0 - _TOLERANCE):
            break
        lo = dmin - _slack(ld, size_d, m, n)
        if lo > 0.0 and (float(azhp[azhp.argmax()]) + _slack(l2, lh, m, n)) / lo < 1.0 - _TOLERANCE:
            break
        n *= 2
    # the maximum at its smallest angle; flagged when off the positive real axis
    notes = []
    if j and top > ratio[0] + 1e-12 * max(1.0, top):
        notes.append(f"circle maximum off the positive real axis at r = {r} (angle index {j})")
    if zeros_h is None or zeros_d is None:
        notes.append(f"zero counts inside |z| < {r} not proved; no disk bound")
    elif zeros_d:
        notes.append(f"ratio has {zeros_d} pole(s) inside |z| < {r}")
    passed = zeros_h == zeros_d == 0 and top < 1.0 - _TOLERANCE
    return OracleReport("subordination", top, 1.0, _point(r, j, n), passed, _TOLERANCE, n, tuple(notes))


def subordination_ratio_real(f: CoefficientSeries, cp: ClassParams, r: float) -> float:
    """Subordination ratio at the single real point z = r."""
    return next(_axis(f, cp, (_require_radius(r),)))


def locate_real_axis_violation(f: CoefficientSeries, cp: ClassParams) -> tuple[bool, float, float]:
    """Walk z = r -> 1^- on the real axis, r = 1 - 0.1 2^-j < 1 (j < 40), until the ratio reaches 1 - 1e-3.

    Returns (found, r, ratio at r); for criterion sums above one the ratio
    approaches a limit above one, so the walk finds the violation without
    ever sampling outside the disk.  f is smoothed once for the whole walk.
    """
    best_r, best_ratio = _WALK_RADII[0], -math.inf
    for r, ratio in zip(_WALK_RADII, _axis(f, cp, _WALK_RADII)):
        if ratio > best_ratio:
            best_r, best_ratio = r, ratio
        if ratio >= _WALK_THRESHOLD:
            return True, r, ratio
    return False, best_r, best_ratio


def _circle_check(check: str, f: CoefficientSeries, zeta: float, r: float, n: int) -> OracleReport:
    """One fold of K = lead - sum b_k z^(k-p) on |z| = r: b_k = a_k for starlike (K = f/z^p, lead 1), else k a_k
    (convex: K = f'/z^(p-1), lead p; close-to-convex: K = f'/z^(p-1) - p, lead 0).  Starlike and convex read the
    minimum of Re(z h'/h) = p + Re(z K'/K), h = z^p K, the disk minimum once K is proved zero-free in |z| <= r, else
    failed with a note; close-to-convex reads the maximum of |K|, row 0 alone.  Refused past lead + sum b_k r^e
    (+ sum e b_k r^e where z K' is read) >= 2^1023, which bounds the samples read; err: 2^-1074 per underflow."""
    zeta = _require_order("zeta", zeta, f.p)
    _require_radius(r)
    n = _require_int("angles per circle", n, 8)
    p, a, ks, ctc = f.p, f.coeffs, sorted(f.coeffs), check == "close-to-convex"
    e = np.array([p, *ks]) - p
    xs = (pw := r**e).tolist()
    name, lead = {"starlike": ("f", 1.0), "convex": ("f'", float(p)), "close-to-convex": ("f'/z^(p-1) - p", 0.0)}[check]
    bs = [a[k] for k in ks] if check == "starlike" else [k * a[k] for k in ks]  # z f' has k a_k at z^k
    coefs, tail, l, wide, lim = [lead], 0.0, 0.0, False, 2.0**1023 / max(ks[-1] - p, 1) if ks else 0.0
    for k, b, x in zip(ks, bs, xs[1:]):  # one pass as in _smoothed_sums
        coefs.append(-b)
        tail += (mag := b * x)
        l += mag * (k - p)
        wide = wide or b > lim and b * (k - p) == math.inf  # only past lim can b e overflow
    if not (size := lead + tail if ctc else lead + tail + l) < 2.0**1023:  # nan too, where inf k a_k meets r^e = 0
        detail = "" if ctc else f": sum (1 + e) |c_e| r^e = {size!r}"
        raise DivergentInputError(f"{name} on |z| = {r} reaches double range{detail}")
    m, c = len(coefs), np.array(coefs)
    rows = _half_circle(*((e, pw, c) if wide else (e, c, pw)), n, 1 if ctc else 2)  # c (e r^e) where c e overflows
    if ctc:
        values, threshold, notes = np.abs(rows[0]), p - zeta, ()
    else:
        hv, zhp = rows
        if np.any(hv == 0):
            raise PoleOnGridError(f"{name} vanishes on |z| = {r}")
        err = m * 2.0**-1074 if xs[-1] >= 2.0**-1022 else math.inf
        zeros = 0 if _dominates(lead, tail, m, err) else _zero_count(hv, _slack(l, lead + tail, m, n))
        where = f"in 0 < |z| < {r}; no disk bound"
        note = f"{name} has {zeros} zero(s) {where}" if zeros else f"{name}: zero count not proved {where}"
        values, threshold, notes = p + (zhp / hv).real, zeta, () if zeros == 0 else (note,)
    j = int(values.argmax() if ctc else values.argmin())  # the smallest angle of the extremum
    ext = float(values[j])
    passed = ext <= threshold + _TOLERANCE if ctc else ext >= threshold - _TOLERANCE
    return OracleReport(check, ext, threshold, _point(r, j, n), passed and not notes, _TOLERANCE, n, notes)


def starlike_min_re(f: CoefficientSeries, zeta: float, r: float, n_angles: int = 256) -> OracleReport:
    """Minimum of Re(z f'/f) on |z| = r versus the order zeta; fails unless f/z^p has no zero in |z| <= r."""
    return _circle_check("starlike", f, zeta, r, n_angles)


def convex_min_re(f: CoefficientSeries, zeta: float, r: float, n_angles: int = 256) -> OracleReport:
    """Minimum of Re(1 + z f''/f') on |z| = r versus zeta; fails unless f'/z^(p-1) has no zero in |z| <= r."""
    return _circle_check("convex", f, zeta, r, n_angles)


def ctc_max_dev(f: CoefficientSeries, zeta: float, r: float, n_angles: int = 256) -> OracleReport:
    """Maximum of |f'(z)/z^(p-1) - p| on |z| = r versus p - zeta: convex's K without its lead, folded once."""
    return _circle_check("close-to-convex", f, zeta, r, n_angles)

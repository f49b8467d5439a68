"""Acceptance checks runnable as a library and through the CLI.

Each numbered check below is one acceptance criterion; the pytest
acceptance module and the ``selftest`` subcommand call the same functions,
so the table a user sees and the suite CI runs cannot drift apart.
Each check declares its name and time budget once, in the harness
:func:`_check`; it gets one generator from the seed, so it is deterministic
for a fixed one, and a raise or an overrun fails its row under that name.
The whole battery stays under the two-minute budget by a wide margin.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable

import numpy as np

from .calculus_bounds import _COMPOSITIONS, THEOREMS, composed_extremal, composition_bound
from .classes import (
    ClassParams,
    check_p_membership,
    check_r_membership,
    coeff_bound_p,
    coeff_bound_r,
    extremal_r,
    r_criterion_term,
    random_member,
    random_params,
    zf_prime_over_p,
)
from .errors import DegenerateDenominatorError, _Frozen, _require_int, _setattr
from .geometry import distortion_bounds, radius_convex, radius_starlike
from .hadamard import mixed_order_xi, schild_silverman_lambda
from .operators import (
    apply_rafid,
    bernardi,
    fractional_derivative,
    fractional_integral,
    gamma_ratio,
    rafid_quadrature,
)
from .oracle import (
    locate_real_axis_violation,
    starlike_min_re,
    subordination_certified,
    subordination_margin,
)
from .series import FractionalSeries, derivative_m, evaluate, hadamard_product, make_series

CANONICAL = ClassParams()  # p=1, alpha=0, A=1, B=-1, mu=0, delta=1


class CheckResult(_Frozen):
    __slots__ = _fields = ("name", "passed", "detail", "elapsed")

    def __init__(self, name: str, passed: bool, detail: str, elapsed: float) -> None:
        _setattr(self, "name", name)
        _setattr(self, "passed", passed)
        _setattr(self, "detail", detail)
        _setattr(self, "elapsed", elapsed)


def _check(name: str, budget_s: float = math.inf) -> Callable[[Callable[..., str]], Callable]:
    """Turn a body ``fn(failures, rng) -> detail`` into ``check(seed=0)``.

    The body notes each broken criterion in ``failures`` and returns the detail
    of a pass.  A raise, or a run of ``budget_s`` seconds or more, fails the row too.
    A seed that is not an integer >= 0 is refused before the body runs.
    """

    def harness(body: Callable[..., str]) -> Callable[..., CheckResult]:
        def check(seed: int = 0) -> CheckResult:
            rng = np.random.default_rng(_require_int("seed", seed, 0))
            failures: list[str] = []
            t0 = time.perf_counter()
            try:
                detail = body(failures, rng)
            except Exception as exc:  # a crash is a failed check, not a crash of the table
                failures.append(f"raised {exc!r}")
            elapsed = time.perf_counter() - t0
            if elapsed >= budget_s:
                failures.append(f"took {elapsed:.1f} s (budget {budget_s:g} s)")
            detail = "; ".join(failures[:4]) if failures else detail
            return CheckResult(name, not failures, detail, elapsed)

        check.__name__ = check.__qualname__ = body.__name__
        check.__doc__ = body.__doc__
        return check

    return harness


def _circle_point(rng: np.random.Generator, r: float) -> complex:
    theta = 2.0 * math.pi * float(rng.random())
    return r * complex(math.cos(theta), math.sin(theta))


@_check("coefficient-bound")
def check_coefficient_bound(failures: list[str], rng: np.random.Generator) -> str:
    """Criterion 1: sharp canonical bound, saturation, flip, speed."""
    bound = coeff_bound_r(2, CANONICAL)
    if bound != 0.25:
        failures.append(f"coeff_bound_r(2) = {bound!r}, expected exactly 0.25")
    if r_criterion_term(2, CANONICAL) != 4.0 or r_criterion_term(3, CANONICAL) != 18.0:
        failures.append("canonical criterion terms differ from 4 and 18")
    rep = check_r_membership(extremal_r(2, CANONICAL), CANONICAL)
    if not rep.member or abs(rep.margin) > 1e-12:
        failures.append(f"extremal margin {rep.margin:.3e} exceeds 1e-12")
    bumped = make_series(1, [(2, bound * (1.0 + 1e-9))])
    if check_r_membership(bumped, CANONICAL).member:
        failures.append("1+1e-9 scaled extremal still reported as member")
    best = math.inf
    for _ in range(200):
        t1 = time.perf_counter()
        coeff_bound_r(2, CANONICAL)
        check_r_membership(extremal_r(2, CANONICAL), CANONICAL)
        best = min(best, time.perf_counter() - t1)
    if best >= 1e-3:
        failures.append(f"canonical check took {best * 1e3:.3f} ms (budget 1 ms)")
    return f"bound 0.25 exact, margin {rep.margin:.1e}, flip ok, {best * 1e6:.0f} us/check"


@_check("criterion-oracle-agreement", budget_s=30.0)
def check_criterion_oracle_agreement(failures: list[str], rng: np.random.Generator) -> str:
    """Criterion 2: members pass the sampling oracle, super-extremals fail."""
    off_axis = 0
    rejected = 0
    for i in range(200):
        # criterion -> ratio bound is a theorem only in the certified regime
        while True:
            cp = random_params(rng)
            f = random_member(cp, rng)
            if subordination_certified(f, cp):
                break
            rejected += 1
        rep = subordination_margin(f, cp)
        off_axis += bool(rep.warnings)
        if not rep.passed:
            failures.append(
                f"member draw {i} failed: max ratio {rep.extremum:.12f} at {rep.arg_z}"
            )
            break
    for i in range(200):
        cp = random_params(rng)
        k = cp.p + 1
        bracket = (1.0 - cp.B) * (k - cp.p) + cp.scale
        # cap keeps the smoothed tail below one, so the real segment is pole-free
        s_cap = min(1.9, 0.5 * (1.0 + bracket / cp.scale))
        s = float(rng.uniform(1.05, s_cap))
        f = make_series(cp.p, [(k, s * coeff_bound_r(k, cp))])
        found, r_at, ratio = locate_real_axis_violation(f, cp)
        if not found:
            failures.append(
                f"super-extremal draw {i} (sum {s:.3f}) not caught; "
                f"best ratio {ratio:.6f} at r = {r_at:.6f}"
            )
            break
    return (
        f"200 certified members pass ({rejected} uncertified draws skipped), 200 super-extremals "
        f"caught on the real axis ({off_axis} off-axis-max warnings)"
    )


@_check("quadrature-closed-form", budget_s=5.0)
def check_quadrature_closed_form(failures: list[str], rng: np.random.Generator) -> str:
    """Criterion 3: Gauss-Laguerre transform vs diagonal multipliers."""
    worst = 0.0
    for i in range(100):
        cp = random_params(rng, delta_range=(0.0, 0.0 if i % 10 == 0 else 1.0))  # delta = 0 on every tenth draw
        f = random_member(cp, rng)
        z = _circle_point(rng, float(rng.uniform(0.1, 0.9)))
        exact = evaluate(apply_rafid(f, cp.rafid), z)
        quad = rafid_quadrature(f, cp.rafid, z)
        rel = abs(quad - exact) / abs(exact)
        worst = max(worst, rel)
        if rel > 1e-8:
            failures.append(f"draw {i}: relative error {rel:.3e} at z = {z}")
            break
    return f"100 draws (10 at delta = 0), worst relative error {worst:.2e} at most 64 nodes"


@_check("p-r-correspondence")
def check_family_correspondence(failures: list[str], rng: np.random.Generator) -> str:
    """Criterion 4: P criterion == R criterion of z f'/p, per term."""
    for i in range(200):
        cp = random_params(rng)
        f = random_member(cp, rng)  # any series works; membership not needed
        rep_p = check_p_membership(f, cp)
        rep_r = check_r_membership(zf_prime_over_p(f), cp)
        if rep_p.per_term != rep_r.per_term or rep_p.sum != rep_r.sum:
            failures.append(f"draw {i}: per-term values differ")
            break
        # both reports go through zf_prime_over_p: each P term against (k/p) t_k a_k, formed without it
        off = [k for k, t in rep_p.per_term
               if not math.isclose(t, k / cp.p * r_criterion_term(k, cp) * f.coeffs[k], rel_tol=1e-14)]
        if off:
            failures.append(f"draw {i}: P terms differ from (k/p) t_k a_k at indices {off}")
            break
    if coeff_bound_p(2, CANONICAL) != 0.125:
        failures.append(
            f"canonical P bound {coeff_bound_p(2, CANONICAL)!r}, expected 0.125"
        )
    return (
        "200 draws bit-identical per term (criterion tolerance 1e-14), "
        "canonical P bound 0.125 exact"
    )


def _contained(
    failures: list[str], rng: np.random.Generator, i: int, r: float, bounds: tuple[float, float],
    name: str, g: FractionalSeries, extremal: Callable[[], FractionalSeries],
) -> float | None:
    """Draw i of criteria 5 and 8: |g| at a random point of |z| = r lies in [lower, upper] up to 1e-12 of
    the upper bound, and on every tenth draw the k = p+1 extremal is real at z = r and meets the lower
    bound to 1e-10.  The extremal's gap to the lower bound (0.0 when not checked), or None after a miss
    noted in failures."""
    lower, upper = bounds
    val = abs(g.evaluate(_circle_point(rng, r)))
    slack = 1e-12 * max(1.0, upper)
    if not (lower - slack <= val <= upper + slack):
        failures.append(f"draw {i}: {name} = {val!r} outside [{lower!r}, {upper!r}]")
        return None
    if i % 10:
        return 0.0
    ext = extremal().evaluate(complex(r))
    gap = abs(ext.real - lower)
    if ext.imag != 0.0 or not gap <= 1e-10 * max(1.0, abs(lower)):
        failures.append(f"draw {i}: extremal value {ext!r} vs lower bound {lower!r}")
        return None
    return gap


@_check("distortion-bounds")
def check_distortion(failures: list[str], rng: np.random.Generator) -> str:
    """Criterion 5: derivative bounds hold on circles; extremal attains lower."""
    for i in range(1000):
        cp = random_params(rng, require_budget_orders=(0, 1))
        m = int(rng.integers(0, 2))
        f = random_member(cp, rng)
        r = float(rng.uniform(0.05, 0.95))
        bounds = distortion_bounds(cp, m, r)
        if _contained(failures, rng, i, r, bounds, f"|f^({m})|", derivative_m(f, m),
                      lambda: derivative_m(extremal_r(cp.p + 1, cp), m)) is None:
            break
    return (
        "1000 certified draws inside bounds, extremal attains the lower bound "
        "at real z to 1e-10"
    )


@_check("radii")
def check_radii(failures: list[str], rng: np.random.Generator) -> str:
    """Criterion 6: canonical candidates, oracle sign change, convex <= starlike."""
    rep = radius_starlike(CANONICAL, 0.0, k_max=60)
    if abs(rep.candidates[0][1] - 2.0) > 1e-12 or abs(
        rep.candidates[1][1] - math.sqrt(6.0)
    ) > 1e-12:
        failures.append(
            f"canonical candidates {rep.candidates[:2]} differ from (2, sqrt 6)"
        )
    if rep.argmin_k != 2 or not rep.whole_disk or not rep.certified:
        failures.append("canonical starlike report lost argmin 2 / whole-disk flags")
    firsts = [r for _, r in rep.candidates[:10]]
    if firsts != sorted(firsts):
        failures.append("canonical candidate sequence not increasing")
    confirmed = 0
    attempts = 0
    while confirmed < 50 and attempts < 4000 and not failures:
        attempts += 1
        cp = random_params(rng, mu_range=(0.55, 0.9))
        zeta = float(rng.uniform(0.0, 0.6 * cp.p))
        rs = radius_starlike(cp, zeta)
        if rs.radius >= 0.999 or not rs.certified:
            continue
        rc = radius_convex(cp, zeta)
        if rc.radius > rs.radius * (1.0 + 1e-12):
            failures.append(
                f"convex radius {rc.radius} exceeds starlike radius {rs.radius}"
            )
            break
        witness = extremal_r(rs.argmin_k, cp)
        inside = starlike_min_re(witness, zeta, rs.radius * (1.0 - 1e-5))
        outside = starlike_min_re(witness, zeta, rs.radius * (1.0 + 1e-5))
        if not (inside.extremum > zeta and outside.extremum < zeta):
            failures.append(
                f"no sign change at radius {rs.radius:.6f} "
                f"(in {inside.extremum - zeta:.2e}, out {outside.extremum - zeta:.2e})"
            )
            break
        confirmed += 1
    if confirmed < 50 and not failures:
        failures.append(f"only {confirmed} radius<1 draws in {attempts} attempts")
    return (
        f"canonical candidates (2, sqrt 6) argmin 2; {confirmed} random radii "
        f"confirmed by sign change ({attempts} draws)"
    )


def _squared_extremal_margin(cp: ClassParams, order: float) -> float:
    """Membership margin at the order of the Hadamard square of the k = p+1 extremal, through the criterion."""
    f = extremal_r(cp.p + 1, cp)
    return check_r_membership(hadamard_product(f, f), cp.replace(alpha=order)).margin


@_check("hadamard-orders")
def check_hadamard_orders(failures: list[str], rng: np.random.Generator) -> str:
    """Criterion 7: canonical lambda and xi, saturation, beta = alpha collapse; each saturation margin of the
    canonical class and the draws with an order in [0, p) must be the squared extremal's membership margin."""
    rep = schild_silverman_lambda(CANONICAL)
    if abs(rep.order - 6.0 / 7.0) > 1e-12:
        failures.append(f"canonical lambda {rep.order!r} differs from 6/7")
    if not rep.verified_best or abs(rep.saturation_margin) > 1e-10:
        failures.append(
            f"canonical saturation not verified (margin {rep.saturation_margin:.2e})"
        )
    elif (margin := _squared_extremal_margin(CANONICAL, rep.order)) != rep.saturation_margin:
        failures.append(f"canonical saturation margin {rep.saturation_margin!r} differs from the product's {margin!r}")
    xi = mixed_order_xi(CANONICAL, 0.5)
    if abs(xi.order - 10.0 / 11.0) > 1e-12:
        failures.append(f"canonical xi {xi.order!r} differs from 10/11")
    matched = 0
    degenerate = 0
    while matched < 50 and degenerate < 400 and not failures:
        cp = random_params(rng)
        try:
            lam_rep = schild_silverman_lambda(cp)
        except DegenerateDenominatorError:
            degenerate += 1
            continue
        lam = lam_rep.order
        if 0.0 <= lam < cp.p and (margin := _squared_extremal_margin(cp, lam)) != lam_rep.saturation_margin:
            failures.append(f"saturation margin {lam_rep.saturation_margin!r} differs from the product's {margin!r}")
            break
        xi_same = mixed_order_xi(cp, cp.alpha).order
        if abs(xi_same - lam) > 1e-12:
            failures.append(f"xi(beta=alpha) = {xi_same!r} differs from lambda {lam!r}")
            break
        matched += 1
    return (
        f"lambda 6/7 and xi 10/11 to 1e-12, saturation margin "
        f"{rep.saturation_margin:.1e}, {matched} beta=alpha collapses "
        f"({degenerate} degenerate draws skipped)"
    )


@_check("fractional-compositions")
def check_fractional_compositions(failures: list[str], rng: np.random.Generator) -> str:
    """Criterion 8: inverse pair, classical eta = 1, containment, sharpness."""
    for i in range(500):
        p = int(rng.integers(1, 5))
        count = int(rng.integers(1, 7))
        ks = rng.choice(np.arange(p + 1, p + 13), size=count, replace=False)
        f = make_series(p, [(int(k), float(rng.uniform(0.0, 5.0))) for k in ks])
        eta = float(rng.uniform(0.05, 0.95))
        g = fractional_derivative(fractional_integral(f, eta), eta)
        if g.shift != 0.0 or abs(g.leading - 1.0) > 1e-10:
            failures.append(f"draw {i}: roundtrip leading {g.leading!r}")
            break
        bad = [
            k
            for k in f.coeffs
            if abs(g.terms[k] + f.coeffs[k]) > 1e-10 * max(1.0, f.coeffs[k])
        ]
        if bad:
            failures.append(f"draw {i}: roundtrip off at indices {bad}")
            break
    if any(gamma_ratio(k + 1.0, k + 2.0) != 1.0 / (k + 1.0) for k in range(1, 41)):
        failures.append("eta = 1 multiplier differs from classical 1/(k+1)")
    fi = fractional_integral(make_series(1, [(2, 0.25)]), 1.0)
    if fi.leading != 0.5 or fi.terms[2] != -(0.25 / 3.0):
        failures.append("eta = 1 antiderivative of the canonical extremal not exact")
    worst_gap = 0.0
    for i in range(500):
        cp = random_params(rng, require_budget_orders=(0,))
        f = random_member(cp, rng)
        c = float(rng.uniform(-cp.p + 0.5, 3.0))
        eta = float(rng.uniform(0.1, 1.5))
        r = float(rng.uniform(0.05, 0.95))
        b = composition_bound(7, cp, c, eta, r, include_printed=False)
        g = fractional_integral(bernardi(f, c), eta)
        gap = _contained(failures, rng, i, r, (b.lower, b.upper), "|D^-eta J_c f|", g,
                         lambda: composed_extremal(7, cp, c, eta))
        if gap is None:
            break
        worst_gap = max(worst_gap, gap)
    return (
        f"500 roundtrips to 1e-10, eta=1 exact, 500 containments, sharpness gap "
        f"<= {worst_gap:.1e}"
    )


@_check("printed-form-audit")
def check_printed_audit(failures: list[str], rng: np.random.Generator) -> str:
    """Criterion 9: printed and derived forms diverge exactly where documented, read off :func:`audit_rows`."""
    rows = {(row["theorem"], row["p"]): row for row in audit_rows()}
    t7, t8, t9 = rows[7, 1], rows[8, 1], rows[9, 1]
    if not math.isclose(t7["printed_lower"], t7["upper"], rel_tol=1e-15):
        failures.append(
            f"T7 sign slip not reproduced: printed lower {t7['printed_lower']!r} vs derived upper {t7['upper']!r}"
        )
    if math.isclose(t7["printed_upper"], t7["upper"], rel_tol=1e-9):
        failures.append("T7 printed upper unexpectedly matches the derived value")
    if math.isclose(t8["printed_lower"], t8["lower"], rel_tol=1e-9):
        failures.append("T8 printed leading factor unexpectedly matches")
    if t9["printed_upper"] != t9["printed_lower"]:
        failures.append("T9 printed upper should repeat the printed lower (sign slip)")
    if math.isclose(t9["printed_upper"], t9["upper"], rel_tol=1e-9):
        failures.append("T9 printed upper unexpectedly matches the derived value")
    # the shared printed tail is off by (c+p+1+eta)/(c+p+1) and a stray
    # 1/Gamma(p+1): ratio 4/3 at p=1 (Gamma(2)=1 hides the stray), 5/8 at p=2
    for p, expected, text in ((1, 4.0 / 3.0, "4/3"), (2, 5.0 / 8.0, "5/8")):
        t10 = rows[10, p]
        ratio = (t10["printed_upper"] - t10["printed_lower"]) / (t10["upper"] - t10["lower"])
        if not math.isclose(ratio, expected, rel_tol=1e-12):
            failures.append(f"T10 p={p} tail ratio {ratio!r}, expected {text}")
    return (
        "T7 lower sign slip == derived upper; T8 lead and T7/T9 uppers diverge; "
        "T9 prints lower twice; T10 tail ratios 4/3 (p=1) and 5/8 (p=2) pin the "
        "stray 1/Gamma(p+1)"
    )


def audit_rows() -> list[dict]:
    """Derived vs printed bounds for every composition at p = 1 and p = 2, with c = 1 and r = 0.5: each row
    is the :class:`~pvalent.calculus_bounds.CompositionBound`'s fields plus p."""
    rows = []
    for p in (1, 2):
        for theorem in THEOREMS:
            eta = 1.0 if _COMPOSITIONS[theorem][0] > 0 else 0.5  # integral order 1, derivative 1/2
            rows.append({**composition_bound(theorem, ClassParams(p=p), 1.0, eta, 0.5).to_dict(), "p": p})
    return rows


ALL_CHECKS = (
    check_coefficient_bound,
    check_criterion_oracle_agreement,
    check_quadrature_closed_form,
    check_family_correspondence,
    check_distortion,
    check_radii,
    check_hadamard_orders,
    check_fractional_compositions,
    check_printed_audit,
)


def run_all(seed: int = 0) -> list[CheckResult]:
    return [fn(seed=seed) for fn in ALL_CHECKS]

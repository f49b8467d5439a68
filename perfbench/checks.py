"""Output checks: every operation's result against the mpmath reference or a method property.

``Checker.check(spec, data)`` returns None for a correct output and a short
reason otherwise.  ``data`` is the output in plain form (dicts, lists of
row tuples, floats), which in-process calls and CLI stdout both reduce to,
so one checker serves both.  References are computed once per spec;
oracle outputs are checked at the point the program reports, so that check
is memoized on the reported point.

Run ``python3 perfbench/checks.py`` to confirm that each checker rejects a
known-wrong output.
"""

from __future__ import annotations

import csv
import io
import json
import math

import reference as ref
from inputs import Params, Spec

REL = 1e-10  # closed forms: double rounding is ~1e-13 even at k = 2000
REL_POINT = 1e-9  # ratios and circle values at the reported point
REL_QUAD = 1e-8  # Gauss-Laguerre against the closed form (selftest criterion 3)
DEFAULT_RADII = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99)


def _close(x: float, want: float, rel: float, mag: float | None = None) -> bool:
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not math.isfinite(x):
        return False
    scale = abs(want) if mag is None else mag
    return abs(x - want) <= rel * scale + 1e-300


def _family(kind: str) -> str:
    return "p" if kind.endswith("_p") else "r"


class Checker:
    """References per spec, plus the checks that compare outputs with them."""

    def __init__(self) -> None:
        self._refs: dict[int, object] = {}
        self._memo: dict[tuple, str | None] = {}

    def reference(self, spec: Spec):
        key = id(spec)
        if key not in self._refs:
            self._refs[key] = self._compute(spec)
        return self._refs[key]

    def _compute(self, spec: Spec):
        a, kind = spec.args, spec.kind
        P = a.get("P")
        if kind in ("check_r", "check_p"):
            return ref.membership(P, a["f"], _family(kind))
        if kind == "cli_check":
            return ref.membership(P, a["f"], a["family"])
        if kind in ("bound_r", "bound_p", "extremal_r", "extremal_p"):
            return ref.bound(P, a["k"], _family(kind))
        if kind == "cli_extremal":
            return ref.bound(P, a["k"], a["family"])
        if kind == "radius":
            return ref.radius(P, a["kind"], a["zeta"], a["k_max"])
        if kind == "cli_radius":
            name = "close-to-convex" if a["kind"] == "ctc" else a["kind"]
            return ref.radius(P, name, a["zeta"], 200)
        if kind == "order":
            return ref.order(P, P.alpha if a["beta"] is None else a["beta"], a["k_max"])
        if kind == "cli_hadamard":
            return ref.order(P, P.alpha if a["beta"] is None else a["beta"], a["k_max"])
        if kind == "distortion":
            return ref.distortion(P, a["m"], a["radii"])
        if kind == "cli_distortion":
            return ref.distortion(P, a["m"], cli_radii(a))
        if kind == "composition":
            return ref.composition(P, a["theorem"], a["c"], a["eta"], a["radii"], a["printed"])
        if kind == "cli_fracbound":
            return ref.composition(P, a["theorem"], a["c"], a["eta"], cli_radii(a), a["printed"])
        if kind == "cli_selftest":
            return [
                ref.composition(Params(p=p), t, 1.0, 1.0 if t in (7, 10) else 0.5, (0.5,), True)[0]
                for p in (1, 2)
                for t in (7, 8, 9, 10)
            ]
        return None  # oracle kinds: checked at the reported point

    # -- dispatch ---------------------------------------------------------

    def check(self, spec: Spec, data) -> str | None:
        if isinstance(data, BaseException):
            return f"raised {type(data).__name__}: {data}"
        kind = spec.kind
        want = self.reference(spec)
        if kind in ("check_r", "check_p", "cli_check"):
            return check_membership(want, data)
        if kind in ("bound_r", "bound_p"):
            return None if _close(data, want, REL) else f"bound {data!r}, reference {want!r}"
        if kind in ("extremal_r", "extremal_p", "cli_extremal"):
            return check_extremal(spec.args["P"].p, spec.args["k"], want, data)
        if kind == "cli_check_extremal":
            return check_extremal_margin(data)
        if kind in ("radius", "cli_radius"):
            return check_radius(want, data)
        if kind in ("order", "cli_hadamard"):
            return check_order(want, data)
        if kind in ("distortion", "cli_distortion"):
            return check_rows(want, data, 3)
        if kind in ("composition", "cli_fracbound"):
            return check_rows(want, data, 5 if spec.args["printed"] else 3)
        if kind == "cli_selftest":
            return check_selftest(spec.args["seed"], want, data)
        return self._memoized(spec, data)

    def _memoized(self, spec: Spec, data) -> str | None:
        key = (id(spec), repr(data))
        if key not in self._memo:
            self._memo[key] = self._check_point(spec, data)
        return self._memo[key]

    def _check_point(self, spec: Spec, data) -> str | None:
        a, kind = spec.args, spec.kind
        if kind == "quadrature":
            want = ref.smoothed_value(a["P"], a["f"], a["z"])
            ok = abs(data - want) <= REL_QUAD * abs(want)
            return None if ok else f"quadrature {data!r}, closed form {want!r}"
        if kind == "locate":
            return check_locate(a["P"], a["f"], data)
        if kind == "subordination" or (kind == "cli_oracle" and a["check"] == "subordination"):
            grid = a.get("grid") or (DEFAULT_RADII, 256)
            return check_subordination(a["P"], a["f"], grid[0], a.get("expect_pass", True), data)
        return check_circle(a["check"], a["f"], a["zeta"], a["r"], data)


def cli_radii(a: dict) -> list[float]:
    """The radii the CLI derives from --rmin --rmax --steps."""
    h = (a["rmax"] - a["rmin"]) / (a["steps"] - 1)
    return [a["rmin"] + i * h for i in range(a["steps"])]


# -- closed forms -------------------------------------------------------------


def check_membership(want: dict, got: dict) -> str | None:
    if not _close(got["sum"], want["sum"], REL):
        return f"sum {got['sum']!r}, reference {want['sum']!r}"
    if got["member"] is not want["member"]:
        return f"member {got['member']}, reference sum {want['sum']!r}"
    if not _close(got["margin"], want["margin"], REL, max(1.0, want["sum"])):
        return f"margin {got['margin']!r}, reference {want['margin']!r}"
    if len(got["per_term"]) != len(want["per_term"]):
        return "per_term length differs"
    for (k, c), (k0, c0) in zip(got["per_term"], want["per_term"]):
        if k != k0 or not (c == c0 == 0.0 or _close(c, c0, REL)):
            return f"per_term at k = {k0}: {c!r}, reference {c0!r}"
    return None


def check_extremal(p: int, k: int, want: float, got: dict) -> str | None:
    if got["p"] != p or [kk for kk, _ in got["coeffs"]] != [k]:
        return f"extremal support {got}, expected z^{p} - a z^{k}"
    a = got["coeffs"][0][1]
    return None if _close(a, want, REL) else f"extremal coefficient {a!r}, reference {want!r}"


def check_extremal_margin(got: dict) -> str | None:
    # property: the extremal saturates the criterion
    if len(got["per_term"]) != 1 or abs(got["margin"]) > 1e-12:
        return f"extremal margin {got['margin']!r}, expected ~0"
    return None


def check_radius(want: dict, got: dict) -> str | None:
    if not _close(got["radius"], want["radius"], REL):
        return f"radius {got['radius']!r}, reference {want['radius']!r}"
    for key in ("argmin_k", "certified", "whole_disk"):
        if got[key] != want[key]:
            return f"{key} {got[key]!r}, reference {want[key]!r}"
    cands = got["candidates"]
    if len(cands) != len(want["candidates"]):
        return "candidate count differs"
    for (k, r), r0 in zip(cands, want["candidates"]):
        if not _close(r, r0, REL):
            return f"candidate k = {k}: {r!r}, reference {r0!r}"
    return None


def check_order(want: dict, got: dict) -> str | None:
    if not _close(got["order"], want["order"], REL, max(1.0, abs(want["order"]))):
        return f"order {got['order']!r}, reference Phi(p+1) = {want['order']!r}"
    if got["saturating_k"] != want["p"] + 1:
        return f"saturating_k {got['saturating_k']}"
    if got["phi_increasing"] is not want["increasing"]:
        return f"phi_increasing {got['phi_increasing']}, reference {want['increasing']}"
    inside = 0.0 <= want["order"] < want["p"]
    # property: the product of the two k = p+1 extremals saturates the order
    if inside and abs(got["saturation_margin"]) > 1e-10:
        return f"saturation margin {got['saturation_margin']!r}"
    if got["verified_best"] is not (inside and want["increasing"]):
        return f"verified_best {got['verified_best']}"
    if "product" in got:
        product = got["product"]
        if inside != (product is not None) or (inside and abs(product["margin"]) > 1e-10):
            return f"product report {product!r}"
    return None


def check_rows(want: list, got: list, width: int) -> str | None:
    if len(got) != len(want):
        return f"{len(got)} rows, expected {len(want)}"
    for row, w in zip(got, want):
        if len(row) != width or not _close(row[0], w[0], 1e-15):
            return f"row {row!r} does not match radius {w[0]!r}"
        r, lower, upper = row[:3]
        if not lower <= upper:
            return f"lower {lower!r} > upper {upper!r} at r = {r!r}"
        if not (_close(lower, w[1], REL, w[3]) and _close(upper, w[2], REL, w[3])):
            return f"bounds ({lower!r}, {upper!r}) at r = {r!r}, reference ({w[1]!r}, {w[2]!r})"
        if width == 5 and not (_close(row[3], w[4], REL, w[6]) and _close(row[4], w[5], REL, w[6])):
            return f"printed ({row[3]!r}, {row[4]!r}) at r = {r!r}, reference ({w[4]!r}, {w[5]!r})"
    return None


def check_selftest(seed: int, audit: list, text: str) -> str | None:
    lines = text.splitlines()
    if not lines or lines[-1] != f"9/9 checks passed (seed {seed})":
        return f"selftest summary {lines[-1] if lines else ''!r}"
    try:
        at = lines.index("theorem,p,eta,lower,upper,printed_lower,printed_upper")
    except ValueError:
        return "audit table missing"
    rows = [tuple(float(x) for x in ln.split(",")) for ln in lines[at + 1 : at + 9]]
    return check_audit(audit, rows)


def check_audit(audit: list, rows: list[tuple]) -> str | None:
    """Audit rows (theorem, p, eta, lower, upper, printed_lower, printed_upper) against the reference."""
    if len(rows) != len(audit):
        return f"audit table has {len(rows)} rows, expected {len(audit)}"
    for row, w in zip(rows, audit):
        msg = check_rows([w], [(0.5, row[3], row[4], row[5], row[6])], 5)
        if msg:
            return f"audit theorem {int(row[0])} p {int(row[1])}: {msg}"
    return None


def check_battery(audit: list, results: list, rows: list[dict]) -> str | None:
    """A warm selftest battery: every CheckResult passed, and the audit rows match the reference."""
    failed = [r.name for r in results if not r.passed]
    if len(results) != 9 or failed:
        return f"{len(results) - len(failed)}/{len(results)} checks passed; failed: {failed}"
    keys = ("theorem", "p", "eta", "lower", "upper", "printed_lower", "printed_upper")
    return check_audit(audit, [tuple(float(row[k]) for k in keys) for row in rows])


# -- sampling oracle ----------------------------------------------------------


def _point(report: dict) -> complex:
    return complex(report["arg_z"]["re"], report["arg_z"]["im"])


def check_subordination(P: Params, f, radii, expect_pass: bool, got: dict) -> str | None:
    ext, z = got["extremum"], _point(got)
    if got["pass"] is not expect_pass or (ext < 1.0) is not expect_pass:
        return f"verdict pass={got['pass']} extremum {ext!r}, expected pass={expect_pass}"
    if not any(abs(abs(z) - r) <= 1e-12 for r in radii):
        return f"reported point {z!r} is not on a grid circle"
    at_z = ref.subordination_ratio(P, f, z)
    if not _close(ext, at_z, REL_POINT, max(abs(at_z), 1e-12)):
        return f"extremum {ext!r}, reference ratio at {z!r} is {at_z!r}"
    # the grid contains the positive real point of the outer circle
    at_edge = ref.subordination_ratio(P, f, complex(radii[-1]))
    if ext < at_edge * (1.0 - REL_POINT) - 1e-15:
        return f"extremum {ext!r} below the ratio {at_edge!r} at z = {radii[-1]}"
    return None


def check_circle(check: str, f, zeta: float, r: float, got: dict) -> str | None:
    ext, z = got["extremum"], _point(got)
    if abs(abs(z) - r) > 1e-12:
        return f"reported point {z!r} not on |z| = {r}"
    at_z = ref.circle_value(check, f, z)
    if not _close(ext, at_z, REL_POINT, max(abs(at_z), 1e-12)):
        return f"{check} extremum {ext!r}, reference at {z!r} is {at_z!r}"
    at_real = ref.circle_value(check, f, complex(r))  # angle 0 is on the grid
    worse = ext > at_real + 1e-12 if check != "ctc" else ext < at_real - 1e-12
    if worse:
        return f"{check} extremum {ext!r} misses the value {at_real!r} at z = r"
    threshold = zeta if check != "ctc" else f[0] - zeta
    passed = ext >= threshold - 1e-9 if check != "ctc" else ext <= threshold + 1e-9
    if got["pass"] is not passed or got["threshold"] != threshold:
        return f"{check} verdict {got['pass']} inconsistent with extremum {ext!r} vs {threshold!r}"
    return None


def check_locate(P: Params, f, got: tuple) -> str | None:
    found, r, ratio = got
    # property: a super-extremal violates the ratio bound on the real axis
    if not found or ratio < 1.0 - 1e-3:
        return f"super-extremal not caught: found={found}, ratio {ratio!r} at r = {r!r}"
    at_r = ref.subordination_ratio(P, f, complex(r))
    return None if _close(ratio, at_r, REL_POINT) else f"ratio {ratio!r}, reference {at_r!r}"


# -- CLI output ---------------------------------------------------------------


def parse_cli(kind: str, stdout: str):
    """Plain form of a subcommand's stdout (JSON report, series or CSV rows)."""
    if kind in ("cli_distortion", "cli_fracbound"):
        rows = list(csv.reader(io.StringIO(stdout)))
        header = ",".join(rows[0])
        if header not in ("r,lower,upper", "r,lower,upper,printed_lower,printed_upper"):
            raise ValueError(f"CSV header {header!r}")
        return [tuple(float(x) for x in row) for row in rows[1:]]
    if kind == "cli_selftest":
        return stdout
    return json.loads(stdout)


# -- harness self-test --------------------------------------------------------


def harness_selftest() -> list[str]:
    """Feed each checker a known-wrong output; return the ones it wrongly accepts."""
    wrong: list[str] = []
    checker = Checker()
    P = Params(p=2, alpha=0.5, A=0.8, B=-0.5, mu=0.3, delta=0.6)
    spec = Spec("bound_r", {"P": P, "k": 7})
    good = checker.reference(spec)
    if checker.check(spec, good) is not None or checker.check(spec, good * (1 + 1e-6)) is None:
        wrong.append("bound checker: exact reference rejected or 1e-6-off bound accepted")
    cp = Params()
    s = 1.5
    f = (1, ((2, s * 0.25),))  # criterion sum 1.5
    z = 0.99
    ratio = ref.subordination_ratio(cp, f, z)
    fake = {"extremum": 0.5, "arg_z": {"re": z, "im": 0.0}, "pass": True, "threshold": 1.0}
    if check_subordination(cp, f, DEFAULT_RADII, False, fake) is None:
        wrong.append("oracle checker: passing report for a super-extremal accepted")
    honest = dict(fake, extremum=ratio, **{"pass": False})
    if check_subordination(cp, f, DEFAULT_RADII, False, honest) is not None:
        wrong.append("oracle checker: honest failing report for a super-extremal rejected")
    spec = Spec("distortion", {"P": cp, "m": 0, "radii": (0.25, 0.5)})
    rows = [(r, lo, up) for r, lo, up, _ in checker.reference(spec)]
    flipped = [rows[0], (rows[1][0], rows[1][2], rows[1][1])]
    if checker.check(spec, rows) is not None or checker.check(spec, flipped) is None:
        wrong.append("CSV checker: exact rows rejected or lower > upper accepted")
    text = "r,lower,upper\n" + "\n".join(f"{r!r},{lo!r},{up!r}" for r, lo, up in flipped) + "\n"
    if check_rows(checker.reference(spec), parse_cli("cli_distortion", text), 3) is None:
        wrong.append("CSV checker: CLI text with lower > upper accepted")
    return wrong


if __name__ == "__main__":
    failures = harness_selftest()
    for line in failures:
        print("FAIL", line)
    print("harness self-test:", "ok" if not failures else f"{len(failures)} checker(s) accept wrong output")
    raise SystemExit(1 if failures else 0)

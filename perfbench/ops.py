"""Turn a Spec into a call on pvalent, and the call's output into plain data.

``inprocess_call(spec, pv)`` returns a zero-argument callable for the timed
loop plus a function that turns its result into the plain form the checks
read.  ``cli_argv(spec)`` gives the argv and stdin of the matching cold
subcommand.  pvalent is passed in, not imported here, so the setup probes
and the traced run decide when the package is imported.
"""

from __future__ import annotations

import json
from typing import Any, Callable

from inputs import Params, Spec


def class_params(pv, P: Params):
    return pv.ClassParams(p=P.p, alpha=P.alpha, A=P.A, B=P.B, mu=P.mu, delta=P.delta)


def _series(pv, f):
    return pv.make_series(f[0], list(f[1]))


def _series_dict(s) -> dict:
    return {"p": s.p, "coeffs": [[k, s.coeffs[k]] for k in sorted(s.coeffs)]}


def _rows(bounds) -> list[tuple]:
    return [
        (b.r, b.lower, b.upper) if b.printed_lower is None
        else (b.r, b.lower, b.upper, b.printed_lower, b.printed_upper)
        for b in bounds
    ]


def _identity(x):
    return x


def _to_dict(x):
    return x.to_dict()


def inprocess_call(spec: Spec, pv) -> tuple[Callable[[], Any], Callable[[Any], Any]]:
    """(call, plain): ``call`` looks each function up on the package at call time,
    so the traced run's patched names are the ones called."""
    a, kind = spec.args, spec.kind
    cp = class_params(pv, a["P"])
    if kind in ("check_r", "check_p"):
        f = _series(pv, a["f"])
        name = "check_r_membership" if kind == "check_r" else "check_p_membership"
        return (lambda: getattr(pv, name)(f, cp)), _to_dict
    if kind in ("bound_r", "bound_p", "extremal_r", "extremal_p"):
        name = {"bound_r": "coeff_bound_r", "bound_p": "coeff_bound_p"}.get(kind, kind)
        k = a["k"]
        return (lambda: getattr(pv, name)(k, cp)), (_identity if kind.startswith("bound") else _series_dict)
    if kind == "radius":
        name = "radius_" + a["kind"].replace("-", "_")
        zeta, k_max = a["zeta"], a["k_max"]
        return (lambda: getattr(pv, name)(cp, zeta, k_max=k_max)), _to_dict
    if kind == "order":
        k_max, beta = a["k_max"], a["beta"]
        if beta is None:
            return (lambda: pv.schild_silverman_lambda(cp, k_max=k_max)), _to_dict
        return (lambda: pv.mixed_order_xi(cp, beta, k_max=k_max)), _to_dict
    if kind == "distortion":
        m, radii = a["m"], a["radii"]
        return (lambda: pv.distortion_curve(cp, m, radii)), (lambda c: list(c.samples))
    if kind == "composition":
        t, c, eta, radii, printed = a["theorem"], a["c"], a["eta"], a["radii"], a["printed"]
        return (
            lambda: [pv.composition_bound(t, cp, c, eta, r, include_printed=printed) for r in radii]
        ), _rows
    if kind == "subordination":
        f = _series(pv, a["f"])
        if a["grid"] is None:
            return (lambda: pv.subordination_margin(f, cp)), _to_dict
        grid = pv.SampleGrid(radii=a["grid"][0], angles_per_radius=a["grid"][1])
        return (lambda: pv.subordination_margin(f, cp, grid)), _to_dict
    if kind == "circle":
        f = _series(pv, a["f"])
        name = {"starlike": "starlike_min_re", "convex": "convex_min_re", "ctc": "ctc_max_dev"}[a["check"]]
        zeta, r = a["zeta"], a["r"]
        return (lambda: getattr(pv, name)(f, zeta, r)), _to_dict
    if kind == "quadrature":
        f = _series(pv, a["f"])
        rp, z = cp.rafid, a["z"]
        return (lambda: pv.rafid_quadrature(f, rp, z)), _identity
    if kind == "locate":
        f = _series(pv, a["f"])
        return (lambda: pv.locate_real_axis_violation(f, cp)), _identity
    raise ValueError(f"unknown in-process kind {kind!r}")


def _flags(P: Params) -> list[str]:
    return [
        "--p", str(P.p), "--alpha", repr(P.alpha), "--A", repr(P.A), "--B", repr(P.B),
        "--mu", repr(P.mu), "--delta", repr(P.delta),
    ]


def _series_json(f) -> str:
    return json.dumps({"p": f[0], "coeffs": [[k, a] for k, a in f[1]]})


def cli_argv(spec: Spec) -> tuple[list[str], str | None]:
    """(subcommand argv, stdin text) for a cli-cold spec.

    ``cli_check_extremal`` reads the previous ``cli_extremal`` output; its
    stdin is filled in by the runner.
    """
    a, kind = spec.args, spec.kind
    if kind == "cli_selftest":
        return ["selftest", "--seed", str(a["seed"])], None
    flags = _flags(a["P"])
    if kind == "cli_check":
        return ["check", "-", "--class", a["family"], *flags], _series_json(a["f"])
    if kind == "cli_extremal":
        return ["extremal", "--k", str(a["k"]), "--class", a["family"], *flags], None
    if kind == "cli_check_extremal":
        return ["check", "-", "--class", a["family"], *flags], None
    if kind == "cli_radius":
        return ["radius", "--kind", a["kind"], "--zeta", repr(a["zeta"]), *flags], None
    if kind == "cli_distortion":
        return [
            "distortion", "--m", str(a["m"]), "--rmin", repr(a["rmin"]), "--rmax", repr(a["rmax"]),
            "--steps", str(a["steps"]), *flags,
        ], None
    if kind == "cli_hadamard":
        return ["hadamard", "--extremal", "--beta", repr(a["beta"]), *flags], None
    if kind == "cli_fracbound":
        argv = [
            "fracbound", "--theorem", str(a["theorem"]), "--c", repr(a["c"]), "--eta", repr(a["eta"]),
            "--rmin", repr(a["rmin"]), "--rmax", repr(a["rmax"]), "--steps", str(a["steps"]), *flags,
        ]
        return argv + (["--as-printed"] if a["printed"] else []), None
    if kind == "cli_oracle":
        argv = ["oracle", "-", "--check", a["check"], *flags]
        if a["check"] != "subordination":
            argv += ["--zeta", repr(a["zeta"]), "--r", repr(a["r"])]
        return argv, _series_json(a["f"])
    raise ValueError(f"unknown cli kind {kind!r}")


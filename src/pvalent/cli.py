"""Command-line front end.

One subcommand per module: membership checks and extremal construction,
radii, distortion curves, convolution orders, fractional-composition bounds,
sampling oracles and the acceptance selftest.  Reports are JSON on stdout, every
field of the report's dataclass (:func:`_json`); curves are CSV, each cell the
``repr`` of its value (:func:`_csv`, headers exactly ``r,lower,upper`` and
``r,lower,upper,printed_lower,printed_upper``).  Exit status: 0 on success,
1 on domain errors (machine-readable JSON on stderr), 2 on I/O or flag
errors.  Class parameters have no defaults except p=1, mu=0, delta=1.  Each
subcommand imports the modules it needs when it runs, so a cold call loads
only those.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Sequence

from .classes import (
    ClassParams,
    check_p_membership,
    check_r_membership,
    extremal_p,
    extremal_r,
)
from .errors import DomainError, SeriesFormatError, _require_int
from .series import CoefficientSeries, from_json, hadamard_product, to_json


def _json(report: dict) -> int:
    """Print a report as indented JSON; exit status 0."""
    print(json.dumps(report, indent=2))
    return 0


def _csv(header: str, rows: Iterable[Sequence]) -> int:
    """Print the header, then one line per row of comma-separated reprs; exit status 0."""
    print(header)
    for row in rows:
        print(",".join(map(repr, row)))
    return 0


def _load_series(path: str) -> CoefficientSeries:
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    return from_json(text)


def _class_params(args: argparse.Namespace) -> ClassParams:
    return ClassParams(
        p=args.p, alpha=args.alpha, A=args.A, B=args.B, mu=args.mu, delta=args.delta
    )


def _radii(args: argparse.Namespace) -> list[float]:
    if _require_int("steps", args.steps, 1) == 1:
        return [args.rmin]
    h = (args.rmax - args.rmin) / (args.steps - 1)
    return [args.rmin + i * h for i in range(args.steps)]


def _cmd_check(args: argparse.Namespace) -> int:
    cp = _class_params(args)
    f = _load_series(args.series)
    check = check_r_membership if args.family == "r" else check_p_membership
    return _json(check(f, cp).to_dict())


def _cmd_extremal(args: argparse.Namespace) -> int:
    cp = _class_params(args)
    builder = extremal_r if args.family == "r" else extremal_p
    text = to_json(builder(args.k, cp))
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


def _cmd_radius(args: argparse.Namespace) -> int:
    from .geometry import radius_close_to_convex, radius_convex, radius_starlike

    cp = _class_params(args)
    fn = {
        "starlike": radius_starlike,
        "convex": radius_convex,
        "ctc": radius_close_to_convex,
    }[args.kind]
    return _json(fn(cp, args.zeta, k_max=args.kmax).to_dict())


def _cmd_distortion(args: argparse.Namespace) -> int:
    from .geometry import distortion_curve

    cp = _class_params(args)
    return _csv("r,lower,upper", distortion_curve(cp, args.m, _radii(args)).samples)


def _cmd_hadamard(args: argparse.Namespace) -> int:
    from .hadamard import mixed_order_xi

    cp = _class_params(args)
    beta = cp.alpha if args.beta is None else args.beta
    rep = mixed_order_xi(cp, beta, k_max=args.kmax)
    out = rep.to_dict()
    factors: tuple[CoefficientSeries, CoefficientSeries] | None = None
    if args.series:
        factors = (_load_series(args.series[0]), _load_series(args.series[1]))
    elif args.extremal:
        factors = (extremal_r(cp.p + 1, cp), extremal_r(cp.p + 1, replace(cp, alpha=beta)))
    if factors is not None:
        product, inside = hadamard_product(*factors), 0.0 <= rep.order < cp.p
        out["product"] = check_r_membership(product, replace(cp, alpha=rep.order)).to_dict() if inside else None
    return _json(out)


def _cmd_fracbound(args: argparse.Namespace) -> int:
    from .calculus_bounds import composition_bound

    cp = _class_params(args)
    bounds = [
        composition_bound(args.theorem, cp, args.c, args.eta, r, include_printed=args.as_printed)
        for r in _radii(args)
    ]
    header = "r,lower,upper,printed_lower,printed_upper" if args.as_printed else "r,lower,upper"
    return _csv(header, ([getattr(b, name) for name in header.split(",")] for b in bounds))


def _cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle import SampleGrid, ctc_max_dev, convex_min_re, starlike_min_re, subordination_margin

    cp = _class_params(args)
    f = _load_series(args.series)
    if args.check == "subordination":
        grid = SampleGrid(angles_per_radius=args.angles, refinement=args.refine)
        rep = subordination_margin(f, cp, grid if args.r is None else replace(grid, radii=(args.r,)))
    else:
        fn = {"starlike": starlike_min_re, "convex": convex_min_re, "ctc": ctc_max_dev}
        rep = fn[args.check](f, args.zeta, 0.9 if args.r is None else args.r, n_angles=args.angles)
    return _json(rep.to_dict())


def run_all(seed: int = 0) -> list:
    """:func:`pvalent.selftest.run_all`, imported on the first call, since numpy loads with it.

    ``selftest`` calls the battery through this module-level name, which
    ``perfbench/run.py`` wraps in its traced run to read each check's time.
    """
    from .selftest import run_all as battery

    return battery(seed=seed)


def _cmd_selftest(args: argparse.Namespace) -> int:
    from .selftest import audit_rows

    results = run_all(seed=args.seed)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.elapsed:6.2f}s  {r.detail}")
    print()
    print("printed-vs-derived audit (c=1, r=0.5):")
    header = "theorem,p,eta,lower,upper,printed_lower,printed_upper"
    _csv(header, ([row[name] for name in header.split(",")] for row in audit_rows()))
    passed = sum(r.passed for r in results)
    print()
    print(f"{passed}/{len(results)} checks passed (seed {args.seed})")
    return 0 if passed == len(results) else 1


def build_parser() -> argparse.ArgumentParser:
    params = argparse.ArgumentParser(add_help=False)
    group = params.add_argument_group("class parameters")
    group.add_argument("--p", type=int, default=1, help="valence (default 1)")
    group.add_argument("--alpha", type=float, required=True, help="order, in [0, p)")
    group.add_argument("--A", type=float, required=True, help="subordination A")
    group.add_argument("--B", type=float, required=True, help="subordination B")
    group.add_argument("--mu", type=float, default=0.0, help="smoothing mu (default 0)")
    group.add_argument("--delta", type=float, default=1.0, help="smoothing delta (default 1)")

    parser = argparse.ArgumentParser(
        prog="pvalent",
        description="Coefficient criteria, bounds and radii for p-valent "
        "series with negative coefficients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("check", parents=[params], help="membership of a series JSON")
    q.add_argument("series", help="series JSON path, or - for stdin")
    q.add_argument("--class", dest="family", choices=("r", "p"), required=True)
    q.set_defaults(func=_cmd_check)

    q = sub.add_parser("extremal", parents=[params], help="sharp one-term member")
    q.add_argument("--k", type=int, required=True, help="index > p; k-p steps, 86 ms at k = 10^6")
    q.add_argument("--class", dest="family", choices=("r", "p"), required=True)
    q.add_argument("--out", help="output path (default stdout)")
    q.set_defaults(func=_cmd_extremal)

    q = sub.add_parser("radius", parents=[params], help="radius of a geometric property")
    q.add_argument("--kind", choices=("starlike", "convex", "ctc"), required=True)
    q.add_argument("--zeta", type=float, default=0.0, help="property order (default 0)")
    q.add_argument("--kmax", type=int, default=200)
    q.set_defaults(func=_cmd_radius)

    q = sub.add_parser("distortion", parents=[params], help="derivative bound curve (CSV)")
    q.add_argument("--m", type=int, required=True, help="derivative order, <= p")
    q.add_argument("--rmin", type=float, required=True)
    q.add_argument("--rmax", type=float, required=True)
    q.add_argument("--steps", type=int, default=50)
    q.set_defaults(func=_cmd_distortion)

    q = sub.add_parser("hadamard", parents=[params], help="convolution order report")
    q.add_argument("series", nargs="*", help="two series JSON paths (optional)")
    q.add_argument("--beta", type=float, default=None, help="second factor order")
    q.add_argument("--extremal", action="store_true", help="use the sharp witnesses")
    q.add_argument("--kmax", type=int, default=64, help="cap; scan stops earlier at a proved k")
    q.set_defaults(func=_cmd_hadamard)

    q = sub.add_parser("fracbound", parents=[params], help="composition bound curve (CSV)")
    q.add_argument("--theorem", type=int, choices=(7, 8, 9, 10), required=True)
    q.add_argument("--c", type=float, required=True)
    q.add_argument("--eta", type=float, required=True)
    q.add_argument("--rmin", type=float, required=True)
    q.add_argument("--rmax", type=float, required=True)
    q.add_argument("--steps", type=int, default=50)
    q.add_argument("--as-printed", action="store_true", dest="as_printed")
    q.set_defaults(func=_cmd_fracbound)

    q = sub.add_parser("oracle", parents=[params], help="disk-sampling verification")
    q.add_argument("series", help="series JSON path, or - for stdin")
    q.add_argument(
        "--check",
        choices=("subordination", "starlike", "convex", "ctc"),
        required=True,
    )
    q.add_argument("--zeta", type=float, default=0.0)
    q.add_argument("--r", type=float, help="circle radius (default 0.9; subordination 0.99)")
    q.add_argument("--angles", type=int, default=256)
    q.add_argument("--refine", type=int, default=2, help="subordination: angle doublings allowed")
    q.set_defaults(func=_cmd_oracle)

    q = sub.add_parser("selftest", help="run the acceptance battery")
    q.add_argument("--seed", type=int, default=0, help="integer >= 0 for the checks' generators (default 0)")
    q.set_defaults(func=_cmd_selftest)
    return parser


def _emit_error(exc: BaseException) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "hadamard" and args.series and len(args.series) != 2:
        build_parser().error("hadamard takes exactly two series files (or --extremal)")
    try:
        return args.func(args)
    except (SeriesFormatError, json.JSONDecodeError, OSError) as exc:
        _emit_error(exc)
        return 2
    except DomainError as exc:
        _emit_error(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())

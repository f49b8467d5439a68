"""Spans around calls into each pvalent module, for the traced run only.

``Tracer.install()`` replaces each public function listed in ``WRAPPED`` by
a timing wrapper, in every pvalent module that binds that name, so calls
between modules (``geometry`` calling ``classes.log_r_criterion_term``,
``cli`` calling ``oracle.subordination_margin``) are seen too;
``uninstall()`` puts the originals back.  Nothing in the package changes.

Per call the wrapper records a span (id, parent id, name, start, end) and
folds it into running totals:

* calls per metric group, and the group's busy time: the inclusive time of
  its outermost activations (``check_p_membership`` calling
  ``check_r_membership`` is counted twice as a call, once as busy time);
* each layer's self time: span time minus the time of its child spans;
* counts read from arguments and results (radius candidates, oracle
  circles, points and terms) and the certificate caches' hit counters.

Spans are kept in memory up to ``SPAN_CAP`` and written out as JSON at the
end of the run; totals cover every call.
"""

from __future__ import annotations

import importlib
import inspect
import json
import re
import statistics
import subprocess
from collections import defaultdict
from pathlib import Path
from time import perf_counter

SPAN_CAP = 200_000

LAYERS = ("series", "operators", "classes", "geometry", "hadamard", "calculus_bounds", "oracle", "selftest", "cli")

# function -> metric group (None: counted in its layer's self time only)
WRAPPED = {
    "series": {
        "make_series": None, "evaluate": "series.evaluate", "from_json": "series.from_json",
        "to_json": None, "hadamard_product": None, "derivative_m": None,
    },
    "operators": {
        "gamma_ratio": "operators.gamma_ratio", "rafid_weight": "operators.rafid_weight",
        "apply_rafid": "operators.apply_rafid", "rafid_quadrature": "operators.rafid_quadrature",
        "bernardi": None, "fractional_integral": None, "fractional_derivative": None,
    },
    "classes": {
        "r_criterion_term": "classes.criterion_term", "log_r_criterion_term": "classes.criterion_term",
        "check_r_membership": "classes.check_membership", "check_p_membership": "classes.check_membership",
        "budget_certified": "classes.budget_certified", "coeff_bound_r": None, "coeff_bound_p": None,
        "extremal_r": None, "extremal_p": None, "zf_prime_over_p": None, "random_member": None,
        "random_params": None,
    },
    "geometry": {
        "radius_starlike": "geometry.radius", "radius_convex": "geometry.radius",
        "radius_close_to_convex": "geometry.radius", "distortion_curve": "geometry.distortion",
        "distortion_bounds": "geometry.distortion",
    },
    "hadamard": {
        "mixed_order_xi": "hadamard.order", "schild_silverman_lambda": "hadamard.order",
        "mixed_order_candidate": "hadamard.phi", "class_order_candidate": "hadamard.phi",
    },
    "calculus_bounds": {
        "composition_bound": "calculus_bounds.bound", "composition_certified": "calculus_bounds.certified",
        "lower_bound_peak": None, "composed_extremal": None,
    },
    "oracle": {
        "subordination_margin": "oracle", "starlike_min_re": "oracle", "convex_min_re": "oracle",
        "ctc_max_dev": "oracle", "locate_real_axis_violation": "oracle",
        "subordination_ratio_real": "oracle", "subordination_certified": None,
    },
    "selftest": {"run_all": None},
    "cli": {"main": None},
}

CLI_SUBCOMMANDS = ("check", "extremal", "radius", "distortion", "hadamard", "fracbound", "oracle", "selftest")
SELFTEST_NAMES = (
    "coefficient-bound", "criterion-oracle-agreement", "quadrature-closed-form", "p-r-correspondence",
    "distortion-bounds", "radii", "hadamard-orders", "fractional-compositions", "printed-form-audit",
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = [("import.pvalent_ms", "ms"), ("import.numpy_ms", "ms"), ("import.scipy_ms", "ms")]
    out += [(f"cli.call_ms.{c}", "ms") for c in CLI_SUBCOMMANDS] + [("cli.main_warm_ms", "ms")]
    out += [(f"selftest.{n}_s", "s") for n in SELFTEST_NAMES]
    out += [
        ("series.from_json_calls", "count"), ("series.from_json_busy_ms", "ms"),
        ("series.evaluate_calls", "count"), ("series.evaluate_busy_ms", "ms"),
        ("operators.gamma_ratio_calls", "count"), ("operators.gamma_ratio_busy_ms", "ms"),
        ("operators.rafid_weight_calls", "count"), ("operators.rafid_quadrature_calls", "count"),
        ("operators.rafid_quadrature_busy_ms", "ms"), ("operators.apply_rafid_busy_ms", "ms"),
        ("classes.criterion_term_calls", "count"), ("classes.criterion_term_busy_ms", "ms"),
        ("classes.check_membership_calls", "count"), ("classes.check_membership_busy_ms", "ms"),
        ("classes.budget_certified_calls", "count"), ("classes.budget_certified_hits", "count"),
        ("classes.budget_certified_busy_ms", "ms"),
        ("geometry.radius_calls", "count"), ("geometry.radius_busy_ms", "ms"),
        ("geometry.radius_candidates", "count"), ("geometry.distortion_busy_ms", "ms"),
        ("hadamard.order_calls", "count"), ("hadamard.order_busy_ms", "ms"), ("hadamard.phi_candidates", "count"),
        ("calculus_bounds.bound_calls", "count"), ("calculus_bounds.bound_busy_ms", "ms"),
        ("calculus_bounds.certified_calls", "count"), ("calculus_bounds.certified_hits", "count"),
        ("calculus_bounds.certified_busy_ms", "ms"),
        ("oracle.calls", "count"), ("oracle.busy_ms", "ms"), ("oracle.circles", "count"),
        ("oracle.points", "count"), ("oracle.terms", "count"), ("oracle.us_per_circle", "us"),
    ]
    out += [(f"{layer}.self_ms", "ms") for layer in LAYERS]
    out += [("trace.overhead_s", "s")]
    return out


class Tracer:
    """Patches pvalent's public functions with span-recording wrappers."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.outer_calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.circle_busy = 0.0
        self._active: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple] = []
        self._caches: dict[str, tuple] = {}

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module("pvalent")
        modules = [pkg] + [importlib.import_module(f"pvalent.{m}") for m in LAYERS]
        for group, layer, name in (
            ("classes.budget_certified", "classes", "budget_certified"),
            ("calculus_bounds.certified", "calculus_bounds", "composition_certified"),
        ):
            fn = getattr(importlib.import_module(f"pvalent.{layer}"), name)
            self._caches[group] = (fn, fn.cache_info().hits)
        for layer, funcs in WRAPPED.items():
            home = importlib.import_module(f"pvalent.{layer}")
            for name, group in funcs.items():
                orig = getattr(home, name)
                wrapper = self._wrap(orig, f"{layer}.{name}", layer, group, self._hook_for(name, orig))
                for mod in modules:
                    if getattr(mod, name, None) is orig:
                        setattr(mod, name, wrapper)
                        self._patched.append((mod, name, orig))

    def uninstall(self) -> None:
        for group, (fn, start) in self._caches.items():
            self.counts[group + "_hits"] += fn.cache_info().hits - start
        self._caches.clear()
        for mod, name, orig in reversed(self._patched):
            setattr(mod, name, orig)
        self._patched.clear()

    def _wrap(self, orig, name: str, layer: str, group: str | None, hook):
        stack, active = self._stack, self._active
        calls, outer_calls, busy, self_time = self.calls, self.outer_calls, self.busy, self.self_time

        def wrapper(*args, **kwargs):
            self._next_id += 1
            sid = self._next_id
            parent = stack[-1][0] if stack else 0
            outer = group is not None and active[group] == 0
            if group is not None:
                calls[group] += 1
                outer_calls[group] += outer
                active[group] += 1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self_time[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if group is not None:
                    active[group] -= 1
                    if outer:
                        busy[group] += dur
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((sid, parent, name, t0, t1))
                else:
                    self.dropped += 1
            if hook is not None:
                hook(args, kwargs, result, dur)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    def _hook_for(self, name: str, orig):
        counts = self.counts
        sig = inspect.signature(orig)

        def bound(args, kwargs):
            b = sig.bind(*args, **kwargs)
            b.apply_defaults()
            return b.arguments

        if name.startswith("radius_"):
            def hook(args, kwargs, result, dur):
                counts["geometry.radius_candidates"] += len(result.candidates)
            return hook
        if name == "subordination_margin":
            def hook(args, kwargs, result, dur):
                a = bound(args, kwargs)
                grid = a["grid"]
                counts["oracle.circles"] += len(grid.radii)
                counts["oracle.points"] += len(grid.radii) * grid.angles_per_radius + 2 * grid.refinement
                counts["oracle.terms"] += len(a["f"].coeffs) + 1
                self.circle_busy += dur
            return hook
        if name in ("starlike_min_re", "convex_min_re", "ctc_max_dev"):
            def hook(args, kwargs, result, dur):
                a = bound(args, kwargs)
                counts["oracle.circles"] += 1
                counts["oracle.points"] += a["n_angles"]
                counts["oracle.terms"] += len(a["f"].coeffs) + 1
                self.circle_busy += dur
            return hook
        if name == "subordination_ratio_real":
            def hook(args, kwargs, result, dur):
                counts["oracle.points"] += 1
            return hook
        if name == "locate_real_axis_violation":
            def hook(args, kwargs, result, dur):
                counts["oracle.terms"] += len(bound(args, kwargs)["f"].coeffs) + 1
            return hook
        return None

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        c, b, n = self.calls, self.busy, self.counts
        ms = 1e3
        out = {
            "series.from_json_calls": c["series.from_json"], "series.from_json_busy_ms": b["series.from_json"] * ms,
            "series.evaluate_calls": c["series.evaluate"], "series.evaluate_busy_ms": b["series.evaluate"] * ms,
            "operators.gamma_ratio_calls": c["operators.gamma_ratio"],
            "operators.gamma_ratio_busy_ms": b["operators.gamma_ratio"] * ms,
            "operators.rafid_weight_calls": c["operators.rafid_weight"],
            "operators.rafid_quadrature_calls": c["operators.rafid_quadrature"],
            "operators.rafid_quadrature_busy_ms": b["operators.rafid_quadrature"] * ms,
            "operators.apply_rafid_busy_ms": b["operators.apply_rafid"] * ms,
            "classes.criterion_term_calls": c["classes.criterion_term"],
            "classes.criterion_term_busy_ms": b["classes.criterion_term"] * ms,
            "classes.check_membership_calls": c["classes.check_membership"],
            "classes.check_membership_busy_ms": b["classes.check_membership"] * ms,
            "classes.budget_certified_calls": c["classes.budget_certified"],
            "classes.budget_certified_hits": n["classes.budget_certified_hits"],
            "classes.budget_certified_busy_ms": b["classes.budget_certified"] * ms,
            "geometry.radius_calls": c["geometry.radius"], "geometry.radius_busy_ms": b["geometry.radius"] * ms,
            "geometry.radius_candidates": n["geometry.radius_candidates"],
            "geometry.distortion_busy_ms": b["geometry.distortion"] * ms,
            "hadamard.order_calls": c["hadamard.order"], "hadamard.order_busy_ms": b["hadamard.order"] * ms,
            "hadamard.phi_candidates": c["hadamard.phi"],
            "calculus_bounds.bound_calls": c["calculus_bounds.bound"],
            "calculus_bounds.bound_busy_ms": b["calculus_bounds.bound"] * ms,
            "calculus_bounds.certified_calls": c["calculus_bounds.certified"],
            "calculus_bounds.certified_hits": n["calculus_bounds.certified_hits"],
            "calculus_bounds.certified_busy_ms": b["calculus_bounds.certified"] * ms,
            "oracle.calls": self.outer_calls["oracle"], "oracle.busy_ms": b["oracle"] * ms,
            "oracle.circles": n["oracle.circles"], "oracle.points": n["oracle.points"],
            "oracle.terms": n["oracle.terms"],
            "oracle.us_per_circle": self.circle_busy * 1e6 / n["oracle.circles"] if n["oracle.circles"] else 0.0,
        }
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = self.self_time[layer] * ms
        return out

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(extra, spans_kept=len(self.spans), spans_dropped=self.dropped,
                   span_fields=["id", "parent", "name", "start_s", "end_s"], spans=self.spans)
        path.write_text(json.dumps(doc))


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def import_times(python: str, env: dict, cwd: Path, repeats: int = 3) -> dict[str, float]:
    """Cumulative import time of pvalent, numpy and scipy in ms, median of cold processes.

    A package's time is the sum of the cumulative times of its outermost
    lines in ``-X importtime`` output (one line per first import).
    """
    per: dict[str, list[float]] = defaultdict(list)
    for _ in range(repeats):
        proc = subprocess.run(
            [python, "-X", "importtime", "-c", "import pvalent"],
            env=env, cwd=cwd, capture_output=True, text=True, timeout=120, check=True,
        )
        totals: dict[str, float] = defaultdict(float)
        open_pkg: list[tuple[int, str]] = []  # (indent, package) of enclosing lines, innermost last
        for line in reversed(proc.stderr.splitlines()):
            m = _IMPORT_LINE.match(line)
            if not m:
                continue
            indent, name = len(m.group(3)), m.group(4)
            pkg = name.split(".")[0]
            while open_pkg and open_pkg[-1][0] >= indent:
                open_pkg.pop()
            if pkg in ("pvalent", "numpy", "scipy") and all(p != pkg for _, p in open_pkg):
                totals[pkg] += int(m.group(2)) / 1e3
            open_pkg.append((indent, pkg))
        for pkg in ("pvalent", "numpy", "scipy"):
            per[pkg].append(totals[pkg])
    return {f"import.{pkg}_ms": statistics.median(v) for pkg, v in per.items()}

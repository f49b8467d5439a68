#!/usr/bin/env python3
"""Benchmark harness for pvalent.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace T

W is ``cli-cold``, ``closed-form``, ``oracle`` or ``all``.  Run it from the
root of a checkout: the package is imported from ``./src`` (nothing is
installed), and the only files written are trace JSON under
``perfbench/results/``.  One caller drives each workload as a closed loop
(the next operation starts when the previous one has returned), at most
one child process runs at a time, and BLAS threads are pinned to 1.

Every operation's output is checked outside its timed section.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
reruns a fixed number of rounds with spans around every call into the
package and reports the per-layer metrics.  End-to-end times are given
at a fixed reference host speed: each is scaled by a calibration job run
next to it (see ``speed.py``), because the shared host's own speed swings
more than the changes the benchmark must see.  The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it records the environment.
"""

from __future__ import annotations

import os

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import warnings  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from importlib import metadata  # noqa: E402
from io import StringIO  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import inputs  # noqa: E402
from ops import cli_argv, inprocess_call  # noqa: E402
from speed import Clock, child_clock, in_process_clock, pin_to_one_cpu  # noqa: E402

PY = sys.executable
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
WORKLOADS = ("cli-cold", "closed-form", "oracle")
USABLE_CPUS = sorted(os.sched_getaffinity(0))
TRACE_ROUNDS = {"closed-form": 30, "oracle": 6}
CHILD_TIMEOUT_S = 60
BATTERY_WARMUP_SEED = 3  # not one of inputs.SELFTEST_SEEDS
END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "op/s"), ("op_p50_ms", "ms"), ("op_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"), ("selftest_s", "s"),
)


@dataclass
class Tally:
    """Latencies and outcomes of the operations a phase attempted.

    ``latencies`` are wall seconds until ``rescale`` turns them into seconds
    at the reference host speed (see ``speed.py``); ``raw_s`` keeps their
    unscaled sum.
    """

    latencies: list[float] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    failed: int = 0
    correct: bool = True
    rounds: int = 0
    raw_s: float = 0.0
    child_rss_kib: int = 0  # the largest pvalent child's peak RSS

    def record(self, spec: inputs.Spec, seconds: float, problem: str | None) -> None:
        self.latencies.append(seconds)
        self.kinds.append(spec.kind)
        self.raw_s += seconds
        if problem is None:
            return
        self.failed += 1
        if not spec.fault:
            if self.correct:
                print(f"check failed: {spec.kind} {spec.args}: {problem}", file=sys.stderr)
            self.correct = False

    def rescale(self, scales: list[float]) -> None:
        self.latencies = [t * f for t, f in zip(self.latencies, scales, strict=True)]

    def by_kind(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for kind, seconds in zip(self.kinds, self.latencies):
            out.setdefault(kind, []).append(seconds)
        return out

    def merge(self, other: "Tally") -> None:
        self.latencies += other.latencies
        self.kinds += other.kinds
        self.failed += other.failed
        self.correct = self.correct and other.correct
        self.rounds += other.rounds
        self.raw_s += other.raw_s
        self.child_rss_kib = max(self.child_rss_kib, other.child_rss_kib)


@dataclass
class Child:
    code: int
    stdout: str
    stderr: str
    seconds: float
    rss_kib: int


def run_child(argv: list[str], stdin: str | None = None) -> Child:
    """Run ``python *argv`` to its end, timed from spawn until it has been reaped.

    Two threads drain its pipes and ``os.wait4`` reaps it, so its own peak
    RSS is known: ``RUSAGE_CHILDREN`` would mix in the calibration children.
    A child still running after ``CHILD_TIMEOUT_S`` is killed.
    """
    t0 = perf_counter()
    proc = subprocess.Popen(
        [PY, *argv], stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=ENV, cwd=ROOT,
    )
    out: dict[str, str] = {}
    readers = [
        threading.Thread(target=lambda name=name, pipe=pipe: out.__setitem__(name, pipe.read()))
        for name, pipe in (("stdout", proc.stdout), ("stderr", proc.stderr))
    ]
    for reader in readers:
        reader.start()
    try:
        proc.stdin.write(stdin or "")
        proc.stdin.close()
    except BrokenPipeError:
        pass
    for reader in readers:
        reader.join(CHILD_TIMEOUT_S)
    if any(reader.is_alive() for reader in readers):
        proc.kill()
        for reader in readers:
            reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait again
    proc.stdout.close()
    proc.stderr.close()
    return Child(proc.returncode, out["stdout"], out["stderr"], seconds, usage.ru_maxrss)


# -- setup ------------------------------------------------------------------


def setup_probe(workload: str, seed: int, clock: Clock) -> float:
    """Seconds from spawning a fresh interpreter until the workload is ready to time."""
    clock.tick()
    if workload == "cli-cold":
        child = run_child(["-c", "import pvalent.cli"])
        if child.code != 0:
            raise RuntimeError(f"setup probe for {workload} failed (exit {child.code}): {child.stderr[-300:]}")
        return child.seconds
    cmd = [PY, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    t0 = perf_counter()
    with subprocess.Popen(cmd, env=ENV, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe for {workload} failed (exit {proc.returncode})")
    return ready


def import_package():
    import pvalent

    warnings.filterwarnings("ignore", category=pvalent.UncertifiedBoundWarning)
    return pvalent


def warm_up(workload: str, seed: int, pv) -> None:
    """One untimed pass over inputs the timed phase never uses."""
    for spec in inputs.warmup_round(workload, seed):
        call, _ = inprocess_call(spec, pv)
        try:
            call()
        except Exception:  # fault ops raise by design; the warm-up checks nothing
            pass


def probe_main(workload: str, seed: int) -> int:
    pv = import_package()
    warm_up(workload, seed, pv)
    print("ready", flush=True)
    return 0


def battery_main() -> int:
    """Child of an in-process run: an untimed battery, then one per seed, twice; one JSON line."""
    from checks import Checker

    import_package()
    checker = Checker()
    warm_selftest(checker, BATTERY_WARMUP_SEED)
    print(json.dumps([warm_selftest(checker, seed) for seed in inputs.SELFTEST_SEEDS * 2]))
    return 0


def battery_probe(workload: str) -> tuple[list[float], bool]:
    """Seconds of each timed warm selftest battery (run in a child), and whether all checked out.

    A child keeps the batteries' memory out of this process's peak RSS and
    their cache entries out of the timed loop.
    """
    child = run_child([str(HERE / "run.py"), "--battery-probe", "--workload", workload])
    sys.stderr.write(child.stderr)
    if child.code != 0:
        raise RuntimeError(f"selftest battery child failed (exit {child.code})")
    timed = json.loads(child.stdout.splitlines()[-1])
    return [seconds for seconds, _ in timed], all(ok for _, ok in timed)


# -- timed loops ------------------------------------------------------------


def inprocess_loop(
    specs, calls, checker, seconds: float | None = None, rounds: int | None = None, scaled: bool = True
) -> Tally:
    """Whole rounds until ``seconds`` have passed (or exactly ``rounds`` rounds).

    With ``scaled`` the calibration kernel runs between operations and the
    latencies come back at reference speed; the traced run keeps wall time.
    """
    tally = Tally()
    clock = in_process_clock()
    start = perf_counter()
    while tally.rounds == 0 or (
        tally.rounds < rounds if rounds is not None else perf_counter() - start < seconds
    ):
        for spec, (call, plain) in zip(specs, calls):
            if scaled:
                clock.tick()
            t0 = perf_counter()
            try:
                out = call()
            except Exception as exc:  # the check reports it; fault ops raise today
                out = exc
            dt = perf_counter() - t0
            tally.record(spec, dt, checker.check(spec, out if isinstance(out, Exception) else plain(out)))
        tally.rounds += 1
    if scaled:
        tally.rescale(clock.scales())
    return tally


def cli_problem(checker, spec, code: int, stdout: str, stderr: str) -> str | None:
    from checks import parse_cli

    if code != 0:
        return f"exit {code}: {stderr.strip()[-300:]}"
    try:
        data = parse_cli(spec.kind, stdout)
    except (ValueError, IndexError) as exc:
        return f"unparsable output: {exc}"
    return checker.check(spec, data)


def cli_loop(specs, checker, seconds: float, clock: Clock) -> Tally:
    """Cold ``python -m pvalent.cli`` calls, whole rounds, one child at a time.

    The latencies stay wall seconds; the caller rescales them with ``clock``.
    """
    tally = Tally()
    start = perf_counter()
    extremal_out = ""
    while tally.rounds == 0 or perf_counter() - start < seconds:
        for spec in specs:
            argv, stdin = cli_argv(spec)
            if spec.kind == "cli_check_extremal":
                stdin = extremal_out
            clock.tick()
            child = run_child(["-m", "pvalent.cli", *argv], stdin)
            if spec.kind == "cli_extremal":
                extremal_out = child.stdout
            tally.child_rss_kib = max(tally.child_rss_kib, child.rss_kib)
            tally.record(spec, child.seconds, cli_problem(checker, spec, child.code, child.stdout, child.stderr))
        tally.rounds += 1
    return tally


def main_inprocess(cli_mod, argv: list[str], stdin: str | None) -> tuple[int, str, str]:
    """pvalent.cli.main in this process, with stdin/stdout/stderr swapped for buffers."""
    out, err = StringIO(), StringIO()
    saved = sys.stdin
    sys.stdin = StringIO(stdin or "")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_mod.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def cli_replay(specs, checker, cli_mod) -> Tally:
    """The same argv, through pvalent.cli.main in this (warm) process."""
    tally = Tally()
    extremal_out = ""
    for spec in specs:
        argv, stdin = cli_argv(spec)
        if spec.kind == "cli_check_extremal":
            stdin = extremal_out
        t0 = perf_counter()
        code, out, err = main_inprocess(cli_mod, argv, stdin)
        dt = perf_counter() - t0
        if spec.kind == "cli_extremal":
            extremal_out = out
        tally.record(spec, dt, cli_problem(checker, spec, code, out, err))
    tally.rounds = 1
    return tally


def warm_selftest(checker, seed: int) -> tuple[float, bool]:
    """Seconds of one warm selftest battery at reference speed, and whether it checked out.

    The nine checks ``run_all`` would run are called one by one, each timed
    and scaled like a warm operation; the audit rows are checked untimed.
    """
    from checks import check_battery
    from pvalent import selftest

    clock = in_process_clock()
    results, seconds = [], []
    try:
        for check in selftest.ALL_CHECKS:
            clock.tick()
            t0 = perf_counter()
            try:
                results.append(check(seed=seed))
            finally:
                seconds.append(perf_counter() - t0)
    except Exception as exc:  # the run reports it and goes on
        problem = f"raised {exc!r}"
    else:
        problem = check_battery(checker.reference(inputs.Spec("cli_selftest", {"seed": seed})), results,
                                selftest.audit_rows())
    if problem:
        print(f"check failed: warm selftest battery, seed {seed}: {problem}", file=sys.stderr)
    return sum(t * f for t, f in zip(seconds, clock.scales(), strict=True)), problem is None


# -- metrics ----------------------------------------------------------------


def typical_round_s(tally: Tally) -> float:
    """Seconds of a typical round: each position's median over the rounds, summed."""
    per_round = len(tally.latencies) // tally.rounds
    by_position = [tally.latencies[i::per_round] for i in range(per_round)]
    return sum(statistics.median(seconds) for seconds in by_position)


def end_to_end(tally: Tally, setup: list[float], selftest: list[float], rss_kib: int) -> dict[str, float]:
    lat = tally.latencies
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(lat) / tally.rounds / typical_round_s(tally),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p99_ms": statistics.quantiles(lat, n=100, method="inclusive")[98] * 1e3,
        "peak_rss_mb": rss_kib / 1024.0,
        "selftest_s": statistics.median(selftest),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[Tally, dict[str, float], dict]:
    from checks import Checker

    specs = inputs.workload_round(workload, seed)
    checker = Checker()
    for spec in specs:
        checker.reference(spec)
    # Every cold child (CLI call, set-up probe) ticks one clock, and its wall
    # time is rescaled once the last has run.  The host's speed drifts over
    # tens of seconds, so set-up probes and selftest calls are spread over
    # the run rather than bunched.
    clock = child_clock(PY, ENV, ROOT, CHILD_TIMEOUT_S)
    if workload == "cli-cold":
        if trace:
            cold = cli_loop(specs, checker, seconds, clock)
            cold.rescale(clock.scales())
            return trace_cli(specs, checker, cold)
        setup = [setup_probe(workload, seed, clock) for _ in range(2)]
        tally = cli_loop(specs, checker, seconds, clock)
        setup.append(setup_probe(workload, seed, clock))
        scales = clock.scales()
        setup = [t * f for t, f in zip(setup, scales[:2] + scales[-1:])]
        tally.rescale(scales[2:-1])
        selftest = tally.by_kind()["cli_selftest"]
        return tally, end_to_end(tally, setup, selftest, tally.child_rss_kib), {"clock": clock}
    pv = import_package()
    warm_up(workload, seed, pv)
    calls = [inprocess_call(spec, pv) for spec in specs]
    if trace:
        return trace_inprocess(workload, specs, calls, checker)
    # Set-up probes at the start, middle and end; then the selftest batteries.
    tally, setup = Tally(), []
    for part in range(3):
        if part:
            tally.merge(inprocess_loop(specs, calls, checker, seconds=seconds / 2))
        setup.append(setup_probe(workload, seed, clock))
    setup = [t * f for t, f in zip(setup, clock.scales(), strict=True)]
    selftest, ok = battery_probe(workload)
    tally.correct = tally.correct and ok
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return tally, end_to_end(tally, setup, selftest, rss), {"clock": clock}


def _layer_report(tracer, base_lat: list[float], traced_lat: list[float], extra: dict) -> dict[str, float]:
    from spans import import_times, per_layer_metrics

    metrics = {name: 0.0 for name, _ in per_layer_metrics()}
    metrics.update(import_times(PY, ENV, ROOT))
    metrics.update(tracer.metrics())
    metrics.update(extra)
    metrics["trace.overhead_s"] = sum(traced_lat) - sum(base_lat)
    return metrics


def trace_inprocess(workload, specs, calls, checker):
    from spans import Tracer

    rounds = TRACE_ROUNDS[workload]
    base = inprocess_loop(specs, calls, checker, rounds=rounds, scaled=False)
    tracer = Tracer()
    tracer.install()
    try:
        traced = inprocess_loop(specs, calls, checker, rounds=rounds, scaled=False)
    finally:
        tracer.uninstall()
    metrics = _layer_report(tracer, base.latencies, traced.latencies, {})
    base.merge(traced)
    return base, metrics, {"tracer": tracer, "rounds_traced": rounds}


def trace_cli(specs, checker, cold: Tally):
    from spans import CLI_SUBCOMMANDS, SELFTEST_NAMES, Tracer

    import pvalent.cli as cli_mod

    kinds = {sub: {s.kind for s in specs if cli_argv(s)[0][0] == sub} for sub in CLI_SUBCOMMANDS}
    by_kind = cold.by_kind()
    extra = {
        f"cli.call_ms.{sub}": statistics.median(t for kind in kinds[sub] for t in by_kind[kind]) * 1e3
        for sub in CLI_SUBCOMMANDS
    }
    captured: list = []
    run_all = cli_mod.run_all

    def capture(*args, **kwargs):
        results = run_all(*args, **kwargs)
        captured.append(results)
        return results

    cli_mod.run_all = capture
    try:
        base = cli_replay(specs, checker, cli_mod)
    finally:
        cli_mod.run_all = run_all
    extra["cli.main_warm_ms"] = statistics.median(base.latencies) * 1e3
    for name in SELFTEST_NAMES:
        extra[f"selftest.{name}_s"] = statistics.median(
            r.elapsed for results in captured for r in results if r.name == name
        )
    tracer = Tracer()
    tracer.install()
    try:
        traced = cli_replay(specs, checker, cli_mod)
    finally:
        tracer.uninstall()
    metrics = _layer_report(tracer, base.latencies, traced.latencies, extra)
    cold.merge(base)
    cold.merge(traced)
    return cold, metrics, {"tracer": tracer, "rounds_traced": 1}


# -- reporting --------------------------------------------------------------


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def environment(workload: str, args, tally: Tally, info: dict) -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "mpmath": _version("mpmath"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(USABLE_CPUS),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": tally.rounds,
        "attempted": len(tally.latencies),
        "failed": tally.failed,
        "wall_s_timed_ops": tally.raw_s,
    }
    if "clock" in info:  # how fast the host ran, against the reference speed
        env["cold_speed_scale"] = info["clock"].median_scale()
    return env


def units() -> dict[str, str]:
    from spans import per_layer_metrics

    return dict(END_TO_END) | dict(per_layer_metrics())


def check_declared_metrics() -> str | None:
    """The metrics in BENCHMARK.json must be the ones, with the units, this harness reports."""
    from spans import per_layer_metrics

    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    doc = json.loads(path.read_text())
    declared = [[(m["name"], m["unit"]) for m in doc[key]] for key in ("end_to_end", "per_layer")]
    if declared == [list(END_TO_END), per_layer_metrics()]:
        return None
    return "BENCHMARK.json metrics differ from the ones the harness reports"


def run_one(args) -> int:
    from checks import harness_selftest

    problems = harness_selftest()
    problem = check_declared_metrics()
    if problem:
        problems.append(problem)
    for line in problems:
        print(f"harness self-test: {line}", file=sys.stderr)
    if problems:
        return 3
    pin_to_one_cpu()
    tally, metrics, trace_info = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    unit = units()
    env = environment(args.workload, args, tally, trace_info)
    if "tracer" in trace_info:
        path = HERE / "results" / f"trace-{args.workload}-seed{args.seed}.json"
        trace_info["tracer"].write(path, {"env": env, "rounds_traced": trace_info["rounds_traced"], "metrics": metrics})
        env["trace_file"] = str(path.relative_to(ROOT))
    for name, value in metrics.items():
        print(f"{args.workload:12s} {name:44s} {value:14.6g} {unit[name]}")
    print(json.dumps({"env": env}))
    result = {
        "correct": tally.correct,
        "attempted": len(tally.latencies),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all_workloads(args) -> int:
    """Each workload in its own child, one after the other; a combined summary last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [PY, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, env=ENV, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        print(f"{workload:12s} attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--battery-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "pvalent" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'pvalent'}; run from the root of a pvalent checkout", file=sys.stderr)
        return 2
    if args.setup_probe:
        return probe_main(args.workload, args.seed)
    if args.battery_probe:
        return battery_main()
    if args.workload == "all":
        return run_all_workloads(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

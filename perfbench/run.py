#!/usr/bin/env python3
"""Benchmark command for the dualalp planners.

Run from the repository root:

    python3 perfbench/run.py --workload desk-queue --seed 0 --seconds 10 --trace 0

One invocation runs one workload in this process against the package source in
``src/`` of the checkout (never an installed copy). It repeats whole units of
the workload (setup, solve, evaluate on the inputs made from ``--seed``) until
``--seconds`` have been used, at least one unit, checks the outputs after the
timed region, and prints a metric table followed by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: medians over
the units of the run, with times in reference seconds (see ``Calibration``)
and the wall-time medians printed beside them. ``--trace 1`` alternates an
untraced unit with a traced one (desk-queue's traced unit runs through
``cli.main bench-queue``) and reports the per-layer metrics of the traced
units, their self times and the tracing overhead. A failed check or a failed operation makes the exit code 1; a
checkout without the package source exits with 2 before measuring anything.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BLAS_THREADS = 1  # one process, one BLAS thread: no more than nproc, and steadier
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
EXIT_MISSING_SOURCE = 2

REPORTED_ONLY = {  # printed, not gated: not defined on every workload, or redundant
    "solve_s": "s", "sgd_iter_per_s": "1/s", "sim_steps_per_s": "1/s",
    "crosscheck_sim_steps_per_s": "1/s", "failed_share": "ratio",
    "wall.total_s": "s", "wall.setup_s": "s", "wall.solve_s": "s", "wall.eval_s": "s",
    "machine_speed": "ratio"}

# Times are reported in reference seconds: the wall time of a phase scaled by
# CAL_NOMINAL_S over the median time of a fixed reference kernel, measured in
# bursts right before and after the phase. On a shared host the speed of a
# core drifts between runs (by 20-50 % on a 2-vCPU shared VM); the kernel
# drifts with it, so the ratio follows the package's own cost. Wall times are
# printed beside them.
CAL_NOMINAL_S = 0.012
CAL_BURST = 5


@dataclass
class Unit:
    """Wall times of one unit's phases, the reference-kernel scale of each
    phase, and the unit's outputs."""

    setup_s: list
    solve_s: float | None
    eval_s: list
    outcome: dict
    scale: tuple = (1.0, 1.0, 1.0)  # (setup, solve, evaluate)

    @property
    def total_s(self) -> float:
        return self.setup_s[0] + (self.solve_s or 0.0) + self.eval_s[0]

    def ref(self) -> "Unit":
        """The same unit with every phase time in reference seconds."""
        setup, solve, evaluate = self.scale
        return Unit([t * setup for t in self.setup_s],
                    None if self.solve_s is None else self.solve_s * solve,
                    [t * evaluate for t in self.eval_s], self.outcome)


class Calibration:
    """Bursts of a fixed reference kernel that mixes the package's kinds of
    work (pure-Python arithmetic, small dense products, and a streaming sample
    and gather over 1 MB arrays) and shares no code with it."""

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._mat, self._vec = rng.random((64, 64)), rng.random(64)
        cum = np.cumsum(rng.random(1 << 16))
        self._cum, self._table = cum / cum[-1], rng.random((1 << 16, 4))
        self._draws = rng.random(1 << 15)
        self.samples: list[float] = []

    def _kernel(self) -> float:
        import numpy as np
        total = 0.0
        for i in range(10000):
            total += i * 0.5
        vec = self._vec
        for _ in range(1000):
            vec = self._mat @ vec
            vec = vec / (vec.sum() + 1.0)
        idx = np.searchsorted(self._cum, self._draws)
        return total + float((self._table[idx] @ vec[:4]).sum())

    def burst(self) -> float:
        times = []
        for _ in range(CAL_BURST):
            started = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - started)
        self.samples.extend(times)
        return statistics.median(times)


@dataclass
class Ledger:
    """Operations attempted and failed: timed phase calls and checks."""

    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)

    def add_checks(self, checks) -> None:
        self.checks.extend(checks)
        self.attempted += len(checks)
        self.failed += sum(not c.ok for c in checks)


def load_spec() -> dict:
    """BENCHMARK.json: workload names and the metric names and units to report."""
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {"workloads": {w["name"]: w["why"] for w in spec["workloads"]},
            "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_package() -> None:
    """Put the checkout's src/ first on the path and import the package from it."""
    if not (SRC / "dualalp" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}/dualalp; run from a full checkout",
              file=sys.stderr)
        sys.exit(EXIT_MISSING_SOURCE)
    sys.path.insert(0, str(SRC))
    import dualalp
    if Path(dualalp.__file__).resolve().parent != (SRC / "dualalp").resolve():
        print(f"perfbench: imported dualalp from {dualalp.__file__}, not from {SRC}",
              file=sys.stderr)
        sys.exit(EXIT_MISSING_SOURCE)


# ------------------------------------------------------------- measurement

def run_unit(workload, inputs, ledger: Ledger, calibration: Calibration,
             repeat: bool = True, tracer=None) -> Unit:
    """One pass of setup, solve and evaluate, with a calibration burst before
    and after each phase group. With ``repeat`` the setup and evaluation are
    repeated ``setup_reps`` / ``eval_reps`` times (only the first of each
    counts towards the unit's total)."""
    clock = time.perf_counter
    bursts = []

    def mark():
        bursts.append(calibration.burst())

    def phase(name, fn, *args):
        ledger.attempted += 1
        try:
            started = clock()
            if tracer is None:
                result = fn(*args)
            else:
                with tracer.span(f"bench.{name}"):
                    result = fn(*args)
            return result, clock() - started
        except Exception:
            ledger.failed += 1
            raise

    setup_s, eval_s = [], []
    state = solution = outcome = None
    mark()
    for rep in range(workload.setup_reps if repeat else 1):
        built, elapsed = phase("setup", workload.setup, inputs)
        setup_s.append(elapsed)
        state = built if rep == 0 else state
    built = None  # a repeated setup's objects must not stay alive through the solve
    mark()
    solve_s = None
    if workload.solve is not None:
        solution, solve_s = phase("solve", workload.solve, state)
        mark()
    for rep in range(workload.eval_reps if repeat else 1):
        result, elapsed = phase("evaluate", workload.evaluate, state, solution)
        eval_s.append(elapsed)
        outcome = result if rep == 0 else outcome
    mark()
    around = [CAL_NOMINAL_S / ((a + b) / 2) for a, b in zip(bursts, bursts[1:])]
    return Unit(setup_s, solve_s, eval_s, outcome, scale=(around[0], around[1], around[-1]))


def run_units(workload, inputs, seconds: float, ledger: Ledger,
              calibration: Calibration) -> list:
    units = []
    started = time.perf_counter()
    while True:
        units.append(run_unit(workload, inputs, ledger, calibration))
        if time.perf_counter() - started >= seconds:
            return units


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_checks(workload, inputs, units, ledger: Ledger, workloads_mod):
    """Workload checks on the first unit, unit-to-unit determinism, and the
    desk-scale simulator cross-check. Returns (policy_cost, simulator rates)."""
    first = units[0]
    checks, policy_cost = workload.check(inputs, first.outcome)
    same = all(u.outcome["fingerprint"] == first.outcome["fingerprint"] for u in units)
    checks.append(workloads_mod.Check("units-identical", same,
                                      f"{len(units)} unit(s) gave identical outputs"))
    exact = first.outcome.get("baseline_exact_loss", {}).get("LBFS")
    if exact is None:
        exact = workloads_mod.desk_lbfs_exact_loss()
    crosscheck, rates = workloads_mod.simulator_crosscheck(exact, time.perf_counter)
    checks.append(crosscheck)
    ledger.add_checks(checks)
    return policy_cost, rates


def summarize(values) -> dict:
    """Median with its sample count, extremes and the highest listed
    percentile that has at least ten samples beyond it."""
    values = [float(v) for v in values]
    out = {"median": statistics.median(values), "n": len(values),
           "min": min(values), "max": max(values)}
    for pct in (99, 95, 90, 75):
        if len(values) * (100 - pct) / 100.0 >= 10:
            out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
            break
    return out


def _phase_stats(units, prefix: str = "") -> dict:
    stats = {prefix + "total_s": summarize(u.total_s for u in units),
             prefix + "setup_s": summarize(t for u in units for t in u.setup_s),
             prefix + "eval_s": summarize(t for u in units for t in u.eval_s)}
    if units[0].solve_s is not None:
        stats[prefix + "solve_s"] = summarize(u.solve_s for u in units)
    return stats


def end_to_end_metrics(workload, units, policy_cost, sim_rates, rss_mb, ledger,
                       calibration: Calibration) -> dict:
    """Medians over the units, in reference seconds when calibrated, with the
    wall-time medians and the machine speed beside them."""
    ref = [u.ref() for u in units]
    stats = _phase_stats(ref)
    stats["policy_cost"] = summarize([policy_cost])
    stats["peak_rss_mb"] = summarize([rss_mb])
    if workload.sim_steps:
        stats["sim_steps_per_s"] = summarize(
            workload.sim_steps / t for u in ref for t in u.eval_s)
    stats["crosscheck_sim_steps_per_s"] = summarize(sim_rates)
    if workload.solve is not None:
        stats["sgd_iter_per_s"] = summarize(
            u.outcome["sgd_iterations"] / u.solve_s for u in ref)
    stats["failed_share"] = summarize([ledger.failed / max(ledger.attempted, 1)])
    stats.update(_phase_stats(units, prefix="wall."))
    stats["machine_speed"] = summarize(CAL_NOMINAL_S / t for t in calibration.samples)
    return stats


# ------------------------------------------------------------------ tracing

def traced_cli_unit(workload, seed: int, tracer, ledger: Ledger, cli, run_id: str):
    """The workload through ``cli.main``; returns the wall time and the parsed
    summary.json."""
    out_dir = OUT / f"cli-{workload.name}-seed{seed}"
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = workload.cli.argv(seed, str(out_dir))
    ledger.attempted += 1
    tracer.begin_run(run_id)
    with tracer.installed():
        started = time.perf_counter()
        with tracer.span("bench.cli"):
            code = cli.main(argv)
        elapsed = time.perf_counter() - started
    if code != 0:
        ledger.failed += 1
        raise RuntimeError(f"cli.main {' '.join(argv)} exited with {code}")
    with open(out_dir / "summary.json") as handle:
        summary = json.load(handle)
    shutil.rmtree(out_dir, ignore_errors=True)
    return elapsed, summary


def run_traced(workload, inputs, seed: int, seconds: float, ledger: Ledger, tracing, cli):
    """Alternate untraced and traced units (through the CLI when the workload
    has a CLI route); returns (untraced units, per-layer metrics, tracer). The
    tracing overhead compares their totals in reference seconds."""
    tracer = tracing.Tracer()
    calibration = Calibration()
    base_units, traced_totals, layer_runs, extra_checks = [], [], [], []
    started = time.perf_counter()
    while True:
        base = run_unit(workload, inputs, ledger, calibration, repeat=False)
        base_units.append(base)
        run_id = f"{workload.name}-seed{seed}-unit{len(traced_totals)}"
        if workload.cli is not None:
            before = calibration.burst()
            elapsed, summary = traced_cli_unit(workload, seed, tracer, ledger, cli, run_id)
            traced_totals.append(elapsed * CAL_NOMINAL_S / ((before + calibration.burst()) / 2))
            extra_checks.append(workload.cli.compare(summary, base.outcome))
        else:
            tracer.begin_run(run_id)
            with tracer.installed():
                unit = run_unit(workload, inputs, ledger, calibration, repeat=False,
                                tracer=tracer)
            traced_totals.append(unit.ref().total_s)
        layer_runs.append(tracing.layer_metrics(tracer, len(tracer.run_ids) - 1))
        if time.perf_counter() - started >= seconds:
            break
    layers = {key: statistics.median(run[key] for run in layer_runs) for key in layer_runs[0]}
    untraced = statistics.median(u.ref().total_s for u in base_units)
    traced = statistics.median(traced_totals)
    layers["tracing.overhead_s"] = traced - untraced
    layers["tracing.overhead_share"] = (traced - untraced) / untraced
    ledger.add_checks(extra_checks)
    return base_units, layers, tracer, calibration


# --------------------------------------------------------------- provenance

def _git_sha(root: Path) -> str:
    """HEAD of a git checkout, read from the files (no subprocess)."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "dualalp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args, units: int) -> dict:
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "units": units, "git_sha": _git_sha(ROOT),
            "src_sha256": _source_digest(), "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": BLAS_THREADS,
            "blas_env": {var: os.environ.get(var) for var in BLAS_ENV}}


# ------------------------------------------------------------------- output

def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_table(title: str, stats: dict, units: dict) -> None:
    print(title)
    print(f"  {'metric':34s} {'unit':6s} {'median':>12s} {'n':>4s} {'min':>12s} "
          f"{'max':>12s}  high percentile")
    for name, s in stats.items():
        high = next(((k, v) for k, v in s.items() if k.startswith("p")), None)
        high_txt = f"{high[0]} {_fmt(high[1])}" if high else "-"
        print(f"  {name:34s} {units.get(name, ''):6s} {_fmt(s['median']):>12s} {s['n']:>4d} "
              f"{_fmt(s['min']):>12s} {_fmt(s['max']):>12s}  {high_txt}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    _import_package()
    import logging
    logging.getLogger("dualalp").setLevel(logging.ERROR)
    import workloads as workloads_mod

    spec = load_spec()
    if args.workload not in spec["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(spec['workloads'])}", file=sys.stderr)
        return EXIT_MISSING_SOURCE
    workload = workloads_mod.WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    inputs = workload.make_inputs(args.seed)
    metrics, stats, layers = {}, {}, {}
    units: list = []
    try:
        if args.trace:
            import tracing
            from dualalp import cli
            units, layers, tracer, calibration = run_traced(
                workload, inputs, args.seed, args.seconds, ledger, tracing, cli)
            tracer.write_csv(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")
        else:
            calibration = Calibration()
            units = run_units(workload, inputs, args.seconds, ledger, calibration)
        rss = peak_rss_mb()
        policy_cost, sim_rates = run_checks(workload, inputs, units, ledger, workloads_mod)
        stats = end_to_end_metrics(workload, units, policy_cost, sim_rates, rss, ledger,
                                   calibration)
    except Exception:
        traceback.print_exc()
        ledger.failed = max(ledger.failed, 1)
        ledger.attempted = max(ledger.attempted, ledger.failed)

    prov = provenance(args, len(units))
    print(f"workload {args.workload}: {spec['workloads'][args.workload]}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    if stats:
        print_table("end-to-end (untraced units; times in reference seconds, wall.* in "
                    "wall seconds)", stats, {**spec["end_to_end"], **REPORTED_ONLY})
    if layers:
        print("per-layer (traced units; self times exclude traced children)")
        for name, value in layers.items():
            print(f"  {name:40s} {_fmt(value):>14s}")
    for check in ledger.checks:
        print(f"check {'PASS' if check.ok else 'FAIL'} {check.name}: {check.detail}")
    if args.trace:
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in spec["per_layer"].items()} if layers else {}
    elif stats:
        metrics = {name: {"value": stats[name]["median"], "unit": unit}
                   for name, unit in spec["end_to_end"].items()}
    correct = ledger.failed == 0 and bool(metrics)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as handle:
        json.dump({"provenance": prov, "stats": stats, "per_layer": layers,
                   "checks": [vars(c) for c in ledger.checks], "correct": correct},
                  handle, indent=2, sort_keys=True, default=str)
    print(json.dumps({"correct": correct, "attempted": max(ledger.attempted, 1),
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Summarize perfbench runs of two commits into one BENCH record.

perfbench writes each run's result to
``perfbench/out/result-<workload>-seed<n>-trace<t>.json`` and overwrites it
on the next run, so copy each file aside after its run. Given those copies,
labelled ``parent`` (the commit before a change) or ``change``, this writes
one JSON record (by convention ``BENCH_<n>.json`` at the repository root,
n numbering the change) with, per workload, seed and side:

* the median, the quartiles, their distance (IQR) and the number of runs of
  every end-to-end metric that ``BENCHMARK.json`` gates (each run gives one
  value, its median over its units, as perfbench reports it);
* how many runs passed their checks;
* the git SHAs and source digests the runs report, and the median machine
  speed (0.012 s over the reference kernel's time) of each run.

It reads the results only: it changes no gate or bound. Untraced runs
(``--trace 0``) carry the end-to-end metrics; a traced result is refused.

Example, from the repository root, with the parent commit checked out in
``../parent``::

    for i in 1 2 3; do
      (cd ../parent && python3 perfbench/run.py --workload desk-queue --seed 0 \\
          --seconds 10 --trace 0 && cp perfbench/out/result-desk-queue-seed0-trace0.json \\
          /tmp/runs/parent-$i.json)
      python3 perfbench/run.py --workload desk-queue --seed 0 --seconds 10 --trace 0 \\
          && cp perfbench/out/result-desk-queue-seed0-trace0.json /tmp/runs/change-$i.json
    done
    python3 benchmarks/bench_record.py --out BENCH_7.json \\
        --parent /tmp/runs/parent-*.json --change /tmp/runs/change-*.json
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def end_to_end_names(spec_path: Path = ROOT / "BENCHMARK.json") -> list[str]:
    """The gated end-to-end metric names, in the order BENCHMARK.json lists them."""
    return [metric["name"] for metric in json.loads(spec_path.read_text())["end_to_end"]]


def spread(values: list[float]) -> dict:
    """Median, quartiles (inclusive method), IQR and count of a nonempty list."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values),
            "values": values}


def load_run(path: Path, names: list[str]) -> dict:
    """One perfbench result: its workload, seed, provenance and metric values."""
    result = json.loads(Path(path).read_text())
    prov, stats = result["provenance"], result["stats"]
    if prov.get("trace"):
        raise ValueError(f"{path}: a traced run carries no end-to-end metrics")
    missing = [name for name in names if name not in stats]
    if missing:
        raise ValueError(f"{path}: no {', '.join(missing)} in its stats")
    return {"workload": prov["workload"], "seed": prov["seed"],
            "git_sha": prov["git_sha"], "src_sha256": prov["src_sha256"],
            "machine_speed": stats["machine_speed"]["median"],
            "correct": bool(result["correct"]),
            "metrics": {name: stats[name]["median"] for name in names}}


def record(runs: dict[str, list[Path]], names: list[str]) -> dict:
    """The BENCH record of labelled result files, ``{side: [paths]}``."""
    groups: dict = {}
    for side, paths in runs.items():
        for path in paths:
            run = load_run(path, names)
            key = (run["workload"], str(run["seed"]))
            groups.setdefault(key, {}).setdefault(side, []).append(run)
    workloads: dict = {}
    for (workload, seed), sides in sorted(groups.items()):
        out = workloads.setdefault(workload, {}).setdefault(seed, {})
        for side in SIDES:
            group = sides.get(side)
            if not group:
                continue
            out[side] = {
                "runs": len(group),
                "correct": sum(run["correct"] for run in group),
                "git_sha": sorted({run["git_sha"] for run in group}),
                "src_sha256": sorted({run["src_sha256"] for run in group}),
                "machine_speed": spread([run["machine_speed"] for run in group]),
                "metrics": {name: spread([run["metrics"][name] for run in group])
                            for name in names}}
    return {"metrics": names, "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path, help="the BENCH JSON to write")
    for side in SIDES:
        parser.add_argument(f"--{side}", nargs="+", type=Path, default=[],
                            help=f"perfbench result files of the {side} commit")
    args = parser.parse_args(argv)
    if not args.parent and not args.change:
        parser.error("give at least one result file")
    bench = record({side: getattr(args, side) for side in SIDES}, end_to_end_names())
    args.out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

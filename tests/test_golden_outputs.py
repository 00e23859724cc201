"""Golden outputs: the sha256 of every file that a fixed set of CLI runs writes.

The runs cover every mode: the four solver modes on the fixture config of
criterion 9, again with norm-proportional sampling and minibatch 4, the desk
queue benchmark at 400 steps and m = 16, a simulated desk policy evaluation
and one penalty grid, whose printed points count as a file. They run in one
process, from a directory that holds copies of the two fixtures given by
relative path, so no summary embeds the path of a checkout. The table in ``tests/data/golden_sha256.json`` records
the numpy and scipy versions it was made with; a failure names every file
that differs, and any version that does not match.

A change that moves an output on purpose rewrites the table with

    PYTHONPATH=src python tests/test_golden_outputs.py

and lists the files that moved, and why, in CHANGES.md.
"""
import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np
import scipy

from dualalp.cli import main

DATA = Path(__file__).parent / "data"
TABLE = DATA / "golden_sha256.json"

SOLVER_CONFIG = {
    "problem": {"mdp_path": "mdp4.json"},
    "features": {"path": "features3.json"},
    "solver": {"penalty": 2.0, "radius": 1.5, "iterations": 300, "seed": 5,
               "tolerance": 0.6, "failure_prob": 0.2},
    "meta": {"violation_bound": 0.8, "selection_weight": 0.8},
    "eval": {"mode": "exact"},
}
MINIBATCH_CONFIG = {
    **SOLVER_CONFIG,
    "sampling": {"scheme": "norm-proportional"},
    "solver": {**SOLVER_CONFIG["solver"], "minibatch": 4},
}
BENCH_CONFIG = {"bench": {"iterations": 400, "minibatch": 16, "seed": 5}}
EVAL_CONFIG = {
    "problem": {"queue_preset": "desk"},
    "policy": {"heuristic": "LBFS"},
    "eval": {"mode": "simulated", "horizon": 2000, "burn_in": 200, "reps": 2},
}
SOLVER_MODES = ("solve-avg", "solve-disc", "meta-avg", "meta-disc")

# output directory -> (config or None, CLI arguments before --config/--out)
RUNS = {
    **{mode: (SOLVER_CONFIG, [mode]) for mode in SOLVER_MODES},
    **{f"{mode}-minibatch": (MINIBATCH_CONFIG, [mode]) for mode in SOLVER_MODES},
    "bench-queue": (BENCH_CONFIG, ["bench-queue", "--preset", "desk"]),
    "eval-policy": (EVAL_CONFIG, ["eval-policy"]),
    "print-grid": (None, ["print-grid", "--v-max", "1.0", "--beta", "1.0",
                          "--epsilon", "0.5"]),
}


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def run_all(work: Path) -> dict:
    """Run every config in ``work`` (which becomes the working directory for
    the runs) and return {relative output path: sha256}."""
    for name in ("mdp4.json", "features3.json"):
        shutil.copy(DATA / name, work / name)
    previous = os.getcwd()
    os.chdir(work)
    try:
        for out, (config, args) in RUNS.items():
            if config is not None:
                Path(f"{out}.json").write_text(json.dumps(config))
                args = args + ["--config", f"{out}.json"]
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                assert main(args + ["--out", f"out/{out}"]) == 0, out
            if printed.getvalue():
                Path(f"out/{out}/stdout.txt").write_text(printed.getvalue())
    finally:
        os.chdir(previous)
    root = work / "out"
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_golden_outputs(tmp_path):
    table = json.loads(TABLE.read_text())
    got = run_all(tmp_path)
    want = table["sha256"]
    moved = sorted(name for name in set(got) | set(want) if got.get(name) != want.get(name))
    mismatch = {k: (table["versions"][k], v) for k, v in versions().items()
                if table["versions"][k] != v}
    assert not moved, (f"{len(moved)} output files differ from the golden table: {moved}"
                       + (f"; table made with other versions (table, here): {mismatch}"
                          if mismatch else ""))


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as work:
        hashes = run_all(Path(work))
    TABLE.write_text(json.dumps({"versions": versions(), "sha256": hashes},
                                sort_keys=True, indent=2) + "\n")
    print(f"wrote {len(hashes)} hashes to {TABLE}", file=sys.stderr)

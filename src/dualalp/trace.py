"""Per-run trace records and their on-disk table format.

Trace tables are comma-delimited with a fixed header ``t,objective,v_hat,
eval_cost``; a missing evaluated cost is an empty cell, never zero. Floats are
written with ``repr`` so files round-trip losslessly and byte-identically
across reruns.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputShapeError
from .mdp import Policy

TRACE_COLUMNS = ("t", "objective", "v_hat", "eval_cost")


@dataclass
class RunTrace:
    """Recorded SGD run: per-row iteration count, linear objective of the
    running average, estimated total violation, and (optionally) the evaluated
    policy cost, plus the final averaged parameters and their policy."""

    iterations: np.ndarray
    objective: np.ndarray
    v_hat: np.ndarray
    eval_cost: np.ndarray  # NaN where no evaluation was recorded
    theta: np.ndarray
    policy: Policy

    def __post_init__(self):
        n = len(self.iterations)
        if not (len(self.objective) == len(self.v_hat) == len(self.eval_cost) == n):
            raise InputShapeError("trace columns must have equal length")
        if n and np.any(np.diff(self.iterations) <= 0):
            raise InputShapeError("trace iterations must be strictly increasing")

    def rows(self):
        for i in range(len(self.iterations)):
            yield (int(self.iterations[i]), float(self.objective[i]),
                   float(self.v_hat[i]), float(self.eval_cost[i]))

    def write_csv(self, path) -> None:
        with open(path, "w", newline="\n") as handle:
            handle.write(",".join(TRACE_COLUMNS) + "\n")
            for t, obj, v_hat, cost in self.rows():
                cost_cell = "" if np.isnan(cost) else repr(cost)
                handle.write(f"{t},{obj!r},{v_hat!r},{cost_cell}\n")


@dataclass
class MetaResult:
    """Output of a penalty-grid meta run.

    Selection bookkeeping is kept per grid point so the choice can be audited
    offline: ``selection_values[k]`` is recomputable from ``linear_objectives``,
    ``violation_estimates`` and the grid alone. ``violation_samples`` is the
    cap on each point's violation draws per side and ``violation_draws[k]``
    the draws point k's estimate used.
    """

    grid_points: np.ndarray
    selection_weight: float
    traces: list = field(default_factory=list)
    linear_objectives: np.ndarray = None
    violation_estimates: np.ndarray = None
    selection_values: np.ndarray = None
    chosen_index: int = 0
    theta: np.ndarray = None
    policy: Policy = None
    iterations_per_point: np.ndarray = None
    violation_samples: int = 0
    violation_draws: np.ndarray = None

    @property
    def chosen_penalty(self) -> float:
        return float(self.grid_points[self.chosen_index])


def read_trace_csv(path) -> dict[str, np.ndarray]:
    """Parse a trace table back into column arrays (eval gaps become NaN). A
    bad header, or a row other than four cells that parse, raises
    InputShapeError, naming the row's line; a byte that is not UTF-8 reads
    as U+FFFD, which no cell parses."""
    with open(path, encoding="utf-8", errors="replace") as handle:
        header = handle.readline().strip().split(",")
        if tuple(header) != TRACE_COLUMNS:
            raise InputShapeError(f"unexpected trace header {header!r}")
        cols = {name: [] for name in TRACE_COLUMNS}
        for number, line in enumerate(handle, 2):
            try:
                t, objective, v_hat, cost = line.rstrip("\n").split(",")
                row = int(t), float(objective), float(v_hat), float(cost) if cost else np.nan
            except ValueError as exc:  # a short or long row, or a cell that does not parse
                raise InputShapeError(f"trace line {number}: {exc}") from exc
            for column, value in zip(cols.values(), row):
                column.append(value)
    return {name: np.asarray(values) for name, values in cols.items()}

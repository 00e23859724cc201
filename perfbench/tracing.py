"""In-memory span tracing of the dualalp layers, installed from outside the
package.

A wrapper replaces a layer's public entry point in every namespace where a
caller looks it up: a module that imports a function by name keeps its own
reference, so that reference is wrapped as well. Each call records a span
(name, start, end, parent span, one or two numeric payloads such as draws or
rows) in flat arrays; every span of one workload unit carries that unit's run
identifier. Exceptions that cross a wrapper are counted against its layer and
re-raised. Spans stay in memory until :meth:`Tracer.write_csv`.
"""
from __future__ import annotations

import csv
import functools
import gzip
import math
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

from dualalp import avgcost, cli, discounted, features, mdp, queueing, trace

LAYERS = ("queueing", "mdp", "features", "avgcost", "discounted", "grid", "sgd",
          "cli", "trace")


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _binds(args, kwargs, result):
    """1 when the projected point lies on the radius sphere (the ball binds)."""
    radius = float(_arg(args, kwargs, 1, "radius"))
    return 0.0, float(float(result @ result) >= radius * radius * (1.0 - 1e-9))


def _size(position: int, name: str):
    def measure(args, kwargs, result):
        return float(_arg(args, kwargs, position, name)), 0.0
    return measure


def _gathered(args, kwargs, result):
    return float(len(args[1])), float(result.nbytes)


def _sim_steps(args, kwargs, result):
    return float(_arg(args, kwargs, 2, "horizon") * _arg(args, kwargs, 4, "reps")), 0.0


def _sgd_run(args, kwargs, result):
    return float(_arg(args, kwargs, 1, "iterations")), float(kwargs.get("minibatch", 1))


def _grid_points(args, kwargs, result):
    return float(len(result)), 0.0


def _trace_rows(args, kwargs, result):
    return float(len(args[0].iterations)), 0.0


# (namespace, attribute, layer, span name, payload measure): the entry points
# the four workloads reach, in each namespace their callers look them up in
ENTRY_POINTS = (
    (queueing, "build_mdp", "queueing", "queueing.build_mdp", None),
    (queueing, "build_features", "queueing", "queueing.build_features", None),
    (queueing, "heuristic_policy", "queueing", "queueing.heuristic_policy", None),
    (queueing, "evaluate_policy_simulated", "queueing", "queueing.simulate", _sim_steps),
    (mdp, "stationary_distribution", "mdp", "mdp.stationary", None),
    (mdp, "solve_optimal", "mdp", "mdp.solve_optimal", None),
    (mdp, "discounted_visits", "mdp", "mdp.discounted_visits", None),
    (mdp, "value_function", "mdp", "mdp.value_function", None),
    (features, "make_norm_proportional_sampling", "features", "features.sampler_build", None),
    (cli, "make_norm_proportional_sampling", "features", "features.sampler_build", None),
    (features.SamplingPair, "sample_pairs", "features", "features.sample", _size(2, "size")),
    (features.SamplingPair, "sample_states", "features", "features.sample", _size(2, "size")),
    (features.FeatureSpace, "rows", "features", "features.rows", _gathered),
    (features.FeatureSpace, "drift_rows", "features", "features.drift_rows", _gathered),
    (features.FeatureSpace, "feasibility_rows", "features", "features.feasibility_rows",
     _gathered),
    (avgcost, "sgd_solve_avg", "avgcost", "avgcost.sgd_solve", None),
    (avgcost, "project_theta_avg", "avgcost", "avgcost.project", _binds),
    (avgcost, "estimate_violations", "avgcost", "avgcost.estimate", _size(4, "n")),
    (avgcost, "meta_solve_avg", "avgcost", "avgcost.meta", None),
    (avgcost, "run_projected_sgd", "sgd", "sgd.run", _sgd_run),
    (avgcost, "build_penalty_grid", "grid", "grid.build", _grid_points),
    (discounted, "sgd_solve_disc", "discounted", "discounted.sgd_solve", None),
    (discounted, "project_theta_disc", "discounted", "discounted.project", _binds),
    (discounted, "estimate_violations_disc", "discounted", "discounted.estimate",
     _size(6, "n")),
    (discounted, "meta_solve_disc", "discounted", "discounted.meta", None),
    (discounted, "run_projected_sgd", "sgd", "sgd.run", _sgd_run),
    (discounted, "build_penalty_grid", "grid", "grid.build", _grid_points),
    (cli, "main", "cli", "cli.main", None),
    (trace.RunTrace, "write_csv", "trace", "trace.write_csv", _trace_rows),
)


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.run_ids: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("d")
        self.extra = array("d")
        self.errors: Counter = Counter()
        self._stack = [-1]
        self._run = -1
        self._origin = time.perf_counter()

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.run.append(self._run)
        self.amount.append(0.0)
        self.extra.append(0.0)
        self.end.append(math.nan)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (a phase or a CLI call)."""
        sid = self._open(self._intern(name))
        try:
            yield sid
        finally:
            self._close(sid)

    def begin_run(self, run_id: str) -> None:
        self._run = len(self.run_ids)
        self.run_ids.append(run_id)

    def wrap(self, fn, layer: str, name: str, measure=None):
        name_id = self._intern(name)
        opener, closer, errors = self._open, self._close, self.errors
        amount, extra = self.amount, self.extra

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = opener(name_id)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[layer] += 1
                raise
            finally:
                closer(sid)
            if measure is not None:
                amount[sid], extra[sid] = measure(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        saved = []
        try:
            for owner, attr, layer, name, measure in ENTRY_POINTS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, layer, name, measure))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def arrays(self) -> dict:
        data = {"name": np.asarray(self.name_id, dtype=np.int64),
                "parent": np.asarray(self.parent, dtype=np.int64),
                "run": np.asarray(self.run, dtype=np.int64),
                "start": np.asarray(self.start, dtype=float),
                "end": np.asarray(self.end, dtype=float),
                "amount": np.asarray(self.amount, dtype=float),
                "extra": np.asarray(self.extra, dtype=float)}
        data["dur"] = data["end"] - data["start"]
        child = np.zeros(len(data["dur"]))
        nested = data["parent"] >= 0
        np.add.at(child, data["parent"][nested], data["dur"][nested])
        data["self"] = data["dur"] - child
        return data

    def write_csv(self, path) -> None:
        """Write every span as a gzip-compressed CSV row (times in seconds from
        the tracer's creation)."""
        data = self.arrays()
        with gzip.open(path, "wt", newline="", compresslevel=1) as handle:
            out = csv.writer(handle)
            out.writerow(["run", "span", "parent", "name", "start_s", "end_s",
                          "amount", "extra"])
            for sid in range(len(data["dur"])):
                out.writerow([self.run_ids[data["run"][sid]] if data["run"][sid] >= 0 else "",
                              sid, int(data["parent"][sid]), self.names[data["name"][sid]],
                              f"{data['start'][sid] - self._origin:.9f}",
                              f"{data['end'][sid] - self._origin:.9f}",
                              repr(float(data["amount"][sid])),
                              repr(float(data["extra"][sid]))])


def _sum(data, mask, key) -> float:
    return float(data[key][mask].sum())


def layer_metrics(tracer: Tracer, run_index: int) -> dict:
    """Per-layer numbers of one traced workload unit."""
    data = tracer.arrays()
    in_run = data["run"] == run_index
    ids = tracer._name_ids

    def sel(*names):
        mask = np.zeros(len(in_run), dtype=bool)
        for name in names:
            if name in ids:
                mask |= data["name"] == ids[name]
        return mask & in_run

    metrics: dict[str, float] = {}

    def put(key, value):
        metrics[key] = float(value)

    build_mdp, build_feat = sel("queueing.build_mdp"), sel("queueing.build_features")
    put("queueing.build_mdp_s", _sum(data, build_mdp, "dur"))
    put("queueing.build_features_self_s", _sum(data, build_feat, "self"))
    put("queueing.heuristic_policy_s", _sum(data, sel("queueing.heuristic_policy"), "dur"))
    sim = sel("queueing.simulate")
    steps = _sum(data, sim, "amount")
    put("queueing.sim_steps", steps)
    put("queueing.sim_us_per_step", _sum(data, sim, "dur") / steps * 1e6 if steps else 0.0)

    stationary = sel("mdp.stationary")
    put("mdp.stationary_calls", stationary.sum())
    put("mdp.stationary_s", _sum(data, stationary, "dur"))
    put("mdp.solve_optimal_s", _sum(data, sel("mdp.solve_optimal"), "dur"))
    put("mdp.discounted_visits_s", _sum(data, sel("mdp.discounted_visits"), "dur"))
    put("mdp.value_function_s", _sum(data, sel("mdp.value_function"), "dur"))

    put("features.sampler_build_s", _sum(data, sel("features.sampler_build"), "dur"))
    sample = sel("features.sample")
    put("features.sample_calls", sample.sum())
    put("features.draws", _sum(data, sample, "amount"))
    put("features.sample_s", _sum(data, sample, "dur"))
    rows = sel("features.rows")
    put("features.rows_calls", rows.sum())
    put("features.rows_gathered", _sum(data, rows, "amount"))
    put("features.rows_s", _sum(data, rows, "dur"))
    drift, feas = sel("features.drift_rows"), sel("features.feasibility_rows")
    put("features.drift_rows_s", _sum(data, drift, "dur"))
    put("features.feasibility_rows_s", _sum(data, feas, "dur"))
    put("features.gather_bytes", _sum(data, rows | drift | feas, "extra"))
    put("features.draw_use_ratio", _draw_use_ratio(tracer, data, sample, sel("sgd.run")))

    for mod in ("avgcost", "discounted"):
        project = sel(f"{mod}.project")
        calls = project.sum()
        estimate = sel(f"{mod}.estimate")
        put(f"{mod}.sgd_solve_s", _sum(data, sel(f"{mod}.sgd_solve"), "dur"))
        put(f"{mod}.project_calls", calls)
        put(f"{mod}.project_s", _sum(data, project, "dur"))
        put(f"{mod}.project_bind_ratio", _sum(data, project, "extra") / calls if calls else 0.0)
        put(f"{mod}.estimate_calls", estimate.sum())
        put(f"{mod}.estimate_draws", _sum(data, estimate, "amount"))
        put(f"{mod}.estimate_s", _sum(data, estimate, "dur"))
        put(f"{mod}.meta_s", _sum(data, sel(f"{mod}.meta"), "dur"))

    grid = sel("grid.build")
    put("grid.points", _sum(data, grid, "amount"))
    put("grid.build_s", _sum(data, grid, "dur"))

    sgd = sel("sgd.run")
    iterations = _sum(data, sgd, "amount")
    put("sgd.iterations", iterations)
    put("sgd.self_s", _sum(data, sgd, "self"))
    put("sgd.self_us_per_iter",
        _sum(data, sgd, "self") / iterations * 1e6 if iterations else 0.0)

    put("cli.self_s", _sum(data, sel("cli.main"), "self"))
    write = sel("trace.write_csv")
    put("trace.write_s", _sum(data, write, "dur"))
    put("trace.rows_written", _sum(data, write, "amount"))
    for layer in LAYERS:
        put(f"{layer}.errors", tracer.errors[layer])
    put("tracing.spans", in_run.sum())
    return metrics


def _draw_use_ratio(tracer: Tracer, data: dict, sample: np.ndarray,
                    sgd: np.ndarray) -> float:
    """Draws consumed by gradient steps over draws sampled for them.

    Gradient draws are the sampling spans inside an SGD loop but outside any
    violation estimate; a step consumes minibatch pairs and minibatch states.
    """
    used = float((data["amount"][sgd] * data["extra"][sgd]).sum()) * 2.0
    if not used:
        return 0.0
    estimate_ids = {tracer._name_ids[n] for n in ("avgcost.estimate", "discounted.estimate")
                    if n in tracer._name_ids}
    sgd_id = tracer._name_ids["sgd.run"]
    parent, name = data["parent"], data["name"]
    sampled = 0.0
    for sid in np.flatnonzero(sample):
        node = parent[sid]
        while node >= 0 and name[node] != sgd_id and name[node] not in estimate_ids:
            node = parent[node]
        if node >= 0 and name[node] == sgd_id:
            sampled += data["amount"][sid]
    return used / sampled if sampled else 0.0

"""Command-line entry point for solver and benchmark runs.

Subcommands: solve-avg, solve-disc, meta-avg, meta-disc, bench-queue,
eval-policy, print-grid. Runs are configured by a single JSON document, with
the master seed overridable by --seed or the DUALALP_SEED environment
variable (seed only; everything else comes from the config). Every run writes
a summary JSON that embeds the fully resolved configuration, so it can be
replayed from the summary alone, plus trace tables for solver runs. Outputs
are byte-identical across reruns with the same config and seed; wall time is
reported on stderr only.

Exit codes: 0 success, 2 configuration or parameter error, 3 capacity error,
4 convergence error, 5 input shape error, 6 sampling support error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import avgcost, discounted, fixtures, queueing
from ._sgd import check_halving_period, check_radius
from .errors import (CapacityError, ConfigError, ConvergenceError, DualAlpError,
                     InputShapeError, SamplingSupportError)
from .features import make_norm_proportional_sampling, make_uniform_sampling
from .grid import build_penalty_grid
from .mdp import (DENSE_GUARD, average_cost, policy_from_occupancy,
                  stationary_state_action, value_function)
from .trace import MetaResult, RunTrace

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAPACITY = 3
EXIT_CONVERGENCE = 4
EXIT_INPUT_SHAPE = 5
EXIT_SAMPLING = 6

# (error class, exit code, message prefix), most specific first: an error
# exits with the first row whose class it is an instance of
EXIT_CODES = (
    (InputShapeError, EXIT_INPUT_SHAPE, "input shape error"),
    (SamplingSupportError, EXIT_SAMPLING, "sampling support error"),
    (ConfigError, EXIT_CONFIG, "config error"),
    (CapacityError, EXIT_CAPACITY, "capacity error"),
    (ConvergenceError, EXIT_CONVERGENCE, "convergence error"),
    (DualAlpError, EXIT_CONFIG, "error"),
)

SEED_ENV_VAR = "DUALALP_SEED"

SOLVER_DEFAULTS = {
    "penalty": 1.0,
    "radius": 2.0,
    "iterations": 1000,
    "learning_rate": "auto",
    "lr_halving_period": None,
    "minibatch": 1,
    "tolerance": 0.05,
    "failure_prob": 0.1,
    "seed": 0,
    "sum_target": 1.0,
    "discount": 0.9,
    "initial_dist": "uniform",
    "enforce_sum_constraint": False,
    "trace_violation_samples": 64,
}
SAMPLING_DEFAULTS = {"scheme": "uniform"}
# scheme -> sampler builder(model, fs, kappa); the builders are looked up in
# this module when a run starts, so wrappers installed here see the call
SAMPLING_SCHEMES = {
    "uniform": lambda model, fs, kappa: make_uniform_sampling(model, fs, kappa),
    "norm-proportional": lambda model, fs, kappa: make_norm_proportional_sampling(
        model, fs, kappa),
}
EVAL_DEFAULTS = {"mode": "none", "horizon": 20000, "burn_in": 2000, "reps": 3}
META_DEFAULTS = {"violation_bound": 1.0, "selection_weight": 1.0,
                 "max_iterations_per_point": None}
BENCH_DEFAULTS = {
    "penalty": 2.0,
    "minibatch": 1000,
    "learning_rate": 1e-4,
    "lr_halving_period": 2000,
    "iterations": 20000,
    "radius": 2.0,
    "seed": 0,
    "trace_stride": None,
    "sampling": "norm-proportional",
    # baseline occupancy: start from the better heuristic and let the solver
    # adjust within zero-sum feature directions ("zero" starts from scratch
    # with the sum-one constraint instead)
    "mu0": "LBFS",
}

QUEUE_PRESETS = {
    "desk": (queueing.DESK_SPEC, queueing.DESK_LOSS_INTERVALS,
             queueing.DESK_COMPONENT_INTERVALS),
    "paper": (queueing.PAPER_SPEC, queueing.PAPER_LOSS_INTERVALS,
              queueing.PAPER_COMPONENT_INTERVALS),
}


# the values other than numbers that a key with a numeric default may take
NON_NUMERIC_VALUES = {"learning_rate": ("auto",), "lr_halving_period": (None,)}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _resolve_section(config: dict, key: str, defaults: dict) -> dict:
    """The defaults updated by the config's section. A key whose default is a
    number must get a number; other keys are checked where they are used."""
    section = dict(defaults)
    extra = config.get(key) or {}
    unknown = set(extra) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown keys in config section {key!r}: {sorted(unknown)}")
    for name, value in extra.items():
        if (_is_number(defaults[name]) and not _is_number(value)
                and value not in NON_NUMERIC_VALUES.get(name, ())):
            raise ConfigError(f"{key}.{name} must be a number, got {value!r}")
    section.update(extra)
    return section


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc


def _resolve_eval(config: dict) -> dict:
    """The eval section, checked before any model is built."""
    section = _resolve_section(config, "eval", EVAL_DEFAULTS)
    if section["mode"] not in ("none", "exact", "simulated"):
        raise ConfigError(f"eval.mode {section['mode']!r} is not none, exact or simulated")
    for key in ("horizon", "burn_in", "reps"):
        if type(section[key]) is not int:
            raise ConfigError(f"eval.{key} must be an integer, got {section[key]!r}")
    if not 0 <= section["burn_in"] < section["horizon"]:
        raise ConfigError(f"eval needs 0 <= burn_in < horizon, got burn_in "
                          f"{section['burn_in']} and horizon {section['horizon']}")
    if section["reps"] < 1:
        raise ConfigError("eval.reps must be >= 1")
    return section


def _resolve_meta(config: dict, mode: str) -> dict:
    """The meta section, checked before any model is built. Only the
    discounted meta-algorithm takes a per-point iteration cap."""
    section = _resolve_section(config, "meta", META_DEFAULTS)
    cap = section["max_iterations_per_point"]
    if cap is not None:
        if type(cap) is not int or cap < 1:
            raise ConfigError(
                f"meta.max_iterations_per_point must be null or a positive integer, got {cap!r}")
        if mode != "meta-disc":
            raise ConfigError(f"meta.max_iterations_per_point is a meta-disc key, not {mode}")
    return section


def _check_simulated_problem(eval_cfg: dict, spec) -> None:
    if eval_cfg["mode"] == "simulated" and spec is None:
        raise ConfigError("simulated evaluation needs a queue problem")


def _resolve_problem(config: dict):
    """Returns (model, queue_spec_or_None, problem_section)."""
    problem = config.get("problem") or {}
    if "mdp_path" in problem:
        model = fixtures.load_mdp_fixture(problem["mdp_path"])
        return model, None, {"mdp_path": problem["mdp_path"]}
    preset = problem.get("queue_preset")
    if preset is not None:
        if preset not in QUEUE_PRESETS:
            raise ConfigError(f"unknown queue preset {preset!r}")
        spec = QUEUE_PRESETS[preset][0]
        model = queueing.build_mdp(spec)
        return model, spec, {"queue_preset": preset}
    raise ConfigError("config needs problem.mdp_path or problem.queue_preset")


def _resolve_features(config: dict, model, spec):
    features = config.get("features") or {}
    if "path" in features:
        return fixtures.load_feature_fixture(features["path"], model), {"path": features["path"]}
    if spec is not None:
        builder = features.get("queue_builder") or {}
        preset = (config.get("problem") or {}).get("queue_preset", "desk")
        _, loss_iv, comp_iv = QUEUE_PRESETS[preset]
        loss_iv = [tuple(p) for p in builder.get("loss_intervals", loss_iv)]
        comp_iv = [tuple(p) for p in builder.get("component_intervals", comp_iv)]
        heuristics = tuple(builder.get("heuristics", ("LONGER", "LBFS")))
        fs, dropped = queueing.build_features(
            spec, model=model, heuristics=heuristics, loss_intervals=loss_iv,
            component_intervals=comp_iv,
            normalize=bool(builder.get("normalize", True)))
        resolved = {"queue_builder": {"loss_intervals": [list(p) for p in loss_iv],
                                      "component_intervals": [list(p) for p in comp_iv],
                                      "heuristics": list(heuristics),
                                      "normalize": bool(builder.get("normalize", True)),
                                      "dropped_columns": len(dropped)}}
        return fs, resolved
    raise ConfigError("config needs features.path (or a queue problem for the builder)")


def _sampler_builder(scheme: str):
    if scheme not in SAMPLING_SCHEMES:
        raise ConfigError(f"unknown sampling scheme {scheme!r}")
    return SAMPLING_SCHEMES[scheme]


def _resolve_sampling(config: dict, model, fs, kappa: float):
    sampling = _resolve_section(config, "sampling", SAMPLING_DEFAULTS)
    return _sampler_builder(sampling["scheme"])(model, fs, kappa), sampling


def _resolve_initial_dist(solver: dict):
    spec = solver.get("initial_dist", "uniform")
    if spec == "uniform" or spec is None:
        return None
    return np.asarray(spec, dtype=float)


def _make_eval_hook(mode_cfg: dict, model, spec, gamma=None, alpha=None):
    mode = mode_cfg["mode"]
    if mode == "none":
        return None
    if mode == "exact":
        if gamma is None:
            return lambda theta, policy: average_cost(model, policy)
        weights = alpha if alpha is not None else np.full(model.num_states,
                                                          1.0 / model.num_states)
        return lambda theta, policy: float(weights @ value_function(model, policy, gamma))
    return lambda theta, policy: queueing.evaluate_policy_simulated(
        spec, policy, mode_cfg["horizon"], mode_cfg["burn_in"], mode_cfg["reps"], seed=0)[0]


def _write_json(doc: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(doc, handle, sort_keys=True, indent=2)
        handle.write("\n")


def _write_summary(out_dir: Path, mode: str, resolved_config: dict, seed,
                   iterations: int, result: dict) -> dict:
    summary = {"config": {"mode": mode, **resolved_config},
               "provenance": {"seed": seed, "iterations": int(iterations)},
               "result": result}
    _write_json(summary, out_dir / "summary.json")
    return summary


def _trace_summary(trace: RunTrace) -> dict:
    last = -1 if len(trace.iterations) else None
    return {
        "theta": [float(v) for v in trace.theta],
        "final_objective": float(trace.objective[last]) if last is not None else None,
        "final_violation_estimate": float(trace.v_hat[last]) if last is not None else None,
        "final_eval_cost": (None if last is None or np.isnan(trace.eval_cost[last])
                            else float(trace.eval_cost[last])),
    }


def _meta_summary(result: MetaResult) -> dict:
    return {
        "grid_points": [float(h) for h in result.grid_points],
        "selection_weight": float(result.selection_weight),
        "linear_objectives": [float(v) for v in result.linear_objectives],
        "violation_estimates": [float(v) for v in result.violation_estimates],
        "selection_values": [float(v) for v in result.selection_values],
        "chosen_index": int(result.chosen_index),
        "chosen_penalty": float(result.chosen_penalty),
        "iterations_per_point": [int(v) for v in result.iterations_per_point],
        "violation_samples": int(result.violation_samples),
        "theta": [float(v) for v in result.theta],
    }


class _Objective(NamedTuple):
    """What separates an average-cost solver run from a discounted one."""

    kappa: float                # rate of the sampling distributions
    gamma: float | None         # discount of the exact evaluation (None: average cost)
    alpha: np.ndarray | None    # initial state distribution (None: uniform)
    config_cls: type            # SGD run configuration
    config_args: dict           # its fields that only this objective has
    sgd_solve: Callable
    meta_solve: Callable
    meta_args: dict             # meta-solver arguments that only this objective takes
    violations_exact: Callable  # theta -> (negative mass, residual)
    summary: dict               # summary fields that only this objective writes


def _avg_objective(model, fs, solver: dict) -> _Objective:
    avgcost._in_plane_radius_sq(solver["radius"], solver["sum_target"], fs.dim, ConfigError)
    sum_target = {"sum_target": solver["sum_target"]}
    return _Objective(1.0, None, None, avgcost.AvgSolverConfig, sum_target,
                      avgcost.sgd_solve_avg, avgcost.meta_solve_avg, sum_target,
                      lambda theta: avgcost.violations_exact(model, fs, theta), {})


def _disc_objective(model, fs, solver: dict) -> _Objective:
    gamma = float(solver["discount"])
    alpha = _resolve_initial_dist(solver)
    enforce = bool(solver["enforce_sum_constraint"])
    if enforce and 0.0 < gamma < 1.0:  # the solver rejects every other discount
        avgcost._in_plane_radius_sq(solver["radius"], 1.0 / (1.0 - gamma), fs.dim, ConfigError)
    return _Objective(
        gamma, gamma, alpha, discounted.DiscSolverConfig,
        {"discount": gamma, "initial_dist": alpha, "enforce_sum_constraint": enforce},
        discounted.sgd_solve_disc, discounted.meta_solve_disc,
        {"gamma": gamma, "alpha": alpha, "enforce_sum_constraint": enforce},
        lambda theta: discounted.violations_exact_disc(model, fs, gamma, alpha, theta),
        {"discount": gamma, "alpha_spec": solver.get("initial_dist", "uniform")})


# mode -> (objective, whether the run is a penalty-grid meta run)
SOLVER_MODES = {
    "solve-avg": (_avg_objective, False),
    "solve-disc": (_disc_objective, False),
    "meta-avg": (_avg_objective, True),
    "meta-disc": (_disc_objective, True),
}


def run_solver(mode: str, config: dict, out_dir: Path) -> dict:
    """One SGD run (solve-*) or one penalty-grid meta run (meta-*) of the
    average-cost (*-avg) or discounted (*-disc) surrogate."""
    make_objective, meta_run = SOLVER_MODES[mode]
    solver = _resolve_section(config, "solver", SOLVER_DEFAULTS)
    check_radius(solver["radius"], ConfigError)
    check_halving_period(solver["lr_halving_period"], ConfigError)
    meta = _resolve_meta(config, mode) if meta_run else None
    eval_cfg = _resolve_eval(config)
    model, spec, problem_cfg = _resolve_problem(config)
    _check_simulated_problem(eval_cfg, spec)
    fs, features_cfg = _resolve_features(config, model, spec)
    objective = make_objective(model, fs, solver)
    sampler, sampling_cfg = _resolve_sampling(config, model, fs, kappa=objective.kappa)
    stride = config.get("trace_stride")
    resolved = {"problem": problem_cfg, "features": features_cfg, "sampling": sampling_cfg,
                "solver": solver, "trace_stride": stride, "eval": eval_cfg}
    hook = _make_eval_hook(eval_cfg, model, spec, gamma=objective.gamma, alpha=objective.alpha)
    if meta_run:
        resolved["meta"] = meta
        cap = meta["max_iterations_per_point"]  # not None only for meta-disc
        result = objective.meta_solve(
            model, fs, sampler, violation_bound=meta["violation_bound"],
            selection_weight=meta["selection_weight"], tolerance=solver["tolerance"],
            failure_prob=solver["failure_prob"], seed=int(solver["seed"]),
            radius=solver["radius"], learning_rate=solver["learning_rate"],
            minibatch=int(solver["minibatch"]), trace_stride=stride, eval_hook=hook,
            **objective.meta_args,
            **({} if cap is None else {"max_iterations_per_point": cap}))
        for k, trace in enumerate(result.traces):
            trace.write_csv(out_dir / f"trace_{k:03d}.csv")
        iterations = int(result.iterations_per_point.sum())
        fields = _meta_summary(result)
    else:
        cfg = objective.config_cls(
            penalty=solver["penalty"], radius=solver["radius"],
            iterations=int(solver["iterations"]), learning_rate=solver["learning_rate"],
            lr_halving_period=solver["lr_halving_period"], minibatch=int(solver["minibatch"]),
            tolerance=solver["tolerance"], failure_prob=solver["failure_prob"],
            seed=int(solver["seed"]), trace_stride=stride,
            trace_violation_samples=int(solver["trace_violation_samples"]),
            **objective.config_args)
        trace = objective.sgd_solve(model, fs, sampler, cfg, eval_hook=hook)
        trace.write_csv(out_dir / "trace.csv")
        iterations = cfg.iterations
        fields = {"penalty": solver["penalty"], **_trace_summary(trace)}
        if model.num_pairs <= DENSE_GUARD:
            fields["violations_exact"] = list(objective.violations_exact(trace.theta))
    return _write_summary(out_dir, mode, resolved, solver["seed"], iterations,
                          {**fields, **objective.summary})


def run_bench_queue(config: dict, out_dir: Path, preset: str = "desk") -> dict:
    """Queue benchmark. The desk preset solves the exact model with the
    benchmark SGD settings and reports exact average losses of the two
    heuristics and of the solved policy; the paper preset is trajectory-only
    (simulated heuristic baselines, no exact solve)."""
    if preset not in QUEUE_PRESETS:
        raise ConfigError(f"unknown queue preset {preset!r}")
    spec, loss_iv, comp_iv = QUEUE_PRESETS[preset]
    bench = _resolve_section(config, "bench", BENCH_DEFAULTS)
    check_radius(bench["radius"], ConfigError)
    check_halving_period(bench["lr_halving_period"], ConfigError)
    build_sampler = _sampler_builder(bench["sampling"])
    eval_cfg = _resolve_eval(config)
    resolved = {"problem": {"queue_preset": preset}, "bench": bench, "eval": eval_cfg}
    if preset == "paper":
        results = {}
        for kind in ("LONGER", "LBFS"):
            policy = queueing.heuristic_policy(spec, kind)
            mean, std = queueing.evaluate_policy_simulated(
                spec, policy, eval_cfg["horizon"], eval_cfg["burn_in"],
                eval_cfg["reps"], seed=int(bench["seed"]))
            results[kind] = {"simulated_loss": mean, "std": std}
        return _write_summary(out_dir, "bench-queue", resolved, bench["seed"], 0,
                              {"baselines": results, "solved": None})
    model = queueing.build_mdp(spec)
    if bench["mu0"] in ("LONGER", "LBFS"):
        mu0 = stationary_state_action(model, queueing.heuristic_policy(spec, bench["mu0"]))
        sum_target = 0.0  # mu0 already carries the unit mass
    elif bench["mu0"] in ("zero", None):
        mu0, sum_target = None, 1.0
    else:
        raise ConfigError(f"unknown bench mu0 {bench['mu0']!r}")
    fs, dropped = queueing.build_features(spec, model=model, loss_intervals=loss_iv,
                                          component_intervals=comp_iv, mu0=mu0)
    avgcost._in_plane_radius_sq(bench["radius"], sum_target, fs.dim, ConfigError)
    sampler = build_sampler(model, fs, 1.0)
    cfg = avgcost.AvgSolverConfig(
        penalty=bench["penalty"], radius=bench["radius"],
        iterations=int(bench["iterations"]), learning_rate=bench["learning_rate"],
        lr_halving_period=bench["lr_halving_period"], minibatch=int(bench["minibatch"]),
        seed=int(bench["seed"]), sum_target=sum_target,
        trace_stride=bench["trace_stride"])
    trace = avgcost.sgd_solve_avg(model, fs, sampler, cfg)
    trace.write_csv(out_dir / "trace.csv")
    baselines = {}
    for kind in ("LONGER", "LBFS"):
        policy = queueing.heuristic_policy(spec, kind)
        baselines[kind] = {"exact_loss": average_cost(model, policy) * spec.total_capacity}
    solved_loss = average_cost(model, trace.policy) * spec.total_capacity
    return _write_summary(out_dir, "bench-queue", resolved, bench["seed"], cfg.iterations, {
        "baselines": baselines,
        "solved": {"exact_loss": solved_loss, **_trace_summary(trace)},
        "num_features": fs.dim, "dropped_columns": len(dropped),
    })


def run_eval_policy(config: dict, out_dir: Path) -> dict:
    eval_cfg = _resolve_eval(config)
    model, spec, problem_cfg = _resolve_problem(config)
    _check_simulated_problem(eval_cfg, spec)
    policy_cfg = config.get("policy") or {}
    if "heuristic" in policy_cfg:
        if spec is None:
            raise ConfigError("heuristic policies need a queue problem")
        policy = queueing.heuristic_policy(spec, policy_cfg["heuristic"])
        label = policy_cfg["heuristic"]
    elif "theta" in policy_cfg:
        fs, _ = _resolve_features(config, model, spec)
        theta = np.asarray(policy_cfg["theta"], dtype=float)
        policy = policy_from_occupancy(fs.occupancy_vector(theta), model.num_actions)
        label = "theta"
    else:
        raise ConfigError("config needs policy.heuristic or policy.theta")
    result: dict = {"policy": label}
    if eval_cfg["mode"] != "simulated":  # "none" evaluates exactly too
        result["average_loss"] = average_cost(model, policy)
    else:
        mean, std = queueing.evaluate_policy_simulated(
            spec, policy, eval_cfg["horizon"], eval_cfg["burn_in"], eval_cfg["reps"],
            seed=0)
        result["simulated_loss"] = mean
        result["std"] = std
    resolved = {"problem": problem_cfg, "policy": policy_cfg, "eval": eval_cfg}
    return _write_summary(out_dir, "eval-policy", resolved, 0, 0, result)


def run_print_grid(violation_bound: float, weight: float, tolerance: float,
                   out_dir: Path | None) -> dict:
    grid = build_penalty_grid(violation_bound, weight, tolerance)
    for point in grid.points:
        print(repr(float(point)))
    summary = {"config": {"mode": "print-grid", "violation_bound": violation_bound,
                          "selection_weight": weight, "tolerance": tolerance},
               "result": {"points": [float(p) for p in grid.points]},
               "provenance": {"seed": None, "iterations": 0}}
    if out_dir is not None:
        _write_json(summary, out_dir / "summary.json")
    return summary


# mode -> runner(args, config, out_dir); print-grid runs without a config
RUNNERS = {
    **dict.fromkeys(SOLVER_MODES, lambda args, config, out_dir: run_solver(
        args.mode, config, out_dir)),
    "bench-queue": lambda args, config, out_dir: run_bench_queue(
        config, out_dir, preset=args.preset),
    "eval-policy": lambda args, config, out_dir: run_eval_policy(config, out_dir),
}


def _apply_seed_override(config: dict, cli_seed: int | None) -> None:
    seed = cli_seed
    if seed is None and SEED_ENV_VAR in os.environ:
        try:
            seed = int(os.environ[SEED_ENV_VAR])
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer") from exc
    if seed is not None:
        config.setdefault("solver", {})["seed"] = seed
        config.setdefault("bench", {})["seed"] = seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dualalp",
                                     description="Dual-ALP planners for large MDPs")
    sub = parser.add_subparsers(dest="mode", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to the JSON run configuration")
    common.add_argument("--seed", type=int, default=None, help="master seed override")
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--trace-stride", type=int, default=None,
                        help="record every N-th iteration")
    for mode in (*SOLVER_MODES, "eval-policy"):
        sub.add_parser(mode, parents=[common])
    bench = sub.add_parser("bench-queue", parents=[common])
    bench.add_argument("--preset", choices=("paper", "desk"), default="desk")
    grid = sub.add_parser("print-grid")
    grid.add_argument("--v-max", type=float, required=True, dest="v_max")
    grid.add_argument("--beta", type=float, required=True)
    grid.add_argument("--epsilon", type=float, required=True)
    grid.add_argument("--out", default=None)
    return parser


def run(args) -> int:
    if args.mode == "print-grid":
        out_dir = Path(args.out) if args.out else None
        run_print_grid(args.v_max, args.beta, args.epsilon, out_dir)
        return EXIT_OK
    config = _load_config(args.config)
    _apply_seed_override(config, args.seed)
    if args.trace_stride is not None:
        config["trace_stride"] = args.trace_stride
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    RUNNERS[args.mode](args, config, out_dir)
    elapsed = time.perf_counter() - started
    print(f"{args.mode}: done in {elapsed:.2f}s, outputs in {out_dir}", file=sys.stderr)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except DualAlpError as exc:
        code, prefix = next((code, prefix) for cls, code, prefix in EXIT_CODES
                            if isinstance(exc, cls))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())

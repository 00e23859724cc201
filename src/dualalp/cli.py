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
from .mdp import (_check_state_distribution, average_cost, fixed_dot, is_integer, is_number,
                  is_number_list, policy_from_occupancy, stationary_state_action,
                  value_function)
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


def _rule(what: str, ok: Callable, numeric: bool = True) -> Callable:
    """A table row's check(name, value), which raises ConfigError unless
    ok(value) holds; a numeric rule first needs a number."""
    def check(name: str, value) -> None:
        if numeric and not is_number(value):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if not ok(value):
            raise ConfigError(f"{name} must be {what}, got {value!r}")
    return check


def _one_of(*choices) -> Callable:
    return _rule(f"one of {list(choices)}", lambda v: v in choices, numeric=False)


_number = _rule("a number", lambda v: True)
_positive = _rule("positive", lambda v: v > 0)
_fraction = _rule("in (0, 1)", lambda v: 0 < v < 1)
_positive_int = _rule("a positive integer", lambda v: is_integer(v) and v >= 1)
_nonnegative_int = _rule("a non-negative integer", lambda v: is_integer(v) and v >= 0)
_cap = _rule("null or a positive integer",
             lambda v: v is None or (is_integer(v) and v >= 1), numeric=False)
_flag = _rule("true or false", lambda v: type(v) is bool, numeric=False)
_path = _rule("null or a file path", lambda v: v is None or isinstance(v, str), numeric=False)
_distribution = _rule('"uniform", null or a list of finite numbers',
                      lambda v: v in ("uniform", None) or is_number_list(v), numeric=False)
_theta = _rule("a list of finite numbers", is_number_list, numeric=False)


def _rate(name: str, value) -> None:
    if value != "auto":
        _positive(name, value)


def _radius(name: str, value) -> None:
    _number(name, value)
    check_radius(value, ConfigError)  # the solvers' own rule and message


def _halving(name: str, value) -> None:
    check_halving_period(value, ConfigError)  # the solvers' own rule and message


# scheme -> sampler builder(model, fs, kappa); the builders are looked up in
# this module when a run starts, so wrappers installed here see the call
SAMPLING_SCHEMES = {
    "uniform": lambda model, fs, kappa: make_uniform_sampling(model, fs, kappa),
    "norm-proportional": lambda model, fs, kappa: make_norm_proportional_sampling(
        model, fs, kappa),
}

SOLVER_DEFAULTS = {
    "penalty": (1.0, _positive),
    "radius": (2.0, _radius),
    "iterations": (1000, _positive_int),
    "learning_rate": ("auto", _rate),
    "lr_halving_period": (None, _halving),
    "minibatch": (1, _positive_int),
    "tolerance": (0.05, _positive),
    "failure_prob": (0.1, _fraction),
    "seed": (0, _nonnegative_int),
    "sum_target": (1.0, _number),
    "discount": (0.9, _fraction),
    "initial_dist": ("uniform", _distribution),
    "enforce_sum_constraint": (False, _flag),
    "trace_violation_samples": (64, _positive_int),
}
SAMPLING_DEFAULTS = {"scheme": ("uniform", _one_of(*SAMPLING_SCHEMES))}
# null: a queue problem builds its preset's features
_FEATURES_DEFAULTS = {"path": (None, _path)}
EVAL_DEFAULTS = {
    "mode": ("none", _one_of("none", "exact", "simulated")),
    "horizon": (20000, _positive_int),
    "burn_in": (2000, _nonnegative_int),
    "reps": (3, _positive_int),
}
META_DEFAULTS = {
    "violation_bound": (1.0, _positive),
    "selection_weight": (1.0, _positive),
    "max_iterations_per_point": (None, _cap),  # meta-disc only
}
BENCH_DEFAULTS = {
    "penalty": (2.0, _positive),
    "minibatch": (1000, _positive_int),
    "learning_rate": (1e-4, _rate),
    "lr_halving_period": (2000, _halving),
    "iterations": (20000, _positive_int),
    "radius": (2.0, _radius),
    "seed": (0, _nonnegative_int),
    "sampling": ("norm-proportional", _one_of(*SAMPLING_SCHEMES)),
    # baseline occupancy: start from the better heuristic and let the solver
    # adjust within zero-sum feature directions ("zero" starts from scratch
    # with the sum-one constraint instead)
    "mu0": ("LBFS", _one_of("LONGER", "LBFS", "zero", None)),
}

QUEUE_PRESETS = {
    "desk": (queueing.DESK_SPEC, queueing.DESK_LOSS_INTERVALS,
             queueing.DESK_COMPONENT_INTERVALS),
    "paper": (queueing.PAPER_SPEC, queueing.PAPER_LOSS_INTERVALS,
              queueing.PAPER_COMPONENT_INTERVALS),
}


def _section(config: dict, section: str) -> dict:
    """The config's section, which must be a JSON object; absent or null is empty."""
    values = config.get(section)
    if values is None:
        return {}
    if not isinstance(values, dict):
        raise ConfigError(f"config section {section!r} must be a JSON object, got {values!r}")
    return values


def _resolve_section(config: dict, section: str, table: dict) -> dict:
    """The table's defaults updated by the config's section; checks every value."""
    values = _section(config, section)
    unknown = set(values) - set(table)
    if unknown:
        raise ConfigError(f"unknown keys in config section {section!r}: {sorted(unknown)}")
    resolved = {}
    for key, (default, check) in table.items():
        resolved[key] = values.get(key, default)
        check(f"{section}.{key}", resolved[key])
    return resolved


def _load_config(path: str | None) -> dict:
    """The config file's object. A top-level key outside the known sections
    (and trace_stride) is refused; a mode may ignore a known one."""
    config = {} if path is None else fixtures.read_json(path, "config file")
    unknown = set(config) - {"problem", "features", "sampling", "solver", "eval", "meta",
                             "bench", "policy", "trace_stride"}
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")
    return config


def _resolve_eval(config: dict) -> dict:
    """The eval section, with its one rule across keys."""
    section = _resolve_section(config, "eval", EVAL_DEFAULTS)
    if not section["burn_in"] < section["horizon"]:
        raise ConfigError(f"eval needs burn_in < horizon, got burn_in "
                          f"{section['burn_in']} and horizon {section['horizon']}")
    return section


def _check_simulated(eval_cfg: dict, config: dict, discounted: bool = False) -> None:
    """Simulated evaluation runs the queue simulator, so it needs a queue
    problem and an average-cost run; checked before the model is built."""
    if eval_cfg["mode"] != "simulated":
        return
    if "mdp_path" in _section(config, "problem"):
        raise ConfigError("simulated evaluation needs a queue problem")
    if discounted:  # a trajectory's mean queue length is no discounted cost
        raise ConfigError("simulated evaluation measures average cost; use eval.mode "
                          "exact or none with a discounted solver")


def _resolve_problem(config: dict):
    """Returns (model, queue_spec_or_None, problem_section)."""
    problem = _section(config, "problem")
    if "mdp_path" in problem:
        model = fixtures.load_mdp_fixture(problem["mdp_path"])
        return model, None, {"mdp_path": problem["mdp_path"]}
    preset = problem.get("queue_preset")
    if preset is not None:
        if not isinstance(preset, str) or preset not in QUEUE_PRESETS:  # a list is unhashable
            raise ConfigError(f"unknown queue preset {preset!r}")
        spec = QUEUE_PRESETS[preset][0]
        model = queueing.build_mdp(spec)
        return model, spec, {"queue_preset": preset}
    raise ConfigError("config needs problem.mdp_path or problem.queue_preset")


def _build_features(features: dict, model, spec, problem: dict):
    """The feature fixture at features.path, else the queue preset's features."""
    if features["path"] is not None:
        return fixtures.load_feature_fixture(features["path"], model)
    if spec is None:
        raise ConfigError("config needs features.path (or a queue problem)")
    _, loss_iv, comp_iv = QUEUE_PRESETS[problem["queue_preset"]]
    return queueing.build_features(spec, model=model, loss_intervals=loss_iv,
                                   component_intervals=comp_iv)[0]


def _simulated_cost(mode_cfg: dict, spec, policy) -> tuple[float, float]:
    """Mean and standard deviation of the simulated queue length per unit of
    capacity, the unit of the model's loss and of the exact evaluation."""
    mean, std = queueing.evaluate_policy_simulated(
        spec, policy, mode_cfg["horizon"], mode_cfg["burn_in"], mode_cfg["reps"], seed=0)
    return mean / spec.total_capacity, std / spec.total_capacity


def _make_eval_hook(mode_cfg: dict, model, spec, gamma=None, alpha=None):
    mode = mode_cfg["mode"]
    if mode == "none":
        return None
    if mode == "exact":
        if gamma is None:
            return lambda policy: average_cost(model, policy)
        weights = _check_state_distribution(model, alpha)
        return lambda policy: fixed_dot(weights, value_function(model, policy, gamma))
    return lambda policy: _simulated_cost(mode_cfg, spec, policy)[0]


def _write_trace(trace, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    trace.write_csv(path)


def _write_summary(out_dir: Path, mode: str, resolved_config: dict, seed,
                   iterations: int, result: dict) -> dict:
    summary = {"config": {"mode": mode, **resolved_config},
               "provenance": {"seed": seed, "iterations": int(iterations)},
               "result": result}
    fixtures.write_json(summary, out_dir / "summary.json")
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
        "violation_draws": [int(v) for v in result.violation_draws],
        "theta": [float(v) for v in result.theta],
    }


class _Objective(NamedTuple):
    """What separates an average-cost solver run from a discounted one."""

    gamma: float | None         # discount and sampler rate (None: average cost, rate 1)
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
    return _Objective(None, None, avgcost.AvgSolverConfig, sum_target,
                      avgcost.sgd_solve_avg, avgcost.meta_solve_avg, sum_target,
                      lambda theta: avgcost.violations_exact(model, fs, theta), {})


def _disc_objective(model, fs, solver: dict) -> _Objective:
    gamma, enforce = solver["discount"], solver["enforce_sum_constraint"]
    alpha = None if solver["initial_dist"] in ("uniform", None) else np.asarray(
        solver["initial_dist"], dtype=float)
    if enforce:
        avgcost._in_plane_radius_sq(solver["radius"], 1.0 / (1.0 - gamma), fs.dim, ConfigError)
    return _Objective(
        gamma, alpha, discounted.DiscSolverConfig,
        {"discount": gamma, "initial_dist": alpha, "enforce_sum_constraint": enforce},
        discounted.sgd_solve_disc, discounted.meta_solve_disc,
        {"gamma": gamma, "alpha": alpha, "enforce_sum_constraint": enforce},
        lambda theta: discounted.violations_exact_disc(model, fs, gamma, alpha, theta),
        {"discount": gamma, "alpha_spec": solver["initial_dist"]})


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
    sampling = _resolve_section(config, "sampling", SAMPLING_DEFAULTS)
    features = _resolve_section(config, "features", _FEATURES_DEFAULTS)
    stride = config.get("trace_stride")  # a top-level key, which --trace-stride sets
    _cap("trace_stride", stride)
    eval_cfg = _resolve_eval(config)
    resolved = {"features": features, "sampling": sampling, "solver": solver,
                "trace_stride": stride, "eval": eval_cfg}
    if meta_run:
        meta = resolved["meta"] = _resolve_section(config, "meta", META_DEFAULTS)
        cap = meta["max_iterations_per_point"]
        if cap is not None and mode != "meta-disc":
            raise ConfigError(f"meta.max_iterations_per_point is a meta-disc key, not {mode}")
        # meta summaries do not echo the solver keys that only solve-* runs read
        resolved["solver"] = {key: value for key, value in solver.items() if key not in (
            "penalty", "iterations", "lr_halving_period", "trace_violation_samples")}
    _check_simulated(eval_cfg, config, discounted=make_objective is _disc_objective)
    model, spec, resolved["problem"] = _resolve_problem(config)
    fs = _build_features(features, model, spec, resolved["problem"])
    objective = make_objective(model, fs, solver)
    sampler = SAMPLING_SCHEMES[sampling["scheme"]](model, fs, objective.gamma or 1.0)
    hook = _make_eval_hook(eval_cfg, model, spec, gamma=objective.gamma, alpha=objective.alpha)
    if meta_run:
        result = objective.meta_solve(
            model, fs, sampler, violation_bound=meta["violation_bound"],
            selection_weight=meta["selection_weight"], tolerance=solver["tolerance"],
            failure_prob=solver["failure_prob"], seed=solver["seed"],
            radius=solver["radius"], learning_rate=solver["learning_rate"],
            minibatch=solver["minibatch"], trace_stride=stride, eval_hook=hook,
            **objective.meta_args,
            **({} if cap is None else {"max_iterations_per_point": cap}))
        for k, trace in enumerate(result.traces):
            _write_trace(trace, out_dir / f"trace_{k:03d}.csv")
        iterations = int(result.iterations_per_point.sum())
        fields = _meta_summary(result)
    else:
        cfg = objective.config_cls(
            penalty=solver["penalty"], radius=solver["radius"],
            iterations=solver["iterations"], learning_rate=solver["learning_rate"],
            lr_halving_period=solver["lr_halving_period"], minibatch=solver["minibatch"],
            seed=solver["seed"], trace_stride=stride,
            trace_violation_samples=solver["trace_violation_samples"],
            **objective.config_args)
        trace = objective.sgd_solve(model, fs, sampler, cfg, eval_hook=hook)
        _write_trace(trace, out_dir / "trace.csv")
        iterations = cfg.iterations
        fields = {"penalty": solver["penalty"], **_trace_summary(trace)}
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
    stride = config.get("trace_stride")  # a top-level key, which --trace-stride sets
    _cap("trace_stride", stride)
    eval_cfg = _resolve_eval(config)
    resolved = {"problem": {"queue_preset": preset}, "bench": bench, "trace_stride": stride,
                "eval": eval_cfg}
    if preset == "paper":
        results = {}
        for kind in ("LONGER", "LBFS"):
            policy = queueing.heuristic_policy(spec, kind)
            mean, std = queueing.evaluate_policy_simulated(
                spec, policy, eval_cfg["horizon"], eval_cfg["burn_in"],
                eval_cfg["reps"], seed=bench["seed"])
            results[kind] = {"simulated_loss": mean, "std": std}
        return _write_summary(out_dir, "bench-queue", resolved, bench["seed"], 0,
                              {"baselines": results, "solved": None})
    model = queueing.build_mdp(spec)
    if bench["mu0"] in ("LONGER", "LBFS"):
        mu0 = stationary_state_action(model, queueing.heuristic_policy(spec, bench["mu0"]))
        sum_target = 0.0  # mu0 already carries the unit mass
    else:  # "zero" or null
        mu0, sum_target = None, 1.0
    fs, dropped = queueing.build_features(spec, model=model, loss_intervals=loss_iv,
                                          component_intervals=comp_iv, mu0=mu0)
    avgcost._in_plane_radius_sq(bench["radius"], sum_target, fs.dim, ConfigError)
    sampler = SAMPLING_SCHEMES[bench["sampling"]](model, fs, 1.0)
    cfg = avgcost.AvgSolverConfig(
        penalty=bench["penalty"], radius=bench["radius"],
        iterations=bench["iterations"], learning_rate=bench["learning_rate"],
        lr_halving_period=bench["lr_halving_period"], minibatch=bench["minibatch"],
        seed=bench["seed"], sum_target=sum_target, trace_stride=stride)
    trace = avgcost.sgd_solve_avg(model, fs, sampler, cfg)
    _write_trace(trace, out_dir / "trace.csv")
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


def _resolve_policy(config: dict) -> dict:
    """The policy section: exactly one of a known heuristic, on a queue
    problem, and a theta of finite numbers (its length is checked once the
    features exist)."""
    policy_cfg = _section(config, "policy")
    given = [key for key in ("heuristic", "theta") if key in policy_cfg]
    if len(given) != 1:
        raise ConfigError(f"config needs exactly one of policy.heuristic and policy.theta, "
                          f"got {['policy.' + key for key in given]}")
    key, = given
    check = _one_of("LONGER", "LBFS") if key == "heuristic" else _theta
    check(f"policy.{key}", policy_cfg[key])
    if key == "heuristic" and "mdp_path" in _section(config, "problem"):
        raise ConfigError("heuristic policies need a queue problem")
    return policy_cfg


def run_eval_policy(config: dict, out_dir: Path) -> dict:
    eval_cfg = _resolve_eval(config)
    policy_cfg = _resolve_policy(config)
    _check_simulated(eval_cfg, config)
    model, spec, problem_cfg = _resolve_problem(config)
    if "heuristic" in policy_cfg:
        policy = queueing.heuristic_policy(spec, policy_cfg["heuristic"])
        label = policy_cfg["heuristic"]
    else:
        features = _resolve_section(config, "features", _FEATURES_DEFAULTS)
        fs = _build_features(features, model, spec, problem_cfg)
        if len(policy_cfg["theta"]) != fs.dim:
            raise ConfigError(f"policy.theta must have one entry per feature ({fs.dim}), "
                              f"got {len(policy_cfg['theta'])}")
        theta = np.asarray(policy_cfg["theta"], dtype=float)
        policy = policy_from_occupancy(fs.occupancy_vector(theta), model.num_actions)
        label = "theta"
    result: dict = {"policy": label}
    if eval_cfg["mode"] != "simulated":  # "none" evaluates exactly too
        result["average_loss"] = average_cost(model, policy)
    else:
        result["simulated_loss"], result["std"] = _simulated_cost(eval_cfg, spec, policy)
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
        fixtures.write_json(summary, out_dir / "summary.json")
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
        for section in ("solver", "bench"):
            config[section] = {**_section(config, section), "seed": seed}


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
    # the first write makes --out; a file on its path would fail it only after the run
    out_dir = None if args.out is None else Path(args.out)
    for path in (out_dir, *out_dir.parents) if out_dir else ():
        if path.exists() and not path.is_dir():
            raise ConfigError(f"--out {out_dir}: {path} exists and is not a directory")
    if args.mode == "print-grid":
        run_print_grid(args.v_max, args.beta, args.epsilon, out_dir)
        return EXIT_OK
    config = _load_config(args.config)
    _apply_seed_override(config, args.seed)
    if args.trace_stride is not None:
        config["trace_stride"] = args.trace_stride
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

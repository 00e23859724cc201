"""The four benchmark workloads of the dualalp planners.

Every workload is built from the ``--seed`` argument and runs in timed phases
through the package's public functions:

* ``setup``: model, features and sampler construction (or the heuristic
  policy tables of the paper preset);
* ``solve``: the SGD solver or the penalty-grid meta-algorithm (the paper
  preset has none: the solver cannot run at that size);
* ``evaluate``: exact or simulated evaluation of the delivered policy.

Inputs that are random (the meta workloads' MDPs and feature policies) are
generated here with the Dirichlet recipe of the test suite, so the package
receives only generated arrays. Correctness checks and the best-in-class
references are computed after the timed region with dense direct solves that
do not share code with the package.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np
import scipy.sparse as sp

from dualalp import avgcost, discounted, features, mdp, queueing


@dataclass
class Check:
    """One correctness check: a name, its verdict and a one-line detail."""

    name: str
    ok: bool
    detail: str


@dataclass
class CliRoute:
    """How the traced run drives a workload through ``dualalp.cli.main``:
    the argument list for a seed and output directory, and the comparison of
    the CLI's summary with the outcome of the library-driven unit."""

    argv: Callable[[int, str], list]
    compare: Callable[[dict, dict], Check]


@dataclass
class Workload:
    """A workload's phases and checks; why each was chosen is written next to
    its definition below and, in one line, in BENCHMARK.json.

    ``check(inputs, outcome)`` returns the checks and the policy cost. An
    outcome carries a ``fingerprint`` (compared across units), what its checks
    need, and, for workloads that solve, ``sgd_iterations``; no unit keeps its
    state once it has finished, so peak memory does not grow with the number
    of units a run fits in."""

    name: str
    make_inputs: Callable[[int], Any]
    setup: Callable[[Any], Any]
    solve: Callable[[Any], Any] | None
    evaluate: Callable[[Any, Any], dict]
    check: Callable[[Any, dict], tuple]
    sim_steps: int = 0
    setup_reps: int = 1
    eval_reps: int = 1
    cli: CliRoute | None = None


def _ratio_check(name: str, value: float, limit: float, what: str) -> Check:
    return Check(name, bool(value <= limit), f"{what} {value:.6g} <= {limit:.6g}")


# ----------------------------------------------------------------- desk-queue
#
# The criterion-8 pipeline at desk scale with the ``bench-queue`` defaults:
# 4900 states, d = 170 features, baseline occupancy mu0 = stationary LBFS,
# norm-proportional sampling, minibatch-1000 average-cost SGD, then exact
# evaluation of the solved policy and both heuristics. Chosen because it is
# the only workload where the mdp stationary solves (six per run) and the
# minibatch feature gathers and sampling dominate, and because it is the
# queue experiment of the paper at the largest exactly solvable size.

DESK_BENCH = {"penalty": 2.0, "radius": 2.0, "iterations": 20000,
              "learning_rate": 1e-4, "lr_halving_period": 2000,
              "minibatch": 1000, "mu0": "LBFS"}
CRITERION_8_FACTOR = 1.05


def _desk_inputs(seed: int):
    return SimpleNamespace(seed=seed, spec=queueing.DESK_SPEC)


def _desk_setup(inputs):
    spec = inputs.spec
    model = queueing.build_mdp(spec)
    mu0 = mdp.stationary_state_action(
        model, queueing.heuristic_policy(spec, DESK_BENCH["mu0"]))
    fs, _ = queueing.build_features(
        spec, model=model, loss_intervals=queueing.DESK_LOSS_INTERVALS,
        component_intervals=queueing.DESK_COMPONENT_INTERVALS, mu0=mu0)
    sampler = features.make_norm_proportional_sampling(model, fs, kappa=1.0)
    return SimpleNamespace(spec=spec, model=model, fs=fs, sampler=sampler,
                           seed=inputs.seed)


def desk_solver_config(seed: int) -> avgcost.AvgSolverConfig:
    # mu0 carries the unit mass, so theta moves in zero-sum directions
    return avgcost.AvgSolverConfig(
        penalty=DESK_BENCH["penalty"], radius=DESK_BENCH["radius"],
        iterations=DESK_BENCH["iterations"],
        learning_rate=DESK_BENCH["learning_rate"],
        lr_halving_period=DESK_BENCH["lr_halving_period"],
        minibatch=DESK_BENCH["minibatch"], seed=seed, sum_target=0.0)


def _desk_solve(state):
    return avgcost.sgd_solve_avg(state.model, state.fs, state.sampler,
                                 desk_solver_config(state.seed))


def _desk_evaluate(state, trace):
    capacity = state.spec.total_capacity
    baselines = {kind: mdp.average_cost(state.model,
                                        queueing.heuristic_policy(state.spec, kind)) * capacity
                 for kind in ("LONGER", "LBFS")}
    solved = mdp.average_cost(state.model, trace.policy) * capacity
    return {"solved_exact_loss": solved, "baseline_exact_loss": baselines,
            "theta": [float(v) for v in trace.theta],
            "sgd_iterations": DESK_BENCH["iterations"],
            "fingerprint": (solved, tuple(float(v) for v in trace.theta))}


def _desk_check(inputs, outcome):
    better = min(outcome["baseline_exact_loss"].values())
    solved = outcome["solved_exact_loss"]
    return [_ratio_check("criterion-8", solved, CRITERION_8_FACTOR * better,
                         "solved exact loss vs 1.05 x better heuristic")], solved / better


def _desk_cli_argv(seed: int, out_dir: str) -> list:
    return ["bench-queue", "--preset", "desk", "--seed", str(seed), "--out", out_dir]


def _desk_cli_matches(summary: dict, outcome: dict) -> Check:
    """The CLI's solved exact loss and theta equal the library run's."""
    solved = summary["result"]["solved"]
    same_loss = solved["exact_loss"] == outcome["solved_exact_loss"]
    same_theta = solved["theta"] == outcome["theta"]
    return Check("cli-matches-library", bool(same_loss and same_theta),
                 f"cli exact_loss {solved['exact_loss']!r} vs library "
                 f"{outcome['solved_exact_loss']!r}; theta equal: {same_theta}")


# ------------------------------------------------------ random MDP instances

def random_mdp_arrays(rng: np.random.Generator, num_states: int, num_actions: int):
    """Dense Dirichlet kernel (X, A, X) and uniform losses (X, A): the recipe
    of the test suite's ``random_mdp``."""
    kernel = rng.dirichlet(np.ones(num_states), size=(num_states, num_actions))
    loss = rng.random((num_states, num_actions))
    return kernel, loss


def random_policy_probs(rng: np.random.Generator, num_states: int,
                        num_actions: int) -> np.ndarray:
    return rng.dirichlet(np.ones(num_actions), size=num_states)


def tick_thetas(dim: int, step: float = 0.05) -> np.ndarray:
    """The criterion-7 tick grid: simplex points whose first dim-1
    coordinates are multiples of ``step`` and whose last is the remainder."""
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    rows = []
    for head in itertools.product(ticks, repeat=dim - 1):
        mass = float(np.sum(head))
        if mass > 1.0 + 1e-12:
            continue
        rows.append(list(head) + [max(1.0 - mass, 0.0)])
    return np.asarray(rows)


def occupancy_policies(phi: np.ndarray, thetas: np.ndarray, num_actions: int) -> np.ndarray:
    """(n, X, A) conditional policies of phi @ theta for each row of thetas:
    negative mass clipped, empty rows uniform (as ``policy_from_occupancy``)."""
    occ = (phi @ thetas.T).T.reshape(len(thetas), -1, num_actions)
    pos = np.maximum(occ, 0.0)
    totals = pos.sum(axis=2, keepdims=True)
    probs = np.divide(pos, totals, out=np.full_like(pos, 1.0 / num_actions),
                      where=totals > 0)
    return probs


def average_costs_dense(kernel: np.ndarray, loss: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Exact average cost of each policy in probs (n, X, A) by a direct
    stationary solve of its chain."""
    num_states = kernel.shape[0]
    chains = np.einsum("nxa,xay->nxy", probs, kernel)
    system = np.transpose(chains, (0, 2, 1)) - np.eye(num_states)
    system[:, -1, :] = 1.0
    rhs = np.zeros((len(probs), num_states, 1))
    rhs[:, -1, 0] = 1.0
    mu = np.linalg.solve(system, rhs)[..., 0]
    return np.einsum("nx,nxa,xa->n", mu, probs, loss)


def discounted_costs_dense(kernel: np.ndarray, loss: np.ndarray, probs: np.ndarray,
                           gamma: float, alpha: np.ndarray) -> np.ndarray:
    """alpha^T (I - gamma P_pi)^{-1} loss_pi for each policy in probs."""
    num_states = kernel.shape[0]
    chains = np.einsum("nxa,xay->nxy", probs, kernel)
    loss_pi = np.einsum("nxa,xa->nx", probs, loss)
    values = np.linalg.solve(np.eye(num_states) - gamma * chains, loss_pi[..., None])[..., 0]
    return values @ alpha


# ------------------------------------------------------------------- avg-meta
#
# The criterion-7 average-cost meta-algorithm on a 10-state, 2-action random
# MDP with d = 4 stationary-distribution features: 23 grid points, about 59k
# single-draw SGD iterations and 23 x ~530k importance-sampled violation draws.
# Chosen because large-batch violation estimation (sampling and gathers)
# dominates, the sum-constrained projection runs instead of the ball one, and
# it is the only workload whose cost scales with the grid size. Seed 0 is the
# instance of the acceptance test.

AVG_META = {"violation_bound": 0.15, "selection_weight": 0.12, "tolerance": 0.05,
            "failure_prob": 0.1, "radius": 1.5}
AVG_INSTANCE_BASE = 200
BEST_IN_CLASS_SLACK = 0.15


def _avg_inputs(seed: int):
    rng = np.random.default_rng(AVG_INSTANCE_BASE + seed)
    kernel, loss = random_mdp_arrays(rng, 10, 2)
    policies = [random_policy_probs(rng, 10, 2) for _ in range(4)]
    return SimpleNamespace(seed=seed, kernel=kernel, loss=loss, policies=policies)


def _avg_setup(inputs):
    model = mdp.MdpModel.from_dense(inputs.kernel, inputs.loss)
    cols = [mdp.stationary_state_action(model, mdp.Policy(p), tol=1e-12)
            for p in inputs.policies]
    fs = features.FeatureSpace(model, sp.csr_matrix(np.column_stack(cols)))
    sampler = features.make_norm_proportional_sampling(model, fs, 1.0)
    return SimpleNamespace(model=model, fs=fs, sampler=sampler, seed=inputs.seed)


def _avg_solve(state):
    return avgcost.meta_solve_avg(state.model, state.fs, state.sampler, seed=state.seed,
                                  trace_stride=10**9, **AVG_META)


def _avg_evaluate(state, result):
    chosen = mdp.average_cost(state.model, result.policy)
    optimal = mdp.solve_optimal(state.model, "average").average_loss
    return {"chosen_cost": chosen, "optimal_cost": optimal,
            "sgd_iterations": int(result.iterations_per_point.sum()),
            "chosen_probs": result.policy.probs, "phi": state.fs.phi.toarray(),
            "fingerprint": (chosen, tuple(float(v) for v in result.theta))}


def _avg_check(inputs, outcome):
    costs = average_costs_dense(inputs.kernel, inputs.loss, np.concatenate(
        [occupancy_policies(outcome["phi"], tick_thetas(4), 2),
         outcome["chosen_probs"][None]]))
    return _meta_checks(outcome, best=float(costs[:-1].min()), direct=float(costs[-1]))


def _meta_checks(outcome, best: float, direct: float) -> tuple:
    """Criterion-7 check against the best in class, plus agreement of the
    package's exact evaluation with a direct solve; the policy cost is the
    chosen cost relative to the best in class."""
    chosen = outcome["chosen_cost"]
    checks = [_ratio_check("best-in-class", chosen, best + BEST_IN_CLASS_SLACK,
                           f"(optimal {outcome['optimal_cost']:.6g}, best in class "
                           f"{best:.6g}) chosen exact cost vs best in class + 0.15"),
              Check("exact-eval-agrees", bool(abs(direct - chosen) <= 1e-8 * max(1.0, abs(direct))),
                    f"package {chosen:.12g} vs direct solve {direct:.12g}")]
    return checks, chosen / best


# ------------------------------------------------------------------ disc-meta
#
# The criterion-7 discounted meta-algorithm (gamma = 0.9) on a 6-state,
# 2-action random MDP with d = 3 visit-frequency features (the optimal
# policy's and two random policies'): 2 grid points, single-draw SGD capped at
# 400k iterations per point, ball projection. Chosen because the per-iteration
# Python overhead of the SGD loop and the buffered gradient dominate while the
# mdp oracles and feature gathers do almost nothing: it bypasses them. Seed 0
# is the instance of the acceptance test.

DISC_META = {"gamma": 0.9, "tolerance": 0.05, "failure_prob": 0.1, "radius": 1.3,
             "violation_bound": 0.0014, "selection_weight": 0.15,
             "max_iterations_per_point": 400000}
DISC_INSTANCE_BASE = 210


def _disc_inputs(seed: int):
    rng = np.random.default_rng(DISC_INSTANCE_BASE + seed)
    kernel, loss = random_mdp_arrays(rng, 6, 2)
    policies = [random_policy_probs(rng, 6, 2) for _ in range(2)]
    return SimpleNamespace(seed=seed, kernel=kernel, loss=loss, policies=policies,
                           alpha=np.full(6, 1.0 / 6.0))


def _disc_setup(inputs):
    gamma = DISC_META["gamma"]
    model = mdp.MdpModel.from_dense(inputs.kernel, inputs.loss)
    optimal = mdp.solve_optimal(model, "discounted", gamma=gamma, tol=1e-12)
    cols = [mdp.discounted_visits(model, optimal.policy, gamma, inputs.alpha, tol=1e-12)]
    cols += [mdp.discounted_visits(model, mdp.Policy(p), gamma, inputs.alpha, tol=1e-12)
             for p in inputs.policies]
    fs = features.FeatureSpace(model, sp.csr_matrix(np.column_stack(cols)))
    sampler = features.make_norm_proportional_sampling(model, fs, gamma)
    return SimpleNamespace(model=model, fs=fs, sampler=sampler, seed=inputs.seed,
                           alpha=inputs.alpha, optimal=optimal)


def _disc_solve(state):
    return discounted.meta_solve_disc(state.model, state.fs, state.sampler,
                                      alpha=state.alpha, seed=state.seed,
                                      trace_stride=10**9, **DISC_META)


def _disc_evaluate(state, result):
    gamma = DISC_META["gamma"]
    chosen = float(state.alpha @ mdp.value_function(state.model, result.policy, gamma))
    optimal = float(state.alpha @ state.optimal.values)
    return {"chosen_cost": chosen, "optimal_cost": optimal,
            "sgd_iterations": int(result.iterations_per_point.sum()),
            "chosen_probs": result.policy.probs, "phi": state.fs.phi.toarray(),
            "fingerprint": (chosen, tuple(float(v) for v in result.theta))}


def _disc_check(inputs, outcome):
    costs = discounted_costs_dense(inputs.kernel, inputs.loss, np.concatenate(
        [occupancy_policies(outcome["phi"], tick_thetas(3), 2),
         outcome["chosen_probs"][None]]), DISC_META["gamma"], inputs.alpha)
    return _meta_checks(outcome, best=float(costs[:-1].min()), direct=float(costs[-1]))


# ------------------------------------------------------------------ paper-sim
#
# The ``bench-queue --preset paper`` path: LONGER and LBFS policy tables over
# the 1,028,196 states of the paper network, each simulated for 3 trajectories.
# Chosen because it is the only workload that measures the pure-Python
# trajectory simulator and the paper-scale state space, and it has the largest
# memory footprint. Trajectories are 100k steps (10k burn-in) rather than the
# preset's 20k (2k burn-in): at 20k steps the LONGER mean falls below LBFS on
# some seeds from simulation noise alone, so the ranking check could not hold.

PAPER_EVAL = {"horizon": 100000, "burn_in": 10000, "reps": 3}
HEURISTICS = ("LONGER", "LBFS")


def _paper_inputs(seed: int):
    return SimpleNamespace(seed=seed, spec=queueing.PAPER_SPEC)


def _paper_setup(inputs):
    policies = {kind: queueing.heuristic_policy(inputs.spec, kind) for kind in HEURISTICS}
    return SimpleNamespace(spec=inputs.spec, policies=policies, seed=inputs.seed)


def _paper_evaluate(state, _solution):
    sims = {kind: queueing.evaluate_policy_simulated(
        state.spec, policy, PAPER_EVAL["horizon"], PAPER_EVAL["burn_in"],
        PAPER_EVAL["reps"], seed=state.seed) for kind, policy in state.policies.items()}
    return {"simulated_loss": {kind: {"mean": m, "std": s} for kind, (m, s) in sims.items()},
            "fingerprint": tuple(sorted(sims.items()))}


def _paper_check(inputs, outcome):
    sims = outcome["simulated_loss"]
    means = [sims[kind]["mean"] for kind in HEURISTICS]
    checks = [Check("finite", all(math.isfinite(m) for m in means),
                    f"simulated means {means}"),
              Check("LBFS<LONGER", bool(sims["LBFS"]["mean"] < sims["LONGER"]["mean"]),
                    f"LBFS {sims['LBFS']['mean']:.4f} < LONGER {sims['LONGER']['mean']:.4f}")]
    # no exact reference exists at this size: the better simulated mean is
    # reported as a share of the total buffer capacity
    return checks, min(means) / inputs.spec.total_capacity


# ------------------------------------------------------------------ registry

WORKLOADS = {
    "desk-queue": Workload(
        name="desk-queue",
        make_inputs=_desk_inputs, setup=_desk_setup, solve=_desk_solve,
        evaluate=_desk_evaluate, check=_desk_check, setup_reps=2, eval_reps=2,
        cli=CliRoute(argv=_desk_cli_argv, compare=_desk_cli_matches)),
    "disc-meta": Workload(
        name="disc-meta",
        make_inputs=_disc_inputs, setup=_disc_setup, solve=_disc_solve,
        evaluate=_disc_evaluate, check=_disc_check, setup_reps=15, eval_reps=15),
    "avg-meta": Workload(
        name="avg-meta",
        make_inputs=_avg_inputs, setup=_avg_setup, solve=_avg_solve,
        evaluate=_avg_evaluate, check=_avg_check, setup_reps=15, eval_reps=15),
    "paper-sim": Workload(
        name="paper-sim",
        make_inputs=_paper_inputs, setup=_paper_setup, solve=None,
        evaluate=_paper_evaluate, check=_paper_check,
        sim_steps=len(HEURISTICS) * PAPER_EVAL["reps"] * PAPER_EVAL["horizon"]),
}


# ------------------------------------------------- simulator cross-check
#
# Once per invocation, outside the timed region: simulate LBFS at desk scale
# and require the mean queue length to lie within 3 standard errors of the
# exact average cost times the total capacity. The trajectories use a fixed
# seed, so the check is deterministic for a given package version.

CROSSCHECK = {"horizon": 8000, "burn_in": 2000, "reps": 12, "seed": 0, "z_limit": 3.0}


def desk_lbfs_exact_loss() -> float:
    spec = queueing.DESK_SPEC
    model = queueing.build_mdp(spec)
    return mdp.average_cost(model, queueing.heuristic_policy(spec, "LBFS")) * spec.total_capacity


def simulator_crosscheck(exact_loss: float, clock) -> tuple[Check, list]:
    """Returns the check and the per-trajectory simulator rates (steps/s)."""
    spec = queueing.DESK_SPEC
    policy = queueing.heuristic_policy(spec, "LBFS")
    means, rates = [], []
    for rep in range(CROSSCHECK["reps"]):
        started = clock()
        mean, _ = queueing.evaluate_policy_simulated(
            spec, policy, CROSSCHECK["horizon"], CROSSCHECK["burn_in"], 1,
            seed=CROSSCHECK["seed"] + rep)
        rates.append(CROSSCHECK["horizon"] / (clock() - started))
        means.append(mean)
    mean = float(np.mean(means))
    stderr = float(np.std(means, ddof=1) / math.sqrt(len(means)))
    z = (mean - exact_loss) / stderr if stderr > 0 else math.inf
    ok = math.isfinite(z) and abs(z) <= CROSSCHECK["z_limit"]
    return Check("simulator-vs-exact", bool(ok),
                 f"desk LBFS simulated {mean:.4f} +- {stderr:.4f} vs exact {exact_loss:.4f} "
                 f"(z = {z:.2f})"), rates

"""Discounted-cost dual-ALP solver.

The surrogate is

    cost(theta) = loss^T Phi theta
                  + penalty * (negative mass of Phi theta)
                  + penalty * || (B - gamma P)^T Phi theta - alpha ||_1

over the ball Theta = {||theta||_2 <= radius} (an optional flag additionally
enforces sum(theta) = 1/(1-gamma)). The feasibility residual works through the
rows F[x] = (B - gamma P)^T_{:,x} Phi; note these are not sign flips of the
drift rows (P - gamma B)^T_{:,x} Phi once gamma < 1, so the two are cached
separately by the feature space. The surrogate is the discounted
parameterization of the shared core in :mod:`dualalp._sgd`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._sgd import (SolverConfig, Surrogate, check_positive_int, check_radius, meta_loop,
                   run_projected_sgd, sgd_solve)
from .avgcost import project_theta_avg
from .errors import ParameterError
from .features import FeatureSpace, SamplingPair
from .grid import build_penalty_grid
from .mdp import MdpModel
from .trace import MetaResult, RunTrace


@dataclass(frozen=True, kw_only=True)
class DiscSolverConfig(SolverConfig):
    """Knobs of one discounted-cost SGD run. ``initial_dist`` of None means the
    uniform distribution over states."""

    discount: float
    initial_dist: np.ndarray | None = None
    enforce_sum_constraint: bool = False

    def __post_init__(self):
        if not 0.0 < self.discount < 1.0:
            raise ParameterError("discount must lie in (0, 1)")
        super().__post_init__()


def violations_exact_disc(model: MdpModel, fs: FeatureSpace, gamma: float,
                          alpha: np.ndarray | None, theta: np.ndarray) -> tuple[float, float]:
    """Exact (negative-mass, feasibility-residual) pair, by sparse products."""
    return Surrogate.discounted(model, fs, gamma, alpha).violations_exact(theta)


def surrogate_cost_exact_disc(model: MdpModel, fs: FeatureSpace, penalty: float,
                              gamma: float, alpha: np.ndarray | None,
                              theta: np.ndarray) -> float:
    """Exact discounted surrogate value (test oracle)."""
    return Surrogate.discounted(model, fs, gamma, alpha).cost_exact(penalty, theta)


def exact_subgradient_disc(model: MdpModel, fs: FeatureSpace, penalty: float,
                           gamma: float, alpha: np.ndarray | None,
                           theta: np.ndarray) -> np.ndarray:
    """Exact subgradient of the discounted surrogate (sign(0) = 0, strict
    negativity indicator)."""
    return Surrogate.discounted(model, fs, gamma, alpha).exact_subgradient(penalty, theta)


def subgradient_estimate_disc(model: MdpModel, fs: FeatureSpace, sp: SamplingPair,
                              penalty: float, gamma: float,
                              alpha: np.ndarray | None, theta: np.ndarray,
                              rng: np.random.Generator | None = None,
                              pair_idx=None, state_idx=None) -> np.ndarray:
    """One unbiased subgradient draw for the discounted surrogate; explicit
    indices may replace the rng (support enumeration in tests)."""
    return Surrogate.discounted(model, fs, gamma, alpha).subgradient_estimate(
        sp, penalty, theta, rng, pair_idx, state_idx)


def project_theta_disc(theta: np.ndarray, radius: float) -> np.ndarray:
    """Radial shrink onto the ball of the given radius.

    For a float vector ``np.linalg.norm`` is ``sqrt(theta.dot(theta))``; the
    same two operations, called directly, give the same bits faster."""
    check_radius(radius)
    theta = np.asarray(theta, dtype=float)
    norm = math.sqrt(theta.dot(theta))
    if norm <= radius:
        return theta
    return theta * (radius / norm)


def estimate_violations_disc(model: MdpModel, fs: FeatureSpace, sp: SamplingPair,
                             gamma: float, alpha: np.ndarray | None,
                             theta: np.ndarray, n: int, rng: np.random.Generator) -> float:
    """Unbiased estimate of the discounted total violation from n draws of
    each sampling distribution (a positive integer)."""
    return Surrogate.discounted(model, fs, gamma, alpha).estimate_violations(
        sp, theta, n, rng)


def sgd_solve_disc(model: MdpModel, fs: FeatureSpace, sp: SamplingPair,
                   cfg: DiscSolverConfig, eval_hook=None) -> RunTrace:
    """Projected SGD on the discounted surrogate from theta_1 = 0."""
    if cfg.enforce_sum_constraint:
        target = 1.0 / (1.0 - cfg.discount)
        project = lambda theta: project_theta_avg(theta, cfg.radius, target)
    else:
        project = lambda theta: project_theta_disc(theta, cfg.radius)
    return sgd_solve(
        Surrogate.discounted(model, fs, cfg.discount, cfg.initial_dist), sp, cfg,
        run_projected_sgd, project=project,
        violation_estimate=lambda theta, rng: estimate_violations_disc(
            model, fs, sp, cfg.discount, cfg.initial_dist, theta,
            cfg.trace_violation_samples, rng),
        eval_hook=eval_hook)


def run_count_disc(penalty: float, radius: float, c_pair: float, c_state: float,
                   dim: int, tolerance: float, failure_prob: float) -> int:
    """Discounted per-point iteration budget, resolved by one fixed-point pass
    of the defining formula starting from T0 = S^2 H^2 / eps^2."""
    t0 = radius * radius * penalty * penalty / (tolerance * tolerance)
    inner = (penalty * (c_pair + c_state) + math.sqrt(dim)
             + 2.0 * math.sqrt(10.0 * math.log(1.0 / failure_prob))
             + 2.0 * math.sqrt(5.0 * dim * math.log1p(radius * radius * max(t0, 1.0) / dim)))
    return max(1, math.ceil(radius * radius / (tolerance * tolerance) * inner * inner))


def violation_ranges_disc(radius: float, c_pair: float, c_state: float) -> tuple[float, float]:
    """The ranges (S C3, 2 S C4) of a violation estimate's pair and state
    summands, which the estimation budget and the stopping rule share."""
    return radius * c_pair, 2.0 * radius * c_state


def violation_sample_count_disc(radius: float, c_pair: float, c_state: float,
                                tolerance: float, failure_prob: float,
                                num_grid_points: int) -> int:
    """Estimation budget (S C3 + 2 S C4)^2 / (2 eps^2) * log(4K/delta): the cap
    on the draws of each meta point's stopped violation estimate
    (:meth:`dualalp._sgd.Surrogate.estimate_violations_stopped`)."""
    scale = sum(violation_ranges_disc(radius, c_pair, c_state))
    return max(1, math.ceil(scale * scale / (2.0 * tolerance * tolerance)
                            * math.log(4.0 * num_grid_points / failure_prob)))


def meta_solve_disc(model: MdpModel, fs: FeatureSpace, sp: SamplingPair, *,
                    gamma: float, alpha: np.ndarray | None, tolerance: float,
                    failure_prob: float, seed, radius: float,
                    violation_bound: float | None = None,
                    selection_weight: float | None = None,
                    learning_rate: float | str = "auto", minibatch: int = 1,
                    trace_stride: int | None = None, eval_hook=None,
                    enforce_sum_constraint: bool = False,
                    max_iterations_per_point: int | None = None) -> MetaResult:
    """Penalty-grid meta-algorithm for the discounted surrogate.

    Defaults: violation bound 4 sqrt(d) C S and selection weight
    6 sqrt(d) C S / (1 - gamma), with C the feature operator 1-norm bound.
    Selection minimizes  linear objective + (H + 1/(1-gamma)) * estimated
    violation + weight / (H (1-gamma)). Each point's violation estimate stops
    at an empirical-Bernstein bound of width ``tolerance`` at failure
    probability failure_prob / K, and draws at most
    :func:`violation_sample_count_disc` per side.

    The worst-case per-point iteration formula grows like (S H (C3+C4)/eps)^2
    and is far beyond what small instances need; ``max_iterations_per_point``
    caps it for budgeted runs (None keeps the formula).
    """
    if not 0.0 < gamma < 1.0:
        raise ParameterError("gamma must lie in (0, 1)")
    if not 0.0 < failure_prob < 1.0:
        raise ParameterError("failure_prob must lie in (0, 1)")
    if max_iterations_per_point is not None:
        check_positive_int("max_iterations_per_point", max_iterations_per_point)
    surrogate = Surrogate.discounted(model, fs, gamma, alpha)  # fails before the grid runs
    ranges = violation_ranges_disc(radius, sp.c_pair, sp.c_state)
    scale = math.sqrt(fs.dim) * fs.column_norm_bound * radius
    if violation_bound is None:
        violation_bound = 4.0 * scale
    if selection_weight is None:
        selection_weight = 6.0 * scale / (1.0 - gamma)
    grid = build_penalty_grid(violation_bound, selection_weight, tolerance)
    n_violation = violation_sample_count_disc(radius, sp.c_pair, sp.c_state,
                                              tolerance, failure_prob, len(grid))

    def run_count(penalty):
        iterations = run_count_disc(penalty, radius, sp.c_pair, sp.c_state,
                                    fs.dim, tolerance, failure_prob)
        if max_iterations_per_point is not None:
            iterations = min(iterations, max_iterations_per_point)
        return iterations

    def solve(penalty, iterations, run_seed):
        cfg = DiscSolverConfig(discount=gamma, penalty=penalty, radius=radius,
                               iterations=iterations, initial_dist=alpha,
                               learning_rate=learning_rate, minibatch=minibatch,
                               seed=run_seed, trace_stride=trace_stride,
                               enforce_sum_constraint=enforce_sum_constraint)
        return sgd_solve_disc(model, fs, sp, cfg, eval_hook=eval_hook)

    return meta_loop(
        grid, seed, fs.loss_phi, n_violation, run_count=run_count, solve=solve,
        estimate=lambda theta, rng: surrogate.estimate_violations_stopped(
            sp, theta, ranges, tolerance, failure_prob / len(grid), n_violation, rng),
        horizon=1.0 / (1.0 - gamma), scale=1.0 - gamma)

"""Average-cost dual-ALP solver.

Minimizes the penalized surrogate

    cost(theta) = loss^T (mu0 + Phi theta)
                  + penalty * (negative mass of mu0 + Phi theta)
                  + penalty * (L1 stationarity residual of Phi theta)

over Theta = {theta : sum(theta) = sum_target, ||theta||_2 <= radius} by
projected stochastic subgradient descent with importance-sampled gradient
estimates, plus the penalty-grid meta-algorithm that tunes the gain and picks
the best run by a penalized estimated objective. The surrogate is the
average-cost parameterization of the shared core in :mod:`dualalp._sgd`.

A single SGD run is strictly sequential in its iterate; grid points of the
meta-algorithm are independent with deterministically derived per-point seeds,
so they are dispatched to parallel worker processes without changing any
result.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._sgd import SolverConfig, Surrogate, meta_loop, run_projected_sgd, sgd_solve
from .errors import ParameterError
from .features import FeatureSpace, SamplingPair
from .grid import build_penalty_grid
from .mdp import MdpModel
from .trace import MetaResult, RunTrace


@dataclass(frozen=True, kw_only=True)
class AvgSolverConfig(SolverConfig):
    """Knobs of one average-cost SGD run; radius must be >= |sum_target|/sqrt(d)."""

    sum_target: float = 1.0


def violations_exact(model: MdpModel, fs: FeatureSpace, theta: np.ndarray) -> tuple[float, float]:
    """Exact (negative-mass, stationarity-residual) pair, by sparse products."""
    return Surrogate.average_cost(model, fs).violations_exact(theta)


def surrogate_cost_exact(model: MdpModel, fs: FeatureSpace, penalty: float,
                         theta: np.ndarray) -> float:
    """Exact surrogate value (test oracle; enumerates all pairs and states)."""
    return Surrogate.average_cost(model, fs).cost_exact(penalty, theta)


def exact_subgradient(model: MdpModel, fs: FeatureSpace, penalty: float,
                      theta: np.ndarray) -> np.ndarray:
    """Exact subgradient of the surrogate, with sign(0) = 0 and a strict
    indicator on the negativity penalty."""
    return Surrogate.average_cost(model, fs).exact_subgradient(penalty, theta)


def subgradient_estimate(model: MdpModel, fs: FeatureSpace, sp: SamplingPair,
                         penalty: float, theta: np.ndarray,
                         rng: np.random.Generator | None = None,
                         pair_idx=None, state_idx=None) -> np.ndarray:
    """One unbiased subgradient draw: (x,a) ~ q_pair for the negativity term,
    x' ~ q_state for the stationarity term. Explicit indices may be supplied
    instead of an rng (used to enumerate the estimator's support in tests)."""
    return Surrogate.average_cost(model, fs).subgradient_estimate(
        sp, penalty, theta, rng, pair_idx, state_idx)


def _in_plane_radius_sq(radius: float, sum_target: float, dim: int,
                        error: type = ParameterError) -> float:
    """radius^2 - sum_target^2/dim, the squared radius of the ball's slice by
    the sum-``sum_target`` hyperplane; raises ``error`` when it is negative."""
    in_plane_sq = radius * radius - sum_target * sum_target / dim
    if in_plane_sq < 0:
        raise error(
            f"radius {radius!r} too small: the sum-{sum_target!r} hyperplane "
            f"misses the ball (need radius >= {abs(sum_target) / math.sqrt(dim):g})")
    return in_plane_sq


def project_theta_avg(theta: np.ndarray, radius: float,
                      sum_target: float = 1.0) -> np.ndarray:
    """Euclidean projection onto {sum(theta) = sum_target, ||theta|| <= radius}:
    drop onto the hyperplane, then shrink radially toward its center point
    (sum_target/d) * ones within the in-plane radius."""
    theta = np.asarray(theta, dtype=float)
    dim = theta.size
    in_plane_sq = _in_plane_radius_sq(radius, sum_target, dim)
    center = sum_target / dim
    deviation = theta - (theta.sum() / dim)  # onto the plane, then around its center
    norm_sq = float(deviation.dot(deviation))
    if norm_sq > in_plane_sq:
        deviation *= math.sqrt(in_plane_sq / norm_sq)
    deviation += center
    return deviation


def estimate_violations(model: MdpModel, fs: FeatureSpace, sp: SamplingPair,
                        theta: np.ndarray, n: int, rng: np.random.Generator) -> float:
    """Unbiased importance-sampling estimate of the total violation from n
    draws of each sampling distribution (a positive integer)."""
    return Surrogate.average_cost(model, fs).estimate_violations(sp, theta, n, rng)


def sgd_solve_avg(model: MdpModel, fs: FeatureSpace, sp: SamplingPair,
                  cfg: AvgSolverConfig, eval_hook=None) -> RunTrace:
    """Projected SGD on the average-cost surrogate from theta_1 = 0; returns the
    trace of the running average and the policy of the averaged parameters."""
    return sgd_solve(
        Surrogate.average_cost(model, fs), sp, cfg, run_projected_sgd,
        project=lambda theta: project_theta_avg(theta, cfg.radius, cfg.sum_target),
        violation_estimate=lambda theta, rng: estimate_violations(
            model, fs, sp, theta, cfg.trace_violation_samples, rng),
        eval_hook=eval_hook)


def run_count_avg(penalty: float, radius: float, tolerance: float,
                  failure_prob: float, num_grid_points: int) -> int:
    """Per-grid-point iteration budget max{H^2/eps^2, 40 S^2 log(K/delta)}."""
    return max(1, math.ceil(max(penalty * penalty / (tolerance * tolerance),
                                40.0 * radius * radius
                                * math.log(num_grid_points / failure_prob))))


def violation_ranges_avg(radius: float, c_pair: float, c_state: float) -> tuple[float, float]:
    """The ranges (S(C1+1), S C2) of a violation estimate's pair and state
    summands, which the estimation budget and the stopping rule share."""
    return radius * (c_pair + 1.0), radius * c_state


def violation_sample_count_avg(radius: float, c_pair: float, c_state: float,
                               tolerance: float, failure_prob: float,
                               num_grid_points: int) -> int:
    """Estimation budget 8 (S(C1+1) + S C2)^2 / eps^2 * log(4K/delta): the cap
    on the draws of each meta point's stopped violation estimate
    (:meth:`dualalp._sgd.Surrogate.estimate_violations_stopped`)."""
    scale = sum(violation_ranges_avg(radius, c_pair, c_state))
    return max(1, math.ceil(8.0 * scale * scale / (tolerance * tolerance)
                            * math.log(4.0 * num_grid_points / failure_prob)))


def meta_solve_avg(model: MdpModel, fs: FeatureSpace, sp: SamplingPair, *,
                   violation_bound: float, selection_weight: float,
                   tolerance: float, failure_prob: float, seed,
                   radius: float, sum_target: float = 1.0,
                   learning_rate: float | str = "auto", minibatch: int = 1,
                   trace_stride: int | None = None, eval_hook=None) -> MetaResult:
    """Rerun the SGD solver over the penalty grid and select the point
    minimizing  linear objective + penalty * estimated violation +
    selection_weight / penalty.

    Each point's violation estimate stops at an empirical-Bernstein bound of
    width ``tolerance`` at failure probability failure_prob / K, and draws at
    most :func:`violation_sample_count_avg` per side. Per-point seeds derive
    deterministically from the master seed; ties in the selection go to the
    lowest grid index.
    """
    if not 0.0 < failure_prob < 1.0:
        raise ParameterError("failure_prob must lie in (0, 1)")
    surrogate = Surrogate.average_cost(model, fs)  # another model fails before the grid runs
    ranges = violation_ranges_avg(radius, sp.c_pair, sp.c_state)
    grid = build_penalty_grid(violation_bound, selection_weight, tolerance)
    num_points = len(grid)
    n_violation = violation_sample_count_avg(radius, sp.c_pair, sp.c_state,
                                             tolerance, failure_prob, num_points)

    def solve(penalty, iterations, run_seed):
        cfg = AvgSolverConfig(penalty=penalty, radius=radius, iterations=iterations,
                              learning_rate=learning_rate, minibatch=minibatch,
                              seed=run_seed, sum_target=sum_target,
                              trace_stride=trace_stride)
        return sgd_solve_avg(model, fs, sp, cfg, eval_hook=eval_hook)

    return meta_loop(
        grid, seed, fs.loss_phi, n_violation,
        run_count=lambda penalty: run_count_avg(penalty, radius, tolerance,
                                                failure_prob, num_points),
        solve=solve,
        estimate=lambda theta, rng: surrogate.estimate_violations_stopped(
            sp, theta, ranges, tolerance, failure_prob / num_points, n_violation, rng))

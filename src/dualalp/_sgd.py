"""Shared projected stochastic-subgradient loop for the two dual-ALP solvers.

The loop is strictly sequential in the iterate; randomness is split into one
stream for the gradient draws and one for the trace-time violation estimates,
so changing the recording stride never perturbs the iterate path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, ParameterError
from .mdp import Policy
from .trace import RunTrace

SeedLike = "int | np.random.SeedSequence"


def as_seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


@dataclass
class SgdProblem:
    """Everything the generic loop needs to know about one surrogate."""

    dim: int
    loss_phi: np.ndarray
    objective_offset: float
    grad_batch: Callable[[np.ndarray, np.random.Generator, int], np.ndarray]
    project: Callable[[np.ndarray], np.ndarray]
    violation_estimate: Callable[[np.ndarray, np.random.Generator], float]
    make_policy: Callable[[np.ndarray], Policy]


def make_buffered_grad(fs, sp, penalty: float, state_rows_fn,
                       occ_base: np.ndarray, res_base: np.ndarray,
                       block: int = 512):
    """Single-draw gradient estimator with block-presampled draws.

    Presampling amortizes rng and gather overhead across ``block`` iterations;
    the draw stream is still fully determined by the rng. ``occ_base`` is added
    inside the negativity indicator (the baseline occupancy, or zeros);
    ``state_rows_fn(states) -> (n, d)`` supplies the per-state residual rows
    (drift rows for average cost, feasibility rows for discounted cost) and
    ``res_base`` is added inside their sign.
    """
    from .features import importance_weight_guard

    loss_phi = fs.loss_phi
    buf = {"pos": block}

    def refill(rng):
        pairs = sp.sample_pairs(rng, block)
        states = sp.sample_states(rng, block)
        buf["q_pair"] = sp.pair_prob(pairs)
        buf["q_state"] = sp.state_prob(states)
        importance_weight_guard(buf["q_pair"])
        importance_weight_guard(buf["q_state"])
        buf["rows"] = fs.rows(pairs)
        buf["occ0"] = occ_base[pairs]
        buf["drift"] = state_rows_fn(states)
        buf["res0"] = res_base[states]
        buf["pos"] = 0

    def grad(theta, rng, m):
        if buf["pos"] >= block:
            refill(rng)
        i = buf["pos"]
        buf["pos"] = i + 1
        row = buf["rows"][i]
        drift = buf["drift"][i]
        g = loss_phi.copy()
        if buf["occ0"][i] + row @ theta < 0.0:
            g -= (penalty / buf["q_pair"][i]) * row
        resid = drift @ theta + buf["res0"][i]
        if resid > 0.0:
            g += (penalty / buf["q_state"][i]) * drift
        elif resid < 0.0:
            g -= (penalty / buf["q_state"][i]) * drift
        return g

    return grad


def resolve_learning_rate(learning_rate, radius: float, penalty: float,
                          c_pair: float, c_state: float, dim: int,
                          iterations: int) -> float:
    """"auto" resolves to radius / (grad-norm bound * sqrt(T))."""
    if learning_rate == "auto":
        bound = math.sqrt(dim) + penalty * (c_pair + c_state)
        return radius / (bound * math.sqrt(iterations))
    rate = float(learning_rate)
    if rate < 0:
        raise ParameterError("learning rate must be nonnegative")
    return rate


def run_projected_sgd(problem: SgdProblem, iterations: int, learning_rate: float,
                      seed, minibatch: int = 1, lr_halving_period: int | None = None,
                      trace_stride: int | None = None, eval_hook=None,
                      iterate_hook=None) -> RunTrace:
    """Run theta_{t+1} = project(theta_t - eta_t * mean-of-minibatch gradient)
    from theta_1 = 0 and return the trace of the running average.

    ``eval_hook(theta_bar, policy) -> float`` is called at recorded rows only;
    ``iterate_hook(t, theta_t)`` sees every raw iterate (testing aid).
    Raises ConvergenceError, naming t, when the running average is non-finite
    at a recorded row.
    """
    if iterations < 1:
        raise ParameterError("iterations must be >= 1")
    if minibatch < 1:
        raise ParameterError("minibatch must be >= 1")
    ss_grad, ss_trace = as_seed_sequence(seed).spawn(2)
    rng = np.random.default_rng(ss_grad)
    rng_trace = np.random.default_rng(ss_trace)
    stride = trace_stride if trace_stride else max(1, iterations // 1000)
    theta = np.zeros(problem.dim)
    theta_sum = np.zeros(problem.dim)
    rec_t, rec_obj, rec_vhat, rec_cost = [], [], [], []
    for t in range(1, iterations + 1):
        if iterate_hook is not None:
            iterate_hook(t, theta)
        theta_sum += theta
        if t % stride == 0 or t == iterations:
            theta_bar = theta_sum / t
            # the last iteration is always recorded, so this also covers theta_hat
            if not np.isfinite(theta_bar).all():
                raise ConvergenceError(f"non-finite iterate average at t={t}")
            rec_t.append(t)
            rec_obj.append(problem.objective_offset + float(problem.loss_phi @ theta_bar))
            rec_vhat.append(problem.violation_estimate(theta_bar, rng_trace))
            if eval_hook is not None:
                rec_cost.append(float(eval_hook(theta_bar, problem.make_policy(theta_bar))))
            else:
                rec_cost.append(math.nan)
        if lr_halving_period:
            rate = learning_rate * 2.0 ** (-((t - 1) // lr_halving_period))
        else:
            rate = learning_rate
        grad = problem.grad_batch(theta, rng, minibatch)
        theta = problem.project(theta - rate * grad)
    theta_hat = theta_sum / iterations
    return RunTrace(iterations=np.asarray(rec_t, dtype=np.int64),
                    objective=np.asarray(rec_obj),
                    v_hat=np.asarray(rec_vhat),
                    eval_cost=np.asarray(rec_cost),
                    theta=theta_hat,
                    policy=problem.make_policy(theta_hat))

"""The meta loop's grid points run in forked worker processes: results must
not depend on the number of workers, and a worker's exception must reach the
caller with its type and fields intact. The fallback to a plain loop is shared
with the replications of the queue simulator."""
import dataclasses
import multiprocessing
import multiprocessing.pool
import os
import pickle
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from dualalp import _sgd, errors, queueing
from dualalp.avgcost import meta_solve_avg
from dualalp.discounted import meta_solve_disc
from dualalp.errors import ConvergenceError
from dualalp.features import make_norm_proportional_sampling
from dualalp.grid import build_penalty_grid
from dualalp.mdp import Policy, average_cost, value_function
from dualalp.trace import RunTrace

ERROR_CLASSES = [cls for cls in vars(errors).values()
                 if isinstance(cls, type) and issubclass(cls, errors.DualAlpError)]


def test_error_classes_are_listed():
    assert len(ERROR_CLASSES) == 7


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_error_survives_pickle_round_trip(cls):
    exc = cls("point 3 failed")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == "point 3 failed" and back.args == exc.args
    assert vars(back) == vars(exc)


@pytest.mark.parametrize("residual", [None, 0.5])
def test_convergence_error_keeps_residual_through_pickle(residual):
    back = pickle.loads(pickle.dumps(ConvergenceError("no fixed point", residual=residual)))
    assert str(back) == "no fixed point" and back.residual == residual


def _pool(monkeypatch, cpus):
    """Make the meta loop see ``cpus`` usable CPUs (1 forces the plain loop)."""
    monkeypatch.setattr(_sgd, "_cpu_count", lambda: cpus)


GRID = build_penalty_grid(1.0, 1.0, 0.5)


def _toy_meta(solve):
    assert len(GRID) > 2
    return _sgd.meta_loop(GRID, 0, np.ones(2), 4, run_count=lambda penalty: 10,
                          solve=solve, estimate=lambda theta, rng: (0.0, 4))


def _toy_trace(iterations):
    return RunTrace(iterations=np.array([iterations]), objective=np.zeros(1),
                    v_hat=np.zeros(1), eval_cost=np.zeros(1), theta=np.zeros(2),
                    policy=Policy(np.full((1, 2), 0.5)))


@pytest.mark.parametrize("cpus", [1, 2], ids=["sequential", "pooled"])
def test_failing_point_reaches_caller_with_residual(monkeypatch, cpus):
    _pool(monkeypatch, cpus)

    def solve(penalty, iterations, seed):
        if penalty == float(GRID.points[1]):
            raise ConvergenceError(f"diverged at H={penalty!r}", residual=0.5)
        return _toy_trace(iterations)

    with pytest.raises(ConvergenceError, match="diverged at H=") as caught:
        _toy_meta(solve)
    assert caught.value.residual == 0.5


@pytest.mark.parametrize("setting", ["daemon", "no-fork", "threads"])
def test_plain_loop_where_forking_is_unsafe(monkeypatch, setting):
    """A daemonic process cannot have children, some platforms cannot fork,
    and a fork beside other Python threads may copy a held lock: each runs the
    points in the calling process, in grid order, and so the replications of a
    simulated evaluation."""
    _pool(monkeypatch, 2)
    release, waiters = threading.Event(), []
    if setting == "daemon":
        monkeypatch.setattr(multiprocessing, "current_process",
                            lambda: SimpleNamespace(daemon=True))
    elif setting == "no-fork":
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    else:
        waiters.append(threading.Thread(target=release.wait, args=(30,)))
        waiters[0].start()
    seen, simulated = [], []
    visited_pairs = queueing._visited_pairs

    def solve(penalty, iterations, seed):
        seen.append((penalty, os.getpid()))
        return _toy_trace(iterations)

    def trajectory(*args):
        simulated.append(os.getpid())
        return visited_pairs(*args)

    monkeypatch.setattr(queueing, "_visited_pairs", trajectory)
    policy = queueing.heuristic_policy(queueing.DESK_SPEC, "LBFS")
    try:
        result = _toy_meta(solve)
        queueing.evaluate_policy_simulated(queueing.DESK_SPEC, policy, 2000, 200, 3)
    finally:
        release.set()
        for waiter in waiters:
            waiter.join(5)
            assert not waiter.is_alive()
    assert seen == [(float(penalty), os.getpid()) for penalty in GRID.points]
    assert len(result.traces) == len(GRID)
    assert simulated == [os.getpid()] * 3


def _assert_same_meta(seq, par):
    for name in ("grid_points", "selection_weight", "linear_objectives",
                 "violation_estimates", "selection_values", "chosen_index", "theta",
                 "iterations_per_point", "violation_samples", "violation_draws"):
        assert np.array_equal(getattr(seq, name), getattr(par, name)), name
    assert np.array_equal(seq.policy.probs, par.policy.probs)
    assert len(seq.traces) == len(par.traces) == len(seq.grid_points)
    for a, b in zip(seq.traces, par.traces):
        for name in ("iterations", "objective", "v_hat", "eval_cost", "theta"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert np.array_equal(a.policy.probs, b.policy.probs)


def _run_both(monkeypatch, tmp_path, run, evaluate):
    """``run(eval_hook)`` with one CPU and with two; the hook logs the pid of
    every call, so the pooled run is seen to evaluate outside this process."""
    pids = tmp_path / "pids"

    def hook(policy):
        with open(pids, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        return evaluate(policy)

    results = []
    for cpus in (1, 2):
        _pool(monkeypatch, cpus)
        pids.write_text("")
        results.append(run(hook))
        callers = set(pids.read_text().split())
        assert callers
        assert (callers == {str(os.getpid())}) == (cpus == 1)
    return results


def test_meta_avg_does_not_depend_on_worker_count(monkeypatch, tmp_path, desk_fixture):
    model, fs = desk_fixture
    sampler = make_norm_proportional_sampling(model, fs, 1.0)
    seq, par = _run_both(
        monkeypatch, tmp_path,
        lambda hook: meta_solve_avg(model, fs, sampler, violation_bound=0.5,
                                    selection_weight=0.5, tolerance=0.4, failure_prob=0.1,
                                    seed=21, radius=1.5, trace_stride=50, eval_hook=hook),
        lambda policy: average_cost(model, policy))
    assert len(seq.grid_points) > 2
    assert not np.isnan(seq.traces[0].eval_cost).any()
    _assert_same_meta(seq, par)


def test_meta_disc_does_not_depend_on_worker_count(monkeypatch, tmp_path, desk_fixture):
    model, fs = desk_fixture
    gamma = 0.8
    sampler = make_norm_proportional_sampling(model, fs, gamma)
    seq, par = _run_both(
        monkeypatch, tmp_path,
        lambda hook: meta_solve_disc(model, fs, sampler, gamma=gamma, alpha=None,
                                     tolerance=0.5, failure_prob=0.1, seed=9, radius=1.3,
                                     violation_bound=0.5, selection_weight=0.5,
                                     max_iterations_per_point=600, trace_stride=100,
                                     eval_hook=hook),
        lambda policy: float(value_function(model, policy, gamma).mean()))
    assert len(seq.grid_points) > 2
    _assert_same_meta(seq, par)


# the sampler is built on the feature space's own model, so a different ``model``
# reaches the meta solver
META_SOLVERS = {
    "avg": lambda model, fs, delta: meta_solve_avg(
        model, fs, make_norm_proportional_sampling(fs.model, fs, 1.0), violation_bound=0.5,
        selection_weight=0.5, tolerance=0.4, failure_prob=delta, seed=0, radius=1.5),
    "disc": lambda model, fs, delta: meta_solve_disc(
        model, fs, make_norm_proportional_sampling(fs.model, fs, 0.8), gamma=0.8, alpha=None,
        tolerance=0.5, failure_prob=delta, seed=0, radius=1.3, violation_bound=0.5,
        selection_weight=0.5, max_iterations_per_point=10),
}


@pytest.mark.parametrize("delta", [0.0, -0.5, 1.0, 1.5])
@pytest.mark.parametrize("kind", sorted(META_SOLVERS))
def test_meta_rejects_failure_prob_outside_unit_interval(monkeypatch, desk_fixture, kind,
                                                         delta):
    # 0 and -0.5 raised ZeroDivisionError and a math domain error from the
    # sample budget; avg rejected 1 and 1.5 only in a grid point's run config
    _pool(monkeypatch, 2)

    def refuse(*args, **kwargs):
        pytest.fail("a worker pool was started before the failure_prob check")

    monkeypatch.setattr(multiprocessing.pool, "Pool", refuse)
    with pytest.raises(errors.ParameterError, match="failure_prob must lie in"):
        META_SOLVERS[kind](*desk_fixture, delta)


@pytest.mark.parametrize("kind", sorted(META_SOLVERS))
def test_meta_rejects_another_model_before_the_grid_runs(monkeypatch, desk_fixture, kind):
    # avg started a worker pool and raised InputShapeError inside a worker
    _pool(monkeypatch, 2)

    def refuse(*args, **kwargs):
        pytest.fail("a worker pool was started before the model check")

    monkeypatch.setattr(multiprocessing.pool, "Pool", refuse)
    model, fs = desk_fixture
    other = dataclasses.replace(model)
    with pytest.raises(errors.InputShapeError,
                       match="the model is not the one the feature space was built on"):
        META_SOLVERS[kind](other, fs, 0.1)


@pytest.mark.parametrize("kind", sorted(META_SOLVERS))
def test_meta_violation_draws_stay_within_the_cap(desk_fixture, kind):
    result = META_SOLVERS[kind](*desk_fixture, 0.1)
    assert result.violation_draws.shape == result.grid_points.shape
    assert np.all((result.violation_draws >= 1)
                  & (result.violation_draws <= result.violation_samples))

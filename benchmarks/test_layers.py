"""Layer micro-benchmarks on the desk queue preset (4900 states, 19600 pairs,
d = 170) of the feature and sampler builds, of the exact evaluation layer (the
LBFS induced chain, and its discounted value function and discounted visits
at gamma = 0.9 and 0.99), of the exact subgradient and of the
minibatch and single-draw estimators, per call and per step of the
block-presampled SGD estimators (the single-draw step at a constant rate and
at rates halved every 2000 and every 100 steps, the minibatch step also for
the discounted surrogate at gamma = 0.99 and m = 100), each with its refills
in this process and in the forked producer, of a 300-step desk solve at m =
1000 on both refill paths, of one block refill of the m = 1000
minibatch estimator (the draws of its 16 steps and the gather of their rows),
of one single-draw discounted SGD step at d = 3, where a step is almost all interpreter overhead,
of the violation estimator at two extremes (a meta point's 534,552 draws over
20 pairs, and a 64-draw trace row over the 19,600 desk pairs, for the
average-cost and for the discounted surrogate at gamma = 0.99), of one
65,536-draw batch of its draws reduced to counts per pair and per state
(over the meta and the desk tables), and of a
two-point discounted meta run on the 4-state fixture, in one process and in
forked workers, which shows what starting the worker pool costs a tiny grid,
and of the paper preset (1,028,196 states): one heuristic policy table, the
row check of a prebuilt table, the policy of a signed occupancy over its
4,112,784 pairs, a simulated evaluation of 3 replications of 20000 steps,
in one process and in forked workers, and one LBFS trajectory of 100,000
steps in this process, the simulator's loop without the pool.

Run from the repository root with

    python -m pytest benchmarks/test_layers.py

The directory is outside the test paths of ``pyproject.toml``, so the tier-1
suite does not collect it. pytest-benchmark reports the time per call.

To compare two commits, run this file from the root of each one's checkout.
``pyproject.toml`` sets ``pythonpath = ["src"]``, which pytest puts ahead of
``PYTHONPATH``, so ``PYTHONPATH=<other checkout>/src`` run from this tree
still measures this tree's source.
"""
import itertools
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from dualalp import _sgd, avgcost, discounted, features, fixtures, mdp, queueing
from dualalp._sgd import (GRAD_BLOCK, MINIBATCH_BLOCK, Surrogate, make_buffered_step,
                          make_minibatch_step)
from dualalp.discounted import meta_solve_disc, project_theta_disc

DRAWS = 1000
DATA = Path(__file__).parents[1] / "tests" / "data"


@pytest.fixture(scope="module")
def desk_model():
    return queueing.build_mdp(queueing.DESK_SPEC)


@pytest.fixture(scope="module")
def desk(desk_model):
    fs, _ = queueing.build_features(queueing.DESK_SPEC, model=desk_model)
    sampler = features.make_norm_proportional_sampling(desk_model, fs, kappa=1.0)
    theta = np.random.default_rng(0).standard_normal(fs.dim) * 0.05
    return Surrogate.average_cost(desk_model, fs), sampler, theta


def test_build_features_desk(benchmark, desk_model):
    """The desk features with the LBFS mu0 of ``bench-queue``, from a model built
    outside the timing: the indicator block, the two exact stationary columns
    of LONGER and LBFS, and the normalised feature space."""
    spec = queueing.DESK_SPEC
    mu0 = mdp.stationary_state_action(desk_model, queueing.heuristic_policy(spec, "LBFS"))
    fs, dropped = benchmark(queueing.build_features, spec, model=desk_model, mu0=mu0)
    assert fs.dim == 170 and len(dropped) == 180


@pytest.fixture(scope="module")
def desk_lbfs():
    return queueing.heuristic_policy(queueing.DESK_SPEC, "LBFS")


def test_induced_chain_desk(benchmark, desk_model, desk_lbfs):
    """The LBFS state-to-state kernel: one sparse product of the policy
    weights with the 19,600-row forward kernel."""
    chain = benchmark(mdp.induced_chain, desk_model, desk_lbfs)
    assert chain.shape == (desk_model.num_states, desk_model.num_states)


@pytest.mark.parametrize("gamma", [0.9, 0.99])
def test_value_function_desk(benchmark, desk_model, desk_lbfs, gamma):
    """The exact discounted value of LBFS at the default tol: the induced
    chain, the BiCGSTAB start and its certified Bellman sweeps."""
    values = benchmark(mdp.value_function, desk_model, desk_lbfs, gamma)
    assert values.shape == (desk_model.num_states,) and values.min() > 0.0


@pytest.mark.parametrize("gamma", [0.9, 0.99])
def test_discounted_visits_desk(benchmark, desk_model, desk_lbfs, gamma):
    """The discounted visits of LBFS from the uniform alpha at the default tol:
    the same solve as the value function, on the transposed chain in L1."""
    visits = benchmark(mdp.discounted_visits, desk_model, desk_lbfs, gamma)
    assert visits.shape == (desk_model.num_pairs,)
    assert abs(visits.sum() * (1.0 - gamma) - 1.0) <= 1e-10


def test_sample_pairs(benchmark, desk):
    _, sampler, _ = desk
    rng = np.random.default_rng(1)
    assert len(benchmark(sampler.sample_pairs, rng, DRAWS)) == DRAWS


def test_sample_states(benchmark, desk):
    _, sampler, _ = desk
    rng = np.random.default_rng(2)
    assert len(benchmark(sampler.sample_states, rng, DRAWS)) == DRAWS


def test_subgradient_estimate_minibatch(benchmark, desk):
    """One m = 1000 estimate on draws made outside the timing: gathers and the
    importance-weighted sums (test_sample_pairs and test_sample_states time
    the draws)."""
    surrogate, sampler, theta = desk
    pairs, states = _sgd.draw(sampler, np.random.default_rng(3), DRAWS)
    grad = benchmark(surrogate.subgradient_estimate, sampler, 2.0, theta, pair_idx=pairs,
                     state_idx=states)
    assert grad.shape == theta.shape


def test_exact_subgradient_desk(benchmark, desk):
    """The exact subgradient over all 19,600 pairs and 4900 states: two CSR
    matrix-vector products with the drift operator and two with Phi."""
    surrogate, _, theta = desk
    assert benchmark(surrogate.exact_subgradient, 2.0, theta).shape == theta.shape


def test_sampler_build_desk(benchmark, desk_model):
    """The desk norm-proportional sampler at kappa = 1 and 0.9, on a fresh
    feature space per round, so that each round forms its one-step operators
    from the forward kernel."""
    fs, _ = queueing.build_features(queueing.DESK_SPEC, model=desk_model)

    def fresh_space():
        return (features.FeatureSpace(desk_model, fs.phi),), {}

    def build(space):
        return [features.make_norm_proportional_sampling(desk_model, space, kappa=kappa)
                for kappa in (1.0, 0.9)]

    samplers = benchmark.pedantic(build, setup=fresh_space, rounds=10)
    assert len(samplers) == 2 and all(s.c_state > 0 for s in samplers)


REFILL_PATHS = ("in-process", "forked")


def refill_path(monkeypatch, path):
    """Two usable CPUs let a long minibatch run fork its refill producer
    (``_sgd._may_fork``), one keeps its refills in this process."""
    monkeypatch.setattr(_sgd, "_cpu_count", lambda: 2 if path == "forked" else 1)


def _timed_steps(benchmark, step, theta, steps):
    """Time ``step`` after a first block outside the timing, then stop the
    producer of a forked run."""
    rng = np.random.default_rng(3)
    for _ in range(steps):
        step(theta, rng, 0.01)
    try:
        assert benchmark.pedantic(step, args=(theta, rng, 0.01), rounds=100,
                                  iterations=steps).shape == theta.shape
    finally:
        step.close()


@pytest.mark.parametrize("path", REFILL_PATHS)
def test_minibatch_block_step(benchmark, monkeypatch, desk, path):
    """One m = 1000 SGD minibatch step, theta - rate * g, with the block refill
    amortized over its MINIBATCH_BLOCK // 1000 steps, in this process or in
    the forked producer."""
    surrogate, sampler, theta = desk
    refill_path(monkeypatch, path)
    step = make_minibatch_step(surrogate, sampler, 2.0, DRAWS, 10**6)
    _timed_steps(benchmark, step, theta, MINIBATCH_BLOCK // DRAWS)


def test_minibatch_refill_desk(benchmark, monkeypatch, desk):
    """One in-process refill of the m = 1000 minibatch estimator, the
    theta-independent part of its steps that a forked producer takes off the
    steps' CPU: the draws of MINIBATCH_BLOCK // 1000 = 16 steps in one
    ``sample_steps``, their support check and the gather of their Phi and
    drift rows into the run's one-slot ring (``_sgd._Refills.next``)."""
    surrogate, sampler, _ = desk
    refill_path(monkeypatch, "in-process")
    rng = np.random.default_rng(7)
    refills = _sgd._Refills(surrogate, sampler, rng, DRAWS, 10**6)
    assert len(benchmark(refills.next, rng)[0]) == MINIBATCH_BLOCK // DRAWS


@pytest.mark.parametrize("path", REFILL_PATHS)
def test_minibatch_block_step_disc(benchmark, monkeypatch, desk, path):
    """One m = 100 discounted minibatch step at gamma = 0.99 (desk feasibility
    rows, the features without mu0), with the block refill amortized over its
    MINIBATCH_BLOCK // 100 steps, in this process or in the forked producer."""
    surrogate, _, theta = desk
    model = surrogate.model
    fs = features.FeatureSpace(model, surrogate.fs.phi)
    sampler = features.make_norm_proportional_sampling(model, fs, kappa=0.99)
    m = 100
    refill_path(monkeypatch, path)
    step = make_minibatch_step(Surrogate.discounted(model, fs, 0.99, None), sampler, 2.0, m,
                               10**6)
    _timed_steps(benchmark, step, theta, MINIBATCH_BLOCK // m)


@pytest.mark.parametrize("path", REFILL_PATHS)
def test_desk_solve_300_steps(benchmark, monkeypatch, desk, path):
    """A 300-step average-cost solve of the perfbench desk-queue config (m =
    1000, 75 ring blocks), from the fork of the producer to its reaping."""
    surrogate, sampler, _ = desk
    refill_path(monkeypatch, path)
    cfg = avgcost.AvgSolverConfig(penalty=2.0, radius=2.0, iterations=300, minibatch=DRAWS,
                                  learning_rate=1e-4, lr_halving_period=2000, seed=0,
                                  sum_target=0.0)
    trace = benchmark.pedantic(avgcost.sgd_solve_avg, rounds=5,
                               args=(surrogate.model, surrogate.fs, sampler, cfg))
    assert np.isfinite(trace.theta).all()


@pytest.mark.parametrize("period", [None, 2000, 100], ids=["constant", "halving-2000",
                                                          "halving-100"])
def test_buffered_step(benchmark, desk, period):
    """One m = 1 step and the average-cost projection, with the block refill
    and its candidate table amortized over GRAD_BLOCK calls, at a constant
    rate and at a rate halved every 2000 or every 100 steps, as
    ``run_projected_sgd`` halves it: the table is filled again from the step
    of each halving to the end of its block, which costs most when the
    period is shorter than the block."""
    surrogate, sampler, theta = desk
    step = make_buffered_step(surrogate, sampler, 2.0)
    rng, calls = np.random.default_rng(4), itertools.count()

    def projected_step():
        rate = 0.01 * 2.0 ** -(next(calls) // period) if period else 0.01
        return avgcost.project_theta_avg(step(theta, rng, rate), 200.0, 1.0)

    projected_step()  # the first block's dense gathers happen outside the timing
    assert benchmark.pedantic(projected_step, rounds=20,
                              iterations=GRAD_BLOCK).shape == theta.shape


def test_estimate_violations_desk_trace_row(benchmark, desk):
    """One trace-row estimate on the desk preset, as the solver makes it: 64
    draws, almost all of them distinct, from 19,600 pairs and 4900 states."""
    surrogate, sampler, theta = desk
    rng = np.random.default_rng(6)
    assert benchmark(avgcost.estimate_violations, surrogate.model, surrogate.fs, sampler,
                     theta, 64, rng) >= 0.0


def test_estimate_violations_desk_trace_row_disc(benchmark, desk):
    """The same trace-row estimate for the discounted surrogate at gamma =
    0.99 (the desk features carry no mu0), from the norm-proportional sampler
    at that rate: 64 draws over the feasibility rows."""
    surrogate, _, theta = desk
    model, fs = surrogate.model, surrogate.fs
    sampler = features.make_norm_proportional_sampling(model, fs, kappa=0.99)
    rng = np.random.default_rng(6)
    assert benchmark(discounted.estimate_violations_disc, model, fs, sampler, 0.99, None,
                     theta, 64, rng) >= 0.0


@pytest.fixture(scope="module")
def meta_point():
    """The average-cost meta size: a 10-state, 2-action Dirichlet MDP (20
    pairs) with d = 4 stationary-distribution features and norm-proportional
    sampling."""
    rng = np.random.default_rng(200)
    model = mdp.MdpModel.from_dense(rng.dirichlet(np.ones(10), size=(10, 2)),
                                    rng.random((10, 2)))
    cols = [mdp.stationary_state_action(model, mdp.Policy(rng.dirichlet(np.ones(2), size=10)))
            for _ in range(4)]
    fs = features.FeatureSpace(model, sp.csr_matrix(np.column_stack(cols)))
    return model, fs, features.make_norm_proportional_sampling(model, fs, kappa=1.0)


def test_estimate_violations_meta_point(benchmark, meta_point):
    """One meta-point estimate at the average-cost meta size: 534,552 draws
    over 20 pairs and 10 states."""
    model, fs, sampler = meta_point
    theta = np.array([0.9, -0.5, 0.4, 0.2])
    rng = np.random.default_rng(7)
    assert benchmark(avgcost.estimate_violations, model, fs, sampler, theta, 534_552,
                     rng) > 0.0


@pytest.mark.parametrize("table", ["meta pairs", "desk pairs"])
def test_count_violation_batch(benchmark, request, table):
    """One 65,536-draw batch of a violation estimate, pairs then states, each
    side drawn and reduced to its distinct indices and their counts by
    distinct_counts: over the 20 meta pairs and 10 states (3277 and 6554
    draws per entry) and over the 19,600 desk pairs and 4900 states (3.3 and
    13.4 per entry)."""
    fixture = request.getfixturevalue("meta_point" if table == "meta pairs" else "desk")
    sampler = fixture[2] if table == "meta pairs" else fixture[1]
    rng = np.random.default_rng(8)
    pairs, pair_counts, states, state_counts = benchmark(
        lambda: next(_sgd._counted_draws(sampler, rng, 1 << 16)))
    assert pair_counts.sum() == state_counts.sum() == 1 << 16
    assert len(pairs) <= sampler.num_pairs and len(states) <= sampler.num_states


@pytest.fixture(scope="module")
def small_disc():
    """A 6-state, 2-action Dirichlet MDP with d = 3 features at discount 0.9."""
    rng = np.random.default_rng(210)
    model = mdp.MdpModel.from_dense(rng.dirichlet(np.ones(6), size=(6, 2)),
                                    rng.random((6, 2)))
    fs = features.FeatureSpace(model, sp.csr_matrix(rng.random((12, 3))), normalize=True)
    sampler = features.make_norm_proportional_sampling(model, fs, kappa=0.9)
    return Surrogate.discounted(model, fs, 0.9, None), sampler


def test_single_draw_step_d3(benchmark, small_disc):
    """One m = 1 discounted step at d = 3 and the ball projection, with the
    block refill and its candidate table amortized over GRAD_BLOCK calls."""
    surrogate, sampler = small_disc
    step = make_buffered_step(surrogate, sampler, 2.0)
    rng = np.random.default_rng(5)
    theta = np.array([0.4, -0.2, 0.3])

    def projected_step():
        return project_theta_disc(step(theta, rng, 0.01), 1.3)

    projected_step()
    assert benchmark.pedantic(projected_step, rounds=50, iterations=GRAD_BLOCK).shape == (3,)


@pytest.mark.parametrize("norm", [0.5, 2.0], ids=["inside", "outside"])
def test_project_theta_disc_d3(benchmark, norm):
    """The ball projection alone, with the point inside and outside the ball."""
    theta = np.array([0.6, -0.48, 0.64]) * norm  # unit direction times norm
    assert benchmark(project_theta_disc, theta, 1.3).shape == (3,)


@pytest.mark.parametrize("cpus", [1, 2], ids=["sequential", "pooled"])
def test_meta_disc_two_points(benchmark, monkeypatch, cpus):
    """A two-point discounted meta run with 300 single-draw iterations per
    point, recording the last one only, on the 4-state, d = 3 fixture: with
    one CPU the points run in this process, with two each runs in its own
    forked worker."""
    monkeypatch.setattr(_sgd, "_cpu_count", lambda: cpus)
    model = fixtures.load_mdp_fixture(DATA / "mdp4.json")
    fs = fixtures.load_feature_fixture(DATA / "features3.json", model)
    sampler = features.make_norm_proportional_sampling(model, fs, kappa=0.9)
    result = benchmark(meta_solve_disc, model, fs, sampler, gamma=0.9, alpha=None,
                       tolerance=1.5, failure_prob=0.2, seed=0, radius=1.5,
                       violation_bound=1.0, selection_weight=1.0,
                       max_iterations_per_point=300, trace_stride=300)
    assert result.iterations_per_point.tolist() == [300, 300]


@pytest.mark.parametrize("kind", ["LONGER", "LBFS"])
def test_heuristic_policy_paper(benchmark, kind):
    policy = benchmark(queueing.heuristic_policy, queueing.PAPER_SPEC, kind)
    assert policy.probs.shape == (queueing.PAPER_SPEC.num_states, queueing.NUM_ACTIONS)


@pytest.fixture(scope="module")
def paper_lbfs():
    return queueing.heuristic_policy(queueing.PAPER_SPEC, "LBFS")


def test_policy_check_paper(benchmark, paper_lbfs):
    """The row check alone on the prebuilt LBFS paper table: row sums, their
    distance from 1 and the sign test, in one blocked pass."""
    policy = benchmark(mdp.Policy, paper_lbfs.probs)
    assert policy.probs is paper_lbfs.probs


def test_policy_from_occupancy_paper(benchmark):
    """The policy of a signed occupancy over the 4,112,784 paper pairs: clip,
    row totals, normalisation with the uniform fallback, and the row check."""
    spec = queueing.PAPER_SPEC
    occupancy = np.random.default_rng(0).standard_normal(spec.num_states * queueing.NUM_ACTIONS)
    policy = benchmark(mdp.policy_from_occupancy, occupancy, queueing.NUM_ACTIONS)
    assert policy.probs.shape == (spec.num_states, queueing.NUM_ACTIONS)


@pytest.mark.parametrize("cpus", [1, 2], ids=["sequential", "pooled"])
def test_simulated_eval_paper(benchmark, monkeypatch, paper_lbfs, cpus):
    """LBFS on the paper preset at the CLI's eval defaults: 3 replications of
    20000 steps after a 2000-step burn-in. With one CPU the replications run in
    this process, with two in forked workers that inherit the policy table."""
    monkeypatch.setattr(_sgd, "_cpu_count", lambda: cpus)
    mean, std = benchmark(queueing.evaluate_policy_simulated, queueing.PAPER_SPEC, paper_lbfs,
                          20000, 2000, 3, seed=0)
    assert np.isfinite(mean) and std > 0.0


@pytest.mark.parametrize("kind", ["LBFS", "LONGER"])
def test_trajectory_paper(benchmark, paper_lbfs, kind):
    """One trajectory of 100,000 steps from the empty paper network, in this
    process and without the pool, so the time per call in seconds times 10 is
    the loop's microseconds per simulated step. LBFS rows are deterministic;
    LONGER's tie rows (0.5 per server) make the action depend on its uniform."""
    spec = queueing.PAPER_SPEC
    policy = paper_lbfs if kind == "LBFS" else queueing.heuristic_policy(spec, kind)
    visited = benchmark(lambda: queueing._visited_pairs(spec, policy, 10**5, 0,
                                                        np.random.default_rng(0)))
    assert len(visited) == 10**5

"""perfbench's span tracer wraps the package's entry points by name, so a
refactor that moves or renames one would silently drop its spans from
``--trace 1`` runs. These tests hold the names and the wrapping in place."""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from dualalp import _sgd, avgcost, discounted
from dualalp._sgd import GRAD_BLOCK
from dualalp.features import make_norm_proportional_sampling, make_uniform_sampling

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


@pytest.mark.parametrize("owner, attr", [(owner, attr) for owner, attr, *_ in
                                         tracing.ENTRY_POINTS],
                         ids=[f"{owner.__name__}.{attr}" for owner, attr, *_ in
                              tracing.ENTRY_POINTS])
def test_entry_point_exists(owner, attr):
    assert callable(owner.__dict__[attr])


def test_installed_wraps_then_restores():
    originals = [owner.__dict__[attr] for owner, attr, *_ in tracing.ENTRY_POINTS]
    with tracing.Tracer().installed():
        for (owner, attr, *_), original in zip(tracing.ENTRY_POINTS, originals):
            wrapped = owner.__dict__[attr]
            assert wrapped is not original and wrapped.__wrapped__ is original
    for (owner, attr, *_), original in zip(tracing.ENTRY_POINTS, originals):
        assert owner.__dict__[attr] is original


def test_traced_sgd_run_records_its_iterations(desk_fixture):
    model, fs = desk_fixture
    sampler = make_uniform_sampling(model, fs, 1.0)
    cfg = avgcost.AvgSolverConfig(penalty=1.0, radius=1.5, iterations=40, minibatch=2, seed=3)
    tracer = tracing.Tracer()
    tracer.begin_run("sgd")
    with tracer.installed():
        traced = avgcost.sgd_solve_avg(model, fs, sampler, cfg)  # looked up as callers do
    names = [tracer.names[i] for i in tracer.name_id]
    assert names.count("sgd.run") == 1 and names.count("avgcost.sgd_solve") == 1
    metrics = tracing.layer_metrics(tracer, 0)
    assert metrics["sgd.iterations"] == 40
    assert metrics["avgcost.project_calls"] == 40
    assert metrics["sgd.errors"] == 0
    untraced = avgcost.sgd_solve_avg(model, fs, sampler, cfg)
    np.testing.assert_array_equal(traced.theta, untraced.theta)


def test_traced_disc_sgd_run_records_its_iterations(desk_fixture):
    model, fs = desk_fixture
    sampler = make_uniform_sampling(model, fs, 0.9)
    cfg = discounted.DiscSolverConfig(discount=0.9, penalty=1.0, radius=1.5, iterations=30,
                                      seed=3)
    tracer = tracing.Tracer()
    tracer.begin_run("sgd")
    with tracer.installed():
        traced = discounted.sgd_solve_disc(model, fs, sampler, cfg)
    names = [tracer.names[i] for i in tracer.name_id]
    assert names.count("sgd.run") == 1 and names.count("discounted.sgd_solve") == 1
    metrics = tracing.layer_metrics(tracer, 0)
    assert metrics["sgd.iterations"] == 30
    assert metrics["discounted.project_calls"] == 30
    assert metrics["avgcost.project_calls"] == 0
    assert metrics["sgd.errors"] == 0
    # under uniform sampling every batch draws: each single-draw refill is one
    # draw() of GRAD_BLOCK per side and one FeatureSpace.rows, and each trace
    # row's estimate one draw of trace_violation_samples per side
    refills, rows = -(-cfg.iterations // GRAD_BLOCK), len(traced.iterations)
    samples = cfg.trace_violation_samples
    assert (refills, rows, samples) == (1, 30, 64)
    assert metrics["features.rows_calls"] == refills
    assert metrics["features.rows_gathered"] == GRAD_BLOCK * refills
    assert metrics["features.sample_calls"] == 2 * refills + 2 * rows
    assert metrics["features.draws"] == 2 * GRAD_BLOCK * refills + 2 * samples * rows
    untraced = discounted.sgd_solve_disc(model, fs, sampler, cfg)
    np.testing.assert_array_equal(traced.theta, untraced.theta)


def test_traced_meta_run_counts_every_draw(monkeypatch, desk_fixture):
    """A meta run in one process: every draw goes through ``sample_pairs`` and
    ``sample_states``, so ``features.draws`` is each point's single-draw
    refills, its trace rows' estimates and its violation estimate, both sides
    of each. Norm-proportional sampling searches a table on both sides."""
    monkeypatch.setattr(_sgd, "_cpu_count", lambda: 1)  # worker spans would be lost
    model, fs = desk_fixture
    sampler = make_norm_proportional_sampling(model, fs, 1.0)
    tracer = tracing.Tracer()
    tracer.begin_run("meta")
    with tracer.installed():
        result = avgcost.meta_solve_avg(model, fs, sampler, violation_bound=0.5,
                                        selection_weight=0.5, tolerance=0.4,
                                        failure_prob=0.1, seed=21, radius=1.5,
                                        trace_stride=50)
    assert len(result.grid_points) > 2
    samples = _sgd.SolverConfig.trace_violation_samples  # the default each point runs with
    refills = sum(-(-iterations // GRAD_BLOCK) for iterations in result.iterations_per_point)
    rows = sum(len(trace.iterations) for trace in result.traces)
    expected = 2 * (GRAD_BLOCK * refills + samples * rows + int(result.violation_draws.sum()))
    assert tracing.layer_metrics(tracer, 0)["features.draws"] == expected

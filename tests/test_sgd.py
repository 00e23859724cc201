"""The block-presampled SGD steps against their straightforward per-step
forms, and the checks on the run configurations and the learning-rate
halving period.

``make_buffered_step`` (one draw per step), ``make_minibatch_step`` (m draws
per step, through ``SamplingPair.sample_steps``) and ``project_theta_disc``
compute their values from per-block precomputed terms; the reference forms
do the same arithmetic one step at a time, a step being
``theta - rate * gradient``, and every value must agree bit for bit.
"""
import dataclasses
import hashlib
import itertools
import math
import mmap
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from dualalp import _sgd, features
from dualalp._sgd import (GRAD_BLOCK, MINIBATCH_BLOCK, SgdProblem, Surrogate, draw,
                          make_buffered_step, make_minibatch_step, run_projected_sgd)
from dualalp.avgcost import (AvgSolverConfig, estimate_violations, sgd_solve_avg,
                             subgradient_estimate)
from dualalp.cli import run_bench_queue
from dualalp.discounted import (DiscSolverConfig, estimate_violations_disc,
                                project_theta_disc, sgd_solve_disc, subgradient_estimate_disc)
from dualalp.errors import DualAlpError, InputShapeError, ParameterError, SamplingSupportError
from dualalp.features import (FeatureSpace, SamplingPair, make_norm_proportional_sampling,
                              make_uniform_sampling)
from dualalp.fixtures import load_feature_fixture, load_mdp_fixture
from dualalp.grid import PenaltyGrid
from dualalp.mdp import (MdpModel, OptimalSolution, Policy, policy_from_occupancy,
                         solve_optimal, stationary_distribution)
from dualalp.queueing import DESK_SPEC, build_features, build_mdp
from dualalp.trace import MetaResult

from conftest import narrow_random_space, random_features, random_mdp

DATA = Path(__file__).parent / "data"
CALLS = 3 * GRAD_BLOCK + 1  # three full blocks and the first step of a fourth
# rate at call t: constant, halved every 100 calls (so inside the 512-draw
# blocks), halved at every call (down through the subnormals to 0), changed
# after ever shorter runs (from about 30 calls down to 1), back to an earlier
# rate inside a block (a table filled at 0.3 must not be read after a fill at
# 0.1), and zero
RATES = {"constant": lambda t: 0.3, "halving": lambda t: 0.3 * 2.0 ** -(t // 100),
         "halving every call": lambda t: 0.3 * 2.0 ** -t,
         "shrinking runs": lambda t: 0.3 / (1 + t * t // 997),
         "returning rate": lambda t: 0.3 if t % 3 else 0.1, "zero": lambda t: 0.0}


def reference_buffered_grad(surrogate, sp, penalty, branches):
    """The per-step estimator: one dict-buffered closure that evaluates every
    term at its step, on the draws of one :func:`draw` per block, with scipy's
    public row slices. ``branches`` counts the (negativity, residual) terms
    each step took."""
    loss_phi = surrogate.fs.loss_phi
    block = GRAD_BLOCK
    buf = {"pos": block}

    def refill(rng):
        pair_idx, state_idx = draw(sp, rng, block)
        buf["q_pair"], buf["q_state"] = sp.pair_prob(pair_idx), sp.state_prob(state_idx)
        buf["occ0"], buf["res0"] = surrogate.fs.mu0[pair_idx], surrogate.res_base[state_idx]
        buf["rows"] = surrogate.fs.phi[pair_idx].toarray()
        buf["drift"] = surrogate.state_operator[state_idx].toarray()
        buf["pos"] = 0

    def grad(theta, rng):
        if buf["pos"] >= block:
            refill(rng)
        i = buf["pos"]
        buf["pos"] = i + 1
        row = buf["rows"][i]
        drift = buf["drift"][i]
        g = loss_phi.copy()
        negativity = buf["occ0"][i] + row @ theta < 0.0
        if negativity:
            g -= (penalty / buf["q_pair"][i]) * row
        resid = drift @ theta + buf["res0"][i]
        if resid > 0.0:
            g += (penalty / buf["q_state"][i]) * drift
        elif resid < 0.0:
            g -= (penalty / buf["q_state"][i]) * drift
        branches[negativity, "residual " + (">" if resid > 0.0 else "<" if resid < 0.0
                                            else "=") + " 0"] += 1
        return g

    return grad


def reference_subgradient(surrogate, sp, penalty, theta, rng, m):
    """The m-draw estimate with every term written out in place, on the draws
    of one :func:`draw`, with scipy's public row slices and products."""
    pair_idx, state_idx = draw(sp, rng, m)
    q_pair, rows = sp.pair_prob(pair_idx), surrogate.fs.phi[pair_idx]
    w_neg = np.where(surrogate.fs.mu0[pair_idx] + rows @ theta < 0.0, 1.0 / q_pair, 0.0)
    q_state, state_rows = sp.state_prob(state_idx), surrogate.state_operator[state_idx]
    w_res = np.sign(state_rows @ theta + surrogate.res_base[state_idx]) / q_state
    return (surrogate.fs.loss_phi - (penalty / m) * (w_neg @ rows)
            + (penalty / m) * (w_res @ state_rows))


def reference_project_disc(theta, radius):
    theta = np.asarray(theta, dtype=float)
    norm = float(np.linalg.norm(theta))
    if norm <= radius:
        return theta
    return theta * (radius / norm)


def same_bits(a, b):
    """Equal values (np.array_equal) and equal bits, signed zeros included."""
    return np.array_equal(a, b) and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _fixture_instance():
    model = load_mdp_fixture(DATA / "mdp4.json")
    return model, load_feature_fixture(DATA / "features3.json", model)


def _dirichlet_instance():
    rng = np.random.default_rng(2024)
    model = random_mdp(rng, 6, 2)
    return model, random_features(rng, model, 3, density=0.7, signed=True, normalize=True)


def _surrogates(model, fs):
    """(name, surrogate, sampler): both objectives, each with another sampler.
    The discounted surrogate takes no mu0, so it gets the features without it."""
    gamma = 0.85
    disc_fs = FeatureSpace(model, fs.phi)
    return [("average cost", Surrogate.average_cost(model, fs),
             make_uniform_sampling(model, fs, 1.0)),
            ("discounted", Surrogate.discounted(model, disc_fs, gamma, None),
             make_norm_proportional_sampling(model, disc_fs, gamma))]


@pytest.mark.parametrize("instance", [_fixture_instance, _dirichlet_instance],
                         ids=["tests-data", "dirichlet-6"])
def test_buffered_grad_matches_per_step_reference(instance):
    """``make_buffered_step`` against theta - rate * the per-step gradient, at
    a constant rate, rates that change inside the blocks (every 100 steps,
    every step, after ever shorter runs, or back to an earlier rate) and rate
    0."""
    model, fs = instance()
    # a signed mu0 makes the negativity term active at theta = 0, where the
    # average-cost residual is exactly 0
    signed = FeatureSpace(model, fs.phi, mu0=np.random.default_rng(7).normal(
        scale=0.05, size=model.num_pairs))
    cases = _surrogates(model, fs) + [("signed mu0", Surrogate.average_cost(model, signed),
                                      make_uniform_sampling(model, signed, 1.0))]
    for schedule, rate_at in RATES.items():
        branches = Counter()
        for name, surrogate, sampler in cases:
            loss_phi = surrogate.fs.loss_phi.copy()
            penalty = 1.7
            step = make_buffered_step(surrogate, sampler, penalty)
            reference = reference_buffered_grad(surrogate, sampler, penalty, branches)
            rng, rng_ref = np.random.default_rng(5), np.random.default_rng(5)
            thetas = np.random.default_rng(6)
            for call in range(CALLS):
                # theta = 0 every fifth call: the average-cost residual is then exactly 0
                theta = (np.zeros(fs.dim) if call % 5 == 0
                         else thetas.normal(scale=2.0, size=fs.dim))
                given, rate = theta.copy(), rate_at(call)
                out, expected = step(theta, rng, rate), theta - rate * reference(theta, rng_ref)
                assert same_bits(out, expected), (schedule, name, call)
                assert same_bits(theta, given), (schedule, name, call)
                assert out.base is None and not np.shares_memory(out, theta)
                assert not np.shares_memory(out, surrogate.fs.loss_phi)
                out *= -3.0  # the caller owns the step; later calls must not see this
                np.testing.assert_array_equal(surrogate.fs.loss_phi, loss_phi)
            assert rng.random() == rng_ref.random()  # the same draws were taken
        assert set(branches) == {(negativity, "residual " + sign + " 0")
                                 for negativity in (True, False)
                                 for sign in (">", "<", "=")}, schedule


# ------------------------------------------------------- minibatch estimator

def _samplers(model, fs):
    """(name, sampler): both sides uniform, both searched in a table, and
    each side uniform with the other searched."""
    searched = make_norm_proportional_sampling(model, fs, 1.0)
    return [("uniform", make_uniform_sampling(model, fs, 1.0)),
            ("searched", searched),
            ("uniform pairs", dataclasses.replace(searched, pair_probs=None)),
            ("uniform states", dataclasses.replace(searched, state_probs=None))]


@pytest.mark.parametrize("m", [1, 3, 1000])
def test_sample_steps_matches_successive_draws(m):
    model, fs = narrow_random_space(np.random.default_rng(3))
    for name, sampler in _samplers(model, fs):
        rng, rng_ref = np.random.default_rng(11), np.random.default_rng(11)
        for steps in (4, 1, 3):
            pairs, states = sampler.sample_steps(rng, steps, m)
            assert pairs.shape == states.shape == (steps, m), name
            for i in range(steps):
                ref_pairs, ref_states = draw(sampler, rng_ref, m)
                assert np.array_equal(pairs[i], ref_pairs), (name, steps, i)
                assert np.array_equal(states[i], ref_states), (name, steps, i)
        # the generator ends where the successive calls leave it
        assert rng.bit_generator.state == rng_ref.bit_generator.state, name


REFILL_PATHS = ("in-process", "forked")


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes forked through ``os.fork`` during the test."""
    pids, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def select_refill_path(monkeypatch, path):
    """A minibatch run of enough ring blocks forks its refill producer where
    the fork rule allows: two usable CPUs allow it, one does not. A Python
    thread left running by pytest would refuse it too, so the tests count
    the forks rather than trust the path."""
    monkeypatch.setattr(_sgd, "_cpu_count", lambda: 2 if path == "forked" else 1)


def assert_reaped(pids):
    """No process of ``pids`` is left, not even as a zombie."""
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def _desk_discounted():
    """The desk preset's discounted surrogate at gamma = 0.99 (narrow Phi:
    about 4 of 170 columns per row) with its norm-proportional sampler."""
    model = build_mdp(DESK_SPEC)
    fs = FeatureSpace(model, build_features(DESK_SPEC, model=model)[0].phi)
    return [("desk discounted", Surrogate.discounted(model, fs, 0.99, None),
             make_norm_proportional_sampling(model, fs, 0.99))]


def _narrow():
    return _surrogates(*narrow_random_space(np.random.default_rng(8)))


def _wide_csr():
    return _surrogates(*_dirichlet_instance())


@pytest.mark.parametrize("instance, m", [
    pytest.param(_narrow, 16, id="narrow-16"),
    pytest.param(_narrow, 1000, id="narrow-1000"),
    pytest.param(_wide_csr, 16, id="wide-dense-16"),
    pytest.param(_wide_csr, 1000, id="wide-dense-1000"),
    pytest.param(_desk_discounted, 100, id="desk-disc-100")])
def test_minibatch_grad_matches_subgradient_estimate(monkeypatch, forks, instance, m):
    """``make_minibatch_step`` against theta - rate * subgradient_estimate on
    the same draws, at a rate halved every 100 steps and 0 every seventh, on
    the in-process refill and on the forked producer, for the whole run."""
    steps = max(1, MINIBATCH_BLOCK // m)
    iterations = 2 * steps + 3  # two full refills and a third cut short by the run's end
    assert _sgd._ring_blocks(steps, iterations, _sgd.RING_SLOTS)[1] > _sgd.RING_SLOTS
    for (name, surrogate, sampler), path in itertools.product(instance(), REFILL_PATHS):
        select_refill_path(monkeypatch, path)
        del forks[:]
        fs = surrogate.fs
        loss_phi = fs.loss_phi.copy()
        penalty = 1.7
        step = make_minibatch_step(surrogate, sampler, penalty, m, iterations)
        rng, rng_ref, rng_written = (np.random.default_rng(5) for _ in range(3))
        thetas = np.random.default_rng(6)
        for t in range(iterations):
            # theta = 0 every fifth step: the average-cost residual is then exactly 0
            theta = np.zeros(fs.dim) if t % 5 == 0 else thetas.normal(scale=2.0, size=fs.dim)
            given = theta.copy()
            rate = 0.0 if t % 7 == 3 else 0.3 * 2.0 ** -(t // 100)
            out = step(theta, rng, rate)
            pairs, states = draw(sampler, rng_ref, m)
            expected = surrogate.subgradient_estimate(sampler, penalty, theta, pair_idx=pairs,
                                                      state_idx=states)
            assert same_bits(out, theta - rate * expected), (name, t)
            assert same_bits(theta, given), (name, t)
            written = reference_subgradient(surrogate, sampler, penalty, theta, rng_written, m)
            assert same_bits(expected, written), (name, t)
            assert out.base is None and not np.shares_memory(out, surrogate.fs.loss_phi)
            out *= -3.0  # the caller owns the step
            np.testing.assert_array_equal(surrogate.fs.loss_phi, loss_phi)
            if t == iterations - 1:
                # the last refill drew only the steps left, as many as the reference took
                assert rng.bit_generator.state == rng_ref.bit_generator.state, name
                assert_reaped(forks)  # the producer is gone once the run's draws are in
        assert len(forks) == (path == "forked"), (name, path)


@pytest.mark.parametrize("path", REFILL_PATHS)
def test_minibatch_step_past_the_run_raises(monkeypatch, forks, path):
    """A step past the run's ``iterations`` raises on both refill paths, with
    no producer left and the generator where the run's steps left it."""
    surrogate, sampler = _narrow_avg()
    select_refill_path(monkeypatch, path)
    m, iterations = 1000, 17  # five ring blocks of up to 4 steps
    step = make_minibatch_step(surrogate, sampler, 2.0, m, iterations)
    rng, rng_ref = np.random.default_rng(1), np.random.default_rng(1)
    theta = np.zeros(surrogate.fs.dim)
    for _ in range(iterations):
        step(theta, rng, 0.1)
        draw(sampler, rng_ref, m)
    with pytest.raises(ParameterError, match="past the end of the minibatch run"):
        step(theta, rng, 0.1)
    assert len(forks) == (path == "forked")
    assert_reaped(forks)
    assert rng.bit_generator.state == rng_ref.bit_generator.state


# sha256 of theta from bench-queue on the desk preset with its defaults (m = 1000,
# seed 0) cut to 300 steps, recorded before the pair rows moved to CSR views
DESK_MINIBATCH_THETA_SHA256 = "dc62e13f4ae917bd8a48809c65ca3924f5910b6cbad73f55e1a085232b8033d3"


def test_desk_minibatch_theta_pinned(tmp_path):
    summary = run_bench_queue({"bench": {"iterations": 300}}, tmp_path, preset="desk")
    theta = np.asarray(summary["result"]["solved"]["theta"], dtype="<f8")
    assert hashlib.sha256(theta.tobytes()).hexdigest() == DESK_MINIBATCH_THETA_SHA256


@pytest.mark.parametrize("side", ["pairs", "states"])
def test_minibatch_grad_support_error_at_refill(monkeypatch, side):
    model, fs = _dirichlet_instance()
    size = model.num_pairs if side == "pairs" else model.num_states
    probs = np.full(size, 1.0 / (size - 1))
    probs[2] = 0.0
    sampler = SamplingPair(num_pairs=model.num_pairs, num_states=model.num_states,
                           c_pair=1.0, c_state=1.0,
                           **{("pair_probs" if side == "pairs" else "state_probs"): probs})
    sample_steps = SamplingPair.sample_steps

    def last_draw_unsupported(self, rng, steps, m):
        drawn = dict(zip(["pairs", "states"], sample_steps(self, rng, steps, m)))
        drawn[side][-1, -1] = 2  # the sampler never draws it, so plant it
        return drawn["pairs"], drawn["states"]

    def no_gather(*args):
        pytest.fail("rows were gathered for a zero-probability draw")

    monkeypatch.setattr(SamplingPair, "sample_steps", last_draw_unsupported)
    monkeypatch.setattr(_sgd, "_row_gather", no_gather)
    step = make_minibatch_step(Surrogate.average_cost(model, fs), sampler, 2.0, 4, 10)
    # the draw is the last of the block, and the first step already raises
    with pytest.raises(SamplingSupportError):
        step(np.zeros(fs.dim), np.random.default_rng(0), 0.1)


@pytest.mark.parametrize("side", ["pairs", "states"])
def test_minibatch_support_error_on_both_refill_paths(monkeypatch, forks, side):
    """A zero-probability draw planted last in the third refill raises at
    that refill's first step on both paths, after the rows of the two refills
    before it and none of its own, and the generator ends where the
    in-process refill leaves it. The rows are counted in shared memory, so
    the producer's gathers count too."""
    model, fs = _dirichlet_instance()
    size = model.num_pairs if side == "pairs" else model.num_states
    probs = np.full(size, 1.0 / (size - 1))
    probs[2] = 0.0
    sampler = SamplingPair(num_pairs=model.num_pairs, num_states=model.num_states,
                           c_pair=1.0, c_state=1.0,
                           **{("pair_probs" if side == "pairs" else "state_probs"): probs})
    m, calls = 1000, [0]
    steps = MINIBATCH_BLOCK // m
    sample_steps, row_gather = SamplingPair.sample_steps, features._row_gather
    gathered = np.ndarray(1, np.int64, mmap.mmap(-1, 8))

    def third_refill_unsupported(self, rng, count, size):
        drawn = dict(zip(["pairs", "states"], sample_steps(self, rng, count, size)))
        calls[0] += 1
        if calls[0] == 3:
            drawn[side][-1, -1] = 2  # the sampler never draws it, so plant it
        return drawn["pairs"], drawn["states"]

    def counting_gather(matrix, idx, out=None):
        gathered[0] += len(idx)
        return row_gather(matrix, idx, out)

    monkeypatch.setattr(SamplingPair, "sample_steps", third_refill_unsupported)
    monkeypatch.setattr(features, "_row_gather", counting_gather)
    monkeypatch.setattr(_sgd, "_row_gather", counting_gather)
    seen = {}
    for path in REFILL_PATHS:
        select_refill_path(monkeypatch, path)
        calls[0] = gathered[0] = 0
        del forks[:]
        step = make_minibatch_step(Surrogate.average_cost(model, fs), sampler, 2.0, m,
                                   5 * steps)
        rng = np.random.default_rng(0)
        with pytest.raises(SamplingSupportError):
            for t in range(5 * steps):
                step(np.zeros(fs.dim), rng, 0.1)
        seen[path] = (t, int(gathered[0]), rng.bit_generator.state)
        assert len(forks) == (path == "forked")
        assert_reaped(forks)
    assert seen["forked"] == seen["in-process"]
    assert seen["forked"][:2] == (2 * steps, 2 * 2 * steps * m)


@pytest.mark.parametrize("path", REFILL_PATHS)
def test_step_after_a_failed_refill_raises(monkeypatch, forks, path):
    """A step after the refill that raised raises ParameterError naming that
    ring block, on both paths, with no producer left running. A state of zero
    probability is planted in the third refill of a run of 5000 steps at
    m = 16: refills of 1024 steps, 20 ring blocks forked and 5 in-process."""
    model, fs = _dirichlet_instance()
    probs = np.full(model.num_states, 1.0 / (model.num_states - 1))
    probs[2] = 0.0
    sampler = SamplingPair(num_pairs=model.num_pairs, num_states=model.num_states,
                           c_pair=1.0, c_state=1.0, state_probs=probs)
    sample_steps, calls = SamplingPair.sample_steps, [0]

    def third_refill_unsupported(self, rng, count, size):
        pairs, states = sample_steps(self, rng, count, size)
        calls[0] += 1
        if calls[0] == 3:
            states[0, 0] = 2  # the sampler never draws it, so plant it
        return pairs, states

    monkeypatch.setattr(SamplingPair, "sample_steps", third_refill_unsupported)
    select_refill_path(monkeypatch, path)
    m, iterations = 16, 5000
    step = make_minibatch_step(Surrogate.average_cost(model, fs), sampler, 2.0, m, iterations)
    theta, rng = np.zeros(fs.dim), np.random.default_rng(0)
    with pytest.raises(SamplingSupportError):
        for t in range(iterations):
            step(theta, rng, 0.1)
    assert t == 2 * MINIBATCH_BLOCK // m
    failed = "ring block 8 of 20" if path == "forked" else "ring block 2 of 5"
    for _ in range(2):
        with pytest.raises(ParameterError, match=f"a step after {failed} raised"):
            step(theta, rng, 0.1)
    assert len(forks) == (path == "forked")
    assert_reaped(forks)


def _narrow_avg():
    model, fs = narrow_random_space(np.random.default_rng(8))
    return Surrogate.average_cost(model, fs), make_uniform_sampling(model, fs, 1.0)


NARROW_ITERATIONS = 3000  # 12 ring blocks at m = 16


def test_minibatch_solve_on_both_refill_paths(monkeypatch, forks):
    """A whole minibatch solve gives the same trace on both paths, and the
    producer of the forked one is reaped when the run ends."""
    surrogate, sampler = _narrow_avg()
    cfg = AvgSolverConfig(penalty=2.0, radius=2.0, iterations=NARROW_ITERATIONS, minibatch=16,
                          seed=4, trace_stride=500, sum_target=0.0)
    traces = []
    for path in REFILL_PATHS:
        select_refill_path(monkeypatch, path)
        del forks[:]
        traces.append(sgd_solve_avg(surrogate.model, surrogate.fs, sampler, cfg))
        assert len(forks) == (path == "forked")
        assert_reaped(forks)
    for name in ("iterations", "objective", "v_hat", "theta"):
        assert same_bits(getattr(traces[0], name), getattr(traces[1], name)), name


def test_no_producer_outlives_a_run_that_raises(monkeypatch, forks):
    surrogate, sampler = _narrow_avg()
    select_refill_path(monkeypatch, "forked")
    cfg = AvgSolverConfig(penalty=2.0, radius=2.0, iterations=NARROW_ITERATIONS, minibatch=16,
                          trace_stride=1000, sum_target=0.0)

    def hook(policy):  # at t = 1000, in the fourth of 12 ring blocks
        os.kill(forks[0], 0)  # the producer is still running
        raise RuntimeError("stopped by the hook")

    with pytest.raises(RuntimeError, match="stopped by the hook") as caught:
        sgd_solve_avg(surrogate.model, surrogate.fs, sampler, cfg, eval_hook=hook)
    assert len(forks) == 1
    # the traceback keeps the run's frames, and so its step, alive: the solve
    # itself must have stopped the producer
    assert caught.traceback
    assert_reaped(forks)


def test_no_producer_outlives_a_dropped_step(monkeypatch, forks):
    surrogate, sampler = _narrow_avg()
    select_refill_path(monkeypatch, "forked")
    step = make_minibatch_step(surrogate, sampler, 2.0, 16, NARROW_ITERATIONS)
    step(np.zeros(surrogate.fs.dim), np.random.default_rng(0), 0.1)
    assert len(forks) == 1
    os.kill(forks[0], 0)  # the producer is still running
    del step  # the step holds the producer in no reference cycle, so it goes at once
    assert_reaped(forks)


def test_killed_producer_raises_naming_the_block(monkeypatch, forks):
    surrogate, sampler = _narrow_avg()
    select_refill_path(monkeypatch, "forked")
    step = make_minibatch_step(surrogate, sampler, 2.0, 16, NARROW_ITERATIONS)
    theta, rng = np.zeros(surrogate.fs.dim), np.random.default_rng(0)
    step(theta, rng, 0.1)
    os.kill(forks[0], signal.SIGKILL)
    with pytest.raises(DualAlpError, match=r"refill producer ended before ring block \d+ of 12"):
        for _ in range(NARROW_ITERATIONS):
            step(theta, rng, 0.1)
    assert_reaped(forks)


@pytest.mark.parametrize("setting", ["forks", "one CPU", "no fork", "daemon", "threads",
                                     "four ring blocks"])
def test_fork_rule_selects_the_refill_path(monkeypatch, forks, setting):
    """The fork rule of the meta workers (:func:`_sgd._may_fork`) also
    decides the refills, and a run of no more ring blocks than slots gains
    nothing from a producer: each failing condition refills in-process, with
    the same steps."""
    surrogate, sampler = _narrow_avg()
    m, release, waiters = 1000, threading.Event(), []
    iterations = 16 if setting == "four ring blocks" else 17  # 4 steps per ring block
    select_refill_path(monkeypatch, "in-process" if setting == "one CPU" else "forked")
    if setting == "no fork":
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    elif setting == "daemon":
        monkeypatch.setattr(multiprocessing, "current_process",
                            lambda: SimpleNamespace(daemon=True))
    elif setting == "threads":
        waiters.append(threading.Thread(target=release.wait, args=(30,)))
        waiters[0].start()
    step = make_minibatch_step(surrogate, sampler, 2.0, m, iterations)
    rng, rng_ref = np.random.default_rng(1), np.random.default_rng(1)
    theta = np.random.default_rng(2).normal(size=surrogate.fs.dim)
    try:
        for _ in range(iterations):
            pairs, states = draw(sampler, rng_ref, m)
            expected = surrogate.subgradient_estimate(sampler, 2.0, theta, pair_idx=pairs,
                                                      state_idx=states)
            assert same_bits(step(theta, rng, 0.1), theta - 0.1 * expected)
    finally:
        release.set()
        for waiter in waiters:
            waiter.join(5)
    assert len(forks) == (setting == "forks")
    assert_reaped(forks)
    assert rng.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("path", ["explicit subgradient", "violation estimate",
                                  "single-draw refill", "minibatch refill"])
def test_state_draw_out_of_support_gathers_no_row(monkeypatch, path):
    """Every estimator checks both sides' support before it gathers a row of
    either side, so a zero-probability state draw gathers no pair row."""
    model, fs = _dirichlet_instance()
    probs = np.full(model.num_states, 1.0 / (model.num_states - 1))
    probs[2] = 0.0
    sampler = SamplingPair(num_pairs=model.num_pairs, num_states=model.num_states,
                           c_pair=1.0, c_state=1.0, state_probs=probs)
    pairs, states = np.array([0, 4, 7]), np.array([1, 3, 2])

    def no_gather(*args):
        pytest.fail("rows were gathered for a zero-probability draw")

    # the sampler never draws state 2, so the paths that draw are handed it
    monkeypatch.setattr(SamplingPair, "sample_pairs", lambda self, rng, m: np.resize(pairs, m))
    monkeypatch.setattr(SamplingPair, "sample_states", lambda self, rng, m: np.resize(states, m))
    monkeypatch.setattr(SamplingPair, "sample_steps", lambda self, rng, steps, m: (
        np.resize(pairs, (steps, m)), np.resize(states, (steps, m))))
    monkeypatch.setattr(_sgd, "_row_gather", no_gather)
    monkeypatch.setattr(FeatureSpace, "rows", no_gather)
    monkeypatch.setattr(features, "_row_gather", no_gather)
    surrogate, theta, rng = Surrogate.average_cost(model, fs), np.zeros(fs.dim), None
    calls = {
        "explicit subgradient": [lambda: surrogate.subgradient_estimate(
            sampler, 2.0, theta, pair_idx=pairs, state_idx=states)],
        "violation estimate": [
            lambda: surrogate.violation_summands(sampler, theta, pairs, states),
            lambda: surrogate.estimate_violations(sampler, theta, 3, rng)],
        "single-draw refill": [
            lambda: make_buffered_step(surrogate, sampler, 2.0)(theta, rng, 0.1)],
        "minibatch refill": [
            lambda: make_minibatch_step(surrogate, sampler, 2.0, 3, 10)(theta, rng, 0.1)],
    }
    for call in calls[path]:
        with pytest.raises(SamplingSupportError):
            call()


@pytest.mark.parametrize("pair_idx, state_idx", [([1], [2, 2, 2]), ([], []), ([[1]], [[2]])],
                         ids=["different-lengths", "empty", "2-d"])
@pytest.mark.parametrize("objective", ["average cost", "discounted"])
def test_explicit_draws_of_the_wrong_shape_raise(monkeypatch, objective, pair_idx, state_idx):
    # one pair against three states used to divide both terms by 1 and triple the residual
    model, fs = _fixture_instance()
    (_, surrogate, sampler), = [s for s in _surrogates(model, fs) if s[0] == objective]
    draws = {"pair_idx": np.array(pair_idx, dtype=np.int64),
             "state_idx": np.array(state_idx, dtype=np.int64)}

    def no_gather(*args):
        pytest.fail("rows were gathered for draws of the wrong shape")

    monkeypatch.setattr(_sgd, "_row_gather", no_gather)
    with pytest.raises(InputShapeError):
        if objective == "average cost":
            subgradient_estimate(model, fs, sampler, 1.7, np.zeros(fs.dim), **draws)
        else:
            subgradient_estimate_disc(model, surrogate.fs, sampler, 1.7, 0.85, None,
                                      np.zeros(fs.dim), **draws)


@pytest.mark.parametrize("side, index", [("pair_idx", -1), ("pair_idx", "end"),
                                         ("state_idx", -1), ("state_idx", "end"),
                                         ("state_idx", 0.0)],
                         ids=["pair-negative", "pair-past-the-end", "state-negative",
                              "state-past-the-end", "state-float"])
@pytest.mark.parametrize("objective", ["average cost", "discounted"])
def test_explicit_draws_out_of_range_raise(monkeypatch, objective, side, index):
    # pair -1 used to read the last pair silently, and one past the end raised a bare IndexError
    model, fs = _fixture_instance()
    (_, surrogate, sampler), = [s for s in _surrogates(model, fs) if s[0] == objective]
    size = model.num_pairs if side == "pair_idx" else model.num_states
    draws = {"pair_idx": np.array([0, 1]), "state_idx": np.array([0, 1])}
    draws[side] = np.array([1, size if index == "end" else index])

    def no_read(*args):
        pytest.fail("a probability or row was read for a draw out of range")

    for name in ("pair_prob", "state_prob"):
        monkeypatch.setattr(SamplingPair, name, no_read)
    monkeypatch.setattr(features, "_row_gather", no_read)
    theta = np.zeros(fs.dim)
    with pytest.raises(InputShapeError, match=rf"integers in \[0, {size}\)"):
        if objective == "average cost":
            subgradient_estimate(model, fs, sampler, 1.7, theta, **draws)
        else:
            subgradient_estimate_disc(model, surrogate.fs, sampler, 1.7, 0.85, None, theta,
                                      **draws)
    with pytest.raises(InputShapeError, match=rf"integers in \[0, {size}\)"):
        surrogate.violation_summands(sampler, theta, draws["pair_idx"], draws["state_idx"])


@pytest.mark.parametrize("dim", [1, 3, 170])
def test_project_disc_matches_norm_form(dim):
    rng = np.random.default_rng(dim)
    binds = 0
    for _ in range(10_000):
        radius = float(rng.uniform(0.1, 3.0))
        theta = rng.normal(size=dim) * float(rng.lognormal(0.0, 1.0)) / np.sqrt(dim)
        projected = project_theta_disc(theta, radius)
        expected = reference_project_disc(theta, radius)
        assert same_bits(projected, expected)
        binds += projected is not theta
    assert 0 < binds < 10_000


@pytest.mark.parametrize("theta, radius", [
    ([3.0, 4.0], 5.0),        # exactly on the sphere: returned unchanged
    ([0.0, 0.0, 0.0], 1.0),   # zero
    ([1e200, -1e200, 1e200], 1.0),  # the dot product overflows to inf
    ([1e200], 2.0),
], ids=["on-sphere", "zero", "overflow", "overflow-1d"])
def test_project_disc_edge_cases_match_norm_form(theta, radius):
    theta = np.asarray(theta)
    with np.errstate(over="ignore"):  # both forms warn alike on the overflow
        projected = project_theta_disc(theta, radius)
        assert same_bits(projected, reference_project_disc(theta, radius))
        assert (projected is theta) == (np.linalg.norm(theta) <= radius)


EXACT_SUBGRADIENT_BYTES = """
import numpy as np
from dualalp import queueing
from dualalp._sgd import Surrogate
from dualalp.mdp import stationary_state_action
spec = queueing.DESK_SPEC
model = queueing.build_mdp(spec)
mu0 = stationary_state_action(model, queueing.heuristic_policy(spec, "LBFS"))
fs, _ = queueing.build_features(spec, model=model, mu0=mu0)
surrogate = Surrogate.average_cost(model, fs)
for seed in range(5):
    theta = np.random.default_rng(seed).standard_normal(fs.dim) * 0.05
    print(surrogate.exact_subgradient(2.0, theta).tobytes().hex())
"""


def test_exact_subgradient_does_not_depend_on_blas_threads():
    # the BLAS product S^T signs over the 4900 desk drift rows gave other bytes
    # at seeds 2 and 3 with two OpenBLAS threads than with one
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", EXACT_SUBGRADIENT_BYTES], env=env,
                             check=True, capture_output=True, text=True)
        outputs.append(run.stdout)
    assert len(outputs[0].split()) == 5
    assert outputs[0] == outputs[1]


# -------------------------------------------------------- run configurations

def _config(config_cls, **kwargs):
    """A run config of valid base values, overridden by ``kwargs``."""
    extra = {"discount": 0.9} if config_cls is DiscSolverConfig else {}
    return config_cls(**{"penalty": 1.0, "radius": 2.0, "iterations": 10, **extra, **kwargs})


RUN_RULES = [  # (field, bad value, message) for the fields both configs share
    ("radius", 0.0, "radius must be positive"),
    ("radius", -1.5, "radius must be positive"),
    ("penalty", 0.0, "penalty must be positive"),
    ("penalty", -2.0, "penalty must be positive"),
    ("iterations", 0, "iterations must be >= 1"),
    ("minibatch", 0, "minibatch must be >= 1"),
    ("lr_halving_period", -5, "lr_halving_period must be null or a positive integer"),
    # these used to fail later with a bare error, or run with another meaning
    ("iterations", 2.5, "iterations must be >= 1"),
    ("iterations", True, "iterations must be >= 1"),
    ("minibatch", 2.5, "minibatch must be >= 1"),
    ("minibatch", True, "minibatch must be >= 1"),
    ("trace_stride", -3, "trace_stride must be >= 1"),
    ("trace_stride", 2.5, "trace_stride must be >= 1"),
    ("trace_violation_samples", 0, "trace_violation_samples must be >= 1"),
    ("learning_rate", "fast", "learning_rate must be"),
    ("learning_rate", -0.1, "learning_rate must be"),
    ("learning_rate", math.inf, "learning_rate must be"),
    ("learning_rate", math.nan, "learning_rate must be"),
    ("penalty", math.nan, "penalty must be positive"),
    ("penalty", math.inf, "penalty must be positive"),
]
DISC_RULES = [("discount", value, "discount must lie in") for value in (0.0, 1.0, 1.5)]


@pytest.mark.parametrize("config_cls, field, value, message", [
    *[(cls, *rule) for cls in (AvgSolverConfig, DiscSolverConfig) for rule in RUN_RULES],
    *[(DiscSolverConfig, *rule) for rule in DISC_RULES],
])
def test_run_config_rules(config_cls, field, value, message):
    _config(config_cls)  # the base values pass, and so do numpy numbers
    _config(config_cls, iterations=np.int64(10), minibatch=np.int32(2),
            trace_stride=np.int64(5), learning_rate=np.float64(0.1))
    with pytest.raises(ParameterError, match=message):
        _config(config_cls, **{field: value})


_KERNEL = np.array([[[0.5, 0.5]], [[1.0, 0.0]]])
_LOSS = np.zeros((2, 1))


def _fixture_run():
    """(model, features, uniform sampler, theta) of the 4-state fixture."""
    model = load_mdp_fixture(DATA / "mdp4.json")
    fs = load_feature_fixture(DATA / "features3.json", model)
    return model, fs, make_uniform_sampling(model, fs, 0.9), np.array([0.5, 0.3, -1.1])


def _solve_with_iterate_hook(solve, config_cls):
    model, fs, sampler, _ = _fixture_run()
    solve(model, fs, sampler, _config(config_cls), iterate_hook=lambda t, theta: None)


def _estimate_with_batch(estimate, *objective):
    model, fs, sampler, theta = _fixture_run()
    estimate(model, fs, sampler, *objective, theta, 100, np.random.default_rng(0), batch=8)


def _estimate_with_m():
    model, fs, sampler, theta = _fixture_run()
    Surrogate.average_cost(model, fs).subgradient_estimate(sampler, 2.0, theta,
                                                           np.random.default_rng(0), m=4)


# constructions and calls that must raise TypeError: positional run-config
# fields, the options that nothing read or set, the options that only tests
# set, and build_features without the model that every caller passes
REJECTED_CALLS = {
    "avg-positional": lambda: AvgSolverConfig(1.0, 2.0, 10),
    "disc-positional": lambda: DiscSolverConfig(0.9, 1.0, 2.0, 10),
    "avg-tolerance": lambda: _config(AvgSolverConfig, tolerance=0.05),
    "disc-tolerance": lambda: _config(DiscSolverConfig, tolerance=0.05),
    "avg-failure_prob": lambda: _config(AvgSolverConfig, failure_prob=0.1),
    "disc-failure_prob": lambda: _config(DiscSolverConfig, failure_prob=0.1),
    "sampling-kappa": lambda: SamplingPair(num_pairs=2, num_states=2, c_pair=1.0,
                                           c_state=1.0, kappa=1.0),
    "create-validate": lambda: MdpModel.create(2, 1, _KERNEL.reshape(2, 2), _LOSS.ravel(),
                                               validate=False),
    "records-validate": lambda: MdpModel.from_records(2, 1, [(0, 0, 0, 1.0), (1, 0, 1, 1.0)],
                                                      _LOSS.ravel(), validate=False),
    "dense-validate": lambda: MdpModel.from_dense(_KERNEL, _LOSS, validate=False),
    "avg-iterate_hook": lambda: _solve_with_iterate_hook(sgd_solve_avg, AvgSolverConfig),
    "disc-iterate_hook": lambda: _solve_with_iterate_hook(sgd_solve_disc, DiscSolverConfig),
    "build_mdp-loss_mode": lambda: build_mdp(DESK_SPEC, loss_mode="raw"),
    "create-check_loss_range": lambda: MdpModel.create(
        2, 1, _KERNEL.reshape(2, 2), _LOSS.ravel(), check_loss_range=True),
    "stationary-max_iters": lambda: stationary_distribution(
        MdpModel.from_dense(_KERNEL, _LOSS), Policy(np.ones((2, 1))), max_iters=10),
    "solve_optimal-max_iters": lambda: solve_optimal(MdpModel.from_dense(_KERNEL, _LOSS),
                                                     max_iters=10),
    "avg-batch": lambda: _estimate_with_batch(estimate_violations),
    "disc-batch": lambda: _estimate_with_batch(estimate_violations_disc, 0.9, None),
    "surrogate-batch": lambda: _estimate_with_batch(
        lambda model, fs, *args, **kwargs: Surrogate.average_cost(model, fs)
        .estimate_violations(*args, **kwargs)),
    "occupancy-no-num_actions": lambda: policy_from_occupancy(np.ones((2, 2))),
    "meta_result-discount": lambda: MetaResult(grid_points=np.ones(1), selection_weight=1.0,
                                               discount=0.9),
    "sgd_problem-dim": lambda: SgdProblem(
        dim=1, loss_phi=np.ones(1), objective_offset=0.0,
        step=lambda theta, rng, rate: theta - rate, project=lambda theta: theta,
        violation_estimate=lambda theta, rng: 0.0, make_policy=lambda theta: None),
    "build_features-heuristics": lambda: build_features(DESK_SPEC, build_mdp(DESK_SPEC),
                                                        heuristics=("LBFS",)),
    "build_features-no-model": lambda: build_features(DESK_SPEC),
    "uniform-c_pair": lambda: make_uniform_sampling(*_fixture_run()[:2], 1.0, c_pair=5.0),
    "uniform-c_state": lambda: make_uniform_sampling(*_fixture_run()[:2], 1.0, c_state=7.0),
    "subgradient_estimate-m": _estimate_with_m,
    "penalty_grid-violation_bound-tolerance": lambda: PenaltyGrid(
        violation_bound=1.0, weight=1.0, tolerance=0.5, points=np.ones(1)),
    "optimal_solution-iterations": lambda: OptimalSolution(Policy(np.ones((2, 1))),
                                                           np.zeros(2), iterations=3),
}


@pytest.mark.parametrize("call", REJECTED_CALLS.values(), ids=REJECTED_CALLS)
def test_removed_options_and_positional_configs_raise_type_error(call):
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize("owner, name", [
    (FeatureSpace, "row"), (FeatureSpace, "occupancy_value"), (FeatureSpace, "drift_column"),
    (FeatureSpace, "feasibility_column"), (FeatureSpace, "_state_row"),
    (FeatureSpace, "row_norms"), (FeatureSpace, "drift_matrix"),
    (FeatureSpace, "feasibility_matrix"), (FeatureSpace, "_row_block"),
    (FeatureSpace, "_row_steps"), (features, "_EllRows"), (features, "_narrow_rows"),
    (Policy, "num_states"), (Policy, "num_actions")])
def test_removed_accessors_are_gone(owner, name):
    assert not hasattr(owner, name)


def test_model_stores_the_forward_kernel_only():
    assert [f.name for f in dataclasses.fields(MdpModel)] == [
        "num_states", "num_actions", "transitions", "loss"]


@pytest.mark.parametrize("solve, config_cls", [(sgd_solve_avg, AvgSolverConfig),
                                               (sgd_solve_disc, DiscSolverConfig)])
def test_eval_hook_takes_the_policy_of_each_recorded_row(solve, config_cls):
    model, fs, sampler, _ = _fixture_run()
    seen = []

    def hook(policy):
        seen.append(policy)
        return float(len(seen))

    trace = solve(model, fs, sampler, _config(config_cls, trace_stride=4), eval_hook=hook)
    assert len(seen) == len(trace.iterations) == 3  # t = 4, 8 and the last, 10
    np.testing.assert_array_equal(trace.eval_cost, [1.0, 2.0, 3.0])
    assert seen[-1].probs.tobytes() == trace.policy.probs.tobytes()


# ------------------------------------------------------ learning-rate halving

BAD_PERIODS = [-5, 0, 2.5, True, "50"]
BAD_PERIOD_IDS = ["negative", "zero", "fraction", "bool", "string"]


@pytest.mark.parametrize("config_cls", [AvgSolverConfig, DiscSolverConfig])
@pytest.mark.parametrize("period", BAD_PERIODS, ids=BAD_PERIOD_IDS)
def test_solver_configs_reject_bad_halving_period(config_cls, period):
    # a negative period doubled the rate every period instead of halving it
    with pytest.raises(ParameterError, match="lr_halving_period must be null or a positive"):
        _config(config_cls, lr_halving_period=period)


@pytest.mark.parametrize("config_cls", [AvgSolverConfig, DiscSolverConfig])
@pytest.mark.parametrize("period", [None, 1, 50])
def test_solver_configs_accept_halving_period(config_cls, period):
    assert _config(config_cls, lr_halving_period=period).lr_halving_period == period


@pytest.mark.parametrize("learning_rate, iterations, accepted", [
    (1.0, 1023, True), (1.0, 1024, False), (0.0, 2000, True), (2.0, 1024, True),
    (2.0 ** -1022, 1, True), (2.0 ** -1023, 1, False)])
def test_run_projected_sgd_refuses_rates_below_normal_floats(learning_rate, iterations,
                                                            accepted):
    """Halved at every step, the last step's rate is learning_rate * 2 **
    -(iterations - 1); a positive one below ``sys.float_info.min`` (2 **
    -1022) is refused before any step, a zero rate is not."""
    stepped = []
    problem = SgdProblem(loss_phi=np.ones(1), objective_offset=0.0,
                         step=lambda theta, rng, rate: stepped.append(rate) or theta - rate,
                         project=lambda theta: theta,
                         violation_estimate=lambda theta, rng: 0.0,
                         make_policy=lambda theta: None)

    def run():
        run_projected_sgd(problem, iterations=iterations, learning_rate=learning_rate, seed=0,
                          lr_halving_period=1, trace_stride=iterations)

    if accepted:
        run()
        assert stepped[-1] >= sys.float_info.min or learning_rate == 0.0
    else:
        with pytest.raises(ParameterError, match="falls below the smallest normal float"):
            run()
        assert not stepped


@pytest.mark.parametrize("period", BAD_PERIODS, ids=BAD_PERIOD_IDS)
def test_run_projected_sgd_rejects_bad_halving_period(period):
    problem = SgdProblem(loss_phi=np.ones(1), objective_offset=0.0,
                         step=lambda theta, rng, rate: theta - rate,
                         project=lambda theta: theta,
                         violation_estimate=lambda theta, rng: 0.0,
                         make_policy=lambda theta: None)
    with pytest.raises(ParameterError, match="lr_halving_period"):
        run_projected_sgd(problem, iterations=5, learning_rate=0.1, seed=0,
                          lr_halving_period=period)

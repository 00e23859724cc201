"""Layer micro-benchmarks of the minibatch and single-draw estimators on the
desk queue preset (4900 states, 19600 pairs, d = 170).

Run from the repository root with

    python -m pytest benchmarks/test_layers.py

The directory is outside the test paths of ``pyproject.toml``, so the tier-1
suite does not collect it. pytest-benchmark reports the time per call.
"""
import numpy as np
import pytest

from dualalp import features, queueing
from dualalp._sgd import GRAD_BLOCK, Surrogate, make_buffered_grad

DRAWS = 1000


@pytest.fixture(scope="module")
def desk():
    model = queueing.build_mdp(queueing.DESK_SPEC)
    fs, _ = queueing.build_features(queueing.DESK_SPEC, model=model)
    sampler = features.make_norm_proportional_sampling(model, fs, kappa=1.0)
    theta = np.random.default_rng(0).standard_normal(fs.dim) * 0.05
    return Surrogate.average_cost(model, fs), sampler, theta


def test_sample_pairs(benchmark, desk):
    _, sampler, _ = desk
    rng = np.random.default_rng(1)
    assert len(benchmark(sampler.sample_pairs, rng, DRAWS)) == DRAWS


def test_sample_states(benchmark, desk):
    _, sampler, _ = desk
    rng = np.random.default_rng(2)
    assert len(benchmark(sampler.sample_states, rng, DRAWS)) == DRAWS


def test_subgradient_estimate_minibatch(benchmark, desk):
    """One m = 1000 estimate: draws, gathers and the importance-weighted sums."""
    surrogate, sampler, theta = desk
    rng = np.random.default_rng(3)
    grad = benchmark(surrogate.subgradient_estimate, sampler, 2.0, theta, rng, m=DRAWS)
    assert grad.shape == theta.shape


def test_buffered_step(benchmark, desk):
    """One m = 1 step, with the block refill amortized over GRAD_BLOCK calls."""
    surrogate, sampler, theta = desk
    grad = make_buffered_grad(surrogate, sampler, 2.0)
    rng = np.random.default_rng(4)
    grad(theta, rng, 1)  # the first block's dense gathers happen outside the timing
    assert benchmark.pedantic(grad, args=(theta, rng, 1), rounds=20,
                              iterations=GRAD_BLOCK).shape == theta.shape

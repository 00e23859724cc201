"""The count-weighted violation estimator against the mean of its per-draw
summands, and the checks on its draw counts.

``Surrogate.estimate_violations`` evaluates each batch's terms once per
distinct drawn pair and state and weights them by their counts. The reference
below takes the same draws and averages ``violation_summands``, one summand
per draw; only the summation order differs, so the two must agree to a few
units in the last place and leave the generator in the same state. Against
the same sums on the same counts it must give equal bits.

The stopped estimator (``Surrogate.estimate_violations_stopped``) of the meta
points is checked in the form of criterion 6, where the violation is
positive: over 200 seeded trials per objective the share of estimates off by
more than the tolerance stays within the failure probability, and no
estimate draws more than its cap.
"""
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from dualalp import _sgd
from dualalp._sgd import Surrogate, distinct_counts, draw
from dualalp.avgcost import (estimate_violations, project_theta_avg, violation_ranges_avg,
                             violation_sample_count_avg)
from dualalp.discounted import (estimate_violations_disc, project_theta_disc,
                                violation_ranges_disc, violation_sample_count_disc)
from dualalp.errors import ParameterError
from dualalp.features import (FeatureSpace, SamplingPair, make_norm_proportional_sampling,
                              make_uniform_sampling)
from dualalp.fixtures import load_feature_fixture, load_mdp_fixture
from dualalp.mdp import discounted_visits, fixed_dot, solve_optimal

from conftest import random_features, random_mdp, random_policy, stationary_features

DATA = Path(__file__).parent / "data"
RTOL = 1e-14  # nonnegative summands: a reordered sum stays within a few ulps


def reference_estimate(surrogate, sp, theta, n, rng, batch):
    """The mean of the per-draw summands over the estimator's own draws."""
    total = 0.0
    for start in range(0, n, batch):
        pair_idx, state_idx = draw(sp, rng, min(batch, n - start))
        total += float(surrogate.violation_summands(sp, theta, pair_idx, state_idx).sum())
    return total / n


@pytest.mark.parametrize("idx", [[4], [3, 3, 3], [9, 2, 7, 0], [5, 1, 5, 5, 0, 1, 9, 0],
                                 np.random.default_rng(3).integers(0, 40, size=5000)],
                         ids=["one", "all equal", "all distinct", "mixed", "5000 draws"])
def test_distinct_counts_matches_unique(idx):
    idx = np.asarray(idx, dtype=np.intp)
    values, counts = distinct_counts(idx)
    expected_values, expected_counts = np.unique(idx, return_counts=True)
    np.testing.assert_array_equal(values, expected_values)
    np.testing.assert_array_equal(counts, expected_counts)


def _instances():
    """(name, surrogate, sampler, theta) on two models, both objectives and
    both sampling schemes."""
    model = load_mdp_fixture(DATA / "mdp4.json")
    fixture = load_feature_fixture(DATA / "features3.json", model)
    rng = np.random.default_rng(61)
    dirichlet = random_mdp(rng, 12, 3)
    signed = random_features(rng, dirichlet, 4, density=0.7, signed=True, normalize=True)
    gamma = 0.85
    return [
        ("fixture avg uniform", Surrogate.average_cost(model, fixture),
         make_uniform_sampling(model, fixture, 1.0), np.array([0.7, -0.4, 0.9])),
        ("fixture disc norm", Surrogate.discounted(model, fixture, gamma, None),
         make_norm_proportional_sampling(model, fixture, gamma), np.array([0.5, 0.3, -1.1])),
        ("dirichlet avg norm", Surrogate.average_cost(dirichlet, signed),
         make_norm_proportional_sampling(dirichlet, signed, 1.0), rng.normal(size=4)),
        ("dirichlet disc uniform", Surrogate.discounted(dirichlet, signed, gamma, None),
         make_uniform_sampling(dirichlet, signed, gamma), rng.normal(size=4)),
    ]


INSTANCES = _instances()


@pytest.mark.parametrize("instance", INSTANCES, ids=[case[0] for case in INSTANCES])
@pytest.mark.parametrize("n, batch", [(5000, 1 << 16), (4000, 512), (1000, 96), (37, 1),
                                      (1, 1 << 16), (1, 1)],
                         ids=["one batch", "whole batches", "partial last batch",
                              "batch 1", "n 1", "n 1 batch 1"])
def test_estimate_matches_mean_of_summands(monkeypatch, instance, n, batch):
    _, surrogate, sampler, theta = instance
    monkeypatch.setattr(_sgd, "VIOLATION_BATCH", batch)
    rng, rng_ref = np.random.default_rng(9), np.random.default_rng(9)
    estimate = surrogate.estimate_violations(sampler, theta, n, rng)
    expected = reference_estimate(surrogate, sampler, theta, n, rng_ref, batch)
    assert expected > 0.0  # theta violates, so the comparison is not 0 == 0
    np.testing.assert_allclose(estimate, expected, rtol=RTOL, atol=0.0)
    assert rng.bit_generator.state == rng_ref.bit_generator.state  # the same draws


def drawn_estimate(surrogate, sp, theta, n, rng, batch):
    """The estimator written out: every batch drawn and reduced by
    ``distinct_counts``, the same sums on the same counts."""
    total = 0.0
    for start in range(0, n, batch):
        pair_idx, state_idx = draw(sp, rng, min(batch, n - start))
        pairs, pair_counts = distinct_counts(pair_idx)
        states, state_counts = distinct_counts(state_idx)
        neg, res = surrogate.violation_terms(sp, theta, pairs, states)
        total += fixed_dot(pair_counts, neg) + fixed_dot(state_counts, res)
    return total / n


@pytest.mark.parametrize("instance", INSTANCES, ids=[case[0] for case in INSTANCES])
# the ids name where each size sat against a former rule that counted a batch
# of 4 draws per table entry from its sorted uniforms on the 4-state fixture
@pytest.mark.parametrize("batch", [15, 16, 32], ids=["below", "states counted", "both counted"])
def test_estimate_equals_drawn_counts_bit_for_bit(monkeypatch, instance, batch):
    """The estimator gives the v-hat of its batches drawn and reduced by
    ``distinct_counts`` bit for bit, over two whole batches and a short last
    one of 3 draws, and leaves the generator in the same state."""
    _, surrogate, sampler, theta = instance
    n = 2 * batch + 3
    monkeypatch.setattr(_sgd, "VIOLATION_BATCH", batch)
    rng, rng_ref = np.random.default_rng(13), np.random.default_rng(13)
    estimate = surrogate.estimate_violations(sampler, theta, n, rng)
    assert estimate > 0.0
    assert estimate == drawn_estimate(surrogate, sampler, theta, n, rng_ref, batch)
    assert rng.bit_generator.state == rng_ref.bit_generator.state


BAD_COUNTS = [0, -5, 2.5, 3.0, True, "8", None]
BAD_COUNT_IDS = ["zero", "negative", "fraction", "float", "bool", "string", "none"]


@pytest.mark.parametrize("value", BAD_COUNTS, ids=BAD_COUNT_IDS)
def test_bad_draw_counts_raise_parameter_error(value):
    _, avg, sampler, theta = INSTANCES[0]
    _, disc, disc_sampler, _ = INSTANCES[1]
    model, fs = avg.model, avg.fs
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    # a negative count used to return 0.0; zero and fractions raised untyped errors
    with pytest.raises(ParameterError, match="n must be >= 1"):
        avg.estimate_violations(sampler, theta, value, rng)
    with pytest.raises(ParameterError, match="n must be >= 1"):
        estimate_violations(model, fs, sampler, theta, value, rng)
    with pytest.raises(ParameterError, match="n must be >= 1"):
        disc.estimate_violations(disc_sampler, theta, value, rng)
    with pytest.raises(ParameterError, match="n must be >= 1"):
        estimate_violations_disc(model, fs, disc_sampler, 0.85, None, theta, value, rng)
    with pytest.raises(ParameterError, match="cap must be >= 1"):
        avg.estimate_violations_stopped(sampler, theta, (1.0, 1.0), 0.1, 0.1, value, rng)
    assert rng.bit_generator.state == state  # rejected before any draw


def test_numpy_integer_draw_counts_accepted(monkeypatch):
    _, avg, sampler, theta = INSTANCES[0]
    model, fs = avg.model, avg.fs
    monkeypatch.setattr(_sgd, "VIOLATION_BATCH", 64)  # 300 draws in five batches
    plain = avg.estimate_violations(sampler, theta, 300, np.random.default_rng(2))
    numpy_ints = avg.estimate_violations(sampler, theta, np.int64(300),
                                         np.random.default_rng(2))
    assert numpy_ints == plain
    assert (estimate_violations(model, fs, sampler, theta, np.int64(300),
                                np.random.default_rng(2))
            == estimate_violations(model, fs, sampler, theta, 300, np.random.default_rng(2)))


# ------------------------------------------------------ the stopped estimator

TOLERANCE, FAILURE_PROB = 0.05, 0.1  # the meta workloads' epsilon and delta, one point


def _avg_stopped_instance():
    """The average-cost meta instance of criterion 7 (seed 0) with its fourth
    column replaced by a random unit-mass column, which is not stationary, at
    a random theta of the sum-1 ball: (surrogate, sampler, theta, ranges, cap)."""
    rng = np.random.default_rng(200)
    model = random_mdp(rng, 10, 2)
    phi = stationary_features(rng, model, 4).phi.toarray()
    column = np.random.default_rng(900).random(model.num_pairs)
    phi[:, 3] = column / column.sum()
    fs = FeatureSpace(model, sp.csr_matrix(phi))
    sampler = make_norm_proportional_sampling(model, fs, 1.0)
    radius = 1.5
    theta = project_theta_avg(np.random.default_rng(6).normal(size=4), radius, 1.0)
    ranges = violation_ranges_avg(radius, sampler.c_pair, sampler.c_state)
    cap = violation_sample_count_avg(radius, sampler.c_pair, sampler.c_state,
                                     TOLERANCE, FAILURE_PROB, 1)
    return Surrogate.average_cost(model, fs), sampler, theta, ranges, cap


def _disc_space():
    """The discounted meta instance of criterion 7 (seed 0, gamma 0.9):
    (surrogate, norm-proportional sampler)."""
    gamma = 0.9
    rng = np.random.default_rng(210)
    model = random_mdp(rng, 6, 2)
    alpha = np.full(6, 1.0 / 6.0)
    optimal = solve_optimal(model, "discounted", gamma=gamma, tol=1e-12)
    cols = [discounted_visits(model, optimal.policy, gamma, alpha, tol=1e-12)]
    cols += [discounted_visits(model, random_policy(rng, 6, 2), gamma, alpha, tol=1e-12)
             for _ in range(2)]
    fs = FeatureSpace(model, sp.csr_matrix(np.column_stack(cols)))
    return (Surrogate.discounted(model, fs, gamma, alpha),
            make_norm_proportional_sampling(model, fs, gamma))


def _disc_ranges_and_cap(sampler, radius=1.3):
    return (violation_ranges_disc(radius, sampler.c_pair, sampler.c_state),
            violation_sample_count_disc(radius, sampler.c_pair, sampler.c_state,
                                        TOLERANCE, FAILURE_PROB, 1))


def _disc_stopped_instance():
    """The discounted instance at a random theta of the radius-1.3 ball."""
    surrogate, sampler = _disc_space()
    theta = project_theta_disc(np.random.default_rng(6).normal(size=3), 1.3)
    return (surrogate, sampler, theta, *_disc_ranges_and_cap(sampler))


STOPPED_INSTANCES = {"avg": _avg_stopped_instance, "disc": _disc_stopped_instance}


@pytest.mark.parametrize("kind", sorted(STOPPED_INSTANCES))
def test_stopped_estimate_coverage(kind):
    surrogate, sampler, theta, ranges, cap = STOPPED_INSTANCES[kind]()
    v_exact = sum(surrogate.violations_exact(theta))
    assert v_exact > 0.01
    failures = 0
    for trial in range(200):
        rng = np.random.default_rng(3000 + trial)
        v_hat, n = surrogate.estimate_violations_stopped(sampler, theta, ranges, TOLERANCE,
                                                         FAILURE_PROB, cap, rng)
        assert n < cap  # the rule stops before the cap
        failures += abs(v_hat - v_exact) > TOLERANCE
    assert failures <= FAILURE_PROB * 200


@pytest.mark.parametrize("cap", [1, 7, 1000, 10**4, 10**5, 10**7])
def test_stopped_estimate_draws_at_most_the_cap(cap):
    """A cap below the rule's stop ends the estimate there; every side's
    draws, read from how far the generator moved, are the n returned. An
    estimate whose first stage reaches the cap is the fixed-n estimate."""
    surrogate, sampler, theta, ranges, _ = _disc_stopped_instance()
    rng, rng_ref = np.random.default_rng(5), np.random.default_rng(5)
    v_hat, n = surrogate.estimate_violations_stopped(sampler, theta, ranges, TOLERANCE,
                                                     FAILURE_PROB, cap, rng)
    assert n <= cap and (n == cap) == (cap <= 10**5)  # the rule stops at 344,032 draws
    rng_ref.random(2 * n)  # one uniform per draw on either searched side
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    if cap <= 4096:
        assert v_hat == surrogate.estimate_violations(sampler, theta, cap,
                                                      np.random.default_rng(5))


def test_understated_range_runs_the_estimate_to_the_cap():
    """A hand-built sampler that understates c_pair: where theta has no
    negative occupancy every summand lies in range and the rule stops early;
    where it has some, negativity summands exceed S C3 and the estimate runs
    to the cap of the sampler's budget."""
    surrogate, sampler = _disc_space()
    low = SamplingPair(sampler.num_pairs, sampler.num_states, sampler.c_pair / 100.0,
                       sampler.c_state, sampler.pair_probs, sampler.state_probs)
    ranges, cap = _disc_ranges_and_cap(low)
    feasible, negative = np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.3, -0.3])
    assert surrogate.violations_exact(feasible)[0] == 0.0
    assert surrogate.violations_exact(negative)[0] > 0.5
    for theta, stops in ((feasible, True), (negative, False)):
        _, n = surrogate.estimate_violations_stopped(low, theta, ranges, TOLERANCE,
                                                     FAILURE_PROB, cap,
                                                     np.random.default_rng(8))
        assert (n < cap) == stops

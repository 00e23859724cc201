import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from dualalp.avgcost import (AvgSolverConfig, estimate_violations, exact_subgradient,
                             meta_solve_avg, project_theta_avg, sgd_solve_avg,
                             subgradient_estimate, surrogate_cost_exact,
                             violations_exact, _violation_summands_avg)
from dualalp._sgd import SgdProblem, run_projected_sgd
from dualalp.errors import ConvergenceError, ParameterError
from dualalp.features import (FeatureSpace, make_norm_proportional_sampling,
                              make_uniform_sampling)
from dualalp.mdp import average_cost, policy_from_occupancy, stationary_state_action

from conftest import random_features, random_mdp, random_policy, stationary_features


def dense_b_matrix(model):
    b = np.zeros((model.num_pairs, model.num_states))
    for x in range(model.num_states):
        for a in range(model.num_actions):
            b[x * model.num_actions + a, x] = 1.0
    return b


def oracle_surrogate(model, fs, penalty, theta):
    """Independent summation oracle: dense loops, own drift computation."""
    dense_phi = fs.phi.toarray()
    occupancy = fs.mu0 + dense_phi @ theta
    linear = float(model.loss @ occupancy)
    v1 = sum(abs(min(v, 0.0)) for v in occupancy)
    drift = (model.transitions.toarray() - dense_b_matrix(model)).T @ dense_phi
    v2 = sum(abs(drift[x] @ theta) for x in range(model.num_states))
    return linear + penalty * (v1 + v2), v1, v2


# ----------------------------------------------------------- exact surrogate

def test_surrogate_at_stationary_baseline():
    rng = np.random.default_rng(40)
    model = random_mdp(rng, 5, 2)
    mu0 = stationary_state_action(model, random_policy(rng, 5, 2), tol=1e-13)
    fs = stationary_features(rng, model, 3)
    fs_with_mu0 = FeatureSpace(model, fs.phi, mu0=mu0)
    value = surrogate_cost_exact(model, fs_with_mu0, 2.0, np.zeros(3))
    assert value == pytest.approx(float(model.loss @ mu0), abs=1e-9)
    v1, v2 = violations_exact(model, fs_with_mu0, np.zeros(3))
    assert v1 == 0.0 and v2 <= 1e-10


def test_surrogate_linear_in_penalty():
    rng = np.random.default_rng(41)
    model = random_mdp(rng, 4, 2)
    fs = random_features(rng, model, 3)
    theta = rng.normal(size=3)
    c1 = surrogate_cost_exact(model, fs, 1.0, theta)
    c2 = surrogate_cost_exact(model, fs, 2.0, theta)
    v1, v2 = violations_exact(model, fs, theta)
    assert c2 - c1 == pytest.approx(v1 + v2, abs=1e-12)


def test_surrogate_matches_independent_summation():
    rng = np.random.default_rng(42)
    model = random_mdp(rng, 4, 3)
    fs = random_features(rng, model, 4)
    for _ in range(20):
        theta = rng.normal(size=4)
        penalty = float(rng.uniform(1.0, 5.0))
        expected, v1, v2 = oracle_surrogate(model, fs, penalty, theta)
        assert surrogate_cost_exact(model, fs, penalty, theta) == pytest.approx(
            expected, abs=1e-10)
        got = violations_exact(model, fs, theta)
        assert got[0] == pytest.approx(v1, abs=1e-10)
        assert got[1] == pytest.approx(v2, abs=1e-10)


def test_violations_zero_for_feasible_mixture():
    rng = np.random.default_rng(43)
    model = random_mdp(rng, 6, 2)
    fs = stationary_features(rng, model, 4)
    theta = rng.dirichlet(np.ones(4))
    v1, v2 = violations_exact(model, fs, theta)
    assert v1 == 0.0
    assert v2 <= 1e-9


def test_negative_mass_zero_for_nonnegative_combination():
    rng = np.random.default_rng(44)
    model = random_mdp(rng, 4, 2)
    fs = random_features(rng, model, 3, signed=False)
    theta = rng.random(3)  # nonnegative combo of nonnegative columns
    v1, _ = violations_exact(model, fs, theta)
    assert v1 == 0.0


# ------------------------------------------------------------- subgradient

def _theta_away_from_kinks(rng, model, fs, margin):
    # identically-zero feature rows / drift rows contribute constant terms, not
    # kinks, so they are excluded from the margin check
    live_rows = np.asarray(abs(fs.phi).sum(axis=1)).ravel() > 0
    live_states = np.abs(fs.drift_matrix(1.0)).sum(axis=1) > 0
    while True:
        theta = rng.normal(size=fs.dim)
        occ = fs.occupancy_vector(theta)[live_rows]
        drift_vals = (fs.drift_matrix(1.0) @ theta)[live_states]
        if np.abs(occ).min() > margin and np.abs(drift_vals).min() > margin:
            return theta


def test_exact_subgradient_directional_derivative():
    rng = np.random.default_rng(45)
    model = random_mdp(rng, 4, 2)
    fs = random_features(rng, model, 3)
    h = 1e-7
    for _ in range(5):
        theta = _theta_away_from_kinks(rng, model, fs, 10 * h)
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        for penalty in (1.0, 3.0):
            grad = exact_subgradient(model, fs, penalty, theta)
            fd = (surrogate_cost_exact(model, fs, penalty, theta + h * u)
                  - surrogate_cost_exact(model, fs, penalty, theta)) / h
            assert fd == pytest.approx(float(grad @ u), abs=1e-5)


def test_estimator_trivial_when_penalties_inactive():
    rng = np.random.default_rng(46)
    model = random_mdp(rng, 4, 2)
    fs = stationary_features(rng, model, 3)
    mu0 = stationary_state_action(model, random_policy(rng, 4, 2), tol=1e-13)
    fs = FeatureSpace(model, fs.phi, mu0=mu0)
    sample = make_uniform_sampling(model, fs, 1.0)
    theta = np.full(3, 0.2)  # occupancy strictly positive, drift exactly zero
    assert fs.occupancy_vector(theta).min() > 0
    gen = np.random.default_rng(0)
    for _ in range(20):
        g = subgradient_estimate(model, fs, sample, 2.0, theta, gen)
        np.testing.assert_allclose(g, fs.loss_phi, atol=1e-9)


def test_estimator_expectation_equals_exact_subgradient():
    rng = np.random.default_rng(47)
    model = random_mdp(rng, 4, 2)
    fs = random_features(rng, model, 3, normalize=True)
    penalty = 2.5
    for maker in (make_uniform_sampling, make_norm_proportional_sampling):
        sample = maker(model, fs, 1.0)
        for trial in range(3):
            theta = rng.normal(size=3)
            expectation = np.zeros(3)
            for i in range(model.num_pairs):
                qi = float(sample.pair_prob(np.array([i]))[0])
                if qi == 0.0:
                    continue
                for j in range(model.num_states):
                    qj = float(sample.state_prob(np.array([j]))[0])
                    if qj == 0.0:
                        continue
                    draw = subgradient_estimate(model, fs, sample, penalty, theta,
                                                pair_idx=[i], state_idx=[j])
                    expectation += qi * qj * draw
            exact = exact_subgradient(model, fs, penalty, theta)
            np.testing.assert_allclose(expectation, exact, atol=1e-12)


def test_estimator_norm_bound_every_draw():
    rng = np.random.default_rng(48)
    model = random_mdp(rng, 4, 2)
    fs = random_features(rng, model, 3, normalize=True)
    sample = make_uniform_sampling(model, fs, 1.0)
    penalty = 2.0
    bound = np.sqrt(3) + penalty * (sample.c_pair + sample.c_state)
    gen = np.random.default_rng(1)
    for _ in range(500):
        theta = gen.normal(size=3)
        g = subgradient_estimate(model, fs, sample, penalty, theta, gen)
        assert np.linalg.norm(g) <= bound + 1e-9


# --------------------------------------------------------------- projection

def test_projection_examples():
    np.testing.assert_allclose(project_theta_avg(np.zeros(2), 1.0, 1.0), [0.5, 0.5])
    feasible = np.array([0.2, 0.3, 0.5])
    np.testing.assert_allclose(project_theta_avg(feasible, 1.0, 1.0), feasible,
                               atol=1e-15)


def test_projection_infeasible_radius():
    with pytest.raises(ParameterError):
        project_theta_avg(np.zeros(4), 0.3, 1.0)  # need radius >= 1/2


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=2, max_size=6),
       st.floats(0.8, 4.0))
def test_projection_feasibility_and_idempotence(values, radius):
    theta = np.asarray(values)
    if radius * radius < 1.0 / theta.size:
        radius = 1.0
    out = project_theta_avg(theta, radius, 1.0)
    assert abs(out.sum() - 1.0) <= 1e-12
    assert np.linalg.norm(out) <= radius + 1e-12
    np.testing.assert_allclose(project_theta_avg(out, radius, 1.0), out, atol=1e-12)


def test_projection_minimality_against_grid_search():
    rng = np.random.default_rng(49)
    radius, target = 1.5, 1.0
    center = np.full(3, target / 3.0)
    u1 = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
    u2 = np.array([1.0, 1.0, -2.0]) / np.sqrt(6)
    r_plane = np.sqrt(radius**2 - target**2 / 3.0)
    radii = np.linspace(0, r_plane, 60)
    angles = np.linspace(0, 2 * np.pi, 120, endpoint=False)
    grid = np.array([center + r * (np.cos(t) * u1 + np.sin(t) * u2)
                     for r in radii for t in angles])
    for _ in range(10):
        theta = rng.normal(scale=2.0, size=3)
        projected = project_theta_avg(theta, radius, target)
        best_grid = np.linalg.norm(grid - theta, axis=1).min()
        assert np.linalg.norm(projected - theta) <= best_grid + 1e-6


# ---------------------------------------------------------------- sgd solve

def test_sgd_zero_rate_single_round(desk_fixture):
    model, fs = desk_fixture
    sample = make_uniform_sampling(model, fs, 1.0)
    cfg = AvgSolverConfig(penalty=1.0, radius=2.0, iterations=1, learning_rate=0.0,
                          seed=3)
    trace = sgd_solve_avg(model, fs, sample, cfg)
    np.testing.assert_array_equal(trace.theta, np.zeros(fs.dim))
    expected_policy = policy_from_occupancy(fs.mu0, model.num_actions)
    np.testing.assert_allclose(trace.policy.probs, expected_policy.probs)


def test_sgd_deterministic_under_seed(desk_fixture):
    model, fs = desk_fixture
    sample = make_norm_proportional_sampling(model, fs, 1.0)
    cfg = AvgSolverConfig(penalty=2.0, radius=2.0, iterations=300, seed=11,
                          minibatch=2, trace_stride=25)
    t1 = sgd_solve_avg(model, fs, sample, cfg)
    t2 = sgd_solve_avg(model, fs, sample, cfg)
    np.testing.assert_array_equal(t1.theta, t2.theta)
    np.testing.assert_array_equal(t1.objective, t2.objective)
    np.testing.assert_array_equal(t1.v_hat, t2.v_hat)


def test_sgd_iterates_stay_in_constraint_set(desk_fixture):
    model, fs = desk_fixture
    sample = make_uniform_sampling(model, fs, 1.0)
    cfg = AvgSolverConfig(penalty=1.5, radius=1.8, iterations=60, seed=5)
    seen = []
    sgd_solve_avg(model, fs, sample, cfg, iterate_hook=lambda t, th: seen.append((t, th.copy())))
    for t, theta in seen:
        if t == 1:
            continue  # the initial point is the origin by construction
        assert abs(theta.sum() - 1.0) <= 1e-12
        assert np.linalg.norm(theta) <= 1.8 + 1e-12


def test_sgd_theta_hat_is_mean_of_iterates(desk_fixture):
    model, fs = desk_fixture
    sample = make_uniform_sampling(model, fs, 1.0)
    cfg = AvgSolverConfig(penalty=1.0, radius=2.0, iterations=40, seed=9)
    seen = []
    trace = sgd_solve_avg(model, fs, sample, cfg,
                          iterate_hook=lambda t, th: seen.append(th.copy()))
    np.testing.assert_allclose(trace.theta, np.mean(seen, axis=0), atol=1e-12)


def test_sgd_learning_rate_halving_schedule(desk_fixture):
    model, fs = desk_fixture
    sample = make_uniform_sampling(model, fs, 1.0)
    cfg = AvgSolverConfig(penalty=1.0, radius=2.0, iterations=10, seed=1,
                          learning_rate=1e-3, lr_halving_period=3)
    # runs without error and produces a full-length trace
    trace = sgd_solve_avg(model, fs, sample, cfg)
    assert trace.iterations[-1] == 10


def test_sgd_non_finite_iterate_raises_with_t():
    calls = []
    estimated_at = []

    def grad_batch(theta, rng, m):
        calls.append(1)
        return np.full(2, np.nan if len(calls) >= 7 else 0.5)

    def violation_estimate(theta_bar, rng):
        estimated_at.append(theta_bar.copy())
        return 0.0

    problem = SgdProblem(dim=2, loss_phi=np.ones(2), objective_offset=0.0,
                         grad_batch=grad_batch, project=lambda th: th,
                         violation_estimate=violation_estimate,
                         make_policy=lambda th: None)
    # the 7th gradient makes theta_8 NaN; the next recorded row is t = 10
    with pytest.raises(ConvergenceError, match=r"t=10\b"):
        run_projected_sgd(problem, iterations=20, learning_rate=0.1, seed=0,
                          trace_stride=5)
    assert len(estimated_at) == 1 and np.isfinite(estimated_at[0]).all()


def test_sgd_recovers_feasible_feature_optimum():
    rng = np.random.default_rng(50)
    model = random_mdp(rng, 8, 2)
    fs = stationary_features(rng, model, 4)
    sample = make_norm_proportional_sampling(model, fs, 1.0)
    penalty = 4.0
    cfg = AvgSolverConfig(penalty=penalty, radius=1.5, iterations=10**5, seed=12)
    trace = sgd_solve_avg(model, fs, sample, cfg)
    achieved = surrogate_cost_exact(model, fs, penalty, trace.theta)
    # brute-force minimum of the surrogate over a fine simplex grid
    best = np.inf
    step = 0.05
    ticks = np.arange(0, 1.0 + step / 2, step)
    for w1 in ticks:
        for w2 in ticks:
            for w3 in ticks:
                w4 = 1.0 - w1 - w2 - w3
                if w4 < -1e-12:
                    continue
                theta = np.array([w1, w2, w3, max(w4, 0.0)])
                best = min(best, surrogate_cost_exact(model, fs, penalty, theta))
    assert achieved <= best + 0.1


# ------------------------------------------------------ violation estimation

def test_estimate_violations_feasible_theta_zero():
    rng = np.random.default_rng(51)
    model = random_mdp(rng, 5, 2)
    fs = stationary_features(rng, model, 3)
    sample = make_uniform_sampling(model, fs, 1.0)
    theta = rng.dirichlet(np.ones(3))
    est = estimate_violations(model, fs, sample, theta, 200, np.random.default_rng(2))
    assert est <= 1e-9


def test_estimate_violations_enumerated_expectation():
    rng = np.random.default_rng(52)
    model = random_mdp(rng, 4, 2)
    fs = random_features(rng, model, 3, normalize=True)
    theta = rng.normal(size=3)
    for maker in (make_uniform_sampling, make_norm_proportional_sampling):
        sample = maker(model, fs, 1.0)
        expectation = 0.0
        for i in range(model.num_pairs):
            qi = float(sample.pair_prob(np.array([i]))[0])
            for j in range(model.num_states):
                qj = float(sample.state_prob(np.array([j]))[0])
                if qi == 0.0 or qj == 0.0:
                    continue
                summand = _violation_summands_avg(fs, sample, theta,
                                                  np.array([i]), np.array([j]))[0]
                expectation += qi * qj * summand
        v1, v2 = violations_exact(model, fs, theta)
        assert expectation == pytest.approx(v1 + v2, abs=1e-12)


def test_violation_summand_bound_every_draw():
    rng = np.random.default_rng(53)
    model = random_mdp(rng, 4, 2)
    mu0 = stationary_state_action(model, random_policy(rng, 4, 2), tol=1e-13)
    fs = random_features(rng, model, 3, normalize=True, mu0=mu0)
    sample = make_uniform_sampling(model, fs, 1.0)
    radius = 1.5
    bound = radius * (sample.c_pair + 1.0) + radius * sample.c_state
    gen = np.random.default_rng(3)
    for _ in range(200):
        theta = project_theta_avg(gen.normal(size=3), radius, 1.0)
        pair_idx = sample.sample_pairs(gen, 16)
        state_idx = sample.sample_states(gen, 16)
        summands = _violation_summands_avg(fs, sample, theta, pair_idx, state_idx)
        assert summands.max() <= bound + 1e-9


# ------------------------------------------------------------ meta-algorithm

def test_meta_two_point_grid_reduces_to_single_runs():
    rng = np.random.default_rng(54)
    model = random_mdp(rng, 5, 2)
    fs = stationary_features(rng, model, 3)
    sample = make_uniform_sampling(model, fs, 1.0)
    # widest legal tolerance gives the smallest grid (the constructor always
    # produces at least two points: a single-point grid cannot arise)
    result = meta_solve_avg(model, fs, sample, violation_bound=1.0,
                            selection_weight=1.0, tolerance=1.5, failure_prob=0.2,
                            seed=100, radius=1.5)
    assert len(result.grid_points) == 2
    assert result.chosen_index in (0, 1)
    np.testing.assert_array_equal(result.theta, result.traces[result.chosen_index].theta)


def test_meta_selection_bookkeeping_recomputable():
    rng = np.random.default_rng(55)
    model = random_mdp(rng, 4, 2)
    fs = stationary_features(rng, model, 3)
    sample = make_uniform_sampling(model, fs, 1.0)
    result = meta_solve_avg(model, fs, sample, violation_bound=0.5,
                            selection_weight=0.5, tolerance=0.4, failure_prob=0.1,
                            seed=7, radius=1.5)
    recomputed = (result.linear_objectives
                  + result.grid_points * result.violation_estimates
                  + result.selection_weight / result.grid_points)
    np.testing.assert_allclose(result.selection_values, recomputed, atol=1e-12)
    assert result.chosen_index == int(np.argmin(recomputed))
    # offline recheck of the linear objectives from the stored thetas
    for k, trace in enumerate(result.traces):
        assert result.linear_objectives[k] == pytest.approx(
            float(fs.loss_phi @ trace.theta), abs=1e-12)


def test_meta_deterministic_under_seed():
    rng = np.random.default_rng(56)
    model = random_mdp(rng, 4, 2)
    fs = stationary_features(rng, model, 3)
    sample = make_uniform_sampling(model, fs, 1.0)
    kwargs = dict(violation_bound=0.5, selection_weight=0.5, tolerance=0.4,
                  failure_prob=0.1, seed=21, radius=1.5)
    r1 = meta_solve_avg(model, fs, sample, **kwargs)
    r2 = meta_solve_avg(model, fs, sample, **kwargs)
    assert r1.chosen_index == r2.chosen_index
    np.testing.assert_array_equal(r1.theta, r2.theta)
    np.testing.assert_array_equal(r1.selection_values, r2.selection_values)

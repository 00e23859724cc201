import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from dualalp import discounted
from dualalp.discounted import (DiscSolverConfig, estimate_violations_disc,
                                exact_subgradient_disc, meta_solve_disc,
                                project_theta_disc, sgd_solve_disc,
                                subgradient_estimate_disc,
                                surrogate_cost_exact_disc, violations_exact_disc,
                                run_count_disc)
from dualalp._sgd import Surrogate
from dualalp.errors import ParameterError
from dualalp.features import (FeatureSpace, make_norm_proportional_sampling,
                              make_uniform_sampling)
from dualalp.mdp import (Policy, discounted_visits, policy_from_occupancy,
                         solve_optimal, value_function)

from conftest import random_features, random_mdp, random_policy, record_projections


def visit_features(rng, model, dim, gamma, alpha, include_optimal=True, tol=1e-12):
    """Columns are expected-visit vectors of policies (the first one optimal
    when requested), all sharing the same initial distribution."""
    cols = []
    if include_optimal:
        sol = solve_optimal(model, "discounted", gamma=gamma, tol=1e-12)
        cols.append(discounted_visits(model, sol.policy, gamma, alpha, tol=tol))
    while len(cols) < dim:
        pi = random_policy(rng, model.num_states, model.num_actions)
        cols.append(discounted_visits(model, pi, gamma, alpha, tol=tol))
    return FeatureSpace(model, sp.csr_matrix(np.column_stack(cols)))


def oracle_surrogate_disc(model, fs, penalty, gamma, alpha, theta):
    """Independent summation oracle with its own dense operators."""
    dense_phi = fs.phi.toarray()
    values = dense_phi @ theta
    v3 = sum(abs(min(v, 0.0)) for v in values)
    b = np.zeros((model.num_pairs, model.num_states))
    for x in range(model.num_states):
        for a in range(model.num_actions):
            b[x * model.num_actions + a, x] = 1.0
    feas = (b - gamma * model.transitions.toarray()).T @ dense_phi
    v4 = sum(abs(feas[x] @ theta - alpha[x]) for x in range(model.num_states))
    return float(model.loss @ values) + penalty * (v3 + v4), v3, v4


# ----------------------------------------------------------- exact surrogate

def test_surrogate_at_zero_is_penalty_times_alpha_mass():
    rng = np.random.default_rng(70)
    model = random_mdp(rng, 4, 2)
    fs = random_features(rng, model, 3)
    alpha = np.full(4, 0.25)
    for penalty in (1.0, 3.5):
        got = surrogate_cost_exact_disc(model, fs, penalty, 0.9, alpha, np.zeros(3))
        assert got == pytest.approx(penalty, abs=1e-12)
    v3, v4 = violations_exact_disc(model, fs, 0.9, alpha, np.zeros(3))
    assert v3 == 0.0 and v4 == pytest.approx(1.0, abs=1e-12)


def test_surrogate_zero_violations_at_representable_optimum():
    rng = np.random.default_rng(71)
    model = random_mdp(rng, 5, 2)
    gamma, alpha = 0.85, np.full(5, 0.2)
    fs = visit_features(rng, model, 3, gamma, alpha)
    theta = np.array([1.0, 0.0, 0.0])  # the optimal-visits column itself
    v3, v4 = violations_exact_disc(model, fs, gamma, alpha, theta)
    assert v3 == 0.0
    assert v4 <= 1e-9
    cost = surrogate_cost_exact_disc(model, fs, 4.0, gamma, alpha, theta)
    sol = solve_optimal(model, "discounted", gamma=gamma, tol=1e-12)
    assert cost == pytest.approx(float(alpha @ sol.values), abs=1e-7)


def test_surrogate_matches_independent_summation():
    rng = np.random.default_rng(72)
    model = random_mdp(rng, 4, 3)
    fs = random_features(rng, model, 4)
    gamma = 0.8
    alpha = rng.dirichlet(np.ones(4))
    for _ in range(20):
        theta = rng.normal(size=4)
        penalty = float(rng.uniform(1.0, 5.0))
        expected, v3, v4 = oracle_surrogate_disc(model, fs, penalty, gamma, alpha, theta)
        got = surrogate_cost_exact_disc(model, fs, penalty, gamma, alpha, theta)
        assert got == pytest.approx(expected, abs=1e-10)
        got_v = violations_exact_disc(model, fs, gamma, alpha, theta)
        assert got_v[0] == pytest.approx(v3, abs=1e-10)
        assert got_v[1] == pytest.approx(v4, abs=1e-10)


# ------------------------------------------------------------- subgradient

def test_exact_subgradient_directional_derivative():
    rng = np.random.default_rng(73)
    model = random_mdp(rng, 4, 2)
    fs = random_features(rng, model, 3)
    gamma = 0.85
    alpha = rng.dirichlet(np.ones(4))
    h = 1e-7
    live_rows = np.asarray(abs(fs.phi).sum(axis=1)).ravel() > 0
    checked = 0
    while checked < 5:
        theta = rng.normal(size=3)
        values = (fs.phi @ theta)[live_rows]
        resid = fs._operator((-gamma, 1.0)).toarray() @ theta - alpha
        if np.abs(values).min() <= 10 * h or np.abs(resid).min() <= 10 * h:
            continue
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        grad = exact_subgradient_disc(model, fs, 2.5, gamma, alpha, theta)
        fd = (surrogate_cost_exact_disc(model, fs, 2.5, gamma, alpha, theta + h * u)
              - surrogate_cost_exact_disc(model, fs, 2.5, gamma, alpha, theta)) / h
        assert fd == pytest.approx(float(grad @ u), abs=1e-5)
        checked += 1


def test_estimator_expectation_equals_exact_subgradient():
    rng = np.random.default_rng(74)
    model = random_mdp(rng, 4, 2)
    fs = random_features(rng, model, 3, normalize=True)
    gamma = 0.9
    alpha = rng.dirichlet(np.ones(4))
    penalty = 2.0
    for maker in (make_uniform_sampling, make_norm_proportional_sampling):
        sample = maker(model, fs, gamma)
        for _ in range(3):
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
                    draw = subgradient_estimate_disc(model, fs, sample, penalty,
                                                     gamma, alpha, theta,
                                                     pair_idx=[i], state_idx=[j])
                    expectation += qi * qj * draw
            exact = exact_subgradient_disc(model, fs, penalty, gamma, alpha, theta)
            np.testing.assert_allclose(expectation, exact, atol=1e-12)


def test_estimator_deterministic_drift_term_when_indicator_inactive():
    rng = np.random.default_rng(75)
    model = random_mdp(rng, 4, 2)
    fs = random_features(rng, model, 3, density=1.0, signed=False)
    gamma = 0.9
    alpha = np.full(4, 0.25)
    sample = make_uniform_sampling(model, fs, gamma)
    theta = np.full(3, 0.4)  # strictly positive values everywhere
    assert (fs.phi @ theta).min() > 0
    for j in range(model.num_states):
        draws = [subgradient_estimate_disc(model, fs, sample, 2.0, gamma, alpha,
                                           theta, pair_idx=[i], state_idx=[j])
                 for i in range(model.num_pairs)]
        # with the negativity indicator inactive, the draw depends only on the
        # sampled state
        for draw in draws[1:]:
            np.testing.assert_allclose(draw, draws[0], atol=1e-14)


def test_estimator_norm_bound_many_draws():
    rng = np.random.default_rng(76)
    model = random_mdp(rng, 4, 2)
    fs = random_features(rng, model, 3, normalize=True)
    gamma = 0.9
    alpha = rng.dirichlet(np.ones(4))
    sample = make_uniform_sampling(model, fs, gamma)
    penalty = 2.0
    bound = np.sqrt(3) + penalty * (sample.c_pair + sample.c_state)
    gen = np.random.default_rng(4)
    worst = 0.0
    for _ in range(10**4):
        theta = gen.normal(size=3)
        g = subgradient_estimate_disc(model, fs, sample, penalty, gamma, alpha,
                                      theta, gen)
        worst = max(worst, float(np.linalg.norm(g)))
    assert worst <= bound + 1e-9


def test_violations_exact_disc_rejects_nan_initial_distribution():
    # NaN fails both the sign and the sum comparison, so it used to pass both
    rng = np.random.default_rng(71)
    model = random_mdp(rng, 4, 2)
    fs = random_features(rng, model, 3)
    with pytest.raises(ParameterError, match="state distribution"):
        violations_exact_disc(model, fs, 0.9, np.array([np.nan, 0.5, 0.25, 0.25]),
                              np.zeros(3))


def _disc_calls(model, fs, gamma, alpha):
    """Every public discounted entry point that takes a feature space, each
    as a call on (model, fs) at theta = 0."""
    sample = make_uniform_sampling(model, fs, gamma)
    theta, rng = np.zeros(fs.dim), np.random.default_rng(0)
    cfg = DiscSolverConfig(discount=gamma, penalty=1.0, radius=1.5, iterations=5,
                           initial_dist=alpha)
    return {
        "Surrogate.discounted": lambda: Surrogate.discounted(model, fs, gamma, alpha),
        "violations_exact": lambda: violations_exact_disc(model, fs, gamma, alpha, theta),
        "cost_exact": lambda: surrogate_cost_exact_disc(model, fs, 1.0, gamma, alpha, theta),
        "exact_subgradient": lambda: exact_subgradient_disc(model, fs, 1.0, gamma, alpha,
                                                            theta),
        "subgradient_estimate": lambda: subgradient_estimate_disc(
            model, fs, sample, 1.0, gamma, alpha, theta, rng),
        "estimate_violations": lambda: estimate_violations_disc(
            model, fs, sample, gamma, alpha, theta, 8, rng),
        "sgd_solve": lambda: sgd_solve_disc(model, fs, sample, cfg),
        "meta_solve": lambda: meta_solve_disc(
            model, fs, sample, gamma=gamma, alpha=alpha, tolerance=0.5, failure_prob=0.1,
            seed=0, radius=1.5, violation_bound=0.5, selection_weight=0.5,
            max_iterations_per_point=5),
    }


@pytest.mark.parametrize("call", ["Surrogate.discounted", "violations_exact", "cost_exact",
                                  "exact_subgradient", "subgradient_estimate",
                                  "estimate_violations", "sgd_solve", "meta_solve"])
def test_discounted_entry_points_refuse_mu0(call):
    # the discounted dual has no baseline occupancy; every entry point dropped
    # mu0 and returned the values of the features without it
    rng = np.random.default_rng(72)
    model = random_mdp(rng, 4, 2)
    phi = random_features(rng, model, 3).phi
    gamma, alpha = 0.9, np.full(4, 0.25)
    with_mu0 = FeatureSpace(model, phi, mu0=np.full(model.num_pairs, 0.125))
    with pytest.raises(ParameterError, match="no baseline occupancy"):
        _disc_calls(model, with_mu0, gamma, alpha)[call]()
    # an all-zero mu0 is no baseline
    _disc_calls(model, FeatureSpace(model, phi, mu0=np.zeros(model.num_pairs)), gamma,
                alpha)[call]()


# --------------------------------------------------------------- projection

def test_projection_ball_cases():
    inside = np.array([0.1, -0.2, 0.3])
    np.testing.assert_array_equal(project_theta_disc(inside, 1.0), inside)
    theta = np.array([3.0, 0.0, 4.0])  # norm 5, radius 2.5 -> halved
    np.testing.assert_allclose(project_theta_disc(theta, 2.5), theta / 2.0)
    with pytest.raises(ParameterError):
        project_theta_disc(theta, 0.0)


@pytest.mark.parametrize("radius", [0.0, -1.5])
def test_disc_solver_config_rejects_nonpositive_radius(radius):
    with pytest.raises(ParameterError, match="radius must be positive"):
        DiscSolverConfig(discount=0.9, penalty=1.0, radius=radius, iterations=10)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=6),
       st.floats(0.1, 5.0))
def test_projection_ball_feasible_idempotent(values, radius):
    theta = np.asarray(values)
    out = project_theta_disc(theta, radius)
    assert np.linalg.norm(out) <= radius + 1e-12
    np.testing.assert_allclose(project_theta_disc(out, radius), out, atol=1e-15)


def test_projection_ball_minimality_against_grid():
    rng = np.random.default_rng(77)
    radius = 1.2
    # dense grid over the ball in 3-D
    ticks = np.linspace(-radius, radius, 25)
    pts = np.array([[a, b, c] for a in ticks for b in ticks for c in ticks])
    pts = pts[np.linalg.norm(pts, axis=1) <= radius]
    for _ in range(10):
        theta = rng.normal(scale=2.0, size=3)
        projected = project_theta_disc(theta, radius)
        best = np.linalg.norm(pts - theta, axis=1).min()
        assert np.linalg.norm(projected - theta) <= best + 1e-9


# ---------------------------------------------------------------- sgd solve

def test_sgd_zero_rate_uniform_policy():
    rng = np.random.default_rng(78)
    model = random_mdp(rng, 4, 2)
    fs = random_features(rng, model, 3)
    sample = make_uniform_sampling(model, fs, 0.9)
    cfg = DiscSolverConfig(discount=0.9, penalty=1.0, radius=1.5, iterations=1,
                           learning_rate=0.0, seed=3)
    trace = sgd_solve_disc(model, fs, sample, cfg)
    np.testing.assert_array_equal(trace.theta, np.zeros(3))
    np.testing.assert_allclose(trace.policy.probs, 0.5)


def test_sgd_deterministic_under_seed():
    rng = np.random.default_rng(79)
    model = random_mdp(rng, 4, 2)
    fs = random_features(rng, model, 3)
    sample = make_uniform_sampling(model, fs, 0.9)
    cfg = DiscSolverConfig(discount=0.9, penalty=2.0, radius=1.5, iterations=300,
                           seed=8, minibatch=3, trace_stride=20)
    t1 = sgd_solve_disc(model, fs, sample, cfg)
    t2 = sgd_solve_disc(model, fs, sample, cfg)
    np.testing.assert_array_equal(t1.theta, t2.theta)
    np.testing.assert_array_equal(t1.v_hat, t2.v_hat)


def test_sgd_recovers_representable_optimum():
    rng = np.random.default_rng(80)
    model = random_mdp(rng, 6, 2)
    gamma = 0.8
    alpha = np.full(6, 1.0 / 6.0)
    fs = visit_features(rng, model, 3, gamma, alpha)
    sample = make_norm_proportional_sampling(model, fs, gamma)
    cost_star = float(fs.phi.toarray()[:, 0] @ model.loss)
    cfg = DiscSolverConfig(discount=gamma, penalty=6.0, radius=1.3,
                           iterations=200000, initial_dist=alpha, seed=1,
                           trace_stride=10**9)
    trace = sgd_solve_disc(model, fs, sample, cfg)
    nu_hat = discounted_visits(model, trace.policy, gamma, alpha, tol=1e-10)
    assert float(nu_hat @ model.loss) <= cost_star + 0.1
    # the same gap through the value function (the two evaluations agree)
    j_hat = value_function(model, trace.policy, gamma, tol=1e-10)
    assert float(alpha @ j_hat) == pytest.approx(float(nu_hat @ model.loss), abs=1e-7)


def test_sgd_sum_constraint_flag(monkeypatch):
    rng = np.random.default_rng(81)
    model = random_mdp(rng, 4, 2)
    fs = random_features(rng, model, 3)
    sample = make_uniform_sampling(model, fs, 0.5)
    cfg = DiscSolverConfig(discount=0.5, penalty=2.0, radius=3.0, iterations=50,
                           seed=2, enforce_sum_constraint=True)
    seen = record_projections(monkeypatch, discounted)
    sgd_solve_disc(model, fs, sample, cfg)
    assert len(seen) == 50
    for theta in seen:
        assert abs(theta.sum() - 2.0) <= 1e-12  # 1/(1-gamma) = 2
        assert np.linalg.norm(theta) <= 3.0 + 1e-12


# ------------------------------------------------------ violation estimation

def test_estimate_violations_feasible_column_zero():
    rng = np.random.default_rng(82)
    model = random_mdp(rng, 5, 2)
    gamma, alpha = 0.85, np.full(5, 0.2)
    fs = visit_features(rng, model, 3, gamma, alpha)
    sample = make_uniform_sampling(model, fs, gamma)
    est = estimate_violations_disc(model, fs, sample, gamma, alpha,
                                   np.array([1.0, 0.0, 0.0]), 300,
                                   np.random.default_rng(5))
    assert est <= 1e-8


def test_estimate_violations_enumerated_expectation():
    rng = np.random.default_rng(83)
    model = random_mdp(rng, 4, 2)
    fs = random_features(rng, model, 3, normalize=True)
    gamma = 0.9
    alpha = rng.dirichlet(np.ones(4))
    theta = rng.normal(size=3)
    surrogate = Surrogate.discounted(fs.model, fs, gamma, alpha)
    for maker in (make_uniform_sampling, make_norm_proportional_sampling):
        sample = maker(model, fs, gamma)
        expectation = 0.0
        for i in range(model.num_pairs):
            qi = float(sample.pair_prob(np.array([i]))[0])
            for j in range(model.num_states):
                qj = float(sample.state_prob(np.array([j]))[0])
                if qi == 0.0 or qj == 0.0:
                    continue
                summand = surrogate.violation_summands(sample, theta,
                                                       np.array([i]), np.array([j]))[0]
                expectation += qi * qj * summand
        v3, v4 = violations_exact_disc(model, fs, gamma, alpha, theta)
        assert expectation == pytest.approx(v3 + v4, abs=1e-12)


def test_violation_summand_bound():
    rng = np.random.default_rng(84)
    model = random_mdp(rng, 4, 2)
    fs = random_features(rng, model, 3, normalize=True)
    gamma = 0.9
    alpha = np.full(4, 0.25)
    sample = make_uniform_sampling(model, fs, gamma)
    radius = 1.5
    # the stated bound needs alpha(y)/q(y) <= S*C4; verify the fixture grants it
    assert 1.0 <= radius * sample.c_state
    bound = radius * (sample.c_pair + 2.0 * sample.c_state)
    surrogate = Surrogate.discounted(fs.model, fs, gamma, alpha)
    gen = np.random.default_rng(6)
    for _ in range(200):
        theta = project_theta_disc(gen.normal(size=3), radius)
        pair_idx = sample.sample_pairs(gen, 16)
        state_idx = sample.sample_states(gen, 16)
        summands = surrogate.violation_summands(sample, theta, pair_idx, state_idx)
        assert summands.max() <= bound + 1e-9


# ------------------------------------------------------------ meta-algorithm

def test_meta_defaults_follow_feature_bounds():
    rng = np.random.default_rng(85)
    model = random_mdp(rng, 4, 2)
    fs = random_features(rng, model, 3, normalize=True)
    gamma = 0.9
    sample = make_uniform_sampling(model, fs, gamma)
    # tolerance chosen large so the default grid stays tiny
    scale = np.sqrt(3) * fs.column_norm_bound * 1.5
    result = meta_solve_disc(model, fs, sample, gamma=gamma, alpha=None,
                             tolerance=2.0, failure_prob=0.2, seed=1, radius=1.5,
                             max_iterations_per_point=50)
    assert result.grid_points[0] == pytest.approx(
        (6.0 * scale / (1.0 - gamma)) / np.sqrt(4.0 * scale))
    assert result.selection_weight == pytest.approx(6.0 * scale / (1.0 - gamma))


def test_meta_selection_rule_recomputable():
    rng = np.random.default_rng(86)
    model = random_mdp(rng, 4, 2)
    gamma, alpha = 0.8, np.full(4, 0.25)
    fs = visit_features(rng, model, 3, gamma, alpha)
    sample = make_norm_proportional_sampling(model, fs, gamma)
    result = meta_solve_disc(model, fs, sample, gamma=gamma, alpha=alpha,
                             tolerance=0.5, failure_prob=0.1, seed=3, radius=1.3,
                             violation_bound=0.5, selection_weight=0.5,
                             max_iterations_per_point=2000)
    horizon = 1.0 / (1.0 - gamma)
    recomputed = (result.linear_objectives
                  + (result.grid_points + horizon) * result.violation_estimates
                  + result.selection_weight / (result.grid_points * (1.0 - gamma)))
    np.testing.assert_allclose(result.selection_values, recomputed, atol=1e-12)
    assert result.chosen_index == int(np.argmin(recomputed))
    np.testing.assert_array_equal(result.theta, result.traces[result.chosen_index].theta)


def test_meta_deterministic_and_capped():
    rng = np.random.default_rng(87)
    model = random_mdp(rng, 4, 2)
    gamma, alpha = 0.8, np.full(4, 0.25)
    fs = visit_features(rng, model, 3, gamma, alpha)
    sample = make_norm_proportional_sampling(model, fs, gamma)
    kwargs = dict(gamma=gamma, alpha=alpha, tolerance=0.5, failure_prob=0.1,
                  seed=9, radius=1.3, violation_bound=0.5, selection_weight=0.5,
                  max_iterations_per_point=1500)
    r1 = meta_solve_disc(model, fs, sample, **kwargs)
    r2 = meta_solve_disc(model, fs, sample, **kwargs)
    np.testing.assert_array_equal(r1.theta, r2.theta)
    np.testing.assert_array_equal(r1.selection_values, r2.selection_values)
    assert np.all(r1.iterations_per_point <= 1500)
    # the uncapped formula would have demanded far more
    uncapped = run_count_disc(float(r1.grid_points[-1]), 1.3, sample.c_pair,
                              sample.c_state, 3, 0.5, 0.1)
    assert uncapped > 1500

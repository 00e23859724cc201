import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualalp.errors import (CapacityError, ConvergenceError, InputShapeError,
                            ParameterError)
from dualalp.mdp import (MdpModel, Policy, average_cost, bellman_average,
                         bellman_discounted, contraction_diagnostic,
                         discounted_visits, induced_chain, policy_from_occupancy,
                         solve_optimal, stationary_distribution,
                         stationary_state_action, value_function)

from dualalp.queueing import DESK_SPEC, build_mdp, heuristic_policy

from conftest import random_mdp, random_policy


def two_state_chain():
    kernel = np.array([[[0.9, 0.1]], [[0.2, 0.8]]])
    loss = np.array([[0.9], [0.0]])
    return MdpModel.from_dense(kernel, loss)


def single_state_mdp(loss_value=0.5, num_actions=1):
    kernel = np.ones((1, num_actions, 1))
    loss = np.full((1, num_actions), loss_value)
    return MdpModel.from_dense(kernel, loss)


# ---------------------------------------------------------------- model type

def test_reverse_is_exact_transpose():
    rng = np.random.default_rng(0)
    model = random_mdp(rng, 5, 3)
    fwd = model.transitions.tocoo()
    rev = model.reverse_transitions.tocoo()
    fwd_set = {(int(i), int(j)): float(v) for i, j, v in zip(fwd.row, fwd.col, fwd.data)}
    rev_set = {(int(j), int(i)): float(v) for i, j, v in zip(rev.row, rev.col, rev.data)}
    assert fwd_set == rev_set


def test_model_validation_rejects_bad_rows():
    kernel = np.array([[[0.5, 0.4]], [[0.2, 0.8]]])  # first row sums to 0.9
    with pytest.raises(ParameterError):
        MdpModel.from_dense(kernel, np.zeros((2, 1)))
    with pytest.raises(ParameterError):
        MdpModel.from_dense(np.ones((1, 1, 1)), np.array([[1.5]]))  # loss > 1
    with pytest.raises(InputShapeError):
        MdpModel.create(2, 1, np.eye(2), np.zeros(3))


def test_policy_validation():
    with pytest.raises(ParameterError):
        Policy(np.array([[0.5, 0.6]]))
    with pytest.raises(ParameterError):
        Policy(np.array([[-0.1, 1.1]]))


# ---------------------------------------------------- policy_from_occupancy

def test_policy_from_occupancy_examples():
    np.testing.assert_allclose(
        policy_from_occupancy(np.array([0.2, 0.6, 0.2]), 3).probs,
        [[0.2, 0.6, 0.2]])
    np.testing.assert_allclose(
        policy_from_occupancy(np.array([-1.0, -2.0]), 2).probs, [[0.5, 0.5]])
    np.testing.assert_allclose(
        policy_from_occupancy(np.array([-0.1, 0.3, 0.1]), 3).probs,
        [[0.0, 0.75, 0.25]])


def test_policy_from_occupancy_shape_errors():
    with pytest.raises(InputShapeError):
        policy_from_occupancy(np.zeros(5), 2)
    with pytest.raises(InputShapeError):
        policy_from_occupancy(np.zeros(4))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=6))
def test_policy_from_occupancy_rows_always_valid(row):
    pi = policy_from_occupancy(np.asarray(row)[None, :])
    assert pi.probs.min() >= 0
    assert abs(pi.probs.sum() - 1.0) < 1e-12


# ----------------------------------------------------------- induced chain

def test_induced_chain_deterministic_permutation():
    # deterministic cycle 0 -> 1 -> 0 under a single action
    kernel = np.array([[[0.0, 1.0]], [[1.0, 0.0]]])
    model = MdpModel.from_dense(kernel, np.zeros((2, 1)))
    chain = induced_chain(model, Policy(np.ones((2, 1)))).toarray()
    np.testing.assert_array_equal(chain, [[0.0, 1.0], [1.0, 0.0]])


def test_induced_chain_uniform_two_actions():
    kernel = np.zeros((1, 2, 1))
    kernel[0, 0, 0] = 1.0
    kernel[0, 1, 0] = 1.0
    # 2-state version: action 0 -> state 0, action 1 -> state 1
    kernel = np.array([[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]])
    model = MdpModel.from_dense(kernel, np.zeros((2, 2)))
    chain = induced_chain(model, Policy(np.full((2, 2), 0.5))).toarray()
    np.testing.assert_allclose(chain, [[0.5, 0.5], [0.5, 0.5]])


def test_induced_chain_matches_dense_enumeration():
    rng = np.random.default_rng(1)
    model = random_mdp(rng, 4, 3)
    pi = random_policy(rng, 4, 3)
    # independent dense oracle: direct triple loop over x, a, x'
    expected = np.zeros((4, 4))
    dense = model.transitions.toarray()
    for x in range(4):
        for a in range(3):
            for nxt in range(4):
                expected[x, nxt] += pi.probs[x, a] * dense[x * 3 + a, nxt]
    got = induced_chain(model, pi).toarray()
    assert np.abs(got - expected).max() <= 1e-14
    assert np.abs(got.sum(axis=1) - 1.0).max() <= 1e-12


# ------------------------------------------------ stationary distribution

def test_stationary_symmetric_two_state():
    kernel = np.array([[[0.5, 0.5]], [[0.5, 0.5]]])
    model = MdpModel.from_dense(kernel, np.zeros((2, 1)))
    mu = stationary_distribution(model, Policy(np.ones((2, 1))))
    np.testing.assert_allclose(mu, [0.5, 0.5], atol=1e-10)


def test_stationary_two_state_balance():
    # balance equation mu_1 * 0.1 = mu_2 * 0.2 -> mu = (2/3, 1/3)
    model = two_state_chain()
    mu = stationary_distribution(model, Policy(np.ones((2, 1))), tol=1e-12)
    np.testing.assert_allclose(mu, [2.0 / 3.0, 1.0 / 3.0], atol=1e-10)


def test_stationary_residual_postcondition_recheck():
    rng = np.random.default_rng(2)
    model = random_mdp(rng, 6, 2)
    pi = random_policy(rng, 6, 2)
    tol = 1e-11
    mu = stationary_distribution(model, pi, tol=tol)
    chain = induced_chain(model, pi)
    assert np.abs(mu @ chain.toarray() - mu).sum() <= tol
    assert abs(mu.sum() - 1.0) <= 1e-12


def test_stationary_handles_periodic_chain():
    # period-2 cycle: plain power iteration would oscillate forever
    kernel = np.array([[[0.0, 1.0]], [[1.0, 0.0]]])
    model = MdpModel.from_dense(kernel, np.zeros((2, 1)))
    mu = stationary_distribution(model, Policy(np.ones((2, 1))))
    np.testing.assert_allclose(mu, [0.5, 0.5], atol=1e-10)


def test_stationary_nonconvergence_error_carries_residual():
    # two disconnected states: the residual stalls at 0 only if started in a
    # stationary point; a lopsided restart cannot fix the residual below tol
    kernel = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
    model = MdpModel.from_dense(kernel, np.zeros((2, 1)))
    # identity chain is stationary everywhere; uniform start converges at once
    mu = stationary_distribution(model, Policy(np.ones((2, 1))))
    assert abs(mu.sum() - 1.0) < 1e-12
    # force a genuine failure with an impossible tolerance in few iterations
    rng = np.random.default_rng(3)
    busy = random_mdp(rng, 5, 2)
    pi = random_policy(rng, 5, 2)
    with pytest.raises(ConvergenceError) as err:
        stationary_distribution(busy, pi, tol=1e-300, max_iters=5)
    assert err.value.residual is not None and err.value.residual > 0


def stationary_residual(model, pi, mu):
    chain = induced_chain(model, pi)
    return float(np.abs(chain.T @ mu - mu).sum())


def test_stationary_desk_heuristics_residual():
    model = build_mdp(DESK_SPEC)
    for kind in ("LONGER", "LBFS"):
        pi = heuristic_policy(DESK_SPEC, kind)
        mu = stationary_distribution(model, pi)
        assert mu.min() >= 0.0 and abs(mu.sum() - 1.0) <= 1e-12
        assert stationary_residual(model, pi, mu) <= 1e-12


def test_stationary_matches_dense_solve_random():
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(6, 11))
        num_actions = int(rng.integers(1, 4))
        model = random_mdp(rng, n, num_actions, sharpness=[0.2, 1.0, 5.0][seed % 3])
        pi = random_policy(rng, n, num_actions)
        # dense oracle: (I - P^T) mu = 0 with the first equation replaced by sum(mu) = 1
        system = np.eye(n) - induced_chain(model, pi).toarray().T
        system[0] = 1.0
        rhs = np.zeros(n)
        rhs[0] = 1.0
        expected = np.linalg.solve(system, rhs)
        mu = stationary_distribution(model, pi)
        assert np.abs(mu - expected).max() <= 1e-12


def test_stationary_reducible_two_closed_classes():
    block = np.array([[0.3, 0.7], [0.6, 0.4]])
    kernel = np.zeros((4, 1, 4))
    kernel[:2, 0, :2] = block
    kernel[2:, 0, 2:] = block[::-1]
    model = MdpModel.from_dense(kernel, np.zeros((4, 1)))
    pi = Policy(np.ones((4, 1)))
    mu = stationary_distribution(model, pi)
    assert mu.min() >= 0.0 and abs(mu.sum() - 1.0) <= 1e-12
    assert stationary_residual(model, pi, mu) <= 1e-10


def test_stationary_transient_anchor_candidate():
    # state 1 collects the most one-step inflow but is transient; state 0 absorbs
    kernel = np.zeros((5, 1, 5))
    kernel[0, 0, 0] = 1.0
    kernel[1, 0, [0, 1]] = 0.5
    kernel[2:, 0, 1] = 1.0
    model = MdpModel.from_dense(kernel, np.zeros((5, 1)))
    pi = Policy(np.ones((5, 1)))
    inflow = induced_chain(model, pi).toarray().sum(axis=0)
    assert int(np.argmax(inflow)) == 1
    mu = stationary_distribution(model, pi)
    assert mu.min() >= 0.0 and abs(mu.sum() - 1.0) <= 1e-12
    assert stationary_residual(model, pi, mu) <= 1e-10
    np.testing.assert_allclose(mu, [1.0, 0.0, 0.0, 0.0, 0.0], atol=1e-10)


def test_stationary_solve_leaves_sparse_linalg_unimported():
    # scipy.sparse.linalg loads its own BLAS (about 10 MB of resident memory)
    import dualalp
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import dualalp\n"
        "from dualalp.mdp import MdpModel, Policy, stationary_distribution\n"
        "model = MdpModel.from_dense(np.array([[[0.9, 0.1]], [[0.2, 0.8]]]), np.zeros((2, 1)))\n"
        "stationary_distribution(model, Policy(np.ones((2, 1))))\n"
        "print('scipy.sparse.linalg' in sys.modules)\n")
    src = str(Path(dualalp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"


# -------------------------------------------------------------- average cost

def test_average_cost_constant_loss():
    rng = np.random.default_rng(4)
    kernel = rng.dirichlet(np.ones(3), size=(3, 2))
    model = MdpModel.from_dense(kernel, np.full((3, 2), 0.3))
    pi = random_policy(rng, 3, 2)
    assert abs(average_cost(model, pi) - 0.3) < 1e-9


def test_average_cost_two_state_example():
    model = two_state_chain()
    assert abs(average_cost(model, Policy(np.ones((2, 1)))) - 0.6) < 1e-9


def test_average_cost_single_state():
    model = single_state_mdp(0.2)
    assert abs(average_cost(model, Policy(np.ones((1, 1)))) - 0.2) < 1e-12


# ------------------------------------------------------------ value function

def test_value_function_single_state_geometric():
    model = single_state_mdp(0.5)
    v = value_function(model, Policy(np.ones((1, 1))), gamma=0.9, tol=1e-10)
    assert abs(v[0] - 5.0) < 1e-8


def test_value_function_zero_loss():
    rng = np.random.default_rng(5)
    kernel = rng.dirichlet(np.ones(4), size=(4, 2))
    model = MdpModel.from_dense(kernel, np.zeros((4, 2)))
    v = value_function(model, random_policy(rng, 4, 2), gamma=0.8)
    np.testing.assert_array_equal(v, np.zeros(4))


def test_value_function_matches_linear_solve():
    rng = np.random.default_rng(6)
    model = random_mdp(rng, 5, 3)
    pi = random_policy(rng, 5, 3)
    gamma = 0.85
    v = value_function(model, pi, gamma, tol=1e-10)
    # dense linear-solve oracle: (I - gamma P_pi) J = loss_pi
    chain = induced_chain(model, pi).toarray()
    loss_pi = (pi.probs * model.loss.reshape(5, 3)).sum(axis=1)
    expected = np.linalg.solve(np.eye(5) - gamma * chain, loss_pi)
    assert np.abs(v - expected).max() < 1e-8


def test_value_function_gamma_range():
    model = single_state_mdp()
    with pytest.raises(ParameterError):
        value_function(model, Policy(np.ones((1, 1))), gamma=1.0)


# --------------------------------------------------------- discounted visits

def test_discounted_visits_single_state():
    model = single_state_mdp()
    nu = discounted_visits(model, Policy(np.ones((1, 1))), gamma=0.9,
                           alpha=np.array([1.0]))
    assert abs(nu[0] - 10.0) < 1e-8


def test_discounted_visits_identities_and_dense_solve():
    rng = np.random.default_rng(7)
    model = random_mdp(rng, 4, 2)
    pi = random_policy(rng, 4, 2)
    gamma = 0.8
    alpha = rng.dirichlet(np.ones(4))
    nu = discounted_visits(model, pi, gamma, alpha, tol=1e-12)
    # mass identity
    assert abs(nu.sum() - 1.0 / (1.0 - gamma)) < 1e-8
    # loss identity: nu^T loss = alpha^T J_pi
    j = value_function(model, pi, gamma, tol=1e-12)
    assert abs(nu @ model.loss - alpha @ j) < 1e-8
    # dense linear-solve oracle: state visits solve (I - gamma P_pi^T) s = alpha
    chain = induced_chain(model, pi).toarray()
    state_visits = np.linalg.solve(np.eye(4) - gamma * chain.T, alpha)
    expected = (state_visits[:, None] * pi.probs).reshape(-1)
    assert np.abs(nu - expected).max() < 1e-8
    # feasibility residual ||(B - gamma P)^T nu - alpha||_1
    dense_p = model.transitions.toarray()
    b_t_nu = nu.reshape(4, 2).sum(axis=1)
    p_t_nu = dense_p.T @ nu
    assert np.abs(b_t_nu - gamma * p_t_nu - alpha).sum() < 1e-8


# ----------------------------------------------------------------- bellman

def test_bellman_average_zero_vector():
    rng = np.random.default_rng(8)
    model = random_mdp(rng, 4, 3)
    out = bellman_average(model, np.zeros(4))
    np.testing.assert_allclose(out, model.loss.reshape(4, 3).min(axis=1))


def test_bellman_single_action_is_affine():
    rng = np.random.default_rng(9)
    model = random_mdp(rng, 4, 1)
    h = rng.normal(size=4)
    out = bellman_average(model, h)
    expected = model.loss + model.transitions.toarray() @ h
    np.testing.assert_allclose(out, expected)


def test_bellman_matches_brute_force():
    rng = np.random.default_rng(10)
    model = random_mdp(rng, 5, 3)
    h = rng.normal(size=5)
    dense = model.transitions.toarray()
    # brute-force triple loop
    expected = np.full(5, np.inf)
    for x in range(5):
        for a in range(3):
            q = model.loss[x * 3 + a]
            for nxt in range(5):
                q += dense[x * 3 + a, nxt] * h[nxt]
            expected[x] = min(expected[x], q)
    np.testing.assert_allclose(bellman_average(model, h), expected, atol=1e-12)
    # discounted variant with the same loop at gamma
    gamma = 0.7
    expected_d = np.full(5, np.inf)
    for x in range(5):
        for a in range(3):
            q = model.loss[x * 3 + a] + gamma * dense[x * 3 + a] @ h
            expected_d[x] = min(expected_d[x], q)
    np.testing.assert_allclose(bellman_discounted(model, h, gamma), expected_d,
                               atol=1e-12)


def test_bellman_discounted_gamma_zero_like():
    rng = np.random.default_rng(11)
    model = random_mdp(rng, 4, 2)
    j = rng.normal(size=4)
    # gamma -> 0 limit ignores J entirely
    out = bellman_discounted(model, j, 1e-300)
    np.testing.assert_allclose(out, model.loss.reshape(4, 2).min(axis=1), atol=1e-12)


def test_bellman_monotone_and_shift():
    rng = np.random.default_rng(12)
    model = random_mdp(rng, 6, 2)
    h = rng.normal(size=6)
    hp = h + rng.random(6)  # h <= hp
    assert np.all(bellman_average(model, h) <= bellman_average(model, hp) + 1e-12)
    c = 0.37
    np.testing.assert_allclose(bellman_average(model, h + c),
                               bellman_average(model, h) + c, atol=1e-10)
    gamma = 0.9
    assert np.all(bellman_discounted(model, h, gamma)
                  <= bellman_discounted(model, hp, gamma) + 1e-12)
    np.testing.assert_allclose(bellman_discounted(model, h + c, gamma),
                               bellman_discounted(model, h, gamma) + gamma * c,
                               atol=1e-10)


# ------------------------------------------------------------ solve_optimal

def test_solve_optimal_single_action():
    model = two_state_chain()
    sol = solve_optimal(model, mode="average", tol=1e-11)
    assert abs(sol.average_loss - 0.6) < 1e-8


def test_solve_optimal_dominating_action():
    rng = np.random.default_rng(13)
    kernel_one = rng.dirichlet(np.ones(2), size=2)
    kernel = np.stack([kernel_one, kernel_one], axis=1)  # identical dynamics
    loss = np.array([[0.2, 0.7], [0.1, 0.9]])  # action 0 dominates
    model = MdpModel.from_dense(kernel, loss)
    sol = solve_optimal(model, mode="average", tol=1e-10)
    np.testing.assert_array_equal(sol.policy.probs.argmax(axis=1), [0, 0])
    sol_d = solve_optimal(model, mode="discounted", gamma=0.9, tol=1e-10)
    np.testing.assert_array_equal(sol_d.policy.probs.argmax(axis=1), [0, 0])


def test_solve_optimal_discounted_matches_policy_enumeration():
    rng = np.random.default_rng(14)
    model = random_mdp(rng, 6, 2)
    gamma = 0.9
    sol = solve_optimal(model, mode="discounted", gamma=gamma, tol=1e-11)
    # exhaustive oracle: all 2^6 deterministic policies, values by dense solve
    dense = model.transitions.toarray()
    loss2d = model.loss.reshape(6, 2)
    best = np.full(6, np.inf)
    for mask in range(2 ** 6):
        actions = [(mask >> x) & 1 for x in range(6)]
        chain = np.array([dense[x * 2 + actions[x]] for x in range(6)])
        loss_pi = np.array([loss2d[x, actions[x]] for x in range(6)])
        values = np.linalg.solve(np.eye(6) - gamma * chain, loss_pi)
        best = np.minimum(best, values)
    assert np.abs(sol.values - best).max() < 1e-7


def test_solve_optimal_greedy_residual_invariant():
    rng = np.random.default_rng(15)
    model = random_mdp(rng, 5, 3)
    tol = 1e-9
    sol = solve_optimal(model, mode="average", tol=tol)
    # residual of the optimality equation at the returned differential vector
    image = bellman_average(model, sol.values)
    assert np.abs(image - sol.values - sol.average_loss).max() <= tol * 1.01
    sol_d = solve_optimal(model, mode="discounted", gamma=0.85, tol=tol)
    image_d = bellman_discounted(model, sol_d.values, 0.85)
    assert np.abs(image_d - sol_d.values).max() <= tol * 1.01


def test_solve_optimal_capacity_guard():
    rng = np.random.default_rng(16)
    model = random_mdp(rng, 3, 2)
    object.__setattr__(model, "num_states", 10**6)  # fake an oversized model
    with pytest.raises(CapacityError):
        solve_optimal(model, mode="average")


# ------------------------------------------------- contraction diagnostic

def test_contraction_rank_one_and_identity():
    kernel = np.array([[[0.3, 0.7]], [[0.3, 0.7]]])  # identical rows
    model = MdpModel.from_dense(kernel, np.zeros((2, 1)))
    assert contraction_diagnostic(model, Policy(np.ones((2, 1)))) == 0.0
    ident = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
    model2 = MdpModel.from_dense(ident, np.zeros((2, 1)))
    assert contraction_diagnostic(model2, Policy(np.ones((2, 1)))) == 1.0


def test_contraction_capacity_guard():
    rng = np.random.default_rng(19)
    model = random_mdp(rng, 3, 2)
    object.__setattr__(model, "num_states", 1001)  # 1001**2 > DENSE_GUARD
    with pytest.raises(CapacityError):
        contraction_diagnostic(model, random_policy(rng, 3, 2))


def test_contraction_matches_pairwise_loop():
    rng = np.random.default_rng(17)
    model = random_mdp(rng, 4, 2)
    pi = random_policy(rng, 4, 2)
    rows = induced_chain(model, pi).toarray()
    worst = 0.0
    for i in range(4):
        for j in range(4):
            worst = max(worst, 0.5 * np.abs(rows[i] - rows[j]).sum())
    assert abs(contraction_diagnostic(model, pi) - worst) < 1e-14


def test_stationary_state_action_consistency():
    rng = np.random.default_rng(18)
    model = random_mdp(rng, 4, 2)
    pi = random_policy(rng, 4, 2)
    mu_sa = stationary_state_action(model, pi, tol=1e-12)
    assert abs(mu_sa.sum() - 1.0) < 1e-10
    # marginalizing over actions recovers the state distribution
    mu = stationary_distribution(model, pi, tol=1e-12)
    np.testing.assert_allclose(mu_sa.reshape(4, 2).sum(axis=1), mu, atol=1e-12)

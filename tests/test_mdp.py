import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from dualalp import mdp
from dualalp.errors import (CapacityError, ConvergenceError, InputShapeError,
                            ParameterError)
from dualalp.mdp import (PROB_ATOL, MdpModel, Policy, average_cost,
                         bellman_average, bellman_discounted, contraction_diagnostic,
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


@pytest.fixture(scope="module")
def desk_model():
    return build_mdp(DESK_SPEC)


# ---------------------------------------------------------------- model type

def test_model_validation_rejects_bad_rows():
    kernel = np.array([[[0.5, 0.4]], [[0.2, 0.8]]])  # first row sums to 0.9
    with pytest.raises(ParameterError):
        MdpModel.from_dense(kernel, np.zeros((2, 1)))
    with pytest.raises(ParameterError):
        MdpModel.from_dense(np.ones((1, 1, 1)), np.array([[1.5]]))  # loss > 1
    with pytest.raises(InputShapeError):
        MdpModel.create(2, 1, np.eye(2), np.zeros(3))


@pytest.mark.parametrize("kernel_row, loss", [
    ([np.nan, 1.0], [0.1, 0.2]),
    ([np.inf, 0.0], [0.1, 0.2]),
    ([0.5, 0.5], [np.nan, 0.2]),
    ([0.5, 0.5], [0.1, np.inf]),
], ids=["nan-kernel-entry", "inf-kernel-entry", "nan-loss", "inf-loss"])
def test_model_validation_rejects_non_finite_entries(kernel_row, loss):
    # NaN passed both checks: "abs(nan - 1) > tol" and "nan < 0" are False
    kernel = np.array([[kernel_row], [[0.2, 0.8]]])
    with pytest.raises(ParameterError):
        MdpModel.from_dense(kernel, np.reshape(loss, (2, 1)))


def test_policy_validation():
    with pytest.raises(ParameterError):
        Policy(np.array([[0.5, 0.6]]))
    with pytest.raises(ParameterError):
        Policy(np.array([[-0.1, 1.1]]))


@pytest.mark.parametrize("bad_row", [[np.nan, np.nan], [np.inf, 0.0], [np.nan, 1.0]],
                         ids=["nan-row", "inf-row", "nan-entry"])
def test_policy_rejects_non_finite_probabilities(bad_row):
    probs = np.full((3, 2), 0.5)
    probs[1] = bad_row
    with pytest.raises(ParameterError):
        Policy(probs)
    with pytest.raises(ParameterError):
        Policy(np.full((3, 4), np.nan))


def test_policy_without_actions_or_states():
    """A state with no action has no distribution; a table with no state is
    vacuously row-stochastic."""
    with pytest.raises(ParameterError):
        Policy(np.zeros((3, 0)))
    assert Policy(np.zeros((0, 4))).probs.shape == (0, 4)


# 40,000 rows: the off row is the last one, past the first row blocks of the check
CHECK_ROWS = 40_000


@pytest.mark.parametrize("num_actions", [1, 2, 4, 9])
@pytest.mark.parametrize("off, accepted", [(0.5, True), (-0.5, True), (2.0, False),
                                           (-2.0, False)])
def test_policy_row_sum_tolerance(num_actions, off, accepted):
    probs = np.full((CHECK_ROWS, num_actions), 1.0 / num_actions)
    probs[-1] = (1.0 + off * PROB_ATOL) / num_actions
    if accepted:
        Policy(probs)
    else:
        with pytest.raises(ParameterError):
            Policy(probs)


@pytest.mark.parametrize("bad_row", [[np.nan, 0.5, 0.25, 0.25], [np.inf, 0.0, 0.0, 0.0],
                                     [-np.inf, 0.0, 0.0, 1.0], [-0.5, 0.5, 0.5, 0.5]],
                         ids=["nan", "inf", "minus-inf", "negative-entry"])
def test_policy_rejects_bad_last_row(bad_row):
    probs = np.full((CHECK_ROWS, 4), 0.25)
    probs[-1] = bad_row
    with pytest.raises(ParameterError):
        Policy(probs)


@pytest.mark.parametrize("num_actions", range(1, 8))
def test_policy_verdicts_match_numpy_row_sums(num_actions):
    """For A <= 7 the check's column-order sums have the bits of numpy's row
    sums, so rows scaled to within a few tolerances of 1 get the verdicts of
    ``|probs.sum(axis=1) - 1| <= PROB_ATOL``."""
    rng = np.random.default_rng(num_actions)
    rows = rng.random((400, num_actions))
    rows /= rows.sum(axis=1, keepdims=True)
    rows *= 1.0 + rng.uniform(-2.0, 2.0, size=(400, 1)) * PROB_ATOL
    want = np.abs(rows.sum(axis=1) - 1.0) <= PROB_ATOL
    assert 0 < want.sum() < len(rows)
    for row, ok in zip(rows, want):
        try:
            Policy(row[None, :])
            got = True
        except ParameterError:
            got = False
        assert got == ok


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
        policy_from_occupancy(np.zeros((2, 2)), 2)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=6))
def test_policy_from_occupancy_rows_always_valid(row):
    pi = policy_from_occupancy(np.asarray(row), len(row))
    assert pi.probs.min() >= 0
    assert abs(pi.probs.sum() - 1.0) < 1e-12


def _policy_table_two_tables(u, num_actions):
    """The policy table as it was formed with a second (X, A) table for the
    quotients, for the bit comparison."""
    pos = np.maximum(u.reshape(-1, num_actions), 0.0)
    totals = pos.sum(axis=1, keepdims=True)
    probs = np.empty_like(pos)
    np.divide(pos, totals, out=probs, where=totals > 0)
    probs[(totals <= 0.0).ravel()] = 1.0 / num_actions
    return probs


@pytest.mark.parametrize("num_actions", [1, 2, 4, 9])
def test_policy_from_occupancy_in_place_keeps_bits(num_actions):
    rng = np.random.default_rng(52)
    u = rng.standard_normal(300 * num_actions)
    u[:5 * num_actions] = -np.abs(u[:5 * num_actions])  # rows with no positive part
    u[-num_actions:] = 0.0
    u[7] = -0.0
    kept = u.copy()
    probs = policy_from_occupancy(u, num_actions).probs
    assert probs.tobytes() == _policy_table_two_tables(u, num_actions).tobytes()
    assert u.tobytes() == kept.tobytes()  # the caller's vector is left as it was


def test_policy_from_occupancy_allocates_one_table():
    """The quotients go into the clipped copy: the traced peak stays within
    1.5 tables (200k x 4; with a second table for the quotients it was 2.3)."""
    num_actions = 4
    u = np.random.default_rng(53).standard_normal(200_000 * num_actions)
    tracemalloc.start()
    try:
        policy = policy_from_occupancy(u, num_actions)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert policy.probs.shape == (200_000, num_actions)
    assert peak <= 1.5 * 8 * u.size


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


def _two_product_chain(model, pi):
    """The aggregation of the pi-weighted kernel rows, in two sparse products."""
    agg = mdp._aggregation_matrix(model.num_states, model.num_actions)
    chain = (agg @ (sp.diags(pi.flat()) @ model.transitions)).tocsr()
    chain.sort_indices()
    return chain


def _assert_same_csr(got, expected):
    for field in ("data", "indices", "indptr"):
        assert getattr(got, field).tobytes() == getattr(expected, field).tobytes(), field


def sparse_policy(rng, num_states, num_actions):
    """Random policy with about a third of its entries exactly zero."""
    probs = rng.dirichlet(np.ones(num_actions), size=num_states)
    probs[rng.random(probs.shape) < 0.35] = 0.0
    probs[probs.sum(axis=1) == 0.0, 0] = 1.0
    return Policy(probs / probs.sum(axis=1, keepdims=True))


def test_induced_chain_bit_identical_to_two_products_random():
    for seed in range(12):
        rng = np.random.default_rng(300 + seed)
        n, num_actions = int(rng.integers(2, 12)), int(rng.integers(1, 5))
        model = random_mdp(rng, n, num_actions, sharpness=[0.1, 1.0][seed % 2])
        pi = sparse_policy(rng, n, num_actions)
        _assert_same_csr(induced_chain(model, pi), _two_product_chain(model, pi))


@pytest.mark.parametrize("kind", ["LBFS", "LONGER"])
def test_induced_chain_bit_identical_to_two_products_desk(desk_model, kind):
    pi = heuristic_policy(DESK_SPEC, kind)
    assert (pi.probs == 0.0).any()
    _assert_same_csr(induced_chain(desk_model, pi), _two_product_chain(desk_model, pi))


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


def test_stationary_nonconvergence_error_carries_residual(monkeypatch):
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
    monkeypatch.setattr(mdp, "_MAX_SWEEPS", 5)
    with pytest.raises(ConvergenceError, match="in 5 iterations") as err:
        stationary_distribution(busy, pi, tol=1e-300)
    assert err.value.residual is not None and err.value.residual > 0


@pytest.mark.parametrize("mode, gamma, what", [("average", None, "relative value iteration"),
                                               ("discounted", 0.9, "value iteration")])
def test_solve_optimal_sweep_cap_raises_with_residual(monkeypatch, mode, gamma, what):
    model = random_mdp(np.random.default_rng(4), 5, 2)
    monkeypatch.setattr(mdp, "_MAX_SWEEPS", 3)
    with pytest.raises(ConvergenceError, match=f"^{what} did not reach .* in 3 sweeps") as err:
        solve_optimal(model, mode, gamma=gamma, tol=1e-300)
    assert err.value.residual > 0


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


def _sparse_linalg_loaded_after(call):
    """Whether ``call`` on a 2-state chain, run in a fresh interpreter,
    imports scipy.sparse.linalg."""
    import dualalp
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import dualalp\n"
        "from dualalp.mdp import (MdpModel, Policy, discounted_visits,\n"
        "                         stationary_distribution, value_function)\n"
        "model = MdpModel.from_dense(np.array([[[0.9, 0.1]], [[0.2, 0.8]]]),\n"
        "                            np.array([[0.9], [0.0]]))\n"
        f"{call}\n"
        "print('scipy.sparse.linalg' in sys.modules)\n")
    src = str(Path(dualalp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True)
    return out.stdout.strip() == "True"


def test_stationary_solve_leaves_sparse_linalg_unimported():
    # scipy.sparse.linalg loads its own BLAS (about 10 MB of resident memory)
    assert not _sparse_linalg_loaded_after("stationary_distribution(model, Policy(np.ones((2, 1))))")


def test_value_function_leaves_sparse_linalg_unimported():
    assert not _sparse_linalg_loaded_after("value_function(model, Policy(np.ones((2, 1))), 0.99)")


def test_discounted_visits_leaves_sparse_linalg_unimported():
    assert not _sparse_linalg_loaded_after(
        "discounted_visits(model, Policy(np.ones((2, 1))), 0.99)")


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


@pytest.mark.parametrize("gamma", [0.0, 1.0, float("nan")])
def test_discounted_visits_gamma_range(gamma):
    with pytest.raises(ParameterError, match="gamma must lie in"):
        discounted_visits(single_state_mdp(), Policy(np.ones((1, 1))), gamma)


# the floor is eps ||rhs|| / (1 - gamma)^2: 2.2e-10 at 0.999 for a loss of 1
# and for the uniform alpha, whose visits solve runs at tol / 2
@pytest.mark.parametrize("call", [value_function, discounted_visits])
def test_discounted_tol_below_rounding_floor_raises(call):
    model, pi = single_state_mdp(loss_value=1.0), Policy(np.ones((1, 1)))
    with pytest.raises(ParameterError, match="below the rounding floor"):
        call(model, pi, 0.999, tol=1e-10)
    assert abs(call(model, pi, 0.999, tol=1e-9).sum() - 1000.0) <= 1e-9


# the sweeps round each value of up to 1/(1 - gamma) by about eps / (1 - gamma)
# and the discount amplifies that by 1/(1 - gamma): about 2e-10 at 0.999
@pytest.mark.parametrize("gamma, tol", [(0.5, 1e-10), (0.9, 1e-10), (0.99, 1e-10),
                                        (0.999, 1e-8)])
def test_value_function_within_tol_of_dense_solve(gamma, tol):
    for seed in range(15):
        rng = np.random.default_rng(400 + seed)
        n, num_actions = int(rng.integers(2, 13)), int(rng.integers(1, 4))
        model = random_mdp(rng, n, num_actions, sharpness=[0.2, 1.0, 5.0][seed % 3])
        pi = sparse_policy(rng, n, num_actions)
        loss_pi = (pi.probs * model.loss.reshape(n, num_actions)).sum(axis=1)
        chain = induced_chain(model, pi).toarray()
        expected = np.linalg.solve(np.eye(n) - gamma * chain, loss_pi)
        assert np.abs(value_function(model, pi, gamma, tol=tol) - expected).max() <= tol


def test_value_function_desk_lbfs_matches_sparse_direct_solve(desk_model):
    from scipy.sparse.linalg import spsolve
    pi = heuristic_policy(DESK_SPEC, "LBFS")
    gamma = 0.99
    loss_pi = (pi.probs * desk_model.loss.reshape(pi.probs.shape)).sum(axis=1)
    system = (sp.identity(desk_model.num_states) - gamma * induced_chain(desk_model, pi)).tocsc()
    expected = spsolve(system, loss_pi)
    assert np.abs(value_function(desk_model, pi, gamma) - expected).max() <= 1e-10


def _value_sweeps(model, pi, gamma, tol):
    """(call, chain, rhs, norm, tol, lift) of the value function: the sweeps
    on the chain reach the call's result in its sup norm."""
    loss_pi = (pi.probs * model.loss.reshape(pi.probs.shape)).sum(axis=1)
    return (lambda: value_function(model, pi, gamma, tol=tol), induced_chain(model, pi),
            loss_pi, lambda v: np.abs(v).max(), tol, lambda v: v)


def _visit_sweeps(model, pi, gamma, tol):
    """The same for the discounted visits from the uniform alpha: sweeps on
    the transposed chain in L1 to tol/2, lifted to pairs by the policy."""
    alpha = np.full(model.num_states, 1.0 / model.num_states)
    return (lambda: discounted_visits(model, pi, gamma, tol=tol),
            induced_chain(model, pi).T.tocsr(), alpha, lambda v: np.abs(v).sum(), tol / 2,
            lambda v: (v[:, None] * pi.probs).reshape(-1))


@pytest.mark.parametrize("solve, start", [
    pytest.param(solve, start, id=start if solve is _value_sweeps else f"visits-{start}")
    for solve in (_value_sweeps, _visit_sweeps) for start in ("nan", "breakdown",
                                                              "worse than zero")])
def test_value_function_dropped_start_falls_back_to_zero(monkeypatch, solve, start):
    rng = np.random.default_rng(8)
    model = random_mdp(rng, 7, 2)
    pi = random_policy(rng, 7, 2)
    gamma, tol = 0.95, 1e-10
    call, chain, rhs, norm, sweep_tol, lift = solve(model, pi, gamma, tol)
    expected = call()
    bad = {"nan": lambda n: np.full(n, np.nan), "breakdown": lambda n: None,
           "worse than zero": lambda n: np.full(n, 1e3)}[start]
    monkeypatch.setattr(mdp, "_bicgstab", lambda apply, rhs, done, max_iter: bad(rhs.size))
    got = call()
    assert np.abs(got - expected).max() <= 2 * tol
    # the fallback is value iteration from 0 with the certified stop
    sweep = np.zeros(7)
    while True:
        stepped = rhs + gamma * (chain @ sweep)
        done = gamma / (1 - gamma) * norm(stepped - sweep) <= sweep_tol
        sweep = stepped
        if done:
            break
    assert got.tobytes() == lift(sweep).tobytes()


def test_value_function_zero_policy_loss_is_exact_zero():
    # the losses are positive except on the action the policy takes
    rng = np.random.default_rng(9)
    loss = rng.random((5, 2)) + 0.1
    loss[:, 1] = 0.0
    model = MdpModel.from_dense(rng.dirichlet(np.ones(5), size=(5, 2)), loss)
    probs = np.zeros((5, 2))
    probs[:, 1] = 1.0
    # at 0.999 a policy loss above 0.45 would put the default tol below the rounding floor
    v = value_function(model, Policy(probs), gamma=0.999)
    assert v.tobytes() == np.zeros(5).tobytes()


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


@pytest.mark.parametrize("gamma, tol", [(0.5, 1e-10), (0.9, 1e-10), (0.99, 1e-10),
                                        (0.999, 1e-8)])
@pytest.mark.parametrize("initial", ["uniform", "dirichlet"])
def test_discounted_visits_within_tol_of_dense_solve(gamma, tol, initial):
    for seed in range(15):
        rng = np.random.default_rng(500 + seed)
        n, num_actions = int(rng.integers(2, 13)), int(rng.integers(1, 4))
        model = random_mdp(rng, n, num_actions, sharpness=[0.2, 1.0, 5.0][seed % 3])
        pi = sparse_policy(rng, n, num_actions)
        alpha = np.full(n, 1.0 / n) if initial == "uniform" else rng.dirichlet(np.ones(n))
        chain = induced_chain(model, pi).toarray()
        state_visits = np.linalg.solve(np.eye(n) - gamma * chain.T, alpha)
        expected = (state_visits[:, None] * pi.probs).reshape(-1)
        got = discounted_visits(model, pi, gamma, alpha, tol=tol)
        assert np.abs(got - expected).sum() <= tol


@pytest.mark.parametrize("heuristic", ["LBFS", "LONGER"])
def test_discounted_visits_desk_matches_sparse_direct_solve(desk_model, heuristic):
    # the uniform alpha is a left eigenvector of I - gamma P^T, on which
    # BiCGSTAB from x = 0 overflows
    from scipy.sparse.linalg import spsolve
    pi = heuristic_policy(DESK_SPEC, heuristic)
    gamma, n = 0.99, desk_model.num_states
    system = (sp.identity(n) - gamma * induced_chain(desk_model, pi).T).tocsc()
    expected = (spsolve(system, np.full(n, 1.0 / n))[:, None] * pi.probs).reshape(-1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = discounted_visits(desk_model, pi, gamma)
    assert np.abs(got - expected).sum() <= 1e-10


@pytest.mark.parametrize("alpha", [[np.nan, 0.5, 0.25, 0.25], [np.inf, 0.5, 0.25, 0.25],
                                   [-0.5, 0.5, 0.5, 0.5], [0.5, 0.5, 0.25, 0.25]],
                         ids=["nan", "inf", "negative", "sum"])
def test_discounted_visits_rejects_bad_initial_distribution(alpha):
    rng = np.random.default_rng(10)
    model = random_mdp(rng, 4, 2)
    with pytest.raises(ParameterError, match="state distribution"):
        discounted_visits(model, random_policy(rng, 4, 2), 0.9, np.array(alpha))


@pytest.mark.parametrize("shape", [(4, 3), (5, 2)], ids=["extra action", "extra state"])
@pytest.mark.parametrize("call", [lambda model, pi: value_function(model, pi, 0.9),
                                  lambda model, pi: discounted_visits(model, pi, 0.9)],
                         ids=["value_function", "discounted_visits"])
def test_discounted_evaluations_reject_policy_shape(call, shape):
    model = random_mdp(np.random.default_rng(11), 4, 2)
    with pytest.raises(InputShapeError, match="policy shape"):
        call(model, Policy(np.full(shape, 1.0 / shape[1])))


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


# ---------------------------------------------------------------- tolerances

TOL_CALLS = {
    "value_function": lambda model, pi, tol: value_function(model, pi, 0.9, tol=tol),
    "discounted_visits": lambda model, pi, tol: discounted_visits(model, pi, 0.9, tol=tol),
    "stationary_distribution": lambda model, pi, tol: stationary_distribution(model, pi, tol=tol),
    "solve_optimal_average": lambda model, pi, tol: solve_optimal(model, "average", tol=tol),
    "solve_optimal_discounted": lambda model, pi, tol: solve_optimal(model, "discounted",
                                                                     gamma=0.9, tol=tol),
}


@pytest.mark.parametrize("bad_tol", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("call", TOL_CALLS.values(), ids=TOL_CALLS.keys())
def test_tolerance_must_be_positive_and_finite(call, bad_tol):
    with pytest.raises(ParameterError, match="tol must be a positive finite number"):
        call(two_state_chain(), Policy(np.ones((2, 1))), bad_tol)


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

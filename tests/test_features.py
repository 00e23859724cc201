import hashlib
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from dualalp import _sgd, features
from dualalp._sgd import Surrogate
from dualalp.avgcost import AvgSolverConfig, sgd_solve_avg
from dualalp.discounted import DiscSolverConfig, sgd_solve_disc
from dualalp.errors import InputShapeError, ParameterError, SamplingSupportError
from dualalp.features import (FeatureSpace, make_norm_proportional_sampling,
                              make_uniform_sampling)
from dualalp.fixtures import load_mdp_fixture
from dualalp.mdp import MdpModel, Policy, discounted_visits, stationary_state_action
from dualalp.queueing import DESK_SPEC, build_features, build_mdp

from conftest import (narrow_random_space, random_features, random_mdp, random_policy,
                      stationary_features)

DATA = Path(__file__).parent / "data"


def single_state_mdp(num_actions=2, gamma_loss=0.5):
    kernel = np.ones((1, num_actions, 1))
    return MdpModel.from_dense(kernel, np.full((1, num_actions), gamma_loss))


def test_row_one_hot_and_zero():
    rng = np.random.default_rng(20)
    model = random_mdp(rng, 3, 2)
    col = np.zeros(6)
    col[model.pair_index(1, 0)] = 1.0
    fs = FeatureSpace(model, sp.csr_matrix(col.reshape(-1, 1)))
    np.testing.assert_array_equal(fs.rows([model.pair_index(1, 0)]), [[1.0]])
    np.testing.assert_array_equal(fs.rows([model.pair_index(0, 1)]), [[0.0]])


def test_rows_match_dense_reconstruction():
    rng = np.random.default_rng(21)
    model = random_mdp(rng, 5, 2)
    fs = random_features(rng, model, 4)
    dense = fs.phi.toarray()
    for i in range(model.num_pairs):
        np.testing.assert_array_equal(fs.rows(np.array([i]))[0], dense[i])


def test_normalization_columns_sum_to_one():
    rng = np.random.default_rng(22)
    model = random_mdp(rng, 4, 2)
    fs = random_features(rng, model, 3, signed=True, normalize=True)
    sums = np.asarray(abs(fs.phi).sum(axis=0)).ravel()
    np.testing.assert_allclose(sums, 1.0, atol=1e-10)
    assert fs.column_norm_bound <= 1.0 + 1e-10


def test_normalization_rejects_zero_column():
    rng = np.random.default_rng(23)
    model = random_mdp(rng, 3, 2)
    phi = np.zeros((6, 2))
    phi[:, 0] = 1.0
    with pytest.raises(ParameterError):
        FeatureSpace(model, sp.csr_matrix(phi), normalize=True)


@pytest.mark.parametrize("where, value", [("phi", np.nan), ("phi", np.inf), ("mu0", np.nan),
                                          ("mu0", -np.inf)])
def test_feature_space_rejects_non_finite_entries(where, value):
    model = random_mdp(np.random.default_rng(25), 3, 2)
    phi, mu0 = np.ones((6, 2)), np.full(6, 1.0 / 6)
    (phi[:, 0] if where == "phi" else mu0)[3] = value
    for normalize in (False, True):
        with pytest.raises(ParameterError, match=f"{where} entries must be finite"):
            FeatureSpace(model, phi, mu0=mu0, normalize=normalize)


def test_loss_phi_matches_enumeration():
    rng = np.random.default_rng(24)
    model = random_mdp(rng, 4, 3)
    fs = random_features(rng, model, 5)
    dense = fs.phi.toarray()
    expected = np.zeros(5)
    for i in range(model.num_pairs):
        for j in range(5):
            expected[j] += model.loss[i] * dense[i, j]
    np.testing.assert_allclose(fs.loss_phi, expected, atol=1e-12)


def test_column_norm_bound_is_operator_one_norm():
    rng = np.random.default_rng(25)
    model = random_mdp(rng, 4, 2)
    fs = random_features(rng, model, 3)
    dense = fs.phi.toarray()
    assert fs.column_norm_bound == pytest.approx(np.abs(dense).sum(axis=0).max())


# ------------------------------------------------------------ drift columns

def test_drift_of_stationary_column_vanishes():
    rng = np.random.default_rng(26)
    model = random_mdp(rng, 5, 2)
    fs = stationary_features(rng, model, 3)
    np.testing.assert_allclose(fs.drift_rows(np.arange(model.num_states), 1.0), 0.0,
                               atol=1e-10)


def test_drift_single_state_discounted():
    model = single_state_mdp(num_actions=2)
    phi = np.array([[0.3], [0.4]])
    fs = FeatureSpace(model, sp.csr_matrix(phi))
    gamma = 0.8
    np.testing.assert_allclose(fs.drift_rows([0], gamma)[0],
                               (1.0 - gamma) * phi.sum(axis=0), atol=1e-14)


def test_drift_matches_dense_product():
    rng = np.random.default_rng(27)
    model = random_mdp(rng, 4, 3)
    fs = random_features(rng, model, 4)
    dense_p = model.transitions.toarray()
    dense_phi = fs.phi.toarray()
    for kappa in (1.0, 0.7):
        # dense oracle: (P - kappa B)^T Phi column by column
        b = np.zeros((model.num_pairs, model.num_states))
        for x in range(model.num_states):
            for a in range(model.num_actions):
                b[x * model.num_actions + a, x] = 1.0
        expected = (dense_p - kappa * b).T @ dense_phi
        np.testing.assert_allclose(fs.drift_rows(np.arange(model.num_states), kappa),
                                   expected, atol=1e-12)
        np.testing.assert_allclose(fs._operator((1.0, -kappa)).toarray(), expected, atol=1e-12)


def test_drift_memoization_returns_same_object():
    rng = np.random.default_rng(28)
    model = random_mdp(rng, 3, 2)
    fs = random_features(rng, model, 2)
    first = fs._operator((1.0, -1.0))
    assert fs._operator((1.0, -1.0)) is first
    assert Surrogate.average_cost(model, fs).state_operator is first


# --------------------------------------------------------- occupancy values

def test_occupancy_value_cases():
    rng = np.random.default_rng(29)
    model = random_mdp(rng, 3, 2)
    mu0 = rng.random(6)
    mu0 /= mu0.sum()
    fs = random_features(rng, model, 3, mu0=mu0)
    assert fs.occupancy_vector(np.zeros(3))[3] == pytest.approx(mu0[3])
    fs0 = random_features(rng, model, 3)
    e1 = np.array([0.0, 1.0, 0.0])
    assert fs0.occupancy_vector(e1)[4] == pytest.approx(fs0.phi.toarray()[4, 1])
    theta = rng.normal(size=3)
    np.testing.assert_allclose(fs.occupancy_vector(theta), mu0 + fs.phi.toarray() @ theta)


def test_occupancy_value_affine_in_theta():
    rng = np.random.default_rng(30)
    model = random_mdp(rng, 4, 2)
    mu0 = rng.random(8)
    mu0 /= mu0.sum()
    fs = random_features(rng, model, 3, mu0=mu0)
    t1, t2 = rng.normal(size=3), rng.normal(size=3)
    lhs = fs.occupancy_vector(t1 + t2)
    rhs = (fs.occupancy_vector(t1) + fs.occupancy_vector(t2)
           - fs.occupancy_vector(np.zeros(3)))
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)


# ---------------------------------------------------------------- sampling

def test_uniform_sampling_two_by_two():
    rng = np.random.default_rng(31)
    model = random_mdp(rng, 2, 2)
    fs = random_features(rng, model, 2)
    sample = make_uniform_sampling(model, fs, kappa=1.0)
    np.testing.assert_allclose(sample.pair_prob(np.arange(4)), 0.25)
    np.testing.assert_allclose(sample.state_prob(np.arange(2)), 0.5)


def test_uniform_sampling_constants_match_enumeration():
    rng = np.random.default_rng(32)
    model = random_mdp(rng, 4, 2)
    fs = random_features(rng, model, 3)
    for kappa in (1.0, 0.9):
        sample = make_uniform_sampling(model, fs, kappa)
        dense = fs.phi.toarray()
        row_norm_max = max(np.linalg.norm(dense[i]) for i in range(8))
        assert sample.c_pair == pytest.approx(row_norm_max * 8)
        # the state constant covers the drift rows and (for kappa < 1) the
        # feasibility rows, which are a genuinely different combination
        drift_norms = np.linalg.norm(fs.drift_rows(np.arange(4), kappa), axis=1)
        feas_norms = np.linalg.norm(fs.feasibility_rows(np.arange(4), kappa), axis=1)
        per_state = np.maximum(drift_norms, feas_norms if kappa != 1.0 else 0.0)
        assert sample.c_state == pytest.approx(per_state.max() * 4)
        # constants dominate every importance ratio of both operators
        for i in range(8):
            assert np.linalg.norm(dense[i]) / 0.125 <= sample.c_pair + 1e-12
        assert np.all(drift_norms / 0.25 <= sample.c_state + 1e-12)
        assert np.all(feas_norms / 0.25 <= sample.c_state + 1e-12)


def test_feasibility_matches_dense_product():
    rng = np.random.default_rng(38)
    model = random_mdp(rng, 4, 3)
    fs = random_features(rng, model, 4)
    dense_p = model.transitions.toarray()
    dense_phi = fs.phi.toarray()
    b = np.zeros((model.num_pairs, model.num_states))
    for x in range(model.num_states):
        for a in range(model.num_actions):
            b[x * model.num_actions + a, x] = 1.0
    for kappa in (1.0, 0.8):
        expected = (b - kappa * dense_p).T @ dense_phi
        np.testing.assert_allclose(fs._operator((-kappa, 1.0)).toarray(), expected, atol=1e-12)
        np.testing.assert_allclose(fs.feasibility_rows(np.arange(model.num_states), kappa),
                                   expected, atol=1e-12)
    # at kappa = 1 feasibility is exactly the negated drift
    np.testing.assert_allclose(fs._operator((-1.0, 1.0)).toarray(),
                               -fs._operator((1.0, -1.0)).toarray(), atol=1e-14)


def test_sampling_determinism():
    rng = np.random.default_rng(33)
    model = random_mdp(rng, 4, 2)
    fs = random_features(rng, model, 3)
    sample = make_uniform_sampling(model, fs, 1.0)
    a = sample.sample_pairs(np.random.default_rng(7), 20)
    b = sample.sample_pairs(np.random.default_rng(7), 20)
    np.testing.assert_array_equal(a, b)
    norm = make_norm_proportional_sampling(model, fs, 1.0)
    a = norm.sample_states(np.random.default_rng(9), 50)
    b = norm.sample_states(np.random.default_rng(9), 50)
    np.testing.assert_array_equal(a, b)


def test_norm_proportional_point_mass_and_uniform_cases():
    rng = np.random.default_rng(34)
    # single nonzero row -> point mass there (single state keeps drift covered)
    model1 = single_state_mdp(num_actions=2)
    phi = np.array([[0.7], [0.0]])
    fs = FeatureSpace(model1, sp.csr_matrix(phi))
    sample = make_norm_proportional_sampling(model1, fs, 1.0)
    np.testing.assert_allclose(sample.pair_probs, [1.0, 0.0])
    # all rows with equal norm -> uniform
    model = random_mdp(rng, 2, 2)
    phi_eq = np.full((4, 1), 0.25)
    fs_eq = FeatureSpace(model, sp.csr_matrix(phi_eq))
    sample_eq = make_norm_proportional_sampling(model, fs_eq, 1.0)
    np.testing.assert_allclose(sample_eq.pair_probs, 0.25)


def test_norm_proportional_rejects_uncovered_drift():
    rng = np.random.default_rng(37)
    model = random_mdp(rng, 2, 2)
    # one nonzero row: inflow reaches states whose action-marginal is zero
    phi = np.zeros((4, 1))
    phi[2, 0] = 0.7
    fs = FeatureSpace(model, sp.csr_matrix(phi))
    with pytest.raises(ParameterError):
        make_norm_proportional_sampling(model, fs, 1.0)


def test_norm_proportional_probabilities_and_constants():
    rng = np.random.default_rng(35)
    model = random_mdp(rng, 4, 2)
    fs = random_features(rng, model, 3)
    sample = make_norm_proportional_sampling(model, fs, 1.0)
    assert sample.pair_probs.sum() == pytest.approx(1.0)
    assert sample.state_probs.sum() == pytest.approx(1.0)
    dense = fs.phi.toarray()
    norms = np.linalg.norm(dense, axis=1)
    np.testing.assert_allclose(sample.pair_probs, norms / norms.sum(), atol=1e-12)
    # c_pair equals the normalizer; every ratio on the support matches it
    for i in range(8):
        if sample.pair_probs[i] > 0:
            assert norms[i] / sample.pair_probs[i] == pytest.approx(sample.c_pair)
    drift_norms = np.linalg.norm(fs.drift_rows(np.arange(4), 1.0), axis=1)
    for x in range(4):
        if sample.state_probs[x] > 0:
            ratio = drift_norms[x] / sample.state_probs[x]
            assert ratio <= sample.c_state + 1e-9


def test_samplers_build_above_a_million_pairs():
    """A ring of X = 500,001 states where action a moves x to x + 1 + a mod X,
    so N = 1,000,002 pairs, with normalized Phi = [ones, indicator of the K
    pairs i = 0 mod 3]. Since 2X = 0 mod 3, a state x' with 2x' = 1 mod 3 has no
    indicator pair among its two inflow and two own pairs, and every other
    state has one of each. At kappa the drift and feasibility rows are then
    ((2 - 2 kappa) / N, (1 - kappa) / K) or ((2 - 2 kappa) / N, 0), and the
    marginal rows (2 / N, 1 / K) or (2 / N, 0)."""
    num_states, num_actions = 500_001, 2
    n = num_states * num_actions
    pairs = np.arange(n)
    nxt = (pairs // 2 + 1 + pairs % 2) % num_states
    model = MdpModel.create(num_states, num_actions,
                            sp.csr_matrix((np.ones(n), (pairs, nxt)), shape=(n, num_states)),
                            np.zeros(n))
    k = n // 3
    phi = sp.csr_matrix(np.column_stack([np.ones(n), pairs % 3 == 0]))
    fs = FeatureSpace(model, phi, normalize=True)
    third = num_states // 3  # states in each class of 2x' mod 3
    for kappa in (1.0, 0.9):
        uniform = make_uniform_sampling(model, fs, kappa)
        assert uniform.c_pair == pytest.approx(n * np.hypot(1 / n, 1 / k), rel=1e-12)
        drift = np.hypot((2 - 2 * kappa) / n, (1 - kappa) / k)
        assert uniform.c_state == pytest.approx(num_states * drift, rel=1e-9, abs=1e-15)
        norm = make_norm_proportional_sampling(model, fs, kappa)
        assert norm.c_pair == pytest.approx(k * np.hypot(1 / n, 1 / k) + (n - k) / n, rel=1e-12)
        z_state = third * (2 * np.hypot(2 / n, 1 / k) + 2 / n)
        # every ratio of drift to marginal norm is 1 - kappa
        assert norm.c_state == pytest.approx((1 - kappa) * z_state, rel=1e-9, abs=1e-15)
        assert norm.pair_probs.shape == (n,) and norm.state_probs.shape == (num_states,)
        assert norm.state_probs.min() > 0


# sha256 of the desk operators and sampler tables, and of the discounted
# visits on the 4-state fixture; the operators come from the forward kernel
DESK_OPERATOR_SHA256 = {
    "drift(1.0)": "7374c5349f2cb7511152133c4856f6aec2ec9171be230b5c61400c6f162d9910",
    "feasibility(0.9)": "3c6e13ef0125e39625f27ee84fff8d2687b9370eec52dd81344b83bc1965dedd",
    "drift_norms(0.9)": "852f3160c22a890ca47c888bbb0c8973cea817724e8a17dd721cbe842363f633",
    "pair_probs": "77de6e61c27565f1fbbee314a1aee4d50dc294e596fc775710ceaec71f2b6ce2",
    "state_probs": "196a5e541fa655b531dd82567b80b6b20df79dd85d3fbf80fef9b12970fa2c4b",
    "visits": "177f0b8df2a9f4bb509384671790ffc5b3ce83865d8c6bbc4bab42962cc41f21",
}
# kappa -> (uniform c_pair, uniform c_state, norm-proportional c_pair, c_state)
DESK_COVERAGE = {1.0: (370.1173956561915, 65.16951024309391,
                       149.81404028088033, 49.243133204835026),
                 0.9: (370.1173956561915, 72.85163725279521,
                       149.81404028088033, 48.06983429719558)}


def _sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array, dtype="<f8").tobytes()).hexdigest()


def test_desk_operators_samplers_and_visits_pinned(desk_space):
    model, fs = desk_space
    got = {"drift(1.0)": _sha256(fs._operator((1.0, -1.0)).toarray()),
           "feasibility(0.9)": _sha256(fs._operator((-0.9, 1.0)).toarray()),
           "drift_norms(0.9)": _sha256(features._drift_norms(fs, 0.9))}
    for kappa, coverage in DESK_COVERAGE.items():
        uniform = make_uniform_sampling(model, fs, kappa)
        norm = make_norm_proportional_sampling(model, fs, kappa)
        assert (uniform.c_pair, uniform.c_state, norm.c_pair, norm.c_state) == coverage
        assert uniform.pair_probs is None and uniform.state_probs is None
        got.update(pair_probs=_sha256(norm.pair_probs), state_probs=_sha256(norm.state_probs))
    small = load_mdp_fixture(DATA / "mdp4.json")
    uniform_policy = Policy(np.full((small.num_states, small.num_actions), 0.5))
    got["visits"] = _sha256(discounted_visits(small, uniform_policy, 0.9))
    assert got == DESK_OPERATOR_SHA256


# ------------------------------------------------------------ CSR row slices

def test_csr_gather_branch_matches_dense_bit_for_bit():
    rng = np.random.default_rng(39)
    model = random_mdp(rng, 6, 3)
    fs = random_features(rng, model, 4)
    pairs = rng.integers(0, model.num_pairs, size=25)
    states = rng.integers(0, model.num_states, size=25)
    theta, weights = rng.standard_normal(fs.dim), rng.standard_normal(25)
    np.testing.assert_array_equal(fs.rows(pairs), fs.phi.toarray()[pairs])
    for kappa in (1.0, 0.7):
        for rows, coefs in ((fs.drift_rows, (1.0, -kappa)), (fs.feasibility_rows, (-kappa, 1.0))):
            dense = fs._operator(coefs).toarray()
            np.testing.assert_array_equal(rows(states, kappa), dense[states])
            for x in range(model.num_states):
                np.testing.assert_array_equal(rows([x], kappa), dense[[x]])
            block = fs._operator(coefs)[states]
            np.testing.assert_allclose(block @ theta, dense[states] @ theta, rtol=1e-15)
            np.testing.assert_allclose(weights @ block, weights @ dense[states], rtol=1e-15)


# sha256 of the single-draw average-cost and discounted SGD iterates, which
# the row gathers leave bit for bit as they were with dense operator copies
SINGLE_DRAW_THETA_SHA256 = (
    "a5c08f9ac71ff0524bc8dec8e0aa9c00360788ac578cc6dc1737acf79f6dcda0",
    "a0937ec420280f4fcd03bfe4f8bbf11ac72191ef1da3c4bf9aac0f86b55d9431")


def test_csr_gather_branch_gives_identical_sgd_runs():
    rng = np.random.default_rng(40)
    model = random_mdp(rng, 5, 2)
    fs = random_features(rng, model, 3, normalize=True)
    avg = sgd_solve_avg(model, fs, make_uniform_sampling(model, fs, 1.0),
                        AvgSolverConfig(penalty=2.0, radius=1.5, iterations=300, seed=3))
    disc = sgd_solve_disc(model, fs, make_uniform_sampling(model, fs, 0.8),
                          DiscSolverConfig(discount=0.8, penalty=2.0, radius=1.5,
                                           iterations=1200, seed=4))
    assert (_sha256(avg.theta), _sha256(disc.theta)) == SINGLE_DRAW_THETA_SHA256


# ------------------------------------------------------- CSR rows per refill

def _ring_steps(matrix, idx):
    """The per-step views of the rows at a 2-D index array (steps, m), read
    from one gather of them all as a minibatch refill's ring is read."""
    return features._step_views(*features._row_gather(matrix, idx.ravel()), idx.shape[1],
                                matrix.shape[1], idx.size)


def _assert_steps_match_public(matrix, idx, seed):
    """Each step of ``_ring_steps(matrix, idx)`` gives the bits of scipy's
    public ``matrix[idx[i]] @ theta`` and ``weights @ matrix[idx[i]]``."""
    rng = np.random.default_rng(seed)
    steps = _ring_steps(matrix, idx)
    assert len(steps) == len(idx)
    for i, rows in enumerate(steps):
        public = matrix[idx[i]]
        theta = rng.standard_normal(matrix.shape[1])
        weights = rng.standard_normal(idx.shape[1])
        for got, expected in ((rows @ theta, public @ theta), (weights @ rows, weights @ public)):
            assert got.dtype == expected.dtype and got.shape == expected.shape, i
            assert got.tobytes() == expected.tobytes(), i


def test_csr_steps_match_public_products(desk_space):
    model, fs = desk_space
    rng = np.random.default_rng(45)
    # the desk drift rows of one m = 1000 refill
    states = rng.integers(0, model.num_states, size=(16, 1000))
    _assert_steps_match_public(fs._operator((1.0, -1.0)), states, 46)
    # random feasibility rows at gamma = 0.9, at m = 25 and at m = 1
    model = random_mdp(rng, 40, 3)
    feasibility = random_features(rng, model, 12, density=0.3)._operator((-0.9, 1.0))
    _assert_steps_match_public(feasibility, rng.integers(0, 40, size=(7, 25)), 47)
    _assert_steps_match_public(feasibility, rng.integers(0, 40, size=(9, 1)), 48)
    # the kernels convert a strided or integer vector as the public products do
    idx = rng.integers(0, 40, size=(2, 25))
    rows, public = _ring_steps(feasibility, idx)[1], feasibility[idx[1]]
    strided = rng.standard_normal(24)[::2]
    assert (rows @ strided).tobytes() == (public @ strided).tobytes()
    assert (np.arange(25) @ rows).tobytes() == (np.arange(25) @ public).tobytes()


def test_csr_steps_empty_and_short_rows():
    # rows 0 and 2 are empty, and no row reaches the last column
    matrix = sp.csr_matrix(np.array([[0.0, 0.0, 0.0, 0.0], [1.5, 0.0, -2.0, 0.0],
                                     [0.0, 0.0, 0.0, 0.0], [0.0, 3.0, 0.5, 0.0],
                                     [0.25, 0.0, 0.0, 0.0]]))
    # the block's first, middle and last rows are empty, and so is all of step 1
    idx = np.array([[0, 1, 3], [2, 0, 2], [4, 3, 0]])
    _assert_steps_match_public(matrix, idx, 49)
    rows = _ring_steps(matrix, idx)
    np.testing.assert_array_equal(rows[1] @ np.ones(4), np.zeros(3))
    weighted = np.ones(3) @ rows[0]
    assert weighted.shape == (4,)
    np.testing.assert_array_equal(weighted, [1.5, 3.0, -1.5, 0.0])


def _assert_gather_matches_public(matrix, idx):
    """``_row_gather`` gives the arrays of scipy's ``matrix[idx]``, dtypes
    included, and ``_dense_rows`` the bits of its ``toarray()``."""
    public = matrix[idx]
    for got, expected in zip(features._row_gather(matrix, idx),
                             (public.indptr, public.indices, public.data)):
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)
    dense = features._dense_rows(matrix, idx)
    assert dense.tobytes() == public.toarray().tobytes() and dense.shape == public.shape


def test_row_gather_matches_public_slice(desk_space):
    model, fs = desk_space
    rng = np.random.default_rng(50)
    drift = fs._operator((1.0, -1.0))
    feasibility = random_features(rng, random_mdp(rng, 40, 3), 12,
                                  density=0.3)._operator((-0.9, 1.0))
    # rows 0 and 2 are empty
    small = sp.csr_matrix(np.array([[0.0, 0.0, 0.0], [1.5, 0.0, -2.0], [0.0, 0.0, 0.0],
                                    [0.0, 3.0, 0.5]]))
    cases = [(fs.phi, rng.integers(0, model.num_pairs, size=16_000)),
             (drift, rng.integers(0, model.num_states, size=16_000)),
             (fs.phi, rng.integers(0, model.num_pairs, size=1)),
             (drift, np.array([model.num_states - 1])),
             (feasibility, rng.integers(0, 40, size=25)),
             (small, np.array([0, 2, 2, 1, 0, 3, 3, 2])),
             (small, np.array([2]))]
    for matrix, idx in cases:
        for dtype in (np.int32, np.int64):
            _assert_gather_matches_public(matrix, idx.astype(dtype))
    # a matrix with 64-bit index arrays is gathered in them (scipy's slice narrows them)
    wide = small.copy()
    wide.indptr, wide.indices = wide.indptr.astype(np.int64), wide.indices.astype(np.int64)
    idx = np.array([3, 0, 1], dtype=np.int32)
    assert features._row_gather(wide, idx)[1].dtype == np.int64
    assert features._dense_rows(wide, idx).tobytes() == small[idx].toarray().tobytes()
    pairs = rng.integers(0, model.num_pairs, size=512)
    assert fs.rows(pairs).tobytes() == fs.phi[pairs].toarray().tobytes()
    assert fs.rows(list(pairs[:3])).tobytes() == fs.phi[pairs[:3]].toarray().tobytes()


@pytest.mark.parametrize("idx", [[-1], [4], [0, 4], np.array([0.0]), np.array([True]),
                                 np.array([[0]])],
                         ids=["negative", "past-the-end", "one-past", "float", "bool", "2-d"])
def test_row_gather_refuses_indices_outside_the_rows(idx):
    # the kernel reads whatever the offsets point at, so every index is checked first
    matrix = sp.csr_matrix(np.arange(12.0).reshape(4, 3))
    with pytest.raises(InputShapeError, match=r"\[0, 4\)"):
        features._row_gather(matrix, idx)


def test_csr_rows_reject_vectors_of_the_wrong_shape():
    # the compiled kernels check no bounds, so a short vector would be read past its end
    matrix = sp.csr_matrix(np.arange(12.0).reshape(3, 4))
    rows = _ring_steps(matrix, np.array([[0, 2, 1]]))[0]
    for theta in (np.zeros(3), np.zeros(5), np.zeros((4, 1))):
        with pytest.raises(InputShapeError, match="theta"):
            rows @ theta
    for weights in (np.zeros(2), np.zeros(4), np.zeros((3, 1))):
        with pytest.raises(InputShapeError, match="weights"):
            weights @ rows


# ------------------------------------------------------ guide-table sampler

class _FixedUniforms:
    """Stands in for a generator whose next ``random`` call returns ``u``."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size):
        assert size == len(self.u)
        return self.u


@pytest.fixture(scope="module")
def desk_space():
    model = build_mdp(DESK_SPEC)
    fs, _ = build_features(DESK_SPEC, model=model)
    return model, fs


def _pair_tables(probs):
    """The cumulative and guide tables a sampler builds for ``probs``."""
    sample = features.SamplingPair(num_pairs=len(probs), num_states=1, c_pair=1.0,
                                   c_state=1.0, pair_probs=np.asarray(probs))
    return sample._cum_pair_probs, sample._guide_pair_probs


def _check_guide_search(cum, guide, rng, draws):
    """``_sample`` against ``searchsorted`` at every cumulative value and its
    next-lower double, 0.0, the largest double below 1 and ``draws`` random
    uniforms (values >= 1, which rng.random cannot return, are left out)."""
    u = np.concatenate([cum, np.nextafter(cum, 0.0), [0.0, np.nextafter(1.0, 0.0)],
                        rng.random(draws)])
    u = u[u < 1.0]
    expected = np.searchsorted(cum, u, side="right")
    # the bucket start is a lower bound of the answer
    buckets = np.minimum((u * float(len(guide))).astype(np.intp), len(guide) - 1)
    assert np.all(guide[buckets] <= expected)
    got = features._sample(cum, guide, len(cum), _FixedUniforms(u), len(u))
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("side", ["pair_probs", "state_probs"])
@pytest.mark.parametrize("probs, error", [
    ([0.25, 0.25, 0.25, 0.25], InputShapeError),  # four entries for five points
    ([0.1, 0.1, 0.1, 0.2, 0.0], ParameterError),  # sums to 0.5
    ([0.5, 0.5, 0.2, -0.2, 0.0], ParameterError),
    ([0.5, 0.5, np.nan, 0.0, 0.0], ParameterError),
    ([0.5, 0.5, np.inf, 0.0, 0.0], ParameterError),
    ([0.5, 0.5, np.inf, -np.inf, 0.0], ParameterError),
    ([0.2] * 5 + [0.0], InputShapeError),
], ids=["short", "half-mass", "negative", "nan", "inf", "inf-minus-inf", "long"])
def test_sampling_tables_must_be_distributions_of_the_right_length(side, probs, error):
    with pytest.raises(error):
        features.SamplingPair(num_pairs=5, num_states=5, c_pair=1.0, c_state=1.0,
                              **{side: probs})


@pytest.mark.parametrize("name", ["c_pair", "c_state"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -5.0], ids=["nan", "inf", "negative"])
def test_coverage_constants_must_be_finite_and_nonnegative(name, value):
    # a NaN constant used to fail later as a ConvergenceError, and -5 ran with a rate built from it
    constants = {"c_pair": 1.0, "c_state": 1.0, name: value}
    with pytest.raises(ParameterError, match=f"{name} must be finite and >= 0"):
        features.SamplingPair(num_pairs=5, num_states=5, **constants)
    features.SamplingPair(num_pairs=5, num_states=5, **{**constants, name: 0.0})


def test_sampling_tables_stored_as_float_arrays():
    sample = features.SamplingPair(num_pairs=4, num_states=2, c_pair=1.0, c_state=1.0,
                                   pair_probs=[0, 1, 0, 0], state_probs=(0.5, 0.5))
    for table in (sample.pair_probs, sample.state_probs):
        assert isinstance(table, np.ndarray) and table.dtype == float
    np.testing.assert_array_equal(sample.pair_prob(np.array([1, 3])), [1.0, 0.0])
    assert np.all(sample.sample_pairs(np.random.default_rng(0), 100) == 1)


@pytest.mark.parametrize("size", [1, 2, 6, 4900, 19600])
def test_guide_sampler_matches_searchsorted_random_distributions(size):
    rng = np.random.default_rng(size)
    probs = rng.dirichlet(np.full(size, 0.5)) if size > 1 else np.ones(1)
    _check_guide_search(*_pair_tables(probs), rng, 1000)


def _planted_norm_probs():
    """Norm-proportional pair probabilities of a narrow random space with
    zeros planted first, in the middle and last, and the mass 5e-10 short of
    1: the last entry's cum is forced from 1 - 5e-10 to 1.0, so the last
    entry, of probability zero, is drawn by the uniforms in [1 - 5e-10, 1)."""
    model, fs = narrow_random_space(np.random.default_rng(44))
    probs = make_norm_proportional_sampling(model, fs, 1.0).pair_probs.copy()
    probs[[0, len(probs) // 2, -1]] = 0.0
    return probs * ((1.0 - 5e-10) / probs.sum())


@pytest.mark.parametrize("probs", [
    [0.0, 0.0, 0.5, 0.5],  # leading zeros
    [0.3, 0.0, 0.0, 0.2, 0.0, 0.5],  # interior zeros
    [0.25, 0.75, 0.0, 0.0],  # trailing zeros
    [0.0, 0.4, 0.0, 0.6, 0.0],  # all three
    # one entry holds almost all mass: the other 99 share a bucket, and
    # draws there walk past _WALK_STEPS and finish by bisection
    [1.0 - 1e-9] + [1e-9 / 99] * 99,
    [1e-9 / 99] * 50 + [1.0 - 1e-9] + [1e-9 / 99] * 49,
    [0.1] * 10,  # sums to 1 - 1.1e-16 in floating point
    _planted_norm_probs(),  # a last entry of probability 0 that is still drawn
], ids=["leading", "interior", "trailing", "mixed", "heavy-first", "heavy-middle",
        "rounded-sum", "planted"])
def test_guide_sampler_matches_searchsorted_edge_distributions(probs):
    _check_guide_search(*_pair_tables(probs), np.random.default_rng(len(probs)), 1000)


@pytest.mark.parametrize("cum", [
    [0.33333333333333337, 0.6666666666666667, 1.0],
    [0.16666666666666669, 0.33333333333333337, 0.5, 0.6666666666666667,
     0.8333333333333334, 1.0],
], ids=["thirds", "sixths"])
def test_guide_start_survives_rounding_collisions(cum):
    """Each inner entry c has fl(c * K) == j exactly, and so has the double
    just below c: a bucket start that counted c would pass that draw's answer."""
    cum = np.asarray(cum)
    _check_guide_search(cum, features._guide_table(cum), np.random.default_rng(0), 1000)


def test_guide_sampler_matches_searchsorted_desk(desk_space):
    model, fs = desk_space
    sample = make_norm_proportional_sampling(model, fs, 1.0)
    rng = np.random.default_rng(12)
    for probs in (sample.pair_probs, sample.state_probs):
        _check_guide_search(*_pair_tables(probs), rng, 10**6)


def test_desk_draw_stream_pinned(desk_space):
    """The desk norm-proportional draws are those of the searchsorted sampler."""
    model, fs = desk_space
    sample = make_norm_proportional_sampling(model, fs, 1.0)
    rng = np.random.default_rng(11)
    pairs = sample.sample_pairs(rng, 10000)
    states = sample.sample_states(rng, 10000)
    assert pairs.dtype == states.dtype == np.int64
    assert hashlib.sha256(pairs.astype("<i8").tobytes()).hexdigest() == (
        "b46194fe3c4f604582052e0cb7fe353e9c496523af16b427850fb538496eccbd")
    assert hashlib.sha256(states.astype("<i8").tobytes()).hexdigest() == (
        "39399072a2476eb25c1033bf80e19ffc3e86a7be2850d0721baeec3c5456ea65")


# ------------------------------------------------------------- narrow rows

def test_narrow_rows_match_dense_rows_random():
    """On rows with 1-6 nonzeros of 48 columns, the estimates on CSR views
    equal, to rounding, the same estimates on dense rows."""
    model, fs = narrow_random_space(np.random.default_rng(42))
    sample = make_uniform_sampling(model, fs, 0.9)
    rng = np.random.default_rng(43)
    theta = rng.standard_normal(fs.dim) * 0.3
    pair_idx = sample.sample_pairs(rng, 500)
    state_idx = sample.sample_states(rng, 500)
    # the discounted surrogate takes no mu0, so it gets the features without it
    for surrogate in (Surrogate.average_cost(model, fs),
                      Surrogate.discounted(model, FeatureSpace(model, fs.phi), 0.9, None)):
        q_pair, occ, q_state, res = surrogate.draw_terms(sample, pair_idx, state_idx)
        rows = surrogate.fs.rows(pair_idx)
        state_rows = features._dense_rows(surrogate.state_operator, state_idx)
        dense = (surrogate.weighted_subgradient(2.0, theta, rows, occ, 1.0 / q_pair,
                                                state_rows, res, q_state),
                 np.abs(np.minimum(occ + rows @ theta, 0.0)) / q_pair
                 + np.abs(state_rows @ theta + res) / q_state)
        csr = (surrogate.subgradient_estimate(sample, 2.0, theta, pair_idx=pair_idx,
                                              state_idx=state_idx),
               surrogate.violation_summands(sample, theta, pair_idx, state_idx))
        for a, b in zip(csr, dense):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())
    pairs = np.array([0, 5, 5, 89])
    block = _ring_steps(fs.phi, pairs[None])[0]
    np.testing.assert_array_equal(block @ np.eye(fs.dim)[3], fs.rows(pairs)[:, 3])
    # a weighted sum is a full d-vector even when no row reaches the last column
    short = np.flatnonzero(fs.phi[:, fs.dim - 1].toarray().ravel() == 0)[:3]
    np.testing.assert_array_equal(np.ones(3) @ _ring_steps(fs.phi, short[None])[0],
                                  fs.rows(short).sum(axis=0))


def test_support_guard_fires_before_narrow_gather(monkeypatch):
    rng = np.random.default_rng(44)
    model, fs = narrow_random_space(rng)
    probs = np.full(model.num_pairs, 1.0 / (model.num_pairs - 1))
    probs[7] = 0.0
    sample = features.SamplingPair(num_pairs=model.num_pairs, num_states=model.num_states,
                                   c_pair=1.0, c_state=1.0, pair_probs=probs)

    def no_gather(*args):
        pytest.fail("rows were gathered for a zero-probability draw")

    monkeypatch.setattr(_sgd, "_row_gather", no_gather)
    surrogate = Surrogate.average_cost(model, fs)
    pairs, states = np.array([3, 7, 9]), np.array([0, 1, 2])
    with pytest.raises(SamplingSupportError):
        surrogate.subgradient_estimate(sample, 2.0, np.zeros(fs.dim), pair_idx=pairs,
                                       state_idx=states)
    with pytest.raises(SamplingSupportError):
        surrogate.violation_summands(sample, np.zeros(fs.dim), pairs, states)
    # the sampler never draws pair 7, so the estimator is handed these draws
    monkeypatch.setattr(features.SamplingPair, "sample_pairs", lambda self, rng, m: pairs[:m])
    monkeypatch.setattr(features.SamplingPair, "sample_states", lambda self, rng, m: states[:m])
    with pytest.raises(SamplingSupportError):
        surrogate.estimate_violations(sample, np.zeros(fs.dim), 3, np.random.default_rng(0))

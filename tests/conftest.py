import os

import numpy as np
import pytest
import scipy
import scipy.sparse as sp

from dualalp.features import FeatureSpace
from dualalp.mdp import MdpModel, Policy


def pytest_report_header(config):
    """The versions and BLAS thread count that outputs and timings depend on."""
    return (f"numpy {np.__version__}, scipy {scipy.__version__}, "
            f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")


def random_mdp(rng, num_states, num_actions, sharpness=1.0):
    """Dense random MDP: Dirichlet transition rows, uniform losses in [0, 1]."""
    kernel = rng.dirichlet(np.full(num_states, sharpness),
                           size=(num_states, num_actions))
    loss = rng.random((num_states, num_actions))
    return MdpModel.from_dense(kernel, loss)


def random_policy(rng, num_states, num_actions):
    return Policy(rng.dirichlet(np.ones(num_actions), size=num_states))


def random_features(rng, model, dim, density=0.5, signed=True, normalize=False,
                    mu0=None):
    """Random sparse feature matrix; signed entries unless disabled."""
    mask = rng.random((model.num_pairs, dim)) < density
    vals = rng.random((model.num_pairs, dim)) + 0.05
    if signed:
        vals *= rng.choice([-1.0, 1.0], size=vals.shape)
    phi = sp.csr_matrix(np.where(mask, vals, 0.0))
    # keep every column nonempty so normalization is well defined
    for j in range(dim):
        if phi[:, j].nnz == 0:
            phi[rng.integers(model.num_pairs), j] = 1.0
    return FeatureSpace(model, sp.csr_matrix(phi), mu0=mu0, normalize=normalize)


def record_projections(monkeypatch, module):
    """Record every point the solver's projection returns, theta_2 ..
    theta_{T+1} of a T-iteration run (theta_1 = 0 is never projected); the
    solver looks ``project_theta_avg`` up in ``module`` at each call."""
    seen = []
    project = module.project_theta_avg

    def recording(*args):
        seen.append(project(*args).copy())
        return seen[-1]

    monkeypatch.setattr(module, "project_theta_avg", recording)
    return seen


def narrow_random_space(rng, num_states=30, num_actions=3, dim=48):
    """Random MDP with sparse features of 1-6 nonzeros per row at d = 48."""
    model = random_mdp(rng, num_states, num_actions)
    phi = np.zeros((model.num_pairs, dim))
    for i in range(model.num_pairs):
        cols = rng.choice(dim, size=rng.integers(1, 7), replace=False)
        phi[i, cols] = rng.standard_normal(len(cols))
    return model, FeatureSpace(model, sp.csr_matrix(phi), mu0=rng.random(model.num_pairs) * 0.1)


def stationary_features(rng, model, dim, tol=1e-12):
    """Columns are exact stationary state-action distributions of random policies."""
    from dualalp.mdp import stationary_state_action
    cols = []
    for _ in range(dim):
        pi = random_policy(rng, model.num_states, model.num_actions)
        cols.append(stationary_state_action(model, pi, tol=tol))
    return FeatureSpace(model, sp.csr_matrix(np.column_stack(cols)))


@pytest.fixture
def desk_fixture():
    """The standard 4-state, 2-action, d=3 fixture used across solver tests."""
    rng = np.random.default_rng(71)
    model = random_mdp(rng, 4, 2)
    fs = random_features(rng, model, 3, density=0.7, signed=True, normalize=True)
    return model, fs

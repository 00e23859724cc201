"""Sparse tabular MDP representation and exact evaluation oracles.

State-action pairs are flattened x-major: pair index ``i = x * num_actions + a``.
Vectors over pairs (occupancies, losses) are plain 1-D numpy arrays of length
``num_states * num_actions``; vectors over states have length ``num_states``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import CapacityError, ConvergenceError, InputShapeError, ParameterError

DENSE_GUARD = 10**6  # largest num_states * num_actions for exact dense-style solves

PROB_ATOL = 1e-12  # row-stochasticity tolerance

_BICGSTAB_ITERS_PER_STATE = 2  # iteration cap of the stationary start, per state


def _aggregation_matrix(num_states: int, num_actions: int) -> sp.csr_matrix:
    """(X, X*A) 0/1 matrix summing a pair vector over actions (the transpose
    of the marginalization operator)."""
    cols = np.arange(num_states * num_actions)
    rows = np.repeat(np.arange(num_states), num_actions)
    data = np.ones(num_states * num_actions)
    return sp.csr_matrix((data, (rows, cols)), shape=(num_states, num_states * num_actions))


@dataclass(frozen=True)
class MdpModel:
    """Finite MDP with a sparse forward kernel and its exact transpose.

    Attributes
    ----------
    num_states, num_actions : int
    transitions : (X*A, X) csr matrix; row (x,a) is the next-state distribution.
    reverse_transitions : (X, X*A) csr matrix; exact transpose of ``transitions``.
    loss : (X*A,) array with entries in [0, 1].
    """

    num_states: int
    num_actions: int
    transitions: sp.csr_matrix
    reverse_transitions: sp.csr_matrix
    loss: np.ndarray

    @property
    def num_pairs(self) -> int:
        return self.num_states * self.num_actions

    @staticmethod
    def create(num_states: int, num_actions: int, transitions, loss,
               validate: bool = True, check_loss_range: bool = True) -> "MdpModel":
        """Build a model; ``transitions`` may be any scipy-sparse/dense (X*A, X)
        matrix. The reverse kernel is derived, so transpose-consistency holds by
        construction. ``check_loss_range=False`` admits losses outside [0, 1]
        (raw-loss evaluation models; the solvers assume the unit range)."""
        n_pairs = num_states * num_actions
        trans = sp.csr_matrix(transitions, shape=(n_pairs, num_states), dtype=float)
        trans.eliminate_zeros()
        trans.sort_indices()
        loss = np.asarray(loss, dtype=float)
        if loss.shape != (n_pairs,):
            raise InputShapeError(f"loss must have length {n_pairs}, got shape {loss.shape}")
        if validate:
            row_sums = np.asarray(trans.sum(axis=1)).ravel()
            bad = np.abs(row_sums - 1.0) > PROB_ATOL
            if bad.any():
                i = int(np.flatnonzero(bad)[0])
                raise ParameterError(
                    f"transition row {i} sums to {row_sums[i]!r}, expected 1")
            if trans.nnz and trans.data.min() < 0:
                raise ParameterError("transition probabilities must be nonnegative")
            if check_loss_range and loss.size and (loss.min() < 0 or loss.max() > 1):
                raise ParameterError("loss entries must lie in [0, 1]")
        rev = trans.T.tocsr()
        rev.sort_indices()
        return MdpModel(num_states, num_actions, trans, rev, loss)

    @staticmethod
    def from_records(num_states: int, num_actions: int, records, loss,
                     validate: bool = True) -> "MdpModel":
        """Build from an iterable of (x, a, next_state, prob) tuples."""
        rows, cols, data = [], [], []
        for x, a, nxt, p in records:
            rows.append(x * num_actions + a)
            cols.append(nxt)
            data.append(p)
        trans = sp.coo_matrix((data, (rows, cols)),
                              shape=(num_states * num_actions, num_states))
        return MdpModel.create(num_states, num_actions, trans, loss, validate=validate)

    @staticmethod
    def from_dense(kernel: np.ndarray, loss: np.ndarray, validate: bool = True) -> "MdpModel":
        """Build from a dense (X, A, X) kernel and (X, A) loss."""
        num_states, num_actions, _ = kernel.shape
        return MdpModel.create(num_states, num_actions,
                               kernel.reshape(num_states * num_actions, num_states),
                               np.asarray(loss, dtype=float).reshape(-1),
                               validate=validate)

    def pair_index(self, x: int, a: int) -> int:
        return x * self.num_actions + a


@dataclass(frozen=True)
class Policy:
    """Row-stochastic (X, A) action distribution per state."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 2:
            raise InputShapeError("policy probabilities must be a 2-D (states, actions) array")
        row_sums = probs.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > PROB_ATOL) or (probs.size and probs.min() < 0):
            raise ParameterError("policy rows must be nonnegative and sum to 1")
        object.__setattr__(self, "probs", probs)

    @property
    def num_states(self) -> int:
        return self.probs.shape[0]

    @property
    def num_actions(self) -> int:
        return self.probs.shape[1]

    def flat(self) -> np.ndarray:
        """Pair-indexed view pi(a|x) of length X*A."""
        return self.probs.reshape(-1)


def policy_from_occupancy(u: np.ndarray, num_actions: int | None = None) -> Policy:
    """Conditional policy of a (possibly signed) state-action vector.

    Negative entries are clipped to zero before row-normalizing; a row whose
    positive part vanishes entirely falls back to the uniform distribution.
    Accepts either an (X, A) array or a flat pair vector plus ``num_actions``.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        if num_actions is None:
            raise InputShapeError("flat occupancy vectors need num_actions")
        if u.size % num_actions != 0:
            raise InputShapeError(
                f"occupancy length {u.size} is not a multiple of num_actions={num_actions}")
        u = u.reshape(-1, num_actions)
    elif num_actions is not None and u.shape[1] != num_actions:
        raise InputShapeError(f"occupancy has {u.shape[1]} action columns, expected {num_actions}")
    pos = np.maximum(u, 0.0)
    totals = pos.sum(axis=1, keepdims=True)
    empty = (totals <= 0.0).ravel()
    probs = np.empty_like(pos)
    np.divide(pos, totals, out=probs, where=totals > 0)
    probs[empty] = 1.0 / u.shape[1]
    return Policy(probs)


def induced_chain(model: MdpModel, pi: Policy) -> sp.csr_matrix:
    """State-to-state kernel of following ``pi``: entry (x, x') = sum_a P(x'|x,a) pi(a|x)."""
    if pi.probs.shape != (model.num_states, model.num_actions):
        raise InputShapeError("policy shape does not match the model")
    weighted = sp.diags(pi.flat()) @ model.transitions
    agg = _aggregation_matrix(model.num_states, model.num_actions)
    chain = (agg @ weighted).tocsr()
    chain.sort_indices()
    return chain


def _bicgstab_start(chain_t: sp.csr_matrix, tol: float) -> np.ndarray:
    """Starting point of the stationary solve: unpreconditioned BiCGSTAB
    (van der Vorst 1992) on (I - P^T) mu = 0 with one anchor state's mass fixed
    to 1.

    The anchor is the argmax of P^T applied to the uniform vector. Its row and
    column are dropped by holding its coordinate at 0, so the right-hand side is
    the anchor's column of P^T without the anchor row. The iterate is clipped at
    0 and normalized; breakdown or a non-finite result gives the uniform vector.
    """
    n = chain_t.shape[0]
    uniform = np.full(n, 1.0 / n)
    anchor = int(np.argmax(chain_t @ uniform))

    def apply(v):
        out = v - chain_t @ v
        out[anchor] = 0.0
        return out

    r = chain_t[:, [anchor]].toarray().ravel()
    r[anchor] = 0.0
    r_hat = r.copy()
    x, p, v = np.zeros(n), np.zeros(n), np.zeros(n)
    rho = alpha = omega = 1.0
    # the stationary residual of the normalized result is at most
    # 2 * ||r||_1 / (1 + sum x), so this stop leaves a margin below tol
    stop = max(1e-3 * tol, 8 * np.finfo(float).eps)
    for _ in range(_BICGSTAB_ITERS_PER_STATE * n):
        if np.abs(r).sum() <= stop * (1.0 + np.abs(x).sum()):
            break
        rho_next = float(r_hat @ r)
        if rho_next == 0.0 or omega == 0.0:
            return uniform
        p = r + (rho_next / rho) * (alpha / omega) * (p - omega * v)
        rho = rho_next
        v = apply(p)
        denom = float(r_hat @ v)
        if denom == 0.0:
            return uniform
        alpha = rho / denom
        s = r - alpha * v
        t = apply(s)
        t_norm2 = float(t @ t)
        omega = float(t @ s) / t_norm2 if t_norm2 > 0.0 else 0.0
        x += alpha * p + omega * s
        r = s - omega * t
    x[anchor] = 1.0
    np.maximum(x, 0.0, out=x)
    total = x.sum()
    if not (math.isfinite(total) and total > 0.0):
        return uniform
    return x / total


def stationary_distribution(model: MdpModel, pi: Policy, tol: float = 1e-10,
                            max_iters: int = 10**6) -> np.ndarray:
    """Stationary state distribution of the induced chain.

    Starts from the BiCGSTAB solution of (I - P^pi^T) mu = 0 (see
    :func:`_bicgstab_start`), then iterates the lazy kernel (P^pi + I)/2, which
    has the same stationary distribution and is aperiodic, until the residual
    ||mu^T P^pi - mu^T||_1 on the original kernel is at most ``tol``. A start
    that already meets ``tol`` is returned at once; reducible or periodic
    chains and BiCGSTAB breakdowns are left to the lazy iteration. Raises
    ConvergenceError (carrying the final residual) if the tolerance is not met
    within ``max_iters``.
    """
    chain_t = induced_chain(model, pi).T.tocsr()
    mu = _bicgstab_start(chain_t, tol)
    residual = math.inf
    for _ in range(max_iters):
        stepped = chain_t @ mu
        residual = float(np.abs(stepped - mu).sum())
        if residual <= tol:
            return mu
        mu = 0.5 * (mu + stepped)
        mu /= mu.sum()
    raise ConvergenceError(
        f"power iteration did not reach tol={tol:g} in {max_iters} iterations "
        f"(residual {residual:g})", residual=residual)


def stationary_state_action(model: MdpModel, pi: Policy, tol: float = 1e-10,
                            max_iters: int = 10**6) -> np.ndarray:
    """Stationary state-action distribution mu(x,a) = mu(x) pi(a|x)."""
    mu = stationary_distribution(model, pi, tol=tol, max_iters=max_iters)
    return (mu[:, None] * pi.probs).reshape(-1)


def average_cost(model: MdpModel, pi: Policy, tol: float = 1e-10,
                 max_iters: int = 10**6) -> float:
    """Long-run average loss of ``pi`` (requires a unique stationary distribution)."""
    mu_sa = stationary_state_action(model, pi, tol=tol, max_iters=max_iters)
    return float(mu_sa @ model.loss)


def _policy_loss(model: MdpModel, pi: Policy) -> np.ndarray:
    return (pi.probs * model.loss.reshape(model.num_states, model.num_actions)).sum(axis=1)


def value_function(model: MdpModel, pi: Policy, gamma: float, tol: float = 1e-10) -> np.ndarray:
    """Discounted value J = loss_pi + gamma P^pi J, iterated until the geometric
    tail bound gamma^k ||J*||_inf <= tol."""
    if not 0.0 < gamma < 1.0:
        raise ParameterError(f"gamma must lie in (0, 1), got {gamma!r}")
    loss_pi = _policy_loss(model, pi)
    loss_max = float(np.max(np.abs(loss_pi))) if loss_pi.size else 0.0
    if loss_max == 0.0:
        return np.zeros(model.num_states)
    chain = induced_chain(model, pi)
    # J_0 = 0 gives ||J_k - J*|| <= gamma^k * loss_max / (1 - gamma)
    sweeps = max(1, math.ceil(math.log(tol * (1.0 - gamma) / loss_max) / math.log(gamma)))
    value = np.zeros(model.num_states)
    for _ in range(sweeps):
        value = loss_pi + gamma * (chain @ value)
    return value


def discounted_visits(model: MdpModel, pi: Policy, gamma: float,
                      alpha: np.ndarray | None = None, tol: float = 1e-10) -> np.ndarray:
    """Discounted expected visit counts per state-action pair.

    Accumulates sum_{t>=1} gamma^(t-1) * (state-action law at step t) starting
    from x_1 ~ alpha, truncated at the first t with gamma^t/(1-gamma) <= tol/2.
    The result sums to 1/(1-gamma) and satisfies (B - gamma P)^T nu = alpha up
    to ``tol``.
    """
    if not 0.0 < gamma < 1.0:
        raise ParameterError(f"gamma must lie in (0, 1), got {gamma!r}")
    alpha = _check_state_distribution(model, alpha)
    steps = max(1, math.ceil(math.log(tol * (1.0 - gamma) / 2.0) / math.log(gamma)))
    trans_t = model.transitions.T.tocsr()
    pi_flat = pi.probs
    state_law = alpha
    visits = np.zeros(model.num_pairs)
    discount = 1.0
    for _ in range(steps):
        pair_law = (state_law[:, None] * pi_flat).reshape(-1)
        visits += discount * pair_law
        state_law = trans_t @ pair_law
        discount *= gamma
    return visits


def _check_state_distribution(model: MdpModel, alpha: np.ndarray | None) -> np.ndarray:
    if alpha is None:
        return np.full(model.num_states, 1.0 / model.num_states)
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (model.num_states,):
        raise InputShapeError(f"state distribution must have length {model.num_states}")
    if alpha.min() < 0 or abs(alpha.sum() - 1.0) > PROB_ATOL:
        raise ParameterError("state distribution must be nonnegative and sum to 1")
    return alpha


def bellman_average(model: MdpModel, h: np.ndarray) -> np.ndarray:
    """(Lh)(x) = min_a [loss(x,a) + sum_x' P(x'|x,a) h(x')]."""
    h = np.asarray(h, dtype=float)
    if h.shape != (model.num_states,):
        raise InputShapeError(f"h must have length {model.num_states}")
    q = model.loss + model.transitions @ h
    return q.reshape(model.num_states, model.num_actions).min(axis=1)


def bellman_discounted(model: MdpModel, values: np.ndarray, gamma: float) -> np.ndarray:
    """(L^gamma J)(x) = min_a [loss(x,a) + gamma sum_x' P(x'|x,a) J(x')]."""
    values = np.asarray(values, dtype=float)
    if values.shape != (model.num_states,):
        raise InputShapeError(f"J must have length {model.num_states}")
    q = model.loss + gamma * (model.transitions @ values)
    return q.reshape(model.num_states, model.num_actions).min(axis=1)


@dataclass(frozen=True)
class OptimalSolution:
    """Output of :func:`solve_optimal`.

    ``average_loss`` is set in average mode; ``values`` holds the differential
    value vector (average mode, anchored at state 0) or the discounted value
    function.
    """

    policy: Policy
    values: np.ndarray
    average_loss: float | None = None
    iterations: int = field(default=0)


def solve_optimal(model: MdpModel, mode: str = "average", gamma: float | None = None,
                  tol: float = 1e-10, max_iters: int = 10**6) -> OptimalSolution:
    """Small-scale optimal-policy oracle.

    mode="average": relative value iteration on the lazy kernel (aperiodicity
    transform), anchored at state 0, until the Bellman residual of the
    untransformed model drops to ``tol``; also returns the optimal average loss.
    mode="discounted": plain value iteration until ||L^gamma J - J||_inf <= tol.
    """
    if model.num_pairs > DENSE_GUARD:
        raise CapacityError(
            f"solve_optimal is limited to num_states*num_actions <= {DENSE_GUARD}")
    if mode == "average":
        return _solve_average(model, tol, max_iters)
    if mode == "discounted":
        if gamma is None:
            raise ParameterError("discounted mode needs gamma")
        if not 0.0 < gamma < 1.0:
            raise ParameterError(f"gamma must lie in (0, 1), got {gamma!r}")
        return _solve_discounted(model, gamma, tol, max_iters)
    raise ParameterError(f"unknown mode {mode!r}")


def _solve_average(model: MdpModel, tol: float, max_iters: int) -> OptimalSolution:
    num_states, num_actions = model.num_states, model.num_actions
    trans = model.transitions
    loss2d = model.loss.reshape(num_states, num_actions)
    h = np.zeros(num_states)
    residual = math.inf
    for it in range(1, max_iters + 1):
        # Lazy-kernel Bellman image: min_a [loss + (h(x) + P h) / 2]. Its
        # residual at h equals the original model's residual at h/2.
        q = loss2d + 0.5 * (h[:, None] + (trans @ h).reshape(num_states, num_actions))
        image = q.min(axis=1)
        lam = image[0]
        residual = float(np.max(np.abs(image - h - lam)))
        if residual <= tol:
            greedy = q.argmin(axis=1)
            probs = np.zeros((num_states, num_actions))
            probs[np.arange(num_states), greedy] = 1.0
            return OptimalSolution(Policy(probs), values=0.5 * h,
                                   average_loss=float(lam), iterations=it)
        h = image - lam
    raise ConvergenceError(
        f"relative value iteration did not reach tol={tol:g} in {max_iters} sweeps "
        f"(residual {residual:g})", residual=residual)


def _solve_discounted(model: MdpModel, gamma: float, tol: float,
                      max_iters: int) -> OptimalSolution:
    num_states, num_actions = model.num_states, model.num_actions
    values = np.zeros(num_states)
    residual = math.inf
    for it in range(1, max_iters + 1):
        q = (model.loss + gamma * (model.transitions @ values)).reshape(num_states, num_actions)
        image = q.min(axis=1)
        residual = float(np.max(np.abs(image - values)))
        values = image
        if residual <= tol:
            greedy = q.argmin(axis=1)
            probs = np.zeros((num_states, num_actions))
            probs[np.arange(num_states), greedy] = 1.0
            return OptimalSolution(Policy(probs), values=values, iterations=it)
    raise ConvergenceError(
        f"value iteration did not reach tol={tol:g} in {max_iters} sweeps "
        f"(residual {residual:g})", residual=residual)


def contraction_diagnostic(model: MdpModel, pi: Policy) -> float:
    """Dobrushin coefficient of the induced chain: half the largest L1 distance
    between two rows. 0 for rank-one chains, 1 for e.g. the identity kernel.
    Densifies the chain, so it raises CapacityError when num_states**2
    exceeds DENSE_GUARD."""
    if model.num_states ** 2 > DENSE_GUARD:
        raise CapacityError(
            f"contraction_diagnostic is limited to num_states**2 <= {DENSE_GUARD}")
    rows = np.asarray(induced_chain(model, pi).todense())
    worst = 0.0
    for x in range(rows.shape[0] - 1):
        dists = np.abs(rows[x + 1:] - rows[x]).sum(axis=1)
        if dists.size:
            worst = max(worst, float(dists.max()))
    return 0.5 * worst

"""Sparse tabular MDP representation and exact evaluation oracles.

State-action pairs are flattened x-major: pair index ``i = x * num_actions + a``.
Vectors over pairs (occupancies, losses) are plain 1-D numpy arrays of length
``num_states * num_actions``; vectors over states have length ``num_states``.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import CapacityError, ConvergenceError, InputShapeError, ParameterError

DENSE_GUARD = 10**6  # largest num_states * num_actions for exact dense-style solves

PROB_ATOL = 1e-12  # row-stochasticity tolerance

_BICGSTAB_ITERS_PER_STATE = 2  # iteration cap of the stationary start, per state

_MAX_SWEEPS = 10**6  # cap of the stationary power iteration and of value iteration


def fixed_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product of two 1-D arrays by numpy's pairwise sum of the products.

    ``a @ b`` calls the BLAS dot product, which OpenBLAS splits across threads
    above 10,000 entries, so its last bits depend on how many CPUs the process
    may use; this sum does not. The exact oracles and the violation estimator
    use it for sums whose length grows with the model."""
    return float((a * b).sum())


def is_integer(value) -> bool:
    """A Python or numpy integer, not a bool: the package's one integer test."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A finite real number, not a bool or a string: the package's one number
    test for read input (JSON reads NaN and Infinity, which no input allows)."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and -math.inf < value < math.inf)


def is_number_list(value) -> bool:
    """A list of :func:`is_number` values: the package's one number-list test."""
    return isinstance(value, list) and all(is_number(v) for v in value)


def check_index(name: str, value, size: int) -> int:
    """An index: InputShapeError unless ``value`` is an integer in [0, size)."""
    if not is_integer(value) or not 0 <= value < size:
        raise InputShapeError(f"{name} {value!r} is not an integer in [0, {size})")
    return int(value)


def pair_index(num_states: int, num_actions: int, x, a) -> int:
    """The package's one rule for the flat pair index x * num_actions + a;
    InputShapeError unless x and a are integers in range."""
    return (check_index("state", x, num_states) * num_actions
            + check_index("action", a, num_actions))


def _aggregation_matrix(num_states: int, num_actions: int) -> sp.csr_matrix:
    """(X, X*A) 0/1 matrix summing a pair vector over actions (the transpose
    of the marginalization operator)."""
    cols = np.arange(num_states * num_actions)
    rows = np.repeat(np.arange(num_states), num_actions)
    data = np.ones(num_states * num_actions)
    return sp.csr_matrix((data, (rows, cols)), shape=(num_states, num_states * num_actions))


def _check_counts(num_states, num_actions) -> None:
    """InputShapeError unless both counts are positive integers."""
    if not (is_integer(num_states) and is_integer(num_actions)
            and num_states > 0 < num_actions):
        raise InputShapeError(f"state and action counts must be positive integers, "
                              f"got {num_states!r} and {num_actions!r}")


@dataclass(frozen=True)
class MdpModel:
    """Finite MDP with a sparse forward kernel.

    Attributes
    ----------
    num_states, num_actions : int
    transitions : (X*A, X) csr matrix; row (x,a) is the next-state distribution.
    loss : (X*A,) array with entries in [0, 1].
    """

    num_states: int
    num_actions: int
    transitions: sp.csr_matrix
    loss: np.ndarray

    @property
    def num_pairs(self) -> int:
        return self.num_states * self.num_actions

    @staticmethod
    def create(num_states: int, num_actions: int, transitions, loss) -> "MdpModel":
        """Build a model; ``transitions`` may be any scipy-sparse/dense (X*A, X)
        matrix and ``loss`` must lie in [0, 1]."""
        _check_counts(num_states, num_actions)
        n_pairs = num_states * num_actions
        if np.shape(transitions) != (n_pairs, num_states):
            raise InputShapeError(f"transitions must have shape (X*A, X) = "
                                  f"{(n_pairs, num_states)}, got {np.shape(transitions)}")
        trans = sp.csr_matrix(transitions, dtype=float)
        trans.eliminate_zeros()
        trans.sort_indices()
        loss = np.asarray(loss, dtype=float)
        if loss.shape != (n_pairs,):
            raise InputShapeError(f"loss must have length {n_pairs}, got shape {loss.shape}")
        row_sums = np.asarray(trans.sum(axis=1)).ravel()
        # a non-finite entry makes its row sum non-finite, and NaN fails every "<="
        bad = ~(np.abs(row_sums - 1.0) <= PROB_ATOL)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise ParameterError(f"transition row {i} sums to {row_sums[i]!r}, expected 1")
        if trans.nnz and not trans.data.min() >= 0:
            raise ParameterError("transition probabilities must be nonnegative")
        if loss.size and not (loss.min() >= 0 and loss.max() <= 1):
            raise ParameterError("loss entries must lie in [0, 1]")
        return MdpModel(num_states, num_actions, trans, loss)

    @staticmethod
    def from_records(num_states: int, num_actions: int, records, loss) -> "MdpModel":
        """Build from (x, a, next_state, prob) tuples of integers in range."""
        _check_counts(num_states, num_actions)  # the index checks below need them
        rows, cols, data = [], [], []
        for x, a, nxt, p in records:
            rows.append(pair_index(num_states, num_actions, x, a))
            cols.append(check_index("next state", nxt, num_states))
            data.append(p)
        trans = sp.coo_matrix((data, (rows, cols)),
                              shape=(num_states * num_actions, num_states))
        return MdpModel.create(num_states, num_actions, trans, loss)

    @staticmethod
    def from_dense(kernel: np.ndarray, loss: np.ndarray) -> "MdpModel":
        """Build from a dense (X, A, X) kernel and (X, A) loss."""
        kernel = np.asarray(kernel)
        if kernel.ndim != 3 or kernel.shape[0] != kernel.shape[2]:
            raise InputShapeError(f"kernel must have shape (X, A, X), got {kernel.shape}")
        num_states, num_actions, _ = kernel.shape
        return MdpModel.create(num_states, num_actions,
                               kernel.reshape(num_states * num_actions, num_states),
                               np.asarray(loss, dtype=float).reshape(-1))

    def pair_index(self, x: int, a: int) -> int:
        return pair_index(self.num_states, self.num_actions, x, a)


@dataclass(frozen=True)
class Policy:
    """Row-stochastic (X, A) action distribution per state.

    The row check reads the table once, in blocks of 16384 rows (512 KB at
    A = 4), so a block stays in cache while its columns are summed in order;
    it makes no (X, A) and no X-length temporary. For A <= 7 the column-order
    sum has the bits of numpy's ``probs.sum(axis=1)``; for A >= 8 it may
    differ in the last bit, so only a row within an ulp of the ``PROB_ATOL``
    edge could get another verdict."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 2:
            raise InputShapeError("policy probabilities must be a 2-D (states, actions) array")
        for start in range(0, len(probs), 16384):
            rows = probs[start:start + 16384]
            # the first two columns in one pass, then the rest in order
            deviation = rows[:, 0] + rows[:, 1] if rows.shape[1] >= 2 else rows.sum(axis=1)
            for column in rows.T[2:]:
                deviation += column
            deviation -= 1.0
            np.abs(deviation, out=deviation)
            # a non-finite entry makes its row sum non-finite, and NaN fails "<="
            if not np.all(deviation <= PROB_ATOL) or rows.min() < 0:
                raise ParameterError("policy rows must be finite, nonnegative and sum to 1")
        object.__setattr__(self, "probs", probs)

    def flat(self) -> np.ndarray:
        """Pair-indexed view pi(a|x) of length X*A."""
        return self.probs.reshape(-1)


def policy_from_occupancy(u: np.ndarray, num_actions: int) -> Policy:
    """Conditional policy of a (possibly signed) flat pair vector.

    Negative entries are clipped to zero before row-normalizing; a row whose
    positive part vanishes entirely falls back to the uniform distribution.
    The rows are normalized in place in the clipped copy, so the call holds
    one (X, A) table.
    """
    if not is_integer(num_actions) or num_actions < 1:
        raise InputShapeError(f"num_actions must be a positive integer, got {num_actions!r}")
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size % num_actions != 0:
        raise InputShapeError(f"occupancy must be a flat vector whose length is a multiple "
                              f"of num_actions={num_actions}, got shape {u.shape}")
    pos = np.maximum(u.reshape(-1, num_actions), 0.0)
    totals = pos.sum(axis=1, keepdims=True)
    np.divide(pos, totals, out=pos, where=totals > 0)
    pos[(totals <= 0.0).ravel()] = 1.0 / num_actions
    return Policy(pos)


def induced_chain(model: MdpModel, pi: Policy) -> sp.csr_matrix:
    """State-to-state kernel of following ``pi``: entry (x, x') = sum_a P(x'|x,a) pi(a|x).

    One sparse product of the (X, X*A) matrix holding pi(a|x) at (x, x*A + a)
    with the kernel; it sums each entry over the actions in the same order, so
    it has the same bits as aggregating the pi-weighted kernel rows."""
    if pi.probs.shape != (model.num_states, model.num_actions):
        raise InputShapeError("policy shape does not match the model")
    num_states, num_pairs = model.num_states, model.num_pairs
    weights = sp.csr_matrix((pi.flat(), np.arange(num_pairs),
                             np.arange(0, num_pairs + 1, model.num_actions)),
                            shape=(num_states, num_pairs))
    chain = weights @ model.transitions
    chain.sort_indices()
    return chain


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise ParameterError(f"tol must be a positive finite number, got {tol!r}")


def _bicgstab(apply, rhs: np.ndarray, done, max_iter: int) -> np.ndarray | None:
    """Unpreconditioned BiCGSTAB (van der Vorst 1992) for ``apply(x) = rhs``
    from x = 0.

    Stops before an iteration once ``done(r, x)`` holds for the recursively
    updated residual r, or after ``max_iter`` iterations, and returns x.
    Returns None on breakdown (a vanishing rho, omega or denominator)."""
    n = rhs.size
    r, r_hat = rhs, rhs.copy()
    x, p, v = np.zeros(n), np.zeros(n), np.zeros(n)
    rho = alpha = omega = 1.0
    for _ in range(max_iter):
        if done(r, x):
            break
        rho_next = float(r_hat @ r)
        if rho_next == 0.0 or omega == 0.0:
            return None
        p = r + (rho_next / rho) * (alpha / omega) * (p - omega * v)
        rho = rho_next
        v = apply(p)
        denom = float(r_hat @ v)
        if denom == 0.0:
            return None
        alpha = rho / denom
        s = r - alpha * v
        t = apply(s)
        t_norm2 = float(t @ t)
        omega = float(t @ s) / t_norm2 if t_norm2 > 0.0 else 0.0
        x += alpha * p + omega * s
        r = s - omega * t
    return x


def _stationary_start(chain_t: sp.csr_matrix, tol: float) -> np.ndarray:
    """Starting point of the stationary solve: :func:`_bicgstab` on
    (I - P^T) mu = 0 with one anchor state's mass fixed to 1, capped at
    ``_BICGSTAB_ITERS_PER_STATE`` iterations per state.

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

    rhs = chain_t[:, [anchor]].toarray().ravel()
    rhs[anchor] = 0.0
    # the stationary residual of the normalized result is at most
    # 2 * ||r||_1 / (1 + sum x), so this stop leaves a margin below tol
    stop = max(1e-3 * tol, 8 * np.finfo(float).eps)
    x = _bicgstab(apply, rhs, lambda r, x: np.abs(r).sum() <= stop * (1.0 + np.abs(x).sum()),
                  _BICGSTAB_ITERS_PER_STATE * n)
    if x is None:
        return uniform
    x[anchor] = 1.0
    np.maximum(x, 0.0, out=x)
    total = x.sum()
    if not (math.isfinite(total) and total > 0.0):
        return uniform
    return x / total


def stationary_distribution(model: MdpModel, pi: Policy, tol: float = 1e-10) -> np.ndarray:
    """Stationary state distribution of the induced chain.

    Starts from the BiCGSTAB solution of (I - P^pi^T) mu = 0 (see
    :func:`_stationary_start`), then iterates the lazy kernel (P^pi + I)/2, which
    has the same stationary distribution and is aperiodic, until the residual
    ||mu^T P^pi - mu^T||_1 on the original kernel is at most ``tol``. A start
    that already meets ``tol`` is returned at once; reducible or periodic
    chains and BiCGSTAB breakdowns are left to the lazy iteration. Raises
    ParameterError unless ``tol`` is positive and finite, and ConvergenceError
    (carrying the final residual) if the tolerance is not met within
    ``_MAX_SWEEPS`` lazy steps.
    """
    _check_tol(tol)
    chain_t = induced_chain(model, pi).T.tocsr()
    mu = _stationary_start(chain_t, tol)
    residual = math.inf
    for _ in range(_MAX_SWEEPS):
        stepped = chain_t @ mu
        residual = float(np.abs(stepped - mu).sum())
        if residual <= tol:
            return mu
        mu = 0.5 * (mu + stepped)
        mu /= mu.sum()
    raise ConvergenceError(
        f"power iteration did not reach tol={tol:g} in {_MAX_SWEEPS} iterations "
        f"(residual {residual:g})", residual=residual)


def stationary_state_action(model: MdpModel, pi: Policy, tol: float = 1e-10) -> np.ndarray:
    """Stationary state-action distribution mu(x,a) = mu(x) pi(a|x)."""
    mu = stationary_distribution(model, pi, tol=tol)
    return (mu[:, None] * pi.probs).reshape(-1)


def average_cost(model: MdpModel, pi: Policy, tol: float = 1e-10) -> float:
    """Long-run average loss of ``pi`` (requires a unique stationary distribution)."""
    mu_sa = stationary_state_action(model, pi, tol=tol)
    return fixed_dot(mu_sa, model.loss)


def _discounted_solve(chain: sp.csr_matrix, rhs: np.ndarray, gamma: float, tol: float,
                      norm) -> np.ndarray:
    """x* = (I - gamma chain)^-1 rhs to within ``tol`` in ``norm``, a norm in
    which ``chain`` does not expand: the sup norm for P^pi, L1 for P^pi^T.

    Starts from the first sweep x = rhs plus the :func:`_bicgstab` solution of
    (I - gamma chain) c = gamma chain rhs, stopped at a residual of norm
    tol (1 - gamma) / gamma and capped at half the sweep cap. From x = 0 its
    shadow residual would be rhs, a left eigenvector of I - gamma P^pi^T when
    uniform, and it diverged (to 1e40 on desk LBFS at gamma = 0.99). A start
    that breaks down, is non-finite or has ||Tx - x|| above ||rhs|| (that of
    x = 0) is replaced by 0. Then sweeps x <- Tx = rhs + gamma chain x until
    gamma / (1 - gamma) ||Tx - x|| <= tol certifies ||x* - Tx|| <= tol, at most
    the a-priori sweep count from 0. That stop cannot see rounding: a sweep
    rounds x, of norm up to ||rhs|| / (1 - gamma), by eps times that, and the
    discount amplifies it by 1 / (1 - gamma). A tol below this floor,
    eps ||rhs|| / (1 - gamma)^2 (2.2e-10 at gamma = 0.999 and ||rhs|| = 1), a
    gamma outside (0, 1) or a tol that is not positive and finite raises
    ParameterError. Above 10,000 states BiCGSTAB's BLAS dot products make the
    last bits depend on the thread count."""
    if not 0.0 < gamma < 1.0:
        raise ParameterError(f"gamma must lie in (0, 1), got {gamma!r}")
    _check_tol(tol)
    scale = norm(rhs) if rhs.size else 0.0
    if scale == 0.0:
        return np.zeros(rhs.size)
    floor = np.finfo(float).eps * scale / (1.0 - gamma) ** 2
    if tol < floor:
        raise ParameterError(f"tol is below the rounding floor {floor:.3g} at gamma {gamma!r}")
    # x_0 = 0 gives ||x_k - x*|| <= gamma^k * ||rhs|| / (1 - gamma)
    sweeps = max(1, math.ceil(math.log(tol * (1.0 - gamma) / scale) / math.log(gamma)))
    stop = tol * (1.0 - gamma) / gamma
    correction = _bicgstab(lambda v: v - gamma * (chain @ v), gamma * (chain @ rhs),
                           lambda r, x: norm(r) <= stop, sweeps // 2)
    x = None if correction is None else rhs + correction
    # NaN fails the comparison, so a non-finite start is dropped too
    if x is None or not norm(rhs + gamma * (chain @ x) - x) <= scale:
        x = np.zeros(rhs.size)
    for _ in range(sweeps):
        stepped = rhs + gamma * (chain @ x)
        if norm(stepped - x) <= stop:
            return stepped
        x = stepped
    return x


def value_function(model: MdpModel, pi: Policy, gamma: float, tol: float = 1e-10) -> np.ndarray:
    """Discounted value J* = (I - gamma P^pi)^-1 loss_pi to within ``tol`` in
    the sup norm, by :func:`_discounted_solve`."""
    # the chain first: it raises InputShapeError for a policy of the wrong shape
    chain = induced_chain(model, pi)
    loss = (pi.probs * model.loss.reshape(model.num_states, model.num_actions)).sum(axis=1)
    return _discounted_solve(chain, loss, gamma, tol, lambda v: np.abs(v).max())


def discounted_visits(model: MdpModel, pi: Policy, gamma: float,
                      alpha: np.ndarray | None = None, tol: float = 1e-10) -> np.ndarray:
    """Discounted expected visit counts per state-action pair, nu(x, a) =
    d(x) pi(a|x) with (I - gamma P^pi^T) d = alpha (uniform by default), which
    :func:`_discounted_solve` solves to within tol/2 in L1: nu sums to
    1/(1-gamma) and has (B - gamma P)^T nu = alpha up to ``tol``, at least
    twice the solve's rounding floor (4.4e-10 at gamma = 0.999, above the default)."""
    alpha = _check_state_distribution(model, alpha)
    state_visits = _discounted_solve(induced_chain(model, pi).T.tocsr(), alpha, gamma,
                                     tol / 2.0, lambda v: np.abs(v).sum())
    return (state_visits[:, None] * pi.probs).reshape(-1)


def _check_state_distribution(model: MdpModel, alpha: np.ndarray | None) -> np.ndarray:
    if alpha is None:
        return np.full(model.num_states, 1.0 / model.num_states)
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (model.num_states,):
        raise InputShapeError(f"state distribution must have length {model.num_states}")
    # a non-finite entry makes the minimum or the sum non-finite, and NaN fails both
    if not (alpha.min() >= 0 and abs(alpha.sum() - 1.0) <= PROB_ATOL):
        raise ParameterError("state distribution must be finite, nonnegative and sum to 1")
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


def solve_optimal(model: MdpModel, mode: str = "average", gamma: float | None = None,
                  tol: float = 1e-10) -> OptimalSolution:
    """Small-scale optimal-policy oracle.

    mode="average": relative value iteration on the lazy kernel (aperiodicity
    transform), anchored at state 0, until the Bellman residual of the
    untransformed model drops to ``tol``; also returns the optimal average loss.
    mode="discounted": plain value iteration until ||L^gamma J - J||_inf <= tol.
    ``tol`` must be positive and finite.
    """
    if model.num_pairs > DENSE_GUARD:
        raise CapacityError(
            f"solve_optimal is limited to num_states*num_actions <= {DENSE_GUARD}")
    _check_tol(tol)
    if mode == "average":
        return _solve_average(model, tol)
    if mode == "discounted":
        if gamma is None:
            raise ParameterError("discounted mode needs gamma")
        if not 0.0 < gamma < 1.0:
            raise ParameterError(f"gamma must lie in (0, 1), got {gamma!r}")
        return _solve_discounted(model, gamma, tol)
    raise ParameterError(f"unknown mode {mode!r}")


def _greedy_policy(q: np.ndarray) -> Policy:
    """The deterministic policy of each row's first argmin in the (X, A) array q."""
    probs = np.zeros(q.shape)
    probs[np.arange(q.shape[0]), q.argmin(axis=1)] = 1.0
    return Policy(probs)


def _solve_average(model: MdpModel, tol: float) -> OptimalSolution:
    num_states, num_actions = model.num_states, model.num_actions
    trans = model.transitions
    loss2d = model.loss.reshape(num_states, num_actions)
    h = np.zeros(num_states)
    residual = math.inf
    for _ in range(_MAX_SWEEPS):
        # Lazy-kernel Bellman image: min_a [loss + (h(x) + P h) / 2]. Its
        # residual at h equals the original model's residual at h/2.
        q = loss2d + 0.5 * (h[:, None] + (trans @ h).reshape(num_states, num_actions))
        image = q.min(axis=1)
        lam = image[0]
        residual = float(np.max(np.abs(image - h - lam)))
        if residual <= tol:
            return OptimalSolution(_greedy_policy(q), values=0.5 * h,
                                   average_loss=float(lam))
        h = image - lam
    raise ConvergenceError(
        f"relative value iteration did not reach tol={tol:g} in {_MAX_SWEEPS} sweeps "
        f"(residual {residual:g})", residual=residual)


def _solve_discounted(model: MdpModel, gamma: float, tol: float) -> OptimalSolution:
    num_states, num_actions = model.num_states, model.num_actions
    values = np.zeros(num_states)
    residual = math.inf
    for _ in range(_MAX_SWEEPS):
        q = (model.loss + gamma * (model.transitions @ values)).reshape(num_states, num_actions)
        image = q.min(axis=1)
        residual = float(np.max(np.abs(image - values)))
        values = image
        if residual <= tol:
            return OptimalSolution(_greedy_policy(q), values=values)
    raise ConvergenceError(
        f"value iteration did not reach tol={tol:g} in {_MAX_SWEEPS} sweeps "
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

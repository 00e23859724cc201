"""Feature subspace for the dual ALP: sparse feature matrix, baseline
occupancy, drift columns, and the importance-sampling distributions with their
coverage constants.

A feature matrix has one row per state-action pair (x-major flattening, as in
:mod:`dualalp.mdp`) and one column per feature. The drift of a feature column
at state x' under rate kappa is the d-vector (P - kappa*B)^T_{:,x'} Phi, i.e.
the one-step inflow minus kappa times the action-marginal at x'.

Phi and every one-step operator are kept in CSR form only, and every sampled
row of either is read through one bounds-checked gather (:func:`_row_gather`),
which fills the arrays of scipy's ``matrix[idx]`` with the kernel that slice
ends in, ``csr_row_index`` from the private ``scipy.sparse._sparsetools``,
without scipy's per-call index conversions and constructors. The minibatch
SGD estimator gathers many steps at once and reads each step through a view
of the block (:func:`_step_views`). A view's two products call
the kernels of scipy's ``csr @ vector`` and ``vector @ csr``, ``csr_matvec``
and ``csc_matvec``, and dense blocks are filled by ``csr_todense``, the kernel
of ``toarray``, on the same arrays in the same order, so every read gives the
bits of the public slice and products (``test_row_gather_matches_public_slice``,
``test_csr_steps_match_public_products``). The public row accessors return
dense blocks.

No padded fixed-width (ELL) copy of Phi's rows is kept: at the paper preset
(4,112,784 rows of width 4) it would take about 263 MB, and it is no faster.
Full minibatch step on the desk features (d = 170, ELL width 4), µs, median
[q1, q3] over 10 alternating in-process pairs, 2-vCPU host, one BLAS thread:

    case                            ELL                   CSR views             CSR faster
    average cost, m = 1000          306.1 [298.4, 310.4]  295.7 [293.4, 297.5]  7 of 10
    discounted gamma 0.99, m = 100   63.3 [61.1, 64.3]     65.9 [61.9, 70.1]    4 of 10
    average cost, m = 10             36.3 [34.8, 36.5]     33.9 [33.1, 35.2]    9 of 10

Samplers draw an index as ``searchsorted(cum, u, side="right")`` for a uniform
u in [0, 1) and the cumulative table ``cum`` of the probabilities, through the
indexed search of Chen & Asau (1974): a guide table holds, for each of n
buckets of [0, 1), a start index that never passes the answer, and a
vectorised forward walk over ``cum`` finishes the search (the few draws still
short of their answer after ``_WALK_STEPS`` steps, in a bucket crowded with
entries, finish by binary search). The draws equal those of ``searchsorted``
exactly, so the draw stream does not depend on the method.

Feature spaces are immutable after construction apart from the operator
caches, whose dict inserts are atomic, so sharing one instance across threads
is safe; samplers take the caller's generator, so concurrent runs stay
reproducible under per-run seeds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csc_matvec, csr_matvec, csr_row_index, csr_todense

from .errors import InputShapeError, ParameterError, SamplingSupportError
from .mdp import MdpModel, _aggregation_matrix, fixed_dot


class FeatureSpace:
    """Feature matrix plus the precomputed products the solvers need.

    Parameters
    ----------
    model : MdpModel the features live on (drift columns use its kernel).
    phi : (X*A, d) sparse or dense feature matrix.
    mu0 : optional baseline occupancy (absent means the zero vector).
    normalize : divide every column by its absolute sum ("every feature sums
        to 1"); columns must not be identically zero when set.
    names : optional per-column labels, kept for reporting only.
    """

    def __init__(self, model: MdpModel, phi, mu0: np.ndarray | None = None,
                 normalize: bool = False, names: list[str] | None = None):
        self.model = model
        phi = sp.csr_matrix(phi, dtype=float)
        if phi.shape[0] != model.num_pairs:
            raise InputShapeError(
                f"phi must have {model.num_pairs} rows, got {phi.shape[0]}")
        if not np.isfinite(phi.data).all():
            raise ParameterError("phi entries must be finite")
        if normalize:
            col_mass = np.asarray(abs(phi).sum(axis=0)).ravel()
            if np.any(col_mass <= 0):
                raise ParameterError("cannot normalize a feature column with zero mass")
            phi = (phi @ sp.diags(1.0 / col_mass)).tocsr()
        phi.sort_indices()
        self.phi = phi
        self.dim = phi.shape[1]
        if names is not None and len(names) != self.dim:
            raise InputShapeError("one name per feature column expected")
        self.names = list(names) if names is not None else None
        if mu0 is None:
            mu0 = np.zeros(model.num_pairs)
        else:
            mu0 = np.asarray(mu0, dtype=float)
            if mu0.shape != (model.num_pairs,):
                raise InputShapeError(f"mu0 must have length {model.num_pairs}")
            if not np.isfinite(mu0).all():
                raise ParameterError("mu0 entries must be finite")
        self.mu0 = mu0
        self.loss_phi = model.loss @ phi
        self.loss_mu0 = fixed_dot(model.loss, mu0)
        self.column_norm_bound = float(np.asarray(abs(phi).sum(axis=0)).max()) if phi.nnz else 0.0
        self._operators: dict = {}  # coefficient pair -> CSR one-step operator

    # -- row access ---------------------------------------------------------

    def rows(self, pair_idx: np.ndarray) -> np.ndarray:
        """(n, d) dense block of feature rows for the given pair indices."""
        return _dense_rows(self.phi, pair_idx)

    # -- operator rows ------------------------------------------------------

    @cached_property
    def _inflow(self) -> sp.csr_matrix:
        """P^T Phi, formed once for every one-step operator."""
        return (self.model.transitions.T.tocsr() @ self.phi).tocsr()

    def _operator(self, coefs: tuple[float, float]) -> sp.csr_matrix:
        """The (X, d) one-step operator in_coef * P^T Phi + marg_coef * B^T Phi
        for ``coefs = (in_coef, marg_coef)``, memoized per pair."""
        cached = self._operators.get(coefs)
        if cached is None:
            in_coef, marg_coef = coefs
            agg = _aggregation_matrix(self.model.num_states, self.model.num_actions)
            cached = (in_coef * self._inflow + marg_coef * (agg @ self.phi).tocsr()).tocsr()
            self._operators[coefs] = cached
        return cached

    def drift_rows(self, states: np.ndarray, kappa: float) -> np.ndarray:
        """(n, d) dense block of drift vectors for the given states."""
        return _dense_rows(self._operator((1.0, -kappa)), states)

    def feasibility_rows(self, states: np.ndarray, kappa: float) -> np.ndarray:
        """(n, d) dense block of feasibility vectors for the given states."""
        return _dense_rows(self._operator((-kappa, 1.0)), states)

    # -- pointwise products -------------------------------------------------

    def occupancy_vector(self, theta: np.ndarray) -> np.ndarray:
        """Full mu0 + Phi theta over all pairs (dense, length X*A)."""
        return self.mu0 + self.phi @ theta


@dataclass(frozen=True)
class SamplingPair:
    """Constraint-sampling distributions over pairs and states.

    ``pair_probs`` / ``state_probs`` of None mean the uniform distribution;
    a table has one entry per pair / state, nonnegative and summing to 1.
    ``c_pair`` bounds max ||Phi_{(x,a),:}|| / q(x,a); ``c_state`` bounds
    max ||(P - kappa B)^T_{:,x} Phi|| / q(x) for the kappa it was built for.
    """

    num_pairs: int
    num_states: int
    c_pair: float
    c_state: float
    pair_probs: np.ndarray | None = None
    state_probs: np.ndarray | None = None

    def __post_init__(self):
        for name in ("c_pair", "c_state"):
            # the "auto" learning rate is built from these bounds; NaN fails the test
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ParameterError(f"{name} must be finite and >= 0, got {value!r}")
        for name, size in (("pair_probs", self.num_pairs), ("state_probs", self.num_states)):
            cum = guide = None
            probs = getattr(self, name)
            if probs is not None:
                probs = np.asarray(probs, dtype=float)
                if probs.shape != (size,):
                    raise InputShapeError(f"{name} must have length {size}, got {probs.shape}")
                # a non-finite entry makes the minimum or the sum non-finite, and NaN fails both
                if not (probs.min() >= 0.0 and abs(probs.sum() - 1.0) <= 1e-9):
                    raise ParameterError(f"{name} must be finite, nonnegative and sum to 1")
                object.__setattr__(self, name, probs)
                cum = np.cumsum(probs)
                cum[-1] = 1.0
                guide = _guide_table(cum)
            object.__setattr__(self, "_cum_" + name, cum)
            object.__setattr__(self, "_guide_" + name, guide)

    def pair_prob(self, idx) -> np.ndarray:
        if self.pair_probs is None:
            return np.full(np.shape(idx), 1.0 / self.num_pairs)
        return self.pair_probs[idx]

    def state_prob(self, idx) -> np.ndarray:
        if self.state_probs is None:
            return np.full(np.shape(idx), 1.0 / self.num_states)
        return self.state_probs[idx]

    def sample_pairs(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return _sample(self._cum_pair_probs, self._guide_pair_probs, self.num_pairs,
                       rng, size)

    def sample_states(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return _sample(self._cum_state_probs, self._guide_state_probs, self.num_states,
                       rng, size)

    def sample_steps(self, rng: np.random.Generator, steps: int,
                     size: int) -> tuple[np.ndarray, np.ndarray]:
        """(steps, size) pair draws and state draws: row i is the i-th of
        ``steps`` successive ``sample_pairs(rng, size)``,
        ``sample_states(rng, size)`` calls, and the generator ends in the state
        those calls leave it in. When both sides search a table, one
        ``rng.random((steps, 2, size))`` gives the uniforms of every call in
        order and each side's table is searched once; otherwise the generator
        is called per step as those calls would, and a searched side maps its
        uniforms at the end."""
        sides = ((self._cum_pair_probs, self._guide_pair_probs, self.num_pairs),
                 (self._cum_state_probs, self._guide_state_probs, self.num_states))
        if all(cum is not None for cum, _, _ in sides):
            u = rng.random((steps, 2, size))
            return tuple(_search(cum, guide, u[:, j]) for j, (cum, guide, _) in enumerate(sides))
        raw = [np.empty((steps, size), dtype=np.int64 if cum is None else float)
               for cum, _, _ in sides]
        for i in range(steps):
            for out, (cum, _, n) in zip(raw, sides):
                out[i] = rng.integers(0, n, size=size) if cum is None else rng.random(size)
        return tuple(out if cum is None else _search(cum, guide, out)
                     for out, (cum, guide, _) in zip(raw, sides))


_WALK_STEPS = 8  # forward steps before the draws left in a crowded bucket are bisected


def _guide_table(cum: np.ndarray) -> np.ndarray:
    """Start index for each of the K = len(cum) buckets of [0, 1): for bucket
    j, the number of entries c of ``cum`` with fl(c * K) < j.

    A draw u searches from the start of bucket j = floor(fl(u * K)). The start
    never passes the answer: rounding is monotone, so fl(c * K) < j <=
    fl(u * K) gives c < u for every entry counted.
    """
    return np.searchsorted(cum * float(len(cum)), np.arange(len(cum)), side="left")


def _sample(cum: np.ndarray | None, guide: np.ndarray | None, n: int,
            rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` draws from {0..n-1}: uniform when ``cum`` is None, else
    exactly ``searchsorted(cum, u, side="right")`` for u = rng.random(size)."""
    if cum is None:
        return rng.integers(0, n, size=size)
    return _search(cum, guide, rng.random(size))


def _search(cum: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``searchsorted(cum, u, side="right")`` for an array of uniforms in
    [0, 1) of any shape, through the guide table of ``cum``."""
    buckets = len(guide)
    idx = guide[np.minimum((u * float(buckets)).astype(np.intp), buckets - 1)]
    for _ in range(_WALK_STEPS):
        step = cum[idx] <= u
        if not step.any():
            return idx
        idx += step
    crowded = cum[idx] <= u
    idx[crowded] = np.searchsorted(cum, u[crowded], side="right")
    return idx


class _CsrRows:
    """Rows of a sparse (n, d) matrix in CSR arrays, where ``indptr`` gives
    each row's start and end as positions in ``indices`` and ``data``, which
    may hold other rows too: ``rows @ theta`` gives their n inner products
    and ``weights @ rows`` their weighted sum as a d-vector. Both make the
    kernel call of scipy's ``csr @ vector`` (``csr_matvec``) and
    ``vector @ csr`` (``csc_matvec`` on the transpose), so they give the bits
    of the public products. The kernels check no bounds, so a vector of the
    wrong shape raises InputShapeError first.
    """

    __array_ufunc__ = None  # ``ndarray @ rows`` defers to __rmatmul__

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, dim: int):
        self.indptr, self.indices, self.data, self.dim = indptr, indices, data, dim

    def __matmul__(self, theta: np.ndarray) -> np.ndarray:
        n = len(self.indptr) - 1
        if theta.shape != (self.dim,):
            raise InputShapeError(f"theta must have shape ({self.dim},), got {theta.shape}")
        out = np.zeros(n)
        csr_matvec(n, self.dim, self.indptr, self.indices, self.data, theta, out)
        return out

    def __rmatmul__(self, weights: np.ndarray) -> np.ndarray:
        n = len(self.indptr) - 1
        if weights.shape != (n,):
            raise InputShapeError(f"weights must have shape ({n},), got {weights.shape}")
        out = np.zeros(self.dim)
        csc_matvec(self.dim, n, self.indptr, self.indices, self.data, weights, out)
        return out


def _row_gather(matrix: sp.csr_matrix, idx, out=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The indptr, indices and data of ``matrix[idx]`` for a 1-D integer index
    array, in the matrix's index dtype, at a cost that follows len(idx), not
    the number of rows; with ``out``, three such arrays, in views of their
    leading entries. ``csr_row_index`` checks no bounds, so an index that is
    not an integer in [0, rows), or rows that do not fit ``out``, raise
    InputShapeError first."""
    idx = np.asarray(idx)
    rows = matrix.shape[0]
    if idx.ndim != 1 or idx.dtype.kind not in "iu" or (
            idx.size and not (idx.min() >= 0 and idx.max() < rows)):
        raise InputShapeError(f"row indices must be a 1-D integer array in [0, {rows})")
    indptr = matrix.indptr
    pos = idx.astype(np.intp, copy=False)  # numpy gathers fastest with native-width indices
    n = len(idx)
    block_ptr = np.empty(n + 1, dtype=indptr.dtype) if out is None else out[0][:n + 1]
    block_ptr[0] = 0
    np.cumsum(indptr[1:][pos] - indptr[pos], out=block_ptr[1:])
    nnz = block_ptr[-1]
    indices = np.empty(nnz, dtype=indptr.dtype) if out is None else out[1][:nnz]
    data = np.empty(nnz, dtype=matrix.dtype) if out is None else out[2][:nnz]
    if len(indices) != nnz or len(data) != nnz:
        raise InputShapeError(f"{nnz} gathered nonzeros do not fit the given arrays")
    csr_row_index(n, idx.astype(indptr.dtype, copy=False), indptr, matrix.indices,
                  matrix.data, indices, data)
    return block_ptr, indices, data


def _dense_rows(matrix: sp.csr_matrix, idx) -> np.ndarray:
    """``matrix[idx].toarray()``, filled by the kernel of ``toarray``."""
    indptr, indices, data = _row_gather(matrix, idx)
    out = np.zeros((len(indptr) - 1, matrix.shape[1]), dtype=data.dtype)
    csr_todense(out.shape[0], out.shape[1], indptr, indices, data, out)
    return out


def _step_views(indptr, indices, data, m: int, dim: int, n: int) -> list[_CsrRows]:
    """A :class:`_CsrRows` view of each step's m rows of the first n rows of
    a :func:`_row_gather` of many steps. The views share its indices and data,
    and each takes its slice of its indptr as it is, since the kernels read
    the offsets as positions in those arrays."""
    return [_CsrRows(indptr[i:i + m + 1], indices, data, dim) for i in range(0, n, m)]


def importance_weight_guard(prob: np.ndarray) -> None:
    """Raise if any sampled point carries zero sampling probability."""
    if np.any(prob <= 0.0):
        raise SamplingSupportError("sampled a point with zero sampling probability")


def _row_norms_sparse(matrix: sp.csr_matrix) -> np.ndarray:
    return np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel())


def _drift_norms(fs: FeatureSpace, kappa: float) -> np.ndarray:
    """Per-state norm bound covering both one-step operators: the drift
    (P - kappa B)^T Phi and, when they differ (kappa < 1), the feasibility
    combination (B - kappa P)^T Phi used by the discounted residual."""
    norms = _row_norms_sparse(fs._operator((1.0, -kappa)))
    if kappa != 1.0:
        feas = _row_norms_sparse(fs._operator((-kappa, 1.0)))
        norms = np.maximum(norms, feas)
    return norms


def check_model(model: MdpModel, fs: FeatureSpace) -> None:
    """The model an entry point takes beside ``fs`` is the one ``fs`` was built
    on, whose operators it holds: another model's sizes would scale, draw and
    broadcast against them (InputShapeError)."""
    if model is not fs.model:
        raise InputShapeError("the model is not the one the feature space was built on")


def make_uniform_sampling(model: MdpModel, fs: FeatureSpace, kappa: float) -> SamplingPair:
    """Uniform q over pairs and states. The coverage constants are one pass
    over the nonzeros of Phi and of the one-step operators."""
    check_model(model, fs)
    c_pair = float(_row_norms_sparse(fs.phi).max(initial=0.0) * model.num_pairs)
    c_state = float(_drift_norms(fs, kappa).max(initial=0.0) * model.num_states)
    return SamplingPair(num_pairs=model.num_pairs, num_states=model.num_states,
                        c_pair=c_pair, c_state=c_state)


def make_norm_proportional_sampling(model: MdpModel, fs: FeatureSpace,
                                    kappa: float) -> SamplingPair:
    """q over pairs proportional to feature-row norms, q over states
    proportional to the norm of the action-marginal of Phi at the state
    (one-step look-ahead choice). Requires positive normalizers and full
    coverage of the drift support."""
    check_model(model, fs)
    row_norms = _row_norms_sparse(fs.phi)
    z_pair = row_norms.sum()
    marg_norms = _row_norms_sparse(
        _aggregation_matrix(model.num_states, model.num_actions) @ fs.phi)
    z_state = marg_norms.sum()
    if z_pair <= 0 or z_state <= 0:
        raise ParameterError("norm-proportional sampling needs a nonzero feature matrix")
    pair_probs = row_norms / z_pair
    state_probs = marg_norms / z_state
    drift_norms = _drift_norms(fs, kappa)
    covered = state_probs > 0
    if np.any(drift_norms[~covered] > 0):
        raise ParameterError(
            "state sampling distribution misses states with nonzero drift")
    c_pair = float(z_pair)  # ||row|| / (||row||/Z) = Z wherever q > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(covered, drift_norms / state_probs, 0.0)
    c_state = float(ratios.max(initial=0.0))
    return SamplingPair(num_pairs=model.num_pairs, num_states=model.num_states,
                        c_pair=c_pair, c_state=c_state, pair_probs=pair_probs,
                        state_probs=state_probs)

"""Surrogate core and projected stochastic-subgradient loop shared by the two
dual-ALP solvers.

Both penalized surrogates have the shape

    cost(theta) = loss^T mu0 + loss_phi^T theta
                  + penalty * (negative mass of mu0 + Phi theta)
                  + penalty * || S theta + res_base ||_1

where mu0 is the feature space's baseline occupancy (zero for discounted
cost) and the rows of the state operator S are the drift rows (P - B)^T Phi
for average cost and the feasibility rows (B - gamma P)^T Phi for discounted
cost. A :class:`Surrogate` holds what differs between the two; the exact
oracles, the estimators, the SGD problem and the meta loop are written once
against it, and every sampled draw passes :meth:`Surrogate.draw_terms`, the
one support check, before a row of it is gathered.

The loop is strictly sequential in the iterate; randomness is split into one
stream for the gradient draws and one for the trace-time violation estimates,
so changing the recording stride never perturbs the iterate path. Both SGD
steps, ``step(theta, rng, rate)`` = theta - rate * g before the projection,
draw ahead in blocks that hold exactly the draws the steps would have taken
one at a time, so the iterate path is bit for bit that of a per-step estimator.
A minibatch run draws, checks and gathers its blocks in one fill
(:func:`_fill`), which a long run forks into a child and every other run
runs in this process (:class:`_Refills`); the generator given to its first
step serves the whole run and ends in the same state on both.
"""
from __future__ import annotations

import contextlib
import gc
import math
import mmap
import numbers
import os
import signal
import threading
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.sparse import csr_matrix

from .errors import ConvergenceError, DualAlpError, InputShapeError, ParameterError
from .features import (FeatureSpace, SamplingPair, _CsrRows, _dense_rows, _row_gather,
                       _step_views, check_model, importance_weight_guard)
from .mdp import (MdpModel, Policy, _check_state_distribution, fixed_dot, is_integer,
                  policy_from_occupancy)
from .trace import MetaResult, RunTrace

GRAD_BLOCK = 512  # single-draw iterations served by one presampled block
MINIBATCH_BLOCK = 16384  # draws per side presampled by one minibatch refill
VIOLATION_BATCH = 1 << 16  # draws per side counted at once by a violation estimate


def as_seed_sequence(seed) -> np.random.SeedSequence:
    """A SeedSequence as given, or the one a non-negative integer seeds."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if not is_integer(seed) or seed < 0:
        raise ParameterError(f"seed must be a non-negative integer or a SeedSequence, "
                             f"got {seed!r}")
    return np.random.SeedSequence(seed)


def check_radius(radius: float, error: type = ParameterError) -> None:
    """Every solver's parameter ball needs a positive radius."""
    if not radius > 0:
        raise error(f"radius must be positive, got {radius!r}")


def check_halving_period(period, error: type = ParameterError) -> None:
    """A learning-rate halving period is None (no halving) or a positive
    integer: a negative one would double the rate, zero would turn halving off
    and a fraction would halve at uneven steps."""
    if period is not None and (not is_integer(period) or period < 1):
        raise error(f"lr_halving_period must be null or a positive integer, got {period!r}")


def check_positive_int(name: str, value) -> None:
    """A count is a positive integer (numpy integers count, bools do not): a
    fraction or a nonpositive count has no meaning."""
    if not is_integer(value) or value < 1:
        raise ParameterError(f"{name} must be >= 1 (a positive integer), got {value!r}")


@dataclass(frozen=True, kw_only=True)
class SolverConfig:
    """Knobs of one projected SGD run, shared by both surrogates.

    penalty is the violation gain H and radius bounds ||theta||_2.
    ``learning_rate`` may be a float or "auto"; with ``lr_halving_period``
    set, the rate is halved every that many iterations. ``trace_stride`` of
    None records about 1000 rows, each with a violation estimate from
    ``trace_violation_samples`` draws.
    """

    penalty: float
    radius: float
    iterations: int
    learning_rate: float | str = "auto"
    lr_halving_period: int | None = None
    minibatch: int = 1
    seed: int = 0
    trace_stride: int | None = None
    trace_violation_samples: int = 64

    def __post_init__(self):
        check_radius(self.radius)
        # The excess-loss analysis assumes penalty >= 1, but meta grids may
        # legitimately start below 1, so only positivity is enforced here.
        if not 0.0 < self.penalty < math.inf:
            raise ParameterError(f"penalty must be positive and finite, got {self.penalty!r}")
        for name in ("iterations", "minibatch", "trace_violation_samples"):
            check_positive_int(name, getattr(self, name))
        if self.trace_stride is not None:
            check_positive_int("trace_stride", self.trace_stride)
        rate = self.learning_rate
        if rate != "auto" and (isinstance(rate, bool) or not isinstance(rate, numbers.Real)
                               or not 0.0 <= rate < math.inf):
            raise ParameterError(f'learning_rate must be "auto" or a finite number >= 0, '
                                 f"got {rate!r}")
        check_halving_period(self.lr_halving_period)
        as_seed_sequence(self.seed)  # a bad seed fails here, not when the run starts


@dataclass(frozen=True)
class Surrogate:
    """What separates the average-cost and discounted surrogates.

    ``state_operator`` is the (X, d) state operator S in CSR form, the
    feature space's memoized one-step operator, and ``res_base`` is added
    inside the residual (one entry per state). The baseline occupancy and
    its loss are the feature space's ``mu0`` and ``loss_mu0``. Both
    constructors refuse a ``model`` that is not ``fs.model``.
    """

    model: MdpModel
    fs: FeatureSpace
    state_operator: csr_matrix
    res_base: np.ndarray

    @classmethod
    def average_cost(cls, model: MdpModel, fs: FeatureSpace) -> Surrogate:
        """Drift rows at rate 1, no residual offset."""
        check_model(model, fs)
        return cls(model, fs, fs._operator((1.0, -1.0)), np.zeros(model.num_states))

    @classmethod
    def discounted(cls, model: MdpModel, fs: FeatureSpace, gamma: float,
                   alpha: np.ndarray | None) -> Surrogate:
        """Feasibility rows at rate gamma, residual offset -alpha (None means
        the uniform initial distribution). The discounted dual has no
        baseline occupancy: a nonzero ``fs.mu0`` raises ParameterError."""
        check_model(model, fs)
        alpha = _check_state_distribution(model, alpha)
        if fs.mu0.any():
            raise ParameterError("the discounted surrogate takes no baseline occupancy mu0")
        return cls(model, fs, fs._operator((-gamma, 1.0)), -alpha)

    def violations_exact(self, theta: np.ndarray) -> tuple[float, float]:
        neg_mass = float(np.abs(np.minimum(self.fs.occupancy_vector(theta), 0.0)).sum())
        residual = float(np.abs(self.state_operator @ theta + self.res_base).sum())
        return neg_mass, residual

    def cost_exact(self, penalty: float, theta: np.ndarray) -> float:
        v_neg, v_res = self.violations_exact(theta)
        return self.fs.loss_mu0 + float(self.fs.loss_phi @ theta) + penalty * (v_neg + v_res)

    def exact_subgradient(self, penalty: float, theta: np.ndarray) -> np.ndarray:
        active = (self.fs.occupancy_vector(theta) < 0.0).astype(float)
        signs = np.sign(self.state_operator @ theta + self.res_base)
        return (self.fs.loss_phi - penalty * (self.fs.phi.T @ active)
                + penalty * (signs @ self.state_operator))

    def _check_draws(self, pair_idx: np.ndarray, state_idx: np.ndarray) -> None:
        """Explicit draws are nonempty 1-D integer arrays of pairs in
        [0, num_pairs) and states in [0, num_states): a row gather would fail
        on an empty one with a bare error and read a 2-D one as another
        shape, and a probability lookup would take -1 as the last index."""
        for idx, size in ((pair_idx, self.model.num_pairs), (state_idx, self.model.num_states)):
            if np.ndim(idx) != 1 or len(idx) == 0:
                raise InputShapeError(f"draw indices must be a nonempty 1-D array, "
                                      f"got shape {np.shape(idx)}")
            if idx.dtype.kind not in "iu" or not (idx.min() >= 0 and idx.max() < size):
                raise InputShapeError(f"draw indices must be integers in [0, {size})")

    def gather(self, sp: SamplingPair, pair_idx: np.ndarray, state_idx: np.ndarray):
        """What an estimator reads at its 1-D draws: (q_pair, mu0, rows of
        Phi) at the pair draws and (q_state, res_base, rows of S) at the state
        draws. The rows of each side are one :func:`_row_gather`, read as a
        :class:`dualalp.features._CsrRows`. Raises SamplingSupportError on a
        draw of probability zero on either side, before any row is gathered."""
        q_pair, occ, q_state, res = self.draw_terms(sp, pair_idx, state_idx)
        rows = _CsrRows(*_row_gather(self.fs.phi, pair_idx), self.fs.dim)
        state_rows = _CsrRows(*_row_gather(self.state_operator, state_idx), self.fs.dim)
        return q_pair, occ, rows, q_state, res, state_rows

    def draw_terms(self, sp: SamplingPair, pair_idx: np.ndarray, state_idx: np.ndarray):
        """q_pair, mu0, q_state and res_base at the draws, support checked."""
        q_pair, q_state = sp.pair_prob(pair_idx), sp.state_prob(state_idx)
        importance_weight_guard(q_pair)
        importance_weight_guard(q_state)
        return q_pair, self.fs.mu0[pair_idx], q_state, self.res_base[state_idx]

    def subgradient_estimate(self, sp: SamplingPair, penalty: float, theta: np.ndarray,
                             rng: np.random.Generator | None = None,
                             pair_idx=None, state_idx=None) -> np.ndarray:
        """Importance-weighted subgradient estimate on one pair and one state
        drawn from the rng, or averaged over the given draws (both or
        neither): nonempty 1-D index arrays of one length, the i-th pair and
        state forming the i-th draw, else InputShapeError."""
        if pair_idx is None and state_idx is None and rng is not None:
            pair_idx, state_idx = draw(sp, rng, 1)
        elif pair_idx is None or state_idx is None:
            raise ParameterError("either an rng or both pair_idx and state_idx are required")
        pair_idx, state_idx = np.atleast_1d(pair_idx), np.atleast_1d(state_idx)
        self._check_draws(pair_idx, state_idx)
        if len(pair_idx) != len(state_idx):
            raise InputShapeError(f"pair_idx and state_idx must have one length, got "
                                  f"{len(pair_idx)} and {len(state_idx)}")
        q_pair, occ, rows, q_state, res, state_rows = self.gather(sp, pair_idx, state_idx)
        return self.weighted_subgradient(penalty, theta, rows, occ, 1.0 / q_pair,
                                         state_rows, res, q_state)

    def weighted_subgradient(self, penalty: float, theta: np.ndarray, rows,
                             occ: np.ndarray, inv_q_pair: np.ndarray,
                             state_rows, res: np.ndarray,
                             q_state: np.ndarray) -> np.ndarray:
        """The theta-dependent part of a subgradient estimate over m gathered
        draws: pair ``rows`` with their mu0 and 1 / q_pair, and ``state_rows``
        with their res_base and q_state. Every sampled estimate ends here, so
        on the same draws they round alike."""
        w_neg = np.where(occ + rows @ theta < 0.0, inv_q_pair, 0.0)
        w_res = np.sign(state_rows @ theta + res) / q_state
        m = len(occ)
        return (self.fs.loss_phi - (penalty / m) * (w_neg @ rows)
                + (penalty / m) * (w_res @ state_rows))

    def violation_terms(self, sp: SamplingPair, theta: np.ndarray, pair_idx: np.ndarray,
                        state_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Importance-weighted violation terms: |min(mu0 + Phi theta, 0)| /
        q_pair at each pair index and |S theta + res_base| / q_state at each
        state index. The two index arrays are nonempty and 1-D, else
        InputShapeError, and need not have the same length."""
        self._check_draws(pair_idx, state_idx)
        q_pair, occ, rows, q_state, res, state_rows = self.gather(sp, pair_idx, state_idx)
        return (np.abs(np.minimum(occ + rows @ theta, 0.0)) / q_pair,
                np.abs(state_rows @ theta + res) / q_state)

    def violation_summands(self, sp: SamplingPair, theta: np.ndarray,
                           pair_idx: np.ndarray, state_idx: np.ndarray) -> np.ndarray:
        """One summand of the violation estimator per draw (pair_idx[i],
        state_idx[i]); its mean over the draws is :meth:`estimate_violations`."""
        neg, res = self.violation_terms(sp, theta, pair_idx, state_idx)
        return neg + res

    def estimate_violations(self, sp: SamplingPair, theta: np.ndarray, n: int,
                            rng: np.random.Generator) -> float:
        """Unbiased importance-sampling estimate of the total violation: the
        mean of :meth:`violation_summands` over n draws of each distribution,
        drawn :data:`VIOLATION_BATCH` at a time.

        A batch is drawn by :func:`draw` and reduced by :func:`distinct_counts`;
        the terms are evaluated once per distinct drawn pair and state and
        weighted by how often each was drawn, so the gathers follow the number
        of distinct indices, not of draws. The draws are those of the per-draw
        form; only the summation order differs."""
        check_positive_int("n", n)
        total = 0.0
        for pairs, pair_counts, states, state_counts in _counted_draws(sp, rng, n):
            neg, res = self.violation_terms(sp, theta, pairs, states)
            total += fixed_dot(pair_counts, neg) + fixed_dot(state_counts, res)
        return total / n

    def estimate_violations_stopped(self, sp: SamplingPair, theta: np.ndarray,
                                    ranges: tuple[float, float], tolerance: float,
                                    failure_prob: float, cap: int,
                                    rng: np.random.Generator) -> tuple[float, int]:
        """(v_hat, n): the mean of :meth:`violation_summands` over n <= cap
        draws of each distribution, n chosen by an empirical-Bernstein
        stopping rule (Mnih, Szepesvári & Audibert, ICML 2008), and within
        ``tolerance`` of the total violation except with probability at most
        ``failure_prob`` when each side's summands lie in its range of
        ``ranges`` = (b_pair, b_state) and the cap is a Hoeffding count for
        their sum (the meta-algorithm's counts are).

        The draws come in stages, :data:`VIOLATION_BATCH` at a time, each side
        counted per table entry over all stages. Check j follows the stage that
        brings the draws to n_j = n_1 2^(j-1); n_1 = ceil(3 (b_pair + b_state) L_1 /
        tolerance) is the smallest n at which check 1 could pass at zero
        variance. At check j each side's mean is within
        sqrt(2 V L_j / n_j) + 3 b L_j / n_j of its expectation, V the side's
        empirical variance and L_j = ln(3 / delta_j), except with probability
        delta_j (Audibert, Munos & Szepesvári, TCS 2009, Theorem 1). The
        estimate stops at the first check where the two widths sum to at most
        ``tolerance`` and every drawn summand lies in [0, b] of its side; a
        check that cannot pass draws on, and the last stage ends at ``cap``,
        with no check.

        The split of delta = failure_prob: half to the estimate at the cap,
        whose Hoeffding bound 2 exp(-2 n eps^2 / (b_pair + b_state)^2) is at
        most delta / 2 at the meta-algorithm's counts with delta = its
        failure_prob / K, and a quarter to each side's checks, delta_j =
        delta 2^-j / 4 at check j, so L_j = ln(12 2^j / delta). A wrong
        estimate needs one of these bounds to fail: probability at most
        delta / 2 + 2 * delta / 4 = delta."""
        check_positive_int("cap", cap)
        bounds = np.asarray(ranges, dtype=float)
        totals = (np.zeros(self.model.num_pairs, dtype=np.int64),
                  np.zeros(self.model.num_states, dtype=np.int64))

        def log_term(j: int) -> float:  # L_j
            return math.log(12.0 * 2.0 ** j / failure_prob)

        n, check = 0, 0
        end = math.ceil(3.0 * bounds.sum() * log_term(1) / tolerance)
        while True:
            end = min(end, cap)
            for pairs, pair_counts, states, state_counts in _counted_draws(sp, rng, end - n):
                totals[0][pairs] += pair_counts
                totals[1][states] += state_counts
            n = end
            drawn = [counts.nonzero()[0] for counts in totals]
            weights = [counts[idx] for counts, idx in zip(totals, drawn)]
            terms = self.violation_terms(sp, theta, *drawn)
            sums = [fixed_dot(c, x) for c, x in zip(weights, terms)]
            if n == cap:
                break
            check += 1
            width, log_j = 0.0, log_term(check)
            for c, x, total, b in zip(weights, terms, sums, bounds):
                variance = fixed_dot(c, (x - total / n) ** 2) / n
                width += math.sqrt(2.0 * variance * log_j / n) + 3.0 * b * log_j / n
            if width <= tolerance and all(x.max() <= b for x, b in zip(terms, bounds)):
                break
            end = 2 * n
        return (sums[0] + sums[1]) / n, n


@dataclass
class SgdProblem:
    """Everything the generic loop needs to know about one surrogate;
    ``step(theta, rng, rate)`` is a fresh theta - rate * g before projection."""

    loss_phi: np.ndarray
    objective_offset: float
    step: Callable[[np.ndarray, np.random.Generator, float], np.ndarray]
    project: Callable[[np.ndarray], np.ndarray]
    violation_estimate: Callable[[np.ndarray, np.random.Generator], float]
    make_policy: Callable[[np.ndarray], Policy]


def draw(sp: SamplingPair, rng: np.random.Generator, m: int) -> tuple[np.ndarray, np.ndarray]:
    """m pair draws, then m state draws: the order every estimator draws in."""
    return sp.sample_pairs(rng, m), sp.sample_states(rng, m)


def distinct_counts(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of a nonempty 1-D integer array and how often
    each occurs, as ``np.unique(idx, return_counts=True)`` in fewer numpy calls."""
    idx = np.sort(idx)
    bounds = np.empty(idx.size + 1, dtype=bool)  # where a run of equal values starts or ends
    bounds[0] = bounds[-1] = True
    np.not_equal(idx[1:], idx[:-1], out=bounds[1:-1])
    edges = bounds.nonzero()[0]
    return idx[edges[:-1]], edges[1:] - edges[:-1]


def _counted_draws(sp: SamplingPair, rng: np.random.Generator, n: int):
    """n draws of each distribution, by :func:`draw` of :data:`VIOLATION_BATCH`
    at a time (the last batch may be smaller), each batch as (pairs, their
    counts, states, their counts) from :func:`distinct_counts`."""
    for start in range(0, n, VIOLATION_BATCH):
        pairs, states = draw(sp, rng, min(VIOLATION_BATCH, n - start))
        yield (*distinct_counts(pairs), *distinct_counts(states))


def make_buffered_step(surrogate: Surrogate, sp: SamplingPair, penalty: float):
    """Single-draw SGD step with block-presampled draws, for minibatch 1
    (:func:`make_minibatch_step` serves larger minibatches):
    ``step(theta, rng, rate)`` is a fresh array, bit for bit theta - rate * g.

    Each refill draws ``GRAD_BLOCK`` pairs and states in one :func:`draw`, so
    the draw stream is still fully determined by the rng, checks them with
    :meth:`Surrogate.draw_terms`, gathers their rows as dense blocks and
    computes per draw n_i = loss_phi - (penalty / q_pair) * row, the
    gradient with the negativity term active, and t_i = (penalty / q_state) *
    state_row. The first step of a block with a nonzero residual, and every
    later one whose rate is not the table's, writes (-rate) * (loss_phi ±
    t_i) and (-rate) * (n_i ± t_i) into one table from its draw to the end of
    the block, so a block at one rate takes one fill. A step with a nonzero
    residual returns theta + its table row, and one with a zero residual
    theta - base * rate. The IEEE operations are those of the per-step form,
    in its order, and theta + (-x) is theta - x exactly. A step is then two
    ``ndarray.dot`` calls (BLAS, half the call overhead of ``@``) and one
    vector add; one matrix-vector product, or sums over Python floats, would
    round otherwise.
    """
    loss_phi = surrogate.fs.loss_phi
    block = GRAD_BLOCK
    pos = block
    # (-table_rate) * (loss + t, loss - t, n + t, n - t) from the last fill's draw on
    table = np.empty((4 * block, loss_phi.size))
    quarters = table.reshape(4, block, -1)
    table_rate = rows = state_rows = neg_grads = state_terms = neg_occ = neg_res = None

    def refill(rng):
        nonlocal pos, table_rate, rows, state_rows, neg_grads, state_terms, neg_occ, neg_res
        pair_idx, state_idx = draw(sp, rng, block)
        q_pair, occ, q_state, res = surrogate.draw_terms(sp, pair_idx, state_idx)
        rows = surrogate.fs.rows(pair_idx)
        state_rows = _dense_rows(surrogate.state_operator, state_idx)
        neg_grads = loss_phi - (penalty / q_pair)[:, None] * rows
        state_terms = (penalty / q_state)[:, None] * state_rows
        # a rounded sum has the sign of the exact one, so occ + x < 0 exactly when x < -occ
        neg_occ, neg_res = (-occ).tolist(), (-res).tolist()
        pos, table_rate = 0, None

    def step(theta, rng, rate):
        nonlocal pos, table_rate
        if pos >= block:
            refill(rng)
        i, pos = pos, pos + 1
        k = i + 2 * block if rows[i].dot(theta) < neg_occ[i] else i
        state_dot = state_rows[i].dot(theta)
        if state_dot < neg_res[i]:
            k += block
        elif not state_dot > neg_res[i]:  # a zero residual: the base alone
            return theta - (loss_phi if k == i else neg_grads[i]) * rate
        if rate != table_rate:
            table_rate = rate
            for q, base in enumerate((loss_phi, loss_phi, neg_grads[i:], neg_grads[i:])):
                (np.subtract if q % 2 else np.add)(base, state_terms[i:], out=quarters[q, i:])
            quarters[:, i:] *= -rate
        return theta + table[k]

    return step


def make_minibatch_step(surrogate: Surrogate, sp: SamplingPair, penalty: float, m: int,
                        iterations: int):
    """SGD step over m draws per step, with block-presampled draws, for a run
    of ``iterations`` steps: ``step(theta, rng, rate)`` is a fresh array, bit
    for bit theta - rate * g, and a step past the run raises ParameterError.

    The steps read the blocks of :class:`_Refills`, whose draws are those of
    successive :func:`draw` calls on the first step's generator, and run
    :meth:`Surrogate.weighted_subgradient`, as
    :meth:`Surrogate.subgradient_estimate` does, so on the same draws the two
    give the same bits. A draw of probability zero raises at the refill that
    draws it. ``step.close()`` stops the refills.
    """
    refills, block = None, iter(())

    def step(theta, rng, rate):
        nonlocal refills, block
        terms = next(block, None)
        if terms is None:
            refills = refills or _Refills(surrogate, sp, rng, m, iterations)
            block = zip(*refills.next(rng))
            terms = next(block)
        update = surrogate.weighted_subgradient(penalty, theta, *terms)
        update *= -rate
        update += theta
        return update

    step.close = lambda: refills and refills.stop()
    return step


RING_SLOTS = 4  # slots of a forked fill's ring, which hold one refill in all
GATHERED = ("indptr", "indices", "data")  # a matrix's _row_gather arrays in a ring slot


def _ring_blocks(steps: int, iterations: int, slots: int) -> tuple[int, int]:
    """(steps per ring block, ring blocks of the run) for refills of ``steps``
    steps in a ring of ``slots`` slots: a 1 / slots refill each."""
    split = -(-steps // slots)
    return split, sum(-(-min(steps, iterations - s) // split) for s in range(0, iterations, steps))


def _fill(surrogate: Surrogate, sp: SamplingPair, rng: np.random.Generator, m: int,
          steps: int, split: int, iterations: int, ring: np.ndarray):
    """Draw, check and gather a minibatch run's refills into the slots of
    ``ring`` in turn, yielding each block's step count once it is written.
    A refill of up to ``steps`` steps is one :meth:`SamplingPair.sample_steps`
    and one support check (:meth:`Surrogate.draw_terms`); a block of up to
    ``split`` of its steps holds their 1 / q_pair, mu0, q_state and res_base
    and one :func:`_row_gather` each of their rows of Phi (0) and S (1)."""
    matrices = (surrogate.fs.phi, surrogate.state_operator)
    block = 0
    for start in range(0, iterations, steps):
        count = min(steps, iterations - start)
        pair_idx, state_idx = sp.sample_steps(rng, count, m)
        q_pair, occ, q_state, res = surrogate.draw_terms(sp, pair_idx, state_idx)
        for lo in range(0, count, split):
            hi = min(lo + split, count)
            slot = ring[block % len(ring)]
            for row, term in zip(slot["terms"], (1.0 / q_pair, occ, q_state, res)):
                row[:(hi - lo) * m] = term[lo:hi].ravel()
            for j, idx in enumerate((pair_idx, state_idx)):
                _row_gather(matrices[j], idx[lo:hi].ravel(),
                            [slot[name + str(j)] for name in GATHERED])
            block += 1
            yield hi - lo


class _Refills:
    """The ring blocks of a minibatch run, as :func:`_fill` writes them with
    the generator ``rng``, which ends in the same state on both paths.

    A run of more quarter refills than RING_SLOTS, where :func:`_may_fork`
    allows, forks a child that runs the fill ahead of the steps into a shared
    mapping of RING_SLOTS quarter-refill slots. Per block it sends ``(steps,
    error, state)``, with the generator's state at the last block or an
    error, and takes back each read slot it needs. Every other run fills a
    private slot of one refill in this process, when the steps reach it."""

    def __init__(self, surrogate: Surrogate, sp: SamplingPair, rng: np.random.Generator,
                 m: int, iterations: int):
        steps = min(max(1, MINIBATCH_BLOCK // m), iterations)
        forked = _ring_blocks(steps, iterations, RING_SLOTS)[1] > RING_SLOTS and _may_fork()
        slots = RING_SLOTS if forked else 1
        split, self.blocks = _ring_blocks(steps, iterations, slots)
        self.m, self.dim, self.done, self.failed, self.pipe = m, surrogate.fs.dim, 0, False, None
        fields = [("terms", float, (4, split * m))]
        for j, matrix in enumerate((surrogate.fs.phi, surrogate.state_operator)):
            n, width = split * m, int(np.diff(matrix.indptr).max(initial=0))
            fields += [(f"indptr{j}", matrix.indptr.dtype, n + 1),
                       (f"indices{j}", matrix.indptr.dtype, n * width),
                       (f"data{j}", matrix.dtype, n * width)]
        slot = np.dtype(fields, align=True)
        self.ring = np.frombuffer(mmap.mmap(-1, slots * slot.itemsize), slot)
        fill = _fill(surrogate, sp, rng, m, steps, split, iterations, self.ring)
        if not forked:
            self.fill, self.stop = fill, fill.close
            return
        import multiprocessing

        self.pipe, pipe = multiprocessing.Pipe()
        pid = os.fork()
        if pid:
            pipe.close()
            self.stop = weakref.finalize(self, _stop_child, pid)
            return
        try:
            gc.freeze()  # as in a meta worker: keep the inherited pages shared
            self.pipe.close()
            for block, count in enumerate(fill, 1):
                last = block == self.blocks
                pipe.send((count, None, rng.bit_generator.state if last else None))
                if RING_SLOTS <= block < self.blocks:
                    pipe.recv_bytes()  # the consumer has read the slot the next block takes
        except Exception as exc:
            pipe.send((0, exc, rng.bit_generator.state))
        finally:
            os._exit(0)

    def next(self, rng: np.random.Generator):
        """The next ring block's per-step arguments of
        :meth:`Surrogate.weighted_subgradient`; with the last forked block,
        ``rng`` takes the child's final state. Once a block raised, every call
        raises ParameterError naming it."""
        k = self.done
        if self.failed:
            raise ParameterError(f"a step after ring block {k} of {self.blocks} raised")
        if k == self.blocks:
            raise ParameterError("a step past the end of the minibatch run")
        self.failed = True  # until block k is read
        if self.pipe is None:
            count, slot = next(self.fill), self.ring[0]
        else:
            try:
                if 0 < k <= self.blocks - RING_SLOTS:
                    with contextlib.suppress(ConnectionError):  # a child that raised has left
                        self.pipe.send_bytes(b"")  # block k - 1 is read; the child needs its slot
                count, error, state = self.pipe.recv()
            except (EOFError, OSError) as exc:
                self.stop()
                raise DualAlpError(f"the refill producer ended before ring block {k} of "
                                   f"{self.blocks}") from exc
            slot = self.ring[k % RING_SLOTS]
            if state is not None:
                rng.bit_generator.state = state
                self.stop()
                self.ring = None  # the mapping goes with the last block's views
            if error is not None:
                raise error
        self.done, self.failed = k + 1, False
        n = count * self.m
        pair_rows, state_rows = (
            _step_views(*(slot[name + str(j)] for name in GATHERED), self.m, self.dim, n)
            for j in (0, 1))
        inv_q_pair, occ, q_state, res = slot["terms"][:, :n].reshape(4, count, self.m)
        return pair_rows, occ, inv_q_pair, state_rows, res, q_state


def _stop_child(pid: int) -> None:
    """Kill and reap a forked child."""
    with contextlib.suppress(ProcessLookupError, ChildProcessError):
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def resolve_learning_rate(learning_rate, radius: float, penalty: float,
                          c_pair: float, c_state: float, dim: int,
                          iterations: int) -> float:
    """"auto" resolves to radius / (grad-norm bound * sqrt(T))."""
    if learning_rate == "auto":
        bound = math.sqrt(dim) + penalty * (c_pair + c_state)
        return radius / (bound * math.sqrt(iterations))
    return float(learning_rate)


def run_projected_sgd(problem: SgdProblem, iterations: int, learning_rate: float,
                      seed, lr_halving_period: int | None = None,
                      trace_stride: int | None = None, eval_hook=None) -> RunTrace:
    """Run theta_{t+1} = project(theta_t - eta_t * mean-of-minibatch gradient)
    from theta_1 = 0 and return the trace of the running average.

    ``problem.step(theta, rng, rate)`` is theta_t - eta_t * g before the
    projection (:class:`SgdProblem`).
    ``eval_hook(policy) -> float`` is called at recorded rows only, with the
    policy of the running average.
    Raises ConvergenceError, naming t, when the running average is non-finite
    at a recorded row, and ParameterError when a positive rate would fall
    below the smallest normal float (``sys.float_info.min``) by the last
    step: such steps cannot move theta, or run on subnormals.
    """
    check_positive_int("iterations", iterations)
    check_halving_period(lr_halving_period)
    halvings = (iterations - 1) // (lr_halving_period or iterations)
    if learning_rate > 0 and learning_rate * 2.0 ** -halvings < np.finfo(float).tiny:
        raise ParameterError(f"the learning rate {learning_rate!r} halved {halvings} times "
                             f"falls below the smallest normal float")
    ss_grad, ss_trace = as_seed_sequence(seed).spawn(2)
    rng = np.random.default_rng(ss_grad)
    rng_trace = np.random.default_rng(ss_trace)
    stride = trace_stride if trace_stride else max(1, iterations // 1000)
    theta = np.zeros(problem.loss_phi.size)
    theta_sum = np.zeros(problem.loss_phi.size)
    rec_t, rec_obj, rec_vhat, rec_cost = [], [], [], []
    step, project = problem.step, problem.project
    for t in range(1, iterations + 1):
        theta_sum += theta
        if t % stride == 0 or t == iterations:
            theta_bar = theta_sum / t
            # the last iteration is always recorded, so this also covers theta_hat
            if not np.isfinite(theta_bar).all():
                raise ConvergenceError(f"non-finite iterate average at t={t}")
            rec_t.append(t)
            rec_obj.append(problem.objective_offset + float(problem.loss_phi @ theta_bar))
            rec_vhat.append(problem.violation_estimate(theta_bar, rng_trace))
            if eval_hook is not None:
                rec_cost.append(float(eval_hook(problem.make_policy(theta_bar))))
            else:
                rec_cost.append(math.nan)
        if lr_halving_period:
            rate = learning_rate * 2.0 ** (-((t - 1) // lr_halving_period))
        else:
            rate = learning_rate
        theta = project(step(theta, rng, rate))
    theta_hat = theta_sum / iterations
    return RunTrace(iterations=np.asarray(rec_t, dtype=np.int64),
                    objective=np.asarray(rec_obj),
                    v_hat=np.asarray(rec_vhat),
                    eval_cost=np.asarray(rec_cost),
                    theta=theta_hat,
                    policy=problem.make_policy(theta_hat))


def sgd_solve(surrogate: Surrogate, sp: SamplingPair, cfg, run, project,
              violation_estimate, eval_hook=None) -> RunTrace:
    """One projected SGD run of ``cfg`` on the surrogate from theta_1 = 0.

    The steps come from :func:`make_buffered_step` at minibatch 1 and from
    :func:`make_minibatch_step` at every larger minibatch; both presample
    their draws in blocks, and both give the iterates of a per-step
    estimator bit for bit. ``run`` is :func:`run_projected_sgd`,
    and ``project`` and ``violation_estimate`` call the projection and the
    violation estimator, as the calling solver module looks them up, so
    wrappers installed on that module see every call.
    """
    fs = surrogate.fs
    if cfg.minibatch == 1:
        step = make_buffered_step(surrogate, sp, cfg.penalty)
    else:
        step = make_minibatch_step(surrogate, sp, cfg.penalty, cfg.minibatch, cfg.iterations)

    def make_policy(theta):
        return policy_from_occupancy(fs.occupancy_vector(theta), surrogate.model.num_actions)

    problem = SgdProblem(loss_phi=fs.loss_phi,
                         objective_offset=fs.loss_mu0, step=step,
                         project=project, violation_estimate=violation_estimate,
                         make_policy=make_policy)
    rate = resolve_learning_rate(cfg.learning_rate, cfg.radius, cfg.penalty,
                                 sp.c_pair, sp.c_state, fs.dim, cfg.iterations)
    try:
        return run(problem, cfg.iterations, rate, cfg.seed,
                   lr_halving_period=cfg.lr_halving_period, trace_stride=cfg.trace_stride,
                   eval_hook=eval_hook)
    finally:
        if cfg.minibatch > 1:
            step.close()  # a run that raised may have left a refill producer running


def _cpu_count() -> int:
    """CPUs this process may run on; ``taskset`` narrows them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _may_fork() -> bool:
    """The one rule for forking (meta points, simulated replications, minibatch
    refills): two usable CPUs or more, the fork start method, not a daemonic
    process (a pool worker cannot have children) and no other Python thread
    (a lock one of them holds would stay held in the forked copy)."""
    import multiprocessing  # here, so that runs that never fork do not load it

    return (_cpu_count() >= 2 and "fork" in multiprocessing.get_all_start_methods()
            and not multiprocessing.current_process().daemon
            and threading.active_count() == 1)


_worker_point = None  # the per-point function a forked worker inherits


def _init_worker(point) -> None:
    global _worker_point
    _worker_point = point
    # the objects inherited from the parent stay out of the worker's collections,
    # which would otherwise write to, and so copy, every page that holds them
    gc.freeze()


def _run_worker_point(k: int):
    return k, _worker_point(k)


def _map_points(point, order: list[int]) -> dict:
    """``{k: point(k)}`` for every index of ``order``: the grid points of
    :func:`meta_loop` and the replications of
    :func:`dualalp.queueing.evaluate_policy_simulated`.

    With one point, or where :func:`_may_fork` refuses, the points run in a
    plain loop in index order. Otherwise they run in a forked pool of up to
    one worker per CPU, which takes them in the given order: the workers
    inherit ``point`` instead of unpickling it, so only indices go out and
    only results, or a raised exception, come back.
    """
    if len(order) < 2 or not _may_fork():
        return {k: point(k) for k in sorted(order)}
    import multiprocessing

    context = multiprocessing.get_context("fork")
    with context.Pool(min(len(order), _cpu_count()), initializer=_init_worker,
                      initargs=(point,)) as pool:
        return dict(pool.imap_unordered(_run_worker_point, order))


def meta_loop(grid, seed, loss_phi: np.ndarray, n_violation: int, run_count, solve,
              estimate, horizon: float = 0.0, scale: float = 1.0) -> MetaResult:
    """Solve at every penalty H of the grid and select the point minimizing

        linear objective + (H + horizon) * estimated violation + weight / (H * scale).

    ``run_count(H)`` gives the iterations of a point, ``solve(H, iterations,
    seed)`` runs it and ``estimate(theta, rng)`` estimates its violation,
    returning (v_hat, draws per side) with draws at most ``n_violation``, the
    cap the result reports. Per-point seeds derive deterministically from the master
    seed, so every point is independent of the others and is dispatched to
    worker processes (see :func:`_map_points`), longest run first; the result
    does not depend on the number of workers. Ties in the selection go to the
    lowest grid index.
    """
    seeds = as_seed_sequence(seed).spawn(len(grid))
    penalties = [float(penalty) for penalty in grid.points]
    run_counts = [run_count(penalty) for penalty in penalties]

    def solve_point(k):
        run_ss, est_ss = seeds[k].spawn(2)
        trace = solve(penalties[k], run_counts[k], run_ss)
        return (trace, float(loss_phi @ trace.theta),
                *estimate(trace.theta, np.random.default_rng(est_ss)))

    longest_first = sorted(range(len(penalties)), key=lambda k: -run_counts[k])
    by_index = _map_points(solve_point, longest_first)
    traces, lin_objs, v_hats, draws = zip(*(by_index[k] for k in range(len(penalties))))
    points = np.asarray(grid.points, dtype=float)
    lin_objs = np.asarray(lin_objs)
    v_hats = np.asarray(v_hats, dtype=float)
    selection = lin_objs + (points + horizon) * v_hats + grid.weight / (points * scale)
    chosen = int(np.argmin(selection))
    return MetaResult(grid_points=points, selection_weight=grid.weight, traces=list(traces),
                      linear_objectives=lin_objs, violation_estimates=v_hats,
                      selection_values=selection, chosen_index=chosen,
                      theta=traces[chosen].theta, policy=traces[chosen].policy,
                      iterations_per_point=np.asarray(run_counts, dtype=np.int64),
                      violation_samples=n_violation,
                      violation_draws=np.asarray(draws, dtype=np.int64))

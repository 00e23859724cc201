"""Four-queue, two-server network benchmark.

Queues are indexed 0..3. Server 1 serves queue 0 or 3, server 2 serves queue 1
or 2, and neither server idles. Jobs arrive at queues 0 and 2; a departure from
queue 0 feeds queue 1, a departure from queue 2 feeds queue 3, and queues 1 and
3 leave the system. Per step, arrivals and the two in-service departures are
independent Bernoulli draws; the summed update is clamped componentwise into
[0, B_i], and a departure drawn at an empty served queue moves nothing (so an
idle network stays empty). The per-step loss is the total queue length.

Joint actions are flattened as a = 2*i + j with i the server-1 choice
(0 -> queue 0, 1 -> queue 3) and j the server-2 choice (0 -> queue 1,
1 -> queue 2). States are flattened mixed-radix with queue 0 least significant.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import product

import numpy as np
import scipy.sparse as sp

from .errors import CapacityError, InputShapeError, ParameterError
from .features import FeatureSpace
from .mdp import DENSE_GUARD, MdpModel, Policy, stationary_state_action

logger = logging.getLogger(__name__)

NUM_ACTIONS = 4
SERVER1_CHOICES = (0, 3)
SERVER2_CHOICES = (1, 2)
# departure from queue k moves a job downstream (or out of the system)
DEPARTURE_EFFECTS = {
    0: ((0, -1), (1, +1)),
    1: ((1, -1),),
    2: ((2, -1), (3, +1)),
    3: ((3, -1),),
}


@dataclass(frozen=True)
class QueueNetSpec:
    """Buffer capacities, arrival probabilities (queues 0 and 2) and service
    probabilities (all four queues)."""

    buffers: tuple[int, int, int, int]
    arrival_probs: tuple[float, float]
    service_probs: tuple[float, float, float, float]

    def __post_init__(self):
        if len(self.buffers) != 4 or any(b < 1 for b in self.buffers):
            raise ParameterError("four buffer capacities >= 1 required")
        probs = tuple(self.arrival_probs) + tuple(self.service_probs)
        if len(self.arrival_probs) != 2 or len(self.service_probs) != 4:
            raise ParameterError("two arrival and four service probabilities required")
        if any(not 0.0 <= p <= 1.0 for p in probs):
            raise ParameterError("probabilities must lie in [0, 1]")

    @property
    def num_states(self) -> int:
        n = 1
        for b in self.buffers:
            n *= b + 1
        return n

    @property
    def total_capacity(self) -> int:
        return sum(self.buffers)


PAPER_SPEC = QueueNetSpec(buffers=(38, 25, 25, 38), arrival_probs=(0.08, 0.08),
                          service_probs=(0.12, 0.12, 0.28, 0.28))
DESK_SPEC = QueueNetSpec(buffers=(9, 6, 6, 9), arrival_probs=(0.08, 0.08),
                         service_probs=(0.12, 0.12, 0.28, 0.28))

# integer-inclusive buckets of total queue length
PAPER_LOSS_INTERVALS = tuple((5 * k + 1, 5 * k + 5) for k in range(10))
DESK_LOSS_INTERVALS = tuple((5 * k + 1, 5 * k + 5) for k in range(6))
# integer-inclusive buckets of individual queue lengths
PAPER_COMPONENT_INTERVALS = ((0, 10), (11, 20), (21, 25))
DESK_COMPONENT_INTERVALS = ((0, 3), (4, 6), (7, 9))


def served_queues(action: int) -> tuple[int, int]:
    """Queue indices attended by (server 1, server 2) under a joint action."""
    if not 0 <= action < NUM_ACTIONS:
        raise InputShapeError(f"action {action} out of range")
    return SERVER1_CHOICES[action // 2], SERVER2_CHOICES[action % 2]


def encode_state(spec: QueueNetSpec, lengths) -> int:
    """Mixed-radix flat index of four queue lengths (queue 0 least significant)."""
    idx = 0
    for k in (3, 2, 1, 0):
        length = int(lengths[k])
        if not 0 <= length <= spec.buffers[k]:
            raise InputShapeError(f"queue {k} length {length} outside [0, {spec.buffers[k]}]")
        idx = idx * (spec.buffers[k] + 1) + length
    return idx


def decode_state(spec: QueueNetSpec, idx: int) -> tuple[int, int, int, int]:
    if not 0 <= idx < spec.num_states:
        raise InputShapeError(f"state index {idx} out of range")
    lengths = []
    for k in range(4):
        radix = spec.buffers[k] + 1
        lengths.append(idx % radix)
        idx //= radix
    return tuple(lengths)


def _all_states(spec: QueueNetSpec) -> np.ndarray:
    """(X, 4) table of queue lengths in flat-index order."""
    idx = np.arange(spec.num_states)
    out = np.empty((spec.num_states, 4), dtype=np.int64)
    for k in range(4):
        radix = spec.buffers[k] + 1
        out[:, k] = idx % radix
        idx = idx // radix
    return out


def _encode_array(spec: QueueNetSpec, lengths: np.ndarray) -> np.ndarray:
    idx = np.zeros(len(lengths), dtype=np.int64)
    for k in (3, 2, 1, 0):
        idx = idx * (spec.buffers[k] + 1) + lengths[:, k]
    return idx


def _outcome_probs(spec: QueueNetSpec, action: int):
    """All (probability, draws) pairs of the 2^4 Bernoulli outcomes under an
    action: two arrivals plus the two in-service departure draws."""
    a1, a3 = spec.arrival_probs
    q_s1, q_s2 = served_queues(action)
    d_s1, d_s2 = spec.service_probs[q_s1], spec.service_probs[q_s2]
    for arr1, arr3, dep1, dep2 in product((0, 1), repeat=4):
        prob = ((a1 if arr1 else 1.0 - a1) * (a3 if arr3 else 1.0 - a3)
                * (d_s1 if dep1 else 1.0 - d_s1) * (d_s2 if dep2 else 1.0 - d_s2))
        if prob > 0.0:
            yield prob, (arr1, arr3, dep1, dep2)


def build_mdp(spec: QueueNetSpec, loss_mode: str = "normalized") -> MdpModel:
    """Exact MDP of the network. Loss is the total queue length, divided by the
    total capacity when loss_mode="normalized" (so it lies in [0, 1]); "raw"
    keeps the unnormalized count (such models are for exact evaluation, not for
    the solvers, whose losses must lie in [0, 1])."""
    if loss_mode not in ("normalized", "raw"):
        raise ParameterError(f"unknown loss_mode {loss_mode!r}")
    num_states = spec.num_states
    if num_states * NUM_ACTIONS > DENSE_GUARD:
        raise CapacityError(
            f"exact network MDP needs num_states*num_actions <= {DENSE_GUARD}; "
            f"got {num_states * NUM_ACTIONS}")
    states = _all_states(spec)
    caps = np.asarray(spec.buffers, dtype=np.int64)
    rows, cols, data = [], [], []
    state_idx = np.arange(num_states, dtype=np.int64)
    for action in range(NUM_ACTIONS):
        q_s1, q_s2 = served_queues(action)
        for prob, (arr1, arr3, dep1, dep2) in _outcome_probs(spec, action):
            bumped = states.copy()
            bumped[:, 0] += arr1
            bumped[:, 2] += arr3
            # a departure moves a job only if the served queue held one
            if dep1:
                busy = states[:, q_s1] > 0
                for queue, change in DEPARTURE_EFFECTS[q_s1]:
                    bumped[busy, queue] += change
            if dep2:
                busy = states[:, q_s2] > 0
                for queue, change in DEPARTURE_EFFECTS[q_s2]:
                    bumped[busy, queue] += change
            np.clip(bumped, 0, caps, out=bumped)
            rows.append(state_idx * NUM_ACTIONS + action)
            cols.append(_encode_array(spec, bumped))
            data.append(np.full(num_states, prob))
    trans = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(num_states * NUM_ACTIONS, num_states))
    totals = states.sum(axis=1).astype(float)
    loss = np.repeat(totals, NUM_ACTIONS)
    loss_bounded = loss_mode == "normalized"
    if loss_bounded:
        loss = loss / spec.total_capacity
    return MdpModel.create(num_states, NUM_ACTIONS, trans, loss,
                           check_loss_range=loss_bounded)


def step(spec: QueueNetSpec, lengths, action: int,
         rng: np.random.Generator) -> tuple[int, int, int, int]:
    """One stochastic transition. Always consumes four uniforms (arrival at
    queue 0, arrival at queue 2, departure at each served queue), so the draw
    stream is fixed regardless of outcome."""
    q_s1, q_s2 = served_queues(action)
    u = rng.random(4)
    new = [int(v) for v in lengths]
    if u[0] < spec.arrival_probs[0]:
        new[0] += 1
    if u[1] < spec.arrival_probs[1]:
        new[2] += 1
    if u[2] < spec.service_probs[q_s1] and lengths[q_s1] > 0:
        for queue, change in DEPARTURE_EFFECTS[q_s1]:
            new[queue] += change
    if u[3] < spec.service_probs[q_s2] and lengths[q_s2] > 0:
        for queue, change in DEPARTURE_EFFECTS[q_s2]:
            new[queue] += change
    return tuple(min(max(v, 0), cap) for v, cap in zip(new, spec.buffers))


def heuristic_policy(spec: QueueNetSpec, kind: str) -> Policy:
    """LONGER serves the longer eligible queue (ties split 0.5/0.5); LBFS gives
    the downstream queue priority unless it is empty."""
    states = _all_states(spec)
    if kind == "LONGER":
        # server 1 compares queues 0 and 3, server 2 compares queues 1 and 2
        p1_first = np.where(states[:, 0] > states[:, 3], 1.0,
                            np.where(states[:, 0] < states[:, 3], 0.0, 0.5))
        p2_first = np.where(states[:, 1] > states[:, 2], 1.0,
                            np.where(states[:, 1] < states[:, 2], 0.0, 0.5))
    elif kind == "LBFS":
        # downstream queues are 3 (for server 1) and 1 (for server 2)
        p1_first = np.where(states[:, 3] == 0, 1.0, 0.0)
        p2_first = np.where(states[:, 1] == 0, 0.0, 1.0)
    else:
        raise ParameterError(f"unknown heuristic {kind!r}")
    probs = np.empty((spec.num_states, NUM_ACTIONS))
    for action in range(NUM_ACTIONS):
        i, j = action // 2, action % 2
        p_i = p1_first if i == 0 else 1.0 - p1_first
        p_j = p2_first if j == 0 else 1.0 - p2_first
        probs[:, action] = p_i * p_j
    return Policy(probs)


def heuristic_stationary_trajectory(spec: QueueNetSpec, policy: Policy,
                                    length: int = 10**6, burn_in: int = 10**4,
                                    seed: int = 0) -> np.ndarray:
    """State-action visit frequencies of a policy from one long trajectory
    (the full-scale substitute for the exact stationary solve of
    :func:`dualalp.mdp.stationary_distribution`)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    counts = np.zeros(spec.num_states * NUM_ACTIONS)
    lengths = (0, 0, 0, 0)
    for t in range(burn_in + length):
        idx = encode_state(spec, lengths)
        row = policy.probs[idx]
        action = int(np.searchsorted(np.cumsum(row), rng.random(), side="right"))
        action = min(action, NUM_ACTIONS - 1)
        if t >= burn_in:
            counts[idx * NUM_ACTIONS + action] += 1.0
        lengths = step(spec, lengths, action, rng)
    return counts / counts.sum()


def build_features(spec: QueueNetSpec, model: MdpModel | None = None,
                   heuristics: tuple[str, ...] = ("LONGER", "LBFS"),
                   loss_intervals=DESK_LOSS_INTERVALS,
                   component_intervals=DESK_COMPONENT_INTERVALS,
                   stationary_mode: str = "exact", normalize: bool = True,
                   mu0: np.ndarray | None = None, sim_length: int = 10**6,
                   sim_burn_in: int = 10**4, seed: int = 0,
                   tol: float = 1e-10) -> tuple[FeatureSpace, list[str]]:
    """Indicator features over total-length buckets and per-queue bucket
    4-tuples (both crossed with the action), plus one stationary state-action
    distribution column per heuristic. Empty indicator columns are dropped;
    their names are returned alongside the feature space.

    Intervals are inclusive integer (lo, hi) pairs; the defaults fit the desk
    preset and should be overridden for other buffer sizes.
    """
    if model is None:
        model = build_mdp(spec)
    states = _all_states(spec)
    totals = states.sum(axis=1)
    num_pairs = spec.num_states * NUM_ACTIONS
    columns, names, dropped = [], [], []

    def add_indicator(state_mask: np.ndarray, action: int, name: str):
        col = np.zeros(num_pairs)
        col[np.flatnonzero(state_mask) * NUM_ACTIONS + action] = 1.0
        if col.sum() == 0.0:
            dropped.append(name)
            return
        columns.append(sp.csr_matrix(col.reshape(-1, 1)))
        names.append(name)

    for lo, hi in loss_intervals:
        mask = (totals >= lo) & (totals <= hi)
        for action in range(NUM_ACTIONS):
            add_indicator(mask, action, f"loss[{lo}-{hi}]/a{action}")
    for combo in product(range(len(component_intervals)), repeat=4):
        mask = np.ones(spec.num_states, dtype=bool)
        for queue, bucket in enumerate(combo):
            lo, hi = component_intervals[bucket]
            mask &= (states[:, queue] >= lo) & (states[:, queue] <= hi)
        label = ",".join(str(b) for b in combo)
        for action in range(NUM_ACTIONS):
            add_indicator(mask, action, f"tuple[{label}]/a{action}")
    for kind in heuristics:
        policy = heuristic_policy(spec, kind)
        if stationary_mode == "exact":
            col = stationary_state_action(model, policy, tol=tol)
        elif stationary_mode == "trajectory":
            col = heuristic_stationary_trajectory(spec, policy, length=sim_length,
                                                  burn_in=sim_burn_in, seed=seed)
        else:
            raise ParameterError(f"unknown stationary_mode {stationary_mode!r}")
        columns.append(sp.csr_matrix(col.reshape(-1, 1)))
        names.append(f"stationary/{kind}")
    if dropped:
        logger.warning("dropped %d empty feature columns: %s", len(dropped),
                       ", ".join(dropped[:8]) + ("..." if len(dropped) > 8 else ""))
    phi = sp.hstack(columns, format="csr")
    fs = FeatureSpace(model, phi, mu0=mu0, normalize=normalize, names=names)
    return fs, dropped


def evaluate_policy_simulated(spec: QueueNetSpec, policy: Policy, horizon: int,
                              burn_in: int, reps: int, seed: int = 0) -> tuple[float, float]:
    """Mean raw total queue length over ``reps`` independent trajectories,
    averaging steps after ``burn_in`` (trajectories start empty). Returns the
    across-rep mean and the sample standard deviation of the per-rep means."""
    if horizon <= burn_in:
        raise ParameterError("horizon must exceed burn_in")
    if reps < 1:
        raise ParameterError("reps must be >= 1")
    rep_seeds = np.random.SeedSequence(seed).spawn(reps)
    cums = np.cumsum(policy.probs, axis=1)
    per_rep = np.empty(reps)
    for r in range(reps):
        rng = np.random.default_rng(rep_seeds[r])
        lengths = (0, 0, 0, 0)
        total = 0.0
        for t in range(horizon):
            idx = encode_state(spec, lengths)
            action = int(np.searchsorted(cums[idx], rng.random(), side="right"))
            action = min(action, NUM_ACTIONS - 1)
            if t >= burn_in:
                total += sum(lengths)
            lengths = step(spec, lengths, action, rng)
        per_rep[r] = total / (horizon - burn_in)
    mean = float(per_rep.mean())
    std = float(per_rep.std(ddof=1)) if reps > 1 else 0.0
    return mean, std

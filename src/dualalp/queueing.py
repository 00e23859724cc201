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
from itertools import compress, product

import numpy as np
import scipy.sparse as sp

from ._sgd import _map_points, as_seed_sequence
from .errors import CapacityError, InputShapeError, ParameterError
from .features import FeatureSpace
from .mdp import (DENSE_GUARD, MdpModel, Policy, check_index, is_integer, is_number,
                  stationary_state_action)

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


def _has_length(value, n: int) -> bool:
    """A collection of n entries (a number, None or a 0-d array has no length)."""
    try:
        return len(value) == n
    except TypeError:
        return False


@dataclass(frozen=True)
class QueueNetSpec:
    """Buffer capacities, arrival probabilities (queues 0 and 2) and service
    probabilities (all four queues)."""

    buffers: tuple[int, int, int, int]
    arrival_probs: tuple[float, float]
    service_probs: tuple[float, float, float, float]

    def __post_init__(self):
        if not _has_length(self.buffers, 4) or not all(is_integer(b) and b >= 1
                                                       for b in self.buffers):
            raise ParameterError(f"four integer buffer capacities >= 1 required, "
                                 f"got {self.buffers!r}")
        if not (_has_length(self.arrival_probs, 2) and _has_length(self.service_probs, 4)):
            raise ParameterError("two arrival and four service probabilities required")
        probs = tuple(self.arrival_probs) + tuple(self.service_probs)
        if not all(is_number(p) and 0.0 <= p <= 1.0 for p in probs):
            raise ParameterError(f"probabilities must be numbers in [0, 1], got {probs!r}")

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
    check_index("action", action, NUM_ACTIONS)
    return SERVER1_CHOICES[action // 2], SERVER2_CHOICES[action % 2]


def encode_state(spec: QueueNetSpec, lengths) -> int:
    """Mixed-radix flat index of four queue lengths (queue 0 least significant).
    Each length is a Python or numpy integer; a bool or a float is refused."""
    if len(lengths) != 4:
        raise InputShapeError(f"four queue lengths required, got {len(lengths)}")
    idx = 0
    for k in (3, 2, 1, 0):
        radix = spec.buffers[k] + 1
        idx = idx * radix + check_index(f"queue {k} length", lengths[k], radix)
    return idx


def decode_state(spec: QueueNetSpec, idx: int) -> tuple[int, int, int, int]:
    """The four queue lengths of a flat state index, a Python or numpy integer."""
    check_index("state index", idx, spec.num_states)
    return tuple(int(v) for v in _decode_array(spec, [idx])[0])


def _decode_array(spec: QueueNetSpec, idx) -> np.ndarray:
    """(n, 4) table of the queue lengths of flat state indices."""
    idx = np.asarray(idx, dtype=np.int64)
    out = np.empty((len(idx), 4), dtype=np.int64)
    for k in range(4):
        radix = spec.buffers[k] + 1
        out[:, k] = idx % radix
        idx = idx // radix
    return out


def _all_states(spec: QueueNetSpec) -> np.ndarray:
    """(X, 4) table of queue lengths in flat-index order."""
    return _decode_array(spec, np.arange(spec.num_states))


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


def build_mdp(spec: QueueNetSpec) -> MdpModel:
    """Exact MDP of the network. Loss is the total queue length divided by the
    total capacity, so it lies in [0, 1]; multiply an exact cost by
    ``spec.total_capacity`` for queue lengths."""
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
            for served, departs in ((q_s1, dep1), (q_s2, dep2)):
                if departs:
                    busy = states[:, served] > 0
                    for queue, change in DEPARTURE_EFFECTS[served]:
                        bumped[busy, queue] += change
            np.clip(bumped, 0, caps, out=bumped)
            rows.append(state_idx * NUM_ACTIONS + action)
            cols.append(_encode_array(spec, bumped))
            data.append(np.full(num_states, prob))
    trans = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(num_states * NUM_ACTIONS, num_states))
    totals = states.sum(axis=1).astype(float)
    loss = np.repeat(totals, NUM_ACTIONS) / spec.total_capacity
    return MdpModel.create(num_states, NUM_ACTIONS, trans, loss)


def step(spec: QueueNetSpec, lengths, action: int,
         rng: np.random.Generator) -> tuple[int, int, int, int]:
    """One stochastic transition. Always consumes four uniforms (arrival at
    queue 0, arrival at queue 2, departure at each served queue), so the draw
    stream is fixed regardless of outcome; on a trajectory they follow the
    uniform that picks the step's action. :func:`_visited_pairs` inlines this
    transition, and the tests check the two against each other."""
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
    the downstream queue priority unless it is empty.

    Each server's first-choice probability is 1, 0.5 or 0, so a row is one of
    nine row types, the products p_i * p_j of every pair of those values. The
    table is gathered from them in one contiguous pass over the state code
    ``3 * k1 + k2``, with k1 and k2 the servers' indices into (1, 0.5, 0)."""
    # one axis per queue, in the C order (x3, x2, x1, x0) of the flat index
    shape = tuple(b + 1 for b in reversed(spec.buffers))
    x3, x2, x1, x0 = np.ix_(*map(np.arange, shape))
    if kind == "LONGER":
        # server 1 compares queues 0 and 3, server 2 compares queues 1 and 2
        k1 = 1 + np.sign(x3 - x0)
        k2 = 1 + np.sign(x2 - x1)
    elif kind == "LBFS":
        # downstream queues are 3 (for server 1) and 1 (for server 2)
        k1 = 2 * (x3 != 0)
        k2 = 2 * (x1 == 0)
    else:
        raise ParameterError(f"unknown heuristic {kind!r}")
    first = np.array([1.0, 0.5, 0.0])
    p1_first, p2_first = first[:, None], first[None, :]
    row_types = np.empty((3, 3, NUM_ACTIONS))
    for action in range(NUM_ACTIONS):
        i, j = action // 2, action % 2
        p_i = p1_first if i == 0 else 1.0 - p1_first
        p_j = p2_first if j == 0 else 1.0 - p2_first
        np.multiply(p_i, p_j, out=row_types[..., action])
    # out= broadcasts to every state the LBFS codes, which read two queues only
    code = np.empty(shape, dtype=np.intp)
    np.add(3 * k1, k2, out=code)
    probs = row_types.reshape(9, NUM_ACTIONS).take(code, axis=0)
    return Policy(probs.reshape(spec.num_states, NUM_ACTIONS))


def _check_trajectory(spec: QueueNetSpec, policy: Policy, steps, burn_in) -> None:
    """Integer ``steps`` and ``burn_in`` with ``0 <= burn_in < steps``, and a policy
    table of this network."""
    for name, value in (("horizon", steps), ("burn_in", burn_in)):
        if not is_integer(value):
            raise ParameterError(f"{name} must be an integer, got {value!r}")
    if not 0 <= burn_in < steps:
        raise ParameterError(f"horizon must exceed burn_in >= 0 (got {steps}, {burn_in})")
    if policy.probs.shape != (spec.num_states, NUM_ACTIONS):
        raise InputShapeError(f"policy shape {policy.probs.shape} does not fit the network")


def _visited_pairs(spec: QueueNetSpec, policy: Policy, steps: int, burn_in: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Pair indices x*A + a visited after ``burn_in`` on one ``steps``-step trajectory
    from the empty network: the simulator's one trajectory loop. Per step, one uniform
    picks the action from the policy row, then four drive the transition of
    :func:`step`, which this loop inlines on the queue lengths and the flat index.

    The four transition uniforms of a block of steps are compared with the
    probabilities in one numpy pass, by the strict ``<`` of :func:`step`, into an
    event code per step: bit 0 an arrival at queue 0, bit 1 one at queue 2, bits 2
    and 3 a departure drawn for queue 0 or 3 (server 1), bits 4 and 5 one for queue
    1 or 2 (server 2). A step whose code is 0 leaves the state as it is under
    every action (44 % of the steps of the presets), and the action moves a job
    only through a departure bit, so Python runs only on the steps with an event
    and picks the action only on those with a departure drawn. Every step's
    action is then picked in one numpy pass over the block from the row it was
    in, by the same additions in the same order, so the two picks agree bit for
    bit. The policy rows are read through a memoryview of the pair-indexed table
    and by indexing it, both of which follow its strides whatever its layout.
    A 100k-step paper trajectory, LBFS or LONGER, takes 0.36-0.66 us per step
    on a 2-vCPU host."""
    _check_trajectory(spec, policy, steps, burn_in)
    # uniforms come in bounded blocks of rows of five, the order of rng.random()
    # then rng.random(4) per step
    block = 4096
    flat = policy.flat()
    probs = memoryview(flat)
    arrive0, arrive2 = spec.arrival_probs
    serve0, serve1, serve2, serve3 = spec.service_probs
    # the transition column each event bit reads, and its probability
    columns = [1, 2, 3, 3, 4, 4]
    thresholds = np.array([arrive0, arrive2, serve0, serve3, serve1, serve2])
    cap0, cap1, cap2, cap3 = spec.buffers
    # row = x*A, the pair index of the state's first action, from the queue lengths
    stride0 = NUM_ACTIONS
    stride1 = stride0 * (cap0 + 1)
    stride2 = stride1 * (cap1 + 1)
    stride3 = stride2 * (cap2 + 1)
    visited = np.empty(steps, dtype=np.int64)
    x0 = x1 = x2 = x3 = row = 0
    for start in range(0, steps, block):
        n = min(block, steps - start)
        draws = rng.random((n, 5))
        codes = np.packbits(draws[:, columns] < thresholds, axis=1, bitorder="little")[:, 0]
        events = codes.nonzero()[0]
        # the row held from the block's start, then the row after each event
        rows = [row]
        append = rows.append
        for u, event in zip(draws[events, 0].tolist(), codes[events].tolist()):
            # DEPARTURE_EFFECTS: 0 -> 1, 2 -> 3, and 1 and 3 leave; a departure
            # needs a job in the served queue before the step, so no length
            # falls below 0 and only the top is clamped
            n0, n1, n2, n3 = x0, x1, x2, x3
            if event & 1:
                n0 += 1
            if event & 2:
                n2 += 1
            if event >= 4:
                # the additions of np.cumsum over the row; a uniform at or above
                # the row's sum picks the last action
                c = probs[row]
                a = u >= c
                c += probs[row + 1]
                a += u >= c
                c += probs[row + 2]
                a += u >= c
                if a < 2:  # server 1 serves queue 0
                    if event & 4 and x0:
                        n0 -= 1
                        n1 += 1
                elif event & 8 and x3:
                    n3 -= 1
                if not a & 1:  # server 2 serves queue 1
                    if event & 16 and x1:
                        n1 -= 1
                elif event & 32 and x2:
                    n2 -= 1
                    n3 += 1
            x0 = n0 if n0 < cap0 else cap0
            x1 = n1 if n1 < cap1 else cap1
            x2 = n2 if n2 < cap2 else cap2
            x3 = n3 if n3 < cap3 else cap3
            row = stride0 * x0 + stride1 * x1 + stride2 * x2 + stride3 * x3
            append(row)
        # an event's row is held from the step after it to the next event
        held = np.repeat(rows, np.diff(np.concatenate(([0], events + 1, [n]))))
        u = draws[:, 0]
        c = flat[held]
        # counted as integers: += on a bool array would be a logical or
        a = (u >= c).astype(np.int64)
        c += flat[held + 1]
        a += u >= c
        c += flat[held + 2]
        a += u >= c
        visited[start:start + n] = held + a
    return visited[burn_in:]


def heuristic_stationary_trajectory(spec: QueueNetSpec, policy: Policy,
                                    length: int = 10**6, burn_in: int = 10**4,
                                    seed: int = 0) -> np.ndarray:
    """State-action visit frequencies of a policy over ``length`` steps after
    ``burn_in`` on one trajectory (the full-scale substitute for the exact
    stationary solve of :func:`dualalp.mdp.stationary_distribution`). Per step,
    one uniform picks the action, then :func:`step` draws its four."""
    for name, value, least in (("length", length, 1), ("burn_in", burn_in, 0)):
        if not is_integer(value):
            raise ParameterError(f"{name} must be an integer, got {value!r}")
        if value < least:
            raise ParameterError(f"{name} must be >= {least}, got {value}")
    rng = np.random.default_rng(as_seed_sequence(seed))
    visited = _visited_pairs(spec, policy, burn_in + length, burn_in, rng)
    return np.bincount(visited, minlength=spec.num_states * NUM_ACTIONS) / length


def _indicator_block(spec: QueueNetSpec, loss_intervals, component_intervals):
    """The indicator columns of :func:`build_features`, their names and the names of
    the dropped ones, built without a model: a boolean bucket-by-state membership
    matrix (the loss intervals, then the 4-tuples in ``product`` order; intervals
    may overlap, so a state can sit in several buckets), transposed and crossed with
    the actions by a Kronecker product that puts bucket k, action a in column k*A + a."""
    def member(values, intervals):  # (len(intervals), X); states last keeps the broadcasts fast
        lo, hi = np.reshape(intervals, (len(intervals), 2)).T
        return (lo[:, None] <= values) & (values <= hi[:, None])

    states = _all_states(spec)
    q0, q1, q2, q3 = (member(states[:, queue], component_intervals) for queue in range(4))
    buckets = np.vstack([member(states.sum(axis=1), loss_intervals),
                         (q0[:, None, None, None] & q1[:, None, None] & q2[:, None] & q3
                          ).reshape(-1, len(states))])
    labels = [f"loss[{lo}-{hi}]" for lo, hi in loss_intervals] + [
        "tuple[%d,%d,%d,%d]" % c for c in product(range(len(component_intervals)), repeat=4)]
    used = buckets.any(axis=1)
    names = [f"{label}/a{a}" for label in compress(labels, used) for a in range(NUM_ACTIONS)]
    dropped = [f"{label}/a{a}" for label in compress(labels, ~used) for a in range(NUM_ACTIONS)]
    block = sp.kron(sp.csr_matrix(buckets[used].T), sp.identity(NUM_ACTIONS), format="csr")
    return block, names, dropped


def build_features(spec: QueueNetSpec, model: MdpModel,
                   loss_intervals=DESK_LOSS_INTERVALS,
                   component_intervals=DESK_COMPONENT_INTERVALS,
                   stationary_mode: str = "exact", mu0: np.ndarray | None = None,
                   sim_length: int = 10**6, sim_burn_in: int = 10**4,
                   seed: int = 0) -> tuple[FeatureSpace, list[str]]:
    """Indicator features over total-length buckets and per-queue bucket
    4-tuples (both crossed with the action), plus the stationary state-action
    distribution columns of LONGER and LBFS. Empty indicator columns are dropped;
    their names are returned alongside the feature space.

    Intervals are inclusive integer (lo, hi) pairs; the defaults fit the desk
    preset and should be overridden for other buffer sizes.
    """
    block, names, dropped = _indicator_block(spec, loss_intervals, component_intervals)
    columns = [block]
    for kind in ("LONGER", "LBFS"):
        policy = heuristic_policy(spec, kind)
        if stationary_mode == "exact":
            col = stationary_state_action(model, policy)
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
    fs = FeatureSpace(model, phi, mu0=mu0, normalize=True, names=names)
    return fs, dropped


def evaluate_policy_simulated(spec: QueueNetSpec, policy: Policy, horizon: int,
                              burn_in: int, reps: int, seed: int = 0) -> tuple[float, float]:
    """Mean raw total queue length over ``reps`` independent trajectories,
    averaging steps after ``burn_in`` (trajectories start empty). Returns the
    across-rep mean and the sample standard deviation of the per-rep means.

    Every replication has its own child of ``SeedSequence(seed)``, so the
    replications run in forked worker processes where that is safe (see
    :func:`dualalp._sgd._map_points`; one replication never starts a pool). The
    workers inherit the policy table and send back one per-rep mean each, and
    the reductions run over them in replication order, so the result does not
    depend on the number of workers. On a 2-vCPU host with the paper tables
    loaded, three replications of 20k steps took 23-39 ms in this process and
    29-40 ms pooled; the pool paid from about 40k steps per replication.
    """
    if not is_integer(reps):
        raise ParameterError(f"reps must be an integer, got {reps!r}")
    if reps < 1:
        raise ParameterError("reps must be >= 1")
    _check_trajectory(spec, policy, horizon, burn_in)
    rep_seeds = as_seed_sequence(seed).spawn(reps)

    def rep_mean(r):
        visited = _visited_pairs(spec, policy, horizon, burn_in,
                                 np.random.default_rng(rep_seeds[r]))
        return _decode_array(spec, visited // NUM_ACTIONS).sum() / (horizon - burn_in)

    by_rep = _map_points(rep_mean, list(range(reps)))
    per_rep = np.array([by_rep[r] for r in range(reps)])
    mean = float(per_rep.mean())
    std = float(per_rep.std(ddof=1)) if reps > 1 else 0.0
    return mean, std

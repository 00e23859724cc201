import hashlib
import multiprocessing.pool
import os
import re
import tracemalloc
from itertools import product

import numpy as np
import pytest
import scipy.sparse as sp

from dualalp import _sgd, queueing
from dualalp.errors import CapacityError, InputShapeError, ParameterError
from dualalp.features import FeatureSpace
from dualalp.mdp import average_cost, stationary_state_action
from dualalp.queueing import (DESK_COMPONENT_INTERVALS, DESK_LOSS_INTERVALS, DESK_SPEC,
                              NUM_ACTIONS, PAPER_COMPONENT_INTERVALS, PAPER_LOSS_INTERVALS,
                              PAPER_SPEC, QueueNetSpec, build_features, build_mdp,
                              decode_state, encode_state, evaluate_policy_simulated,
                              heuristic_policy, served_queues, step)
from dualalp.queueing import heuristic_stationary_trajectory
from dualalp.mdp import Policy
from dualalp.queueing import _all_states, _visited_pairs

SMALL_SPEC = QueueNetSpec(buffers=(3, 2, 2, 3), arrival_probs=(0.08, 0.08),
                          service_probs=(0.12, 0.12, 0.28, 0.28))


def test_spec_validation():
    with pytest.raises(ParameterError):
        QueueNetSpec(buffers=(0, 1, 1, 1), arrival_probs=(0.1, 0.1),
                     service_probs=(0.1, 0.1, 0.1, 0.1))
    with pytest.raises(ParameterError):
        QueueNetSpec(buffers=(1, 1, 1, 1), arrival_probs=(1.5, 0.1),
                     service_probs=(0.1, 0.1, 0.1, 0.1))


def test_encode_decode_roundtrip():
    spec = SMALL_SPEC
    for idx in range(spec.num_states):
        assert encode_state(spec, decode_state(spec, idx)) == idx
    with pytest.raises(InputShapeError):
        encode_state(spec, (4, 0, 0, 0))
    with pytest.raises(InputShapeError):
        decode_state(spec, spec.num_states)


@pytest.mark.parametrize("lengths", [(1.7, 0, 0, 0), (1.0, 0, 0, 0), (True, 0, 0, 0),
                                     (0, 0, 0, np.float64(2.0)), (0, np.bool_(True), 0, 0),
                                     (1, 0, 0), (1, 0, 0, 0, 0)],
                         ids=["float", "whole-float", "bool", "numpy-float", "numpy-bool",
                              "three", "five"])
def test_encode_state_refuses_lengths_that_are_not_four_integers(lengths):
    # a float or a bool used to be truncated by int() into a valid index
    with pytest.raises(InputShapeError):
        encode_state(DESK_SPEC, lengths)


@pytest.mark.parametrize("idx", [3.5, 3.0, True, np.float64(3.0), np.bool_(True)],
                         ids=["float", "whole-float", "bool", "numpy-float", "numpy-bool"])
def test_decode_state_refuses_non_integer_index(idx):
    with pytest.raises(InputShapeError):
        decode_state(DESK_SPEC, idx)


def test_encode_decode_accept_numpy_integers():
    lengths = (np.int64(3), np.uint8(1), np.int32(0), 2)
    idx = encode_state(DESK_SPEC, lengths)
    assert idx == encode_state(DESK_SPEC, (3, 1, 0, 2)) == encode_state(DESK_SPEC,
                                                                        np.array(lengths))
    assert type(idx) is int
    assert decode_state(DESK_SPEC, np.int64(idx)) == decode_state(DESK_SPEC, idx) == (3, 1, 0, 2)


def test_served_queues_mapping():
    # exactly one queue per server: server 1 in {0, 3}, server 2 in {1, 2}
    seen = set()
    for action in range(NUM_ACTIONS):
        s1, s2 = served_queues(action)
        assert s1 in (0, 3) and s2 in (1, 2)
        seen.add((s1, s2))
    assert len(seen) == 4


# ------------------------------------------------------------------ dynamics

def test_build_mdp_rows_sum_to_one():
    model = build_mdp(SMALL_SPEC)
    sums = np.asarray(model.transitions.sum(axis=1)).ravel()
    assert np.abs(sums - 1.0).max() <= 1e-12
    assert model.num_states == SMALL_SPEC.num_states
    assert model.num_actions == NUM_ACTIONS


def test_build_mdp_empty_state_stay_probability():
    spec = SMALL_SPEC
    model = build_mdp(spec)
    empty = encode_state(spec, (0, 0, 0, 0))
    a1, a3 = spec.arrival_probs
    for action in range(NUM_ACTIONS):
        row = model.transitions[empty * NUM_ACTIONS + action].toarray().ravel()
        # with nothing to move, only arrivals matter: the empty network stays
        # empty exactly when neither arrival fires
        assert row[empty] == pytest.approx((1 - a1) * (1 - a3), abs=1e-14)


def test_build_mdp_upper_threshold():
    spec = SMALL_SPEC
    model = build_mdp(spec)
    full1 = encode_state(spec, (3, 0, 0, 0))
    # serve queues (3, 1): queue 0 is not served, so an arrival at full queue 0
    # with no other event must leave it saturated
    action = 3  # server 1 -> queue 3, server 2 -> queue 2
    row = model.transitions[full1 * NUM_ACTIONS + action].toarray().ravel()
    next_states = [decode_state(spec, j) for j in np.flatnonzero(row)]
    assert all(s[0] == 3 for s in next_states)


def test_build_mdp_matches_brute_force_enumeration():
    spec = SMALL_SPEC
    model = build_mdp(spec)
    a1, a3 = spec.arrival_probs
    rng = np.random.default_rng(90)
    for _ in range(12):
        x = tuple(int(rng.integers(0, b + 1)) for b in spec.buffers)
        action = int(rng.integers(0, NUM_ACTIONS))
        s1, s2 = served_queues(action)
        expected = {}
        # independent outcome loop written directly from the update rule
        for arr1 in (0, 1):
            for arr3 in (0, 1):
                for dep1 in (0, 1):
                    for dep2 in (0, 1):
                        p = ((a1 if arr1 else 1 - a1) * (a3 if arr3 else 1 - a3)
                             * (spec.service_probs[s1] if dep1 else 1 - spec.service_probs[s1])
                             * (spec.service_probs[s2] if dep2 else 1 - spec.service_probs[s2]))
                        nxt = list(x)
                        nxt[0] += arr1
                        nxt[2] += arr3
                        if dep1 and x[s1] > 0:  # empty served queue moves nothing
                            if s1 == 0:
                                nxt[0] -= 1
                                nxt[1] += 1
                            else:
                                nxt[3] -= 1
                        if dep2 and x[s2] > 0:
                            if s2 == 1:
                                nxt[1] -= 1
                            else:
                                nxt[2] -= 1
                                nxt[3] += 1
                        clamped = tuple(min(max(v, 0), b)
                                        for v, b in zip(nxt, spec.buffers))
                        key = encode_state(spec, clamped)
                        expected[key] = expected.get(key, 0.0) + p
        row = model.transitions[encode_state(spec, x) * NUM_ACTIONS + action]
        got = {int(j): float(v) for j, v in zip(row.indices, row.data)}
        assert set(got) == set(expected)
        for key, p in expected.items():
            assert got[key] == pytest.approx(p, abs=1e-14)


def test_build_mdp_loss_is_normalized_queue_length():
    model = build_mdp(SMALL_SPEC)
    totals = np.array([sum(decode_state(SMALL_SPEC, i))
                       for i in range(SMALL_SPEC.num_states)], dtype=float)
    assert SMALL_SPEC.total_capacity == 10
    np.testing.assert_allclose(model.loss * 10.0, np.repeat(totals, NUM_ACTIONS))
    assert model.loss.max() == 1.0  # the full state


def test_build_mdp_capacity_guard():
    big = QueueNetSpec(buffers=(40, 40, 40, 40), arrival_probs=(0.1, 0.1),
                       service_probs=(0.2, 0.2, 0.2, 0.2))
    with pytest.raises(CapacityError):
        build_mdp(big)


# ---------------------------------------------------------------------- step

def test_step_zero_probabilities_freeze():
    frozen = QueueNetSpec(buffers=(3, 2, 2, 3), arrival_probs=(0.0, 0.0),
                          service_probs=(0.0, 0.0, 0.0, 0.0))
    rng = np.random.default_rng(0)
    state = (2, 1, 0, 3)
    for action in range(NUM_ACTIONS):
        assert step(frozen, state, action, rng) == state


def test_step_deterministic_under_seed():
    rng1 = np.random.default_rng(7)
    rng2 = np.random.default_rng(7)
    state = (1, 1, 1, 1)
    path1 = [state := step(SMALL_SPEC, state, t % 4, rng1) for t in range(50)]
    state = (1, 1, 1, 1)
    path2 = [state := step(SMALL_SPEC, state, t % 4, rng2) for t in range(50)]
    assert path1 == path2


def test_step_frequencies_match_exact_row():
    spec = SMALL_SPEC
    model = build_mdp(spec)
    start = (2, 1, 1, 2)
    action = 1
    n = 10**5
    rng = np.random.default_rng(91)
    counts = {}
    for _ in range(n):
        nxt = encode_state(spec, step(spec, start, action, rng))
        counts[nxt] = counts.get(nxt, 0) + 1
    row = model.transitions[encode_state(spec, start) * NUM_ACTIONS + action]
    probs = {int(j): float(v) for j, v in zip(row.indices, row.data)}
    assert set(counts) <= set(probs)
    for key, p in probs.items():
        freq = counts.get(key, 0) / n
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(freq - p) <= 3 * sigma + 1e-12


# ----------------------------------------------------------------- policies

def test_longer_policy_examples():
    spec = SMALL_SPEC
    policy = heuristic_policy(spec, "LONGER")
    # x = (3, *, *, 1): server 1 must serve queue 0 (actions 0 and 1)
    idx = encode_state(spec, (3, 1, 0, 1))
    assert policy.probs[idx, 0] + policy.probs[idx, 1] == pytest.approx(1.0)
    # tie on server 1 splits 0.5/0.5
    idx = encode_state(spec, (2, 1, 0, 2))
    assert policy.probs[idx, 0] + policy.probs[idx, 1] == pytest.approx(0.5)
    assert np.abs(policy.probs.sum(axis=1) - 1.0).max() <= 1e-12


def test_lbfs_policy_examples():
    spec = SMALL_SPEC
    policy = heuristic_policy(spec, "LBFS")
    # x2 = 0 (queue index 1 empty): server 2 serves queue index 2 (actions 1, 3)
    idx = encode_state(spec, (1, 0, 2, 1))
    assert policy.probs[idx, 1] + policy.probs[idx, 3] == pytest.approx(1.0)
    # downstream priority: queue 3 nonempty -> server 1 serves it (actions 2, 3)
    idx = encode_state(spec, (3, 1, 0, 1))
    assert policy.probs[idx, 2] + policy.probs[idx, 3] == pytest.approx(1.0)
    # LBFS is deterministic in every state
    assert np.all(policy.probs.max(axis=1) == 1.0)
    with pytest.raises(ParameterError):
        heuristic_policy(spec, "SHORTEST")


# ----------------------------------------------------------------- features

def test_build_features_column_count_and_activation():
    spec = SMALL_SPEC
    model = build_mdp(spec)
    loss_iv = ((1, 2), (3, 4), (5, 6), (7, 10))
    comp_iv = ((0, 1), (2, 3))
    fs, dropped = build_features(spec, model=model, loss_intervals=loss_iv,
                                 component_intervals=comp_iv)
    # construction arithmetic: intervals*actions + tuples*actions + heuristics
    assert fs.dim + len(dropped) == 4 * 4 + (2 ** 4) * 4 + 2
    # a state with total length 3 activates exactly one loss-interval feature
    # for its action
    idx = encode_state(spec, (1, 1, 1, 0))
    row = fs.rows(np.array([idx * NUM_ACTIONS + 2]))[0]
    active = [fs.names[j] for j in np.flatnonzero(row) if fs.names[j].startswith("loss[")]
    assert len(active) == 1 and active[0] == "loss[3-4]/a2"


def test_build_features_normalization_and_drift():
    spec = SMALL_SPEC
    model = build_mdp(spec)
    fs, _ = build_features(spec, model=model, loss_intervals=((1, 3), (4, 10)),
                           component_intervals=((0, 1), (2, 3)))
    sums = np.asarray(abs(fs.phi).sum(axis=0)).ravel()
    np.testing.assert_allclose(sums, 1.0, atol=1e-10)
    assert np.asarray(fs.phi.min(axis=0).todense()).min() >= 0.0
    # stationary heuristic columns have vanishing drift under kappa = 1
    drift = fs._operator((1.0, -1.0)).toarray()
    for kind in ("LONGER", "LBFS"):
        j = fs.names.index(f"stationary/{kind}")
        assert np.abs(drift[:, j]).max() <= 1e-9


def test_build_features_trajectory_mode_close_to_exact():
    spec = SMALL_SPEC
    model = build_mdp(spec)
    fs, _ = build_features(spec, model=model, loss_intervals=((1, 10),),
                           component_intervals=((0, 3),),
                           stationary_mode="trajectory", sim_length=200000,
                           sim_burn_in=5000, seed=13)
    j = fs.names.index("stationary/LONGER")
    traj_col = fs.phi.toarray()[:, j]
    exact = stationary_state_action(model, heuristic_policy(spec, "LONGER"),
                                    tol=1e-12)
    assert np.abs(traj_col - exact).sum() <= 0.08  # sampling noise only


def _per_column_features(spec, model, loss_intervals, component_intervals, mu0=None):
    """The indicator features built one column at a time, as a dense vector
    per (bucket, action) turned into a one-column CSR matrix and stacked: the
    reference that the membership-matrix build must match byte for byte."""
    states = _all_states(spec)
    totals = states.sum(axis=1)
    columns, names, dropped = [], [], []

    def add_indicator(state_mask, action, name):
        col = np.zeros(spec.num_states * NUM_ACTIONS)
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
    for kind in ("LONGER", "LBFS"):
        col = stationary_state_action(model, heuristic_policy(spec, kind))
        columns.append(sp.csr_matrix(col.reshape(-1, 1)))
        names.append(f"stationary/{kind}")
    phi = sp.hstack(columns, format="csr")
    return FeatureSpace(model, phi, mu0=mu0, normalize=True, names=names), dropped


SPEC_3333 = QueueNetSpec(buffers=(3, 3, 3, 3), arrival_probs=(0.08, 0.08),
                         service_probs=(0.12, 0.12, 0.28, 0.28))
INTERVAL_CASES = {
    "desk-lbfs-mu0": (DESK_SPEC, DESK_LOSS_INTERVALS, DESK_COMPONENT_INTERVALS, "LBFS"),
    "3333": (SPEC_3333, ((1, 3), (4, 12)), ((0, 1), (2, 3)), None),
    "overlapping": (SMALL_SPEC, ((1, 4), (3, 6), (2, 2)), ((0, 2), (1, 3)), None),
    "uncovered-states": (SMALL_SPEC, ((2, 3),), ((1, 1), (3, 3)), None),
    "all-buckets-empty": (SMALL_SPEC, ((50, 60),), ((7, 9),), None),
    "no-loss-intervals": (SMALL_SPEC, (), ((0, 1), (2, 3)), None),
    "no-component-intervals": (SMALL_SPEC, ((1, 3),), (), None),
    "no-intervals": (SMALL_SPEC, (), (), None),
}


@pytest.mark.parametrize("spec, loss_iv, comp_iv, mu0_kind", INTERVAL_CASES.values(),
                         ids=INTERVAL_CASES)
def test_build_features_matches_per_column_construction(spec, loss_iv, comp_iv, mu0_kind):
    model = build_mdp(spec)
    mu0 = (None if mu0_kind is None
           else stationary_state_action(model, heuristic_policy(spec, mu0_kind)))
    fs, dropped = build_features(spec, model=model, loss_intervals=loss_iv,
                                 component_intervals=comp_iv, mu0=mu0)
    ref, ref_dropped = _per_column_features(spec, model, loss_iv, comp_iv, mu0=mu0)
    for part in ("indptr", "indices", "data"):
        got, want = getattr(fs.phi, part), getattr(ref.phi, part)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), part
    assert fs.loss_phi.tobytes() == ref.loss_phi.tobytes()
    assert fs.names == ref.names
    assert dropped == ref_dropped


@pytest.mark.parametrize("loss_iv, comp_iv, dim", [
    ((), (), 2), ((), ((0, 1), (2, 3)), 2 ** 4 * NUM_ACTIONS + 2),
    (((1, 3),), (), NUM_ACTIONS + 2)], ids=["both-empty", "no-loss", "no-component"])
def test_build_features_with_empty_interval_tuples(loss_iv, comp_iv, dim):
    fs, dropped = build_features(SMALL_SPEC, model=build_mdp(SMALL_SPEC),
                                 loss_intervals=loss_iv, component_intervals=comp_iv)
    assert fs.dim == dim and dropped == []
    assert fs.names[-2:] == ["stationary/LONGER", "stationary/LBFS"]


def test_build_features_with_every_bucket_empty(caplog):
    with caplog.at_level("WARNING", logger="dualalp.queueing"):
        fs, dropped = build_features(SMALL_SPEC, model=build_mdp(SMALL_SPEC),
                                     loss_intervals=((50, 60),), component_intervals=((7, 9),))
    assert fs.names == ["stationary/LONGER", "stationary/LBFS"]
    assert dropped == ([f"loss[50-60]/a{a}" for a in range(NUM_ACTIONS)]
                       + [f"tuple[0,0,0,0]/a{a}" for a in range(NUM_ACTIONS)])
    assert ("dropped 8 empty feature columns: " + ", ".join(dropped)) in caplog.text


def test_paper_indicator_block_builds_without_a_model():
    # 51.84 % of the paper states lie outside every bucket: totals stop at 50
    # (the largest is 126) and the per-queue buckets at 25 (queues 0 and 3 hold 38)
    block, names, dropped = queueing._indicator_block(
        PAPER_SPEC, PAPER_LOSS_INTERVALS, PAPER_COMPONENT_INTERVALS)
    assert block.shape == (4_112_784, 364) and block.nnz == 2_918_184
    assert np.all(block.data == 1.0)
    per_row = np.diff(block.indptr)
    assert per_row.max() == 2
    assert np.count_nonzero(per_row.reshape(-1, NUM_ACTIONS).sum(axis=1) == 0) == 533_000
    assert len(names) == 364 and dropped == []


# --------------------------------------------------------------- evaluation

def test_evaluate_simulated_zero_arrivals():
    silent = QueueNetSpec(buffers=(3, 2, 2, 3), arrival_probs=(0.0, 0.0),
                          service_probs=(0.3, 0.3, 0.3, 0.3))
    policy = heuristic_policy(silent, "LBFS")
    mean, std = evaluate_policy_simulated(silent, policy, horizon=2000,
                                          burn_in=100, reps=2, seed=1)
    assert mean == 0.0


def test_evaluate_simulated_matches_exact_average_cost():
    spec = SMALL_SPEC
    policy = heuristic_policy(spec, "LONGER")
    exact = average_cost(build_mdp(spec), policy, tol=1e-12) * spec.total_capacity
    mean, std = evaluate_policy_simulated(spec, policy, horizon=120000,
                                          burn_in=5000, reps=6, seed=5)
    stderr = std / np.sqrt(6)
    assert abs(mean - exact) <= 3 * stderr


def test_evaluate_simulated_deterministic():
    spec = SMALL_SPEC
    policy = heuristic_policy(spec, "LBFS")
    out1 = evaluate_policy_simulated(spec, policy, 3000, 200, 3, seed=42)
    out2 = evaluate_policy_simulated(spec, policy, 3000, 200, 3, seed=42)
    assert out1 == out2


# --------------------------------------------------------------- simulator inputs

@pytest.fixture
def no_pool(monkeypatch):
    """Two usable CPUs, so that more than one replication would fork workers,
    and a failure if a worker pool is created: bad input must be rejected in
    the calling process, before any replication starts."""
    monkeypatch.setattr(_sgd, "_cpu_count", lambda: 2)

    def refuse(*args, **kwargs):
        pytest.fail("a worker pool was started before the input check")

    monkeypatch.setattr(multiprocessing.pool, "Pool", refuse)


@pytest.mark.usefixtures("no_pool")
def test_simulators_reject_burn_in_outside_horizon():
    policy = heuristic_policy(DESK_SPEC, "LBFS")
    with pytest.raises(ParameterError):  # would average over horizon - burn_in = 4000 steps
        evaluate_policy_simulated(DESK_SPEC, policy, 2000, -2000, 2)
    with pytest.raises(ParameterError, match="horizon must exceed burn_in"):
        evaluate_policy_simulated(DESK_SPEC, policy, 200, 200, 2)
    with pytest.raises(ParameterError):
        heuristic_stationary_trajectory(DESK_SPEC, policy, length=100, burn_in=-1)


def test_stationary_trajectory_rejects_empty_length():
    policy = heuristic_policy(SMALL_SPEC, "LBFS")
    with pytest.raises(ParameterError):  # was an all-NaN column
        heuristic_stationary_trajectory(SMALL_SPEC, policy, length=0, burn_in=10)


@pytest.mark.parametrize("length, burn_in, message", [
    (True, 10, "length must be an integer, got True"),  # ran as a length of 1
    (2.5, 10, "length must be an integer, got 2.5"),  # was reported as a horizon of 12.5
    (10, -3, "burn_in must be >= 0, got -3"),  # was "(got 7, -3)"
], ids=["bool-length", "float-length", "negative-burn-in"])
def test_stationary_trajectory_checks_length_and_burn_in_by_name(length, burn_in, message):
    # each is checked before the two are summed into the trajectory's horizon
    policy = heuristic_policy(SMALL_SPEC, "LBFS")
    with pytest.raises(ParameterError, match=re.escape(message)):
        heuristic_stationary_trajectory(SMALL_SPEC, policy, length=length, burn_in=burn_in)


@pytest.mark.usefixtures("no_pool")
def test_evaluate_simulated_rejects_no_reps():
    with pytest.raises(ParameterError, match="reps must be >= 1"):
        evaluate_policy_simulated(SMALL_SPEC, heuristic_policy(SMALL_SPEC, "LBFS"), 200, 20, 0)


@pytest.mark.parametrize("spec, other", [(SMALL_SPEC, DESK_SPEC), (DESK_SPEC, SMALL_SPEC)],
                         ids=["larger-policy", "smaller-policy"])
@pytest.mark.usefixtures("no_pool")
def test_simulators_reject_policy_of_another_network(spec, other):
    policy = heuristic_policy(other, "LONGER")
    with pytest.raises(InputShapeError):
        evaluate_policy_simulated(spec, policy, 200, 20, 2)
    with pytest.raises(InputShapeError):
        heuristic_stationary_trajectory(spec, policy, length=200, burn_in=20)


# --------------------------------------------------------------- draw stream

# Exact outputs of the fixed draw order (per step: one action uniform, then the
# four of step) on the desk network; a change to the stream or to the
# reductions over it shows here, where run-twice determinism cannot see it.
GOLDEN_SIMULATED = {
    "LONGER": (10.854444444444445, 1.231311395661723),
    "LBFS": (8.097407407407408, 0.4405308432656141),
}
GOLDEN_TRAJECTORY_SHA256 = {
    "LONGER": "96e3386844eb48ff1dfbe499dc4309aaf376b23d1342c60a6f5d6fb2fa852b6e",
    "LBFS": "e5425389440502595e6e95d922d658eedb2e9510bac6829298c3f9bb44e2b5f9",
}


@pytest.mark.parametrize("kind", ["LONGER", "LBFS"])
def test_simulator_draw_stream_golden(kind):
    policy = heuristic_policy(DESK_SPEC, kind)
    assert (evaluate_policy_simulated(DESK_SPEC, policy, 5000, 500, 3, seed=11)
            == GOLDEN_SIMULATED[kind])
    col = heuristic_stationary_trajectory(DESK_SPEC, policy, length=20000, burn_in=500,
                                          seed=11)
    assert hashlib.sha256(col.tobytes()).hexdigest() == GOLDEN_TRAJECTORY_SHA256[kind]


# --------------------------------------------------------------- kernel oracle

# Saturating probabilities: queue 2 always receives and is never served, queue 0
# is always served when chosen, so buffers fill and servers sit at empty queues.
SATURATING_SPEC = QueueNetSpec((1, 2, 1, 2), (0.5, 1.0), (1.0, 0.3, 0.0, 0.7))


# Four different buffers: the presets are symmetric, so they cannot show two
# queue axes swapped in the table.
UNEVEN_SPEC = QueueNetSpec((2, 3, 4, 5), (0.08, 0.08), (0.12, 0.12, 0.28, 0.28))


def reference_heuristic_policy(spec, kind):
    """The heuristic table from the decoded (X, 4) queue lengths of every state."""
    states = _all_states(spec)
    if kind == "LONGER":
        p1_first = np.where(states[:, 0] > states[:, 3], 1.0,
                            np.where(states[:, 0] < states[:, 3], 0.0, 0.5))
        p2_first = np.where(states[:, 1] > states[:, 2], 1.0,
                            np.where(states[:, 1] < states[:, 2], 0.0, 0.5))
    else:
        p1_first = np.where(states[:, 3] == 0, 1.0, 0.0)
        p2_first = np.where(states[:, 1] == 0, 0.0, 1.0)
    probs = np.empty((spec.num_states, NUM_ACTIONS))
    for action in range(NUM_ACTIONS):
        i, j = action // 2, action % 2
        p_i = p1_first if i == 0 else 1.0 - p1_first
        p_j = p2_first if j == 0 else 1.0 - p2_first
        probs[:, action] = p_i * p_j
    return probs


@pytest.mark.parametrize("spec", [DESK_SPEC, SMALL_SPEC, SATURATING_SPEC, PAPER_SPEC,
                                  UNEVEN_SPEC],
                         ids=["desk", "small", "saturating", "paper", "uneven"])
@pytest.mark.parametrize("kind", ["LONGER", "LBFS"])
def test_heuristic_table_matches_decoded_states(spec, kind):
    got = heuristic_policy(spec, kind).probs
    want = reference_heuristic_policy(spec, kind)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["LONGER", "LBFS"])
def test_paper_table_and_row_check_allocate_little_beside_the_table(kind):
    """The table is gathered without an (X, A) temporary and checked without
    a state-length one: the traced peak of building it, and of checking it
    again, stays within the table plus 1.5 state-length float arrays (the
    broadcast-and-row-sum build peaked at the table plus 3.0 of them)."""
    tracemalloc.start()
    try:
        policy = heuristic_policy(PAPER_SPEC, kind)
        _, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        Policy(policy.probs)
        _, check_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = policy.probs.nbytes + 1.5 * 8 * PAPER_SPEC.num_states
    assert build_peak <= bound
    assert check_peak <= bound


@pytest.mark.parametrize("spec", [DESK_SPEC, SATURATING_SPEC], ids=["desk", "saturating"])
def test_simulated_eval_does_not_depend_on_worker_count(monkeypatch, tmp_path, spec):
    """The replications run in forked workers unless there is one CPU or one
    replication; a spy logs the pid of every trajectory to a file, so the
    pooled runs are seen to simulate outside this process."""
    policy = heuristic_policy(spec, "LONGER")
    pids = tmp_path / "pids"
    visited_pairs = queueing._visited_pairs

    def spy(*args):
        with open(pids, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        return visited_pairs(*args)

    monkeypatch.setattr(queueing, "_visited_pairs", spy)
    for reps in (1, 2, 3, 5):
        outputs = set()
        for cpus in (1, 2, 3):
            monkeypatch.setattr(_sgd, "_cpu_count", lambda: cpus)
            pids.write_text("")
            outputs.add(np.array(evaluate_policy_simulated(spec, policy, 3000, 300, reps,
                                                           seed=8)).tobytes())
            callers = pids.read_text().split()
            assert len(callers) == reps
            assert (str(os.getpid()) in callers) == (cpus == 1 or reps == 1)
        assert len(outputs) == 1, reps


def reference_visited_pairs(spec, policy, steps, burn_in, rng):
    """The step-driven trajectory loop: one action uniform through the row's
    cumulative sums, then :func:`step`."""
    cums = np.cumsum(policy.probs, axis=1)
    visited = np.empty(steps, dtype=np.int64)
    lengths = (0, 0, 0, 0)
    for t in range(steps):
        idx = encode_state(spec, lengths)
        action = min(int(np.searchsorted(cums[idx], rng.random(), side="right")),
                     NUM_ACTIONS - 1)
        visited[t] = idx * NUM_ACTIONS + action
        lengths = step(spec, lengths, action, rng)
    return visited[burn_in:]


class ScriptedUniforms:
    """Serves a fixed sequence of uniforms to both call shapes of
    ``Generator.random`` that the simulators use (a scalar, or an array)."""

    def __init__(self, values):
        self.values = values
        self.pos = 0

    def random(self, size=None):
        count = 1 if size is None else int(np.prod(size))
        out = self.values[self.pos:self.pos + count]
        self.pos += count
        return float(out[0]) if size is None else out.reshape(size)


def dirichlet_policy(spec, seed):
    return Policy(np.random.default_rng(seed).dirichlet(np.ones(NUM_ACTIONS), spec.num_states))


def edge_policy(spec):
    """Rows with zero entries, a deterministic row at each end, and a row whose
    sum falls just below 1 (inside the policy tolerance)."""
    rows = np.array([[0.25, 0.25, 0.25, 0.25],
                     [0.0, 0.5, 0.0, 0.5],
                     [1.0, 0.0, 0.0, 0.0],
                     [0.0, 0.0, 0.0, 1.0],
                     [0.3, 0.3, 0.4 - 5e-13, 0.0]])
    return Policy(rows[np.arange(spec.num_states) % len(rows)])


def laid_out(probs, layout):
    """The same table in a layout other than C order: a Fortran copy, views
    that skip rows or columns of a larger array, or an interleaved view whose
    flat reshape is a strided 1-D view rather than a copy."""
    rows, cols = probs.shape
    if layout == "fortran":
        return np.asfortranarray(probs)
    if layout == "skip-rows":
        out = np.zeros((2 * rows, cols))
        out[::2] = probs
        return out[::2]
    if layout == "skip-cols":
        out = np.zeros((rows, 2 * cols))
        out[:, 1::2] = probs
        return out[:, 1::2]
    out = np.zeros((rows, cols, 2))
    out[:, :, 0] = probs
    view = out[:, :, 0]
    assert np.shares_memory(view.reshape(-1), out)
    return view


LAYOUTS = ["fortran", "skip-rows", "skip-cols", "interleaved"]


@pytest.mark.parametrize("spec", [DESK_SPEC, SATURATING_SPEC], ids=["desk", "saturating"])
@pytest.mark.parametrize("kind", ["LONGER", "LBFS", "dirichlet"] + LAYOUTS)
def test_kernel_matches_step_loop(spec, kind):
    # a layout kind holds the Dirichlet table outside C order: the flat view
    # must follow its strides, never index it as if it were contiguous
    if kind in ("LONGER", "LBFS"):
        policy = heuristic_policy(spec, kind)
    else:
        policy = dirichlet_policy(spec, 17)
    if kind in LAYOUTS:
        policy = Policy(laid_out(policy.probs, kind))
        assert not policy.probs.flags.c_contiguous
    got = _visited_pairs(spec, policy, 3000, 100, np.random.default_rng(23))
    want = reference_visited_pairs(spec, policy, 3000, 100, np.random.default_rng(23))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("spec", [DESK_SPEC, SATURATING_SPEC], ids=["desk", "saturating"])
def test_kernel_matches_step_loop_on_row_edges(spec):
    # action uniforms on the cumulative sums (ties), at 0, and above a row sum
    # that falls short of 1, where the last action is picked
    steps = 2000
    values = np.random.default_rng(29).random(steps * 5)
    specials = [0.0, 0.25, 0.5, 0.75, 0.6, np.nextafter(1.0, 0.0)]
    values[::10] = np.resize(specials, steps // 2)  # the action uniform of every other step
    policy = edge_policy(spec)
    got = _visited_pairs(spec, policy, steps, 0, ScriptedUniforms(values))
    want = reference_visited_pairs(spec, policy, steps, 0, ScriptedUniforms(values))
    assert np.array_equal(got, want)
    # the short row gives action 3 no mass, so only the clamp picks it there
    assert np.any((got // NUM_ACTIONS % 5 == 4) & (got % NUM_ACTIONS == 3))


def transition_ties(spec, steps, seed):
    """Uniforms whose transition draws sit, on every other step, exactly on an
    arrival or service probability of ``spec`` that their column is compared
    with, or one ulp below it (toward 0), picked at random per step and column."""
    rng = np.random.default_rng(seed)
    values = rng.random((steps, 5))
    arrive0, arrive2 = spec.arrival_probs
    serve0, serve1, serve2, serve3 = spec.service_probs
    for column, probs in ((1, [arrive0]), (2, [arrive2]), (3, [serve0, serve3]),
                          (4, [serve1, serve2])):
        ties = [v for p in probs for v in (p, np.nextafter(p, 0.0))]
        values[::2, column] = rng.choice(ties, len(values[::2]))
    return values.ravel()


@pytest.mark.parametrize("spec", [DESK_SPEC, SATURATING_SPEC, UNEVEN_SPEC],
                         ids=["desk", "saturating", "uneven"])
def test_kernel_matches_step_loop_on_transition_ties(spec):
    # the event code compares in numpy what step compares in Python; both use
    # a strict "<", so a uniform equal to a probability triggers nothing and
    # one an ulp below triggers its event
    steps = 3000
    values = transition_ties(spec, steps, 41)
    policy = dirichlet_policy(spec, 43)
    got = _visited_pairs(spec, policy, steps, 0, ScriptedUniforms(values))
    want = reference_visited_pairs(spec, policy, steps, 0, ScriptedUniforms(values))
    assert np.array_equal(got, want)
    assert len(np.unique(got // NUM_ACTIONS)) > 1


@pytest.mark.parametrize("spec", [DESK_SPEC, SATURATING_SPEC, UNEVEN_SPEC],
                         ids=["desk", "saturating", "uneven"])
def test_kernel_never_leaves_the_empty_state_without_events(spec):
    # transition uniforms at or above every probability: no arrival and no
    # departure, so every step stays in the empty state
    steps = 2000
    top = max(spec.arrival_probs + spec.service_probs)
    values = np.random.default_rng(47).random((steps, 5))
    values[:, 1:] = top + (1.0 - top) * values[:, 1:]
    values[::3, 1:] = top
    values = values.ravel()
    policy = dirichlet_policy(spec, 53)
    got = _visited_pairs(spec, policy, steps, 0, ScriptedUniforms(values))
    want = reference_visited_pairs(spec, policy, steps, 0, ScriptedUniforms(values))
    assert np.array_equal(got, want)
    assert np.all(got // NUM_ACTIONS == 0)
    assert len(np.unique(got % NUM_ACTIONS)) == NUM_ACTIONS


def test_kernel_matches_step_loop_across_draw_blocks():
    # longer than one block of uniforms and not a multiple of its size
    policy = dirichlet_policy(DESK_SPEC, 31)
    got = _visited_pairs(DESK_SPEC, policy, 10007, 3, np.random.default_rng(37))
    want = reference_visited_pairs(DESK_SPEC, policy, 10007, 3, np.random.default_rng(37))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("spec", [DESK_SPEC, SATURATING_SPEC, UNEVEN_SPEC],
                         ids=["desk", "saturating", "uneven"])
def test_kernel_matches_step_loop_with_burn_in_in_second_block(spec):
    # the rows held across a block edge, and a burn-in that ends inside the
    # second block of 4096 steps
    policy = dirichlet_policy(spec, 59)
    got = _visited_pairs(spec, policy, 10007, 4100, np.random.default_rng(61))
    want = reference_visited_pairs(spec, policy, 10007, 4100, np.random.default_rng(61))
    assert np.array_equal(got, want)


# every probability 0: no step has an event, so whole blocks pass without one
SILENT_SPEC = QueueNetSpec((2, 2, 2, 2), (0.0, 0.0), (0.0, 0.0, 0.0, 0.0))
# an arrival at queue 0 on every step, so every step has an event
BUSY_SPEC = QueueNetSpec((9, 6, 6, 9), (1.0, 0.3), (0.12, 0.12, 0.28, 0.28))


@pytest.mark.parametrize("spec, steps, kind", [
    (SILENT_SPEC, 2 * 4096 + 17, "dirichlet"),
    (BUSY_SPEC, 10007, "dirichlet"),
    (PAPER_SPEC, 5000, "LONGER"),
], ids=["silent", "busy", "paper-longer"])
def test_kernel_matches_step_loop_at_event_extremes(spec, steps, kind):
    policy = dirichlet_policy(spec, 67) if kind == "dirichlet" else heuristic_policy(spec, kind)
    got = _visited_pairs(spec, policy, steps, 0, np.random.default_rng(71))
    want = reference_visited_pairs(spec, policy, steps, 0, np.random.default_rng(71))
    assert np.array_equal(got, want)
    if spec is SILENT_SPEC:
        assert np.all(got // NUM_ACTIONS == 0)


# sha256 of the outputs of both public simulators on the saturating network
GOLDEN_SATURATING_SHA256 = {
    "LONGER": ("eba67a57c9a33cc2efdbac1ae24ae1360caac1a53641ffbb8ef1b3edb03a7c7a",
               "43373e108befb06dc40f2e3abf0b3acd3023b2b6a886f33eea9ad5231d9318d2"),
    "LBFS": ("b84241b2236ffb1bb49ecf79c604d8be963a62b965b593d46d6f9b43cbd18884",
             "99209605fb416b8190159e28249e199c54be28502bfc546f44dda66392693e04"),
}


@pytest.mark.parametrize("kind", ["LONGER", "LBFS"])
def test_simulator_saturating_golden(kind):
    policy = heuristic_policy(SATURATING_SPEC, kind)
    simulated = evaluate_policy_simulated(SATURATING_SPEC, policy, 5000, 500, 3, seed=11)
    col = heuristic_stationary_trajectory(SATURATING_SPEC, policy, length=20000, burn_in=500,
                                          seed=11)
    assert (hashlib.sha256(np.array(simulated).tobytes()).hexdigest(),
            hashlib.sha256(col.tobytes()).hexdigest()) == GOLDEN_SATURATING_SHA256[kind]


# --------------------------------------------------------------- integer lengths

@pytest.mark.usefixtures("no_pool")
def test_simulators_reject_non_integer_horizon():
    policy = heuristic_policy(DESK_SPEC, "LBFS")
    with pytest.raises(ParameterError, match="horizon must be an integer"):
        evaluate_policy_simulated(DESK_SPEC, policy, 2000.0, 200, 2)
    with pytest.raises(ParameterError, match="length must be an integer"):
        heuristic_stationary_trajectory(DESK_SPEC, policy, length=2000.0, burn_in=200)


class NoDraws:
    def random(self, size=None):
        pytest.fail("the trajectory was simulated before the input check")


@pytest.mark.usefixtures("no_pool")
def test_simulators_reject_non_integer_burn_in(monkeypatch):
    # checked before the trajectory is simulated, not at the final slice
    monkeypatch.setattr(np.random, "default_rng", lambda seed: NoDraws())
    policy = heuristic_policy(DESK_SPEC, "LBFS")
    with pytest.raises(ParameterError, match="burn_in must be an integer"):
        evaluate_policy_simulated(DESK_SPEC, policy, 2000, 200.0, 2)
    with pytest.raises(ParameterError, match="burn_in must be an integer"):
        evaluate_policy_simulated(DESK_SPEC, policy, 2000, True, 2)


@pytest.mark.usefixtures("no_pool")
def test_evaluate_simulated_rejects_non_integer_reps():
    policy = heuristic_policy(DESK_SPEC, "LBFS")
    with pytest.raises(ParameterError, match="reps must be an integer"):
        evaluate_policy_simulated(DESK_SPEC, policy, 2000, 200, 2.0)

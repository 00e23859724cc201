"""Typed refusals of bad input, one parametrised test per module: each case
names the call, the error class it must raise and a piece of its message.

The fixture cases read malformed copies of ``tests/data/mdp4.json`` (4 states,
2 actions) and ``tests/data/features3.json``; the CLI cases check that the same
errors leave ``dualalp`` with their exit codes instead of a traceback.
"""
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from dualalp import avgcost, discounted, fixtures
from dualalp._sgd import SolverConfig, run_projected_sgd
from dualalp.cli import EXIT_CONFIG, EXIT_INPUT_SHAPE, SEED_ENV_VAR, main
from dualalp.errors import ConfigError, InputShapeError, ParameterError
from dualalp.features import (FeatureSpace, make_norm_proportional_sampling,
                              make_uniform_sampling)
from dualalp.mdp import (DENSE_GUARD, MdpModel, Policy, bellman_average, bellman_discounted,
                         policy_from_occupancy, solve_optimal)
from dualalp.queueing import (DESK_SPEC, QueueNetSpec, build_features, build_mdp,
                              evaluate_policy_simulated, heuristic_policy, served_queues)
from dualalp.trace import read_trace_csv

DATA = Path(__file__).parent / "data"


def mdp4():
    return fixtures.load_mdp_fixture(DATA / "mdp4.json")


def raises(error, match, call):
    with pytest.raises(error, match=match):
        call()


# --------------------------------------------------------------- fixtures

def _mdp_doc(edit):
    doc = json.loads((DATA / "mdp4.json").read_text())
    edit(doc)
    return doc


def _feature_doc(edit):
    doc = json.loads((DATA / "features3.json").read_text())
    edit(doc)
    return doc


def _set_entry(key, value):
    def edit(doc):
        doc["columns"][0]["entries"][0][key] = value
    return edit


def _set_record(key, value):
    def edit(doc):
        doc["transitions"][0][key] = value
    return edit


def _set_item(*path_and_value):
    """Replace the item at the path of keys and indices with the last argument."""
    *path, last, value = path_and_value

    def edit(doc):
        for key in path:
            doc = doc[key]
        doc[last] = value
    return edit


# (id, "mdp" or "features", edit of the document, message) of the fields of
# another JSON type: a string p died in scipy with a ValueError, a list entry
# with a TypeError, p: true was reported as a bad row sum, and a string loss,
# value or mu0 entry was parsed without a word
TYPE_CASES = [
    ("record-p-string", "mdp", _set_record("p", "0.5"),
     "transition probabilities must be finite JSON numbers, got '0.5' at transition 0"),
    ("record-p-bool", "mdp", _set_record("p", True),
     "transition probabilities must be finite JSON numbers, got True at transition 0"),
    ("record-not-object", "mdp", _set_item("transitions", 0, [0, 0, 0, 0.5]),
     r"transitions must be JSON objects, got \[0, 0, 0, 0.5\] at index 0"),
    ("loss-entry-string", "mdp", _set_item("loss", 1, "0.5"),
     "loss entries must be finite JSON numbers, got '0.5' at index 1"),
    ("loss-string", "mdp", lambda doc: doc.update(loss="0.5"),
     "loss must be a list of finite JSON numbers, got '0.5'"),
    ("feature-entry-list", "features", _set_item("columns", 0, "entries", 0, [1, 0, 0.3]),
     r"column 0 entries must be JSON objects, got \[1, 0, 0.3\] at index 0"),
    ("feature-value-string", "features", _set_entry("value", "0.5"),
     "phi entries must be finite JSON numbers, got '0.5' at column 0 entry 0"),
    ("mu0-entry-string", "features", lambda doc: doc.update(mu0=["0.125"] + [0.125] * 7),
     "mu0 entries must be finite JSON numbers, got '0.125' at index 0"),
]

# (id, "mdp" or "features", edit of the document, error, message)
FIXTURE_CASES = [
    # a = 5 landed on pair 7 = (x 3, a 1), x: 1.7 read as 1, "false" normalized
    ("feature-action-out-of-range", "features", _set_entry("a", 5), InputShapeError,
     r"action 5 is not an integer in \[0, 2\)"),
    ("feature-state-out-of-range", "features", _set_entry("x", 4), InputShapeError,
     r"state 4 is not an integer in \[0, 4\)"),
    ("feature-state-negative", "features", _set_entry("x", -1), InputShapeError,
     r"state -1 is not an integer"),
    ("feature-state-fraction", "features", _set_entry("x", 1.7), InputShapeError,
     r"state 1.7 is not an integer"),
    ("feature-state-bool", "features", _set_entry("x", True), InputShapeError,
     r"state True is not an integer"),
    ("normalize-string", "features", lambda doc: doc.update(normalize="false"), ConfigError,
     "normalize must be true or false, got 'false'"),
    ("feature-entry-without-value", "features",
     lambda doc: doc["columns"][0]["entries"][0].pop("value"), ConfigError,
     "missing required field 'value'"),
    ("no-columns-key", "features", lambda doc: doc.pop("columns"), ConfigError,
     "missing required field 'columns'"),
    ("no-columns", "features", lambda doc: doc.update(columns=[]), ConfigError,
     "has no feature columns"),
    ("record-state-out-of-range", "mdp", _set_record("x", 4), InputShapeError,
     r"state 4 is not an integer in \[0, 4\)"),
    ("record-next-out-of-range", "mdp", _set_record("next", 4), InputShapeError,
     r"next state 4 is not an integer in \[0, 4\)"),
    ("record-action-fraction", "mdp", _set_record("a", 0.5), InputShapeError,
     r"action 0.5 is not an integer"),
    ("record-without-p", "mdp", lambda doc: doc["transitions"][0].pop("p"), ConfigError,
     "missing required field 'p'"),
    ("no-num-actions", "mdp", lambda doc: doc.pop("num_actions"), ConfigError,
     "missing required field 'num_actions'"),
    ("fractional-count", "mdp", lambda doc: doc.update(num_states=4.5), InputShapeError,
     "state and action counts must be positive integers, got 4.5 and 2"),
    *[(name, kind, edit, ConfigError, match) for name, kind, edit, match in TYPE_CASES],
]


@pytest.mark.parametrize("kind, edit, error, match",
                         [case[1:] for case in FIXTURE_CASES],
                         ids=[case[0] for case in FIXTURE_CASES])
def test_fixture_refusals(tmp_path, kind, edit, error, match):
    if kind == "mdp":
        path = tmp_path / "mdp.json"
        path.write_text(json.dumps(_mdp_doc(edit)))
        raises(error, match, lambda: fixtures.load_mdp_fixture(path))
    else:
        path = tmp_path / "features.json"
        path.write_text(json.dumps(_feature_doc(edit)))
        raises(error, match, lambda: fixtures.load_feature_fixture(path, mdp4()))


DIRECTORY = "a directory"  # a content that _put makes a directory of


def _put(path, content):
    """Make ``path`` hold ``content``: text, raw bytes, a directory
    (DIRECTORY) or, for None, nothing."""
    if content == DIRECTORY:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)


@pytest.mark.parametrize("content, match", [
    (None, "mdp fixture not found: "), ("{", "mdp fixture is not valid JSON: "),
    ("[1]", "mdp fixture must hold a JSON object"),
    (DIRECTORY, "mdp fixture cannot be read: "),
    (b'{"num_states": "\xff"}', "mdp fixture is not valid JSON: 'utf-8' codec"),
    (0, "mdp fixture path must be a string, got 0")])
def test_unreadable_fixture_is_config_error(tmp_path, content, match):
    # a missing file or invalid JSON was a traceback (exit 1), and so were a
    # directory (IsADirectoryError) and invalid UTF-8 (UnicodeDecodeError);
    # an integer, given as the path itself, was opened as a file descriptor
    path = tmp_path / "mdp.json"
    if isinstance(content, int):
        path = content
    else:
        _put(path, content)
    raises(ConfigError, match, lambda: fixtures.load_mdp_fixture(path))


# (id, which fixture the config names, its document or None for a missing file, exit code)
CLI_FIXTURE_CASES = [
    ("missing-mdp-file", "mdp", None, EXIT_CONFIG),
    ("invalid-mdp-json", "mdp", "{", EXIT_CONFIG),
    ("missing-feature-file", "features", None, EXIT_CONFIG),
    ("mdp-path-a-directory", "mdp", DIRECTORY, EXIT_CONFIG),
    ("mdp-invalid-utf8", "mdp", b"\xff\xfe{}", EXIT_CONFIG),
    ("missing-record-field", "mdp",
     json.dumps(_mdp_doc(lambda doc: doc["transitions"][0].pop("next"))), EXIT_CONFIG),
    ("normalize-string", "features",
     json.dumps(_feature_doc(lambda doc: doc.update(normalize="false"))), EXIT_CONFIG),
    ("action-out-of-range", "features", json.dumps(_feature_doc(_set_entry("a", 5))),
     EXIT_INPUT_SHAPE),
    ("fractional-state", "features", json.dumps(_feature_doc(_set_entry("x", 1.7))),
     EXIT_INPUT_SHAPE),
    *[(name, kind, json.dumps((_mdp_doc if kind == "mdp" else _feature_doc)(edit)), EXIT_CONFIG)
      for name, kind, edit, _ in TYPE_CASES],
]


@pytest.mark.parametrize("which, content, code", [case[1:] for case in CLI_FIXTURE_CASES],
                         ids=[case[0] for case in CLI_FIXTURE_CASES])
def test_cli_fixture_errors_exit_with_their_codes(tmp_path, capsys, which, content, code):
    paths = {"mdp": str(DATA / "mdp4.json"), "features": str(DATA / "features3.json")}
    paths[which] = str(tmp_path / f"{which}.json")
    _put(Path(paths[which]), content)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"problem": {"mdp_path": paths["mdp"]},
                               "features": {"path": paths["features"]},
                               "solver": {"iterations": 5}}))
    out = tmp_path / "o"
    assert main(["solve-avg", "--config", str(cfg), "--out", str(out)]) == code
    prefix = "config error: " if code == EXIT_CONFIG else "input shape error: "
    assert capsys.readouterr().err.startswith(prefix)
    assert not out.exists()


# --------------------------------------------------------------- mdp

def _negative_kernel():
    return MdpModel.create(2, 1, np.array([[1.5, -0.5], [0.0, 1.0]]), np.zeros(2))


MDP_CASES = [
    ("negative-probability", _negative_kernel, ParameterError,
     "transition probabilities must be nonnegative"),
    ("policy-not-2d", lambda: Policy(np.full(4, 0.5)), InputShapeError,
     r"policy probabilities must be a 2-D"),
    ("bellman-average-length", lambda: bellman_average(mdp4(), np.zeros(3)),
     InputShapeError, "h must have length 4"),
    ("bellman-discounted-length", lambda: bellman_discounted(mdp4(), np.zeros(5), 0.9),
     InputShapeError, "J must have length 4"),
    ("solve-optimal-no-gamma", lambda: solve_optimal(mdp4(), "discounted"), ParameterError,
     "discounted mode needs gamma"),
    ("solve-optimal-bad-gamma", lambda: solve_optimal(mdp4(), "discounted", gamma=1.0),
     ParameterError, r"gamma must lie in \(0, 1\), got 1.0"),
    ("solve-optimal-unknown-mode", lambda: solve_optimal(mdp4(), "avg"), ParameterError,
     "unknown mode 'avg'"),
    ("pair-index-out-of-range", lambda: mdp4().pair_index(0, 2), InputShapeError,
     r"action 2 is not an integer in \[0, 2\)"),
    ("pair-index-fraction", lambda: mdp4().pair_index(1.0, 0), InputShapeError,
     "state 1.0 is not an integer"),
    ("record-next-negative",
     lambda: MdpModel.from_records(1, 1, [(0, 0, -1, 1.0)], [0.0]), InputShapeError,
     r"next state -1 is not an integer in \[0, 1\)"),
    # bare ValueErrors from the unpacking and the reshape of the kernel
    ("dense-kernel-2d", lambda: MdpModel.from_dense(np.ones((2, 2)), np.zeros((2, 2))),
     InputShapeError, r"kernel must have shape \(X, A, X\), got \(2, 2\)"),
    ("dense-kernel-not-square",
     lambda: MdpModel.from_dense(np.full((2, 2, 3), 1 / 3), np.zeros((2, 2))), InputShapeError,
     r"kernel must have shape \(X, A, X\), got \(2, 2, 3\)"),
    # scipy's "index pointer size 4 should be 3"
    ("create-transitions-shape", lambda: MdpModel.create(2, 1, sp.eye(3, 2), np.zeros(2)),
     InputShapeError, r"transitions must have shape \(X\*A, X\) = \(2, 2\), got \(3, 2\)"),
    # a TypeError
    ("create-float-count", lambda: MdpModel.create(2.0, 1, np.eye(2), np.zeros(2)),
     InputShapeError, "state and action counts must be positive integers, got 2.0 and 1"),
    ("create-zero-actions", lambda: MdpModel.create(2, 0, np.zeros((0, 2)), np.zeros(0)),
     InputShapeError, "state and action counts must be positive integers, got 2 and 0"),
    # a ZeroDivisionError
    ("occupancy-zero-actions", lambda: policy_from_occupancy(np.ones(4), 0), InputShapeError,
     "num_actions must be a positive integer, got 0"),
]


@pytest.mark.parametrize("call, error, match", [case[1:] for case in MDP_CASES],
                         ids=[case[0] for case in MDP_CASES])
def test_mdp_refusals(call, error, match):
    raises(error, match, call)


def test_pair_index_accepts_numpy_integers():
    assert mdp4().pair_index(np.int64(3), np.int32(1)) == 7


# --------------------------------------------------------------- features

def _space(**kwargs):
    model = mdp4()
    return FeatureSpace(model, kwargs.pop("phi", sp.eye(8, 2, format="csr")), **kwargs)


def _norm_proportional(**kwargs):
    """The norm-proportional sampler of ``_space(**kwargs)`` on its own model."""
    space = _space(**kwargs)
    return make_norm_proportional_sampling(space.model, space, 1.0)


FEATURE_CASES = [
    ("phi-rows", lambda: _space(phi=sp.csr_matrix((7, 2))), InputShapeError,
     "phi must have 8 rows, got 7"),
    ("names-length", lambda: _space(names=["only"]), InputShapeError,
     "one name per feature column expected"),
    ("mu0-length", lambda: _space(mu0=np.zeros(7)), InputShapeError,
     "mu0 must have length 8"),
    ("norm-proportional-zero-phi", lambda: _norm_proportional(phi=sp.csr_matrix((8, 2))),
     ParameterError, "norm-proportional sampling needs a nonzero feature matrix"),
]


@pytest.mark.parametrize("call, error, match", [case[1:] for case in FEATURE_CASES],
                         ids=[case[0] for case in FEATURE_CASES])
def test_features_refusals(call, error, match):
    raises(error, match, call)


# (id, call(model, fs, sampler)) of the entry points that take a model beside a
# feature space, with features3 and its sampler on mdp4 and a 3-state model:
# they ran on, scaled the sampler by the wrong sizes, refused valid draws or
# died in numpy's broadcast
OTHER_MODEL_CASES = [
    ("oracle", lambda model, fs, sampler: discounted.exact_subgradient_disc(
        model, fs, 1.0, 0.9, None, np.zeros(fs.dim))),
    ("estimator", lambda model, fs, sampler: avgcost.estimate_violations(
        model, fs, sampler, np.zeros(fs.dim), 10, np.random.default_rng(0))),
    ("solver", lambda model, fs, sampler: avgcost.sgd_solve_avg(
        model, fs, sampler, avgcost.AvgSolverConfig(penalty=1.0, radius=1.5, iterations=5))),
    ("sampler", lambda model, fs, sampler: make_uniform_sampling(model, fs, 1.0)),
]


@pytest.mark.parametrize("call", [case[1] for case in OTHER_MODEL_CASES],
                         ids=[case[0] for case in OTHER_MODEL_CASES])
def test_entry_points_refuse_another_model(call):
    model = mdp4()
    fs = fixtures.load_feature_fixture(DATA / "features3.json", model)
    other = MdpModel.from_dense(np.full((3, 2, 3), 1.0 / 3.0), np.zeros((3, 2)))
    raises(InputShapeError, "the model is not the one the feature space was built on",
           lambda: call(other, fs, make_uniform_sampling(model, fs, 1.0)))


# --------------------------------------------------------------- _sgd and the solvers

def _meta_disc(**kwargs):
    model = mdp4()
    fs = fixtures.load_feature_fixture(DATA / "features3.json", model)
    args = {"gamma": 0.9, "alpha": None, "tolerance": 0.6, "failure_prob": 0.2, "seed": 5,
            "radius": 1.5, "violation_bound": 0.8, "selection_weight": 0.8, **kwargs}
    return discounted.meta_solve_disc(model, fs, make_uniform_sampling(model, fs, 0.9), **args)


SOLVER_CASES = [
    ("sgd-zero-iterations", lambda: run_projected_sgd(None, 0, 0.1, seed=0), ParameterError,
     "iterations must be >= 1"),
    # with the rate halved at every step, 2 ** -1023 is below the smallest normal float
    ("sgd-rate-halved-below-normal", lambda: run_projected_sgd(
        None, 1024, 1.0, seed=0, lr_halving_period=1), ParameterError,
     "the learning rate 1.0 halved 1023 times falls below the smallest normal float"),
    ("sgd-subnormal-rate", lambda: run_projected_sgd(None, 5, 1e-310, seed=0), ParameterError,
     "the learning rate 1e-310 halved 0 times falls below"),
    ("config-negative-seed", lambda: SolverConfig(penalty=1.0, radius=1.0, iterations=5,
                                                  seed=-1),
     ParameterError, "seed must be a non-negative integer or a SeedSequence, got -1"),
    ("config-fractional-seed", lambda: SolverConfig(penalty=1.0, radius=1.0, iterations=5,
                                                    seed=1.5),
     ParameterError, "seed must be a non-negative integer"),
    ("meta-disc-gamma", lambda: _meta_disc(gamma=1.0), ParameterError,
     r"gamma must lie in \(0, 1\)"),
    # the cap was cast with int(), so 2.7 ran 2 steps per point
    ("meta-disc-fractional-cap", lambda: _meta_disc(max_iterations_per_point=2.7),
     ParameterError, r"max_iterations_per_point must be >= 1 \(a positive integer\), got 2.7"),
    ("meta-disc-zero-cap", lambda: _meta_disc(max_iterations_per_point=0),
     ParameterError, "max_iterations_per_point must be >= 1"),
]


@pytest.mark.parametrize("call, error, match", [case[1:] for case in SOLVER_CASES],
                         ids=[case[0] for case in SOLVER_CASES])
def test_solver_refusals(call, error, match):
    raises(error, match, call)


def test_numpy_integer_halving_period_and_cap_are_accepted():
    cfg = SolverConfig(penalty=1.0, radius=1.0, iterations=np.int64(5),
                       lr_halving_period=np.int64(5), seed=np.int64(3))
    assert cfg.lr_halving_period == 5
    result = _meta_disc(max_iterations_per_point=np.int64(3))
    assert result.iterations_per_point.tolist() == [3] * len(result.grid_points)


def test_exact_violations_above_dense_guard():
    """The exact oracles are sparse products, so they run on a model of more
    than DENSE_GUARD pairs: action 0 stays, action 1 moves to the next state."""
    num_states = DENSE_GUARD // 2 + 1
    num_pairs = 2 * num_states
    states = np.arange(num_states)
    kernel = sp.csr_matrix((np.ones(num_pairs), np.stack([states, (states + 1) % num_states],
                                                         axis=1).ravel(),
                            np.arange(num_pairs + 1)), shape=(num_pairs, num_states))
    model = MdpModel.create(num_states, 2, kernel, np.zeros(num_pairs))
    assert model.num_pairs > DENSE_GUARD
    rng = np.random.default_rng(3)
    phi = sp.random(num_pairs, 3, density=2e-5, random_state=rng, format="csr")
    phi.data -= 0.5
    fs = FeatureSpace(model, phi)
    theta = np.array([1.0, -2.0, 0.5])
    u = (phi @ theta).reshape(num_states, 2)
    neg_mass = np.abs(np.minimum(u, 0.0)).sum()
    outflow, inflow = u.sum(axis=1), u[:, 0] + np.roll(u[:, 1], 1)
    np.testing.assert_allclose(avgcost.violations_exact(model, fs, theta),
                               (neg_mass, np.abs(inflow - outflow).sum()), rtol=1e-12)
    gamma, alpha = 0.9, np.full(num_states, 1.0 / num_states)
    np.testing.assert_allclose(
        discounted.violations_exact_disc(model, fs, gamma, None, theta),
        (neg_mass, np.abs(outflow - gamma * inflow - alpha).sum()), rtol=1e-12)


# --------------------------------------------------------------- queueing and trace

QUEUE_CASES = [
    ("probability-count", lambda: QueueNetSpec((2, 1, 1, 2), (0.1,), (0.2,) * 4),
     ParameterError, "two arrival and four service probabilities required"),
    # num_states was 28.0, and build_mdp and heuristic_policy raised TypeErrors
    ("buffer-fraction", lambda: QueueNetSpec((2.5, 1, 1, 1), (0.1, 0.1), (0.2,) * 4),
     ParameterError, r"four integer buffer capacities >= 1 required, got \(2.5, 1, 1, 1\)"),
    # read as a buffer of 1
    ("buffer-bool", lambda: QueueNetSpec((True, 1, 1, 1), (0.1, 0.1), (0.2,) * 4),
     ParameterError, r"four integer buffer capacities >= 1 required, got \(True"),
    # TypeErrors from len() and tuple()
    ("buffers-not-a-sequence", lambda: QueueNetSpec(5, (0.1, 0.1), (0.2,) * 4),
     ParameterError, "four integer buffer capacities >= 1 required, got 5"),
    ("buffers-0d-array", lambda: QueueNetSpec(np.array(5), (0.1, 0.1), (0.2,) * 4),
     ParameterError, r"four integer buffer capacities >= 1 required, got array\(5\)"),
    ("arrival-probs-not-a-sequence", lambda: QueueNetSpec((2, 1, 1, 2), 0.1, (0.2,) * 4),
     ParameterError, "two arrival and four service probabilities required"),
    ("service-probs-none", lambda: QueueNetSpec((2, 1, 1, 2), (0.1, 0.1), None),
     ParameterError, "two arrival and four service probabilities required"),
    # a TypeError from the comparison
    ("probability-string", lambda: QueueNetSpec((2, 1, 1, 2), ("0.1", 0.1), (0.2,) * 4),
     ParameterError, r"probabilities must be numbers in \[0, 1\], got \('0.1'"),
    ("action-out-of-range", lambda: served_queues(4), InputShapeError,
     r"action 4 is not an integer in \[0, 4\)"),
    ("action-fraction", lambda: served_queues(1.5), InputShapeError,
     "action 1.5 is not an integer"),
    # a bare ValueError from numpy
    ("simulation-negative-seed", lambda: evaluate_policy_simulated(
        DESK_SPEC, heuristic_policy(DESK_SPEC, "LBFS"), 200, 20, 1, seed=-1),
     ParameterError, "seed must be a non-negative integer or a SeedSequence, got -1"),
]


@pytest.mark.parametrize("call, error, match", [case[1:] for case in QUEUE_CASES],
                         ids=[case[0] for case in QUEUE_CASES])
def test_queueing_refusals(call, error, match):
    raises(error, match, call)


def test_build_features_refuses_unknown_stationary_mode():
    spec = QueueNetSpec((2, 1, 1, 2), (0.1, 0.1), (0.2, 0.2, 0.3, 0.3))
    raises(ParameterError, "unknown stationary_mode 'simulated'",
           lambda: build_features(spec, build_mdp(spec), loss_intervals=((1, 6),),
                                  component_intervals=((0, 2),),
                                  stationary_mode="simulated"))


def test_trace_refuses_bad_header(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("t,objective,v_hat\n1,0.5,0.1\n")
    raises(InputShapeError, "unexpected trace header", lambda: read_trace_csv(path))


@pytest.mark.parametrize("row, match", [
    (b"2,0.5,0.1", "trace line 3: not enough values to unpack"),
    (b"2,0.5,0.1,,7", "trace line 3: too many values to unpack"),
    (b"2.5,0.5,0.1,", "trace line 3: invalid literal for int"),
    (b"2,0.5,high,", "trace line 3: could not convert string to float: 'high'"),
    (b"2,0.5,0.1,\xff", "trace line 3: could not convert string to float: '\ufffd'")],
    ids=["short-row", "long-row", "fractional-t", "bad-float", "not-utf8"])
def test_trace_refuses_bad_rows(tmp_path, row, match):
    # a short row was a bare IndexError, an unparsed cell a bare ValueError and
    # a byte that is not UTF-8 a UnicodeDecodeError
    path = tmp_path / "trace.csv"
    path.write_bytes(b"t,objective,v_hat,eval_cost\n1,0.5,0.1,\n" + row + b"\n")
    raises(InputShapeError, match, lambda: read_trace_csv(path))


# --------------------------------------------------------------- cli

# (id, config document or its raw text, bytes or DIRECTORY, environment seed, message)
CLI_CASES = [
    ("invalid-json", "{\"solver\": ", None, "config error: config file is not valid JSON"),
    ("config-a-directory", DIRECTORY, None, "config error: config file cannot be read: "),
    ("config-invalid-utf8", b'{"solver": {"seed": "\xe9"}}', None,
     "config error: config file is not valid JSON: 'utf-8' codec"),
    ("unknown-preset", {"problem": {"queue_preset": "huge"}}, None,
     "config error: unknown queue preset 'huge'"),
    # a list was hashed by the preset lookup: TypeError, exit 1
    ("preset-a-list", {"problem": {"queue_preset": ["desk"]}}, None,
     "config error: unknown queue preset ['desk']"),
    # open() took 0 for stdin (read, then closed) and True for stdout
    ("mdp-path-an-integer", {"problem": {"mdp_path": 0}}, None,
     "config error: mdp fixture path must be a string, got 0"),
    ("mdp-path-a-bool", {"problem": {"mdp_path": True}}, None,
     "config error: mdp fixture path must be a string, got True"),
    ("no-features", {"problem": {"mdp_path": str(DATA / "mdp4.json")}}, None,
     "config error: config needs features.path (or a queue problem)"),
    ("env-seed-not-integer", {}, "7.5", f"config error: {SEED_ENV_VAR} must be an integer"),
    ("rate-halved-below-normal", {
        "problem": {"mdp_path": str(DATA / "mdp4.json")},
        "features": {"path": str(DATA / "features3.json")},
        "solver": {"iterations": 1100, "learning_rate": 0.5, "lr_halving_period": 1}}, None,
     "error: the learning rate 0.5 halved 1099 times falls below the smallest normal float"),
]


@pytest.mark.parametrize("document, env_seed, message", [case[1:] for case in CLI_CASES],
                         ids=[case[0] for case in CLI_CASES])
def test_cli_refusals(tmp_path, monkeypatch, capsys, document, env_seed, message):
    cfg = tmp_path / "config.json"
    _put(cfg, document if isinstance(document, (str, bytes)) else json.dumps(document))
    if env_seed is not None:
        monkeypatch.setenv(SEED_ENV_VAR, env_seed)
    out = tmp_path / "o"
    assert main(["solve-avg", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()

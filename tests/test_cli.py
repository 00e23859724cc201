import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dualalp import _sgd, avgcost, cli, discounted, features
from dualalp.cli import (EXIT_CAPACITY, EXIT_CONFIG, EXIT_INPUT_SHAPE, EXIT_SAMPLING,
                         SEED_ENV_VAR, main)
from dualalp.errors import SamplingSupportError
from dualalp.features import make_uniform_sampling
from dualalp.fixtures import load_feature_fixture, load_mdp_fixture
from dualalp.trace import read_trace_csv

DATA = Path(__file__).parent / "data"


def base_config(tmp_path, **solver):
    cfg = {
        "problem": {"mdp_path": str(DATA / "mdp4.json")},
        "features": {"path": str(DATA / "features3.json")},
        "sampling": {"scheme": "uniform"},
        "solver": {"penalty": 2.0, "radius": 1.5, "iterations": 200, "seed": 7,
                   **solver},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def read_summary(out_dir):
    with open(Path(out_dir) / "summary.json") as handle:
        return json.load(handle)


def test_solve_avg_writes_outputs(tmp_path, capsys):
    cfg = base_config(tmp_path)
    out = tmp_path / "out"
    assert main(["solve-avg", "--config", str(cfg), "--out", str(out)]) == 0
    summary = read_summary(out)
    assert summary["config"]["mode"] == "solve-avg"
    assert summary["config"]["solver"]["seed"] == 7
    assert len(summary["result"]["theta"]) == 3
    assert "violations_exact" in summary["result"]
    cols = read_trace_csv(out / "trace.csv")
    assert cols["t"][-1] == 200
    # the resolved config materializes every default
    assert "failure_prob" in summary["config"]["solver"]
    assert summary["config"]["eval"]["mode"] == "none"


def test_solve_avg_byte_identical_reruns(tmp_path):
    cfg = base_config(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["solve-avg", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["solve-avg", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_solve_avg_seed_changes_trace(tmp_path):
    cfg = base_config(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["solve-avg", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["solve-avg", "--config", str(cfg), "--out", str(out2),
                 "--seed", "8"]) == 0
    assert (out1 / "trace.csv").read_bytes() != (out2 / "trace.csv").read_bytes()
    assert read_summary(out2)["config"]["solver"]["seed"] == 8


def test_seed_env_override(tmp_path):
    cfg = base_config(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    os.environ[SEED_ENV_VAR] = "9"
    try:
        assert main(["solve-avg", "--config", str(cfg), "--out", str(out1)]) == 0
    finally:
        del os.environ[SEED_ENV_VAR]
    assert main(["solve-avg", "--config", str(cfg), "--out", str(out2),
                 "--seed", "9"]) == 0
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()


def test_solve_disc_pipeline(tmp_path):
    cfg = base_config(tmp_path, discount=0.85)
    out = tmp_path / "out"
    assert main(["solve-disc", "--config", str(cfg), "--out", str(out)]) == 0
    summary = read_summary(out)
    assert summary["result"]["discount"] == 0.85
    assert summary["result"]["alpha_spec"] == "uniform"
    assert (out / "trace.csv").exists()


def test_meta_avg_pipeline(tmp_path):
    cfg_doc = {
        "problem": {"mdp_path": str(DATA / "mdp4.json")},
        "features": {"path": str(DATA / "features3.json")},
        "solver": {"radius": 1.5, "seed": 3, "tolerance": 0.8, "failure_prob": 0.2},
        "meta": {"violation_bound": 1.0, "selection_weight": 1.0},
    }
    cfg = tmp_path / "meta.json"
    cfg.write_text(json.dumps(cfg_doc))
    out = tmp_path / "out"
    assert main(["meta-avg", "--config", str(cfg), "--out", str(out)]) == 0
    summary = read_summary(out)
    points = summary["result"]["grid_points"]
    assert len(points) >= 2
    for k in range(len(points)):
        assert (out / f"trace_{k:03d}.csv").exists()
    # selection bookkeeping is recomputable from the summary alone
    recomputed = [summary["result"]["linear_objectives"][k]
                  + points[k] * summary["result"]["violation_estimates"][k]
                  + summary["result"]["selection_weight"] / points[k]
                  for k in range(len(points))]
    np.testing.assert_allclose(recomputed, summary["result"]["selection_values"],
                               atol=1e-12)
    assert summary["result"]["chosen_index"] == int(np.argmin(recomputed))


def test_meta_disc_pipeline(tmp_path):
    cfg_doc = {
        "problem": {"mdp_path": str(DATA / "mdp4.json")},
        "features": {"path": str(DATA / "features3.json")},
        "solver": {"radius": 1.5, "seed": 3, "tolerance": 0.8, "failure_prob": 0.2,
                   "discount": 0.8},
        "meta": {"violation_bound": 1.0, "selection_weight": 1.0},
    }
    cfg = tmp_path / "meta.json"
    cfg.write_text(json.dumps(cfg_doc))
    out = tmp_path / "out"
    assert main(["meta-disc", "--config", str(cfg), "--out", str(out)]) == 0
    summary = read_summary(out)
    assert summary["result"]["discount"] == 0.8
    assert len(summary["result"]["grid_points"]) >= 2


def test_print_grid_stdout(capsys):
    assert main(["print-grid", "--v-max", "1.0", "--beta", "1.0",
                 "--epsilon", "0.5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert float(lines[0]) == pytest.approx(1.0)
    assert float(lines[1]) == pytest.approx(1.25)


def test_grid_past_the_point_limit_exits_capacity(tmp_path, capsys):
    # a grid of about 2,000,001 points: refused before a point is printed or solved
    assert main(["print-grid", "--v-max", "1.0", "--beta", "1.0", "--epsilon", "1e-3",
                 "--out", str(tmp_path / "grid")]) == EXIT_CAPACITY
    captured = capsys.readouterr()
    assert captured.out == "" and "capacity error" in captured.err
    assert not (tmp_path / "grid" / "summary.json").exists()
    cfg = tmp_path / "meta.json"
    cfg.write_text(json.dumps({
        "problem": {"mdp_path": str(DATA / "mdp4.json")},
        "features": {"path": str(DATA / "features3.json")},
        "solver": {"radius": 1.5, "seed": 3, "tolerance": 1e-3, "failure_prob": 0.2},
        "meta": {"violation_bound": 1.0, "selection_weight": 1.0}}))
    out = tmp_path / "out"
    assert main(["meta-avg", "--config", str(cfg), "--out", str(out)]) == EXIT_CAPACITY
    assert "penalty grid passes 1000000 points" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("flag, value", [("--beta", "nan"), ("--beta", "inf")])
def test_print_grid_refuses_non_finite_input(capsys, flag, value):
    # printed a one-point grid and exited 0 (an infinite --v-max never returned;
    # tests/test_grid.py covers it in the library)
    args = {"--v-max": "1.0", "--beta": "1.0", "--epsilon": "0.05", flag: value}
    assert main(["print-grid", *[part for item in args.items() for part in item]]) == EXIT_CONFIG
    assert "must be positive and finite" in capsys.readouterr().err


def test_eval_policy_heuristic(tmp_path):
    small = {
        "problem": {"queue_preset": "desk"},
        "policy": {"heuristic": "LBFS"},
        "eval": {"mode": "simulated", "horizon": 3000, "burn_in": 300, "reps": 2},
    }
    cfg = tmp_path / "eval.json"
    cfg.write_text(json.dumps(small))
    out = tmp_path / "out"
    assert main(["eval-policy", "--config", str(cfg), "--out", str(out)]) == 0
    summary = read_summary(out)
    assert summary["result"]["policy"] == "LBFS"
    assert summary["result"]["simulated_loss"] > 0


def test_eval_policy_exact_and_simulated_costs_share_their_unit(tmp_path):
    """Both modes report a cost per unit of capacity: on desk LBFS they read
    0.2716 (exact) and 0.2794 (simulated, default eval keys)."""
    results = {}
    for mode in ("exact", "simulated"):
        cfg = tmp_path / f"{mode}.json"
        cfg.write_text(json.dumps({"problem": {"queue_preset": "desk"},
                                   "policy": {"heuristic": "LBFS"}, "eval": {"mode": mode}}))
        out = tmp_path / mode
        assert main(["eval-policy", "--config", str(cfg), "--out", str(out)]) == 0
        results[mode] = read_summary(out)["result"]
    exact, simulated = results["exact"]["average_loss"], results["simulated"]["simulated_loss"]
    assert simulated == pytest.approx(exact, rel=0.05)
    assert 0 < results["simulated"]["std"] < simulated


def test_config_errors_exit_code(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["solve-avg", "--config", str(missing)]) == EXIT_CONFIG
    bad = tmp_path / "bad.json"
    bad.write_text('{"problem": {}}')
    assert main(["solve-avg", "--config", str(bad), "--out",
                 str(tmp_path / "o")]) == EXIT_CONFIG
    unknown_key = tmp_path / "unknown.json"
    unknown_key.write_text(json.dumps({
        "problem": {"mdp_path": str(DATA / "mdp4.json")},
        "features": {"path": str(DATA / "features3.json")},
        "solver": {"bogus_knob": 1},
    }))
    assert main(["solve-avg", "--config", str(unknown_key), "--out",
                 str(tmp_path / "o2")]) == EXIT_CONFIG
    # a discount outside (0, 1) must not reach the sum-radius check's 1/(1 - discount)
    no_discount = base_config(tmp_path, discount=1.0, enforce_sum_constraint=True)
    assert main(["solve-disc", "--config", str(no_discount), "--out",
                 str(tmp_path / "o3")]) == EXIT_CONFIG


def test_capacity_error_exit_code(tmp_path):
    cfg = tmp_path / "paper_bench.json"
    cfg.write_text(json.dumps({"problem": {"queue_preset": "paper"}}))
    # the paper preset cannot be solved exactly: meta-avg on it must refuse
    assert main(["meta-avg", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == EXIT_CAPACITY


def test_bench_queue_paper_does_not_depend_on_worker_count(tmp_path, monkeypatch):
    # the simulated replications run in the calling process with one CPU and in
    # forked workers with two
    cfg = tmp_path / "paper_eval.json"
    cfg.write_text(json.dumps({"eval": {"horizon": 3000, "burn_in": 300, "reps": 3}}))
    summaries = []
    for cpus in (1, 2):
        monkeypatch.setattr(_sgd, "_cpu_count", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        assert main(["bench-queue", "--preset", "paper", "--config", str(cfg), "--seed", "3",
                     "--out", str(out)]) == 0
        summaries.append((out / "summary.json").read_bytes())
    assert summaries[0] == summaries[1]


def test_input_shape_error_exit_code(tmp_path):
    cfg = base_config(tmp_path, initial_dist=[0.5, 0.5])  # mdp4.json has 4 states
    assert main(["solve-disc", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == EXIT_INPUT_SHAPE


def test_sampling_support_error_exit_code(tmp_path, monkeypatch):
    def no_support(self, rng, size):
        raise SamplingSupportError("sampled a point with zero sampling probability")

    monkeypatch.setattr(features.SamplingPair, "sample_pairs", no_support)
    cfg = base_config(tmp_path)
    assert main(["solve-avg", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == EXIT_SAMPLING


@pytest.mark.parametrize("mode, solver", [
    ("solve-disc", {"enforce_sum_constraint": True}),  # needs radius >= 10/sqrt(3)
    ("solve-avg", {"radius": 0.5}),  # needs radius >= 1/sqrt(3)
], ids=["solve-disc-enforce", "solve-avg"])
def test_sum_radius_checked_before_sampler(tmp_path, monkeypatch, capsys, mode, solver):
    def no_sampler(*args, **kwargs):
        pytest.fail("the sampler was built before the radius check")

    monkeypatch.setattr(cli, "make_uniform_sampling", no_sampler)
    cfg = base_config(tmp_path, **solver)
    out = tmp_path / "o"
    assert main([mode, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert "config error: radius" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_bench_queue_checks_sum_radius_before_sampler(tmp_path, monkeypatch, capsys):
    def no_sampler(*args, **kwargs):
        pytest.fail("the sampler was built before the radius check")

    monkeypatch.setattr(cli, "make_norm_proportional_sampling", no_sampler)
    cfg = tmp_path / "bench.json"
    # mu0 "zero" enforces sum(theta) = 1 on d = 170 features
    cfg.write_text(json.dumps({"bench": {"mu0": "zero", "radius": 0.01}}))
    assert main(["bench-queue", "--preset", "desk", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "config error: radius" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["solve-avg", "solve-disc", "meta-avg", "meta-disc"])
def test_negative_radius_checked_before_sampler(tmp_path, monkeypatch, capsys, mode):
    def no_sampler(*args, **kwargs):
        pytest.fail("the sampler was built before the radius check")

    monkeypatch.setattr(cli, "make_uniform_sampling", no_sampler)
    cfg = base_config(tmp_path, radius=-1.5)
    out = tmp_path / "o"
    assert main([mode, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert "config error: radius must be positive" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_bench_queue_checks_negative_radius_before_sampler(tmp_path, monkeypatch, capsys):
    def no_sampler(*args, **kwargs):
        pytest.fail("the sampler was built before the radius check")

    monkeypatch.setattr(cli, "make_norm_proportional_sampling", no_sampler)
    cfg = tmp_path / "bench.json"
    # mu0 "LBFS" sets no sum constraint, so only the sign rule can catch this
    cfg.write_text(json.dumps({"bench": {"radius": -1.5}}))
    assert main(["bench-queue", "--preset", "desk", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "config error: radius must be positive" in capsys.readouterr().err


def _no_model(*args, **kwargs):
    pytest.fail("the model was built before the eval check")


@pytest.mark.parametrize("bad_eval", [
    {"horizon": 2000, "burn_in": -2000},  # averaged over horizon - burn_in = 4000 steps
    {"horizon": 2e3},  # a float horizon failed with a TypeError in the simulator
    {"horizon": 2000, "burn_in": 2000},
    {"reps": 0},
    {"reps": True},
    {"mode": "simulatd"},  # eval-policy wrote a summary without a loss and exited 0
], ids=["negative-burn-in", "float-horizon", "burn-in-at-horizon", "no-reps", "bool-reps",
        "unknown-mode"])
def test_eval_policy_checks_eval_section_before_model(tmp_path, monkeypatch, capsys,
                                                      bad_eval):
    monkeypatch.setattr(cli.queueing, "build_mdp", _no_model)
    cfg = tmp_path / "eval.json"
    cfg.write_text(json.dumps({"problem": {"queue_preset": "desk"},
                               "policy": {"heuristic": "LBFS"},
                               "eval": {"mode": "simulated", **bad_eval}}))
    out = tmp_path / "o"
    assert main(["eval-policy", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert "config error: eval" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


# (policy section of an eval-policy run on mdp4.json, what its error names,
# whether it fails before the model)
BAD_POLICIES = [
    ({}, "policy.heuristic", True),  # failed only after the model was built
    ({"heuristic": "LBFS", "theta": [0.2, 0.3, 0.5]}, "policy.theta", True),  # dropped theta
    ({"heuristic": "LBSF"}, "policy.heuristic", True),  # failed only after the model
    ({"heuristic": ["LBFS"]}, "policy.heuristic", True),
    ({"heuristic": "LBFS"}, "queue problem", True),  # failed only after the model
    ({"theta": 0.5}, "policy.theta", True),  # a numpy traceback
    ({"theta": [0.2, "x", 0.5]}, "policy.theta", True),  # a numpy traceback
    ({"theta": [0.2, float("nan"), 0.5]}, "policy.theta", True),
    ({"theta": [0.5, 0.5]}, "policy.theta", False),  # d = 3: a numpy traceback
]


@pytest.mark.parametrize("policy, key, before_model", BAD_POLICIES,
                         ids=[repr(policy) for policy, _, _ in BAD_POLICIES])
def test_eval_policy_checks_policy_section(tmp_path, monkeypatch, capsys, policy, key,
                                           before_model):
    if before_model:
        monkeypatch.setattr(cli.fixtures, "load_mdp_fixture", _no_model)
    cfg = tmp_path / "eval.json"
    cfg.write_text(json.dumps({"problem": {"mdp_path": str(DATA / "mdp4.json")},
                               "features": {"path": str(DATA / "features3.json")},
                               "policy": policy}))
    out = tmp_path / "o"
    assert main(["eval-policy", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert not out.exists()


def _mu0_config(tmp_path, mode) -> Path:
    """The mode's fixture config on features3.json with a uniform mu0 of 1/8
    on the 8 pairs of mdp4.json."""
    features = json.loads((DATA / "features3.json").read_text())
    features["mu0"] = [0.125] * 8
    (tmp_path / "features3-mu0.json").write_text(json.dumps(features))
    cfg = _meta_config(tmp_path) if mode.startswith("meta") else base_config(tmp_path)
    doc = json.loads(cfg.read_text())
    doc["features"]["path"] = str(tmp_path / "features3-mu0.json")
    cfg.write_text(json.dumps(doc))
    return cfg


@pytest.mark.parametrize("mode", ["solve-disc", "meta-disc", "solve-avg"])
def test_discounted_runs_refuse_mu0(tmp_path, capsys, mode):
    # solve-disc and meta-disc dropped mu0 and wrote the theta of the run without it
    out = tmp_path / "o"
    code = main([mode, "--config", str(_mu0_config(tmp_path, mode)), "--out", str(out)])
    if mode == "solve-avg":
        assert code == 0
    else:
        assert code == EXIT_CONFIG
        assert ("error: the discounted surrogate takes no baseline occupancy mu0"
                in capsys.readouterr().err)
        assert not out.exists()


def test_eval_policy_of_solved_theta_reproduces_eval_cost(tmp_path):
    """eval-policy maps the summary's theta to the policy the solver evaluated,
    mu0 + Phi theta, so their exact costs agree bit for bit."""
    cfg = _mu0_config(tmp_path, "solve-avg")
    doc = json.loads(cfg.read_text())
    doc["eval"] = {"mode": "exact"}
    cfg.write_text(json.dumps(doc))
    assert main(["solve-avg", "--config", str(cfg), "--out", str(tmp_path / "solve")]) == 0
    solved = read_summary(tmp_path / "solve")["result"]
    policy_cfg = tmp_path / "policy.json"
    policy_cfg.write_text(json.dumps({"problem": doc["problem"], "features": doc["features"],
                                      "policy": {"theta": solved["theta"]},
                                      "eval": {"mode": "exact"}}))
    assert main(["eval-policy", "--config", str(policy_cfg),
                 "--out", str(tmp_path / "eval")]) == 0
    evaluated = read_summary(tmp_path / "eval")["result"]["average_loss"]
    assert evaluated == solved["final_eval_cost"] == 0.6833948707797046


@pytest.mark.parametrize("mode", ["solve-avg", "meta-disc", "bench-queue"])
def test_solver_and_bench_modes_check_eval_section_before_model(tmp_path, monkeypatch,
                                                                 capsys, mode):
    monkeypatch.setattr(cli.fixtures, "load_mdp_fixture", _no_model)
    monkeypatch.setattr(cli.queueing, "build_mdp", _no_model)
    cfg = base_config(tmp_path)
    doc = json.loads(cfg.read_text())
    doc["eval"] = {"mode": "simulated", "horizon": 2000, "burn_in": -1}
    cfg.write_text(json.dumps(doc))
    assert main([mode, "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "config error: eval" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["solve-avg", "meta-disc"])
def test_simulated_eval_needs_queue_before_features(tmp_path, monkeypatch, capsys, mode):
    def no_features(*args, **kwargs):
        pytest.fail("the features were built before the problem check")

    monkeypatch.setattr(cli.fixtures, "load_feature_fixture", no_features)
    monkeypatch.setattr(cli, "make_uniform_sampling", no_features)
    cfg = base_config(tmp_path)
    doc = json.loads(cfg.read_text())
    doc["eval"] = {"mode": "simulated"}
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main([mode, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert "config error: simulated evaluation needs a queue problem" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def _desk_solver_config(tmp_path, eval_mode: str) -> Path:
    cfg = tmp_path / f"desk-{eval_mode}.json"
    cfg.write_text(json.dumps({"problem": {"queue_preset": "desk"},
                               "solver": {"iterations": 10}, "trace_stride": 10,
                               "eval": {"mode": eval_mode}}))
    return cfg


def test_simulated_eval_cost_has_the_unit_of_exact(tmp_path):
    # the simulated eval_cost was a raw queue length, total_capacity (30) times
    # the exact one at the same policy
    costs = {}
    for mode in ("exact", "simulated"):
        out = tmp_path / mode
        assert main(["solve-avg", "--config", str(_desk_solver_config(tmp_path, mode)),
                     "--out", str(out)]) == 0
        costs[mode] = read_summary(out)["result"]["final_eval_cost"]
    assert costs["simulated"] == pytest.approx(costs["exact"], rel=0.05)


@pytest.mark.parametrize("mode", ["solve-disc", "meta-disc"])
def test_simulated_eval_rejected_for_discounted_runs(tmp_path, monkeypatch, capsys, mode):
    monkeypatch.setattr(cli.queueing, "build_mdp", _no_model)
    out = tmp_path / "o"
    assert main([mode, "--config", str(_desk_solver_config(tmp_path, "simulated")),
                 "--out", str(out)]) == EXIT_CONFIG
    assert "config error: simulated evaluation measures average cost" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("solver", [{"radius": "2"}, {"iterations": True},
                                    {"penalty": None}, {"seed": [7]}],
                         ids=["str-radius", "bool-iterations", "null-penalty", "list-seed"])
def test_solver_numeric_fields_type_checked(tmp_path, monkeypatch, capsys, solver):
    # a string radius died with a TypeError traceback at the first comparison
    monkeypatch.setattr(cli.fixtures, "load_mdp_fixture", _no_model)
    cfg = base_config(tmp_path, **solver)
    assert main(["solve-avg", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    (name, value), = solver.items()
    expected = f"config error: solver.{name} must be a finite number, got {value!r}"
    assert expected in capsys.readouterr().err


@pytest.mark.parametrize("bench", [{"minibatch": "1000"}, {"penalty": False},
                                   {"learning_rate": "fast"}],
                         ids=["str-minibatch", "bool-penalty", "str-learning-rate"])
def test_bench_numeric_fields_type_checked(tmp_path, monkeypatch, capsys, bench):
    monkeypatch.setattr(cli.queueing, "build_mdp", _no_model)
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"bench": bench}))
    assert main(["bench-queue", "--preset", "desk", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    (name, value), = bench.items()
    expected = f"config error: bench.{name} must be a finite number, got {value!r}"
    assert expected in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["solve-avg", "solve-disc", "meta-disc"])
@pytest.mark.parametrize("period", [-5, 0, 2.5, True],
                         ids=["negative", "zero", "fraction", "bool"])
def test_solver_halving_period_checked_before_model(tmp_path, monkeypatch, capsys, mode,
                                                    period):
    # a negative period ran to completion at a rate doubled every period
    monkeypatch.setattr(cli.fixtures, "load_mdp_fixture", _no_model)
    cfg = base_config(tmp_path, lr_halving_period=period)
    assert main([mode, "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert (f"config error: lr_halving_period must be null or a positive integer, "
            f"got {period!r}") in capsys.readouterr().err


@pytest.mark.parametrize("period", [-5, 0, 2.5], ids=["negative", "zero", "fraction"])
def test_bench_halving_period_checked_before_model(tmp_path, monkeypatch, capsys, period):
    monkeypatch.setattr(cli.queueing, "build_mdp", _no_model)
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"bench": {"lr_halving_period": period}}))
    assert main(["bench-queue", "--preset", "desk", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "config error: lr_halving_period must be null" in capsys.readouterr().err


def _meta_config(tmp_path, **meta):
    cfg = base_config(tmp_path, tolerance=0.8, failure_prob=0.2)
    doc = json.loads(cfg.read_text())
    doc["meta"] = {"violation_bound": 1.0, "selection_weight": 1.0, **meta}
    cfg.write_text(json.dumps(doc))
    return cfg


@pytest.mark.parametrize("cap", [0, -3, 2.5, True, "500"],
                         ids=["zero", "negative", "fraction", "bool", "string"])
def test_meta_iteration_cap_checked_before_model(tmp_path, monkeypatch, capsys, cap):
    monkeypatch.setattr(cli.fixtures, "load_mdp_fixture", _no_model)
    cfg = _meta_config(tmp_path, max_iterations_per_point=cap)
    assert main(["meta-disc", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert ("config error: meta.max_iterations_per_point must be null or a positive "
            f"integer, got {cap!r}") in capsys.readouterr().err


def test_meta_avg_rejects_iteration_cap(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli.fixtures, "load_mdp_fixture", _no_model)
    cfg = _meta_config(tmp_path, max_iterations_per_point=500)
    assert main(["meta-avg", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert ("config error: meta.max_iterations_per_point is a meta-disc key"
            in capsys.readouterr().err)


@pytest.mark.parametrize("mode, cap", [("meta-avg", None), ("meta-disc", None),
                                       ("meta-disc", 500)])
def test_meta_summary_echoes_iteration_cap(tmp_path, mode, cap):
    out = tmp_path / "out"
    cfg = _meta_config(tmp_path, max_iterations_per_point=cap)
    assert main([mode, "--config", str(cfg), "--out", str(out)]) == 0
    summary = read_summary(out)
    assert summary["config"]["meta"]["max_iterations_per_point"] == cap
    if cap is not None:
        assert max(summary["result"]["iterations_per_point"]) == cap


def test_numeric_fields_keep_their_named_alternatives():
    # the solver resolves "auto" and treats a null period as no halving
    extra = {"learning_rate": "auto", "lr_halving_period": None, "radius": 3}
    section = cli._resolve_section({"bench": extra}, "bench", cli.BENCH_DEFAULTS)
    assert {key: section[key] for key in extra} == extra


def test_bench_queue_rejects_unknown_sampling_scheme(tmp_path):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"bench": {"sampling": "norm-proportionnal"}}))
    out = tmp_path / "o"
    assert main(["bench-queue", "--preset", "desk", "--config", str(cfg),
                 "--out", str(out)]) == EXIT_CONFIG
    assert not (out / "summary.json").exists()


def _library_theta(mode, summary):
    """theta of the library call that the summary's resolved config names."""
    model = load_mdp_fixture(DATA / "mdp4.json")
    fs = load_feature_fixture(DATA / "features3.json", model)
    s = summary["config"]["solver"]
    gamma = s["discount"]
    alpha = None if s["initial_dist"] == "uniform" else np.asarray(s["initial_dist"])
    if mode.startswith("solve"):
        run_args = dict(penalty=s["penalty"], radius=s["radius"],
                        iterations=s["iterations"], learning_rate=s["learning_rate"],
                        lr_halving_period=s["lr_halving_period"], minibatch=s["minibatch"],
                        seed=s["seed"],
                        trace_violation_samples=s["trace_violation_samples"])
    else:
        meta = summary["config"]["meta"]
        meta_args = dict(violation_bound=meta["violation_bound"],
                         selection_weight=meta["selection_weight"],
                         tolerance=s["tolerance"], failure_prob=s["failure_prob"],
                         seed=s["seed"], radius=s["radius"],
                         learning_rate=s["learning_rate"], minibatch=s["minibatch"])
        if meta["max_iterations_per_point"] is not None:
            meta_args["max_iterations_per_point"] = meta["max_iterations_per_point"]
    if mode == "solve-avg":
        cfg = avgcost.AvgSolverConfig(sum_target=s["sum_target"], **run_args)
        return avgcost.sgd_solve_avg(model, fs, make_uniform_sampling(model, fs, 1.0),
                                     cfg).theta
    if mode == "solve-disc":
        cfg = discounted.DiscSolverConfig(
            discount=gamma, initial_dist=alpha,
            enforce_sum_constraint=s["enforce_sum_constraint"], **run_args)
        return discounted.sgd_solve_disc(model, fs, make_uniform_sampling(model, fs, gamma),
                                         cfg).theta
    if mode == "meta-avg":
        return avgcost.meta_solve_avg(model, fs, make_uniform_sampling(model, fs, 1.0),
                                      sum_target=s["sum_target"], **meta_args).theta
    return discounted.meta_solve_disc(model, fs, make_uniform_sampling(model, fs, gamma),
                                      gamma=gamma, alpha=alpha,
                                      enforce_sum_constraint=s["enforce_sum_constraint"],
                                      **meta_args).theta


QUARTER_DIST = [0.1, 0.2, 0.3, 0.4]


@pytest.mark.parametrize("mode, solver", [
    ("solve-avg", {"minibatch": 4, "lr_halving_period": 50, "sum_target": 0.5}),
    ("solve-avg", {}),
    ("solve-disc", {"discount": 0.85, "initial_dist": QUARTER_DIST,
                    "lr_halving_period": 50}),
    ("solve-disc", {"discount": 0.5, "enforce_sum_constraint": True, "minibatch": 4,
                    "initial_dist": QUARTER_DIST}),
    ("meta-avg", {"tolerance": 0.8, "failure_prob": 0.2, "minibatch": 4,
                  "sum_target": 0.5}),
    ("meta-disc", {"tolerance": 0.8, "failure_prob": 0.2, "discount": 0.5,
                   "initial_dist": QUARTER_DIST, "enforce_sum_constraint": True}),
    ("meta-disc", {"tolerance": 0.8, "failure_prob": 0.2, "discount": 0.8,
                   "max_iterations_per_point": 500}),
], ids=["solve-avg-mb4", "solve-avg", "solve-disc", "solve-disc-enforce-mb4",
        "meta-avg-mb4", "meta-disc-enforce", "meta-disc-cap"])
def test_cli_theta_matches_library(tmp_path, mode, solver):
    """The runner hands every resolved solver and meta key to the library
    unchanged."""
    solver = dict(solver)  # a case's meta key rides in its solver dict
    meta = {"max_iterations_per_point": solver.pop("max_iterations_per_point", None)}
    doc = {"problem": {"mdp_path": str(DATA / "mdp4.json")},
           "features": {"path": str(DATA / "features3.json")},
           "solver": {"penalty": 2.0, "radius": 1.5, "iterations": 200, "seed": 7,
                      **solver}}
    if mode.startswith("meta"):
        doc["meta"] = {"violation_bound": 1.0, "selection_weight": 1.0, **meta}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([mode, "--config", str(cfg), "--out", str(out)]) == 0
    summary = read_summary(out)
    assert summary["result"]["theta"] == [float(v) for v in _library_theta(mode, summary)]


# every key table of the CLI, by config section; None is the top level
CONFIG_TABLES = {
    "solver": cli.SOLVER_DEFAULTS,
    "sampling": cli.SAMPLING_DEFAULTS,
    "features": cli._FEATURES_DEFAULTS,
    "eval": cli.EVAL_DEFAULTS,
    "meta": cli.META_DEFAULTS,
    "bench": cli.BENCH_DEFAULTS,
    None: {"trace_stride": None},
}

# (mode, section, key, bad value); section None is the top level
BAD_VALUES = [
    ("solve-avg", "solver", "penalty", 0),
    ("solve-avg", "solver", "radius", 0.0),
    ("solve-avg", "solver", "iterations", 2.5),
    ("solve-avg", "solver", "learning_rate", -0.1),
    ("solve-avg", "solver", "lr_halving_period", "50"),
    ("solve-avg", "solver", "minibatch", 2.5),  # ran at 2 and echoed 2.5
    ("solve-avg", "solver", "tolerance", 0),
    ("solve-avg", "solver", "failure_prob", 1.0),
    ("solve-avg", "solver", "seed", -1),  # a traceback from numpy
    ("solve-avg", "solver", "seed", 1.5),
    ("solve-avg", "solver", "sum_target", "1"),
    ("solve-disc", "solver", "discount", 1.5),
    ("solve-disc", "solver", "initial_dist", "unifrom"),  # a traceback
    ("solve-disc", "solver", "initial_dist", [0.25, "0.25", 0.25, 0.25]),
    ("solve-disc", "solver", "initial_dist", [float("nan"), 0.5, 0.25, 0.25]),
    ("solve-disc", "solver", "initial_dist", [float("inf"), 0.5, 0.25, 0.25]),
    ("solve-disc", "solver", "enforce_sum_constraint", "false"),  # turned the constraint on
    ("solve-avg", "solver", "trace_violation_samples", 0.5),
    ("solve-avg", "sampling", "scheme", "norm"),
    ("solve-avg", "features", "path", 3),
    ("solve-avg", "features", "queue_builder", {}),  # a removed key
    ("meta-disc", "meta", "violation_bound", -1.0),
    ("meta-disc", "meta", "selection_weight", None),
    ("meta-disc", "meta", "max_iterations_per_point", 2.5),
    ("eval-policy", "eval", "mode", "exactly"),
    ("eval-policy", "eval", "horizon", 0),
    ("eval-policy", "eval", "burn_in", -1),
    ("eval-policy", "eval", "reps", 1.5),
    ("bench-queue", "bench", "penalty", -2.0),
    ("bench-queue", "bench", "minibatch", 0),
    ("bench-queue", "bench", "learning_rate", 0),
    ("bench-queue", "bench", "lr_halving_period", 0),
    ("bench-queue", "bench", "iterations", 1e4),
    ("bench-queue", "bench", "radius", "2"),
    ("bench-queue", "bench", "seed", -1),
    ("bench-queue", "bench", "sampling", "uniforn"),
    ("bench-queue", "bench", "mu0", "LONGEST"),  # failed only after the model was built
    ("bench-queue", "bench", "trace_stride", 100),  # a removed key
    ("solve-avg", None, "trace_stride", "10"),  # a traceback
    ("meta-disc", None, "trace_stride", True),  # recorded every iteration
    ("bench-queue", None, "trace_stride", 0),
    # JSON reads NaN and Infinity; these passed their checks and the model was built
    ("solve-avg", "solver", "penalty", float("inf")),
    ("solve-avg", "solver", "sum_target", float("nan")),
    ("solve-avg", "solver", "learning_rate", float("inf")),
    ("solve-disc", "solver", "radius", float("inf")),
    ("meta-avg", "solver", "tolerance", float("inf")),
    ("meta-avg", "meta", "violation_bound", float("inf")),
    ("meta-disc", "meta", "selection_weight", float("inf")),
    ("bench-queue", "bench", "penalty", float("inf")),
    ("bench-queue", "bench", "learning_rate", float("inf")),
    ("bench-queue", "bench", "radius", float("inf")),
]


def _mode_config(tmp_path, mode):
    """A valid config document for the mode."""
    if mode == "bench-queue":
        return {}
    if mode == "eval-policy":
        return {"problem": {"queue_preset": "desk"}, "policy": {"heuristic": "LBFS"}}
    doc = json.loads(base_config(tmp_path).read_text())
    if mode.startswith("meta"):
        doc["meta"] = {"violation_bound": 1.0, "selection_weight": 1.0}
    return doc


@pytest.mark.parametrize("mode, section, key, value", BAD_VALUES,
                         ids=[f"{s or 'top'}.{k}={v!r}" for _, s, k, v in BAD_VALUES])
def test_every_key_checked_before_model(tmp_path, monkeypatch, capsys, mode, section, key,
                                        value):
    monkeypatch.setattr(cli.fixtures, "load_mdp_fixture", _no_model)
    monkeypatch.setattr(cli.queueing, "build_mdp", _no_model)
    doc = _mode_config(tmp_path, mode)
    (doc.setdefault(section, {}) if section else doc)[key] = value
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main([mode, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("edit", ["nan-mu0", "inf-phi"])
def test_non_finite_feature_fixture_fails_before_the_run(tmp_path, monkeypatch, capsys, edit):
    # a NaN mu0 ran the whole solve and then failed on its policy (exit 2), and
    # an infinite entry of phi failed at the first trace row (exit 4)
    def no_run(*args, **kwargs):
        pytest.fail("the solver ran on non-finite features")

    monkeypatch.setattr(cli.avgcost, "sgd_solve_avg", no_run)
    doc = json.loads((DATA / "features3.json").read_text())
    if edit == "nan-mu0":
        doc["mu0"] = [float("nan")] + [0.0] * 7
    else:
        doc["columns"][0]["entries"][0]["value"] = float("inf")
    features_path = tmp_path / "features.json"
    features_path.write_text(json.dumps(doc))
    cfg = json.loads(base_config(tmp_path).read_text())
    cfg["features"]["path"] = str(features_path)
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    assert main(["solve-avg", "--config", str(tmp_path / "config.json"),
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert f"{edit[4:]} entries must be finite" in capsys.readouterr().err


def test_bad_values_cover_every_table_key():
    keys = {(section, key) for section, table in CONFIG_TABLES.items() for key in table}
    assert keys <= {(section, key) for _, section, key, _ in BAD_VALUES}


@pytest.mark.parametrize("mode", ["solve-avg", "bench-queue"])
@pytest.mark.parametrize("via", ["flag", "env"])
def test_negative_seed_override_checked_before_model(tmp_path, monkeypatch, capsys, mode,
                                                     via):
    # --seed -1 died with a traceback from numpy
    monkeypatch.setattr(cli.fixtures, "load_mdp_fixture", _no_model)
    monkeypatch.setattr(cli.queueing, "build_mdp", _no_model)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_mode_config(tmp_path, mode)))
    args = [mode, "--config", str(cfg), "--out", str(tmp_path / "o")]
    if via == "flag":
        args += ["--seed", "-1"]
    else:
        monkeypatch.setenv(SEED_ENV_VAR, "-1")
    assert main(args) == EXIT_CONFIG
    assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err


def test_bench_queue_reads_trace_stride_flag(tmp_path):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"bench": {"iterations": 400, "minibatch": 16}}))
    out = tmp_path / "o"
    assert main(["bench-queue", "--preset", "desk", "--config", str(cfg), "--out", str(out),
                 "--trace-stride", "100"]) == 0
    assert read_trace_csv(out / "trace.csv")["t"].tolist() == [100, 200, 300, 400]
    assert read_summary(out)["config"]["trace_stride"] == 100


RUN_ONLY_SOLVER_KEYS = {"penalty": 2.0, "iterations": 200, "lr_halving_period": 50,
                        "trace_violation_samples": 8}


@pytest.mark.parametrize("mode", ["solve-avg", "meta-avg", "meta-disc"])
def test_meta_summary_omits_run_only_solver_keys(tmp_path, mode):
    """Meta runs accept and check the solver keys that only solve-* runs
    read, but their summaries do not echo them."""
    cfg = _meta_config(tmp_path)
    doc = json.loads(cfg.read_text())
    doc["solver"].update(RUN_ONLY_SOLVER_KEYS)
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([mode, "--config", str(cfg), "--out", str(out)]) == 0
    echoed = read_summary(out)["config"]["solver"]
    if mode.startswith("meta"):
        assert not set(RUN_ONLY_SOLVER_KEYS) & set(echoed)
        assert echoed["seed"] == 7 and echoed["radius"] == 1.5
    else:
        assert {key: echoed[key] for key in RUN_ONLY_SOLVER_KEYS} == RUN_ONLY_SOLVER_KEYS


def test_readme_config_table_lists_every_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `?([\w ()]+?)`? \| `(\w+)` \|", readme, flags=re.MULTILINE)
    listed = {(None if section == "(top level)" else section, key) for section, key in rows}
    assert listed == {(section, key) for section, table in CONFIG_TABLES.items()
                      for key in table}


@pytest.mark.parametrize("mode, section", [
    ("solve-avg", "solver"), ("meta-disc", "meta"), ("solve-disc", "problem"),
    ("bench-queue", "bench"), ("eval-policy", "policy"), ("eval-policy", "eval")])
@pytest.mark.parametrize("value", [5, [1], "solver"])
def test_non_object_section_is_config_error(tmp_path, capsys, mode, section, value):
    # "solver": 5 died with a TypeError traceback (exit 1)
    doc = _mode_config(tmp_path, mode)
    doc[section] = value
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main([mode, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config section {section!r} must be a JSON object")
    assert not out.exists()


@pytest.mark.parametrize("mode", ["solve-avg", "bench-queue"])
def test_seed_override_into_non_object_section_is_config_error(tmp_path, capsys, mode):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"solver": 5}))
    assert main([mode, "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--seed", "3"]) == EXIT_CONFIG
    assert "config section 'solver' must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("document", [[1], 5, "solver", None])
def test_non_object_config_document_is_config_error(tmp_path, capsys, document):
    # [1] died with an AttributeError traceback (exit 1)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(document))
    out = tmp_path / "o"
    assert main(["solve-avg", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        "config error: config file must hold a JSON object")
    assert not out.exists()


def test_unknown_top_level_key_is_config_error(tmp_path, monkeypatch, capsys):
    # {"solvr": {"iterations": 5}} ran the default 1000 iterations and exited 0
    monkeypatch.setattr(cli.fixtures, "load_mdp_fixture", _no_model)
    doc = _mode_config(tmp_path, "solve-avg")
    doc["solvr"] = {"iterations": 5}
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["solve-avg", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        "config error: unknown top-level config keys: ['solvr']")
    assert not out.exists()


@pytest.mark.parametrize("mode, section, args", [
    ("solve-avg", "meta", []),  # criterion 9 runs solve-* on a config with a meta section
    ("solve-disc", "bench", ["--seed", "3"]),
    ("bench-queue", "solver", ["--seed", "3"]),  # the seed override writes solver and bench
], ids=["solve-with-meta", "solve-with-bench", "bench-with-solver"])
def test_known_sections_a_mode_does_not_read_are_allowed(tmp_path, mode, section, args):
    doc = ({"bench": {"iterations": 400, "minibatch": 16}} if mode == "bench-queue"
           else _mode_config(tmp_path, mode))
    doc[section] = {"seed": 1} if section == "solver" else {}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main([mode, "--config", str(cfg), "--out", str(tmp_path / "o"), *args]) == 0


@pytest.mark.parametrize("mode, section, key, value", [
    ("solve-avg", "solver", "radius", -1.0), ("meta-avg", "meta", "violation_bound", 0),
    ("bench-queue", "bench", "mu0", "LONGEST"), ("eval-policy", "eval", "mode", "exactly"),
    ("solve-disc", "solver", "initial_dist", [float("nan"), 0.5, 0.25, 0.25])])  # wrote NaN
def test_rejected_config_leaves_no_out_dir(tmp_path, mode, section, key, value):
    doc = _mode_config(tmp_path, mode)
    doc.setdefault(section, {})[key] = value
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "nested" / "o"
    assert main([mode, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert not (tmp_path / "nested").exists()


def test_out_dir_made_on_first_write(tmp_path):
    out = tmp_path / "a" / "b"
    assert main(["meta-avg", "--config", str(_meta_config(tmp_path)), "--out", str(out)]) == 0
    assert (out / "summary.json").is_file() and (out / "trace_000.csv").is_file()


@pytest.mark.parametrize("out", ["file", "file/o"], ids=["a-file", "under-a-file"])
@pytest.mark.parametrize("mode", ["solve-avg", "print-grid"])
def test_out_naming_a_file_is_refused_before_the_run(tmp_path, monkeypatch, capsys, mode, out):
    # both ran to the end and then died on the write with FileExistsError (exit 1)
    args = (["--config", str(base_config(tmp_path))] if mode == "solve-avg"
            else ["--v-max", "1.0", "--beta", "1.0", "--epsilon", "0.5"])
    (tmp_path / "file").write_text("kept")
    before = sorted(tmp_path.rglob("*"))

    def no_run(*args):
        pytest.fail("the run started")

    monkeypatch.setattr(cli, "run_solver", no_run)
    monkeypatch.setattr(cli, "run_print_grid", no_run)
    assert main([mode, *args, "--out", str(tmp_path / out)]) == EXIT_CONFIG
    assert "exists and is not a directory" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "file").read_text() == "kept"


def test_bench_queue_outputs_do_not_depend_on_blas_threads(tmp_path):
    # OpenBLAS splits a dot product of more than 10,000 entries across its
    # threads; the exact average cost over the 19,600 desk pairs read
    # ...233 with one thread and ...235 with two
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"bench": {"iterations": 400, "minibatch": 16, "seed": 5}}))
    src = str(Path(cli.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"threads-{threads}"
        subprocess.run([sys.executable, "-m", "dualalp.cli", "bench-queue", "--preset", "desk",
                        "--config", str(cfg), "--out", str(out)],
                       env=env, check=True, capture_output=True)
        outs.append(out)
    names = sorted(path.name for path in outs[0].iterdir())
    assert names == ["summary.json", "trace.csv"]
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

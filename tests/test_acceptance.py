"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines
as they complete. Criterion 5 is split in two: the consecutive-pair smoothness
inequality passes; the grid-size growth clause is implemented as stated and
fails, because the recurrence provably produces Theta(1/eps^2) points (see the
build notes outside the package for the analysis).
"""
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from dualalp import avgcost, discounted
from dualalp.cli import main, run_bench_queue
from dualalp.features import (FeatureSpace, make_norm_proportional_sampling,
                              make_uniform_sampling)
from dualalp.grid import build_penalty_grid
from dualalp.mdp import (MdpModel, Policy, discounted_visits, policy_from_occupancy,
                         solve_optimal, stationary_state_action, value_function)

from conftest import random_features, random_mdp, random_policy, stationary_features

DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(num, label):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num}] FAIL  {label} "
              f"({time.perf_counter() - started:.1f}s)")
        raise
    print(f"\n[criterion {num}] PASS  {label} ({time.perf_counter() - started:.1f}s)")


def dense_b(model):
    b = np.zeros((model.num_pairs, model.num_states))
    for x in range(model.num_states):
        for a in range(model.num_actions):
            b[x * model.num_actions + a, x] = 1.0
    return b


def desk_problem():
    """The 4-state, 2-action, d=3 fixture with normalized signed features."""
    rng = np.random.default_rng(71)
    model = random_mdp(rng, 4, 2)
    fs = random_features(rng, model, 3, density=0.7, signed=True, normalize=True)
    return model, fs


# --------------------------------------------------------------- criterion 1

def test_criterion_1_gradient_unbiasedness():
    with criterion(1, "gradient estimators are exactly unbiased on enumerated supports"):
        model, fs = desk_problem()
        rng = np.random.default_rng(1)
        gamma = 0.9
        alpha = np.full(4, 0.25)
        for kappa, exact_fn, est_fn in (
                (1.0,
                 lambda pen, th: avgcost.exact_subgradient(model, fs, pen, th),
                 lambda sampler, pen, th, i, j: avgcost.subgradient_estimate(
                     model, fs, sampler, pen, th, pair_idx=[i], state_idx=[j])),
                (gamma,
                 lambda pen, th: discounted.exact_subgradient_disc(
                     model, fs, pen, gamma, alpha, th),
                 lambda sampler, pen, th, i, j: discounted.subgradient_estimate_disc(
                     model, fs, sampler, pen, gamma, alpha, th,
                     pair_idx=[i], state_idx=[j]))):
            for maker in (make_uniform_sampling, make_norm_proportional_sampling):
                sampler = maker(model, fs, kappa)
                for penalty in (1.0, 3.0):
                    theta = rng.normal(size=3)
                    expectation = np.zeros(3)
                    for i in range(model.num_pairs):
                        qi = float(sampler.pair_prob(np.array([i]))[0])
                        if qi == 0.0:
                            continue
                        for j in range(model.num_states):
                            qj = float(sampler.state_prob(np.array([j]))[0])
                            if qj == 0.0:
                                continue
                            expectation += qi * qj * est_fn(sampler, penalty, theta, i, j)
                    exact = exact_fn(penalty, theta)
                    assert np.abs(expectation - exact).max() <= 1e-12


# --------------------------------------------------------------- criterion 2

def test_criterion_2_surrogate_correctness():
    with criterion(2, "exact surrogates match brute force; directional derivatives check"):
        rng = np.random.default_rng(2)
        model = random_mdp(rng, 4, 3)
        fs = random_features(rng, model, 4)
        gamma = 0.85
        alpha = rng.dirichlet(np.ones(4))
        dense_phi = fs.phi.toarray()
        dense_p = model.transitions.toarray()
        b = dense_b(model)
        drift_avg = (dense_p - b).T @ dense_phi
        feas_disc = (b - gamma * dense_p).T @ dense_phi
        for _ in range(20):
            theta = rng.normal(size=4)
            penalty = float(rng.uniform(1.0, 5.0))
            occupancy = fs.mu0 + dense_phi @ theta
            expected_avg = (float(model.loss @ occupancy)
                            + penalty * sum(abs(min(v, 0.0)) for v in occupancy)
                            + penalty * sum(abs(drift_avg[x] @ theta)
                                            for x in range(4)))
            got_avg = avgcost.surrogate_cost_exact(model, fs, penalty, theta)
            assert got_avg == pytest.approx(expected_avg, abs=1e-10)
            values = dense_phi @ theta
            expected_disc = (float(model.loss @ values)
                             + penalty * sum(abs(min(v, 0.0)) for v in values)
                             + penalty * sum(abs(feas_disc[x] @ theta - alpha[x])
                                             for x in range(4)))
            got_disc = discounted.surrogate_cost_exact_disc(
                model, fs, penalty, gamma, alpha, theta)
            assert got_disc == pytest.approx(expected_disc, abs=1e-10)
        # finite differences away from kinks
        h = 1e-7
        live = np.asarray(abs(fs.phi).sum(axis=1)).ravel() > 0
        checked = 0
        while checked < 5:
            theta = rng.normal(size=4)
            u = rng.normal(size=4)
            u /= np.linalg.norm(u)
            occ = fs.occupancy_vector(theta)[live]
            drift_vals = fs._operator((1.0, -1.0)).toarray() @ theta
            vals = (fs.phi @ theta)[live]
            resid = fs._operator((-gamma, 1.0)).toarray() @ theta - alpha
            if (np.abs(occ).min() <= 10 * h or np.abs(drift_vals).min() <= 10 * h
                    or np.abs(vals).min() <= 10 * h or np.abs(resid).min() <= 10 * h):
                continue
            for penalty in (1.0, 2.5):
                grad = avgcost.exact_subgradient(model, fs, penalty, theta)
                fd = (avgcost.surrogate_cost_exact(model, fs, penalty, theta + h * u)
                      - avgcost.surrogate_cost_exact(model, fs, penalty, theta)) / h
                assert fd == pytest.approx(float(grad @ u), abs=1e-5)
                grad_d = discounted.exact_subgradient_disc(model, fs, penalty,
                                                           gamma, alpha, theta)
                fd_d = (discounted.surrogate_cost_exact_disc(
                    model, fs, penalty, gamma, alpha, theta + h * u)
                    - discounted.surrogate_cost_exact_disc(
                        model, fs, penalty, gamma, alpha, theta)) / h
                assert fd_d == pytest.approx(float(grad_d @ u), abs=1e-5)
            checked += 1


# --------------------------------------------------------------- criterion 3

def test_criterion_3_dual_identities():
    with criterion(3, "discounted visit vectors satisfy the dual identities"):
        rng = np.random.default_rng(3)
        for trial in range(10):
            num_states = int(rng.integers(3, 7))
            num_actions = int(rng.integers(2, 4))
            model = random_mdp(rng, num_states, num_actions)
            pi = random_policy(rng, num_states, num_actions)
            gamma = float(rng.uniform(0.6, 0.95))
            alpha = rng.dirichlet(np.ones(num_states))
            nu = discounted_visits(model, pi, gamma, alpha, tol=1e-12)
            assert abs(nu.sum() - 1.0 / (1.0 - gamma)) <= 1e-8
            state_mass = nu.reshape(num_states, num_actions).sum(axis=1)
            residual = state_mass - gamma * (model.transitions.toarray().T @ nu) - alpha
            assert np.abs(residual).sum() <= 1e-8
            values = value_function(model, pi, gamma, tol=1e-12)
            assert abs(nu @ model.loss - alpha @ values) <= 1e-8
            # a dual-feasible vector reproduces itself through its policy
            pi_nu = policy_from_occupancy(nu, num_actions)
            nu_again = discounted_visits(model, pi_nu, gamma, alpha, tol=1e-12)
            assert np.abs(nu_again - nu).sum() <= 1e-8


# --------------------------------------------------------------- criterion 4

def test_criterion_4_occupancy_closeness():
    with criterion(4, "closeness of occupancies to their policies' occupancies"):
        rng = np.random.default_rng(4)
        # exactly feasible vectors reproduce themselves
        for _ in range(10):
            model = random_mdp(rng, 5, 2)
            pi = random_policy(rng, 5, 2)
            mu = stationary_state_action(model, pi, tol=1e-13)
            mu_again = stationary_state_action(
                model, policy_from_occupancy(mu, 2), tol=1e-13)
            assert np.abs(mu_again - mu).sum() <= 1e-8
            gamma = float(rng.uniform(0.6, 0.9))
            alpha = rng.dirichlet(np.ones(5))
            nu = discounted_visits(model, pi, gamma, alpha, tol=1e-12)
            nu_again = discounted_visits(model, policy_from_occupancy(nu, 2),
                                         gamma, alpha, tol=1e-12)
            assert np.abs(nu_again - nu).sum() <= 1e-8
        # perturbed vectors obey the quantitative discounted bound
        for _ in range(50):
            num_states = int(rng.integers(3, 6))
            model = random_mdp(rng, num_states, 2)
            pi = random_policy(rng, num_states, 2)
            gamma = float(rng.uniform(0.5, 0.9))
            alpha = rng.dirichlet(np.ones(num_states))
            nu = discounted_visits(model, pi, gamma, alpha, tol=1e-13)
            rows = nu.reshape(num_states, 2)
            scale = 0.4 * rows.max(axis=1).min()
            u = nu + rng.uniform(-scale, scale, size=nu.shape)
            # lemma precondition: every state keeps a strictly positive entry
            assert np.all(u.reshape(num_states, 2).max(axis=1) > 0)
            eps_neg = float(np.abs(np.minimum(u, 0.0)).sum())
            state_mass = u.reshape(num_states, 2).sum(axis=1)
            eps_resid = float(np.abs(
                state_mass - gamma * (model.transitions.toarray().T @ u) - alpha).sum())
            nu_u = discounted_visits(model, policy_from_occupancy(u, 2), gamma,
                                     alpha, tol=1e-13)
            bound = (3.0 * eps_neg + eps_resid) / (1.0 - gamma)
            assert np.abs(nu_u - u).sum() <= bound + 1e-9


# --------------------------------------------------------------- criterion 5

GRID_SETTINGS = [(0.3, 0.1), (0.1, 0.3), (0.2, 0.2)]
GRID_TOLERANCES = (0.1, 0.01, 0.001)


def test_criterion_5a_grid_smoothness():
    with criterion("5a", "grid pairs satisfy the smoothness inequality exactly"):
        for v_max, weight in GRID_SETTINGS:
            for tol in GRID_TOLERANCES:
                grid = build_penalty_grid(v_max, weight, tol)
                pts = grid.points
                lhs = v_max * np.diff(pts) + weight * (1.0 / pts[:-1] - 1.0 / pts[1:])
                assert np.all(lhs <= tol)


def test_criterion_5b_grid_growth_logarithmic():
    """Stated as: the number of grid points grows at most linearly in
    log(1/tolerance). The recurrence actually yields Theta(1/tolerance^2)
    points (about 100x more per tolerance decade), so this check fails; the
    decisions ledger carries the analysis. The assertion allows a generous 3x
    slack on the linear extrapolation and still cannot pass.
    """
    with criterion("5b", "grid size grows at most linearly in log(1/tolerance)"):
        for v_max, weight in GRID_SETTINGS:
            sizes = [len(build_penalty_grid(v_max, weight, tol))
                     for tol in GRID_TOLERANCES]
            logs = [np.log(1.0 / tol) for tol in GRID_TOLERANCES]
            slope = (sizes[1] - sizes[0]) / (logs[1] - logs[0])
            linear_prediction = sizes[1] + slope * (logs[2] - logs[1])
            assert sizes[2] <= 3.0 * max(linear_prediction, 1.0), (
                f"K={sizes} for (v_max={v_max}, weight={weight}): growth is "
                f"quadratic in 1/tolerance, not logarithmic")


# --------------------------------------------------------------- criterion 6

def test_criterion_6_violation_estimator_concentration():
    with criterion(6, "violation estimators concentrate at the lemma sample sizes"):
        model, fs = desk_problem()
        sampler = make_uniform_sampling(model, fs, 1.0)
        radius = 1.5
        eps, delta = 0.1, 0.1
        rng = np.random.default_rng(6)
        theta = avgcost.project_theta_avg(rng.normal(size=3), radius, 1.0)
        v_exact = sum(avgcost.violations_exact(model, fs, theta))
        n = int(np.ceil((radius * (sampler.c_pair + 1.0) + radius * sampler.c_state) ** 2
                        / (2.0 * eps * eps) * np.log(2.0 / delta)))
        failures = 0
        for trial in range(200):
            est = avgcost.estimate_violations(model, fs, sampler, theta, n,
                                              np.random.default_rng(1000 + trial))
            failures += abs(est - v_exact) > eps
        assert failures <= 0.1 * 200
        # discounted analog at its own sample-size formula
        gamma = 0.9
        alpha = np.full(4, 0.25)
        sampler_d = make_uniform_sampling(model, fs, gamma)
        theta_d = discounted.project_theta_disc(rng.normal(size=3), radius)
        v_exact_d = sum(discounted.violations_exact_disc(model, fs, gamma, alpha,
                                                         theta_d))
        n_d = int(np.ceil((radius * (sampler_d.c_pair + 2.0 * sampler_d.c_state)) ** 2
                          / (2.0 * eps * eps) * np.log(2.0 / delta)))
        failures_d = 0
        for trial in range(200):
            est = discounted.estimate_violations_disc(
                model, fs, sampler_d, gamma, alpha, theta_d, n_d,
                np.random.default_rng(2000 + trial))
            failures_d += abs(est - v_exact_d) > eps
        assert failures_d <= 0.1 * 200


# --------------------------------------------------------------- criterion 7

def test_criterion_7_best_in_class_average():
    with criterion(7, "average-cost meta recovers the best in class (8/10 seeds)"):
        rng_model = np.random.default_rng(200)
        model = random_mdp(rng_model, 10, 2)
        fs = stationary_features(rng_model, model, 4)
        kernel = model.transitions.toarray().reshape(10, 2, 10)
        loss2d = model.loss.reshape(10, 2)

        def exact_cost(probs, tol=1e-10):
            chain = np.einsum('xa,xay->xy', probs, kernel)
            mu = np.full(10, 0.1)
            for _ in range(200000):
                nxt = mu @ chain
                if np.abs(nxt - mu).sum() <= tol:
                    break
                mu = 0.5 * (mu + nxt)
                mu /= mu.sum()
            return float((mu[:, None] * probs * loss2d).sum())

        ticks = np.arange(0.0, 1.0 + 0.025, 0.05)
        best = np.inf
        for w1 in ticks:
            for w2 in ticks:
                if w1 + w2 > 1.0 + 1e-12:
                    continue
                for w3 in ticks:
                    w4 = 1.0 - w1 - w2 - w3
                    if w4 < -1e-12:
                        continue
                    theta = np.array([w1, w2, w3, max(w4, 0.0)])
                    pol = policy_from_occupancy(fs.phi @ theta, 2)
                    best = min(best, exact_cost(pol.probs))
        sampler = make_norm_proportional_sampling(model, fs, 1.0)
        wins = 0
        for seed in range(10):
            result = avgcost.meta_solve_avg(
                model, fs, sampler, violation_bound=0.15, selection_weight=0.12,
                tolerance=0.05, failure_prob=0.1, seed=seed, radius=1.5,
                trace_stride=10**9)
            wins += exact_cost(result.policy.probs) <= best + 0.15
        assert wins >= 8


def test_criterion_7_best_in_class_discounted():
    with criterion(7, "discounted meta recovers the best in class (8/10 seeds)"):
        gamma = 0.9
        rng = np.random.default_rng(210)
        model = random_mdp(rng, 6, 2)
        alpha = np.full(6, 1.0 / 6.0)
        optimal = solve_optimal(model, "discounted", gamma=gamma, tol=1e-12)
        nu_star = discounted_visits(model, optimal.policy, gamma, alpha, tol=1e-12)
        cols = [nu_star] + [discounted_visits(model, random_policy(rng, 6, 2),
                                              gamma, alpha, tol=1e-12)
                            for _ in range(2)]
        fs = FeatureSpace(model, sp.csr_matrix(np.column_stack(cols)))
        kernel = model.transitions.toarray().reshape(6, 2, 6)
        loss2d = model.loss.reshape(6, 2)

        def disc_cost(probs):
            chain = np.einsum('xa,xay->xy', probs, kernel)
            loss_pi = (probs * loss2d).sum(axis=1)
            return float(alpha @ np.linalg.solve(np.eye(6) - gamma * chain, loss_pi))

        ticks = np.arange(0.0, 1.0 + 0.025, 0.05)
        best = np.inf
        for w1 in ticks:
            for w2 in ticks:
                w3 = 1.0 - w1 - w2
                if w3 < -1e-12:
                    continue
                theta = np.array([w1, w2, max(w3, 0.0)])
                best = min(best, disc_cost(policy_from_occupancy(fs.phi @ theta, 2).probs))
        sampler = make_norm_proportional_sampling(model, fs, gamma)
        wins = 0
        for seed in range(10):
            result = discounted.meta_solve_disc(
                model, fs, sampler, gamma=gamma, alpha=alpha, tolerance=0.05,
                failure_prob=0.1, seed=seed, radius=1.3,
                violation_bound=0.0014, selection_weight=0.15,
                max_iterations_per_point=400000, trace_stride=10**9)
            wins += disc_cost(result.policy.probs) <= best + 0.15
        assert wins >= 8


# --------------------------------------------------------------- criterion 8

def test_criterion_8_queue_benchmark_desk(tmp_path):
    with criterion(8, "desk queue benchmark beats 1.05x the better heuristic"):
        summary = run_bench_queue({}, tmp_path, preset="desk")
        baselines = summary["result"]["baselines"]
        best = min(baselines["LONGER"]["exact_loss"], baselines["LBFS"]["exact_loss"])
        solved = summary["result"]["solved"]["exact_loss"]
        assert summary["config"]["bench"]["penalty"] == 2.0
        assert summary["config"]["bench"]["minibatch"] == 1000
        assert summary["config"]["bench"]["learning_rate"] == 1e-4
        assert summary["config"]["bench"]["lr_halving_period"] == 2000
        assert summary["config"]["bench"]["iterations"] == 20000
        assert solved <= 1.05 * best


# --------------------------------------------------------------- criterion 9

def run_cli(args):
    assert main(args) == 0


def _assert_dirs_byte_identical(d1: Path, d2: Path):
    files1 = sorted(p.name for p in d1.iterdir())
    files2 = sorted(p.name for p in d2.iterdir())
    assert files1 == files2 and files1
    for name in files1:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_criterion_9_pipeline_determinism(tmp_path):
    with criterion(9, "every pipeline is byte-identical under config + seed"):
        solver_cfg = {
            "problem": {"mdp_path": str(DATA / "mdp4.json")},
            "features": {"path": str(DATA / "features3.json")},
            "solver": {"penalty": 2.0, "radius": 1.5, "iterations": 300, "seed": 5,
                       "tolerance": 0.6, "failure_prob": 0.2},
            "meta": {"violation_bound": 0.8, "selection_weight": 0.8},
            "eval": {"mode": "exact"},
        }
        bench_cfg = {
            "bench": {"iterations": 400, "minibatch": 16, "seed": 5},
        }
        eval_cfg = {
            "problem": {"queue_preset": "desk"},
            "policy": {"heuristic": "LBFS"},
            "eval": {"mode": "simulated", "horizon": 2000, "burn_in": 200, "reps": 2},
        }
        cfg_paths = {}
        for name, doc in (("solver", solver_cfg), ("bench", bench_cfg),
                          ("eval", eval_cfg)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            cfg_paths[name] = str(path)
        runs = [
            ("solve-avg", ["solve-avg", "--config", cfg_paths["solver"]]),
            ("solve-disc", ["solve-disc", "--config", cfg_paths["solver"]]),
            ("meta-avg", ["meta-avg", "--config", cfg_paths["solver"]]),
            ("meta-disc", ["meta-disc", "--config", cfg_paths["solver"]]),
            ("bench-queue", ["bench-queue", "--preset", "desk", "--config",
                             cfg_paths["bench"]]),
            ("eval-policy", ["eval-policy", "--config", cfg_paths["eval"]]),
            ("print-grid", ["print-grid", "--v-max", "1.0", "--beta", "1.0",
                            "--epsilon", "0.5"]),
        ]
        for mode, args in runs:
            out1 = tmp_path / f"{mode}-1"
            out2 = tmp_path / f"{mode}-2"
            if mode == "print-grid":
                run_cli(args + ["--out", str(out1)])
                run_cli(args + ["--out", str(out2)])
            else:
                run_cli(args + ["--out", str(out1)])
                run_cli(args + ["--out", str(out2)])
            _assert_dirs_byte_identical(out1, out2)

"""``benchmarks/ab.py`` on two callables timed by a fake clock, and a second
copy of the package loaded beside this one."""
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import dualalp
from dualalp import _sgd, features, fixtures

ROOT = Path(__file__).resolve().parents[1]


def _ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "benchmarks" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_alternate_flips_the_order_and_counts_wins():
    clock = [0.0]
    calls = []
    # a costs 3 s a call except on its third repetition (1 s); b always costs 2 s
    costs = {"a": iter([3.0, 3.0, 3.0, 3.0, 1.0, 1.0, 3.0, 3.0, 3.0, 3.0]), "b": iter([2.0] * 10)}

    def side(name):
        def call():
            calls.append(name)
            clock[0] += next(costs[name])
        return call

    result = _ab().alternate(side("a"), side("b"), reps=5, number=2, timer=lambda: clock[0])
    assert calls == ["a", "a", "b", "b", "b", "b", "a", "a", "a", "a", "b", "b",
                     "b", "b", "a", "a", "a", "a", "b", "b"]
    assert result["a"]["samples"] == [3.0, 3.0, 1.0, 3.0, 3.0]
    assert result["b"]["samples"] == [2.0] * 5
    assert (result["a"]["wins"], result["b"]["wins"]) == (1, 4)
    assert (result["a"]["q1"], result["a"]["median"], result["a"]["q3"]) == (3.0, 3.0, 3.0)
    assert (result["b"]["q1"], result["b"]["median"], result["b"]["q3"]) == (2.0, 2.0, 2.0)


def test_alternate_one_repetition_and_ties():
    result = _ab().alternate(lambda: None, lambda: None, reps=1, timer=lambda: 0.0)
    for side in ("a", "b"):
        assert result[side] == {"samples": [0.0], "median": 0.0, "q1": 0.0, "q3": 0.0,
                                "wins": 0}


@pytest.mark.parametrize("reps, number", [(0, 1), (3, 0)])
def test_alternate_rejects_empty_runs(reps, number):
    with pytest.raises(ValueError):
        _ab().alternate(lambda: None, lambda: None, reps=reps, number=number)


def _single_draw_thetas(package: dict, steps: int = 600) -> np.ndarray:
    """The iterates of ``steps`` single-draw steps on the fixture, built only
    from the modules in ``package``."""
    loader, sampling, sgd = (package[f"dualalp.{name}"] for name in ("fixtures", "features",
                                                                     "_sgd"))
    model = loader.load_mdp_fixture(ROOT / "tests" / "data" / "mdp4.json")
    fs = loader.load_feature_fixture(ROOT / "tests" / "data" / "features3.json", model)
    step = sgd.make_buffered_step(sgd.Surrogate.average_cost(model, fs),
                                  sampling.make_norm_proportional_sampling(model, fs, 1.0), 1.7)
    rng, theta, thetas = np.random.default_rng(5), np.zeros(fs.dim), []
    for t in range(steps):
        theta = step(theta, rng, 0.3 * 2.0 ** -(t // 100))
        thetas.append(theta)
    return np.array(thetas)


def test_load_checkout_loads_a_second_copy_and_restores_sys_modules():
    before = dict(sys.modules)
    loaded = _ab().load_checkout(ROOT / "src")
    assert sys.modules["dualalp"] is dualalp and sys.modules["dualalp._sgd"] is _sgd
    assert {name: module for name, module in sys.modules.items()
            if name.startswith("dualalp")} == {
        name: module for name, module in before.items() if name.startswith("dualalp")}
    assert {"dualalp", "dualalp._sgd", "dualalp.cli", "dualalp.features"} <= loaded.keys()
    for name, module in loaded.items():
        assert module is not before.get(name)
    # the copies do not mix: the loaded _sgd reads the loaded features
    assert loaded["dualalp._sgd"].FeatureSpace is loaded["dualalp.features"].FeatureSpace
    assert loaded["dualalp._sgd"].FeatureSpace is not dualalp.FeatureSpace
    this = {"dualalp.fixtures": fixtures, "dualalp.features": features, "dualalp._sgd": _sgd}
    ours, theirs = _single_draw_thetas(this), _single_draw_thetas(loaded)
    assert ours.tobytes() == theirs.tobytes()

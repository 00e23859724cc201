"""``benchmarks/ab.py`` on two callables timed by a fake clock."""
import importlib.util
from pathlib import Path

import pytest

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

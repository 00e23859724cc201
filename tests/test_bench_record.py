"""``benchmarks/bench_record.py`` on two synthetic perfbench result files."""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _bench_record():
    spec = importlib.util.spec_from_file_location("bench_record",
                                                  ROOT / "benchmarks" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(tmp_path, name, sha, total_s, trace=0):
    """A perfbench result of desk-queue at seed 0 with the given total_s."""
    stats = {metric: {"median": value, "n": 1, "min": value, "max": value}
             for metric, value in (("total_s", total_s), ("setup_s", 0.11), ("eval_s", 0.07),
                                   ("policy_cost", 1.0006), ("peak_rss_mb", 84.0),
                                   ("machine_speed", 1.2))}
    result = {"provenance": {"workload": "desk-queue", "seed": 0, "trace": trace,
                             "git_sha": sha, "src_sha256": sha * 2},
              "stats": stats, "per_layer": {}, "checks": [], "correct": True}
    path = tmp_path / name
    path.write_text(json.dumps(result))
    return path


def test_bench_record_summarizes_each_side(tmp_path):
    bench_record = _bench_record()
    parent = _result(tmp_path, "parent.json", "a" * 8, 7.1)
    change = _result(tmp_path, "change.json", "b" * 8, 5.1)
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--out", str(out), "--parent", str(parent),
                              "--change", str(change)]) == 0
    bench = json.loads(out.read_text())
    names = ["total_s", "setup_s", "eval_s", "policy_cost", "peak_rss_mb"]
    assert bench["metrics"] == names
    sides = bench["workloads"]["desk-queue"]["0"]
    assert set(sides) == {"parent", "change"}
    for side, sha, total in (("parent", "a" * 8, 7.1), ("change", "b" * 8, 5.1)):
        got = sides[side]
        assert (got["runs"], got["correct"]) == (1, 1)
        assert got["git_sha"] == [sha] and got["src_sha256"] == [sha * 2]
        assert got["machine_speed"]["median"] == 1.2
        assert set(got["metrics"]) == set(names)
        assert got["metrics"]["total_s"] == {"median": total, "q1": total, "q3": total,
                                             "iqr": 0.0, "n": 1, "values": [total]}


def test_bench_record_quartiles_and_refusals(tmp_path):
    bench_record = _bench_record()
    assert bench_record.spread([4.0, 1.0, 3.0, 2.0, 5.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0, "n": 5,
        "values": [4.0, 1.0, 3.0, 2.0, 5.0]}
    traced = _result(tmp_path, "traced.json", "c" * 8, 6.0, trace=1)
    with pytest.raises(ValueError, match="traced"):
        bench_record.record({"change": [traced]}, bench_record.end_to_end_names())
    with pytest.raises(SystemExit):
        bench_record.main(["--out", str(tmp_path / "none.json")])

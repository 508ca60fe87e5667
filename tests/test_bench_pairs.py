import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

DIRECTIONS = {"ops_per_s": "higher", "op_p50_ms": "lower"}


def _run(seed, side, ops, p50, exit=0, correct=True, workload="pool"):
    metrics = {"ops_per_s": {"value": ops, "unit": "1/s"},
               "op_p50_ms": {"value": p50, "unit": "ms"}}
    return {"workload": workload, "seed": seed, "side": side, "ran_first": side == "parent",
            "exit": exit, "info": {},
            "result": {"correct": correct, "attempted": 1, "failed": 0, "metrics": metrics}}


def test_summary_pairs_seeds_and_counts_strict_wins():
    runs = [
        _run(1, "parent", 10.0, 5.0), _run(1, "change", 12.0, 5.0),   # p50 ties
        _run(2, "change", 9.0, 4.0), _run(2, "parent", 11.0, 6.0),
        _run(3, "parent", 8.0, 7.0), _run(3, "change", 14.0, 3.0),
        _run(4, "parent", 99.0, 1.0),                                  # no change run
        _run(5, "parent", 99.0, 1.0), _run(5, "change", 0.0, 9.0, exit=1),
    ]
    entry = bench_pairs.summarize(runs, DIRECTIONS)["pool"]
    assert entry["pairs"] == 3 and entry["all_correct"]
    ops = entry["ops_per_s"]
    assert (ops["parent_median"], ops["change_median"]) == (10.0, 12.0)
    assert ops["parent_iqr"] == [9.0, 10.5] and ops["change_iqr"] == [10.5, 13.0]
    assert ops["change_wins"] == 2 and ops["ratio"] == pytest.approx(1.2)
    p50 = entry["op_p50_ms"]
    assert (p50["parent_median"], p50["change_median"]) == (6.0, 4.0)
    assert p50["change_wins"] == 2  # seed 1 ties and counts for neither side


def test_summary_keeps_workloads_apart_and_flags_incorrect_runs():
    runs = [_run(1, "parent", 1.0, 1.0), _run(1, "change", 1.0, 1.0, correct=False),
            _run(1, "parent", 2.0, 2.0, workload="other"),
            _run(1, "change", 3.0, 2.0, workload="other")]
    summary = bench_pairs.summarize(runs, DIRECTIONS)
    assert list(summary) == ["pool", "other"]
    assert not summary["pool"]["all_correct"] and summary["other"]["all_correct"]
    assert summary["pool"]["ops_per_s"]["change_wins"] == 0
    assert summary["other"]["ops_per_s"]["parent_iqr"] == [2.0, 2.0]


def test_summary_refuses_a_seed_run_twice_on_one_side():
    runs = [_run(1, "parent", 1.0, 1.0), _run(1, "change", 2.0, 1.0),
            _run(1, "parent", 3.0, 1.0, exit=1), _run(1, "change", 4.0, 1.0)]
    with pytest.raises(ValueError, match="twice"):
        bench_pairs.summarize(runs, DIRECTIONS)


@pytest.mark.parametrize("seeds", [["1"], ["2", "2"]], ids=["held", "repeated"])
def test_a_seed_is_run_once_per_workload(tmp_path, capsys, seeds):
    # refused before anything runs, so the parent checkout is never used
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"description": "", "runs": [_run(1, "parent", 1.0, 1.0),
                                                          _run(1, "change", 1.0, 1.0)]}))
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", str(tmp_path), "--workload", "pool",
                          "--seeds", *seeds, "--out", str(out)])
    assert exit_info.value.code == 2 and "runs once" in capsys.readouterr().err
    assert len(json.loads(out.read_text())["runs"]) == 2

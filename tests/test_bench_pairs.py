import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

DIRECTIONS = {"ops_per_s": "higher", "op_p50_ms": "lower"}
BOUNDS = {"ops_per_s": 0.25, "op_p50_ms": 0.25}


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
    entry = bench_pairs.summarize(runs, DIRECTIONS, BOUNDS)["pool"]
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
    summary = bench_pairs.summarize(runs, DIRECTIONS, BOUNDS)
    assert list(summary) == ["pool", "other"]
    assert not summary["pool"]["all_correct"] and summary["other"]["all_correct"]
    assert summary["pool"]["ops_per_s"]["change_wins"] == 0
    assert summary["other"]["ops_per_s"]["parent_iqr"] == [2.0, 2.0]


def test_summary_refuses_a_seed_run_twice_on_one_side():
    runs = [_run(1, "parent", 1.0, 1.0), _run(1, "change", 2.0, 1.0),
            _run(1, "parent", 3.0, 1.0, exit=1), _run(1, "change", 4.0, 1.0)]
    with pytest.raises(ValueError, match="twice"):
        bench_pairs.summarize(runs, DIRECTIONS, BOUNDS)


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


def _pairs(parent_ops, change_ops, p50=1.0):
    return [run for seed, (p, c) in enumerate(zip(parent_ops, change_ops))
            for run in (_run(seed, "parent", p, p50), _run(seed, "change", c, p50))]


def test_summary_flags_a_metric_worse_beyond_its_bound():
    # medians 10 -> 7.4 (26% lower) and p50 1.0 -> 1.25 (25% higher, at the bound)
    runs = [run for seed in range(3)
            for run in (_run(seed, "parent", 10.0, 1.0), _run(seed, "change", 7.4, 1.25))]
    entry = bench_pairs.summarize(runs, DIRECTIONS, BOUNDS)["pool"]
    assert entry["ops_per_s"]["worse_beyond_bound"] is True
    assert entry["op_p50_ms"]["worse_beyond_bound"] is False


WIDE = [6.0, 8.0, 10.0, 12.0, 14.0]  # IQR [8, 12]: width 4 over a bound of 0.25 * 10


@pytest.mark.parametrize("metric, parent, change, unresolved", [
    ("ops_per_s", WIDE, [7.0, 9.0, 10.0, 11.0, 13.0], True),
    ("ops_per_s", [9.0, 9.5, 10.0, 10.5, 11.0], [7.0, 9.0, 10.0, 11.0, 13.0], False),
    ("ops_per_s", WIDE, [15.0, 16.0, 17.0, 18.0, 19.0], False),
    ("op_p50_ms", WIDE, [1.0, 2.0, 3.0, 4.0, 5.0], False),
    ("op_p50_ms", WIDE, [15.0, 16.0, 17.0, 18.0, 19.0], True),
], ids=["wide-spread", "tight-spread", "clean-separation", "lower-is-better-separation",
        "lower-is-better-worse"])
def test_a_metric_is_unresolved_when_the_parent_spreads_beyond_its_bound(metric, parent, change,
                                                                         unresolved):
    # unresolved unless every change run is better than every parent run
    def run(seed, side, value):
        ops, p50 = (value, 1.0) if metric == "ops_per_s" else (1.0, value)
        return _run(seed, side, ops, p50)

    runs = [r for seed, (p, c) in enumerate(zip(parent, change))
            for r in (run(seed, "parent", p), run(seed, "change", c))]
    entry = bench_pairs.summarize(runs, DIRECTIONS, BOUNDS)["pool"]
    assert entry[metric]["unresolved"] is unresolved


@pytest.mark.parametrize("change_ops, met", [
    ([12.0] * 9 + [9.0], True),          # wins 9 of 10, gap 2 over an IQR of width 0.75
    ([12.0] * 8 + [9.0] * 2, False),     # wins only 8 of 10
    ([10.6] * 10, False),                # wins all 10, but the gap 0.6 is inside the IQR
], ids=["met", "too-few-wins", "inside-the-spread"])
def test_claim_is_met_by_nine_tenths_of_wins_and_a_gap_beyond_the_spread(change_ops, met):
    parent_ops = [9.5, 10.0, 10.5, 10.0, 9.5, 10.0, 10.5, 10.0, 9.5, 10.5]
    summary = bench_pairs.summarize(_pairs(parent_ops, change_ops), DIRECTIONS, BOUNDS)
    claimed = bench_pairs._claim(summary, "pool:ops_per_s", DIRECTIONS)
    assert summary["pool"]["ops_per_s"]["parent_iqr"] == [9.625, 10.375]
    assert claimed["pairs"] == 10 and claimed["met"] is met


def test_claim_on_a_lower_is_better_metric_counts_a_fall_as_the_gain():
    parent = [_run(seed, "parent", 1.0, p50) for seed, p50 in enumerate([5.0, 5.2, 4.8])]
    change = [_run(seed, "change", 1.0, p50) for seed, p50 in enumerate([4.0, 4.1, 3.9])]
    summary = bench_pairs.summarize(parent + change, DIRECTIONS, BOUNDS)
    assert bench_pairs._claim(summary, "pool:op_p50_ms", DIRECTIONS)["met"] is True
    slower = [_run(seed, "change", 1.0, p50) for seed, p50 in enumerate([6.0, 6.1, 5.9])]
    summary = bench_pairs.summarize(parent + slower, DIRECTIONS, BOUNDS)
    assert bench_pairs._claim(summary, "pool:op_p50_ms", DIRECTIONS)["met"] is False

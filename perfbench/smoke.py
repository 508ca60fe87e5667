"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

1. A tiny pass of every workload, untraced and traced: every metric named in
   BENCHMARK.json is emitted with its unit, nothing fails, ok_frac is 1.
2. Two traced passes with one seed give identical exact counts.
3. A perturbed output of every workload is counted as failed.
4. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.
Exits non-zero on the first broken expectation.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import envinfo

BENCHMARK = json.loads((envinfo.ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
EXACT_COUNTS = ("distances.eigh_per_call.d1", "distances.eigh_per_call.d2",
                "distances.eigh_per_call.d3", "distances.eigh_per_call.d4",
                "barycentre.eigh_per_iteration", "barycentre.iterations_per_solve",
                "linalg.eig_cache_hit_ratio", "lapack.eigh_calls", "linalg.eigh_calls")


def run(workload: str, trace: int, seed: int = 3, cwd=envinfo.ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS, f"result keys {sorted(result)}"
    return result


def check_metrics(workload: str, trace: int) -> dict:
    result = result_of(run(workload, trace))
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    emitted = result["metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    for metric in expected:
        got = emitted.get(metric["name"])
        assert got is not None, f"{workload}: {metric['name']} missing"
        assert got["unit"] == metric["unit"], f"{workload}: {metric['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{workload}: {metric['name']} value"
    assert len(emitted) == len(expected), f"{workload}: extra metrics {sorted(emitted)}"
    if not trace:
        assert emitted["ok_frac"]["value"] == 1.0
    print(f"ok  {workload} trace={trace}: {len(emitted)} metrics, "
          f"{result['attempted']} ops, none failed")
    return emitted


def check_perturbed() -> None:
    """Feed each workload's check one perturbed output; it must fail."""
    helmat = envinfo.import_helmat()
    import workloads as wl

    work = envinfo.ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    for name, cls in wl.WORKLOADS.items():
        workload = cls(3, True, work)
        try:
            records = [(idx, op()) for idx, op in enumerate(workload.round)]
            assert not workload.check(records), f"{name}: clean round failed"
            idx, out = next((i, o) for i, o in records
                            if not (name == "cli-files" and workload.commands[i].kind
                                    in ("invalid", "bary")))
            if isinstance(out, list):
                bad = [out[0] * (1.0 + 1e-4), *out[1:]]
            elif isinstance(out, tuple):
                x, report = out
                bad = (helmat.SpdMatrix(x.entries * (1.0 + 1e-6)), report)
            elif name == "verify-all":
                bad = replace(out, stdout=out.stdout.replace('"restart-agreement"', '"x"'))
            else:
                report = json.loads(out.stdout)
                outputs = report["outputs"]
                if "distance" in outputs:
                    outputs["distance"] *= 1.0 + 1e-4
                else:
                    outputs["matrix"]["real"][0][0] *= 1.0 + 1e-4
                bad = replace(out, stdout=json.dumps(report, indent=2) + "\n")
            failures = workload.check([(idx, bad)])
            assert len(failures) == 1, f"{name}: perturbed output not caught"
            print(f"ok  {name}: perturbed output counted as failed ({failures[0][:70]})")
        finally:
            workload.close()


def check_bare_directory() -> None:
    bare = envinfo.ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(envinfo.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(envinfo.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(BENCHMARK["workloads"][0]["name"], 0, cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), "bare run printed a result"
        print(f"ok  bare directory: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    os.chdir(envinfo.ROOT)  # cli-files names its files relative to the checkout
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        check_metrics(workload, 0)
        first = check_metrics(workload, 1)
        again = result_of(run(workload, 1))["metrics"]
        for name in EXACT_COUNTS:
            assert first[name]["value"] == again[name]["value"], f"{workload}: {name} differs"
        print(f"ok  {workload}: exact counts repeat")
    check_perturbed()
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())

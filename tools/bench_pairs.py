"""Benchmark a change against its parent in alternating pairs of runs, and
write the runs and their summary as a ``BENCH_<n>.json``.

Usage::

    python3 tools/bench_pairs.py --parent DIR --workload W --seeds S [S ...]
        --out BENCH_<n>.json [--claim W:METRIC] [--description TEXT]
        [--traced SEED]

``DIR`` is a checkout of the parent commit (a ``git worktree``, a clone or
an unpacked ``git archive``); the change is the checkout this tool lives
in.  For each seed, ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` runs once in each checkout, one after the other, where ``T`` is
the ``run_seconds`` of ``BENCHMARK.json``; the side that runs first
alternates from seed to seed, the parent first on the first seed.  The
output file is rewritten after every pair, and runs it already holds are
kept, so one file can collect several workloads over several calls; a seed
the file already holds for W is refused, so every pair is counted once.
``--traced SEED`` adds one ``--trace 1`` run of W per side under
``traced[W]``.  Nothing under ``perfbench/`` changes.

The file has ``BENCH_14.json``'s layout: ``claimed`` (the workload and
metric the change claims to improve), ``summary`` (per workload and
end-to-end metric: the medians, inclusive quartiles and ratio of both
sides, and ``change_wins``, the pairs where the change is strictly better;
a tie counts for neither) and ``runs`` (each run's seed, side, order, exit
status, environment block and metrics).  Better means higher or lower as
``BENCHMARK.json`` says.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _benchmark() -> tuple[dict[str, str], float]:
    """The direction of each end-to-end metric and the run length in
    seconds, as ``BENCHMARK.json`` sets them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["better"] for metric in spec["end_to_end"]}, \
        spec["run_seconds"]


def _spread(values: list[float]) -> dict[str, float | list[float]]:
    quartiles = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 \
        else [values[0]] * 3
    return {"median": statistics.median(values), "iqr": [quartiles[0], quartiles[2]]}


def summarize(runs: list[dict], directions: dict[str, str]) -> dict[str, dict]:
    """Per workload: the pairs (seeds run on both sides, both exiting 0),
    whether every paired run was correct, and for each metric of
    ``directions`` the medians, quartiles and ratio of the two sides and
    the number of pairs the change wins.  A seed run twice on one side of
    a workload is an error: one of its pairs would go uncounted."""
    keys = [(r["workload"], r["seed"], r["side"]) for r in runs]
    if len(set(keys)) < len(keys):
        raise ValueError("a seed ran twice on one side of a workload")
    by_key = {key: r for key, r in zip(keys, runs) if r["exit"] == 0}
    summary: dict[str, dict] = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        seeds = [seed for (w, seed, side) in by_key
                 if w == workload and side == "parent" and (w, seed, "change") in by_key]
        pairs = [(by_key[workload, s, "parent"]["result"], by_key[workload, s, "change"]["result"])
                 for s in seeds]
        if not pairs:
            continue
        entry: dict = {"pairs": len(pairs),
                       "all_correct": all(p["correct"] and c["correct"] for p, c in pairs)}
        for metric, better in directions.items():
            values = [(p["metrics"][metric]["value"], c["metrics"][metric]["value"])
                      for p, c in pairs if metric in p["metrics"] and metric in c["metrics"]]
            if not values:
                continue
            parent, change = (_spread([v[k] for v in values]) for k in (0, 1))
            wins = sum((c > p) if better == "higher" else (c < p) for p, c in values)
            entry[metric] = {
                "parent_median": parent["median"], "change_median": change["median"],
                "parent_iqr": parent["iqr"], "change_iqr": change["iqr"],
                "change_wins": wins,
                "ratio": change["median"] / parent["median"] if parent["median"] else None,
            }
        summary[workload] = entry
    return summary


def _claim(summary: dict, claim: str) -> dict | None:
    """The ``claimed`` block of ``WORKLOAD:METRIC``, once it has pairs."""
    workload, metric = claim.split(":")
    stats = summary.get(workload, {}).get(metric)
    if stats is None:
        return None
    return {"workload": workload, "metric": metric,
            "parent_median": stats["parent_median"], "change_median": stats["change_median"],
            "change_wins": stats["change_wins"], "pairs": summary[workload]["pairs"],
            "parent_iqr": stats["parent_iqr"]}


def _run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    ok = proc.returncode == 0 and len(lines) >= 2
    return {"exit": proc.returncode,
            "info": json.loads(lines[-2]) if ok else {"stderr": proc.stderr[-2000:]},
            "result": json.loads(lines[-1]) if ok else None}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--description")
    parser.add_argument("--traced", type=int, metavar="SEED")
    args = parser.parse_args(argv)

    directions, seconds = _benchmark()
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"description": ""}
    runs: list[dict] = doc.setdefault("runs", [])
    held = sorted({r["seed"] for r in runs if r["workload"] == args.workload})
    if len(set(held + args.seeds)) < len(held) + len(args.seeds):
        parser.error(f"each seed of {args.workload} runs once; {args.out} holds {held}")
    doc["description"] = args.description or doc["description"]
    doc["command"] = ("python3 perfbench/run.py --workload W --seed S "
                      f"--seconds {seconds:g} --trace 0")
    claim = args.claim or ("{workload}:{metric}".format(**doc["claimed"])
                           if "claimed" in doc else None)
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for position, side in enumerate(order):
            run = _run(sides[side], args.workload, seed, seconds, 0)
            runs.append({"workload": args.workload, "seed": seed, "side": side,
                         "ran_first": position == 0, **run})
            print(f"{args.workload} seed {seed} {side}: exit {run['exit']}", flush=True)
        doc["machine"] = next((r["info"]["env"] for r in runs if r["exit"] == 0), None)
        doc["summary"] = summarize(runs, directions)
        if claim and _claim(doc["summary"], claim):
            doc["claimed"] = _claim(doc["summary"], claim)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    if args.traced is not None:
        doc.setdefault("traced", {})[args.workload] = {
            "command": f"python3 perfbench/run.py --workload {args.workload} "
                       f"--seed {args.traced} --seconds {seconds:g} --trace 1",
            **{side: _run(path, args.workload, args.traced, seconds, 1)
               for side, path in sides.items()},
        }
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

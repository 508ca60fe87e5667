"""helmat benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in a fresh worker
process (``worker.py``) with BLAS pinned to one thread.  Times are process
CPU time (see ``worker.timed_loop``).  Set-up time is sampled five to seven
times, each in a fresh process (set-up probes and the worker itself), and
reported as the median.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` --
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it carries the environment block, the tail
percentile with its sample counts, and any failure messages.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
from time import perf_counter

import envinfo

WORKLOADS = ("verify-all", "pairs-pool", "bary-large", "cli-files")
#: Set-up probes per run: at least four, at most six, and no new one once
#: the probes have taken PROBE_BUDGET_S (cheap set-ups get more samples).
MIN_PROBES, MAX_PROBES, PROBE_BUDGET_S = 4, 6, 10.0
#: Every run must end well inside 180 s.
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def _spawn(args: argparse.Namespace, probe: bool, remaining: float) -> tuple[float, str]:
    """Start a worker; return its set-up CPU seconds and RESULT payload
    (empty for a probe)."""
    cmd = [sys.executable, str(envinfo.ROOT / "perfbench" / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += ["--smoke"] if args.smoke else []
    cmd += ["--probe"] if probe else []
    proc = subprocess.Popen(cmd, cwd=envinfo.ROOT, env=envinfo.pinned_env(),
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(remaining, proc.kill)
    watchdog.start()
    ready, payload = None, ""
    try:
        for line in proc.stdout:
            if line.startswith("READY ") and ready is None:
                ready = float(line.split()[1])
            elif line.startswith("RESULT "):
                payload = line[len("RESULT "):]
    finally:
        watchdog.cancel()
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or ready is None or (not probe and not payload):
        raise WorkerError(f"worker exited with code {code}")
    return ready, payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own smoke test")
    args = parser.parse_args(argv)

    if not (envinfo.SRC / "helmat" / "__init__.py").is_file():
        print(f"perfbench: no helmat package under {envinfo.SRC}", file=sys.stderr)
        return 2
    t0 = perf_counter()
    try:
        setup: list[float] = []
        while len(setup) < MIN_PROBES or (len(setup) < MAX_PROBES
                                          and sum(setup) < PROBE_BUDGET_S):
            setup.append(_spawn(args, True, DEADLINE_S - (perf_counter() - t0))[0])
        ready, payload = _spawn(args, False, DEADLINE_S - (perf_counter() - t0))
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setup.append(ready)
    result = json.loads(payload)

    chosen = result["per_layer"] if args.trace else result["end_to_end"]
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()}
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    info = {key: result[key] for key in ("workload", "env", "timed", "failures")}
    info["setup_samples_s"] = setup
    if "trace" in result:
        info["trace"] = result["trace"]
    print(json.dumps(info))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

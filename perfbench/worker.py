"""One workload process: set-up, timed loop, optional traced rounds, checks.

Started by ``run.py`` with BLAS pinned to one thread.  It writes two
protocol lines to its standard output: ``READY <cpu seconds>`` once set-up
(import, inputs, one warm-up op) is done, and ``RESULT <json>`` at the
end.  With ``--probe`` it stops after ``READY``; run.py uses such probes
to sample set-up time in fresh processes.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from time import perf_counter, process_time

import numpy as np

import envinfo

WORK_DIR = envinfo.ROOT / ".perfbench"


def timed_loop(ops: list, seconds: float, same):
    """Run rounds of ``ops`` back to back until ``seconds`` of wall time have
    passed and a round is complete.

    Returns per-op latencies, (op index, output) records, the number of
    repeats of each op whose output matched its first one, and the CPU and
    wall time of the whole loop.  Latencies are process CPU time: the caller
    is single threaded and compute bound, so on an idle core its CPU time is
    its wall time, while on a shared host it leaves out the time the host
    took the CPU away (steal), which otherwise swamps run-to-run spread.

    Only the first round's outputs, and later outputs that differ from them
    (``same`` is false), are kept while the loop runs; a matching repeat is
    only counted.  So apart from one latency per op, the memory the loop
    holds does not grow with the number of ops, and a faster program does
    not read a higher peak RSS.  The comparison runs outside the per-op
    timer."""
    latencies: list[float] = []
    first: list = []
    records: list[tuple[int, object]] = []
    repeats = [0] * len(ops)
    wall0, cpu0 = perf_counter(), process_time()
    while True:
        for idx, op in enumerate(ops):
            start = process_time()
            try:
                out = op()
            except Exception as exc:  # a failed op is counted, not fatal
                out = exc
            latencies.append(process_time() - start)
            if len(first) == idx:
                first.append(out)
                records.append((idx, out))
            elif same(out, first[idx]):
                repeats[idx] += 1
            else:
                records.append((idx, out))
        if perf_counter() - wall0 >= seconds:
            cpu, wall = process_time() - cpu0, perf_counter() - wall0
            return latencies, records, repeats, cpu, wall


def traced_rounds(ops: list, rounds: int, tracer) -> tuple[list[tuple[int, object]], float]:
    """``rounds`` rounds of ``ops`` with the tracer installed; each op call
    gets its own op id.  Returns the records and the CPU time taken."""
    records = []
    tracer.install()
    try:
        cpu0 = process_time()
        for _ in range(rounds):
            for idx, op in enumerate(ops):
                tracer.set_op(len(records))
                try:
                    out = op()
                except Exception as exc:
                    out = exc
                records.append((idx, out))
        elapsed = process_time() - cpu0
    finally:
        tracer.uninstall()
    return records, elapsed


def percentile_ms(latencies: list[float], pct: float) -> float:
    return float(np.percentile(np.asarray(latencies), pct)) * 1e3


def cli_metrics(records) -> dict[str, tuple[float, str]]:
    from workloads import EXIT_INPUT_ERROR, CliResult

    cli = [out for _, out in records if isinstance(out, CliResult)]
    n = max(len(cli), 1)
    return {
        "cli.report_bytes": (sum(len(o.stdout.encode()) for o in cli) / n, "bytes"),
        "cli.rejected_frac": (sum(o.code == EXIT_INPUT_ERROR for o in cli) / n, "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    try:
        helmat = envinfo.import_helmat()
    except envinfo.GuardError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    WORK_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.smoke, WORK_DIR)
    try:
        workload.warm_up()
        # Set-up time is the CPU time of this process so far, for the same
        # reason the op latencies are.
        print(f"READY {process_time()!r}", flush=True)
        if args.probe:
            return 0
        latencies, records, repeats, elapsed, wall = timed_loop(
            workload.round, args.seconds, workload.same)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # The checks see every repeat; records[idx] holds op idx's first output.
        records += [(idx, records[idx][1]) for idx, n in enumerate(repeats) for _ in range(n)]
        traced = []
        if args.trace:
            from tracer import Tracer, layer_metrics

            tracer = Tracer()
            traced, traced_elapsed = traced_rounds(workload.round, workload.trace_rounds,
                                                   tracer)
        failures = workload.check(records + traced)
    finally:
        workload.close()

    attempted = len(records) + len(traced)
    n = len(latencies)
    tail_ms = percentile_ms(latencies, workload.tail_pct)
    result = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "env": envinfo.environment(helmat),
        "workload": {"name": workload.name, "seed": args.seed, **workload.info},
        "timed": {"ops": n, "cpu_s": elapsed, "wall_s": wall,
                  "tail_percentile": workload.tail_pct,
                  "tail_beyond": sum(lat * 1e3 > tail_ms for lat in latencies)},
        "end_to_end": {
            "ops_per_s": (n / elapsed, "1/s"),
            "op_p50_ms": (percentile_ms(latencies, 50.0), "ms"),
            "op_tail_ms": (tail_ms, "ms"),
            "ok_frac": (1.0 - len(failures) / attempted, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        },
    }
    if args.trace:
        layers = layer_metrics(tracer)
        layers.update(cli_metrics(traced))
        untraced_per_op = elapsed / n
        traced_per_op = traced_elapsed / len(traced)
        layers["trace.overhead_frac"] = (traced_per_op / untraced_per_op - 1.0, "ratio")
        result["per_layer"] = layers
        trace_dir = WORK_DIR / "traces"
        trace_dir.mkdir(exist_ok=True)
        path = trace_dir / f"{workload.name}-seed{args.seed}.npz"
        tracer.dump(path)
        result["trace"] = {"spans": len(tracer), "file": str(path.relative_to(envinfo.ROOT))}
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

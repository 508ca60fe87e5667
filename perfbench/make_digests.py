"""Record the sha256 of ``helmat verify all`` reports for a range of seeds.

    python3 perfbench/make_digests.py --samples 1000 --seeds 0-39 42

The table (``verify_digests.json``) was made at the commit that introduced
the benchmark.  The verify-all workload reports how many of its reports
still match it, as information only: later changes may legitimately alter
the detail strings of a report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import envinfo


def _seeds(specs: list[str]) -> list[int]:
    seeds = []
    for spec in specs:
        lo, _, hi = spec.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=1000)
    parser.add_argument("--seeds", nargs="+", required=True,
                        help="seeds or inclusive ranges such as 0-39")
    args = parser.parse_args(argv)
    if os.environ.get("OPENBLAS_NUM_THREADS") != envinfo.BLAS_THREADS:
        # Same BLAS threading as the benchmark, so reports are bit-identical.
        os.execve(sys.executable, [sys.executable, *sys.argv], envinfo.pinned_env())
    envinfo.import_helmat()
    from workloads import DIGESTS_FILE, run_cli

    table = json.loads(DIGESTS_FILE.read_text()) if DIGESTS_FILE.exists() else {}
    column = table.setdefault(str(args.samples), {})
    for seed in _seeds(args.seeds):
        out = run_cli(["verify", "all", "--seed", str(seed), "--samples", str(args.samples)])
        if out.code != 0:
            print(f"seed {seed}: exit {out.code}, not recorded", file=sys.stderr)
            continue
        column[str(seed)] = hashlib.sha256(out.stdout.encode()).hexdigest()
        print(f"seed {seed}: {column[str(seed)]}", flush=True)
    table[str(args.samples)] = dict(sorted(column.items(), key=lambda kv: int(kv[0])))
    DIGESTS_FILE.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

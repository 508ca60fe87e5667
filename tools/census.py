"""Solve the hard-family census and record each solve.

Each seed draws one family by a fixed recipe (:func:`draw_family`): its
dimension (2-12), size (2-8), condition number (log-uniform in 10-1e6),
field (real or complex) and Picard step (1 or 1/2), then its matrices and
raw weights.  The family is solved for five kinds: Wasserstein, the power
means at t = 0.1, 0.5 and 0.9, and log-Euclidean, with the default
``SolverConfig`` but the drawn step.

Usage::

    PYTHONPATH=src python3 tools/census.py FIRST LAST [--out FILE]

solves the families of seeds FIRST..LAST (inclusive) with the helmat on the
import path, so the same tool runs against any checkout, and writes JSON
(to FILE, default stdout): one record per solve, in seed then kind order,
with the seed, the kind and the family's parameters, then either the
iterations, the final residual, the convergence flag and the SHA-256 of
the iterate's entries, or the exception the solve raised.  Two checkouts
agree on a solve when their records are equal.  Seeds 100001-101000 (5,000
solves) take about two minutes on one core.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from helmat.barycentre import LOG_EUCLIDEAN, WASSERSTEIN, PowerMean, SolverConfig, solve
from helmat.errors import HelmatError
from helmat.means import WeightVector
from helmat.sampling import make_rng, random_spd

#: The kinds each family is solved for, by their record labels.
KINDS = {
    "wasserstein": WASSERSTEIN,
    "power-0.1": PowerMean(0.1),
    "power-0.5": PowerMean(0.5),
    "power-0.9": PowerMean(0.9),
    "log-euclidean": LOG_EUCLIDEAN,
}


def draw_family(seed: int):
    """One family of the census: its dimension, size, condition number,
    field and damping are drawn from ``seed``, then its matrices and
    weights; returns the family, the raw weights and the solver
    configuration."""
    rng = make_rng(seed)
    dim, m = rng.integers(2, 13), rng.integers(2, 9)
    cond = 10 ** rng.uniform(1, 6)
    complex_entries = bool(rng.integers(2))
    damping = (1.0, 0.5)[rng.integers(2)]
    mats = [random_spd(rng, dim, cond=cond, complex_entries=complex_entries) for _ in range(m)]
    return mats, rng.uniform(0.1, 3.0, m), SolverConfig(damping=damping)


def census(first: int, last: int) -> list[dict]:
    """The records of every solve of seeds ``first``..``last``."""
    records = []
    for seed in range(first, last + 1):
        mats, weights, cfg = draw_family(seed)
        family = {"seed": seed, "dim": mats[0].dim, "m": len(mats),
                  "complex": mats[0].entries.dtype.kind == "c", "damping": cfg.damping}
        for label, kind in KINDS.items():
            record = {**family, "kind": label}
            try:
                x, report = solve(kind, mats, WeightVector(weights), cfg)
            except HelmatError as exc:
                record["error"] = f"{type(exc).__name__}: {exc}"
            else:
                record.update(iterations=report.iterations, residual=report.final_residual,
                              converged=report.converged,
                              sha256=hashlib.sha256(x.entries.tobytes()).hexdigest())
            records.append(record)
    return records


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="solve the hard-family census")
    parser.add_argument("first", type=int)
    parser.add_argument("last", type=int)
    parser.add_argument("--out", default=None, help="JSON file to write (default stdout)")
    args = parser.parse_args(argv)
    text = json.dumps(census(args.first, args.last), indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as out:
            out.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

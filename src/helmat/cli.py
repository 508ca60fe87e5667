"""Command-line front end.

Four subcommands: ``dist`` (distances/divergences between two matrix files),
``mean`` (matrix means of a family), ``bary`` (fixed-point barycentres with
solver diagnostics), ``verify`` (the numerical verification suites).

Every command writes a single JSON run report to standard output and a
short human-readable summary to standard error.  Reports are deterministic
for fixed inputs, flags and seed.  Exit codes: 0 success, 1 verification
failure, 2 solver non-convergence, 3 input or parse error.

Each input file is read once: its bytes are decoded and validated by the
library value they describe (``SpdMatrix``, ``ProbabilityVector`` or
``WeightVector``), and the report ``digest`` is the SHA-256 of the same
bytes, so it describes exactly the matrices computed on.  The weights file
is not part of the digest.  An invalid file exits 3 with an error that
names it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict

from . import barycentre, distances, means
from .distances import DistanceKind, ProbabilityVector
from .errors import HelmatError
from .linalg import SpdMatrix
from .matio import decode_json, matrix_from_payload, matrix_to_payload, read_json_file
from .means import WeightVector
from .suites import SUITES, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_NOT_CONVERGED = 2
EXIT_INPUT_ERROR = 3

#: ``mean`` kinds: the library function of each, given the family, the
#: weights and ``--t``.
_MEANS = {
    "arith": lambda mats, w, t: means.arithmetic_mean(mats, w),
    "geo": lambda mats, w, t: means.geometric_mean(*mats),
    "geo-t": lambda mats, w, t: means.geometric_mean_t(*mats, t),
    "logeuclid": lambda mats, w, t: means.log_euclidean_multi(mats, w),
    "qhalf": lambda mats, w, t: means.q_half(mats, w),
}

#: ``bary`` kinds: the mean kind of each, given ``--t``.
_BARY_KINDS = {
    "wasserstein": lambda t: barycentre.WASSERSTEIN,
    "power-t": barycentre.PowerMean,
    "logeuclid-type": lambda t: barycentre.LOG_EUCLIDEAN,
}


class CliUsageError(Exception):
    """Bad command-line usage; mapped to the input-error exit code."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from exiting with its own code
        raise CliUsageError(message)


def _sig12(value: float) -> float:
    """Scalar output rounded to 12 significant digits."""
    return float(f"{value:.12g}")


def _digest(parts: list[bytes]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
        h.update(b"\x00")
    return h.hexdigest()


def _spd(payload) -> SpdMatrix:
    return SpdMatrix(matrix_from_payload(payload))


def _load(paths: list[str], build) -> tuple[list, str]:
    """``build`` of each file's JSON, and the digest of the bytes parsed."""
    loaded = [read_json_file(path, build) for path in paths]
    return [value for value, _ in loaded], _digest([data for _, data in loaded])


def _weights_for(args, count: int) -> WeightVector:
    """``--weights`` for a family of ``count`` matrices, uniform when
    unset.  A wrong count is the family's fault, raised by
    :func:`~helmat.means.check_family`."""
    if args.weights is None:
        return WeightVector.uniform(count)
    if args.weights.strip().startswith("["):
        return decode_json("inline weights", args.weights, WeightVector)
    return read_json_file(args.weights, WeightVector)[0]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="helmat",
                     description="Hellinger-type distances, divergences and "
                                 "barycentres of positive definite matrices")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser("dist", help="distance and squared divergence "
                                         "between two matrix files")
    p_dist.add_argument("kind", choices=[*(k.value for k in DistanceKind), "hellinger"])
    p_dist.add_argument("file_a")
    p_dist.add_argument("file_b")
    p_dist.add_argument("--via-unitary", action="store_true",
                        help="for d2: evaluate through the unitary "
                             "minimisation instead of the trace formula")

    p_mean = sub.add_parser("mean", help="matrix mean of a family")
    p_mean.add_argument("kind", choices=list(_MEANS))
    p_mean.add_argument("files", nargs="+")
    p_mean.add_argument("--weights", default=None,
                        help="JSON file with an array of positive weights, "
                             "or an inline JSON array (default: uniform)")
    p_mean.add_argument("--t", type=float, default=None,
                        help="interpolation parameter for geo-t (default 0.5)")

    p_bary = sub.add_parser("bary", help="fixed-point barycentre of a family")
    p_bary.add_argument("kind", choices=list(_BARY_KINDS))
    p_bary.add_argument("files", nargs="+")
    p_bary.add_argument("--weights", default=None)
    p_bary.add_argument("--tol", type=float, default=1e-12)
    p_bary.add_argument("--max-iter", type=int, default=500)
    p_bary.add_argument("--damping", type=float, default=1.0)
    p_bary.add_argument("--t", type=float, default=None,
                        help="power-mean parameter for power-t (default 0.5)")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", nargs="?", default="all", choices=[*SUITES, "all"])
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--samples", type=int, default=1000)
    return parser


def _t_for(args, kind: str) -> float:
    """``--t`` (0.5 when unset) for a command whose one reading kind is
    ``kind``; setting it for another kind is a usage error."""
    if args.t is not None and args.kind != kind:
        raise CliUsageError(f"--t applies only to {args.command} {kind}")
    return 0.5 if args.t is None else args.t


def _cmd_dist(args) -> tuple[dict, int, str]:
    if args.via_unitary and args.kind != "d2":
        raise CliUsageError("--via-unitary applies only to d2")
    files = [args.file_a, args.file_b]
    if args.kind == "hellinger":
        (p, q), digest = _load(files, ProbabilityVector)
        value = distances.hellinger(p, q)
    else:
        (a, b), digest = _load(files, _spd)
        if args.via_unitary:
            value, _ = distances.d2_unitary(a, b)
        else:
            value = distances.distance(DistanceKind(args.kind), a, b)
    report = {
        "command": ["dist", args.kind, *files]
        + (["--via-unitary"] if args.via_unitary else []),
        "inputs": {"files": files, "digest": digest},
        "outputs": {"distance": _sig12(value), "divergence": _sig12(value * value)},
    }
    return report, EXIT_OK, f"{args.kind}({args.file_a}, {args.file_b}) = {value:.6g}"


def _cmd_mean(args) -> tuple[dict, int, str]:
    pairwise = args.kind in ("geo", "geo-t")
    if pairwise and args.weights is not None:
        raise CliUsageError(f"--weights does not apply to mean {args.kind}")
    t = _t_for(args, "geo-t")
    mats, digest = _load(args.files, _spd)
    if pairwise and len(mats) != 2:
        raise CliUsageError(f"mean {args.kind} needs exactly two matrices")
    w = _weights_for(args, len(mats))
    result = _MEANS[args.kind](mats, w, t)
    report = {
        "command": ["mean", args.kind, *args.files],
        "inputs": {"files": list(args.files), "digest": digest,
                   "weights": [float(x) for x in w.weights]},
        "outputs": {"matrix": matrix_to_payload(result.entries)},
    }
    return report, EXIT_OK, f"mean {args.kind} of {len(mats)} matrices (dim {result.dim})"


def _cmd_bary(args) -> tuple[dict, int, str]:
    t = _t_for(args, "power-t")
    mats, digest = _load(args.files, _spd)
    w = _weights_for(args, len(mats))
    kind = _BARY_KINDS[args.kind](t)
    cfg = barycentre.SolverConfig(tol=args.tol, max_iter=args.max_iter,
                                  damping=args.damping)
    solution, solver_report = barycentre.solve(kind, mats, w, cfg)
    code = EXIT_OK if solver_report.converged else EXIT_NOT_CONVERGED
    report = {
        "command": ["bary", args.kind, *args.files],
        "inputs": {"files": list(args.files), "digest": digest,
                   "weights": [float(x) for x in w.weights],
                   "tol": args.tol, "max_iter": args.max_iter,
                   "damping": args.damping,
                   "t": t if args.kind == "power-t" else None},
        "outputs": {"matrix": matrix_to_payload(solution.entries)},
        "solver": {
            "iterations": solver_report.iterations,
            "final_residual": _sig12(solver_report.final_residual),
            "converged": solver_report.converged,
            "spectral_bounds": [_sig12(solver_report.spectral_bounds[0]),
                                _sig12(solver_report.spectral_bounds[1])],
            "bracket_ok": solver_report.bracket_ok,
        },
    }
    state = "converged" if solver_report.converged else "DID NOT CONVERGE"
    summary = (f"bary {args.kind}: {state} after {solver_report.iterations} "
               f"iterations, residual {solver_report.final_residual:.3e}")
    return report, code, summary


def _cmd_verify(args) -> tuple[dict, int, str]:
    results = run_suite(args.suite, seed=args.seed, samples=args.samples)
    all_passed = all(r.passed for r in results)
    table = [
        {
            "suite": r.suite,
            "passed": r.passed,
            "checks": [asdict(c) for c in r.checks],
        }
        for r in results
    ]
    report = {
        "command": ["verify", args.suite],
        "inputs": {"suite": args.suite, "seed": args.seed,
                   "samples": args.samples,
                   "digest": _digest([f"{args.suite}:{args.seed}:{args.samples}"
                                      .encode()])},
        "suite": {"results": table, "passed": all_passed},
    }
    lines = []
    for r in results:
        for c in r.checks:
            lines.append(f"[{'PASS' if c.passed else 'FAIL'}] {r.suite}/{c.name}: {c.detail}")
    lines.append(f"suite {args.suite}: {'all checks passed' if all_passed else 'FAILURES'}")
    return report, EXIT_OK if all_passed else EXIT_VERIFY_FAILED, "\n".join(lines)


_HANDLERS = {
    "dist": _cmd_dist,
    "mean": _cmd_mean,
    "bary": _cmd_bary,
    "verify": _cmd_verify,
}

#: Built once per process: building it costs about as much as a small ``dist``.
_PARSER = build_parser()


def run(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        report, code, summary = _HANDLERS[args.command](args)
        # strict JSON: a report holding NaN or Infinity is an input error
        text = json.dumps(report, indent=2, allow_nan=False)
    except (CliUsageError, HelmatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    sys.stdout.write(text + "\n")
    print(summary, file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

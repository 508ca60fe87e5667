"""Command-line front end.

Four subcommands: ``dist`` (distances/divergences between two matrix files),
``mean`` (matrix means of a family), ``bary`` (fixed-point barycentres with
solver diagnostics), ``verify`` (the numerical verification suites).

Every command writes a single JSON run report to standard output and a
short human-readable summary to standard error.  Reports are deterministic
for fixed inputs, flags and seed.  Exit codes: 0 success, 1 verification
failure, 2 solver non-convergence, 3 input or parse error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import barycentre, distances, means
from .distances import DistanceKind
from .errors import HelmatError
from .linalg import SpdMatrix
from .matio import (
    MatrixFileError,
    matrix_to_payload,
    read_matrix_file,
    read_weights_file,
)
from .means import WeightVector
from .suites import run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_NOT_CONVERGED = 2
EXIT_INPUT_ERROR = 3

_BARY_KINDS = {
    "wasserstein": lambda t: barycentre.WASSERSTEIN,
    "power-t": lambda t: barycentre.PowerMean(t),
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


def _file_digest(paths: list[str]) -> str:
    parts = []
    for p in paths:
        try:
            parts.append(Path(p).read_bytes())
        except OSError as exc:
            raise MatrixFileError(f"{p}: cannot read file: {exc}") from exc
    return _digest(parts)


def _load_spd(path: str) -> SpdMatrix:
    try:
        return SpdMatrix(read_matrix_file(path))
    except HelmatError as exc:
        if isinstance(exc, MatrixFileError):
            raise
        raise MatrixFileError(f"{path}: {exc}") from exc


def _load_probability(path: str) -> distances.ProbabilityVector:
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise MatrixFileError(f"{path}: cannot read file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MatrixFileError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, list):
        raise MatrixFileError(f"{path}: a probability vector is a JSON array")
    try:
        return distances.ProbabilityVector(payload)
    except (ValueError, TypeError) as exc:
        raise MatrixFileError(f"{path}: {exc}") from exc


def _weights_for(args, count: int) -> WeightVector:
    if args.weights is None:
        return WeightVector.uniform(count)
    raw = args.weights
    if raw.strip().startswith("["):
        try:
            values = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise MatrixFileError(f"inline weights: invalid JSON: {exc}") from exc
    else:
        values = read_weights_file(raw)
    try:
        w = WeightVector(values)
    except ValueError as exc:
        raise MatrixFileError(f"weights: {exc}") from exc
    if len(w) != count:
        raise MatrixFileError(f"got {len(w)} weights for {count} matrices")
    return w


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
    p_mean.add_argument("kind", choices=["arith", "geo", "geo-t", "logeuclid", "qhalf"])
    p_mean.add_argument("files", nargs="+")
    p_mean.add_argument("--weights", default=None,
                        help="JSON file with an array of positive weights, "
                             "or an inline JSON array (default: uniform)")
    p_mean.add_argument("--t", type=float, default=0.5,
                        help="interpolation parameter for geo-t (default 0.5)")

    p_bary = sub.add_parser("bary", help="fixed-point barycentre of a family")
    p_bary.add_argument("kind", choices=list(_BARY_KINDS))
    p_bary.add_argument("files", nargs="+")
    p_bary.add_argument("--weights", default=None)
    p_bary.add_argument("--tol", type=float, default=1e-12)
    p_bary.add_argument("--max-iter", type=int, default=500)
    p_bary.add_argument("--damping", type=float, default=1.0)
    p_bary.add_argument("--seed", type=int, default=42,
                        help="accepted for report reproducibility; the "
                             "solver itself is deterministic")
    p_bary.add_argument("--t", type=float, default=0.5,
                        help="power-mean parameter for power-t (default 0.5)")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", nargs="?", default="all",
                          choices=["counterexamples", "trace-chain",
                                   "divergence-axioms", "bregman",
                                   "legendre-cex", "d4-guess", "all"])
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--samples", type=int, default=1000)
    return parser


def _cmd_dist(args) -> tuple[dict, int, str]:
    if args.via_unitary and args.kind != "d2":
        raise CliUsageError("--via-unitary applies only to d2")
    if args.kind == "hellinger":
        p = _load_probability(args.file_a)
        q = _load_probability(args.file_b)
        value = distances.hellinger(p, q)
        outputs = {"distance": _sig12(value), "divergence": _sig12(value * value)}
        summary = f"hellinger({args.file_a}, {args.file_b}) = {value:.6g}"
    else:
        kind = DistanceKind(args.kind)
        a = _load_spd(args.file_a)
        b = _load_spd(args.file_b)
        if args.via_unitary:
            value, _ = distances.d2_unitary(a, b)
        else:
            value = distances.distance(kind, a, b)
        outputs = {"distance": _sig12(value), "divergence": _sig12(value * value)}
        summary = f"{args.kind}({args.file_a}, {args.file_b}) = {value:.6g}"
    report = {
        "command": ["dist", args.kind, args.file_a, args.file_b]
        + (["--via-unitary"] if args.via_unitary else []),
        "inputs": {"files": [args.file_a, args.file_b],
                   "digest": _file_digest([args.file_a, args.file_b])},
        "outputs": outputs,
    }
    return report, EXIT_OK, summary


def _cmd_mean(args) -> tuple[dict, int, str]:
    mats = [_load_spd(f) for f in args.files]
    if args.kind in ("geo", "geo-t") and len(mats) != 2:
        raise CliUsageError(f"mean {args.kind} needs exactly two matrices")
    w = _weights_for(args, len(mats))
    if args.kind == "arith":
        result = means.arithmetic_mean(mats, w)
    elif args.kind == "geo":
        result = means.geometric_mean(mats[0], mats[1])
    elif args.kind == "geo-t":
        result = means.geometric_mean_t(mats[0], mats[1], args.t)
    elif args.kind == "logeuclid":
        result = means.log_euclidean_multi(mats, w)
    else:
        result = means.q_half(mats, w)
    report = {
        "command": ["mean", args.kind, *args.files],
        "inputs": {"files": list(args.files), "digest": _file_digest(args.files),
                   "weights": [float(x) for x in w.weights]},
        "outputs": {"matrix": matrix_to_payload(result.entries)},
    }
    return report, EXIT_OK, f"mean {args.kind} of {len(mats)} matrices (dim {result.dim})"


def _cmd_bary(args) -> tuple[dict, int, str]:
    mats = [_load_spd(f) for f in args.files]
    w = _weights_for(args, len(mats))
    kind = _BARY_KINDS[args.kind](args.t)
    cfg = barycentre.SolverConfig(tol=args.tol, max_iter=args.max_iter,
                                  damping=args.damping)
    solution, solver_report = barycentre.solve(kind, mats, w, cfg)
    code = EXIT_OK if solver_report.converged else EXIT_NOT_CONVERGED
    report = {
        "command": ["bary", args.kind, *args.files],
        "inputs": {"files": list(args.files), "digest": _file_digest(args.files),
                   "weights": [float(x) for x in w.weights],
                   "tol": args.tol, "max_iter": args.max_iter,
                   "damping": args.damping, "seed": args.seed,
                   "t": args.t if args.kind == "power-t" else None},
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
    if args.samples < 1:
        raise CliUsageError("--samples must be a positive integer")
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


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        report, code, summary = _HANDLERS[args.command](args)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (MatrixFileError, HelmatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    print(summary, file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

"""The four benchmark workloads: inputs, one round of ops, and output checks.

Every workload is one closed-loop caller.  Its inputs come from the workload
seed alone (a PCG64 stream that is not helmat's), its ops are zero-argument
callables that call helmat's public API, and ``check`` compares every
recorded output with an independent scipy reference after timing is over;
``oracle`` (and with it scipy) is imported only there, so it weighs on
neither set-up time nor peak memory.
Ops look helmat functions up at call time, so a traced pass sees the
tracer's wrappers and an untraced pass sees the originals.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import tempfile
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

import helmat
import helmat.cli

VERIFY_CHECKS = {
    "counterexamples": [
        "d3-triangle-direct-value", "d3-triangle-detour-value", "d3-triangle-violation",
        "d4-triangle-direct-value", "d4-triangle-detour-value", "d4-triangle-violation",
        "d1-d2-triangle-holds", "d2-unitary-minimum"],
    "trace-chain": ["trace-chain-monotone", "squared-distance-ordering"],
    "divergence-axioms": [
        "diagonal-vanishing", "d3-gradient-diagonal", "d4-gradient-diagonal",
        "d3-hessian-identity", "frechet-finite-difference",
        "geometric-derivative-quadrature", "integral-representations"],
    "bregman": [
        "right-barycentre-arithmetic", "left-barycentre-log-euclidean",
        "variance-trace-identity", "d4-square-as-minimum", "scalar-quasi-arithmetic"],
    "legendre-cex": [
        "vector-gradient-at-zero", "vector-strict-minimum", "matrix-gradient-positive",
        "matrix-strict-minimum", "matrix-stationarity-unsolvable"],
    "d4-guess": [
        "wasserstein-closed-form", "power-half-closed-form", "log-euclidean-guess-refuted",
        "fixed-point-residuals", "restart-agreement", "commuting-collapse"],
}

DIGESTS_FILE = Path(__file__).with_name("verify_digests.json")

#: Distance check: |d - ref| <= DIST_RTOL * ref + DIST_ATOL * sqrt(tr A + tr B).
#: The absolute part covers the trace-difference cancellation both formulas
#: may carry on a pair that is close relative to its scale.
DIST_RTOL = 1e-7
DIST_ATOL = 1e-7
#: Fixed-point residual recomputed with scipy mean maps; helmat's own
#: stopping tolerance is 1e-12, the slack covers the other algorithm's roundoff.
RESIDUAL_TOL = 1e-9
#: Relative Frobenius error allowed on a ``helmat mean`` result.
MEAN_RTOL = 1e-8
EXIT_OK, EXIT_INPUT_ERROR = 0, 3


def make_rng(seed: int, stream: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(stream.encode()).digest()[:4], "little")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, tag])))


def spd_array(rng: np.random.Generator, dim: int, cond: float,
              complex_entries: bool) -> np.ndarray:
    """``Q diag(lam) Q*`` with a Haar basis and a log-uniform spectrum whose
    end points realise ``cond``; exactly Hermitian."""
    g = rng.standard_normal((dim, dim))
    if complex_entries:
        g = g + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    q = q * (d / np.abs(d))
    half = 0.5 * np.log(cond)
    lam = np.exp(rng.uniform(-half, half, dim))
    lam[0], lam[-1] = np.exp(-half), np.exp(half)
    a = (q * lam) @ q.conj().T
    return (a + a.conj().T) / 2


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str


def run_cli(argv: list[str]) -> CliResult:
    """One in-process ``helmat`` invocation; the report is captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = helmat.cli.run(argv)
    return CliResult(code, out.getvalue())


def _distances(triples):
    return [helmat.distance(kind, a, b) for kind, a, b in triples]


def _solve(kind, mats, w):
    return helmat.solve(kind, mats, w)


class Workload:
    """Base: ``round`` is one round of ops; the timed loop ends on a round
    boundary, so every run weights the ops alike.  ``tail_pct`` is fixed
    per workload so the tail metric means the same thing on every run.  A
    traced run adds ``trace_rounds`` traced rounds, a fixed count, so its
    counts repeat exactly; short rounds get several so the tracing overhead
    is measured over a few CPU seconds."""

    name = ""
    tail_pct = 99.0
    trace_rounds = 1

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.round: list = []
        self.info: dict = {}

    def warm_up(self):
        return self.round[0]()

    @staticmethod
    def same(a, b) -> bool:
        """Whether a repeated op's output equals its first output."""
        return a == b

    def check(self, records: list[tuple[int, object]]) -> list[str]:
        """Failure messages, one per failed op."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class PairsPool(Workload):
    """Distances between same-dimension members of a pool of validated
    ``SpdMatrix`` values.  One op is one batch of ``distance`` calls: for
    one pair slot, the pair of that slot at every dimension under every
    kind, in a seeded order.  The batches of a round have the same mix of
    dimensions and kinds, so their latencies form one cluster, and an op of
    tens of milliseconds averages out the jitter of single sub-millisecond
    calls."""

    name = "pairs-pool"
    #: About 500 ops a run: p95 has about 25 beyond it.  At p97, with about
    #: 15 beyond, the tail spread twice as much between seeds as the median.
    tail_pct = 95.0
    trace_rounds = 3
    GROUP = 3  # matrices per dimension; each pair of them is one pair slot

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        rng = make_rng(seed, self.name)
        dims = range(2, 5) if smoke else range(2, 17)
        self.arrays: list[np.ndarray] = []
        pool: list[helmat.SpdMatrix] = []
        members: dict[int, list[int]] = {}
        for dim in dims:
            for _ in range(self.GROUP):
                cond = 10.0 ** rng.uniform(0.0, 4.0)
                arr = spd_array(rng, dim, cond, complex_entries=len(pool) % 2 == 1)
                members.setdefault(dim, []).append(len(pool))
                self.arrays.append(arr)
                pool.append(helmat.SpdMatrix(arr))
        # d1 and d2 take a pair once, d3 and d4 (not symmetric) both orders.
        d1, d2, d3, d4 = helmat.DistanceKind
        slots = [(p, q) for p in range(self.GROUP) for q in range(p + 1, self.GROUP)]
        self.batches = []
        for p, q in slots:
            pairs = [(idx[p], idx[q]) for idx in members.values()]
            batch = [spec for i, j in pairs
                     for spec in ((d1, i, j), (d2, i, j), (d3, i, j), (d3, j, i),
                                  (d4, i, j), (d4, j, i))]
            self.batches.append([batch[k] for k in rng.permutation(len(batch))])
        self.round = [partial(_distances, [(kind, pool[i], pool[j]) for kind, i, j in batch])
                      for batch in self.batches]
        self.info = {"pool": len(pool), "dims": [dims.start, dims.stop - 1],
                     "distances_per_op": len(self.batches[0])}

    def check(self, records):
        import oracle

        prepared = [oracle.Prepared(a) for a in self.arrays]
        refs = [[(oracle.distance(kind.value, prepared[i], prepared[j]),
                  np.sqrt(prepared[i].trace + prepared[j].trace)) for kind, i, j in batch]
                for batch in self.batches]
        failures = []
        for idx, values in records:
            problem = self._problem(idx, values, refs[idx])
            if problem:
                failures.append(f"distance batch {idx}: {problem}")
        return failures

    def _problem(self, idx, values, refs):
        if not (isinstance(values, list) and len(values) == len(refs)):
            return repr(values)
        for (kind, i, j), value, (ref, scale) in zip(self.batches[idx], values, refs):
            if not (isinstance(value, float)
                    and abs(value - ref) <= DIST_RTOL * ref + DIST_ATOL * scale):
                return f"distance({kind.value}, pool[{i}], pool[{j}]) = {value!r}, reference {ref!r}"
        return None


class BaryLarge(Workload):
    """``solve`` for three mean kinds round-robin on one d = 64, m = 16 family."""

    name = "bary-large"
    tail_pct = 100.0
    KINDS = (("wasserstein", helmat.WASSERSTEIN), ("power", helmat.PowerMean(0.5)),
             ("logeuclid", helmat.LOG_EUCLIDEAN))

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        rng = make_rng(seed, self.name)
        dim, m = (8, 4) if smoke else (64, 16)
        self.arrays = [spd_array(rng, dim, 20.0, complex_entries=False) for _ in range(m)]
        self.weights = rng.uniform(0.5, 2.0, m)
        mats = [helmat.SpdMatrix(a) for a in self.arrays]
        w = helmat.WeightVector(self.weights)
        self.round = [partial(_solve, kind, mats, w) for _, kind in self.KINDS]
        self.info = {"dim": dim, "m": m, "cond": 20.0}

    @staticmethod
    def same(a, b):
        return (isinstance(a, tuple) and isinstance(b, tuple) and a[1] == b[1]
                and np.array_equal(a[0].entries, b[0].entries))

    def check(self, records):
        w = self.weights / self.weights.sum()
        verdicts: dict[tuple[int, bytes], str | None] = {}
        failures = []
        for idx, out in records:
            label = f"solve({self.KINDS[idx][0]})"
            if not isinstance(out, tuple):
                failures.append(f"{label}: {out!r}")
                continue
            x, report = out
            key = (idx, x.entries.tobytes())
            if key not in verdicts:
                verdicts[key] = self._verdict(idx, x, report, w)
            if verdicts[key] is not None:
                failures.append(f"{label}: {verdicts[key]}")
        return failures

    def _verdict(self, idx, x, report, w):
        import oracle

        if not (report.converged and report.final_residual <= 1e-12):
            return f"not converged ({report})"
        residual = oracle.fixed_point_residual(self.KINDS[idx][0], x.entries,
                                               self.arrays, w)
        if not residual <= RESIDUAL_TOL:
            return f"scipy fixed-point residual {residual:.3e} > {RESIDUAL_TOL:.0e}"
        return None


class VerifyAll(Workload):
    """``helmat verify all --seed S --samples 1000`` in process; one op is one
    pass.  It draws fresh small matrices and reuses none."""

    name = "verify-all"
    tail_pct = 100.0

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.samples = 20 if smoke else 1000
        argv = ["verify", "all", "--seed", str(seed), "--samples", str(self.samples)]
        self.round = [partial(run_cli, argv)]
        self.info = {"samples": self.samples}

    def warm_up(self):
        # The smallest pass that still runs every suite.
        return run_cli(["verify", "all", "--seed", str(self.seed), "--samples", "1"])

    def check(self, records):
        failures = []
        digests = set()
        for _, out in records:
            problem = self._problem(out)
            if problem:
                failures.append(f"verify all: {problem}")
            else:
                digests.add(hashlib.sha256(out.stdout.encode()).hexdigest())
        known = json.loads(DIGESTS_FILE.read_text()).get(str(self.samples), {})
        reference = known.get(str(self.seed))
        # Informational only: later changes may legitimately alter detail strings.
        self.info["report_sha256_matches_seed_commit"] = (
            None if reference is None else sum(d == reference for d in digests))
        self.info["distinct_reports"] = len(digests)
        return failures

    def _problem(self, out) -> str | None:
        if not isinstance(out, CliResult):
            return repr(out)
        if out.code != EXIT_OK:
            return f"exit code {out.code}"
        try:
            report = json.loads(out.stdout)
            rows = report["suite"]["results"]
            names = {r["suite"]: [c["name"] for c in r["checks"]] for r in rows}
            passed = report["suite"]["passed"] and all(
                c["passed"] for r in rows for c in r["checks"])
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable report: {exc!r}"
        if names != VERIFY_CHECKS:
            return f"unexpected (suite, check) names: {names}"
        if not passed:
            return "a check failed"
        return None


@dataclass(frozen=True)
class Command:
    argv: list[str]
    kind: str          # "dist", "mean", "bary" or "invalid"
    sub: str
    mats: list         # arrays behind the valid files, in order
    weights: list | None = None


class CliFiles(Workload):
    """``helmat dist|mean|bary`` in process on generated JSON matrix files;
    about one file in ten is invalid and its command must exit 3.

    The plan of a round is the same for every seed: every distance kind and
    mean kind at several sizes, two fixed barycentre problems, and fixed
    plan slots whose last file is invalid (the invalid kinds in turn).  The
    seed draws the entries and the order of the commands.  So the work per
    round does not depend on the seed."""

    name = "cli-files"
    tail_pct = 99.0
    trace_rounds = 5
    INVALID_KINDS = ("non-hermitian", "not-spd", "malformed-json")
    #: (bary kind, dim, m): small problems at cond 20, as in bary-large.  Both
    #: kinds take 36-37 Picard steps on every draw; the Wasserstein kind is
    #: left to bary-large because its step count at small m swings by seed.
    BARY = (("power-t", 4, 3), ("logeuclid-type", 6, 2))

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        rng = make_rng(seed, self.name)
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=workdir))
        self.files = 0
        dims = (2, 3) if smoke else range(2, 9)
        plan = [("dist", sub, dim, 2) for sub in ("d1", "d2", "d3", "d4")
                for dim in dims for _ in range(1 if smoke else 2)]
        plan += [("mean", sub, dim, 2 if sub == "geo" else 2 + k % 3)
                 for sub in ("arith", "geo", "logeuclid", "qhalf")
                 for k, dim in enumerate(dims[::2] if smoke else (2, 4, 6, 8))]
        plan += [("bary", sub, dim, m) for sub, dim, m in self.BARY[: 1 if smoke else 2]]
        n_invalid = max(1, round(sum(spec[3] for spec in plan) / 10))
        # Evenly spaced dist and mean slots get an invalid last file, so a
        # rejected command still reads and checks all its other files.
        # Barycentre commands stay valid: an early exit there would remove
        # the round's most expensive op.
        candidates = [c for c, spec in enumerate(plan) if spec[0] != "bary"]
        bad_kind = {candidates[k * len(candidates) // n_invalid]: self.INVALID_KINDS[k % 3]
                    for k in range(n_invalid)}
        self.commands = []
        for c, spec in enumerate(plan):
            kind, sub, mats, weights, extra = self._draft(rng, c, *spec)
            invalid = bad_kind.get(c)
            paths = [self._write(arr, invalid if p == len(mats) - 1 else None)
                     for p, arr in enumerate(mats)]
            self.commands.append(Command([kind, sub, *paths, *extra],
                                         "invalid" if invalid else kind, sub, mats, weights))
        self.commands = [self.commands[k] for k in rng.permutation(len(self.commands))]
        self.round = [partial(run_cli, cmd.argv) for cmd in self.commands]
        self.info = {"commands": len(self.commands), "files": self.files,
                     "invalid_files": n_invalid}

    def _draft(self, rng, index, kind, sub, dim, m):
        # Barycentre files stay at cond 20, as in bary-large: Picard needs
        # far more iterations on ill-conditioned families.
        cond = 20.0 if kind == "bary" else 10.0 ** rng.uniform(0.0, 3.0)
        weights, extra = None, []
        if kind == "mean" and sub != "geo":
            weights = rng.uniform(0.5, 2.0, m).round(3).tolist()
            extra = ["--weights", json.dumps(weights)]
        mats = [spd_array(rng, dim, cond, complex_entries=index % 2 == 1) for _ in range(m)]
        return kind, sub, mats, weights, extra

    def _write(self, arr, invalid):
        path = self.dir / f"m{self.files:04d}.json"
        self.files += 1
        if invalid == "non-hermitian":
            arr = arr.copy()
            arr[0, -1] += 1e-3 * (1.0 + abs(arr[0, -1]))
        elif invalid == "not-spd":
            lam, vec = np.linalg.eigh(arr)
            lam[0] = -abs(lam[0])
            arr = (vec * lam) @ vec.conj().T
            arr = (arr + arr.conj().T) / 2
        payload = {"dim": int(arr.shape[0]), "real": arr.real.tolist()}
        if np.any(arr.imag != 0.0):
            payload["imag"] = arr.imag.tolist()
        text = json.dumps(payload)
        if invalid == "malformed-json":
            text = text[: len(text) // 2]
        path.write_text(text + "\n")
        return str(path.relative_to(Path.cwd()))

    def check(self, records):
        verdicts: dict[int, str | None] = {}
        first: dict[int, CliResult] = {}
        failures = []
        for idx, out in records:
            cmd = self.commands[idx]
            label = " ".join(cmd.argv[:2])
            if not isinstance(out, CliResult):
                failures.append(f"{label}: {out!r}")
                continue
            if idx not in first:
                first[idx] = out
                verdicts[idx] = self._verdict(cmd, out)
            problem = verdicts[idx] if out == first[idx] else "report differs between runs"
            if problem:
                failures.append(f"{label}: {problem}")
        return failures

    def _verdict(self, cmd: Command, out: CliResult) -> str | None:
        if cmd.kind == "invalid":
            if out.code != EXIT_INPUT_ERROR or out.stdout:
                return (f"invalid input gave exit {out.code} and {len(out.stdout)} "
                        f"report bytes, expected exit {EXIT_INPUT_ERROR} and none")
            return None
        if out.code != EXIT_OK:
            return f"exit code {out.code}"
        try:
            return self._compare(cmd, json.loads(out.stdout))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return f"unreadable report: {exc!r}"

    def _compare(self, cmd: Command, report: dict) -> str | None:
        import oracle

        outputs = report["outputs"]
        if cmd.kind == "dist":
            a, b = (oracle.Prepared(m) for m in cmd.mats)
            ref = oracle.distance(cmd.sub, a, b)
            value = outputs["distance"]
            if not abs(value - ref) <= DIST_RTOL * ref + DIST_ATOL * np.sqrt(a.trace + b.trace):
                return f"distance {value!r} vs reference {ref!r}"
            return None
        matrix = outputs["matrix"]
        x = (np.asarray(matrix["real"], dtype=float)
             + 1j * np.asarray(matrix.get("imag", 0.0), dtype=float))
        weights = cmd.weights or [1.0] * len(cmd.mats)
        if cmd.kind == "mean":
            ref = oracle.mean(cmd.sub, cmd.mats, weights)
            err = np.linalg.norm(x - ref) / np.linalg.norm(ref)
            return None if err <= MEAN_RTOL else f"relative error {err:.3e}"
        if not report["solver"]["converged"]:
            return "solver did not converge"
        kind = {"power-t": "power", "logeuclid-type": "logeuclid"}[cmd.sub]
        residual = oracle.fixed_point_residual(kind, x, cmd.mats,
                                               np.asarray(weights) / np.sum(weights))
        return None if residual <= RESIDUAL_TOL else f"scipy residual {residual:.3e}"

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (VerifyAll, PairsPool, BaryLarge, CliFiles)}

"""Named verification suites behind ``helmat verify``.

Each suite runs a batch of numerical checks and returns a table of
pass/fail rows with a short witness string per row.  Results are
deterministic for a fixed ``(seed, samples)`` pair: all randomness flows
through the package PRNG (see :mod:`helmat.sampling`).

The sampled loops of the counterexamples and trace-chain suites, the
divergence-axiom, ``grad_phi3`` and Frechet rows of the divergence-axioms
suite and the closed-form pair loop of the d4-guess suite draw every sample
first, in sample order, into a list of per-sample draw lists, and then
evaluate one stack per dimension and position (:func:`_stacks_by_dim`): the
raw ``(k, n, n)`` blocks, or an :class:`~helmat.linalg.SpdMatrix` over
``(k, n, n)`` built by :func:`~helmat.sampling.build_spd`, which the
distances, the derivatives of :mod:`~helmat.calculus` and the closed forms
and residuals of :mod:`~helmat.barycentre` take as they take one matrix.
The 500 random unitaries of the ``d2-unitary-minimum`` row are one draw and
one stacked QR.  The legendre-cex suite evaluates its matrix samples and
its stationarity grid as two stacks
(:func:`~helmat.legendre_cex.matrix_minima`,
:func:`~helmat.legendre_cex.grid_residuals`), and each of its pass
conditions is written here, once.  Each matrix of a stack gets the bits it
would get alone, and a row reports a minimum or maximum over all samples,
so the rows do not depend on the grouping.  Still one
sample at a time: the quadrature row (its node doubling stops per sample),
the vector case of legendre-cex, the Picard solves of the d4-guess suite
and the bregman families.

A sampled row collects its values, scalars or per-dimension arrays, in a
list and reduces them with :func:`_largest` or :func:`_least`: a left-to-right
builtin ``max``/``min`` over each part's extreme, starting from -inf/+inf, so
the start value of every row's extreme is chosen here, once.
:meth:`SuiteResult.at_most` and :meth:`SuiteResult.at_least` add the row
``worst <= bound`` or ``worst >= bound`` with a detail that ends in the
value as ``.3e``; a row whose verdict joins other conditions folds with
:func:`_largest`/:func:`_least` and adds itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from . import barycentre, bregman, calculus, distances, legendre_cex, means
from .distances import DistanceKind
from .linalg import (
    SpdMatrix,
    _frobenius_norms,
    _spd_stack,
    eigh,
    frobenius_norm,
    hermitian_part,
    sqrt_entries,
)
from .means import WeightVector
from .sampling import (
    _haar_basis,
    build_spd,
    draw_spd,
    make_rng,
    random_hermitian,
    random_orthogonal,
    random_spd,
)

#: The 2x2 triple on which the geometric-mean distance fails the triangle
#: inequality, with the reference values of the two sides (5 significant
#: digits, hence the 5e-4 comparison tolerance).
D3_TRIANGLE_TRIPLE = (
    np.array([[2.0, 5.0], [5.0, 17.0]]),
    np.array([[13.0, 8.0], [8.0, 5.0]]),
    np.array([[5.0, 3.0], [3.0, 10.0]]),
)
D3_TRIANGLE_REFERENCE = (5.0347, 4.6768)

#: The analogous triple for the log-Euclidean distance.
D4_TRIANGLE_TRIPLE = (
    np.array([[4.0, -7.0], [-7.0, 13.0]]),
    np.array([[8.0, -2.0], [-2.0, 1.0]]),
    np.array([[5.0, -4.0], [-4.0, 5.0]]),
)
D4_TRIANGLE_REFERENCE = (3.3349, 3.3146)

REFERENCE_TOL = 5e-4


def _largest(parts: Sequence[float | np.ndarray]) -> float:
    """The largest value in ``parts``, folded left to right from -inf; like
    the builtin ``max``, the fold passes over a NaN."""
    return max([-np.inf, *(float(np.max(part)) for part in parts)])


def _least(parts: Sequence[float | np.ndarray]) -> float:
    """The least value in ``parts``, folded left to right from +inf."""
    return min([np.inf, *(float(np.min(part)) for part in parts)])


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


@dataclass
class SuiteResult:
    suite: str
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str) -> None:
        self.checks.append(Check(name=name, passed=bool(passed), detail=detail))

    def at_most(self, name: str, parts: Sequence[float | np.ndarray],
                bound: float, label: str) -> None:
        """The row ``worst <= bound``, ``worst`` the :func:`_largest` of
        ``parts``, with the detail ``label`` then ``worst`` as ``.3e``."""
        worst = _largest(parts)
        self.add(name, worst <= bound, f"{label}{worst:.3e}")

    def at_least(self, name: str, parts: Sequence[float | np.ndarray],
                 bound: float, label: str) -> None:
        """The row ``worst >= bound``, ``worst`` the :func:`_least` of
        ``parts``, with the detail ``label`` then ``worst`` as ``.3e``."""
        worst = _least(parts)
        self.add(name, worst >= bound, f"{label}{worst:.3e}")


#: The condition-number range and the least misalignment of the witnesses
#: :func:`_noncommuting_pair_entries` draws.
PAIR_COND_RANGE = (12.0, 100.0)
PAIR_MIN_MISALIGNMENT = 0.45


def _noncommuting_pair_entries(rng, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The entries of an SPD pair that is a robust witness against the
    would-be log-Euclidean closed form.

    The fixed-point residual of that closed form vanishes on the commuting
    set (where the form is exact) and fades like the squared normalized
    commutator times a high power of the log-spectral spreads, so weakly
    misaligned or weakly spread pairs make the refutation arbitrarily
    faint.  Witnesses are therefore drawn with log-spaced, jittered spectra
    of condition number in :data:`PAIR_COND_RANGE` and rejected until the
    normalized traceless commutator

        ||[A, B]||_F / (sqrt(2) ||A - tr(A)/n I||_F ||B - tr(B)/n I||_F)

    (which is |sin| of twice the eigenbasis angle for 2x2) reaches
    :data:`PAIR_MIN_MISALIGNMENT`, keeping the residual well above the
    reporting threshold.  Rejected draws are never validated, so no
    eigensolve is made here.
    """
    min_cond, max_cond = PAIR_COND_RANGE

    def draw():
        # endpoint levels are exact so the drawn condition number is realized;
        # per-matrix random cond keeps spectra of independent draws distinct
        cond = 10.0 ** rng.uniform(np.log10(min_cond), np.log10(max_cond))
        half = 0.5 * np.log(cond)
        levels = np.linspace(-half, half, dim)
        if dim > 2:
            levels[1:-1] += rng.uniform(-0.2, 0.2, dim - 2) * (
                2 * half / (dim - 1)
            )
        scale = np.exp(rng.uniform(-1.0, 1.0))
        lam = scale * np.exp(levels)
        basis = random_orthogonal(rng, dim)
        return hermitian_part((basis * lam) @ basis.T)

    eye_frac = np.eye(dim)
    while True:
        a, b = draw(), draw()
        a0 = a - np.trace(a) / dim * eye_frac
        b0 = b - np.trace(b) / dim * eye_frac
        misalignment = np.linalg.norm(a @ b - b @ a) / (
            np.sqrt(2.0) * np.linalg.norm(a0) * np.linalg.norm(b0)
        )
        if misalignment >= PAIR_MIN_MISALIGNMENT:
            return a, b


def _stacks_by_dim(samples: Sequence[Sequence[tuple[np.ndarray, np.ndarray] | np.ndarray]]
                   ) -> Iterator[list[SpdMatrix | np.ndarray]]:
    """The draws of a sampled suite as stacks, one dimension at a time.

    Each sample is a fixed sequence of real draws of one dimension: a
    :func:`draw_spd` result (a Gaussian block and a spectrum), or a lone
    block (a Gaussian block, or the entries of a drawn matrix).  For each
    dimension, in order of first appearance, this gives one stack per
    position in the sample, its samples in sample order: an
    :class:`SpdMatrix` over ``(k, n, n)`` built by :func:`build_spd` from
    the :func:`draw_spd` results there, or the ``(k, n, n)`` lone blocks.
    """
    groups: dict[int, list] = {}
    for draws in samples:
        first = draws[0][0] if isinstance(draws[0], tuple) else draws[0]
        groups.setdefault(first.shape[-1], []).append(draws)
    for group in groups.values():
        yield [build_spd(*map(np.stack, zip(*column))) if isinstance(column[0], tuple)
               else np.stack(column) for column in zip(*group)]


def _triangle_check(result: SuiteResult, label: str, kind: DistanceKind,
                    triple, reference) -> None:
    a, b, c = (SpdMatrix(m) for m in triple)
    direct = distances.distance(kind, a, b)
    detour = distances.distance(kind, a, c) + distances.distance(kind, c, b)
    ref_direct, ref_detour = reference
    result.add(
        f"{label}-direct-value",
        abs(direct - ref_direct) <= REFERENCE_TOL,
        f"{kind.value}(A,B) = {direct:.6f}, reference {ref_direct}",
    )
    result.add(
        f"{label}-detour-value",
        abs(detour - ref_detour) <= REFERENCE_TOL,
        f"{kind.value}(A,C) + {kind.value}(C,B) = {detour:.6f}, reference {ref_detour}",
    )
    result.add(
        f"{label}-violation",
        direct > detour,
        f"direct {direct:.6f} > detour {detour:.6f}",
    )


def counterexamples_suite(seed: int = 42, samples: int = 1000) -> SuiteResult:
    """Triangle-inequality failures of d3/d4, and metric sanity of d1/d2."""
    result = SuiteResult("counterexamples")
    _triangle_check(result, "d3-triangle", DistanceKind.D3,
                    D3_TRIANGLE_TRIPLE, D3_TRIANGLE_REFERENCE)
    _triangle_check(result, "d4-triangle", DistanceKind.D4,
                    D4_TRIANGLE_TRIPLE, D4_TRIANGLE_REFERENCE)

    rng = make_rng(seed)
    triples = []
    for _ in range(samples):
        dim = int(rng.integers(2, 5))
        triples.append([draw_spd(rng, dim, cond=50.0) for _ in range(3)])
    violations = [
        distances.distance(kind, a, b) - distances.distance(kind, a, c)
        - distances.distance(kind, c, b)
        for a, b, c in _stacks_by_dim(triples)
        for kind in (DistanceKind.D1, DistanceKind.D2)
    ]
    result.at_most("d1-d2-triangle-holds", violations, 1e-10,
                   f"max triangle violation over {samples} random triples: ")

    gaps = []
    for _ in range(20):
        dim = int(rng.integers(2, 5))
        a, b = random_spd(rng, dim), random_spd(rng, dim)
        value, _ = distances.d2_unitary(a, b)
        gaps.append(abs(value - distances.distance(DistanceKind.D2, a, b)))
    gap_polar = _largest(gaps)
    a, b = random_spd(rng, 3), random_spd(rng, 3)
    value, _ = distances.d2_unitary(a, b)
    # 500 Haar unitaries of size 3, each drawn as a complex Ginibre block
    # (real part, then imaginary part), in one draw
    g = rng.standard_normal((500, 2, 3, 3))
    u = _haar_basis(g[:, 0] + 1j * g[:, 1])
    misses = _frobenius_norms(sqrt_entries(a) - sqrt_entries(b) @ u)
    beaten = int(np.count_nonzero(misses < value - 1e-12))
    beat = f"{beaten} of {len(misses)} random unitaries" if beaten else "no random unitary"
    result.add("d2-unitary-minimum", gap_polar <= 1e-9 and beaten == 0,
               f"max |min_U - d2| = {gap_polar:.3e}; {beat} beat the polar factor")
    return result


def trace_chain_suite(seed: int = 42, samples: int = 1000) -> SuiteResult:
    """Weak monotonicity of the four mean traces and of the squared distances."""
    result = SuiteResult("trace-chain")
    rng = make_rng(seed)
    pairs = []
    for _ in range(samples):
        dim = int(rng.integers(2, 7))
        cond = 10.0 ** rng.uniform(0.0, 4.0)
        pairs.append([draw_spd(rng, dim, cond=cond), draw_spd(rng, dim, cond=cond)])
    chain_gaps, order_gaps = [], []
    for a, b in _stacks_by_dim(pairs):
        chain = distances.trace_chain(a, b)
        chain_gaps.append(np.diff(chain, axis=0))
        order_gaps.append(-np.diff(distances.chain_divergences(a, b, chain), axis=0))
    result.at_least("trace-chain-monotone", chain_gaps, -1e-10,
                    f"min consecutive gap over {samples} pairs: ")
    result.at_least("squared-distance-ordering", order_gaps, -1e-10,
                    f"min ordering gap over {samples} pairs: ")
    return result


def divergence_axioms_suite(seed: int = 42, samples: int = 1000) -> SuiteResult:
    """Divergence axioms for the d3/d4 squares plus the derivative engine."""
    result = SuiteResult("divergence-axioms")
    rng = make_rng(seed)
    n_points = max(20, samples // 10)

    def draw_points() -> Iterator[list[SpdMatrix | np.ndarray]]:
        # one SPD base point and one Hermitian direction per sample
        points = []
        for _ in range(n_points):
            dim = int(rng.integers(2, 5))
            points.append([draw_spd(rng, dim, cond=20.0), rng.standard_normal((dim, dim))])
        return _stacks_by_dim(points)

    diag, grad3, grad4, hessian = [], [], [], []
    for a, gaussian in draw_points():
        y = hermitian_part(gaussian)
        for kind in (DistanceKind.D3, DistanceKind.D4):
            diag.append(distances.divergence(kind, a, a))
        grad3.append(_frobenius_norms(calculus.grad_phi3(a, a).entries))

        def phi4_at(x):
            return distances.divergence(DistanceKind.D4, a, _spd_stack(x))

        fd4 = calculus.fd_directional(phi4_at, a.entries, y)
        grad4.append(np.abs(fd4) / _frobenius_norms(y))

        def phi3_at(x):
            return distances.divergence(DistanceKind.D3, a, _spd_stack(x))

        target = calculus.hessian_phi3_diag(a, y)
        estimate = calculus.fd_hessian_quadform(phi3_at, a, y)
        hessian.append(np.abs(estimate - target) / np.abs(target))
    result.at_most("diagonal-vanishing", diag, 1e-12,
                   "max divergence on the diagonal: ")
    result.at_most("d3-gradient-diagonal", grad3, 1e-10,
                   "max analytic gradient norm at the diagonal: ")
    result.at_most("d4-gradient-diagonal", grad4, 1e-6,
                   "max finite-difference directional derivative: ")
    result.at_most("d3-hessian-identity", hessian, 1e-4,
                   f"max relative Hessian error over {n_points} pairs: ")

    frechet_errors = []
    for x, gaussian in draw_points():
        y = hermitian_part(gaussian)
        for name, approx in calculus.fd_frechet(x, y).items():
            exact = calculus.frechet(name, x, y).entries
            frechet_errors.append(_frobenius_norms(exact - approx)
                                  / np.maximum(_frobenius_norms(exact), 1e-30))
    result.at_most("frechet-finite-difference", frechet_errors, 1e-6,
                   f"max relative error over {n_points} triples: ")

    quad_errors = []
    for _ in range(25):
        dim = int(rng.integers(2, 5))
        a = random_spd(rng, dim)
        x = random_spd(rng, dim)
        y = random_hermitian(rng, dim)
        chain = calculus.frechet_geometric(a, x, y).entries
        quad = calculus.frechet_geometric_quadrature(a, x, y).entries
        quad_errors.append(np.linalg.norm(chain - quad) / max(np.linalg.norm(chain), 1e-30))
    result.at_most("geometric-derivative-quadrature", quad_errors, 1e-7,
                   "max chain-rule vs quadrature error: ")

    sqrt_err = max(
        abs(calculus.quad_check("sqrt_resolvent", x) - np.sqrt(x))
        for x in (0.25, 1.0, 4.0, 9.0)
    )
    grad_const = calculus.quad_check("grad_normalization")
    hess_const = calculus.quad_check("hessian_normalization")
    result.add("integral-representations",
               sqrt_err <= 1e-8
               and abs(grad_const - 0.5) <= 1e-8
               and abs(hess_const - 0.5) <= 1e-8,
               f"sqrt error {sqrt_err:.3e}; normalisations {grad_const:.12f}, "
               f"{hess_const:.12f}")
    return result


def bregman_suite(seed: int = 42, samples: int = 1000) -> SuiteResult:
    """Barycentre identities of the tracial Bregman divergences."""
    result = SuiteResult("bregman")
    rng = make_rng(seed)
    n_fam = max(5, samples // 100)

    right, left, var, as_min, scalar = [], [], [], [], []
    for _ in range(n_fam):
        dim = int(rng.integers(2, 5))
        m = int(rng.integers(2, 6))
        mats = [random_spd(rng, dim, cond=20.0) for _ in range(m)]
        w = WeightVector(rng.uniform(0.5, 2.0, m))

        # the right barycentre of every mother function is the arithmetic
        # mean, so this row compares it with itself until the compensation
        # row of ROADMAP item 7 replaces it
        reference = means.arithmetic_mean(mats, w)
        right.append(frobenius_norm(means.arithmetic_mean(mats, w).entries - reference.entries))

        log_euc = means.log_euclidean_multi(mats, w)
        left.append(frobenius_norm(
            bregman.left_barycentre(bregman.ENTROPY, mats, w).entries - log_euc.entries))

        spread = bregman.variance(bregman.ENTROPY, mats, w)
        gap = reference.trace() - log_euc.trace()
        var.append(abs(spread - gap))

        a, b = mats[0], mats[1]
        as_min.append(abs(bregman.phi4_via_min(a, b)
                          - distances.divergence(DistanceKind.D4, a, b)))

        scalars = rng.uniform(0.2, 5.0, m)
        ones = [SpdMatrix(np.array([[s]])) for s in scalars]
        for mother in (bregman.ENTROPY, bregman.SQUARE, bregman.power_mother(1.5)):
            left_scalar = bregman.left_barycentre(mother, ones, w)
            kolmogorov = mother.inv_dpsi(np.sum(w.weights * mother.dpsi(scalars)))
            scalar.append(abs(float(left_scalar.entries[0, 0].real) - kolmogorov))
    result.at_most("right-barycentre-arithmetic", right, 1e-12,
                   "max deviation from the arithmetic mean: ")
    result.at_most("left-barycentre-log-euclidean", left, 1e-10,
                   f"max deviation over {n_fam} families: ")
    result.at_most("variance-trace-identity", var, 1e-10,
                   "max |variance - trace gap|: ")
    result.at_most("d4-square-as-minimum", as_min, 1e-9,
                   "max |min value - divergence|: ")
    result.at_most("scalar-quasi-arithmetic", scalar, 1e-12,
                   "max deviation from the scalar closed form: ")
    return result


def legendre_cex_suite(seed: int = 42, samples: int = 1000) -> SuiteResult:
    """The boundary-minimum counterexample, vector and matrix cases."""
    result = SuiteResult("legendre-cex")

    grad0 = legendre_cex.grad_psibar_vector(np.zeros(2))
    coeff = legendre_cex.GRADIENT_COEFFICIENT
    closed_err = float(np.max(np.abs(grad0 - coeff)))
    h = 1e-6
    fd = np.array([
        (legendre_cex.psibar_vector(h * e_i) - legendre_cex.psibar_vector(-h * e_i))
        / (2.0 * h)
        for e_i in (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    ])
    fd_err = float(np.max(np.abs(fd - grad0)))
    result.add(
        "vector-gradient-at-zero",
        closed_err <= 1e-9 and fd_err <= 1e-6 and np.all(grad0 > 0.0),
        f"closed form {coeff:.6f}; deviation {closed_err:.3e}; FD error {fd_err:.3e}",
    )

    gap, margin = legendre_cex.vector_minima(samples, seed)
    result.add(
        "vector-strict-minimum",
        gap > 0.0 and margin >= -1e-10,
        f"min gap {gap:.6e}, min margin {margin:.3e} over {samples} samples",
    )

    gradient = legendre_cex.matrix_gradient_at_zero()
    result.add(
        "matrix-gradient-positive",
        eigh(gradient).eigenvalues[0] > 0.0,
        f"gradient at zero = {coeff:.6f} x identity",
    )
    gap, margin = legendre_cex.matrix_minima(samples, seed)
    result.add(
        "matrix-strict-minimum",
        gap > 0.0 and margin >= -1e-10,
        f"min gap {gap:.6e} over {samples} PSD samples",
    )
    residuals = legendre_cex.grid_residuals()
    result.add(
        "matrix-stationarity-unsolvable",
        residuals.min() > 0.0,
        f"min stationarity residual {residuals.min():.6e} "
        f"over {len(residuals)} grid points",
    )
    return result


def d4_guess_suite(seed: int = 42, samples: int = 1000) -> SuiteResult:
    """Two-point closed forms, their refuted log-Euclidean analogue, and
    fixed-point solver diagnostics."""
    result = SuiteResult("d4-guess")
    rng = make_rng(seed)
    n_pairs = max(10, samples // 10)
    w2 = WeightVector.uniform(2)

    pairs = []
    for _ in range(n_pairs):
        dim = int(rng.integers(2, 5))
        pairs.append(_noncommuting_pair_entries(rng, dim))
    closed = {barycentre.WASSERSTEIN: [], barycentre.PowerMean(0.5): []}
    refuted = []
    for entries in _stacks_by_dim(pairs):
        a, b = (_spd_stack(block) for block in entries)
        for kind, residuals in closed.items():
            x = barycentre.closed_form_m2(kind, a, b)
            residuals.append(barycentre.fixed_point_residual(kind, x, [a, b], w2))
        refuted.append(barycentre.refute_d4_guess(a, b).relative_residual)
    min_refuted = _least(refuted)
    for name, residuals in zip(("wasserstein", "power-half"), closed.values()):
        result.at_most(f"{name}-closed-form", residuals, 1e-8,
                       f"max fixed-point residual over {n_pairs} pairs: ")

    a, b, _ = (SpdMatrix(m) for m in D3_TRIANGLE_TRIPLE)
    pinned = barycentre.refute_d4_guess(a, b)
    result.add(
        "log-euclidean-guess-refuted",
        pinned.refuted and min_refuted > 1e-6,
        f"pinned-pair relative residual {pinned.relative_residual:.6e}; "
        f"min over random pairs {min_refuted:.6e}",
    )

    final, restarts, collapses = [], [], []
    unconverged = outside = 0
    for kind in (barycentre.WASSERSTEIN, barycentre.PowerMean(0.5), barycentre.LOG_EUCLIDEAN):
        dim = int(rng.integers(2, 6))
        m = int(rng.integers(2, 6))
        mats = [random_spd(rng, dim, cond=20.0) for _ in range(m)]
        w = WeightVector(rng.uniform(0.5, 2.0, m))
        x, report = barycentre.solve(kind, mats, w)
        final.append(report.final_residual)
        unconverged += not report.converged
        outside += not report.bracket_ok

        alpha, beta = report.spectral_bounds
        for _ in range(2):
            start = random_spd(rng, dim, cond=min(beta / alpha, 1e4),
                               scale=float(np.sqrt(alpha * beta)))
            x_again, _ = barycentre.solve(kind, mats, w, x0=start)
            restarts.append(frobenius_norm(x.entries - x_again.entries))

        diag_mats = [
            SpdMatrix(np.diag(rng.uniform(0.3, 3.0, dim))) for _ in range(m)
        ]
        x_diag, _ = barycentre.solve(kind, diag_mats, w)
        collapses.append(frobenius_norm(x_diag.entries - means.q_half(diag_mats, w).entries))
    worst_res = _largest(final)
    held = (f"{unconverged} of {len(final)} solves did not converge, {outside} left the bracket"
            if unconverged or outside else "brackets held")
    result.add("fixed-point-residuals", worst_res <= 1e-12 and not (unconverged or outside),
               f"max converged residual {worst_res:.3e}; {held}")
    result.at_most("restart-agreement", restarts, 1e-8, "max restart deviation ")
    result.at_most("commuting-collapse", collapses, 1e-8,
                   "max deviation from the half-power mean ")
    return result


SUITES: dict[str, Callable[[int, int], SuiteResult]] = {
    "counterexamples": counterexamples_suite,
    "trace-chain": trace_chain_suite,
    "divergence-axioms": divergence_axioms_suite,
    "bregman": bregman_suite,
    "legendre-cex": legendre_cex_suite,
    "d4-guess": d4_guess_suite,
}


def run_suite(name: str, seed: int = 42, samples: int = 1000) -> list[SuiteResult]:
    """Run one named suite, or all of them in a fixed order.

    Raises
    ------
    ValueError
        If ``samples`` is below 1 or ``name`` names no suite.
    """
    if samples < 1:
        raise ValueError(f"samples must be a positive integer, got {samples}")
    if name == "all":
        return [fn(seed, samples) for fn in SUITES.values()]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{', '.join([*SUITES, 'all'])}")
    return [SUITES[name](seed, samples)]

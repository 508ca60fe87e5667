"""The sampled suites evaluate one stack per dimension; these tests hold them
to the per-sample loops over the public scalar API that they replaced."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from helmat import barycentre, calculus, distances, legendre_cex, means, suites
from helmat.distances import DistanceKind
from helmat.linalg import SpdMatrix, frobenius_norm, sqrt_entries
from helmat.means import WeightVector
from helmat.sampling import (
    _haar_basis,
    build_spd,
    draw_spd,
    make_rng,
    random_hermitian,
    random_spd,
)


def _reference_counterexamples(seed, samples):
    """``counterexamples_suite`` as a loop over samples, one pair at a time."""
    result = suites.SuiteResult("counterexamples")
    suites._triangle_check(result, "d3-triangle", DistanceKind.D3,
                           suites.D3_TRIANGLE_TRIPLE, suites.D3_TRIANGLE_REFERENCE)
    suites._triangle_check(result, "d4-triangle", DistanceKind.D4,
                           suites.D4_TRIANGLE_TRIPLE, suites.D4_TRIANGLE_REFERENCE)

    rng = make_rng(seed)
    worst = -np.inf
    for _ in range(samples):
        dim = int(rng.integers(2, 5))
        a, b, c = (random_spd(rng, dim, cond=50.0) for _ in range(3))
        for kind in (DistanceKind.D1, DistanceKind.D2):
            violation = (
                distances.distance(kind, a, b)
                - distances.distance(kind, a, c)
                - distances.distance(kind, c, b)
            )
            worst = max(worst, violation)
    result.add(
        "d1-d2-triangle-holds",
        worst <= 1e-10,
        f"max triangle violation over {samples} random triples: {worst:.3e}",
    )

    gap_polar = 0.0
    sampled_beats = True
    for _ in range(20):
        dim = int(rng.integers(2, 5))
        a, b = random_spd(rng, dim), random_spd(rng, dim)
        value, _ = distances.d2_unitary(a, b)
        gap_polar = max(gap_polar, abs(value - distances.distance(DistanceKind.D2, a, b)))
    a, b = random_spd(rng, 3), random_spd(rng, 3)
    value, _ = distances.d2_unitary(a, b)
    root_a, root_b = sqrt_entries(a), sqrt_entries(b)
    for _ in range(500):
        u = _haar_basis(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        if np.linalg.norm(root_a - root_b @ u) < value - 1e-12:
            sampled_beats = False
    result.add(
        "d2-unitary-minimum",
        gap_polar <= 1e-9 and sampled_beats,
        f"max |min_U - d2| = {gap_polar:.3e}; no random unitary beat the polar factor",
    )
    return result


def _reference_trace_chain(seed, samples):
    """``trace_chain_suite`` as a loop over samples, one pair at a time."""
    result = suites.SuiteResult("trace-chain")
    rng = make_rng(seed)
    min_chain_gap = np.inf
    min_order_gap = np.inf
    for _ in range(samples):
        dim = int(rng.integers(2, 7))
        cond = 10.0 ** rng.uniform(0.0, 4.0)
        a = random_spd(rng, dim, cond=cond)
        b = random_spd(rng, dim, cond=cond)
        chain = distances.trace_chain(a, b)
        min_chain_gap = min(min_chain_gap, float(np.min(np.diff(chain))))
        squares = distances.chain_divergences(a, b, chain)
        min_order_gap = min(min_order_gap, float(np.min(-np.diff(squares))))
    result.add(
        "trace-chain-monotone",
        min_chain_gap >= -1e-10,
        f"min consecutive gap over {samples} pairs: {min_chain_gap:.3e}",
    )
    result.add(
        "squared-distance-ordering",
        min_order_gap >= -1e-10,
        f"min ordering gap over {samples} pairs: {min_order_gap:.3e}",
    )
    return result


def _reference_divergence_axioms(seed, samples):
    """``divergence_axioms_suite`` as a loop over points, one matrix at a
    time."""
    result = suites.SuiteResult("divergence-axioms")
    rng = make_rng(seed)
    n_points = max(20, samples // 10)

    worst_diag = 0.0
    worst_grad3 = 0.0
    worst_grad4 = 0.0
    worst_hessian = 0.0
    for _ in range(n_points):
        dim = int(rng.integers(2, 5))
        a = random_spd(rng, dim, cond=20.0)
        y = random_hermitian(rng, dim)
        for kind in (DistanceKind.D3, DistanceKind.D4):
            worst_diag = max(worst_diag, distances.divergence(kind, a, a))
        worst_grad3 = max(worst_grad3, frobenius_norm(calculus.grad_phi3(a, a)))

        def phi4_at(x):
            return distances.divergence(DistanceKind.D4, a, SpdMatrix(x))

        fd4 = calculus.fd_directional(phi4_at, a.entries, y.entries)
        worst_grad4 = max(worst_grad4, abs(fd4) / frobenius_norm(y))

        def phi3_at(x):
            return distances.divergence(DistanceKind.D3, a, SpdMatrix(x))

        target = calculus.hessian_phi3_diag(a, y)
        estimate = calculus.fd_hessian_quadform(phi3_at, a, y)
        worst_hessian = max(worst_hessian, abs(estimate - target) / abs(target))
    result.add("diagonal-vanishing", worst_diag <= 1e-12,
               f"max divergence on the diagonal: {worst_diag:.3e}")
    result.add("d3-gradient-diagonal", worst_grad3 <= 1e-10,
               f"max analytic gradient norm at the diagonal: {worst_grad3:.3e}")
    result.add("d4-gradient-diagonal", worst_grad4 <= 1e-6,
               f"max finite-difference directional derivative: {worst_grad4:.3e}")
    result.add("d3-hessian-identity", worst_hessian <= 1e-4,
               f"max relative Hessian error over {n_points} pairs: {worst_hessian:.3e}")

    n_frechet = max(20, samples // 10)
    worst_fd = 0.0
    for _ in range(n_frechet):
        dim = int(rng.integers(2, 5))
        x = random_spd(rng, dim, cond=20.0)
        y = random_hermitian(rng, dim)
        for name, approx in calculus.fd_frechet(x, y).items():
            exact = calculus.frechet(name, x, y).entries
            worst_fd = max(
                worst_fd,
                float(np.linalg.norm(exact - approx) / max(np.linalg.norm(exact), 1e-30)),
            )
    result.add("frechet-finite-difference", worst_fd <= 1e-6,
               f"max relative error over {n_frechet} triples: {worst_fd:.3e}")

    worst_quad = 0.0
    for _ in range(25):
        dim = int(rng.integers(2, 5))
        a = random_spd(rng, dim)
        x = random_spd(rng, dim)
        y = random_hermitian(rng, dim)
        chain = calculus.frechet_geometric(a, x, y).entries
        quad = calculus.frechet_geometric_quadrature(a, x, y).entries
        worst_quad = max(
            worst_quad,
            float(np.linalg.norm(chain - quad) / max(np.linalg.norm(chain), 1e-30)),
        )
    result.add("geometric-derivative-quadrature", worst_quad <= 1e-7,
               f"max chain-rule vs quadrature error: {worst_quad:.3e}")

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


def _reference_vector_cex(samples, seed):
    """The sampled vector case of the legendre-cex suite with each sample
    judged as it is drawn: ``(min_gap, min_margin, failures)``."""
    rng = make_rng(seed)
    base = legendre_cex.psibar_vector(np.zeros(2))
    grad0 = legendre_cex.grad_psibar_vector(np.zeros(2))
    min_gap, min_margin = np.inf, np.inf
    failures = []
    for _ in range(samples):
        x = rng.exponential(1.0, 2) * 10.0 ** rng.uniform(-2.0, 2.0)
        if x.max() <= 0.0:
            continue
        gap = legendre_cex.psibar_vector(x) - base
        margin = gap - grad0 @ x
        min_gap = min(min_gap, gap)
        min_margin = min(min_margin, margin)
        if gap <= 0.0 or margin < -1e-10:
            failures.append(x.tolist())
    return float(min_gap), float(min_margin), failures


def _reference_matrix_cex(samples, seed):
    """The sampled and grid parts of the matrix case of the legendre-cex
    suite as loops, one 2x2 matrix at a time, with each sample judged as it
    is drawn: ``(min_gap, min_margin, failures, residuals)``."""
    rng = make_rng(seed)
    p = legendre_cex.EXPONENT
    grad_a, grad_b = legendre_cex._MATRIX_GRADIENTS
    centre = 0.5 * (grad_a + grad_b)
    grad_zero = legendre_cex._forward(p * np.eye(2)) - centre

    base = legendre_cex.psibar_matrix(np.zeros((2, 2)))
    min_gap, min_margin = np.inf, np.inf
    failures = []
    for _ in range(samples):
        g = rng.standard_normal((2, 2))
        w = g @ g.T
        x = w * (10.0 ** rng.uniform(-2.0, 2.0) / max(np.linalg.norm(w), 1e-300))
        gap = legendre_cex.psibar_matrix(x) - base
        margin = gap - np.trace(grad_zero @ x).real
        min_gap = min(min_gap, gap)
        min_margin = min(min_margin, float(margin))
        if gap <= 0.0 or margin < -1e-10:
            failures.append(x.tolist())

    grid = np.logspace(-6.0, 3.0, 13)
    residuals = []
    for theta in (0.0, np.pi / 8, np.pi / 4, 3 * np.pi / 8):
        c, s = np.cos(theta), np.sin(theta)
        basis = np.array([[c, -s], [s, c]])
        for lam_1 in grid:
            for lam_2 in grid:
                x = (basis * np.array([lam_1, lam_2])) @ basis.T
                inner = legendre_cex._grad_trace_abs_power(legendre_cex._affine(x), p)
                grad = legendre_cex._forward(inner)
                residuals.append(float(np.linalg.norm(grad - centre)))
    return float(min_gap), float(min_margin), failures, residuals


def _reference_legendre_cex(seed, samples):
    """``legendre_cex_suite`` with each sample judged one at a time, as the
    failure lists of :func:`_reference_vector_cex` and
    :func:`_reference_matrix_cex`, and the matrix case as a loop over samples
    and grid points."""
    result = suites.SuiteResult("legendre-cex")

    grad0 = legendre_cex.grad_psibar_vector(np.zeros(2))
    coeff = legendre_cex.GRADIENT_COEFFICIENT
    closed_err = float(np.max(np.abs(grad0 - coeff)))
    fd = np.array([
        (legendre_cex.psibar_vector(h * e_i)
         - legendre_cex.psibar_vector(-h * e_i)) / (2.0 * h)
        for e_i in (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        for h in (1e-6,)
    ])
    fd_err = float(np.max(np.abs(fd - grad0)))
    result.add(
        "vector-gradient-at-zero",
        closed_err <= 1e-9 and fd_err <= 1e-6 and np.all(grad0 > 0.0),
        f"closed form {coeff:.6f}; deviation {closed_err:.3e}; FD error {fd_err:.3e}",
    )

    min_gap, min_margin, failures = _reference_vector_cex(samples, seed)
    result.add(
        "vector-strict-minimum",
        not failures and min_gap > 0.0 and min_margin >= -1e-10,
        f"min gap {min_gap:.6e}, min margin {min_margin:.3e} over {samples} samples",
    )

    min_gap, _, failures, residuals = _reference_matrix_cex(samples, seed)
    grad_zero = legendre_cex.matrix_gradient_at_zero()
    result.add(
        "matrix-gradient-positive",
        np.linalg.eigvalsh(grad_zero)[0] > 0.0,
        f"gradient at zero = {coeff:.6f} x identity",
    )
    result.add(
        "matrix-strict-minimum",
        not failures and min_gap > 0.0,
        f"min gap {min_gap:.6e} over {samples} PSD samples",
    )
    result.add(
        "matrix-stationarity-unsolvable",
        min(residuals) > 0.0,
        f"min stationarity residual {min(residuals):.6e} over {len(residuals)} grid points",
    )
    return result


def _reference_d4_guess(seed, samples):
    """``d4_guess_suite`` with the closed-form pairs drawn and evaluated one
    pair at a time."""
    result = suites.SuiteResult("d4-guess")
    rng = make_rng(seed)
    n_pairs = max(10, samples // 10)
    w2 = WeightVector.uniform(2)

    worst = {barycentre.WASSERSTEIN: 0.0, barycentre.PowerMean(0.5): 0.0}
    min_refuted = np.inf
    for _ in range(n_pairs):
        dim = int(rng.integers(2, 5))
        a, b = (SpdMatrix(m) for m in suites._noncommuting_pair_entries(rng, dim))
        for kind in worst:
            x = barycentre.closed_form_m2(kind, a, b)
            worst[kind] = max(worst[kind], barycentre.fixed_point_residual(kind, x, [a, b], w2))
        min_refuted = min(min_refuted, barycentre.refute_d4_guess(a, b).relative_residual)
    for name, res in zip(("wasserstein", "power-half"), worst.values()):
        result.add(f"{name}-closed-form", res <= 1e-8,
                   f"max fixed-point residual over {n_pairs} pairs: {res:.3e}")

    a, b, _ = (SpdMatrix(m) for m in suites.D3_TRIANGLE_TRIPLE)
    pinned = barycentre.refute_d4_guess(a, b)
    result.add(
        "log-euclidean-guess-refuted",
        pinned.refuted and min_refuted > 1e-6,
        f"pinned-pair relative residual {pinned.relative_residual:.6e}; "
        f"min over random pairs {min_refuted:.6e}",
    )

    worst_res = 0.0
    worst_restart = 0.0
    worst_collapse = 0.0
    brackets = True
    for kind in (barycentre.WASSERSTEIN, barycentre.PowerMean(0.5), barycentre.LOG_EUCLIDEAN):
        dim = int(rng.integers(2, 6))
        m = int(rng.integers(2, 6))
        mats = [random_spd(rng, dim, cond=20.0) for _ in range(m)]
        w = WeightVector(rng.uniform(0.5, 2.0, m))
        x, report = barycentre.solve(kind, mats, w)
        worst_res = max(worst_res, report.final_residual)
        brackets = brackets and report.bracket_ok and report.converged

        alpha, beta = report.spectral_bounds
        for _ in range(2):
            start = random_spd(rng, dim, cond=min(beta / alpha, 1e4),
                               scale=float(np.sqrt(alpha * beta)))
            x_again, _ = barycentre.solve(kind, mats, w, x0=start)
            worst_restart = max(worst_restart, frobenius_norm(x.entries - x_again.entries))

        diag_mats = [SpdMatrix(np.diag(rng.uniform(0.3, 3.0, dim))) for _ in range(m)]
        x_diag, _ = barycentre.solve(kind, diag_mats, w)
        collapse = frobenius_norm(x_diag.entries - means.q_half(diag_mats, w).entries)
        worst_collapse = max(worst_collapse, collapse)
    result.add("fixed-point-residuals", worst_res <= 1e-12 and brackets,
               f"max converged residual {worst_res:.3e}; brackets held")
    result.add("restart-agreement", worst_restart <= 1e-8,
               f"max restart deviation {worst_restart:.3e}")
    result.add("commuting-collapse", worst_collapse <= 1e-8,
               f"max deviation from the half-power mean {worst_collapse:.3e}")
    return result


@pytest.mark.parametrize("samples", [1, 7, 200])
@pytest.mark.parametrize("seed", [42, 310])
@pytest.mark.parametrize(
    "suite, reference",
    [
        (suites.counterexamples_suite, _reference_counterexamples),
        (suites.trace_chain_suite, _reference_trace_chain),
        (suites.divergence_axioms_suite, _reference_divergence_axioms),
        (suites.legendre_cex_suite, _reference_legendre_cex),
        (suites.d4_guess_suite, _reference_d4_guess),
    ],
    ids=["counterexamples", "trace-chain", "divergence-axioms", "legendre-cex", "d4-guess"],
)
def test_stacked_suite_rows_equal_the_per_sample_loop(suite, reference, seed, samples):
    assert suite(seed, samples).checks == reference(seed, samples).checks


@pytest.mark.parametrize("samples", [1, 7, 200])
@pytest.mark.parametrize("seed", [42, 310])
def test_stacked_matrix_cex_report_equals_the_per_sample_loop(seed, samples):
    min_gap, min_margin, _, residuals = _reference_matrix_cex(samples, seed)
    assert legendre_cex.matrix_minima(samples, seed) == (min_gap, min_margin)
    assert legendre_cex.grid_residuals().tolist() == residuals


@pytest.mark.parametrize(
    "suite", [suites.counterexamples_suite, suites.trace_chain_suite,
              suites.legendre_cex_suite],
    ids=["counterexamples", "trace-chain", "legendre-cex"],
)
def test_sampled_suites_make_a_fixed_number_of_eigensolves(suite, eigensolves):
    # one stacked eigensolve per step and dimension, however many samples
    suite(42, 200)
    few = len(eigensolves)
    suite(42, 1000)
    assert len(eigensolves) == 2 * few
    assert {dtype for _, dtype, _ in eigensolves} == {np.dtype(np.float64)}


def test_verify_rows_are_the_benchmark_rows(monkeypatch):
    # the benchmark's verify-all run fails on any other (suite, check) names,
    # so a renamed, dropped or added row must fail here first
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    rows = [(r.suite, [c.name for c in r.checks]) for r in suites.run_suite("all", 42, 1)]
    assert rows == list(workloads.VERIFY_CHECKS.items())


def test_run_suite_rejects_an_unknown_name():
    with pytest.raises(ValueError, match="unknown suite 'nope'; choose from"):
        suites.run_suite("nope")


@pytest.mark.parametrize("samples", [0, -1])
@pytest.mark.parametrize("name", ["all", "trace-chain"])
def test_run_suite_rejects_nonpositive_samples(name, samples):
    # zero samples would pass every sampled row over 0 pairs
    with pytest.raises(ValueError, match=f"samples must be a positive integer, got {samples}"):
        suites.run_suite(name, 42, samples)


def _row(result, name):
    return next(c for c in result.checks if c.name == name)


def test_fixed_point_row_names_the_failed_solves(monkeypatch):
    real_solve = barycentre.solve

    def failing_solve(kind, mats, w, **options):
        x, report = real_solve(kind, mats, w, **options)
        return x, dataclasses.replace(report, converged=False,
                                      bracket_ok=kind is not barycentre.LOG_EUCLIDEAN)

    monkeypatch.setattr(barycentre, "solve", failing_solve)
    row = _row(suites.d4_guess_suite(42, 10), "fixed-point-residuals")
    assert not row.passed
    assert row.detail.endswith("; 3 of 3 solves did not converge, 1 left the bracket")


def test_unitary_minimum_row_counts_the_unitaries_that_beat_the_polar_factor(monkeypatch):
    real_d2_unitary = distances.d2_unitary
    # an inflated minimum that every sampled unitary beats
    monkeypatch.setattr(distances, "d2_unitary",
                        lambda a, b: (10.0 * real_d2_unitary(a, b)[0], None))
    row = _row(suites.counterexamples_suite(42, 1), "d2-unitary-minimum")
    assert not row.passed
    assert row.detail.endswith("; 500 of 500 random unitaries beat the polar factor")


@pytest.mark.parametrize("spd_first", [True, False], ids=["spd-block", "block-spd"])
def test_stacks_by_dim_groups_the_samples_in_order(spd_first):
    rng = make_rng(5)
    dims = [3, 2, 3, 4, 2, 3]
    samples = []
    for dim in dims:
        draws = [draw_spd(rng, dim), rng.standard_normal((dim, dim))]
        samples.append(draws if spd_first else draws[::-1])
    spd_at = 0 if spd_first else 1
    stacks = list(suites._stacks_by_dim(samples))
    # dimensions in order of first appearance, each with its samples in order
    assert [stack[1 - spd_at].shape for stack in stacks] == [(3, 3, 3), (2, 2, 2), (1, 4, 4)]
    for stack, dim in zip(stacks, (3, 2, 4)):
        group = [sample for sample, d in zip(samples, dims) if d == dim]
        expected = build_spd(*(np.stack([sample[spd_at][i] for sample in group])
                               for i in (0, 1)))
        assert isinstance(stack[spd_at], SpdMatrix)
        assert stack[spd_at].entries.tobytes() == expected.entries.tobytes()
        blocks = np.stack([sample[1 - spd_at] for sample in group])
        assert stack[1 - spd_at].tobytes() == blocks.tobytes()


def test_fold_reports_a_negative_extreme():
    # a fold started at 0.0 would print 0.000e+00 here
    result = suites.SuiteResult("fold")
    result.at_most("row", [-3.0, np.array([-2.5, -4.0])], 1e-10, "max violation: ")
    assert result.checks == [suites.Check("row", True, "max violation: -2.500e+00")]


def test_fold_mixes_scalars_and_arrays():
    parts = [np.array([1.0, 5.0]), 2.0, np.float64(7.0), np.array([[3.0], [0.5]])]
    assert suites._largest(parts) == 7.0
    assert suites._least(parts) == 0.5
    # like the builtin max and min, the fold passes over a NaN
    assert suites._largest([1.0, np.array([np.nan]), 2.0]) == 2.0
    assert suites._least([np.nan]) == np.inf


def test_fold_bound_is_inclusive():
    result = suites.SuiteResult("fold")
    result.at_most("at", [np.array([1e-9, 1e-8]), 0.0], 1e-8, "")
    result.at_most("above", [np.nextafter(1e-8, 1.0)], 1e-8, "")
    result.at_least("at", [np.array([3.0, -1e-10]), 0.0], -1e-10, "")
    result.at_least("below", [np.nextafter(-1e-10, -1.0)], -1e-10, "")
    assert [c.passed for c in result.checks] == [True, False, True, False]


@pytest.mark.parametrize("bound, passed", [(-0.5, True), (-0.25, False)])
def test_at_least_mirrors_at_most(bound, passed):
    parts = [np.array([0.25, -0.5]), 1.5]
    low, high = suites.SuiteResult("low"), suites.SuiteResult("high")
    low.at_least("row", parts, bound, "min gap ")
    high.at_most("row", [-np.asarray(part) for part in parts], -bound, "max gap ")
    assert low.checks == [suites.Check("row", passed, "min gap -5.000e-01")]
    assert high.checks == [suites.Check("row", passed, "max gap 5.000e-01")]

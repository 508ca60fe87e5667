"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Criteria 1-3 and 7-10 pin a seed and sample count and report rows
of the matching :mod:`helmat.suites` suite, which holds their tolerances;
criteria 4-6 pin their own tolerances and sample counts here.
"""

import numpy as np
import pytest

from helmat import barycentre, calculus, distances, legendre_cex, means, suites
from helmat.barycentre import LOG_EUCLIDEAN, WASSERSTEIN, PowerMean
from helmat.distances import DistanceKind
from helmat.errors import NotPositiveDefiniteError
from helmat.linalg import SpdMatrix, frobenius_norm
from helmat.means import WeightVector
from helmat.sampling import make_rng, random_hermitian, random_spd


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _report_rows(num: int, name: str, result, rows, extra=(True, "")) -> None:
    """Report criterion ``num`` as the named rows of a suite result: it
    passes if every row is present and passed, and ``extra[0]`` holds."""
    found = {check.name: check for check in result.checks}
    ok = extra[0] and all(row in found and found[row].passed for row in rows)
    details = [
        f"{row} {'PASS' if found[row].passed else 'FAIL'} ({found[row].detail})"
        if row in found else f"{row} MISSING"
        for row in rows
    ]
    _report(num, name, ok, f"{result.suite}: " + "; ".join(details) + extra[1])


@pytest.fixture(scope="module")
def counterexamples():
    return suites.counterexamples_suite(310, 1000)


def test_criterion_01_d3_triangle_counterexample(counterexamples):
    _report_rows(1, "d3 triangle counterexample", counterexamples, [
        "d3-triangle-direct-value", "d3-triangle-detour-value", "d3-triangle-violation",
    ])


def test_criterion_02_d4_triangle_counterexample(counterexamples):
    _report_rows(2, "d4 triangle counterexample", counterexamples, [
        "d4-triangle-direct-value", "d4-triangle-detour-value", "d4-triangle-violation",
    ])


def test_criterion_03_trace_chain_and_ordering():
    _report_rows(3, "trace chain and ordering", suites.trace_chain_suite(303, 1000),
                 ["trace-chain-monotone", "squared-distance-ordering"])


def test_criterion_04_divergence_axioms():
    rng = make_rng(304)
    worst_diag = 0.0
    worst_grad3 = 0.0
    worst_grad4 = 0.0
    worst_hess = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 6))
        a = random_spd(rng, dim, cond=30.0)
        y = random_hermitian(rng, dim)
        for kind in (DistanceKind.D3, DistanceKind.D4):
            worst_diag = max(worst_diag, distances.divergence(kind, a, a))
        worst_grad3 = max(worst_grad3, frobenius_norm(calculus.grad_phi3(a, a)))

        def phi4(m):
            return distances.divergence(DistanceKind.D4, a, SpdMatrix(m))

        slope4 = calculus.fd_directional(phi4, a.entries, y.entries)
        worst_grad4 = max(worst_grad4, abs(slope4) / frobenius_norm(y))

        def phi3(m):
            return distances.divergence(DistanceKind.D3, a, SpdMatrix(m))

        target = calculus.hessian_phi3_diag(a, y)
        estimate = calculus.fd_hessian_quadform(phi3, a, y)
        worst_hess = max(worst_hess, abs(estimate - target) / abs(target))
    ok = (
        worst_diag <= 1e-12
        and worst_grad3 <= 1e-10
        and worst_grad4 <= 1e-6
        and worst_hess <= 1e-4
    )
    _report(4, "divergence axioms", ok,
            f"diag {worst_diag:.2e} (<=1e-12), grad d3^2 {worst_grad3:.2e} (<=1e-10), "
            f"grad d4^2 FD {worst_grad4:.2e} (<=1e-6), "
            f"hessian rel err {worst_hess:.2e} (<=1e-4), 100 samples")


def test_criterion_05_derivative_engine():
    rng = make_rng(305)
    worst_fd = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        x = random_spd(rng, dim, cond=20.0)
        y = random_hermitian(rng, dim)
        for name, approx in calculus.fd_frechet(x, y).items():
            exact = calculus.frechet(name, x, y).entries
            worst_fd = max(
                worst_fd, np.linalg.norm(exact - approx) / np.linalg.norm(exact)
            )
    worst_quad = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        a, x = random_spd(rng, dim), random_spd(rng, dim)
        y = random_hermitian(rng, dim)
        chain = calculus.frechet_geometric(a, x, y).entries
        quad = calculus.frechet_geometric_quadrature(a, x, y).entries
        worst_quad = max(
            worst_quad, np.linalg.norm(chain - quad) / np.linalg.norm(chain)
        )
    sqrt_err = max(
        abs(calculus.quad_check("sqrt_resolvent", x) - np.sqrt(x))
        for x in (0.25, 1.0, 4.0, 9.0)
    )
    grad_err = abs(calculus.quad_check("grad_normalization") - 0.5)
    hess_err = abs(calculus.quad_check("hessian_normalization") - 0.5)
    ok = (
        worst_fd <= 1e-6
        and worst_quad <= 1e-7
        and sqrt_err <= 1e-8
        and grad_err <= 1e-8
        and hess_err <= 1e-8
    )
    _report(5, "derivative engine", ok,
            f"frechet FD {worst_fd:.2e} (<=1e-6, 100 instances), "
            f"chain-vs-quadrature {worst_quad:.2e} (<=1e-7, 100 triples), "
            f"sqrt quadrature {sqrt_err:.2e}, normalizations off by "
            f"{grad_err:.2e}/{hess_err:.2e} (<=1e-8)")


#: Gradient norm at which :func:`_d3_minimiser` has converged, and its step cap.
_MINIMISER_TOL = 1e-8
_MINIMISER_MAX_STEPS = 100

POWER_HALF = PowerMean(0.5)


def _d3_minimiser(mats, w, start):
    """Minimise ``objective(PowerMean(0.5), ., mats, w)``, the d3^2 objective.

    Gradient descent from ``start`` along ``sum_j w_j grad_phi3(A_j, X)``
    with Barzilai-Borwein steps and Armijo backtracking.  The Armijo test
    allows for the roundoff of the objective's trace differences: near a
    gradient norm of 1e-8 the decrease it asks for is smaller than that
    roundoff.  Returns the last iterate and its gradient norm; it has
    converged if the norm is at most ``_MINIMISER_TOL``.
    """

    def gradient(x):
        return sum(
            wj * calculus.grad_phi3(aj, x).entries for wj, aj in zip(w.weights, mats)
        )

    mass = sum(wj * aj.trace() for wj, aj in zip(w.weights, mats))
    x, grad, step = start, gradient(start), 1.0
    value = barycentre.objective(POWER_HALF, x, mats, w)
    for _ in range(_MINIMISER_MAX_STEPS):
        norm = frobenius_norm(grad)
        if norm <= _MINIMISER_TOL:
            break
        roundoff = 64.0 * np.finfo(float).eps * (x.trace() + mass)
        for _ in range(40):
            try:
                trial = SpdMatrix(x.entries - step * grad)
            except NotPositiveDefiniteError:
                step /= 2.0
                continue
            trial_value = barycentre.objective(POWER_HALF, trial, mats, w)
            if trial_value <= value - 1e-4 * step * norm**2 + roundoff:
                break
            step /= 2.0
        else:
            break
        new_grad = gradient(trial)
        s = trial.entries - x.entries
        curvature = np.sum(s.conj() * (new_grad - grad)).real
        step = frobenius_norm(s) ** 2 / curvature if curvature > 0.0 else 1.0
        x, value, grad = trial, trial_value, new_grad
    return x, frobenius_norm(grad)


def _worst_fd_slope(cost, x, directions):
    return max(
        abs(calculus.fd_directional(cost, x.entries, y.entries)) / frobenius_norm(y)
        for y in directions
    )


def test_criterion_06_barycentre_fixed_points():
    # For Wasserstein and log-Euclidean the fixed point returned by solve is
    # the minimiser of the objective, and stationarity is measured there.  The
    # power-half fixed point (the Lim-Palfia power mean) is the d3^2 minimiser
    # only on commuting families, so its stationarity is measured at the
    # minimiser found by _d3_minimiser, and at the fixed point only on the
    # diagonal families.  Those diagonal directions come from their own
    # generator, so the draws from seed 306 are the same for every kind.
    rng = make_rng(306)
    diag_rng = make_rng(3060)
    kinds = (
        ("wasserstein", WASSERSTEIN),
        ("power-half", POWER_HALF),
        ("logeuclid", LOG_EUCLIDEAN),
    )
    worst_residual = 0.0
    worst_restart = 0.0
    worst_collapse = 0.0
    brackets_ok = True
    slopes = {}
    worst_minimiser_grad = 0.0
    minimiser_below_fixed_point = True
    worst_fixed_point_slope = 0.0
    worst_gap = 0.0
    diag_slope = 0.0
    for label, kind in kinds:
        slope_worst = 0.0
        for _ in range(2):
            m = int(rng.integers(2, 6))
            dim = int(rng.integers(2, 6))
            mats = [random_spd(rng, dim, cond=20.0) for _ in range(m)]
            w = WeightVector(rng.uniform(0.5, 2.0, m))
            x, report = barycentre.solve(kind, mats, w)
            worst_residual = max(worst_residual, report.final_residual)
            brackets_ok = brackets_ok and report.converged and report.bracket_ok

            def cost(arr):
                return barycentre.objective(kind, SpdMatrix(arr), mats, w)

            directions = [random_hermitian(rng, dim) for _ in range(10)]
            stationary_at = x
            if kind == POWER_HALF:
                stationary_at, grad_norm = _d3_minimiser(mats, w, x)
                worst_minimiser_grad = max(worst_minimiser_grad, grad_norm)
                minimiser_below_fixed_point = minimiser_below_fixed_point and (
                    cost(stationary_at.entries) <= cost(x.entries)
                )
                worst_fixed_point_slope = max(
                    worst_fixed_point_slope, _worst_fd_slope(cost, x, directions)
                )
                worst_gap = max(
                    worst_gap, frobenius_norm(x.entries - stationary_at.entries)
                )
            slope_worst = max(
                slope_worst, _worst_fd_slope(cost, stationary_at, directions)
            )

            alpha, beta = report.spectral_bounds
            for _ in range(5):
                start = random_spd(rng, dim, cond=beta / alpha,
                                   scale=float(np.sqrt(alpha * beta)))
                x_again, rep_again = barycentre.solve(kind, mats, w, x0=start)
                worst_restart = max(
                    worst_restart,
                    frobenius_norm(x.entries - x_again.entries),
                )
                brackets_ok = brackets_ok and rep_again.converged

        slopes[label] = slope_worst
        diag_mats = [SpdMatrix(np.diag(rng.uniform(0.3, 3.0, 4))) for _ in range(3)]
        w3 = WeightVector(rng.uniform(0.5, 2.0, 3))
        x_diag, _ = barycentre.solve(kind, diag_mats, w3)
        worst_collapse = max(
            worst_collapse,
            frobenius_norm(x_diag.entries - means.q_half(diag_mats, w3).entries),
        )
        if kind == POWER_HALF:

            def diag_cost(arr):
                return barycentre.objective(kind, SpdMatrix(arr), diag_mats, w3)

            diag_directions = [random_hermitian(diag_rng, 4) for _ in range(10)]
            diag_slope = _worst_fd_slope(diag_cost, x_diag, diag_directions)

    stationary_ok = all(v <= 1e-6 for v in slopes.values())
    minimiser_ok = (
        worst_minimiser_grad <= _MINIMISER_TOL
        and minimiser_below_fixed_point
        and diag_slope <= 1e-6
    )
    ok = (
        worst_residual <= 1e-12
        and stationary_ok
        and minimiser_ok
        and worst_restart <= 1e-8
        and worst_collapse <= 1e-8
        and brackets_ok
    )
    slope_text = ", ".join(
        f"{k} {v:.1e}{'' if v <= 1e-6 else ' FAIL'}" for k, v in slopes.items()
    )
    _report(
        6, "barycentre fixed points", ok,
        f"residual {worst_residual:.2e} (<=1e-12), restarts {worst_restart:.2e} "
        f"(<=1e-8), collapse to half-power mean {worst_collapse:.2e} (<=1e-8), "
        f"brackets held {brackets_ok}; FD stationarity (<=1e-6): {slope_text}. "
        f"Power-half is measured at the d3^2 minimiser (gradient "
        f"{worst_minimiser_grad:.1e} <= 1e-8, objective at or below the fixed "
        f"point's: {minimiser_below_fixed_point}); at its fixed point the slope is "
        f"{worst_fixed_point_slope:.1e}, the gap ||X_fp - X_min||_F is "
        f"{worst_gap:.1e}, and on diagonal families the slope is "
        f"{diag_slope:.1e} (<=1e-6)",
    )


def test_criterion_07_m2_closed_forms_and_refuted_guess():
    _report_rows(7, "m=2 closed forms and refuted analogue",
                 suites.d4_guess_suite(307, 1000), [
                     "wasserstein-closed-form", "power-half-closed-form",
                     "log-euclidean-guess-refuted",
                 ])


def test_criterion_08_bregman_suite():
    _report_rows(8, "bregman barycentre identities", suites.bregman_suite(308, 2500), [
        "right-barycentre-arithmetic", "left-barycentre-log-euclidean",
        "variance-trace-identity", "d4-square-as-minimum", "scalar-quasi-arithmetic",
    ])


def test_criterion_09_boundary_counterexample():
    coeff = legendre_cex.GRADIENT_COEFFICIENT
    pinned = (abs(coeff - 0.744324) <= 1e-6,
              f"; gradient at zero {coeff:.6f} (pinned 0.744324)")
    _report_rows(9, "boundary-minimum counterexample",
                 suites.legendre_cex_suite(309, 1000), [
                     "vector-gradient-at-zero", "vector-strict-minimum",
                     "matrix-gradient-positive", "matrix-strict-minimum",
                     "matrix-stationarity-unsolvable",
                 ], extra=pinned)


def test_criterion_10_metric_sanity(counterexamples):
    _report_rows(10, "metric sanity of d1/d2", counterexamples,
                 ["d1-d2-triangle-holds", "d2-unitary-minimum"])

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helmat.barycentre import (
    LOG_EUCLIDEAN,
    WASSERSTEIN,
    PowerMean,
    SolverConfig,
    _picard_sum,
    closed_form_m2,
    fixed_point_residual,
    mean_map,
    objective,
    refute_d4_guess,
    solve,
)
from helmat.calculus import fd_directional, grad_phi3
from helmat.errors import DimensionMismatchError, UnsupportedObjectiveError
from helmat.linalg import SpdMatrix, congruence, frobenius_norm
from helmat.means import WeightVector, geometric_mean, q_half
from helmat.sampling import make_rng, random_invertible, random_spd
from helmat.suites import D3_TRIANGLE_TRIPLE, generic_noncommuting_pair

ALL_KINDS = (WASSERSTEIN, PowerMean(0.5), LOG_EUCLIDEAN)


def test_kind_validation():
    with pytest.raises(ValueError):
        PowerMean(0.0)
    with pytest.raises(ValueError):
        PowerMean(1.0)
    with pytest.raises(ValueError):
        SolverConfig(tol=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(damping=0.0)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: type(k).__name__)
def test_mean_map_idempotent(kind):
    rng = make_rng(0)
    a = random_spd(rng, 3)
    assert frobenius_norm(mean_map(kind, a, a).entries - a.entries) <= 1e-11


def test_mean_map_commuting_collapse():
    rng = make_rng(1)
    dx, da = rng.uniform(0.5, 4.0, 3), rng.uniform(0.5, 4.0, 3)
    x, a = SpdMatrix(np.diag(dx)), SpdMatrix(np.diag(da))
    expected = np.diag(np.sqrt(dx * da))
    for kind in ALL_KINDS:
        assert_allclose(mean_map(kind, x, a).entries, expected, rtol=1e-11,
                        err_msg=str(kind))
    # power mean with general t on commuting pairs: x^(1-t) a^t
    t = 0.25
    assert_allclose(
        mean_map(PowerMean(t), x, a).entries,
        np.diag(dx ** (1 - t) * da**t),
        rtol=1e-11,
    )


def test_mean_map_entries_are_the_picard_term():
    rng = make_rng(4)
    x, a = random_spd(rng, 4, complex_entries=True), random_spd(rng, 4, cond=50.0)
    for kind in ALL_KINDS:
        term = _picard_sum(kind, x, [a], np.ones(1))
        assert np.array_equal(mean_map(kind, x, a).entries, term), kind


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: type(k).__name__)
def test_solve_makes_m_plus_one_eigensolves_per_picard_step(kind, eigensolves):
    rng = make_rng(5)
    m = 4
    mats = [random_spd(rng, 5, cond=30.0) for _ in range(m)]
    w = WeightVector(rng.uniform(0.5, 2.0, m))
    eigensolves.clear()
    _, report = solve(kind, mats, w)
    assert report.converged
    # one per term G(X, A_j) plus one for the new iterate, for each of the
    # iterations + 1 Picard sums (the first iterate is the arithmetic mean)
    assert len(eigensolves) == (report.iterations + 1) * (m + 1)


def test_solve_rejects_x0_of_wrong_dimension():
    rng = make_rng(6)
    mats = [random_spd(rng, 3) for _ in range(3)]
    x0 = random_spd(rng, 4)
    for kind in ALL_KINDS:
        with pytest.raises(DimensionMismatchError):
            solve(kind, mats, WeightVector.uniform(3), x0=x0)


def test_fixed_point_residual_rejects_candidate_of_wrong_dimension():
    rng = make_rng(7)
    mats = [random_spd(rng, 3) for _ in range(3)]
    x = random_spd(rng, 2)
    for kind in ALL_KINDS:
        with pytest.raises(DimensionMismatchError):
            fixed_point_residual(kind, x, mats, WeightVector.uniform(3))


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: type(k).__name__)
def test_solve_identical_family(kind):
    rng = make_rng(2)
    a = random_spd(rng, 3)
    x, report = solve(kind, [a, a, a], WeightVector.uniform(3))
    assert report.converged
    assert report.iterations <= 1
    assert frobenius_norm(x.entries - a.entries) <= 1e-11


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: type(k).__name__)
def test_solve_converges_and_satisfies_equation(kind):
    rng = make_rng(3)
    mats = [random_spd(rng, 4, cond=30.0) for _ in range(4)]
    w = WeightVector([0.1, 0.2, 0.3, 0.4])
    x, report = solve(kind, mats, w)
    assert report.converged
    assert report.final_residual <= 1e-12
    assert report.bracket_ok
    assert fixed_point_residual(kind, x, mats, w) <= 1e-12
    alpha, beta = report.spectral_bounds
    spectrum = x.eig().eigenvalues
    assert spectrum[0] >= alpha * (1 - 1e-9) and spectrum[-1] <= beta * (1 + 1e-9)


def test_solve_commuting_family_equals_q_half():
    rng = make_rng(4)
    mats = [SpdMatrix(np.diag(rng.uniform(0.3, 3.0, 4))) for _ in range(3)]
    w = WeightVector([0.5, 0.3, 0.2])
    target = q_half(mats, w)
    for kind in ALL_KINDS:
        x, report = solve(kind, mats, w)
        assert report.converged
        assert frobenius_norm(x.entries - target.entries) <= 1e-8


def test_solve_power_t_commuting_scalar_form():
    rng = make_rng(5)
    diags = [rng.uniform(0.3, 3.0, 3) for _ in range(3)]
    mats = [SpdMatrix(np.diag(d)) for d in diags]
    w = WeightVector([0.2, 0.3, 0.5])
    t = 0.25
    x, report = solve(PowerMean(t), mats, w)
    assert report.converged
    expected = np.diag(
        np.sum([wj * d**t for wj, d in zip(w.weights, diags)], axis=0) ** (1.0 / t)
    )
    assert_allclose(x.entries.real, expected, atol=1e-9)


def test_solve_power_half_m2_closed_form():
    rng = make_rng(6)
    a, b = random_spd(rng, 3), random_spd(rng, 3)
    x, report = solve(PowerMean(0.5), [a, b], WeightVector.uniform(2))
    assert report.converged
    reference = (a.entries + b.entries + 2.0 * geometric_mean(a, b).entries) / 4.0
    assert frobenius_norm(x.entries - reference) <= 1e-8 * np.linalg.norm(reference)


def test_solve_complex_family():
    rng = make_rng(18)
    mats = [random_spd(rng, 3, complex_entries=True) for _ in range(3)]
    w = WeightVector([0.2, 0.3, 0.5])
    for kind in ALL_KINDS:
        x, report = solve(kind, mats, w)
        assert report.converged
        assert fixed_point_residual(kind, x, mats, w) <= 1e-12
        assert np.linalg.norm(x.entries.imag) > 0.0  # genuinely complex output


def test_solve_with_damping_reaches_same_point():
    rng = make_rng(17)
    mats = [random_spd(rng, 3) for _ in range(3)]
    w = WeightVector.uniform(3)
    x_plain, _ = solve(WASSERSTEIN, mats, w)
    x_damped, report = solve(WASSERSTEIN, mats, w, SolverConfig(damping=0.5))
    assert report.converged
    assert frobenius_norm(x_plain.entries - x_damped.entries) <= 1e-10


def test_solve_nonconverged_report():
    rng = make_rng(7)
    mats = [random_spd(rng, 3) for _ in range(3)]
    w = WeightVector.uniform(3)
    x, report = solve(WASSERSTEIN, mats, w, SolverConfig(tol=1e-15, max_iter=3))
    assert not report.converged
    assert report.iterations == 3
    assert report.final_residual > 1e-15
    assert x.dim == 3  # the last iterate is still returned


def test_solve_permutation_equivariance():
    rng = make_rng(8)
    mats = [random_spd(rng, 3) for _ in range(4)]
    weights = [0.1, 0.2, 0.3, 0.4]
    x, _ = solve(PowerMean(0.5), mats, WeightVector(weights))
    order = [2, 0, 3, 1]
    x_perm, _ = solve(
        PowerMean(0.5),
        [mats[i] for i in order],
        WeightVector([weights[i] for i in order]),
    )
    assert frobenius_norm(x.entries - x_perm.entries) <= 1e-12


def test_solve_congruence_equivariance_power_mean():
    rng = make_rng(9)
    mats = [random_spd(rng, 3) for _ in range(3)]
    w = WeightVector([0.25, 0.35, 0.4])
    k = random_invertible(rng, 3)
    x, _ = solve(PowerMean(0.5), mats, w)
    x_transformed, _ = solve(PowerMean(0.5), [congruence(k, m) for m in mats], w)
    expected = congruence(k, x)
    assert (
        frobenius_norm(x_transformed.entries - expected.entries)
        <= 1e-8 * frobenius_norm(expected)
    )


def test_solve_random_restarts_agree():
    rng = make_rng(10)
    mats = [random_spd(rng, 3, cond=20.0) for _ in range(3)]
    w = WeightVector([0.2, 0.3, 0.5])
    for kind in ALL_KINDS:
        x, report = solve(kind, mats, w)
        alpha, beta = report.spectral_bounds
        for _ in range(5):
            start = random_spd(
                rng, 3, cond=beta / alpha, scale=float(np.sqrt(alpha * beta))
            )
            x_again, rep = solve(kind, mats, w, x0=start)
            assert rep.converged
            assert frobenius_norm(x.entries - x_again.entries) <= 1e-8


@pytest.mark.parametrize("kind", (WASSERSTEIN, LOG_EUCLIDEAN), ids=lambda k: type(k).__name__)
def test_objective_stationary_at_solution(kind):
    rng = make_rng(11)
    mats = [random_spd(rng, 3, cond=10.0) for _ in range(3)]
    w = WeightVector([0.3, 0.3, 0.4])
    x, _ = solve(kind, mats, w)

    def cost(m):
        return objective(kind, SpdMatrix(m), mats, w)

    base = cost(x.entries)
    for _ in range(10):
        y = rng.standard_normal((3, 3))
        y = (y + y.T) / 2
        slope = fd_directional(cost, x.entries, y)
        assert abs(slope) / np.linalg.norm(y) <= 1e-6
    for _ in range(200):
        y = rng.standard_normal((3, 3))
        y = (y + y.T) / 2
        y *= rng.uniform(0.01, 0.2) / np.linalg.norm(y)
        assert cost(x.entries + y) > base - 1e-12


def test_power_half_fixed_point_is_not_objective_stationary():
    # The t=1/2 power-mean fixed point satisfies its defining equation but is
    # NOT a stationary point of the geometric-mean divergence objective off
    # commuting families (see the note in barycentre.objective).  Pin that
    # down so a future "fix" cannot silently change solve()'s contract.
    rng = make_rng(11)
    kind = PowerMean(0.5)
    mats = [random_spd(rng, 3, cond=10.0) for _ in range(3)]
    w = WeightVector([0.3, 0.3, 0.4])
    x, report = solve(kind, mats, w)
    assert report.converged and report.final_residual <= 1e-12

    gradient = sum(
        wj * grad_phi3(m, x).entries for wj, m in zip(w.weights, mats)
    )
    slope = np.linalg.norm(gradient)
    assert slope > 1e-6  # genuinely non-stationary

    def cost(m):
        return objective(kind, SpdMatrix(m), mats, w)

    base = cost(x.entries)
    step = 1e-3 / slope
    descended = cost(x.entries - step * gradient)
    assert descended < base  # a strictly better point exists nearby


def test_objective_commuting_scalar_reduction():
    rng = make_rng(12)
    diags = [rng.uniform(0.5, 3.0, 3) for _ in range(2)]
    mats = [SpdMatrix(np.diag(d)) for d in diags]
    w = WeightVector.uniform(2)
    dx = rng.uniform(0.5, 3.0, 3)
    x = SpdMatrix(np.diag(dx))
    value = objective(PowerMean(0.5), x, mats, w)
    scalar = sum(
        wj * np.sum((np.sqrt(dx) - np.sqrt(d)) ** 2) for wj, d in zip(w.weights, diags)
    )
    assert value == pytest.approx(scalar, rel=1e-11)


def test_objective_rejects_power_t_not_half():
    rng = make_rng(13)
    mats = [random_spd(rng, 2) for _ in range(2)]
    w = WeightVector.uniform(2)
    with pytest.raises(UnsupportedObjectiveError):
        objective(PowerMean(0.25), mats[0], mats, w)


def test_closed_form_m2_identity_case():
    rng = make_rng(14)
    a = random_spd(rng, 3)
    for kind in (WASSERSTEIN, PowerMean(0.5)):
        cf = closed_form_m2(kind, a, a)
        assert frobenius_norm(cf.entries - a.entries) <= 1e-10
    with pytest.raises(UnsupportedObjectiveError):
        closed_form_m2(LOG_EUCLIDEAN, a, a)


def test_closed_form_m2_residuals_and_solver_agreement():
    rng = make_rng(15)
    w2 = WeightVector.uniform(2)
    for _ in range(20):
        dim = int(rng.integers(2, 5))
        a, b = random_spd(rng, dim), random_spd(rng, dim)
        wass = closed_form_m2(WASSERSTEIN, a, b)
        assert fixed_point_residual(WASSERSTEIN, wass, [a, b], w2) <= 1e-8
        power = closed_form_m2(PowerMean(0.5), a, b)
        assert fixed_point_residual(PowerMean(0.5), power, [a, b], w2) <= 1e-8
    x, _ = solve(PowerMean(0.5), [a, b], w2)
    assert frobenius_norm(x.entries - power.entries) <= 1e-8


def test_refute_d4_guess_commuting_is_inconclusive():
    a = SpdMatrix(np.diag([1.0, 4.0]))
    b = SpdMatrix(np.diag([9.0, 25.0]))
    report = refute_d4_guess(a, b)
    assert report.inconclusive
    assert not report.refuted
    assert report.residual <= 1e-10


def test_refute_d4_guess_on_pinned_pair():
    a, b = SpdMatrix(D3_TRIANGLE_TRIPLE[0]), SpdMatrix(D3_TRIANGLE_TRIPLE[1])
    report = refute_d4_guess(a, b)
    assert not report.inconclusive
    assert report.refuted
    assert report.relative_residual > 1e-6
    assert report.solution_distance > 0.0
    assert report.solver.converged


def test_refute_d4_guess_random_pairs():
    rng = make_rng(16)
    for _ in range(20):
        dim = int(rng.integers(2, 4))
        a, b = generic_noncommuting_pair(rng, dim)
        report = refute_d4_guess(a, b)
        assert not report.inconclusive
        assert report.residual > 0.0
        assert report.refuted  # relative residual above the 1e-6 line


def test_refute_d4_guess_residual_positive_even_near_commuting():
    # conclusive-but-borderline pairs still have a strictly positive
    # residual; only the magnitude threshold may legitimately fail there
    rng = make_rng(17)
    base = np.diag([0.5, 2.0, 1.1])
    theta = 1e-4
    rot = np.eye(3)
    rot[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    a = SpdMatrix(base)
    b = SpdMatrix(rot @ np.diag([1.4, 0.8, 2.5]) @ rot.T)
    report = refute_d4_guess(a, b)
    assert not report.inconclusive
    assert report.residual > 0.0

import hashlib
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helmat import barycentre
from helmat.barycentre import (
    LOG_EUCLIDEAN,
    WASSERSTEIN,
    MeanKind,
    PowerMean,
    SolverConfig,
    _AndersonHistory,
    _bracketed,
    _picard_sum,
    closed_form_m2,
    fixed_point_residual,
    mean_map,
    objective,
    refute_d4_guess,
    solve,
)
from helmat.calculus import fd_directional, grad_phi3
from helmat.cli import EXIT_OK, run
from helmat.distances import DistanceKind
from helmat.errors import DimensionMismatchError, UnsupportedObjectiveError
from helmat.linalg import SpdMatrix, congruence, frobenius_norm, hermitian_part
from helmat.matio import write_matrix_file
from helmat.means import WeightVector, arithmetic_mean, geometric_mean, q_half
from helmat.sampling import make_rng, random_spd
from helmat.suites import D3_TRIANGLE_TRIPLE, _noncommuting_pair_entries

ALL_KINDS = (WASSERSTEIN, PowerMean(0.5), LOG_EUCLIDEAN)


def test_kind_validation():
    with pytest.raises(ValueError):
        PowerMean(0.0)
    with pytest.raises(ValueError):
        PowerMean(1.0)
    for tol in (-1.0, 0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="tolerance must be finite and positive"):
            SolverConfig(tol=tol)
    with pytest.raises(ValueError, match="max_iter must be at least 1"):
        SolverConfig(max_iter=0)
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
        term, _ = _picard_sum(kind, x, [a], np.ones(1))
        assert np.array_equal(mean_map(kind, x, a).entries, term), kind


def test_each_kind_is_the_record_of_its_distance():
    for kind in (*ALL_KINDS, PowerMean(0.3)):
        assert isinstance(kind, MeanKind), kind
    assert WASSERSTEIN.distance is DistanceKind.D2
    assert PowerMean(0.5).distance is DistanceKind.D3
    assert PowerMean(0.3).distance is None
    assert LOG_EUCLIDEAN.distance is DistanceKind.D4


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
    # iterations + 1 Picard sums (the first iterate is the arithmetic mean),
    # plus one for each rejected mixed iterate
    assert len(eigensolves) == (report.iterations + 1) * (m + 1) + report.fallbacks


def _plain_picard(kind, mats, w, tol=1e-12, max_iter=500):
    """Undamped Picard iteration from the arithmetic mean, written out with
    the public ``mean_map``; returns the last iterate, its step count and its
    residual, converged or not."""
    current = arithmetic_mean(mats, w)
    for iterations in range(max_iter + 1):
        summed = sum(wj * mean_map(kind, current, aj).entries for wj, aj in zip(w.weights, mats))
        residual = np.linalg.norm(current.entries - summed) / np.linalg.norm(current.entries)
        if residual <= tol or iterations == max_iter:
            return current, iterations, residual
        # the damped step at eta = 1, formed term for term as solve used to
        current = SpdMatrix(hermitian_part(0.0 * current.entries + 1.0 * summed))


# (iterations, final_residual, sha256 prefix of the solution's bytes) of
# solve on the family of the test below before it mixed its iterates, when
# every step took the plain Picard image
PICARD_PINNED = {
    "Wasserstein()": (45, 9.200511088844864e-13, "0a2628603e99e045"),
    "PowerMean(t=0.5)": (37, 7.576566322692223e-13, "9779b24e8129b36a"),
    "PowerMean(t=0.3)": (71, 8.831229139938074e-13, "aaaead5d23d83717"),
    "LogEuclidean()": (37, 7.754638320883334e-13, "ef232fbfeaed9501"),
}


@pytest.mark.parametrize("kind", (WASSERSTEIN, PowerMean(0.5), PowerMean(0.3), LOG_EUCLIDEAN),
                         ids=repr)
def test_plain_picard_reproduces_the_unmixed_solver(kind):
    rng = make_rng(20)
    mats = [random_spd(rng, 5, cond=30.0, complex_entries=True) for _ in range(4)]
    w = WeightVector(rng.uniform(0.5, 2.0, 4))
    reference, steps, residual = _plain_picard(kind, mats, w)
    iterations, final_residual, digest = PICARD_PINNED[repr(kind)]
    assert steps == iterations
    assert residual == final_residual
    assert hashlib.sha256(reference.entries.tobytes()).hexdigest()[:16] == digest
    x, report = solve(kind, mats, w)
    assert report.converged and report.bracket_ok and report.fallbacks == 0
    assert frobenius_norm(x.entries - reference.entries) <= 1e-10 * frobenius_norm(reference)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: type(k).__name__)
def test_mixing_halves_the_step_count(kind):
    rng = make_rng(21)
    m = 6
    mats = [random_spd(rng, 8, cond=50.0) for _ in range(m)]
    w = WeightVector(rng.uniform(0.5, 2.0, m))
    x_plain, plain_steps, _ = _plain_picard(kind, mats, w)
    x_mixed, mixed = solve(kind, mats, w)
    assert plain_steps < 500 and mixed.converged
    assert mixed.final_residual <= 1e-12 and mixed.bracket_ok
    assert 2 * mixed.iterations <= plain_steps
    gap = frobenius_norm(x_mixed.entries - x_plain.entries)
    assert gap <= 1e-10 * frobenius_norm(x_plain)


def test_mixing_converges_where_picard_stalls(eigensolves):
    # A pinned ill-conditioned Wasserstein family (d = 13, cond 1e4) on which
    # plain Picard iteration is still at residual ~1e-9 after 500 steps.
    rng = make_rng(0)
    mats = [random_spd(rng, 13, cond=1e4) for _ in range(2)]
    w = WeightVector.uniform(2)
    _, _, plain_residual = _plain_picard(WASSERSTEIN, mats, w, max_iter=500)
    assert plain_residual > 1e-12
    eigensolves.clear()
    x, mixed = solve(WASSERSTEIN, mats, w, SolverConfig(max_iter=500))
    assert mixed.converged and mixed.final_residual <= 1e-12
    # a mixed iterate was rejected, at the price of one eigensolve
    assert mixed.fallbacks >= 1
    assert len(eigensolves) == (mixed.iterations + 1) * 3 + mixed.fallbacks
    assert fixed_point_residual(WASSERSTEIN, x, mats, w) <= 1e-12


def test_mixing_on_a_2x2_pair_with_a_singular_gram_system():
    # at d = 2 a Hermitian residual spans 3 real dimensions (4 for complex
    # ones), fewer than the memory of 5: the Gram matrix becomes singular
    a = SpdMatrix(D3_TRIANGLE_TRIPLE[0])
    b = SpdMatrix(D3_TRIANGLE_TRIPLE[1])
    w = WeightVector.uniform(2)
    for kind in ALL_KINDS:
        x, report = solve(kind, [a, b], w)
        assert report.converged, kind
        assert fixed_point_residual(kind, x, [a, b], w) <= 1e-12


def _census_family(seed):
    """One family of the hard-family census: its dimension, size, condition
    number, field and damping are drawn from ``seed``, then its matrices and
    weights; returns the family, the raw weights and the solver
    configuration."""
    rng = make_rng(seed)
    dim, m = rng.integers(2, 13), rng.integers(2, 9)
    cond = 10 ** rng.uniform(1, 6)
    complex_entries = bool(rng.integers(2))
    damping = (1.0, 0.5)[rng.integers(2)]
    mats = [random_spd(rng, dim, cond=cond, complex_entries=complex_entries) for _ in range(m)]
    return mats, rng.uniform(0.1, 3.0, m), SolverConfig(damping=damping)


@pytest.mark.parametrize("seed, kind", [(201367, PowerMean(0.1)), (200824, WASSERSTEIN)],
                         ids=["power-0.1-seed-201367", "wasserstein-seed-200824"])
def test_hard_families_converge(seed, kind):
    # ill-conditioned families (cond 9.9e4 and 9.1e5) on which halving the
    # Picard step after five growing residuals stalled the solve at 500 steps
    mats, weights, cfg = _census_family(seed)
    w = WeightVector(weights)
    x, report = solve(kind, mats, w, cfg)
    assert report.converged and report.bracket_ok
    assert fixed_point_residual(kind, x, mats, w) <= 1e-12
    # on the Wasserstein family neither plain Picard (500 steps) nor the
    # Alvarez-Esteban map (2,000 steps) converges, so only P_0.1 has a reference
    if kind is not WASSERSTEIN:
        reference, _, residual = _plain_picard(kind, mats, w)
        assert residual <= 1e-12
        assert frobenius_norm(x.entries - reference.entries) <= 1e-10 * frobenius_norm(reference)


def test_hard_family_converges_from_the_cli(capsys, tmp_path):
    mats, weights, _ = _census_family(201367)
    files = [str(tmp_path / f"a{j}.json") for j in range(len(mats))]
    for path, a in zip(files, mats):
        write_matrix_file(path, a.entries)
    (tmp_path / "w.json").write_text(json.dumps(weights.tolist()))
    code = run(["bary", "power-t", *files, "--t", "0.1", "--weights", str(tmp_path / "w.json")])
    err = capsys.readouterr().err
    assert code == EXIT_OK
    assert err.startswith("bary power-t: converged after 40 iterations")


def _alvarez_esteban(mats, w, tol=1e-14, max_iter=200):
    """The Wasserstein barycentre by the Alvarez-Esteban, del Barrio,
    Cuesta-Albertos and Matran iteration
    ``X <- X^{-1/2} (sum_j w_j (X^{1/2} A_j X^{1/2})^{1/2})^2 X^{-1/2}``,
    on bare numpy arrays."""

    def power(h, p):
        values, vectors = np.linalg.eigh((h + h.conj().T) / 2)
        return (vectors * values**p) @ vectors.conj().T

    x = sum(wj * a for wj, a in zip(w.weights, mats))
    for _ in range(max_iter):
        root, inv_root = power(x, 0.5), power(x, -0.5)
        inner = sum(wj * power(root @ a @ root, 0.5) for wj, a in zip(w.weights, mats))
        new = inv_root @ inner @ inner @ inv_root
        new = (new + new.conj().T) / 2
        if np.linalg.norm(new - x) <= tol * np.linalg.norm(x):
            return new
        x = new
    raise AssertionError("the Alvarez-Esteban iteration did not converge")


def test_wasserstein_barycentre_matches_alvarez_esteban_iteration():
    rng = make_rng(22)
    for dim, m, complex_entries in ((3, 3, False), (6, 4, True), (10, 5, False)):
        mats = [random_spd(rng, dim, cond=40.0, complex_entries=complex_entries)
                for _ in range(m)]
        w = WeightVector(rng.uniform(0.5, 2.0, m))
        x, report = solve(WASSERSTEIN, mats, w)
        assert report.converged
        reference = _alvarez_esteban([a.entries for a in mats], w)
        gap = np.linalg.norm(x.entries - reference)
        assert gap <= 1e-10 * np.linalg.norm(reference)


def test_rejected_mixed_iterates_are_not_taken():
    rng = make_rng(23)
    a = random_spd(rng, 3, cond=10.0)
    lower, upper = a.eig().eigenvalues[[0, -1]]
    assert _bracketed(a.entries, lower, upper) is not None
    assert _bracketed(a.entries, lower * 1.01, upper) is None
    assert _bracketed(a.entries, lower, upper * 0.99) is None
    assert _bracketed(-a.entries, -np.inf, np.inf) is None
    assert _bracketed(np.full((3, 3), np.nan), -np.inf, np.inf) is None


def test_anderson_history_mixes_hermitian_matrices_with_real_weights(monkeypatch):
    monkeypatch.setattr(barycentre, "_ANDERSON_MEMORY", 2)
    rng = make_rng(24)
    history = _AndersonHistory()
    points = [random_spd(rng, 3, complex_entries=True).entries for _ in range(4)]
    images = [random_spd(rng, 3, complex_entries=True).entries for _ in range(4)]
    assert history.propose(points[0], images[0], restart=False) is None
    for x, g in zip(points[1:], images[1:]):
        proposal = history.propose(x, g, restart=False)
        assert np.max(np.abs(proposal - proposal.conj().T)) <= 1e-12
    assert len(history.df) == 2  # the memory bounds the history
    assert history.propose(points[0], images[0], restart=True) is None
    assert not history.df and not history.dg


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


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: type(k).__name__)
def test_solve_converging_on_the_last_allowed_step(kind):
    rng = make_rng(3)
    mats = [random_spd(rng, 4, cond=30.0) for _ in range(4)]
    w = WeightVector([0.1, 0.2, 0.3, 0.4])
    x, report = solve(kind, mats, w)
    assert report.converged and report.iterations >= 2
    x_last, report_last = solve(kind, mats, w, SolverConfig(max_iter=report.iterations))
    assert report_last == report
    assert x_last.entries.tobytes() == x.entries.tobytes()
    _, short = solve(kind, mats, w, SolverConfig(max_iter=report.iterations - 1))
    assert not short.converged
    assert short.iterations == report.iterations - 1
    assert short.final_residual > SolverConfig().tol


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


def test_solve_congruence_equivariance_power_mean(random_invertible):
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
    for kind in (LOG_EUCLIDEAN, PowerMean(0.3)):
        with pytest.raises(UnsupportedObjectiveError):
            closed_form_m2(kind, a, a)


def test_closed_form_m2_rejects_pair_of_mixed_dimension():
    rng = make_rng(18)
    a, b = random_spd(rng, 2), random_spd(rng, 3)
    for kind in (WASSERSTEIN, PowerMean(0.5)):
        with pytest.raises(DimensionMismatchError):
            closed_form_m2(kind, a, b)


def test_closed_form_m2_power_half_makes_two_eigensolves(eigensolves):
    rng = make_rng(19)
    a, b = random_spd(rng, 4), random_spd(rng, 4)
    eigensolves.clear()
    closed_form_m2(PowerMean(0.5), a, b)
    # one for the congruence A^{-1/2} B A^{-1/2}, one validating the result
    assert len(eigensolves) == 2


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


def test_refute_d4_guess_on_pinned_pair(eigensolves):
    a, b = SpdMatrix(D3_TRIANGLE_TRIPLE[0]), SpdMatrix(D3_TRIANGLE_TRIPLE[1])
    eigensolves.clear()
    report = refute_d4_guess(a, b)
    assert not report.inconclusive
    assert report.refuted
    assert report.relative_residual > 1e-6
    # exp of the log average, the candidate, and one exp per residual term
    assert len(eigensolves) == 4


def test_refute_d4_guess_random_pairs():
    rng = make_rng(16)
    for _ in range(20):
        dim = int(rng.integers(2, 4))
        a, b = (SpdMatrix(m) for m in _noncommuting_pair_entries(rng, dim))
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

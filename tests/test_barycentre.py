import hashlib
import importlib.util
import json
from pathlib import Path

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
from helmat.calculus import fd_directional, frechet_geometric, grad_phi3
from helmat.cli import EXIT_OK, run
from helmat.distances import DistanceKind, distance, divergence, trace_chain
from helmat.errors import (
    DimensionMismatchError,
    EigenDecompositionError,
    SpectralDomainError,
    UnsupportedObjectiveError,
)
from helmat.linalg import (
    SpdMatrix,
    _hermitian_stack,
    congruence,
    frobenius_norm,
    hermitian_part,
    product_sqrt,
)
from helmat.matio import matrix_to_payload
from helmat.means import (
    WeightVector,
    arithmetic_mean,
    fidelity,
    geometric_mean,
    geometric_mean_entries,
    q_half,
)
from helmat.sampling import _haar_basis, make_rng, random_spd
from helmat.suites import D3_TRIANGLE_TRIPLE, _noncommuting_pair_entries

import mp_oracle

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
        term, _ = _picard_sum(kind, x, barycentre._grouped([a], x.entries.shape), np.ones(1))
        assert np.array_equal(mean_map(kind, x, a).entries, term), kind


def test_each_kind_is_the_record_of_its_distance():
    for kind in (*ALL_KINDS, PowerMean(0.3)):
        assert isinstance(kind, MeanKind), kind
    assert WASSERSTEIN.distance is DistanceKind.D2
    assert PowerMean(0.5).distance is DistanceKind.D3
    assert PowerMean(0.3).distance is None
    assert LOG_EUCLIDEAN.distance is DistanceKind.D4


def _matrices(eigensolves) -> int:
    """The number of matrices the logged eigensolves decomposed."""
    return sum(int(np.prod(shape[:-2])) for _, _, shape in eigensolves)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: type(k).__name__)
def test_solve_makes_m_plus_one_eigensolves_per_picard_step(kind, eigensolves):
    rng = make_rng(5)
    m = 4
    mats = [random_spd(rng, 5, cond=30.0) for _ in range(m)]
    w = WeightVector(rng.uniform(0.5, 2.0, m))
    eigensolves.clear()
    _, report = solve(kind, mats, w)
    assert report.converged
    # one matrix per term G(X, A_j) plus one for the new iterate, for each
    # of the iterations + 1 Picard sums (the first iterate is the arithmetic
    # mean), plus one for each rejected mixed iterate
    assert _matrices(eigensolves) == (report.iterations + 1) * (m + 1) + report.fallbacks
    # the m terms of a step are one stack: two LAPACK calls per step
    assert len(eigensolves) == 2 * (report.iterations + 1) + report.fallbacks


#: (dim, m, complex, damping) of the families whose solves are pinned in
#: SOLVE_PINNED; family i is drawn from make_rng(30 + i) at cond 20.  Their
#: sizes make one group of the whole family (d 3, 5 and 16), three groups of
#: two (d 40) and singleton groups (d 64), as barycentre._grouped forms them.
SOLVE_FAMILIES = {
    "d3-m5-real": (3, 5, False, 1.0),
    "d5-m4-complex-half": (5, 4, True, 0.5),
    "d16-m8-real": (16, 8, False, 1.0),
    "d40-m6-real": (40, 6, False, 1.0),
    "d64-m3-real": (64, 3, False, 1.0),
}

#: (iterations, final_residual, fallbacks, sha256 prefix of the solution's
#: bytes) of solve on each family, as each term G(X, A_j) was evaluated on
#: its own before the terms were stacked
SOLVE_PINNED = {
    "d3-m5-real": {
        "Wasserstein()": (13, 5.506502581787938e-14, 0, "fdc907e248970d7c"),
        "PowerMean(t=0.5)": (10, 6.871242453035292e-13, 0, "4fa97b29669d6c82"),
        "PowerMean(t=0.1)": (16, 6.833139522495249e-13, 0, "86ca450fac040018"),
        "LogEuclidean()": (10, 2.9837912922815475e-14, 0, "fb01dde2733c881e"),
    },
    "d5-m4-complex-half": {
        "Wasserstein()": (20, 7.241612276874706e-13, 0, "d546f6cbe2c7d535"),
        "PowerMean(t=0.5)": (13, 4.616504135686669e-13, 0, "67344368a8d4fcf5"),
        "PowerMean(t=0.1)": (20, 1.9096561141768795e-13, 0, "69013d0305b09329"),
        "LogEuclidean()": (12, 1.133632821089705e-13, 0, "8a0e38079e22de22"),
    },
    "d16-m8-real": {
        "Wasserstein()": (16, 2.602497735641767e-13, 0, "20103e46101a4004"),
        "PowerMean(t=0.5)": (12, 7.195908802964044e-13, 0, "f381bb58c6cb4dd4"),
        "PowerMean(t=0.1)": (20, 6.06584407323842e-13, 0, "282185e35502d42c"),
        "LogEuclidean()": (10, 2.357715754765887e-13, 0, "535043c7fcdc211d"),
    },
    "d40-m6-real": {
        "Wasserstein()": (18, 3.144119223918183e-13, 0, "2c566f7cc807c4b4"),
        "PowerMean(t=0.5)": (12, 6.072694066093908e-13, 0, "bad3f7d4ac6cea9c"),
        "PowerMean(t=0.1)": (32, 4.153563968362209e-13, 0, "ea27a70d7293bdb9"),
        "LogEuclidean()": (10, 8.11021910126562e-13, 0, "51fea88cc260f21b"),
    },
    "d64-m3-real": {
        "Wasserstein()": (19, 1.389402383142801e-13, 0, "f39471e3db4f8835"),
        "PowerMean(t=0.5)": (12, 6.568643890255523e-13, 0, "990731d351633843"),
        "PowerMean(t=0.1)": (24, 8.96311010695558e-14, 0, "fb193f9738715adb"),
        "LogEuclidean()": (11, 2.7785343294995247e-13, 0, "280bc931616178d1"),
    },
}


@pytest.mark.parametrize("family, kind", [
    (family, kind) for family in SOLVE_FAMILIES
    for kind in (WASSERSTEIN, PowerMean(0.5), PowerMean(0.1), LOG_EUCLIDEAN)
], ids=str)
def test_solve_keeps_its_bits(family, kind):
    dim, m, complex_entries, damping = SOLVE_FAMILIES[family]
    rng = make_rng(30 + list(SOLVE_FAMILIES).index(family))
    mats = [random_spd(rng, dim, cond=20.0, complex_entries=complex_entries)
            for _ in range(m)]
    w = WeightVector(rng.uniform(0.5, 2.0, m))
    x, report = solve(kind, mats, w, SolverConfig(damping=damping))
    digest = hashlib.sha256(x.entries.tobytes()).hexdigest()[:16]
    assert (report.iterations, report.final_residual, report.fallbacks, digest) == \
        SOLVE_PINNED[family][repr(kind)]
    assert report.converged


def test_a_failing_term_of_a_stack_raises_the_error_it_gives_alone(monkeypatch):
    # d 40, m 6: three groups of two, A_5 the second value of the last
    rng = make_rng(34)
    mats = [random_spd(rng, 40, cond=20.0) for _ in range(6)]
    mats[5] = SpdMatrix(1e3 * mats[5].entries)
    x = SpdMatrix(np.eye(40))
    assert [len(run) for _, run in barycentre._grouped(mats, x.entries.shape)] == [2, 2, 2]
    # the congruence of A_j by X^{1/2} = I is A_j, the only matrices whose
    # corner entry exceeds 100 are A_5 and its term; their eigenvalues turn
    # to NaN, which the checked eigensolve rejects
    assert [a.entries[0, 0] > 100.0 for a in mats] == [False] * 5 + [True]
    eigh = np.linalg.eigh

    def poisoned(arr, *args, **kwargs):
        values, vectors = eigh(arr, *args, **kwargs)
        return np.where(arr[..., :1, 0] > 100.0, np.nan, values), vectors

    monkeypatch.setattr(np.linalg, "eigh", poisoned)
    with pytest.raises(EigenDecompositionError) as alone:
        mean_map(WASSERSTEIN, x, mats[5])
    with pytest.raises(EigenDecompositionError) as stacked:
        fixed_point_residual(WASSERSTEIN, x, mats, WeightVector.uniform(6))
    with pytest.raises(EigenDecompositionError) as single:
        fixed_point_residual(WASSERSTEIN, x, mats[5:], WeightVector.uniform(1))
    assert str(stacked.value) == str(single.value) == str(alone.value)
    assert str(stacked.value).startswith("eigendecomposition reconstruction defect nan")


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
    assert _matrices(eigensolves) == (mixed.iterations + 1) * 3 + mixed.fallbacks
    assert len(eigensolves) == (mixed.iterations + 1) * 2 + mixed.fallbacks
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


_CENSUS_TOOL = Path(__file__).resolve().parents[1] / "tools" / "census.py"
_spec = importlib.util.spec_from_file_location("census", _CENSUS_TOOL)
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)


@pytest.mark.parametrize("seed, drawn", [
    (102425, (2, 3, False, 0.5, "54d6e094b30dfecb")),
    (200824, (5, 3, True, 1.0, "e249cf2cd7c622f3")),
], ids=["seed-102425", "seed-200824"])
def test_census_draws_are_pinned(seed, drawn):
    # the census tool's recipe: dimension, size, field, damping and a digest
    # of the matrices and raw weights
    mats, weights, cfg = census.draw_family(seed)
    digest = hashlib.sha256(b"".join(a.entries.tobytes() for a in mats) + weights.tobytes())
    assert (mats[0].dim, len(mats), mats[0].entries.dtype.kind == "c", cfg.damping,
            digest.hexdigest()[:16]) == drawn


@pytest.mark.parametrize("seed, kind", [(201367, PowerMean(0.1)), (200824, WASSERSTEIN)],
                         ids=["power-0.1-seed-201367", "wasserstein-seed-200824"])
def test_hard_families_converge(seed, kind):
    # ill-conditioned families (cond 9.9e4 and 9.1e5) on which halving the
    # Picard step after five growing residuals stalled the solve at 500 steps
    mats, weights, cfg = census.draw_family(seed)
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
    mats, weights, _ = census.draw_family(201367)
    files = [str(tmp_path / f"a{j}.json") for j in range(len(mats))]
    for path, a in zip(files, mats):
        Path(path).write_text(json.dumps(matrix_to_payload(a.entries)))
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


#: A valid pair whose inner congruences A^{-1/2} B A^{-1/2} and
#: A^{1/2} (1.5 A) A^{1/2} have condition number 1e12: each input passes the
#: SPD threshold, but the congruences would not.
WIDE = np.array([1e-3, 1.0, 1e3])
WIDE_PAIRS = {"reversed": (WIDE, WIDE[::-1]), "scaled": (WIDE, 1.5 * WIDE)}


def _wide_pair(name):
    return tuple(SpdMatrix(np.diag(d)) for d in WIDE_PAIRS[name])


@pytest.mark.parametrize("kind", list(DistanceKind))
def test_distances_of_a_pair_with_an_ill_conditioned_congruence(kind):
    # commuting, so each d^2 is sum (sqrt a_i - sqrt b_i)^2 = 1996.002
    a, b = _wide_pair("reversed")
    assert distance(kind, a, b) ** 2 == pytest.approx(1996.002, rel=1e-12)


@pytest.mark.parametrize("pair", WIDE_PAIRS)
def test_means_and_derivatives_of_a_pair_with_an_ill_conditioned_congruence(pair):
    a, b = _wide_pair(pair)
    da, db = WIDE_PAIRS[pair]
    assert_allclose(geometric_mean(a, b).entries, np.diag(np.sqrt(da * db)), rtol=1e-12)
    expected = np.sum(np.sqrt(da * db))
    assert_allclose(trace_chain(a, b), [expected, expected, expected, expected], rtol=1e-12)
    assert_allclose(grad_phi3(a, b).entries, np.diag(1.0 - np.sqrt(da / db)),
                    rtol=1e-12, atol=1e-12)
    assert_allclose(frechet_geometric(a, b, np.eye(3)).entries,
                    np.diag(0.5 * np.sqrt(da / db)), rtol=1e-12)
    closed = np.diag(((np.sqrt(da) + np.sqrt(db)) / 2.0) ** 2)
    for kind in (WASSERSTEIN, PowerMean(0.5)):
        assert_allclose(closed_form_m2(kind, a, b).entries, closed, rtol=1e-12)
    assert_allclose(mean_map(WASSERSTEIN, a, b).entries, np.diag(np.sqrt(da * db)),
                    rtol=1e-12)
    x, report = solve(WASSERSTEIN, [a, b], WeightVector.uniform(2))
    assert report.converged
    assert frobenius_norm(x.entries - closed) <= 1e-12 * np.linalg.norm(closed)


def _inner_congruence_sites(a, b):
    """Each call that forms an inner congruence of ``(a, b)``, by name."""
    return {
        "geometric_mean_entries": lambda: geometric_mean_entries(a, b, 0.5),
        "frechet_geometric": lambda: frechet_geometric(a, b, np.eye(3)),
        "grad_phi3": lambda: grad_phi3(a, b),
        "wasserstein_mean": lambda: WASSERSTEIN._mean(a, b),
        "product_sqrt": lambda: product_sqrt(a, b),
        "fidelity": lambda: fidelity(a, b),
    }


def test_a_negative_eigenvalue_of_the_inner_congruence_raises():
    # built without the SPD check: no valid input gets a congruence this far
    # below zero, but roundoff must not hide one that does, at any scale
    a = SpdMatrix(np.eye(3))
    for scale in (1e-12, 1.0, 1e12):
        bad = _hermitian_stack(scale * np.diag([1.0, -1.0, 2.0]), SpdMatrix)
        for call in _inner_congruence_sites(a, bad).values():
            with pytest.raises(SpectralDomainError, match=f"negative eigenvalue {-scale!r}$"):
                call()


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_a_roundoff_negative_eigenvalue_of_the_inner_congruence_reads_as_zero(scale):
    # -1e-13 is roundoff against the spectral radius 2 at every scale
    a = SpdMatrix(np.eye(3))
    b = _hermitian_stack(scale * np.diag([1.0, -1e-13, 2.0]), SpdMatrix)
    sites = _inner_congruence_sites(a, b)
    root = np.diag(np.sqrt(scale * np.array([1.0, 0.0, 2.0])))
    assert np.array_equal(geometric_mean_entries(a, b, 0.5), root)
    assert np.array_equal(WASSERSTEIN._mean(a, b), root)
    assert np.array_equal(product_sqrt(a, b), root)
    assert fidelity(a, b) == np.trace(root)
    # the square root's derivative is infinite at the zero the floor leaves
    for name in ("frechet_geometric", "grad_phi3"):
        with pytest.raises(SpectralDomainError, match="undefined near eigenvalue 0.0$"):
            sites[name]()


def _probe_pairs(count=200):
    """Valid pairs ``A = Q diag(1e-5, 1, 1e5) Q*``, ``B = R diag(1e5, 1,
    1e-5) R*`` with complex Haar ``Q``, ``R``: each input has condition
    1e10, and ``A^{-1/2} B A^{-1/2}`` about 1e20, so roundoff gives it
    negative eigenvalues far below the SPD threshold."""
    rng = make_rng(3)
    pairs = []
    for _ in range(count):
        q, r = (_haar_basis(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
                for _ in range(2))
        a = (q * np.array([1e-5, 1.0, 1e5])) @ q.conj().T
        b = (r * np.array([1e5, 1.0, 1e-5])) @ r.conj().T
        pairs.append((SpdMatrix(hermitian_part(a)), SpdMatrix(hermitian_part(b))))
    return pairs


def test_d3_and_the_half_power_closed_form_of_wide_pairs_never_raise():
    for a, b in _probe_pairs():
        distance(DistanceKind.D3, a, b)
        closed_form_m2(PowerMean(0.5), a, b)


def test_d3_and_the_half_power_closed_form_of_wide_pairs_against_the_oracle():
    # worst relative errors on these pairs 1.10e-3 and 1.51e-3, while
    # perturbing both inputs by a relative 1.1e-16 moves the 50-digit values
    # by at most 1.3e-11: the digits are lost by the congruence formula
    # (A^{-1/2} B A^{-1/2} has condition ~1e20), not by the inputs; a form
    # that avoids it is ROADMAP item 2
    for a, b in _probe_pairs(10):
        value = divergence(DistanceKind.D3, a, b)
        truth = mp_oracle.divergences(a.entries, b.entries)["d3"]
        assert mp_oracle.relative_error(value, truth) <= 2e-3
        closed = closed_form_m2(PowerMean(0.5), a, b).entries
        truth = mp_oracle.two_point_barycentre("power-half", a.entries, b.entries)
        assert np.linalg.norm(closed - truth) <= 2e-3 * np.linalg.norm(truth)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 14: the congruence formula eigensolves A^{-1/2} B A^{-1/2}, "
    "of condition ~1e20 here; 34 of these pairs raise NotPositiveDefiniteError "
    "and the other 166 are off by more than 2e-7, by up to 48.7x"))
def test_geometric_mean_of_wide_pairs_never_raises_and_matches_the_oracle():
    # pair by pair, so the first wrong pair ends the test
    for a, b in _probe_pairs():
        mean = geometric_mean(a, b).entries
        truth = mp_oracle.geometric_mean(a.entries, b.entries)
        assert np.linalg.norm(mean - truth) <= 2e-7 * np.linalg.norm(truth)


def test_dist_d3_of_a_wide_pair_from_the_cli(capsys, tmp_path):
    files = [str(tmp_path / name) for name in ("a.json", "b.json")]
    for path, value in zip(files, _probe_pairs(1)[0]):
        Path(path).write_text(json.dumps(matrix_to_payload(value.entries)))
    assert run(["dist", "d3", *files]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["outputs"]["distance"] == pytest.approx(447.2, rel=1e-4)


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


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: type(k).__name__)
@pytest.mark.parametrize("scale", [1e-2, 10.0])
def test_solve_accepts_a_start_outside_the_input_bracket(kind, scale):
    # the Picard map keeps the iterates in the hull of the start's and the
    # inputs' spectra, so the solve checks that hull
    rng = make_rng(1)
    mats = [random_spd(rng, 3) for _ in range(3)]
    w = WeightVector.uniform(3)
    x, report = solve(kind, mats, w)
    x_far, report_far = solve(kind, mats, w, x0=SpdMatrix(scale * np.eye(3)))
    alpha, beta = report.spectral_bounds
    assert not alpha <= scale <= beta
    assert report_far.converged and report_far.bracket_ok
    assert report_far.spectral_bounds == report.spectral_bounds
    assert frobenius_norm(x.entries - x_far.entries) <= 1e-10 * frobenius_norm(x)


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
    # exp of the log average, the candidate, and one exp per residual term,
    # the two terms in one call
    assert _matrices(eigensolves) == 4
    assert len(eigensolves) == 3


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

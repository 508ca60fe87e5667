"""Stack-aware kernels: each matrix of a stack gets, bit for bit, what the
single-matrix call gives it, and a failing matrix is named."""

import numpy as np
import pytest

from helmat.barycentre import (
    LOG_EUCLIDEAN,
    WASSERSTEIN,
    PowerMean,
    closed_form_m2,
    fixed_point_residual,
    refute_d4_guess,
)
from helmat.calculus import (
    QUAD_FIRST_NODES,
    QUAD_TOL,
    _half_power_integral,
    _half_power_rule,
    divided_difference_kernel,
    fd_directional,
    fd_frechet,
    fd_hessian_quadform,
    frechet,
    frechet_geometric_quadrature,
    grad_phi3,
    hessian_phi3_diag,
)
from helmat.distances import (
    DistanceKind,
    chain_divergences,
    distance,
    divergence,
    trace_chain,
)
from helmat.errors import (
    HermitianError,
    NotPositiveDefiniteError,
    SpectralDomainError,
    UnsupportedObjectiveError,
)
from helmat.legendre_cex import psibar_matrix
from helmat.linalg import (
    EigenDecomposition,
    HermitianMatrix,
    SpdMatrix,
    _frobenius_norms,
    _hermitian_checked,
    _spd_stack,
    eigh,
    hermitian_part,
    invm,
    product_sqrt,
)
from helmat.means import WeightVector, fidelity
from helmat.sampling import build_spd, draw_spd, make_rng, random_hermitian, random_spd
from helmat.suites import _noncommuting_pair_entries

DIMS = range(2, 17)
STACK = 6


def _draws(seed, dim, complex_entries, cond=100.0):
    rng = make_rng(seed)
    draws = [draw_spd(rng, dim, cond=cond, complex_entries=complex_entries)
             for _ in range(STACK)]
    return np.array([g for g, _ in draws]), np.array([lam for _, lam in draws])


def _pair_stacks(dim, complex_entries):
    a = build_spd(*_draws(dim, dim, complex_entries))
    b = build_spd(*_draws(100 + dim, dim, complex_entries))
    singles = [(SpdMatrix(a.entries[i]), SpdMatrix(b.entries[i])) for i in range(STACK)]
    return a, b, singles


def test_draw_rejects_a_condition_number_below_one():
    with pytest.raises(ValueError, match="condition number must be at least 1"):
        draw_spd(make_rng(0), 3, cond=0.5)


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("dim", DIMS)
def test_stacked_build_is_random_spd_per_slice(dim, complex_entries):
    stack = build_spd(*_draws(dim, dim, complex_entries))
    rng = make_rng(dim)
    for i in range(STACK):
        single = random_spd(rng, dim, cond=100.0, complex_entries=complex_entries)
        assert np.array_equal(stack.entries[i], single.entries)
        assert np.array_equal(stack.eig().eigenvalues[i], single.eig().eigenvalues)
        assert np.array_equal(stack.eig().eigenvectors[i], single.eig().eigenvectors)
    assert np.array_equal(stack.trace(), [SpdMatrix(m).trace() for m in stack.entries])


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("dim", DIMS)
def test_hermitian_check_and_eigh_per_slice(dim, complex_entries):
    rng = make_rng(dim)
    raw = rng.standard_normal((STACK, dim, dim))
    if complex_entries:
        raw = raw + 1j * rng.standard_normal((STACK, dim, dim))
    # a defect well inside the tolerance, so the symmetrisation has work to do
    raw = raw + np.swapaxes(raw, -1, -2).conj() + 1e-14 * raw
    checked = _hermitian_checked(raw)
    stacked = _spd_stack(checked + 4.0 * dim * np.eye(dim))
    for i in range(STACK):
        single = HermitianMatrix(raw[i])
        assert np.array_equal(checked[i], single.entries)
        eig = eigh(single.entries + 4.0 * dim * np.eye(dim))
        assert np.array_equal(stacked.eig().eigenvalues[i], eig.eigenvalues)
        assert np.array_equal(stacked.eig().eigenvectors[i], eig.eigenvectors)


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("dim", DIMS)
def test_mean_traces_and_divergences_per_slice(dim, complex_entries):
    a, b, singles = _pair_stacks(dim, complex_entries)
    chains = trace_chain(a, b)
    squares = chain_divergences(a, b, chains)
    fidelities = fidelity(a, b)
    for i, (a_i, b_i) in enumerate(singles):
        chain = trace_chain(a_i, b_i)
        assert [tr[i] for tr in chains] == list(chain)
        assert [s[i] for s in squares] == chain_divergences(a_i, b_i, chain)
        assert fidelities[i] == fidelity(a_i, b_i)
    for kind in DistanceKind:
        assert np.array_equal(divergence(kind, a, b),
                              [divergence(kind, a_i, b_i) for a_i, b_i in singles])
        assert np.array_equal(distance(kind, a, b),
                              [distance(kind, a_i, b_i) for a_i, b_i in singles])
    # one value per matrix: a Python float for one pair, an array for stacks
    a_0, b_0 = singles[0]
    for one, stacked in (
        *((divergence(kind, a_0, b_0), divergence(kind, a, b)) for kind in DistanceKind),
        *((distance(kind, a_0, b_0), distance(kind, a, b)) for kind in DistanceKind),
        (fidelity(a_0, b_0), fidelities),
        (a_0.trace(), a.trace()),
        *zip(trace_chain(a_0, b_0), chains),
    ):
        assert type(one) is float
        assert isinstance(stacked, np.ndarray) and stacked.shape == (STACK,)


def _stack_with_bad_slice(bad: np.ndarray, at: int) -> np.ndarray:
    stack = np.array([np.diag([1.0, 2.0, 3.0])] * 5)
    stack[at] = bad
    return stack


@pytest.mark.parametrize(
    "bad, error",
    [
        (np.diag([1.0, np.nan, 1.0]), HermitianError),
        (np.diag([1.0, np.inf, 1.0]), HermitianError),
        (np.diag([1.0, -1.0, 1.0]), NotPositiveDefiniteError),
        (np.diag([1.0, 0.0, 1.0]), NotPositiveDefiniteError),
    ],
    ids=["nan", "inf", "indefinite", "singular"],
)
@pytest.mark.parametrize("at", [0, 3])
def test_stack_names_the_failing_slice(bad, error, at):
    with pytest.raises(error) as single:
        SpdMatrix(bad)
    with pytest.raises(error, match=f"^slice {at}: ") as stacked:
        _spd_stack(_stack_with_bad_slice(bad, at))
    assert str(stacked.value) == f"slice {at}: {single.value}"


@pytest.mark.parametrize("at", [0, 3])
def test_stack_takes_the_hermitian_part_of_computed_arrays(at):
    # a stack is built only from arrays the library computed, so the builder
    # symmetrises instead of scanning for a defect; input is checked by the
    # public constructor
    bad = np.array([[1.0, 2.0, 0.0], [0.5, 3.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(HermitianError, match="not Hermitian"):
        SpdMatrix(bad)
    stack = _stack_with_bad_slice(bad, at)
    built, symmetrised = _spd_stack(stack), _spd_stack(hermitian_part(stack))
    assert np.array_equal(built.entries, symmetrised.entries)
    assert np.array_equal(built.eig().eigenvalues, symmetrised.eig().eigenvalues)
    assert np.array_equal(built.eig().eigenvectors, symmetrised.eig().eigenvectors)


def test_stack_entries_are_frozen():
    stack = _spd_stack(np.array([np.diag([1.0, 2.0])] * 3))
    with pytest.raises(ValueError):
        stack.entries[1, 0, 0] = 5.0
    with pytest.raises(AttributeError):
        stack.entries = np.zeros((3, 2, 2))


def test_repr_shows_the_shape():
    assert repr(_spd_stack(np.array([np.eye(3)] * 4))) == "SpdMatrix(shape=(4, 3, 3))"
    assert repr(SpdMatrix(np.eye(3))) == "SpdMatrix(shape=(3, 3))"


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("dim", DIMS)
def test_frobenius_norms_are_numpy_norms_per_slice(dim, complex_entries):
    rng = make_rng(dim)
    raw = rng.standard_normal((STACK, dim, dim)) * 10.0 ** rng.uniform(-8, 8, (STACK, 1, 1))
    if complex_entries:
        raw = raw + 1j * rng.standard_normal((STACK, dim, dim))
    assert np.array_equal(_frobenius_norms(raw), [np.linalg.norm(m) for m in raw])
    assert _frobenius_norms(raw[0]) == np.linalg.norm(raw[0])
    assert _frobenius_norms(raw[:0]).shape == (0,)


def _point_stacks(dim):
    """SPD base points and Hermitian directions, as stacks and one by one."""
    a, _, singles = _pair_stacks(dim, False)
    y = hermitian_part(make_rng(200 + dim).standard_normal((STACK, dim, dim)))
    return a, y, [(a_i, y_i) for (a_i, _), y_i in zip(singles, y)]


@pytest.mark.parametrize("dim", range(2, 7))
def test_fd_directional_per_slice(dim):
    a, y, singles = _point_stacks(dim)

    def stacked(x):
        return divergence(DistanceKind.D4, a, _spd_stack(x))

    common = fd_directional(stacked, a.entries, y)
    for i, (a_i, y_i) in enumerate(singles):
        def single(x, a_i=a_i):
            return divergence(DistanceKind.D4, a_i, SpdMatrix(x))

        assert common[i] == fd_directional(single, a_i.entries, y_i)


@pytest.mark.parametrize("dim", range(2, 7))
def test_fd_hessian_quadform_and_target_per_slice(dim):
    a, y, singles = _point_stacks(dim)

    def stacked(x):
        return divergence(DistanceKind.D3, a, _spd_stack(x))

    estimates = fd_hessian_quadform(stacked, a, y)
    targets = hessian_phi3_diag(a, y)
    expected_estimates, expected_targets = [], []
    for a_i, y_i in singles:
        def single(x, a_i=a_i):
            return divergence(DistanceKind.D3, a_i, SpdMatrix(x))

        expected_estimates.append(fd_hessian_quadform(single, a_i, y_i))
        expected_targets.append(hessian_phi3_diag(a_i, y_i))
    assert np.array_equal(estimates, expected_estimates)
    assert np.array_equal(targets, expected_targets)


def test_psibar_matrix_per_slice():
    rng = make_rng(8)
    g = rng.standard_normal((50, 2, 2))
    psd = (g @ np.swapaxes(g, -1, -2)) * 10.0 ** rng.uniform(-3, 3, (50, 1, 1))
    indefinite = hermitian_part(rng.standard_normal((50, 2, 2)))
    for stack in (psd, indefinite, np.zeros((1, 2, 2))):
        values = psibar_matrix(stack)
        assert values.shape == stack.shape[:1]
        assert np.array_equal(values, [psibar_matrix(x) for x in stack])
    assert isinstance(psibar_matrix(psd[0]), float)


def _per_node_integral(f):
    """The half-power integral of ``f`` with ``f`` called on one node at a
    time and the weighted values summed in a Python loop."""
    previous = None
    n = QUAD_FIRST_NODES
    while True:
        lam, weights = _half_power_rule(n)
        total = sum(w * f(np.array([x]))[0] for x, w in zip(lam, weights))
        if previous is not None and np.linalg.norm(total - previous) <= QUAD_TOL * max(
            1.0, np.linalg.norm(total)
        ):
            return total
        previous = total
        n *= 2


@pytest.mark.parametrize("dim", range(2, 6), ids=lambda dim: f"{dim}-half_power")
def test_integrate_matrix_is_the_per_node_sum(dim):
    x = random_spd(make_rng(dim), dim)
    y = random_hermitian(make_rng(50 + dim), dim).entries

    def resolvent_sandwich(lam):
        shifted = lam[:, None, None] * np.eye(dim) + x.entries
        return np.linalg.solve(shifted, y) @ np.linalg.inv(shifted)

    def weighted_sum(lam, weights):
        return np.add.reduce(weights[:, None, None] * resolvent_sandwich(lam), axis=0)

    assert np.array_equal(_half_power_integral(weighted_sum, np.linalg.norm),
                          _per_node_integral(resolvent_sandwich))


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("dim", range(2, 6))
def test_geometric_quadrature_is_the_per_node_formula(dim, complex_entries):
    rng = make_rng(30 + dim)
    a, x = (random_spd(rng, dim, complex_entries=complex_entries) for _ in range(2))
    y = random_hermitian(rng, dim, complex_entries=complex_entries).entries
    a_inv = invm(a).entries
    xa, ax, eye = x.entries @ a_inv, a_inv @ x.entries, np.eye(dim)

    def one_node(lam):
        left = np.linalg.solve(lam[0] * eye + xa, y)
        return [np.linalg.solve((lam[0] * eye + ax).conj().T, left.conj().T).conj().T]

    expected = hermitian_part(_per_node_integral(one_node))
    assert np.array_equal(frechet_geometric_quadrature(a, x, y).entries, expected)


PAIR_DIMS = range(2, 8)


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("dim", PAIR_DIMS)
def test_closed_forms_and_residuals_per_slice(dim, complex_entries):
    a, b, singles = _pair_stacks(dim, complex_entries)
    x = build_spd(*_draws(300 + dim, dim, complex_entries))
    w2 = WeightVector.uniform(2)
    roots = product_sqrt(a, b)
    for kind in (WASSERSTEIN, PowerMean(0.5)):
        stacked = closed_form_m2(kind, a, b)
        for i, (a_i, b_i) in enumerate(singles):
            assert np.array_equal(stacked.entries[i], closed_form_m2(kind, a_i, b_i).entries)
    for kind in (WASSERSTEIN, PowerMean(0.5), LOG_EUCLIDEAN):
        residuals = fixed_point_residual(kind, x, [a, b], w2)
        for i, (a_i, b_i) in enumerate(singles):
            x_i = SpdMatrix(x.entries[i])
            assert residuals[i] == fixed_point_residual(kind, x_i, [a_i, b_i], w2)
    for i, (a_i, b_i) in enumerate(singles):
        assert np.array_equal(roots[i], product_sqrt(a_i, b_i))
    with pytest.raises(UnsupportedObjectiveError):
        closed_form_m2(PowerMean(0.3), a, b)


@pytest.mark.parametrize("dim, stack", [(3, 2), (3, STACK), (16, 9)])
def test_residuals_of_mixed_shapes_per_slice(dim, stack):
    # one matrix against stacked pairs, and a stack against one pair; two
    # (9, 16, 16) stacks exceed the bytes of one group of the Picard sum
    rng = make_rng(400 + dim + stack)
    a, b, x = ([random_spd(rng, dim, cond=100.0) for _ in range(stack)] for _ in range(3))
    a_stack, b_stack, x_stack = (_spd_stack(np.array([v.entries for v in row]))
                                 for row in (a, b, x))
    w2 = WeightVector.uniform(2)
    for kind in (WASSERSTEIN, PowerMean(0.5), LOG_EUCLIDEAN):
        one_x = fixed_point_residual(kind, x[0], [a_stack, b_stack], w2)
        one_pair = fixed_point_residual(kind, x_stack, [a[0], b[0]], w2)
        assert np.shape(one_x) == np.shape(one_pair) == (stack,)
        for i in range(stack):
            assert one_x[i] == fixed_point_residual(kind, x[0], [a[i], b[i]], w2)
            assert one_pair[i] == fixed_point_residual(kind, x[i], [a[0], b[0]], w2)


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("dim", PAIR_DIMS)
def test_refute_d4_guess_per_slice(dim, complex_entries):
    a, b, singles = _pair_stacks(dim, complex_entries)
    # slice 2 becomes a commuting pair, on which the check is inconclusive
    a_entries, b_entries = a.entries.copy(), b.entries.copy()
    a_entries[2] = np.diag(np.arange(1.0, dim + 1.0))
    b_entries[2] = np.diag(np.arange(1.0, dim + 1.0) ** 2 + 1.0)
    a, b = _spd_stack(a_entries), _spd_stack(b_entries)
    singles[2] = (SpdMatrix(a_entries[2]), SpdMatrix(b_entries[2]))
    stacked = refute_d4_guess(a, b)
    for i, (a_i, b_i) in enumerate(singles):
        one = refute_d4_guess(a_i, b_i)
        assert np.array_equal(stacked.candidate.entries[i], one.candidate.entries)
        assert stacked.residual[i] == one.residual
        assert stacked.relative_residual[i] == one.relative_residual
        assert stacked.inconclusive[i] == one.inconclusive
        assert stacked.refuted[i] == one.refuted
    assert stacked.inconclusive.tolist() == [i == 2 for i in range(STACK)]
    assert not stacked.refuted[2]
    # one pair keeps plain Python flags and residuals
    one = refute_d4_guess(*singles[0])
    assert type(one.inconclusive) is bool and type(one.refuted) is bool
    assert type(one.residual) is float and type(one.relative_residual) is float


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("dim", PAIR_DIMS)
def test_frechet_and_fd_frechet_per_slice(dim, complex_entries):
    x, b, singles = _pair_stacks(dim, complex_entries)
    for name, approx in fd_frechet(x, b.entries).items():
        exact = frechet(name, x, b.entries).entries
        for i, (x_i, b_i) in enumerate(singles):
            assert np.array_equal(exact[i], frechet(name, x_i, b_i.entries).entries)
            assert np.array_equal(approx[i], fd_frechet(x_i, b_i.entries)[name])


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("dim", PAIR_DIMS)
def test_grad_phi3_per_slice(dim, complex_entries):
    a, x, singles = _pair_stacks(dim, complex_entries)
    stacked = grad_phi3(a, x).entries
    diagonal = grad_phi3(a, a).entries
    for i, (a_i, x_i) in enumerate(singles):
        assert np.array_equal(stacked[i], grad_phi3(a_i, x_i).entries)
        assert np.array_equal(diagonal[i], grad_phi3(a_i, a_i).entries)


def _count(eigensolves, call) -> int:
    eigensolves.clear()
    call()
    return len(eigensolves)


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda a, b: closed_form_m2(WASSERSTEIN, a, b), 2),
        (lambda a, b: closed_form_m2(PowerMean(0.5), a, b), 2),
        # exp of the log average, the candidate, and the exps of the two
        # residual terms in one call
        (refute_d4_guess, 3),
        # the base point comes with an empty eigen cache
        (lambda a, b: frechet("log", invm(a), b.entries), 1),
        (lambda a, b: fd_frechet(a, b.entries), 2),
        (grad_phi3, 1),
    ],
    ids=["closed-form-wasserstein", "closed-form-power-half", "refute-d4-guess",
         "frechet", "fd-frechet", "grad-phi3"],
)
def test_stack_makes_the_eigensolves_of_one_pair(call, expected, eigensolves):
    a, b, singles = _pair_stacks(4, False)
    assert _count(eigensolves, lambda: call(*singles[0])) == expected
    assert _count(eigensolves, lambda: call(a, b)) == expected


def test_noncommuting_pair_draw_makes_no_eigensolve(eigensolves):
    _noncommuting_pair_entries(make_rng(3), 4)
    assert not eigensolves


def test_divided_difference_kernel_names_the_failing_slice():
    spectra = np.array([[1.0, 2.0, 3.0], [-1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    vectors = np.array([np.eye(3)] * 3)
    with pytest.raises(SpectralDomainError) as single:
        divided_difference_kernel("log", EigenDecomposition(spectra[1], vectors[1]))
    assert str(single.value) == "function 'log' is undefined near eigenvalue -1.0"
    with pytest.raises(SpectralDomainError) as stacked:
        divided_difference_kernel("log", EigenDecomposition(spectra, vectors))
    assert str(stacked.value) == f"slice 1: {single.value}"

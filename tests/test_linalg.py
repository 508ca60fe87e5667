import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helmat import cli, linalg
from helmat.barycentre import LOG_EUCLIDEAN, WASSERSTEIN, PowerMean, solve
from helmat.distances import DistanceKind, distance
from helmat.errors import (
    DimensionMismatchError,
    EigenDecompositionError,
    HermitianError,
    NotPositiveDefiniteError,
    SingularMatrixError,
    SpectralDomainError,
)
from helmat.linalg import (
    HermitianMatrix,
    SpdMatrix,
    _identity,
    _spd_spectral,
    _spd_stack,
    apply_spectral,
    congruence,
    eigh,
    expm,
    frobenius_inner,
    frobenius_norm,
    hermitian_part,
    invm,
    logm,
    product_sqrt,
    sqrtm,
)
from helmat.matio import write_matrix_file
from helmat.means import WeightVector
from helmat.sampling import (
    make_rng,
    random_hermitian,
    random_orthogonal,
    random_spd,
)


def inv_sqrtm(a: SpdMatrix) -> SpdMatrix:
    """``A^{-1/2}`` through the checked spectral map."""
    return _spd_spectral(lambda x: 1.0 / np.sqrt(x), a)


def test_hermitian_construction_symmetrizes():
    m = np.array([[1.0, 2.0 + 5e-13], [2.0, 3.0]])
    h = HermitianMatrix(m)
    assert_allclose(h.entries, h.entries.conj().T)


def test_hermitian_rejects_asymmetric():
    with pytest.raises(HermitianError):
        HermitianMatrix([[1.0, 2.0], [0.5, 3.0]])


def test_hermitian_rejects_nonsquare_and_nonfinite():
    with pytest.raises(DimensionMismatchError):
        HermitianMatrix(np.ones((2, 3)))
    with pytest.raises(HermitianError):
        HermitianMatrix([[np.nan, 0.0], [0.0, 1.0]])
    # the public constructors take one matrix, never a stack of them
    stack = np.array([np.eye(2)] * 3)
    for cls in (HermitianMatrix, SpdMatrix):
        with pytest.raises(DimensionMismatchError):
            cls(stack)
        with pytest.raises(DimensionMismatchError):
            cls(_spd_stack(stack))


def test_hermitian_entries_immutable():
    h = HermitianMatrix(np.eye(2))
    with pytest.raises(ValueError):
        h.entries[0, 0] = 5.0


def test_spd_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        SpdMatrix([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(NotPositiveDefiniteError):
        SpdMatrix(np.zeros((2, 2)))
    with pytest.raises(NotPositiveDefiniteError):
        SpdMatrix(HermitianMatrix([[1.0, 0.0], [0.0, -1.0]]))


def test_spd_matrix_is_a_hermitian_matrix():
    assert isinstance(SpdMatrix(np.diag([1.0, 2.0])), HermitianMatrix)


@pytest.mark.parametrize("source", [SpdMatrix, HermitianMatrix], ids=lambda c: c.__name__)
def test_spd_of_a_value_reuses_its_entries_and_eigensystem(eigensolves, source):
    value = source(random_spd(make_rng(13), 4, complex_entries=True).entries)
    value.eig()
    eigensolves.clear()
    spd = SpdMatrix(value)
    assert eigensolves == []
    assert np.array_equal(spd.entries, value.entries)
    assert spd.eig() is value.eig()


def test_traced_methods_are_defined_on_their_classes():
    # the benchmark tracer patches each method in its class's own namespace
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for cls_name, method in tracer.LINALG_METHODS:
        assert method in vars(getattr(linalg, cls_name)), (cls_name, method)


def test_hermitian_tolerance_is_relative_at_large_scale():
    q = random_orthogonal(make_rng(0), 6)
    # Q Lambda Q^T left unsymmetrised: its roundoff defect is ~1e-16 of the
    # largest entry, but 1e6 times that is far above 1e-12 in absolute terms
    m = 1e6 * ((q * np.linspace(0.5, 2.0, 6)) @ q.T)
    assert np.max(np.abs(m - m.T)) > 1e-12
    values = SpdMatrix(m).eig().eigenvalues
    assert_allclose(values, 1e6 * np.linspace(0.5, 2.0, 6), rtol=1e-12)


def test_hermitian_rejects_tiny_non_hermitian_matrix():
    with pytest.raises(HermitianError):
        HermitianMatrix(1e-13 * np.array([[1.0, 2.0], [0.5, 3.0]]))


def _spd_verdict(m: np.ndarray) -> bool:
    try:
        SpdMatrix(m)
    except NotPositiveDefiniteError:
        return False
    return True


@pytest.mark.parametrize(
    "spectrum, accepted",
    [
        (np.linspace(0.72, 1.19, 4), True),
        (np.linspace(0.43, 0.80, 4), True),
        (np.array([1e-11, 0.5, 1.0]), True),
        (np.array([1e-13, 0.5, 1.0]), False),
        (np.array([0.0, 0.5, 1.0]), False),
        (np.array([-0.1, 0.5, 1.0]), False),
    ],
)
def test_spd_verdict_is_scale_invariant(spectrum, accepted):
    q = random_orthogonal(make_rng(11), spectrum.size)
    a = hermitian_part((q * spectrum) @ q.T)
    assert _spd_verdict(a) is accepted
    for s in 10.0 ** np.arange(-12, 13):
        assert _spd_verdict(s * a) is accepted, s


def test_eigh_diagonal():
    eig = eigh(HermitianMatrix(np.diag([1.0, 4.0])))
    assert_allclose(eig.eigenvalues, [1.0, 4.0])
    assert_allclose(np.abs(eig.eigenvectors), np.eye(2), atol=1e-14)


def test_eigh_exchange_matrix():
    eig = eigh(HermitianMatrix([[0.0, 1.0], [1.0, 0.0]]))
    assert_allclose(eig.eigenvalues, [-1.0, 1.0])


def test_eigh_reconstruction_random():
    rng = make_rng(0)
    h = random_hermitian(rng, 5, complex_entries=True)
    eig = eigh(h)
    recon = eig.synthesize(eig.eigenvalues)
    assert np.linalg.norm(recon - h.entries) <= 1e-10 * max(1.0, frobenius_norm(h))


@pytest.mark.parametrize(
    "scale", [1e-300, 1e-200, 1e-150, 1e-12, 1.0, 1e12, 1e150, 1e154, 1e160, 1e200, 1e300]
)
def test_eigh_reconstruction_check_is_relative(monkeypatch, scale):
    # an eigensolver whose eigenvalues come out a relative 1e-6 too large
    # must be caught at every scale, also where a squared Frobenius norm
    # overflows (||H||_F beyond ~1.3e154) or underflows (below ~1e-154)
    q = random_orthogonal(make_rng(12), 2)
    a = scale * hermitian_part((q * np.array([1.38, 3.62])) @ q.T)
    original = np.linalg.eigh

    def inflated(arr, *args, **kwargs):
        values, vectors = original(arr, *args, **kwargs)
        return (1 + 1e-6) * values, vectors

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        SpdMatrix(a)
        monkeypatch.setattr(np.linalg, "eigh", inflated)
        with pytest.raises(EigenDecompositionError, match="reconstruction"):
            SpdMatrix(a)


@pytest.mark.parametrize("part", [0, 1], ids=["eigenvalues", "eigenvectors"])
def test_eigh_rejects_a_nan_in_the_factorisation(monkeypatch, part):
    original = np.linalg.eigh

    def poisoned(arr, *args, **kwargs):
        factors = [np.array(f) for f in original(arr, *args, **kwargs)]
        factors[part][..., 0] = np.nan
        return tuple(factors)

    monkeypatch.setattr(np.linalg, "eigh", poisoned)
    with pytest.raises(EigenDecompositionError, match="reconstruction"):
        SpdMatrix(random_spd(make_rng(15), 3).entries)


def test_the_cached_identity_is_read_only():
    # one array per size serves every eigensolve, so no caller may change it
    assert _identity(3) is _identity(3) and np.array_equal(_identity(3), np.eye(3))
    with pytest.raises(ValueError, match="read-only"):
        _identity(3)[0, 0] = 2.0


def test_eigh_of_the_zero_matrix_passes_its_checks():
    eig = eigh(np.zeros((3, 3)))
    assert np.array_equal(eig.eigenvalues, np.zeros(3))


def test_eigh_reports_a_solver_that_does_not_converge(monkeypatch):
    def failing(arr, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    with pytest.raises(EigenDecompositionError, match="failed to converge"):
        SpdMatrix(np.eye(2))


def test_eigh_unitarity_check(monkeypatch):
    # (lam/4, 2V) reconstructs the matrix exactly but V is not unitary
    original = np.linalg.eigh

    def stretched(arr, *args, **kwargs):
        values, vectors = original(arr, *args, **kwargs)
        return values / 4.0, 2.0 * vectors

    monkeypatch.setattr(np.linalg, "eigh", stretched)
    with pytest.raises(EigenDecompositionError, match="not unitary"):
        SpdMatrix(np.diag([1.0, 2.0, 3.0]))


def test_apply_spectral_examples():
    root = apply_spectral(np.sqrt, SpdMatrix(np.diag([4.0, 9.0])))
    assert_allclose(root.entries, np.diag([2.0, 3.0]))
    zero = apply_spectral(np.log, SpdMatrix(np.eye(3)))
    assert_allclose(zero.entries, np.zeros((3, 3)), atol=1e-15)


def test_apply_spectral_square_matches_product():
    rng = make_rng(1)
    a = random_spd(rng, 4, cond=30.0)
    squared = apply_spectral(lambda x: x * x, a)
    assert np.linalg.norm(squared.entries - a.entries @ a.entries) <= 1e-10 * (
        frobenius_norm(a) ** 2
    )


def test_apply_spectral_commutes_with_input():
    rng = make_rng(2)
    a = random_spd(rng, 4)
    mapped = apply_spectral(np.sqrt, a)
    comm = mapped.entries @ a.entries - a.entries @ mapped.entries
    assert np.linalg.norm(comm) <= 1e-9 * frobenius_norm(a)


def test_apply_spectral_rejects_a_map_that_is_not_elementwise():
    with pytest.raises(SpectralDomainError, match="must map the spectrum elementwise"):
        apply_spectral(lambda x: np.sum(x), SpdMatrix(np.eye(2)))


def test_apply_spectral_domain_error_names_eigenvalue():
    with pytest.raises(SpectralDomainError, match="-1"):
        apply_spectral(np.log, HermitianMatrix(np.diag([-1.0, 2.0])))


def test_sqrt_square_roundtrip():
    rng = make_rng(3)
    for _ in range(20):
        a = random_spd(rng, int(rng.integers(2, 6)), cond=100.0)
        root = sqrtm(a)
        err = np.linalg.norm(root.entries @ root.entries - a.entries)
        assert err <= 1e-10 * max(1.0, frobenius_norm(a))


def test_exp_log_roundtrip():
    rng = make_rng(4)
    for _ in range(20):
        cond = 10.0 ** rng.uniform(0.0, 8.0)
        a = random_spd(rng, 4, cond=cond)
        back = expm(logm(a))
        assert np.linalg.norm(back.entries - a.entries) <= 1e-9 * frobenius_norm(a)


def test_expm_rejects_spectrum_below_relative_threshold():
    q = random_orthogonal(make_rng(9), 3)
    h = (q * np.array([-40.0, 0.0, 1.0])) @ q.T
    # exp(-40) ~ 4e-18 is below SPD_RTOL * e, so the result is not SPD
    with pytest.raises(NotPositiveDefiniteError):
        expm(h)


@pytest.mark.parametrize("fn", [invm, inv_sqrtm], ids=lambda f: f.__name__)
def test_decreasing_spectral_maps_accept_ill_conditioned_input(fn):
    q = random_orthogonal(make_rng(10), 5)
    a = SpdMatrix(hermitian_part((q * np.logspace(-4, 4, 5)) @ q.T))
    result = fn(a)
    values = result.eig().eigenvalues
    assert np.all(np.diff(values) > 0)
    # the eigensystem is that of a fresh checked eigh of the entries
    assert np.array_equal(values, eigh(result.entries).eigenvalues)
    power = -1.0 if fn is invm else -0.5
    assert_allclose(values, np.logspace(-4, 4, 5)[::-1] ** power, rtol=1e-6)


def test_product_sqrt_identity_and_commuting():
    eye = SpdMatrix(np.eye(2))
    assert_allclose(product_sqrt(eye, eye), np.eye(2), atol=1e-14)
    a = SpdMatrix(np.diag([1.0, 4.0]))
    b = SpdMatrix(np.diag([9.0, 16.0]))
    assert_allclose(product_sqrt(a, b), np.diag([3.0, 8.0]), atol=1e-12)


def test_product_sqrt_squares_to_product():
    rng = make_rng(5)
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        a, b = random_spd(rng, dim), random_spd(rng, dim)
        root = product_sqrt(a, b)
        product = a.entries @ b.entries
        assert np.linalg.norm(root @ root - product) <= 1e-9 * np.linalg.norm(product)


def test_product_sqrt_trace_and_eigenvalues():
    rng = make_rng(6)
    a, b = random_spd(rng, 4), random_spd(rng, 4)
    root = product_sqrt(a, b)
    inner = sqrtm(a).entries @ b.entries @ sqrtm(a).entries
    spectral = apply_spectral(np.sqrt, SpdMatrix(inner))
    assert abs(np.trace(root).real - spectral.trace()) <= 1e-10 * spectral.trace()
    got = np.sort(np.linalg.eigvals(root).real)
    want = np.sort(np.linalg.eigvalsh(spectral.entries))
    assert_allclose(got, want, atol=1e-8)


def test_congruence_examples():
    rng = make_rng(7)
    a = random_spd(rng, 3)
    assert_allclose(congruence(np.eye(3), a).entries, a.entries)
    assert_allclose(congruence(2.0 * np.eye(3), a).entries, 4.0 * a.entries)
    pulled = congruence(inv_sqrtm(a).entries, a)
    assert_allclose(pulled.entries, np.eye(3), atol=1e-10)


def test_congruence_rejects_singular():
    a = SpdMatrix(np.eye(2))
    with pytest.raises(SingularMatrixError):
        congruence(np.array([[1.0, 0.0], [0.0, 0.0]]), a)


def test_congruence_rejects_a_factor_of_another_dimension():
    with pytest.raises(DimensionMismatchError, match="2x2 but the matrix has dimension 3"):
        congruence(np.eye(2), SpdMatrix(np.eye(3)))


def test_congruence_preserves_positivity(random_invertible):
    rng = make_rng(8)
    for _ in range(1000):
        dim = int(rng.integers(2, 5))
        a = random_spd(rng, dim, cond=100.0)
        k = random_invertible(rng, dim)
        assert congruence(k, a).eig().eigenvalues[0] > 0.0


def test_frobenius_inner_examples():
    assert frobenius_inner(np.eye(2), np.eye(2)) == pytest.approx(2.0)
    assert frobenius_inner(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])) == pytest.approx(11.0)
    with pytest.raises(DimensionMismatchError):
        frobenius_inner(np.eye(2), np.eye(3))


def test_frobenius_norm_matches_entrywise_sum():
    rng = make_rng(9)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    inner = frobenius_inner(a, a)
    assert inner.imag == pytest.approx(0.0, abs=1e-12)
    assert inner.real == pytest.approx(np.sum(np.abs(a) ** 2), rel=1e-12)
    assert frobenius_norm(a) == pytest.approx(np.sqrt(np.sum(np.abs(a) ** 2)), rel=1e-12)


@given(
    st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=2, max_size=5),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_spectral_map_preserves_spectrum(diag, seed):
    rng = make_rng(seed)
    dim = len(diag)
    basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    h = HermitianMatrix(basis @ np.diag(diag) @ basis.T)
    mapped = apply_spectral(np.exp, h)
    assert_allclose(
        np.sort(np.linalg.eigvalsh(mapped.entries)),
        np.sort(np.exp(np.array(sorted(diag)))),
        rtol=1e-9,
        atol=1e-9,
    )


def _family(rng, dim, m):
    return [random_spd(rng, dim, cond=20.0, complex_entries=True) for _ in range(m)]


@pytest.mark.parametrize("kind", [WASSERSTEIN, PowerMean(0.5), LOG_EUCLIDEAN],
                         ids=["wasserstein", "p-half", "log-euclid"])
def test_solve_checks_no_computed_value_as_input(kind, hermitian_checks):
    # every iterate and term is built by the builders, never by the
    # input check of the public constructors
    mats = _family(make_rng(17), 4, 3)
    hermitian_checks.clear()
    solve(kind, mats, WeightVector.uniform(3))
    assert hermitian_checks == []


def test_distances_check_no_computed_value_as_input(hermitian_checks):
    a, b = _family(make_rng(18), 4, 2)
    hermitian_checks.clear()
    for kind in DistanceKind:
        distance(kind, a, b)
    assert hermitian_checks == []


@pytest.mark.parametrize("argv, checks", [(["bary", "wasserstein"], 3), (["dist", "d3"], 2)])
def test_cli_checks_each_input_file_once(argv, checks, tmp_path, capsys, hermitian_checks):
    paths = []
    for i, m in enumerate(_family(make_rng(19), 3, checks)):
        paths.append(str(tmp_path / f"m{i}.json"))
        write_matrix_file(paths[-1], m.entries)
    hermitian_checks.clear()
    assert cli.run(argv + paths) == cli.EXIT_OK
    capsys.readouterr()
    assert len(hermitian_checks) == checks

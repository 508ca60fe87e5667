import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helmat.errors import (
    DimensionMismatchError,
    HermitianError,
    NotPositiveDefiniteError,
    SingularMatrixError,
    SpectralDomainError,
)
from helmat.linalg import (
    HermitianMatrix,
    SpdMatrix,
    apply_spectral,
    congruence,
    eigh,
    expm,
    frobenius_inner,
    frobenius_norm,
    hermitian_part,
    inv_sqrtm,
    invm,
    logm,
    product_sqrt,
    sqrtm,
)
from helmat.sampling import (
    make_rng,
    random_hermitian,
    random_invertible,
    random_orthogonal,
    random_spd,
)


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


def test_hermitian_entries_immutable():
    h = HermitianMatrix(np.eye(2))
    with pytest.raises(ValueError):
        h.entries[0, 0] = 5.0


def test_spd_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        SpdMatrix([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(NotPositiveDefiniteError):
        SpdMatrix(np.zeros((2, 2)))


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


def test_congruence_preserves_positivity():
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

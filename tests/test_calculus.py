from decimal import Decimal, localcontext

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helmat import calculus
from helmat.calculus import (
    d_tr_log_euclidean,
    divided_difference_kernel,
    fd_directional,
    fd_frechet,
    fd_hessian_quadform,
    frechet,
    frechet_geometric,
    frechet_geometric_quadrature,
    grad_phi3,
    hessian_phi3_diag,
    quad_check,
)
from helmat.barycentre import refute_d4_guess
from helmat.distances import DistanceKind, divergence
from helmat.errors import DimensionMismatchError, QuadratureError
from helmat.linalg import SpdMatrix, _spd_stack, frobenius_norm, hermitian_part
from helmat.means import geometric_mean, log_euclidean_pair
from helmat.sampling import make_rng, random_hermitian, random_spd
from helmat.suites import divergence_axioms_suite


def test_divided_difference_kernel_sqrt_closed_form():
    rng = make_rng(0)
    a = random_spd(rng, 5, cond=1e3)
    eig = a.eig()
    kernel = divided_difference_kernel("sqrt", eig)
    lam = eig.eigenvalues
    expected = 1.0 / np.add.outer(np.sqrt(lam), np.sqrt(lam))
    assert np.max(np.abs(kernel - expected)) <= 1e-12
    assert_allclose(kernel, kernel.T)


def test_divided_difference_kernel_repeated_eigenvalues():
    eig = SpdMatrix(np.eye(3) * 4.0).eig()
    kernel = divided_difference_kernel("log", eig)
    assert_allclose(kernel, np.full((3, 3), 0.25))


@pytest.mark.parametrize("s", [1e-12, 1e-8, 1e-4, 1.0, 1e4, 1e8])
def test_frechet_log_is_scale_covariant(s):
    # D log(sA)(Y) = D log(A)(Y) / s: the gap test that picks divided
    # differences over midpoint derivatives is relative, so it picks the
    # same entries at every scale
    rng = make_rng(12)
    basis = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    a = (basis * [1.0, 2.0, 3.0]) @ basis.T
    y = random_hermitian(rng, 3)
    reference = frechet("log", SpdMatrix(a), y).entries
    scaled = s * frechet("log", SpdMatrix(s * a), y).entries
    assert np.linalg.norm(scaled - reference) <= 1e-12 * np.linalg.norm(reference)


@pytest.mark.parametrize("s", [1e-8, 1e-12, 1e-17])
def test_frechet_exp_at_small_scale(s):
    # D exp(sA)(Y) = Y + (s/2)(AY + YA) + O(s^2); exp(lam) ~ 1 at small
    # scale, so f(lam_i) - f(lam_j) would cancel in the divided differences
    rng = make_rng(13)
    basis = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    a = (basis * [1.0, 2.0, 3.0]) @ basis.T
    y = random_hermitian(rng, 3).entries
    limit = y + 0.5 * s * (a @ y + y @ a)
    derivative = frechet("exp", SpdMatrix(s * a), y).entries
    assert np.linalg.norm(derivative - limit) <= 1e-14 * np.linalg.norm(y)


@pytest.mark.parametrize("s", [1e-17, 1.0, 1e17])
@pytest.mark.parametrize("ratio", [2e-7, 1e-5, 1e-3])
def test_log_divided_difference_on_near_pairs(s, ratio):
    # log(lam_i) - log(lam_j) cancels against log(lam) itself, which is far
    # from zero away from unit scale; the reference is 40-digit decimal
    lam = np.array([s, s * (1.0 + ratio)])
    kernel = divided_difference_kernel("log", SpdMatrix(np.diag(lam)).eig())
    lo, hi = (Decimal(x) for x in lam)
    with localcontext() as ctx:
        ctx.prec = 40
        exact = float((hi.ln() - lo.ln()) / (hi - lo))
    assert kernel[0, 1] == pytest.approx(exact, rel=1e-14)


def test_frechet_identity_base_point():
    rng = make_rng(1)
    y = random_hermitian(rng, 3)
    eye = SpdMatrix(np.eye(3))
    assert_allclose(frechet("sqrt", eye, y).entries, y.entries / 2, atol=1e-13)
    assert_allclose(frechet("log", eye, y).entries, y.entries, atol=1e-13)


def test_frechet_linearity():
    rng = make_rng(2)
    x = random_spd(rng, 4)
    y1, y2 = random_hermitian(rng, 4), random_hermitian(rng, 4)
    combo = frechet("log", x, 2.0 * y1.entries - 3.0 * y2.entries).entries
    split = 2.0 * frechet("log", x, y1).entries - 3.0 * frechet("log", x, y2).entries
    assert np.linalg.norm(combo - split) <= 1e-11 * max(1.0, np.linalg.norm(split))


@pytest.mark.parametrize("name", ["sqrt", "log", "exp"])
def test_frechet_matches_finite_difference(name):
    rng = make_rng(3)
    worst = 0.0
    for _ in range(25):
        dim = int(rng.integers(2, 5))
        x = random_spd(rng, dim, cond=20.0)
        y = random_hermitian(rng, dim)
        exact = frechet(name, x, y).entries
        approx = fd_frechet(x, y)[name]
        worst = max(worst, np.linalg.norm(exact - approx) / np.linalg.norm(exact))
    assert worst <= 1e-6


def test_frechet_takes_only_the_three_tags():
    x = random_spd(make_rng(3), 3)
    with pytest.raises(ValueError, match="use sqrt, log or exp"):
        frechet("pow_t", x, np.eye(3))


def test_fd_frechet_shares_one_eigensystem_per_shifted_point(eigensolves):
    rng = make_rng(3)
    x = _spd_stack(np.array([random_spd(rng, 3, cond=20.0).entries for _ in range(4)]))
    y = hermitian_part(rng.standard_normal((4, 3, 3)))
    eigensolves.clear()
    differences = fd_frechet(x, y)
    assert list(differences) == ["sqrt", "log", "exp"]
    assert len(eigensolves) == 2


def test_frechet_geometric_at_base_point_is_half():
    rng = make_rng(4)
    a = random_spd(rng, 3)
    y = random_hermitian(rng, 3)
    assert_allclose(frechet_geometric(a, a, y).entries, y.entries / 2, atol=1e-11)


def test_frechet_geometric_identity_reduces_to_sqrt_derivative():
    rng = make_rng(5)
    x = random_spd(rng, 3)
    y = random_hermitian(rng, 3)
    eye = SpdMatrix(np.eye(3))
    assert_allclose(
        frechet_geometric(eye, x, y).entries,
        frechet("sqrt", x, y).entries,
        atol=1e-12,
    )


def test_frechet_geometric_matches_finite_difference():
    rng = make_rng(6)
    worst = 0.0
    for _ in range(10):
        a, x = random_spd(rng, 3), random_spd(rng, 3)
        y = random_hermitian(rng, 3)
        exact = frechet_geometric(a, x, y).entries
        step = 1e-5

        plus = geometric_mean(a, SpdMatrix(x.entries + step * y.entries)).entries
        minus = geometric_mean(a, SpdMatrix(x.entries - step * y.entries)).entries
        approx = (plus - minus) / (2 * step)
        worst = max(worst, np.linalg.norm(exact - approx) / np.linalg.norm(exact))
    assert worst <= 1e-6


def test_frechet_geometric_quadrature_agreement():
    rng = make_rng(7)
    worst = 0.0
    for _ in range(25):
        dim = int(rng.integers(2, 5))
        a, x = random_spd(rng, dim), random_spd(rng, dim)
        y = random_hermitian(rng, dim)
        chain = frechet_geometric(a, x, y).entries
        quad = frechet_geometric_quadrature(a, x, y).entries
        worst = max(worst, np.linalg.norm(chain - quad) / np.linalg.norm(chain))
    assert worst <= 1e-7


def test_grad_phi3_vanishes_at_diagonal():
    rng = make_rng(8)
    a = random_spd(rng, 4, cond=100.0)
    assert frobenius_norm(grad_phi3(a, a)) <= 1e-10


def test_grad_phi3_commuting_closed_form():
    a = SpdMatrix(np.diag([1.0, 4.0, 2.25]))
    x = SpdMatrix(np.diag([4.0, 1.0, 9.0]))
    expected = np.diag(1.0 - np.sqrt(np.array([1.0, 4.0, 2.25]) / np.array([4.0, 1.0, 9.0])))
    assert_allclose(grad_phi3(a, x).entries, expected, atol=1e-12)


def test_grad_phi3_matches_finite_difference():
    rng = make_rng(9)
    a, x = random_spd(rng, 3), random_spd(rng, 3)
    grad = grad_phi3(a, x).entries

    def phi(m):
        return divergence(DistanceKind.D3, a, SpdMatrix(m))

    for _ in range(20):
        y = random_hermitian(rng, 3)
        pairing = np.trace(grad @ y.entries).real
        slope = fd_directional(phi, x.entries, y.entries)
        assert abs(pairing - slope) <= 1e-6 * max(1.0, abs(pairing))


def test_hessian_phi3_examples():
    assert hessian_phi3_diag(SpdMatrix(np.eye(2)), np.eye(2)) == pytest.approx(1.0)
    a = SpdMatrix(np.diag([1.0, 2.0]))
    assert hessian_phi3_diag(a, np.eye(2)) == pytest.approx(0.75)


def test_hessian_phi3_nonnegative_sampled():
    rng = make_rng(21)
    for _ in range(1000):
        dim = int(rng.integers(2, 4))
        a = random_spd(rng, dim, cond=100.0)
        y = random_hermitian(rng, dim)
        assert hessian_phi3_diag(a, y) >= 0.0


def test_hessian_phi3_nonnegative_and_matches_fd():
    rng = make_rng(10)
    for _ in range(20):
        dim = int(rng.integers(2, 5))
        a = random_spd(rng, dim, cond=30.0)
        y = random_hermitian(rng, dim)
        target = hessian_phi3_diag(a, y)
        assert target >= 0.0

        def phi(m):
            return divergence(DistanceKind.D3, a, SpdMatrix(m))

        estimate = fd_hessian_quadform(phi, a, y)
        assert abs(estimate - target) <= 1e-4 * abs(target)


def test_d_tr_log_euclidean_identity_case():
    rng = make_rng(11)
    a = random_spd(rng, 3)
    # at X = A the gradient is I/2 for any A
    assert_allclose(d_tr_log_euclidean(a, a).entries, np.eye(3) / 2, atol=1e-11)
    eye = SpdMatrix(np.eye(2))
    assert_allclose(d_tr_log_euclidean(eye, eye).entries, np.eye(2) / 2, atol=1e-13)


def test_d_tr_log_euclidean_commuting_closed_form():
    a = SpdMatrix(np.diag([1.0, 4.0]))
    x = SpdMatrix(np.diag([4.0, 1.0]))
    expected = 0.5 * np.diag(np.sqrt(np.array([1.0, 4.0]) / np.array([4.0, 1.0])))
    assert_allclose(d_tr_log_euclidean(a, x).entries, expected, atol=1e-12)


def test_d_tr_log_euclidean_matches_finite_difference():
    rng = make_rng(12)
    a, x = random_spd(rng, 3), random_spd(rng, 3)
    grad = d_tr_log_euclidean(a, x).entries

    def tr_mean(m):
        return log_euclidean_pair(a, SpdMatrix(m)).trace()

    for _ in range(10):
        y = random_hermitian(rng, 3)
        pairing = np.trace(grad @ y.entries).real
        slope = fd_directional(tr_mean, x.entries, y.entries)
        assert abs(pairing - slope) <= 1e-6 * max(1.0, abs(pairing))


def test_d_log_matches_lebesgue_quadrature():
    # independent check of the logarithm derivative against its integral form
    # Dlog(X)(Y) = int (lam + X)^{-1} Y (lam + X)^{-1} dlam on (0, inf), by a
    # 64-node Gauss-Legendre rule after lam = u / (1 - u) (the 32- and 64-node
    # rules agree here to 1e-15)
    rng = make_rng(13)
    x = random_spd(rng, 3)
    y = random_hermitian(rng, 3)
    exact = frechet("log", x, y).entries
    u, w = np.polynomial.legendre.leggauss(64)
    u, w = 0.5 * (u + 1.0), 0.5 * w
    shifted = (u / (1.0 - u))[:, None, None] * np.eye(3) + x.entries
    left = np.linalg.solve(shifted, y.entries)
    values = np.swapaxes(np.linalg.solve(np.swapaxes(shifted, -1, -2),
                                         np.swapaxes(left, -1, -2)), -1, -2)
    quad = np.add.reduce((w / (1.0 - u) ** 2)[:, None, None] * values, axis=0)
    assert np.linalg.norm(exact - quad) <= 1e-7 * np.linalg.norm(exact)


def _integrals() -> list:
    rng = make_rng(15)
    a, x = random_spd(rng, 3), random_spd(rng, 3)
    y = random_hermitian(rng, 3)
    return [quad_check("sqrt_resolvent", 2.0), quad_check("grad_normalization"),
            quad_check("hessian_normalization"),
            frechet_geometric_quadrature(a, x, y).entries]


def test_gauss_legendre_rule_is_computed_once_per_node_count(monkeypatch):
    leggauss = np.polynomial.legendre.leggauss
    calls = []

    def counted(n):
        calls.append(n)
        return leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    calculus._gauss_legendre.cache_clear()
    divergence_axioms_suite(42, 1000)
    assert 1 <= len(calls) <= 8 and len(set(calls)) == len(calls)
    assert all(not arr.flags.writeable for arr in calculus._gauss_legendre(calls[0]))
    cached = _integrals()
    # a rule computed afresh for every integral gives the same bits
    monkeypatch.setattr(calculus, "_gauss_legendre", leggauss)
    assert all(np.array_equal(c, f) for c, f in zip(cached, _integrals()))


def test_quad_check_sqrt_representation():
    for x in (0.25, 1.0, 4.0, 9.0):
        assert quad_check("sqrt_resolvent", x) == pytest.approx(np.sqrt(x), abs=1e-8)
    for x in (-1.0, 0.0, np.nan, np.inf, -np.inf, None):
        with pytest.raises(ValueError, match="positive finite"):
            quad_check("sqrt_resolvent", x)
    with pytest.raises(ValueError):
        quad_check("does-not-exist")


def test_quad_check_normalizations():
    assert quad_check("grad_normalization") == pytest.approx(0.5, abs=1e-8)
    assert quad_check("hessian_normalization") == pytest.approx(0.5, abs=1e-8)


def test_integration_measure_node_doubling_stability(monkeypatch):
    value = quad_check("grad_normalization")
    monkeypatch.setattr(calculus, "QUAD_FIRST_NODES", 128)
    value_fine = quad_check("grad_normalization")
    assert abs(value - value_fine) < 1e-9


def test_integration_measure_reports_nonconvergence(monkeypatch):
    monkeypatch.setattr(calculus, "QUAD_MAX_NODES", 64)
    monkeypatch.setattr(calculus, "QUAD_TOL", 1e-300)
    with pytest.raises(QuadratureError):
        quad_check("grad_normalization")


def test_gradient_of_phi4_vanishes_at_diagonal_via_dlog():
    # grad of tr(A+X) - 2 tr L(A,X) is I - 2 * d_tr_log_euclidean(A, X)
    rng = make_rng(14)
    a = random_spd(rng, 4)
    grad = np.eye(4) - 2.0 * d_tr_log_euclidean(a, a).entries
    assert np.linalg.norm(grad) <= 1e-10


@pytest.mark.parametrize(
    "call",
    [
        lambda p, q: grad_phi3(p, q),
        lambda p, q: frechet("sqrt", p, q.entries),
        lambda p, q: frechet_geometric(p, q, q.entries),
        lambda p, q: frechet_geometric_quadrature(p, q, q.entries),
        lambda p, q: hessian_phi3_diag(p, q.entries),
        lambda p, q: refute_d4_guess(p, q),
    ],
    ids=["grad_phi3", "frechet", "frechet_geometric", "frechet_geometric_quadrature",
         "hessian_phi3_diag", "refute_d4_guess"],
)
def test_mismatched_dimensions_raise_dimension_error(call):
    rng = make_rng(5)
    small, large = random_spd(rng, 2), random_spd(rng, 3)
    with pytest.raises(DimensionMismatchError, match="dimension mismatch: 2 vs 3"):
        call(small, large)

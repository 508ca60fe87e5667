import numpy as np
import pytest
from numpy.testing import assert_allclose

from helmat.legendre_cex import (
    _DETERMINANT,
    _LINEAR,
    _MATRIX_GRADIENTS,
    _PREIMAGES,
    _SHIFT,
    _SWAP,
    _VECTOR_GRADIENTS,
    ANCHOR_SCALE,
    EXPONENT,
    GRADIENT_COEFFICIENT,
    _affine,
    _forward,
    _grad_trace_abs_power,
    _trace_abs_power,
    grad_psibar_vector,
    grid_residuals,
    matrix_gradient_at_zero,
    matrix_minima,
    psibar_matrix,
    psibar_vector,
    vector_minima,
)
from helmat.linalg import hermitian_part
from helmat.sampling import make_rng, random_hermitian


def test_constants_meet_the_construction_conditions():
    n, p = ANCHOR_SCALE, EXPONENT
    assert n > 3.0
    assert p > 1.0
    assert 1.0 - n ** (p - 1.0) / 2.0 > 0.0
    assert GRADIENT_COEFFICIENT > 0.0
    assert GRADIENT_COEFFICIENT == (n - 3.0) * p * (1.0 - n ** (p - 1.0) / 2.0)


def test_anchor_data_is_read_only():
    for arr in (_LINEAR, _SHIFT, *_PREIMAGES, *_VECTOR_GRADIENTS, *_MATRIX_GRADIENTS):
        assert not arr.flags.writeable


def test_gradient_coefficient_sign_flip():
    # the fixed constants give a positive coefficient; pushing the exponent
    # past the constraint flips the sign of 1 - scale**(exponent-1)/2, so the
    # origin stops being the constrained minimum.  Assemble the gradient at
    # such an exponent from the anchor data directly.
    assert GRADIENT_COEFFICIENT > 0.0
    n, p = 5.0, 3.0
    linear = np.array([[n - 1.0, -2.0], [-2.0, n - 1.0]])
    at_origin = linear.T @ (p * np.ones(2))
    at_anchors = 0.5 * (
        linear.T @ np.array([p * n ** (p - 1.0), 0.0])
        + linear.T @ np.array([0.0, p * n ** (p - 1.0)])
    )
    grad = at_origin - at_anchors
    assert np.all(grad < 0.0)
    assert_allclose(grad, (n - 3.0) * p * (1.0 - n ** (p - 1.0) / 2.0), rtol=1e-12)


def test_vector_instance_closed_forms():
    preimage_a, preimage_b = _PREIMAGES
    assert_allclose(preimage_a, [7.0 / 6.0, 1.0 / 3.0], rtol=1e-15)
    assert_allclose(preimage_b, [1.0 / 3.0, 7.0 / 6.0], rtol=1e-15)
    # the affine map sends the preimages back to the anchors
    assert_allclose(_SHIFT + _LINEAR @ preimage_a, [5.0, 0.0], atol=1e-12)
    assert_allclose(_SHIFT + _LINEAR @ preimage_b, [0.0, 5.0], atol=1e-12)
    assert np.all(preimage_a > 0.0) and np.all(preimage_b > 0.0)


def test_vector_gradient_at_origin_closed_form():
    grad = grad_psibar_vector(np.zeros(2))
    coeff = GRADIENT_COEFFICIENT
    assert coeff == pytest.approx(0.744324, abs=1e-6)
    assert_allclose(grad, [coeff, coeff], atol=1e-9)
    assert np.all(grad > 0.0)


def test_vector_gradient_matches_finite_difference():
    rng = make_rng(0)
    for _ in range(10):
        x = rng.exponential(0.5, 2)
        grad = grad_psibar_vector(x)
        h = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            slope = (psibar_vector(x + e) - psibar_vector(x - e)) / (2 * h)
            assert slope == pytest.approx(grad[i], abs=1e-6)


def test_vector_strictness_report():
    gap, margin = vector_minima(1000, seed=123)
    assert gap > 0.0
    assert margin >= -1e-10


def test_matrix_maps_examples():
    n = ANCHOR_SCALE
    assert_allclose(_forward(np.eye(2)), (n - 3.0) * np.eye(2))
    assert_allclose(_affine(np.eye(2)), (n - 2.0) * np.eye(2))

    x = np.diag([1.0, 0.0])
    forward = _forward(x)
    assert_allclose(forward, np.diag([n - 1.0, 0.0]) - 2.0 * np.diag([0.0, 1.0]))


def _inverse(x: np.ndarray) -> np.ndarray:
    """The inverse of the matrix cone map ``_forward``."""
    return ((ANCHOR_SCALE - 1.0) * x + 2.0 * _SWAP @ x @ _SWAP) / _DETERMINANT


def test_psibar_matrix_rejects_other_sizes():
    with pytest.raises(ValueError, match=r"construction is 2x2, got shape \(3, 3\)"):
        psibar_matrix(np.eye(3))


def test_matrix_maps_roundtrip():
    rng = make_rng(1)
    for _ in range(100):
        x = random_hermitian(rng, 2)
        back = _inverse(_forward(x.entries))
        assert np.linalg.norm(back - x.entries) <= 1e-12 * max(1.0, np.linalg.norm(x.entries))


def test_inverse_map_preserves_positivity():
    rng = make_rng(2)
    for _ in range(500):
        g = rng.standard_normal((2, 2))
        psd = g @ g.T
        image = _inverse(psd)
        assert np.linalg.eigvalsh(image)[0] >= -1e-12 * max(1.0, np.linalg.norm(psd))


def test_grad_schatten_examples():
    assert_allclose(_grad_trace_abs_power(np.eye(2), 2.0), 2.0 * np.eye(2))
    value = _grad_trace_abs_power(np.diag([4.0, 9.0]), 1.5)
    assert_allclose(value, 1.5 * np.diag([2.0, 3.0]), rtol=1e-12)


def test_grad_schatten_matches_finite_difference():
    rng = make_rng(3)
    p = 1.5
    for _ in range(10):
        g = rng.standard_normal((3, 3))
        x = g @ g.T + 0.5 * np.eye(3)
        grad = _grad_trace_abs_power(hermitian_part(x), p)
        y = random_hermitian(rng, 3).entries
        h = 1e-6
        plus = np.sum(np.linalg.eigvalsh(x + h * y) ** p)
        minus = np.sum(np.linalg.eigvalsh(x - h * y) ** p)
        slope = (plus - minus) / (2 * h)
        assert np.trace(grad @ y).real == pytest.approx(slope, abs=1e-6 * max(1.0, abs(slope)))


def test_matrix_gradient_matches_finite_difference():
    rng = make_rng(4)
    p = EXPONENT
    for _ in range(10):
        x = random_hermitian(rng, 2).entries * 0.5
        inner = _grad_trace_abs_power(_affine(x), p)
        grad = hermitian_part(_forward(inner))
        y = random_hermitian(rng, 2).entries
        h = 1e-6
        slope = (
            _trace_abs_power(_affine(x + h * y), p)
            - _trace_abs_power(_affine(x - h * y), p)
        ) / (2 * h)
        assert np.trace(grad @ y).real == pytest.approx(slope, abs=1e-5)


def test_scalar_matrix_consistency_on_diagonals():
    rng = make_rng(5)
    for _ in range(50):
        x = rng.exponential(1.0, 2) * 10.0 ** rng.uniform(-3, 2)
        vec = psibar_vector(x)
        mat = psibar_matrix(np.diag(x))
        assert mat == pytest.approx(vec, abs=1e-10 * max(1.0, abs(vec)))


def test_matrix_report_defaults():
    gradient = matrix_gradient_at_zero()
    assert np.linalg.eigvalsh(gradient)[0] > 0.0
    assert_allclose(gradient, GRADIENT_COEFFICIENT * np.eye(2), atol=1e-9)
    assert GRADIENT_COEFFICIENT == pytest.approx(0.744324, abs=1e-6)
    gap, margin = matrix_minima(1000, seed=7)
    assert gap > 0.0
    assert margin >= -1e-10
    residuals = grid_residuals()
    assert residuals.min() > 0.0
    assert len(residuals) >= 500


def test_matrix_gradient_at_zero_matches_finite_difference():
    # the one-sided slope of psibar_matrix at zero along positive directions
    rng = make_rng(6)
    gradient = matrix_gradient_at_zero()
    h = 1e-7
    for _ in range(5):
        g = rng.standard_normal((2, 2))
        y = g @ g.T
        slope = (psibar_matrix(h * y) - psibar_matrix(np.zeros((2, 2)))) / h
        assert slope == pytest.approx(np.trace(gradient @ y), rel=1e-4)


def test_matrix_anchor_diagonals():
    preimage_a, _ = _PREIMAGES
    assert_allclose(np.diag(preimage_a), np.diag([7.0 / 6.0, 1.0 / 3.0]))
    # the affine matrix map sends diag(preimage) to diag(anchor)
    image = _affine(np.diag(preimage_a))
    assert_allclose(image, np.diag([5.0, 0.0]), atol=1e-12)

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helmat.legendre_cex import (
    CexParams,
    _affine,
    _forward,
    _grad_trace_abs_power,
    _inverse,
    _trace_abs_power,
    build_vector_instance,
    grad_psibar_vector,
    psibar_matrix,
    psibar_vector,
    verify_matrix_cex,
    verify_vector_strictness,
)
from helmat.linalg import hermitian_part
from helmat.sampling import make_rng, random_hermitian

DEFAULTS = CexParams()


def test_params_validation():
    CexParams(anchor_scale=4.0, exponent=1.1)
    with pytest.raises(ValueError):
        CexParams(anchor_scale=3.0)
    with pytest.raises(ValueError):
        CexParams(exponent=0.9)
    with pytest.raises(ValueError):
        # exponent too large: the origin gradient flips sign
        CexParams(anchor_scale=5.0, exponent=3.0)


def test_gradient_coefficient_sign_flip():
    # valid parameters give a positive coefficient; pushing the exponent past
    # the constraint flips the sign of 1 - scale**(exponent-1)/2, so the
    # origin stops being the constrained minimum.  Assemble the gradient from
    # the anchor data directly since CexParams refuses such exponents.
    assert DEFAULTS.gradient_coefficient > 0.0
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


def test_build_vector_instance_closed_forms():
    inst = build_vector_instance(DEFAULTS)
    assert_allclose(inst.preimage_a, [7.0 / 6.0, 1.0 / 3.0], rtol=1e-15)
    assert_allclose(inst.preimage_b, [1.0 / 3.0, 7.0 / 6.0], rtol=1e-15)
    # the affine map sends the preimages back to the anchors
    assert_allclose(inst.shift + inst.linear_map @ inst.preimage_a, [5.0, 0.0],
                    atol=1e-12)
    assert np.all(inst.preimage_a > 0.0) and np.all(inst.preimage_b > 0.0)


def test_vector_gradient_at_origin_closed_form():
    grad = grad_psibar_vector(DEFAULTS, np.zeros(2))
    coeff = DEFAULTS.gradient_coefficient
    assert coeff == pytest.approx(0.744324, abs=1e-6)
    assert_allclose(grad, [coeff, coeff], atol=1e-9)
    assert np.all(grad > 0.0)


def test_vector_gradient_matches_finite_difference():
    rng = make_rng(0)
    for _ in range(10):
        x = rng.exponential(0.5, 2)
        grad = grad_psibar_vector(DEFAULTS, x)
        h = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            slope = (psibar_vector(DEFAULTS, x + e) - psibar_vector(DEFAULTS, x - e)) / (2 * h)
            assert slope == pytest.approx(grad[i], abs=1e-6)


def test_vector_strictness_report():
    report = verify_vector_strictness(DEFAULTS, 1000, seed=123)
    assert report.passed
    assert report.min_gap > 0.0
    assert report.min_margin >= -1e-10
    assert report.samples == 1000


def test_matrix_maps_examples():
    n = DEFAULTS.anchor_scale
    assert_allclose(_forward(DEFAULTS, np.eye(2)), (n - 3.0) * np.eye(2))
    assert_allclose(_affine(DEFAULTS, np.eye(2)), (n - 2.0) * np.eye(2))

    x = np.diag([1.0, 0.0])
    forward = _forward(DEFAULTS, x)
    assert_allclose(forward, np.diag([n - 1.0, 0.0]) - 2.0 * np.diag([0.0, 1.0]))


def test_matrix_maps_roundtrip():
    rng = make_rng(1)
    for _ in range(100):
        x = random_hermitian(rng, 2)
        back = _inverse(DEFAULTS, _forward(DEFAULTS, x.entries))
        assert np.linalg.norm(back - x.entries) <= 1e-12 * max(1.0, np.linalg.norm(x.entries))


def test_inverse_map_preserves_positivity():
    rng = make_rng(2)
    for _ in range(500):
        g = rng.standard_normal((2, 2))
        psd = g @ g.T
        image = _inverse(DEFAULTS, psd)
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
    p = DEFAULTS.exponent
    for _ in range(10):
        x = random_hermitian(rng, 2).entries * 0.5
        inner = _grad_trace_abs_power(_affine(DEFAULTS, x), p)
        grad = hermitian_part(_forward(DEFAULTS, inner))
        y = random_hermitian(rng, 2).entries
        h = 1e-6
        slope = (
            _trace_abs_power(_affine(DEFAULTS, x + h * y), p)
            - _trace_abs_power(_affine(DEFAULTS, x - h * y), p)
        ) / (2 * h)
        assert np.trace(grad @ y).real == pytest.approx(slope, abs=1e-5)


def test_scalar_matrix_consistency_on_diagonals():
    rng = make_rng(5)
    for _ in range(50):
        x = rng.exponential(1.0, 2) * 10.0 ** rng.uniform(-3, 2)
        vec = psibar_vector(DEFAULTS, x)
        mat = psibar_matrix(DEFAULTS, np.diag(x))
        assert mat == pytest.approx(vec, abs=1e-10 * max(1.0, abs(vec)))


def test_matrix_report_defaults():
    report = verify_matrix_cex(DEFAULTS, 1000, seed=7)
    assert report.passed
    assert report.gradient_is_positive_definite
    assert_allclose(
        report.gradient_matrix.entries,
        report.gradient_coefficient * np.eye(2),
        atol=1e-9,
    )
    assert report.gradient_coefficient == pytest.approx(0.744324, abs=1e-6)
    assert report.min_gap > 0.0
    assert report.min_margin >= -1e-10
    assert report.min_grid_residual > 0.0
    assert report.grid_size >= 500


def test_matrix_anchor_diagonals():
    inst = build_vector_instance(DEFAULTS)
    assert_allclose(np.diag(inst.preimage_a), np.diag([7.0 / 6.0, 1.0 / 3.0]))
    # the affine matrix map sends diag(preimage) to diag(anchor)
    image = _affine(DEFAULTS, np.diag(inst.preimage_a))
    assert_allclose(image, np.diag([5.0, 0.0]), atol=1e-12)

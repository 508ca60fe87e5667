"""A Bregman barycentre that escapes to the boundary.

This module builds, in vectors and in 2x2 matrices, a strictly convex and
differentiable cost whose barycentre problem has *no* positive solution: the
minimum over the closed cone sits at the origin, and the first-order
stationarity equation is unsolvable inside the cone.  The construction
composes the power cost ``sum |y_i|^p`` with the affine cone map
``g(x) = e + L x``; the composed cost is smooth and strictly convex but its
gradient does not blow up at the cone boundary, which is exactly the escape
hatch the example exploits.  It is one fixed instance: ``n = 5`` and
``p = 1.2`` (:data:`ANCHOR_SCALE` and :data:`EXPONENT`).

Two anchor points are placed so that their preimages are strictly positive
while their images lie on the boundary of the orthant.  Because ``|t|^{p-1}``
has infinite slope at ``t = 0``, gradients at the anchors are evaluated from
the exact boundary images, never through the affine map in floating point: a
1-ulp perturbation of a zero coordinate would otherwise contaminate the
gradient at the 1e-4 level.

The functions give the values :func:`~helmat.suites.legendre_cex_suite`
prints and judges: the averaged cost and its gradient, the smallest gap and
margin over sampled points of each cone (:func:`vector_minima`,
:func:`matrix_minima`), the gradient at zero of the matrix case, and the
stationarity residuals over a spectral grid (:func:`grid_residuals`).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .linalg import (
    MatrixLike,
    _adjoint,
    _checked_eigh,
    _frobenius_norms,
    _per_matrix,
    _trace,
    hermitian_part,
)
from .sampling import make_rng

# The construction needs n = ANCHOR_SCALE > 3, so that the anchor preimages
# are strictly positive, and p = EXPONENT > 1 with 1 - n**(p - 1) / 2 > 0,
# so that the gradient at the origin is a positive multiple of (1, 1).
ANCHOR_SCALE = 5.0
EXPONENT = 1.2
#: The scalar multiplying (1, 1) (or I) in the gradient at the origin.
GRADIENT_COEFFICIENT = (
    (ANCHOR_SCALE - 3.0) * EXPONENT * (1.0 - ANCHOR_SCALE ** (EXPONENT - 1.0) / 2.0)
)

_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
# the determinant-like normaliser of the cone map, positive for n > 3
_DETERMINANT = ANCHOR_SCALE * ANCHOR_SCALE - 2.0 * ANCHOR_SCALE - 3.0
# the stationarity grid: log-spaced spectra in [1e-6, 1e3], four eigenbases
_GRID = np.logspace(-6.0, 3.0, 13)
_ROTATIONS = (0.0, np.pi / 8, np.pi / 4, 3 * np.pi / 8)


def _power_value(y: np.ndarray, p: float) -> float:
    return float(np.sum(np.abs(y) ** p))


def _power_grad(y: np.ndarray, p: float) -> np.ndarray:
    return p * np.sign(y) * np.abs(y) ** (p - 1.0)


# The matrix analogue of the cone map on 2x2 Hermitian matrices (each
# accepts a stack (..., 2, 2)): the endomorphism (n-1) X - 2 swap X swap and
# the affine map I + forward.  The forward map is invertible, with inverse
# ((n-1) X + 2 swap X swap) / _DETERMINANT.  That inverse is completely
# positive (a positive combination of conjugations), so it carries positive
# semidefinite matrices to positive semidefinite matrices; the forward map
# does not.


def _forward(x: np.ndarray) -> np.ndarray:
    return (ANCHOR_SCALE - 1.0) * x - 2.0 * _SWAP @ x @ _SWAP


def _affine(x: np.ndarray) -> np.ndarray:
    return np.eye(2) + _forward(x)


def _grad_trace_abs_power(arr: np.ndarray, p: float) -> np.ndarray:
    # Gradient of tr |X|^p on Hermitian matrices (..., n, n): the odd
    # spectral map p sign(lam) |lam|^{p-1} (the polar-factor formula
    # specialised to the Hermitian case).  Needed on the stationarity grid,
    # where the affine image of a positive matrix may be indefinite.
    eig = _checked_eigh(arr)
    lam = eig.eigenvalues
    return eig.synthesize(p * np.sign(lam) * np.abs(lam) ** (p - 1.0))


def _trace_abs_power(arr: np.ndarray, p: float) -> np.ndarray:
    """``tr |X|^p`` of each Hermitian matrix of ``arr``."""
    return np.sum(np.abs(_checked_eigh(arr).eigenvalues) ** p, axis=-1)


# The vector cone map and the anchors: the boundary images (n, 0) and
# (0, n) and their preimages g^{-1}(anchor), written in closed form.  The
# cost and its gradient (pulled back through the cone map) are taken at the
# exact anchors, in vectors and as 2x2 diagonals.  All arrays are read-only.
_LINEAR = np.array([[ANCHOR_SCALE - 1.0, -2.0], [-2.0, ANCHOR_SCALE - 1.0]])
_SHIFT = np.ones(2)
_ANCHORS = (np.array([ANCHOR_SCALE, 0.0]), np.array([0.0, ANCHOR_SCALE]))
_PREIMAGE_A = np.array(
    [ANCHOR_SCALE * ANCHOR_SCALE - 2.0 * ANCHOR_SCALE - 1.0, ANCHOR_SCALE - 1.0]
) / _DETERMINANT
_PREIMAGES = (_PREIMAGE_A, _PREIMAGE_A[::-1].copy())
_VECTOR_VALUES = tuple(_power_value(y, EXPONENT) for y in _ANCHORS)
_VECTOR_GRADIENTS = tuple(_LINEAR.T @ _power_grad(y, EXPONENT) for y in _ANCHORS)
_MATRIX_PREIMAGES = tuple(np.diag(x) for x in _PREIMAGES)
_MATRIX_VALUES = tuple(float(_trace_abs_power(np.diag(y), EXPONENT)) for y in _ANCHORS)
_MATRIX_GRADIENTS = tuple(_forward(np.diag(_power_grad(y, EXPONENT))) for y in _ANCHORS)
_MATRIX_CENTRE = 0.5 * (_MATRIX_GRADIENTS[0] + _MATRIX_GRADIENTS[1])
for _arr in (_SWAP, _GRID, _LINEAR, _SHIFT, *_ANCHORS, *_PREIMAGES, *_VECTOR_GRADIENTS,
             *_MATRIX_PREIMAGES, *_MATRIX_GRADIENTS, _MATRIX_CENTRE):
    _arr.flags.writeable = False
del _arr


class Minima(NamedTuple):
    """The smallest gap ``psibar(x) - psibar(0)`` over sampled points ``x``
    of the cone, and the smallest margin of the gap over the linear lower
    bound ``<grad psibar(0), x>``."""

    gap: float
    margin: float


def psibar_vector(x: np.ndarray) -> float:
    """Average Bregman cost to the two anchor preimages, vector case."""
    x = np.asarray(x, dtype=float)
    value = _power_value(_SHIFT + _LINEAR @ x, EXPONENT)
    (bar_a, bar_b), (val_a, val_b), (grad_a, grad_b) = (
        _PREIMAGES, _VECTOR_VALUES, _VECTOR_GRADIENTS
    )
    div_a = value - val_a - grad_a @ (x - bar_a)
    div_b = value - val_b - grad_b @ (x - bar_b)
    return 0.5 * (div_a + div_b)


def grad_psibar_vector(x: np.ndarray) -> np.ndarray:
    """Gradient of the averaged Bregman cost, vector case.

    At the origin this equals ``GRADIENT_COEFFICIENT * (1, 1)``, which is
    strictly positive componentwise: the cost increases in every direction
    into the orthant, so its minimum sits on the boundary.
    """
    x = np.asarray(x, dtype=float)
    grad_a, grad_b = _VECTOR_GRADIENTS
    image = _SHIFT + _LINEAR @ x
    return _LINEAR.T @ _power_grad(image, EXPONENT) - 0.5 * (grad_a + grad_b)


def vector_minima(samples: int, seed: int) -> Minima:
    """Gap and margin of the origin over ``samples`` points of the open
    orthant, drawn one at a time."""
    rng = make_rng(seed)
    base = psibar_vector(np.zeros(2))
    grad0 = grad_psibar_vector(np.zeros(2))
    min_gap, min_margin = np.inf, np.inf
    for _ in range(samples):
        x = rng.exponential(1.0, 2) * 10.0 ** rng.uniform(-2.0, 2.0)
        gap = psibar_vector(x) - base
        min_gap = min(min_gap, gap)
        min_margin = min(min_margin, gap - grad0 @ x)
    return Minima(float(min_gap), float(min_margin))


def psibar_matrix(x: MatrixLike) -> float | np.ndarray:
    """Average Bregman cost to the two matrix anchors.

    On diagonal matrices this agrees exactly with the vector version: the
    swap conjugation permutes a diagonal the same way the cone map acts on
    vectors.  On a stack ``(..., 2, 2)`` it gives one value per matrix, bit
    for bit what each matrix gives alone.
    """
    arr = hermitian_part(x)
    if arr.shape[-2:] != (2, 2):
        raise ValueError(f"the matrix construction is 2x2, got shape {arr.shape}")
    (bar_a, bar_b), (val_a, val_b), (grad_a, grad_b) = (
        _MATRIX_PREIMAGES, _MATRIX_VALUES, _MATRIX_GRADIENTS
    )
    value = _trace_abs_power(_affine(arr), EXPONENT)
    div_a = value - val_a - _trace(grad_a @ (arr - bar_a))
    div_b = value - val_b - _trace(grad_b @ (arr - bar_b))
    return _per_matrix(0.5 * (div_a + div_b))


def matrix_gradient_at_zero() -> np.ndarray:
    """Gradient of :func:`psibar_matrix` at zero: ``GRADIENT_COEFFICIENT``
    times the identity, up to roundoff."""
    return _forward(EXPONENT * np.eye(2)) - _MATRIX_CENTRE


def matrix_minima(samples: int, seed: int) -> Minima:
    """Gap and margin of zero over ``samples`` random positive semidefinite
    matrices of Frobenius norm log-uniform in ``[1e-2, 1e2]``, evaluated as
    one stack."""
    rng = make_rng(seed)
    # all draws first, in sample order; the scale stays a Python float, as
    # numpy's vectorised power may round 10**u differently
    gaussians = np.empty((samples, 2, 2))
    scales = np.empty(samples)
    for i in range(samples):
        gaussians[i] = rng.standard_normal((2, 2))
        scales[i] = 10.0 ** rng.uniform(-2.0, 2.0)
    w = gaussians @ _adjoint(gaussians)
    x = w * (scales / np.maximum(_frobenius_norms(w), 1e-300))[:, None, None]
    gaps = psibar_matrix(x) - psibar_matrix(np.zeros((2, 2)))
    margins = gaps - _trace(matrix_gradient_at_zero() @ x)
    return Minima(float(gaps.min(initial=np.inf)), float(margins.min(initial=np.inf)))


def grid_residuals() -> np.ndarray:
    """The stationarity residual ``||grad psibar(X)||_F`` at each of the 676
    positive definite matrices of the grid: eigenvalues from a log-spaced
    grid over ``[1e-6, 1e3]``, in four rotated eigenbases.

    The grid *samples* the cone: stationarity cannot be refuted over the
    whole cone by finitely many evaluations, so the residuals document it
    while the boundary minimum at zero supplies the logical argument.
    """
    spectra = np.stack(np.meshgrid(_GRID, _GRID, indexing="ij"), axis=-1).reshape(-1, 1, 2)
    points = []
    for theta in _ROTATIONS:
        c, s = np.cos(theta), np.sin(theta)
        basis = np.array([[c, -s], [s, c]])
        points.append((basis * spectra) @ basis.T)
    x = np.concatenate(points)
    grad = _forward(_grad_trace_abs_power(_affine(x), EXPONENT))
    return _frobenius_norms(grad - _MATRIX_CENTRE)

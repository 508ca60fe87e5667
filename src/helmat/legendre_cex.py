"""A Bregman barycentre that escapes to the boundary.

This module builds, in vectors and in 2x2 matrices, a strictly convex and
differentiable cost whose barycentre problem has *no* positive solution: the
minimum over the closed cone sits at the origin, and the first-order
stationarity equation is unsolvable inside the cone.  The construction
composes the power cost ``sum |y_i|^p`` (``p`` slightly above 1) with an
affine cone map; the composed cost is smooth and strictly convex but its
gradient does not blow up at the cone boundary, which is exactly the escape
hatch the example exploits.

Two anchor points are placed so that their preimages are strictly positive
while their images lie on the boundary of the orthant.  Because ``|t|^{p-1}``
has infinite slope at ``t = 0``, gradients at the anchors are evaluated from
the exact boundary images, never through the affine map in floating point: a
1-ulp perturbation of a zero coordinate would otherwise contaminate the
gradient at the 1e-4 level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .linalg import (
    HermitianMatrix,
    MatrixLike,
    _adjoint,
    _frobenius_norms,
    _per_matrix,
    _trace,
    hermitian_part,
)
from .sampling import make_rng

_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


@dataclass(frozen=True)
class CexParams:
    """Parameters of the counterexample construction.

    ``anchor_scale`` must exceed 3 (so the anchor preimages are strictly
    positive) and ``exponent`` must be larger than 1 but small enough that
    ``1 - anchor_scale**(exponent - 1) / 2 > 0``, which is what makes the
    gradient at the origin strictly positive.
    """

    anchor_scale: float = 5.0
    exponent: float = 1.2

    def __post_init__(self):
        if not self.anchor_scale > 3.0:
            raise ValueError(f"anchor_scale must exceed 3, got {self.anchor_scale}")
        if not self.exponent > 1.0:
            raise ValueError(f"exponent must exceed 1, got {self.exponent}")
        if not self.slack > 0.0:
            raise ValueError(
                f"need 1 - anchor_scale**(exponent-1)/2 > 0; "
                f"got {self.slack:.6f} for anchor_scale={self.anchor_scale}, "
                f"exponent={self.exponent}"
            )

    @property
    def slack(self) -> float:
        return 1.0 - self.anchor_scale ** (self.exponent - 1.0) / 2.0

    @property
    def gradient_coefficient(self) -> float:
        """The scalar multiplying (1, 1) (or I) in the gradient at the origin."""
        return (self.anchor_scale - 3.0) * self.exponent * self.slack

    @property
    def cone_determinant(self) -> float:
        """Determinant-like normaliser of the affine cone map (positive)."""
        n = self.anchor_scale
        return n * n - 2.0 * n - 3.0

    @cached_property
    def vector_anchors(self) -> "AnchorData":
        """The anchor data of the vector case, computed once per instance."""
        inst = build_vector_instance(self)
        p = self.exponent
        anchors = (inst.anchor_a, inst.anchor_b)
        # Gradients taken at the exact anchors (one coordinate exactly zero).
        return AnchorData(
            inst,
            (inst.preimage_a, inst.preimage_b),
            tuple(_power_value(y, p) for y in anchors),
            tuple(inst.linear_map.T @ _power_grad(y, p) for y in anchors),
        )

    @cached_property
    def matrix_anchors(self) -> "AnchorData":
        """The anchor data of the 2x2 matrix case, computed once per instance:
        diagonal preimages, and values and gradients taken at the exact
        diagonal boundary images."""
        inst = build_vector_instance(self)
        p = self.exponent
        anchors = (inst.anchor_a, inst.anchor_b)
        return AnchorData(
            inst,
            (np.diag(inst.preimage_a), np.diag(inst.preimage_b)),
            tuple(float(_trace_abs_power(np.diag(y), p)) for y in anchors),
            tuple(_forward(self, np.diag(_power_grad(y, p))) for y in anchors),
        )


@dataclass(frozen=True)
class VectorInstance:
    """The vector-case data: cone map, anchors, and anchor preimages."""

    linear_map: np.ndarray
    shift: np.ndarray
    anchor_a: np.ndarray
    anchor_b: np.ndarray
    preimage_a: np.ndarray
    preimage_b: np.ndarray


def build_vector_instance(params: CexParams) -> VectorInstance:
    """Assemble the affine map ``g(x) = e + L x`` and the anchor pairs.

    The preimages ``g^{-1}(anchor)`` are written in closed form and are
    strictly positive whenever ``anchor_scale > 3``.
    """
    n = params.anchor_scale
    den = params.cone_determinant
    linear = np.array([[n - 1.0, -2.0], [-2.0, n - 1.0]])
    preimage_a = np.array([n * n - 2.0 * n - 1.0, n - 1.0]) / den
    inst = VectorInstance(
        linear_map=linear,
        shift=np.ones(2),
        anchor_a=np.array([n, 0.0]),
        anchor_b=np.array([0.0, n]),
        preimage_a=preimage_a,
        preimage_b=preimage_a[::-1].copy(),
    )
    if not (np.all(inst.preimage_a > 0.0) and np.all(inst.preimage_b > 0.0)):
        raise ValueError("anchor preimages must be strictly positive")
    return inst


@dataclass(frozen=True)
class AnchorData:
    """What the averaged Bregman cost needs of its two anchors: the cone
    map, the anchor preimages, and the cost and its gradient (pulled back
    through the cone map) at the exact boundary images.  Arrays are
    read-only."""

    instance: VectorInstance
    preimages: tuple[np.ndarray, np.ndarray]
    values: tuple[float, float]
    gradients: tuple[np.ndarray, np.ndarray]

    def __post_init__(self):
        for arr in (*vars(self.instance).values(), *self.preimages, *self.gradients):
            arr.flags.writeable = False


def _power_value(y: np.ndarray, p: float) -> float:
    return float(np.sum(np.abs(y) ** p))


def _power_grad(y: np.ndarray, p: float) -> np.ndarray:
    return p * np.sign(y) * np.abs(y) ** (p - 1.0)


def psibar_vector(params: CexParams, x: np.ndarray) -> float:
    """Average Bregman cost to the two anchor preimages, vector case."""
    x = np.asarray(x, dtype=float)
    anchors = params.vector_anchors
    inst = anchors.instance
    value = _power_value(inst.shift + inst.linear_map @ x, params.exponent)
    (bar_a, bar_b), (val_a, val_b), (grad_a, grad_b) = (
        anchors.preimages, anchors.values, anchors.gradients
    )
    div_a = value - val_a - grad_a @ (x - bar_a)
    div_b = value - val_b - grad_b @ (x - bar_b)
    return 0.5 * (div_a + div_b)


def grad_psibar_vector(params: CexParams, x: np.ndarray) -> np.ndarray:
    """Gradient of the averaged Bregman cost, vector case.

    At the origin this equals ``gradient_coefficient * (1, 1)``, which is
    strictly positive componentwise for valid parameters: the cost increases
    in every direction into the orthant, so its minimum sits on the boundary.
    """
    x = np.asarray(x, dtype=float)
    anchors = params.vector_anchors
    inst = anchors.instance
    grad_a, grad_b = anchors.gradients
    image = inst.shift + inst.linear_map @ x
    return inst.linear_map.T @ _power_grad(image, params.exponent) - 0.5 * (
        grad_a + grad_b
    )


@dataclass(frozen=True)
class StrictnessReport:
    """Outcome of sampling the strict-minimum claim on the open orthant."""

    samples: int
    min_gap: float
    min_margin: float
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures and self.min_gap > 0.0


def verify_vector_strictness(
    params: CexParams, samples: int, seed: int = 42
) -> StrictnessReport:
    """Sample ``x`` in the nonnegative orthant and check the origin wins.

    For each sample the gap ``psibar(x) - psibar(0)`` must be strictly
    positive and no smaller than the linear lower bound
    ``<grad psibar(0), x>`` (up to 1e-10 roundoff).
    """
    rng = make_rng(seed)
    base = psibar_vector(params, np.zeros(2))
    grad0 = grad_psibar_vector(params, np.zeros(2))
    min_gap, min_margin = np.inf, np.inf
    failures = []
    for _ in range(samples):
        x = rng.exponential(1.0, 2) * 10.0 ** rng.uniform(-2.0, 2.0)
        if x.max() <= 0.0:
            continue
        gap = psibar_vector(params, x) - base
        margin = gap - grad0 @ x
        min_gap = min(min_gap, gap)
        min_margin = min(min_margin, margin)
        if gap <= 0.0 or margin < -1e-10:
            failures.append(x.tolist())
    return StrictnessReport(
        samples=samples,
        min_gap=float(min_gap),
        min_margin=float(min_margin),
        failures=failures,
    )


# The matrix analogue of the cone map on 2x2 Hermitian matrices (each
# accepts a stack (..., 2, 2)): the endomorphism (n-1) X - 2 swap X swap,
# its inverse, and the affine map I + forward.  The inverse map is
# completely positive (a positive combination of conjugations), so it
# carries positive semidefinite matrices to positive semidefinite matrices;
# the forward map does not.


def _forward(params: CexParams, x: np.ndarray) -> np.ndarray:
    return (params.anchor_scale - 1.0) * x - 2.0 * _SWAP @ x @ _SWAP


def _inverse(params: CexParams, x: np.ndarray) -> np.ndarray:
    return ((params.anchor_scale - 1.0) * x + 2.0 * _SWAP @ x @ _SWAP) / (
        params.cone_determinant
    )


def _affine(params: CexParams, x: np.ndarray) -> np.ndarray:
    return np.eye(2) + _forward(params, x)


def _grad_trace_abs_power(arr: np.ndarray, p: float) -> np.ndarray:
    # Gradient of tr |X|^p on Hermitian matrices (..., n, n): the odd
    # spectral map p sign(lam) |lam|^{p-1} (the polar-factor formula
    # specialised to the Hermitian case).  Needed on the stationarity grid,
    # where the affine image of a positive matrix may be indefinite.
    lam, vectors = np.linalg.eigh(arr)
    mapped = p * np.sign(lam) * np.abs(lam) ** (p - 1.0)
    return (vectors * mapped[..., None, :]) @ _adjoint(vectors)


def _trace_abs_power(arr: np.ndarray, p: float) -> np.ndarray:
    """``tr |X|^p`` of each Hermitian matrix of ``arr``."""
    return np.sum(np.abs(np.linalg.eigvalsh(arr)) ** p, axis=-1)


def psibar_matrix(params: CexParams, x: MatrixLike) -> float | np.ndarray:
    """Average Bregman cost to the two matrix anchors.

    On diagonal matrices this agrees exactly with the vector version: the
    swap conjugation permutes a diagonal the same way the cone map acts on
    vectors.  On a stack ``(..., 2, 2)`` it gives one value per matrix, bit
    for bit what each matrix gives alone.
    """
    arr = hermitian_part(x)
    if arr.shape[-2:] != (2, 2):
        raise ValueError(f"the matrix construction is 2x2, got shape {arr.shape}")
    anchors = params.matrix_anchors
    (bar_a, bar_b), (val_a, val_b), (grad_a, grad_b) = (
        anchors.preimages, anchors.values, anchors.gradients
    )
    value = _trace_abs_power(_affine(params, arr), params.exponent)
    div_a = value - val_a - _trace(grad_a @ (arr - bar_a))
    div_b = value - val_b - _trace(grad_b @ (arr - bar_b))
    return _per_matrix(0.5 * (div_a + div_b))


@dataclass(frozen=True)
class MatrixCexReport:
    """Outcome of the matrix-case verification.

    ``min_grid_residual`` is a *sampled* lower bound: stationarity cannot be
    refuted over the whole cone by finitely many evaluations, so the report
    documents a strictly positive residual over a wide spectral grid, while
    the boundary minimum at zero supplies the logical argument.
    """

    gradient_coefficient: float
    gradient_matrix: HermitianMatrix
    gradient_is_positive_definite: bool
    samples: int
    min_gap: float
    min_margin: float
    grid_size: int
    min_grid_residual: float
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (
            self.gradient_is_positive_definite
            and not self.failures
            and self.min_gap > 0.0
            and self.min_grid_residual > 0.0
        )


def verify_matrix_cex(
    params: CexParams,
    samples: int,
    seed: int = 42,
    grid_points: int = 13,
    rotations: Sequence[float] = (0.0, np.pi / 8, np.pi / 4, 3 * np.pi / 8),
) -> MatrixCexReport:
    """Check the three matrix-case claims by direct evaluation.

    1. The gradient of the averaged cost at zero is the closed-form positive
       multiple of the identity.
    2. The averaged cost exceeds its value at zero on random positive
       semidefinite samples (with the convexity lower bound as margin).
    3. The stationarity residual stays bounded away from zero over a
       log-spaced spectral grid of positive definite matrices with
       eigenvalues spanning [1e-6, 1e3], across several eigenbasis rotations.
    """
    rng = make_rng(seed)
    p = params.exponent
    grad_a, grad_b = params.matrix_anchors.gradients
    centre = 0.5 * (grad_a + grad_b)

    grad_zero = _forward(params, p * np.eye(2)) - centre
    coeff = params.gradient_coefficient
    grad_zero_h = HermitianMatrix(hermitian_part(grad_zero))
    eigs = np.linalg.eigvalsh(grad_zero)
    gradient_pd = bool(eigs[0] > 0.0)

    base = psibar_matrix(params, np.zeros((2, 2)))
    # all draws first, in sample order; the scale stays a Python float, as
    # numpy's vectorised power may round 10**u differently
    gaussians = np.empty((samples, 2, 2))
    scales = np.empty(samples)
    for i in range(samples):
        gaussians[i] = rng.standard_normal((2, 2))
        scales[i] = 10.0 ** rng.uniform(-2.0, 2.0)
    w = gaussians @ _adjoint(gaussians)
    x = w * (scales / np.maximum(_frobenius_norms(w), 1e-300))[:, None, None]
    gaps = psibar_matrix(params, x) - base
    margins = gaps - _trace(grad_zero @ x)
    min_gap = float(gaps.min(initial=np.inf))
    min_margin = float(margins.min(initial=np.inf))
    failures = [x_i.tolist() for x_i in x[(gaps <= 0.0) | (margins < -1e-10)]]

    grid = np.logspace(-6.0, 3.0, grid_points)
    spectra = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 1, 2)
    points = []
    for theta in rotations:
        c, s = np.cos(theta), np.sin(theta)
        basis = np.array([[c, -s], [s, c]])
        points.append((basis * spectra) @ basis.T)
    x = np.concatenate(points)
    grad = _forward(params, _grad_trace_abs_power(_affine(params, x), p))
    min_residual = float(_frobenius_norms(grad - centre).min(initial=np.inf))
    count = len(x)

    return MatrixCexReport(
        gradient_coefficient=coeff,
        gradient_matrix=grad_zero_h,
        gradient_is_positive_definite=gradient_pd,
        samples=samples,
        min_gap=float(min_gap),
        min_margin=float(min_margin),
        grid_size=count,
        min_grid_residual=min_residual,
        failures=failures,
    )

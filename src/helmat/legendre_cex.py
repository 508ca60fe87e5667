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
from typing import Sequence

import numpy as np

from .errors import NotPositiveDefiniteError
from .linalg import (
    HermitianMatrix,
    MatrixLike,
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


def _power_value(y: np.ndarray, p: float) -> float:
    return float(np.sum(np.abs(y) ** p))


def _power_grad(y: np.ndarray, p: float) -> np.ndarray:
    return p * np.sign(y) * np.abs(y) ** (p - 1.0)


def _vector_anchor_data(params: CexParams):
    inst = build_vector_instance(params)
    p = params.exponent
    lt = inst.linear_map.T
    # Gradients taken at the exact anchors (one coordinate exactly zero).
    grad_a = lt @ _power_grad(inst.anchor_a, p)
    grad_b = lt @ _power_grad(inst.anchor_b, p)
    return inst, grad_a, grad_b, _power_value(inst.anchor_a, p), _power_value(
        inst.anchor_b, p
    )


def psibar_vector(params: CexParams, x: np.ndarray) -> float:
    """Average Bregman cost to the two anchor preimages, vector case."""
    x = np.asarray(x, dtype=float)
    inst, grad_a, grad_b, val_a, val_b = _vector_anchor_data(params)
    value = _power_value(inst.shift + inst.linear_map @ x, params.exponent)
    div_a = value - val_a - grad_a @ (x - inst.preimage_a)
    div_b = value - val_b - grad_b @ (x - inst.preimage_b)
    return 0.5 * (div_a + div_b)


def grad_psibar_vector(params: CexParams, x: np.ndarray) -> np.ndarray:
    """Gradient of the averaged Bregman cost, vector case.

    At the origin this equals ``gradient_coefficient * (1, 1)``, which is
    strictly positive componentwise for valid parameters: the cost increases
    in every direction into the orthant, so its minimum sits on the boundary.
    """
    x = np.asarray(x, dtype=float)
    inst, grad_a, grad_b, _, _ = _vector_anchor_data(params)
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


@dataclass(frozen=True)
class MatrixMaps:
    """The cone endomorphism and affine map evaluated at one matrix."""

    forward: HermitianMatrix    # (n-1) X - 2 swap X swap
    inverse: HermitianMatrix    # the inverse endomorphism at X
    affine: HermitianMatrix     # I + forward


def _forward(params: CexParams, x: np.ndarray) -> np.ndarray:
    return (params.anchor_scale - 1.0) * x - 2.0 * _SWAP @ x @ _SWAP


def _inverse(params: CexParams, x: np.ndarray) -> np.ndarray:
    return ((params.anchor_scale - 1.0) * x + 2.0 * _SWAP @ x @ _SWAP) / (
        params.cone_determinant
    )


def _affine(params: CexParams, x: np.ndarray) -> np.ndarray:
    return np.eye(2) + _forward(params, x)


def matrix_maps(params: CexParams, x: MatrixLike) -> MatrixMaps:
    """Evaluate the matrix analogue of the cone map at a 2x2 Hermitian ``X``.

    The inverse map is completely positive (a positive combination of
    conjugations), so it carries positive semidefinite matrices to positive
    semidefinite matrices; the forward map does not.
    """
    arr = hermitian_part(x)
    if arr.shape != (2, 2):
        raise ValueError(f"the matrix construction is 2x2, got shape {arr.shape}")
    return MatrixMaps(
        forward=HermitianMatrix(hermitian_part(_forward(params, arr))),
        inverse=HermitianMatrix(hermitian_part(_inverse(params, arr))),
        affine=HermitianMatrix(hermitian_part(_affine(params, arr))),
    )


def grad_schatten_p(x: MatrixLike, p: float) -> HermitianMatrix:
    """Gradient ``p X^{p-1}`` of ``tr X^p`` on positive semidefinite matrices.

    Zero eigenvalues map to zero since ``p > 1``.  Inputs with an eigenvalue
    below ``-1e-10 * scale`` are rejected; tiny negatives are clamped.
    """
    if p <= 1.0:
        raise ValueError(f"schatten gradient needs p > 1, got {p}")
    arr = hermitian_part(x)
    lam, vectors = np.linalg.eigh(arr)
    scale = max(1.0, float(np.max(np.abs(lam))))
    if lam[0] < -1e-10 * scale:
        raise NotPositiveDefiniteError(
            f"gradient of the Schatten power needs a positive semidefinite input; "
            f"smallest eigenvalue is {lam[0]:.6e}"
        )
    mapped = p * np.clip(lam, 0.0, None) ** (p - 1.0)
    return HermitianMatrix(hermitian_part((vectors * mapped) @ vectors.conj().T))


def _grad_trace_abs_power(arr: np.ndarray, p: float) -> np.ndarray:
    # Gradient of tr |X|^p on Hermitian matrices: the odd spectral map
    # p sign(lam) |lam|^{p-1} (the polar-factor formula specialised to the
    # Hermitian case).  Needed on the stationarity grid, where the affine
    # image of a positive matrix may be indefinite.
    lam, vectors = np.linalg.eigh(arr)
    mapped = p * np.sign(lam) * np.abs(lam) ** (p - 1.0)
    return (vectors * mapped) @ vectors.conj().T


def _trace_abs_power(arr: np.ndarray, p: float) -> float:
    return float(np.sum(np.abs(np.linalg.eigvalsh(arr)) ** p))


def _matrix_anchor_data(params: CexParams):
    inst = build_vector_instance(params)
    p = params.exponent
    anchor_mat_a = np.diag(inst.anchor_a)  # exact boundary images
    anchor_mat_b = np.diag(inst.anchor_b)
    grad_a = _forward(params, np.diag(_power_grad(inst.anchor_a, p)))
    grad_b = _forward(params, np.diag(_power_grad(inst.anchor_b, p)))
    val_a = _trace_abs_power(anchor_mat_a, p)
    val_b = _trace_abs_power(anchor_mat_b, p)
    return inst, grad_a, grad_b, val_a, val_b


def composed_cost_matrix(params: CexParams, x: MatrixLike) -> float:
    """The composed cost ``tr |G(X)|^p`` at a Hermitian ``X``."""
    return _trace_abs_power(_affine(params, hermitian_part(x)), params.exponent)


def grad_composed_cost_matrix(params: CexParams, x: MatrixLike) -> HermitianMatrix:
    """Gradient of the composed cost at a Hermitian ``X`` (chain rule; the
    cone endomorphism is self-adjoint for the trace pairing)."""
    arr = hermitian_part(x)
    inner = _grad_trace_abs_power(_affine(params, arr), params.exponent)
    return HermitianMatrix(hermitian_part(_forward(params, inner)))


def psibar_matrix(params: CexParams, x: MatrixLike) -> float:
    """Average Bregman cost to the two matrix anchors.

    On diagonal matrices this agrees exactly with the vector version: the
    swap conjugation permutes a diagonal the same way the cone map acts on
    vectors.
    """
    arr = hermitian_part(x)
    if arr.shape != (2, 2):
        raise ValueError(f"the matrix construction is 2x2, got shape {arr.shape}")
    inst, grad_a, grad_b, val_a, val_b = _matrix_anchor_data(params)
    value = _trace_abs_power(_affine(params, arr), params.exponent)
    bar_a = np.diag(inst.preimage_a)
    bar_b = np.diag(inst.preimage_b)
    div_a = value - val_a - np.trace(grad_a @ (arr - bar_a)).real
    div_b = value - val_b - np.trace(grad_b @ (arr - bar_b)).real
    return 0.5 * float(div_a + div_b)


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
    _, grad_a, grad_b, _, _ = _matrix_anchor_data(params)
    centre = 0.5 * (grad_a + grad_b)

    grad_zero = _forward(params, p * np.eye(2)) - centre
    coeff = params.gradient_coefficient
    grad_zero_h = HermitianMatrix(hermitian_part(grad_zero))
    eigs = np.linalg.eigvalsh(grad_zero)
    gradient_pd = bool(eigs[0] > 0.0)

    base = psibar_matrix(params, np.zeros((2, 2)))
    min_gap, min_margin = np.inf, np.inf
    failures = []
    for _ in range(samples):
        g = rng.standard_normal((2, 2))
        w = g @ g.T
        x = w * (10.0 ** rng.uniform(-2.0, 2.0) / max(np.linalg.norm(w), 1e-300))
        gap = psibar_matrix(params, x) - base
        margin = gap - np.trace(grad_zero @ x).real
        min_gap = min(min_gap, gap)
        min_margin = min(min_margin, float(margin))
        if gap <= 0.0 or margin < -1e-10:
            failures.append(x.tolist())

    grid = np.logspace(-6.0, 3.0, grid_points)
    min_residual = np.inf
    count = 0
    for theta in rotations:
        c, s = np.cos(theta), np.sin(theta)
        basis = np.array([[c, -s], [s, c]])
        for lam_1 in grid:
            for lam_2 in grid:
                x = (basis * np.array([lam_1, lam_2])) @ basis.T
                grad = _forward(params, _grad_trace_abs_power(_affine(params, x), p))
                min_residual = min(min_residual, float(np.linalg.norm(grad - centre)))
                count += 1

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

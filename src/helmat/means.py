"""Matrix means on positive definite matrices.

Covers the means the Hellinger-type distances are built from: the arithmetic
mean, the Pusz-Woronowicz geometric mean and its weighted version, the
log-Euclidean mean (pairwise and weighted m-fold), the fidelity functional,
and the half-power mean.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, InternalConsistencyError
from .linalg import (
    SpdMatrix,
    apply_spectral,
    expm,
    hermitian_part,
    logm,
    sqrt_entries,
    sqrt_pair_entries,
)


class WeightVector:
    """Positive weights over an m-tuple, normalised to sum to one.

    Normalisation happens at construction, so ``sum(w) == 1`` holds to within
    1e-12 for every instance.
    """

    __slots__ = ("_weights",)

    def __init__(self, weights: Sequence[float]):
        arr = np.asarray(weights, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("weights must be a non-empty one-dimensional sequence")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise ValueError("all weights must be finite and strictly positive")
        arr = arr / arr.sum()
        arr.flags.writeable = False
        self._weights = arr

    @classmethod
    def uniform(cls, m: int) -> "WeightVector":
        return cls(np.full(m, 1.0 / m))

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    def __len__(self) -> int:
        return self._weights.size

    def __iter__(self):
        return iter(self._weights)

    def __repr__(self) -> str:
        return f"WeightVector({self._weights.tolist()})"


def check_family(mats: Sequence[SpdMatrix], w: WeightVector) -> int:
    """Validate an (m-tuple, weights) pair and return the common dimension."""
    if len(mats) == 0:
        raise ValueError("need at least one matrix")
    if len(mats) != len(w):
        raise DimensionMismatchError(
            f"{len(mats)} matrices but {len(w)} weights"
        )
    dims = {a.dim for a in mats}
    if len(dims) != 1:
        raise DimensionMismatchError(f"matrices must share one dimension, got {sorted(dims)}")
    return dims.pop()


def arithmetic_mean(mats: Sequence[SpdMatrix], w: WeightVector) -> SpdMatrix:
    """Weighted arithmetic mean ``sum_j w_j A_j``."""
    check_family(mats, w)
    acc = sum(wj * a.entries for wj, a in zip(w.weights, mats))
    return SpdMatrix(hermitian_part(acc))


def geometric_mean_t(a: SpdMatrix, b: SpdMatrix, t: float) -> SpdMatrix:
    """Weighted geometric mean ``A^{1/2} (A^{-1/2} B A^{-1/2})^t A^{1/2}``.

    ``t = 0`` gives ``A``, ``t = 1`` gives ``B``; for commuting inputs this
    reduces to ``A^{1-t} B^t``.  Computed by the explicit congruence formula,
    exactly through the spectral calculus.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"geometric-mean parameter must lie in [0, 1], got {t}")
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return SpdMatrix(geometric_mean_entries(a, b, t))


def geometric_mean_entries(a: SpdMatrix, b: SpdMatrix, t: float) -> np.ndarray:
    """Hermitian array of ``A #_t B`` for callers that need no validated
    value, so no eigensolve checks it; ``t`` and dimensions are unchecked."""
    root, inv_root = sqrt_pair_entries(a)
    middle = SpdMatrix(hermitian_part(inv_root @ b.entries @ inv_root))
    powered = apply_spectral(lambda x: x**t, middle).entries
    return hermitian_part(root @ powered @ root)


def geometric_mean(a: SpdMatrix, b: SpdMatrix) -> SpdMatrix:
    """The Pusz-Woronowicz geometric mean, the midpoint case ``t = 1/2``."""
    return geometric_mean_t(a, b, 0.5)


def log_euclidean_pair(a: SpdMatrix, b: SpdMatrix) -> SpdMatrix:
    """Log-Euclidean mean ``exp((log A + log B)/2)`` of a pair."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return expm((logm(a).entries + logm(b).entries) / 2)


def log_euclidean_multi(mats: Sequence[SpdMatrix], w: WeightVector) -> SpdMatrix:
    """Weighted log-Euclidean mean ``exp(sum_j w_j log A_j)``.

    For two matrices with equal weights this coincides with
    :func:`log_euclidean_pair`; on a commuting family it is the entrywise
    weighted geometric mean of the spectra.
    """
    check_family(mats, w)
    return expm(sum(wj * logm(a).entries for wj, a in zip(w.weights, mats)))


def fidelity(a: SpdMatrix, b: SpdMatrix) -> float:
    """Fidelity ``tr (A^{1/2} B A^{1/2})^{1/2}`` between two states.

    Symmetric in its arguments.  For near-pure states ``uu* + eps I`` and
    ``vv* + eps I`` it approaches ``|u* v|``.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")
    root = sqrt_entries(a)
    inner = root @ b.entries @ root
    lam = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    scale = max(1.0, float(np.max(np.abs(lam))))
    if lam[0] < -1e-10 * scale:
        raise InternalConsistencyError(
            f"congruence of an SPD matrix produced eigenvalue {lam[0]:.3e}"
        )
    # eigenvalues can round to ~ -1e-16 when the inputs are nearly singular
    return float(np.sum(np.sqrt(np.clip(lam, 0.0, None))))


def q_half(mats: Sequence[SpdMatrix], w: WeightVector) -> SpdMatrix:
    """Half-power mean ``(sum_j w_j A_j^{1/2})^2``.

    This is the minimiser of the weighted sum of squared root-difference
    distances ``d_1^2`` over the family.
    """
    check_family(mats, w)
    acc = sum(wj * sqrt_entries(a) for wj, a in zip(w.weights, mats))
    return SpdMatrix(hermitian_part(acc @ acc))

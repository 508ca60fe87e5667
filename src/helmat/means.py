"""Matrix means on positive definite matrices.

Covers the means the Hellinger-type distances are built from: the arithmetic
mean, the Pusz-Woronowicz geometric mean and its weighted version, the
log-Euclidean mean (pairwise and weighted m-fold), the fidelity functional,
and the half-power mean.

The pair means behind the distances (``A #_t B``, the log-Euclidean pair
mean and the fidelity) are each written once over arrays: their operands
are :class:`~helmat.linalg.SpdMatrix` values of one matrix or of a stack
``(..., n, n)`` (built by :func:`~helmat.linalg._spd_stack`), and a stack
gives one result per matrix, bit for bit what each pair would give alone.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError
from .linalg import (
    SpdMatrix,
    _congruence,
    _floored,
    _hermitian_stack,
    _number_array,
    _per_matrix,
    _require_same_dim,
    _spd_stack,
    apply_spectral,
    expm,
    hermitian_part,
    logm,
    sqrt_entries,
    sqrt_pair_entries,
)


def _number_vector(values, name: str) -> np.ndarray:
    """``values`` as a new float64 array, provided they are a non-empty
    one-dimensional array of numbers (see :func:`~helmat.linalg._number_array`);
    otherwise a ``ValueError`` that names ``name`` and the format."""
    arr = _number_array(values)
    if arr is None or arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty one-dimensional array of numbers")
    return arr


class WeightVector:
    """Positive weights over an m-tuple, normalised to sum to one.

    Normalisation happens at construction, so ``sum(w) == 1`` holds to within
    1e-12 for every instance; weights whose sum overflows are divided by the
    largest first.
    """

    __slots__ = ("_weights",)

    def __init__(self, weights: Sequence[float]):
        arr = _number_vector(weights, "weights")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise ValueError("all weights must be finite and strictly positive")
        with np.errstate(over="ignore"):
            if not np.isfinite(arr.sum()):  # scale a sum beyond the float range
                arr = arr / arr.max()
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


def check_family(mats: Sequence[SpdMatrix], w: WeightVector) -> int:
    """Validate an (m-tuple, weights) pair and return the common dimension."""
    if len(mats) == 0:
        raise ValueError("need at least one matrix")
    if len(mats) != len(w):
        raise DimensionMismatchError(
            f"{len(mats)} matrices but {len(w)} weights"
        )
    _require_same_dim(mats[0].dim, *(a.dim for a in mats[1:]))
    return mats[0].dim


def arithmetic_mean(mats: Sequence[SpdMatrix], w: WeightVector) -> SpdMatrix:
    """Weighted arithmetic mean ``sum_j w_j A_j``."""
    check_family(mats, w)
    return _spd_stack(sum(wj * a.entries for wj, a in zip(w.weights, mats)))


def geometric_mean_t(a: SpdMatrix, b: SpdMatrix, t: float) -> SpdMatrix:
    """Weighted geometric mean ``A^{1/2} (A^{-1/2} B A^{-1/2})^t A^{1/2}``.

    ``t = 0`` gives ``A``, ``t = 1`` gives ``B``; for commuting inputs this
    reduces to ``A^{1-t} B^t``.  Computed by the explicit congruence formula,
    exactly through the spectral calculus.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"geometric-mean parameter must lie in [0, 1], got {t}")
    return _spd_stack(geometric_mean_entries(a, b, t))


def geometric_mean_entries(a: SpdMatrix, b: SpdMatrix, t: float) -> np.ndarray:
    """Hermitian array of ``A #_t B`` for callers that need no validated
    value, so no eigensolve checks it; ``t`` is unchecked.

    ``A^{-1/2} B A^{-1/2}`` is built by :func:`~helmat.linalg._congruence`,
    which checks the dimensions, and whose eigenvalues below the roundoff
    floor raise :class:`~helmat.errors.SpectralDomainError`."""
    root, inv_root = sqrt_pair_entries(a)
    powered = apply_spectral(lambda x: x**t, _congruence(inv_root, b)).entries
    return hermitian_part(root @ powered @ root)


def geometric_mean(a: SpdMatrix, b: SpdMatrix) -> SpdMatrix:
    """The Pusz-Woronowicz geometric mean, the midpoint case ``t = 1/2``."""
    return geometric_mean_t(a, b, 0.5)


def log_euclidean_pair(a: SpdMatrix, b: SpdMatrix) -> SpdMatrix:
    """Log-Euclidean mean ``exp((log A + log B)/2)`` of a pair."""
    _require_same_dim(a.dim, b.dim)
    return expm(_hermitian_stack((logm(a).entries + logm(b).entries) / 2))


def log_euclidean_multi(mats: Sequence[SpdMatrix], w: WeightVector) -> SpdMatrix:
    """Weighted log-Euclidean mean ``exp(sum_j w_j log A_j)``.

    For two matrices with equal weights this coincides with
    :func:`log_euclidean_pair`; on a commuting family it is the entrywise
    weighted geometric mean of the spectra.
    """
    check_family(mats, w)
    return expm(_hermitian_stack(sum(wj * logm(a).entries for wj, a in zip(w.weights, mats))))


def fidelity(a: SpdMatrix, b: SpdMatrix) -> float | np.ndarray:
    """Fidelity ``tr (A^{1/2} B A^{1/2})^{1/2}`` between two states, of
    each pair if ``a`` and ``b`` are stacks.

    Symmetric in its arguments.  For near-pure states ``uu* + eps I`` and
    ``vv* + eps I`` it approaches ``|u* v|``.

    Raises
    ------
    HermitianError
        If an entry of ``A^{1/2} B A^{1/2}`` overflows.
    SpectralDomainError
        If ``A^{1/2} B A^{1/2}`` has an eigenvalue below ``-1e-10`` times
        its spectral radius; a negative eigenvalue above that is roundoff
        and reads as zero (the rule of :func:`~helmat.linalg._floored`).
    """
    # the spectrum alone, with no reconstruction check: only a trace is needed
    lam = np.linalg.eigvalsh(_congruence(sqrt_entries(a), b).entries)
    return _per_matrix(np.sqrt(_floored(lam)).sum(axis=-1))


def q_half(mats: Sequence[SpdMatrix], w: WeightVector) -> SpdMatrix:
    """Half-power mean ``(sum_j w_j A_j^{1/2})^2``.

    This is the minimiser of the weighted sum of squared root-difference
    distances ``d_1^2`` over the family.
    """
    check_family(mats, w)
    acc = sum(wj * sqrt_entries(a) for wj, a in zip(w.weights, mats))
    return _spd_stack(acc @ acc)

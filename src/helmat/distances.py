"""Hellinger-type distances and divergences on positive definite matrices.

Each distance has the form ``[tr(A) + tr(B) - 2 tr G(A, B)]^{1/2}`` for one
choice of matrix geometric mean ``G``:

* ``D1`` uses ``A^{1/2} B^{1/2}``; the distance equals
  ``||A^{1/2} - B^{1/2}||_2`` and is a metric.
* ``D2`` uses ``(A^{1/2} B A^{1/2})^{1/2}`` (equivalently ``(AB)^{1/2}``);
  this is the Bures-Wasserstein metric.
* ``D3`` uses the Pusz-Woronowicz geometric mean ``A # B``.
* ``D4`` uses the log-Euclidean mean ``exp((log A + log B)/2)``.

``D3`` and ``D4`` violate the triangle inequality, but their squares are
divergences, so they still serve as distance measures.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatchError, InternalConsistencyError
from .linalg import SpdMatrix, sqrt_entries
from .means import fidelity, geometric_mean_entries, log_euclidean_pair

#: Radicand magnitude at or below which the squared distance is reported as
#: exactly zero.  At binary64 the trace formula cannot resolve squared
#: distances at roundoff scale, and for (near-)equal inputs the cancellation
#: error lands on either side of zero; clamping only the negative side would
#: make the distance between equal matrices a coin flip between 0 and ~1e-7.
#: Radicands more negative than -RADICAND_CLAMP abort instead.
RADICAND_CLAMP = 1e-10


class ProbabilityVector:
    """A discrete probability distribution: nonnegative entries summing to one."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Sequence[float]):
        arr = np.asarray(entries, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("probabilities must form a non-empty one-dimensional sequence")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            raise ValueError("probabilities must be finite and nonnegative")
        if abs(arr.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities must sum to 1, got {arr.sum()!r}")
        arr.flags.writeable = False
        self._entries = arr

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    def __len__(self) -> int:
        return self._entries.size


class DistanceKind(enum.Enum):
    """Which geometric mean the Hellinger-type distance is built from."""

    D1 = "d1"
    D2 = "d2"
    D3 = "d3"
    D4 = "d4"


class TraceChain(NamedTuple):
    """The four trace functionals, weakly increasing in this order."""

    geometric: float       # tr(A # B)
    log_euclidean: float   # tr exp((log A + log B)/2)
    root_product: float    # tr(A^{1/2} B^{1/2})
    product_root: float    # tr((A B)^{1/2})


def hellinger(p: ProbabilityVector, q: ProbabilityVector) -> float:
    """Hellinger distance ``(1/sqrt 2) ||sqrt p - sqrt q||_2`` between
    probability vectors.  Zero exactly when ``p == q``; at most one."""
    if len(p) != len(q):
        raise DimensionMismatchError(f"length mismatch: {len(p)} vs {len(q)}")
    diff = np.sqrt(p.entries) - np.sqrt(q.entries)
    return float(np.linalg.norm(diff) / np.sqrt(2.0))


def _mean_trace(kind: DistanceKind, a: SpdMatrix, b: SpdMatrix) -> float:
    if kind is DistanceKind.D1:
        return float(np.trace(sqrt_entries(a) @ sqrt_entries(b)).real)
    if kind is DistanceKind.D2:
        # tr (AB)^{1/2} = tr (A^{1/2} B A^{1/2})^{1/2}, the fidelity.
        return fidelity(a, b)
    if kind is DistanceKind.D3:
        return float(np.trace(geometric_mean_entries(a, b, 0.5)).real)
    if kind is DistanceKind.D4:
        return log_euclidean_pair(a, b).trace()
    raise ValueError(f"unknown distance kind {kind!r}")


def divergence(kind: DistanceKind, a: SpdMatrix, b: SpdMatrix) -> float:
    """Squared distance ``tr(A) + tr(B) - 2 tr G(A, B)``.

    The trace difference is nonnegative in exact arithmetic; values with
    magnitude at most ``RADICAND_CLAMP`` are reported as exactly zero,
    anything below ``-RADICAND_CLAMP`` raises
    :class:`InternalConsistencyError`.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")
    radicand = a.trace() + b.trace() - 2.0 * _mean_trace(kind, a, b)
    if radicand < -RADICAND_CLAMP:
        raise InternalConsistencyError(
            f"{kind.value} squared came out {radicand:.3e} < {-RADICAND_CLAMP:.1e}; "
            "inputs are likely far outside the supported numerical range"
        )
    return radicand if radicand > RADICAND_CLAMP else 0.0


def distance(kind: DistanceKind, a: SpdMatrix, b: SpdMatrix) -> float:
    """Hellinger-type distance of the given kind; symmetric, zero iff ``A == B``."""
    return float(np.sqrt(divergence(kind, a, b)))


def trace_chain(a: SpdMatrix, b: SpdMatrix) -> TraceChain:
    """Traces of the four competing geometric means of ``(A, B)``.

    The returned values are weakly increasing; on a commuting pair all four
    collapse to ``sum_i sqrt(alpha_i beta_i)``.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")
    kinds = (DistanceKind.D3, DistanceKind.D4, DistanceKind.D1, DistanceKind.D2)
    return TraceChain(*(_mean_trace(kind, a, b) for kind in kinds))


def d2_unitary(a: SpdMatrix, b: SpdMatrix) -> tuple[float, np.ndarray]:
    """The Bures-Wasserstein distance as a minimisation over unitaries.

    Returns ``min_U ||A^{1/2} - B^{1/2} U||_2`` together with the optimal
    unitary, which is the unitary polar factor of ``B^{1/2} A^{1/2}``
    (computed from its singular value decomposition).  The minimum value
    coincides with ``distance(D2, A, B)``.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")
    root_a = sqrt_entries(a)
    root_b = sqrt_entries(b)
    u_left, _, vh_right = np.linalg.svd(root_b @ root_a)
    optimal = u_left @ vh_right
    value = float(np.linalg.norm(root_a - root_b @ optimal))
    return value, optimal

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

The four mean traces and the clamped squares are written once over arrays.
:func:`distance`, :func:`divergence`, :func:`trace_chain` and
:func:`chain_divergences` take two :class:`~helmat.linalg.SpdMatrix` values
of one dimension: two single matrices give a float, two stacks over
``(..., n, n)`` (built by :func:`~helmat.linalg._spd_stack`) give one value
per pair, bit for bit what the pair gives alone.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatchError, InternalConsistencyError
from .linalg import (
    SpdMatrix,
    _any,
    _first_failure,
    _per_matrix,
    _require_same_dim,
    _trace,
    sqrt_entries,
)
from .means import (
    _number_vector,
    fidelity,
    geometric_mean_entries,
    log_euclidean_pair,
)

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
        arr = _number_vector(entries, "probabilities")
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


#: The mean trace ``tr G(A, B)`` of each distance kind, in the field order
#: of :class:`TraceChain`.
_MEAN_TRACES = {
    DistanceKind.D3: lambda a, b: _trace(geometric_mean_entries(a, b, 0.5)),
    DistanceKind.D4: lambda a, b: _trace(log_euclidean_pair(a, b).entries),
    DistanceKind.D1: lambda a, b: _trace(sqrt_entries(a) @ sqrt_entries(b)),
    # tr (AB)^{1/2} = tr (A^{1/2} B A^{1/2})^{1/2}, the fidelity.
    DistanceKind.D2: fidelity,
}


def hellinger(p: ProbabilityVector, q: ProbabilityVector) -> float:
    """Hellinger distance ``(1/sqrt 2) ||sqrt p - sqrt q||_2`` between
    probability vectors.  Zero exactly when ``p == q``; at most one."""
    if len(p) != len(q):
        raise DimensionMismatchError(f"length mismatch: {len(p)} vs {len(q)}")
    diff = np.sqrt(p.entries) - np.sqrt(q.entries)
    return float(np.linalg.norm(diff) / np.sqrt(2.0))


def _clamped_square(
    kind: DistanceKind, a: SpdMatrix, b: SpdMatrix, mean_trace: float | np.ndarray
) -> np.ndarray:
    radicand = np.asarray(a.trace() + b.trace() - 2.0 * mean_trace)
    low = radicand < -RADICAND_CLAMP
    if _any(low):
        index, where = _first_failure(low)
        raise InternalConsistencyError(
            f"{where}{kind.value} squared came out {radicand[index]:.3e} < "
            f"{-RADICAND_CLAMP:.1e}; inputs are likely far outside the supported "
            "numerical range"
        )
    return np.where(radicand > RADICAND_CLAMP, radicand, 0.0)


def divergence(kind: DistanceKind, a: SpdMatrix, b: SpdMatrix) -> float | np.ndarray:
    """Squared distance ``tr(A) + tr(B) - 2 tr G(A, B)``, of each pair
    ``(A_i, B_i)`` if ``a`` and ``b`` are stacks.

    The trace difference is nonnegative in exact arithmetic; values with
    magnitude at most ``RADICAND_CLAMP`` are reported as exactly zero,
    anything below ``-RADICAND_CLAMP`` raises
    :class:`InternalConsistencyError`, which names a failing pair of a stack.
    """
    _require_same_dim(a.dim, b.dim)
    return _per_matrix(_clamped_square(kind, a, b, _MEAN_TRACES[kind](a, b)))


def chain_divergences(
    a: SpdMatrix, b: SpdMatrix, chain: TraceChain
) -> list[float] | list[np.ndarray]:
    """The four squared distances, in the order of :class:`TraceChain`
    (``d3^2, d4^2, d1^2, d2^2``), from the traces of ``trace_chain(a, b)``;
    each equals :func:`divergence` of its kind.  On two stacks each entry
    holds one value per pair."""
    return [_per_matrix(_clamped_square(kind, a, b, tr)) for kind, tr in zip(_MEAN_TRACES, chain)]


def distance(kind: DistanceKind, a: SpdMatrix, b: SpdMatrix) -> float | np.ndarray:
    """Hellinger-type distance of the given kind; symmetric, zero iff ``A == B``.
    On two stacks, one distance per pair."""
    return _per_matrix(np.sqrt(divergence(kind, a, b)))


def trace_chain(a: SpdMatrix, b: SpdMatrix) -> TraceChain:
    """Traces of the four competing geometric means of ``(A, B)``; on two
    stacks, one array of traces per field.

    The returned values are weakly increasing; on a commuting pair all four
    collapse to ``sum_i sqrt(alpha_i beta_i)``.
    """
    _require_same_dim(a.dim, b.dim)
    return TraceChain(*(_per_matrix(trace(a, b)) for trace in _MEAN_TRACES.values()))


def d2_unitary(a: SpdMatrix, b: SpdMatrix) -> tuple[float, np.ndarray]:
    """The Bures-Wasserstein distance as a minimisation over unitaries.

    Returns ``min_U ||A^{1/2} - B^{1/2} U||_2`` together with the optimal
    unitary, which is the unitary polar factor of ``B^{1/2} A^{1/2}``
    (computed from its singular value decomposition).  The minimum value
    coincides with ``distance(D2, A, B)``.
    """
    _require_same_dim(a.dim, b.dim)
    root_a = sqrt_entries(a)
    root_b = sqrt_entries(b)
    u_left, _, vh_right = np.linalg.svd(root_b @ root_a)
    optimal = u_left @ vh_right
    value = float(np.linalg.norm(root_a - root_b @ optimal))
    return value, optimal

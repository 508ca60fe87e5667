"""Dense Hermitian/positive-definite matrix values and spectral calculus.

All matrix functions (square root, logarithm, exponential, powers, inverses)
are computed through the eigendecomposition: the matrices handled here are
small and Hermitian, so the spectral mapping is exact up to roundoff and its
eigensystem can be reused for divided-difference derivatives.

Where SPD-ness is checked: ``SpdMatrix(...)`` (user input, CLI files,
congruence means returned as values) runs a checked eigensolve; spectral
results ``V f(Lambda) V*`` are checked on ``f(Lambda)`` (see :class:`SpdMatrix`).

Real input stays real: entries are float64 when the caller gives real (or
integer) arrays and complex128 when the caller gives a complex dtype, and
every kernel (``eigh``, ``@`` and elementwise maps) keeps that dtype, so
real matrices never pay for complex arithmetic.  A mix of real and complex
operands is promoted by numpy itself.

Values are immutable after construction and every operation is a pure
function, so everything in this module is safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import (
    DimensionMismatchError,
    EigenDecompositionError,
    HermitianError,
    NotPositiveDefiniteError,
    SingularMatrixError,
    SpectralDomainError,
)

#: Hermitian defect accepted at construction, relative to the largest entry.
HERMITIAN_RTOL = 1e-12
#: Eigenvalue threshold, relative to the spectral radius, at or below which a
#: matrix is rejected as not SPD.
SPD_RTOL = 1e-12
#: Tolerance on the eigendecomposition invariants (reconstruction, unitarity).
EIG_RECONSTRUCTION_TOL = 1e-10

MatrixLike = Union["HermitianMatrix", "SpdMatrix", np.ndarray]


def as_array(value: MatrixLike) -> np.ndarray:
    """Return the raw square array behind ``value``: complex128 if its dtype
    is complex, float64 otherwise.  The imaginary part is not scanned, so a
    complex array with zero imaginary part stays complex."""
    if isinstance(value, SpdMatrix):
        return value.base.entries
    if isinstance(value, HermitianMatrix):
        return value.entries
    arr = np.asarray(value)
    arr = arr.astype(np.complex128 if arr.dtype.kind == "c" else np.float64, copy=False)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise DimensionMismatchError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def hermitian_part(value: MatrixLike) -> np.ndarray:
    """Exact Hermitian part ``(M + M*)/2`` of a square array."""
    arr = as_array(value)
    return (arr + arr.conj().T) / 2


def frobenius_inner(a: MatrixLike, b: MatrixLike) -> complex:
    """Euclidean inner product ``tr(A* B)`` of two equally sized matrices."""
    arr_a, arr_b = as_array(a), as_array(b)
    if arr_a.shape != arr_b.shape:
        raise DimensionMismatchError(
            f"inner product needs equal shapes, got {arr_a.shape} and {arr_b.shape}"
        )
    return complex(np.sum(arr_a.conj() * arr_b))


def frobenius_norm(value: MatrixLike) -> float:
    """Euclidean norm ``sqrt(tr(M* M))``, always real and nonnegative."""
    return float(np.linalg.norm(as_array(value)))


class HermitianMatrix:
    """An n-by-n Hermitian matrix value: real symmetric (float64) or complex
    Hermitian (complex128), as :func:`as_array` gives it.

    The constructor checks ``M[i, j] == conj(M[j, i])`` up to a defect of
    ``HERMITIAN_RTOL * max |M[i, j]|`` and then symmetrises exactly, so
    roundoff drift at the boundary of validity is removed.  The tolerance is
    relative, so a matrix is accepted or rejected alike at every scale.
    Entries are frozen after construction.
    """

    __slots__ = ("_entries", "_eig")

    def __init__(self, entries: MatrixLike):
        arr = as_array(entries)
        # a NaN or infinite entry makes the largest magnitude non-finite
        scale = float(np.abs(arr).max())
        if not math.isfinite(scale):
            raise HermitianError("matrix entries must be finite")
        adjoint = arr.conj().T
        defect = float(np.abs(arr - adjoint).max())
        if defect > HERMITIAN_RTOL * scale:
            raise HermitianError(
                f"matrix is not Hermitian: max |M[i,j] - conj(M[j,i])| = {defect:.3e} "
                f"exceeds {HERMITIAN_RTOL * scale:.1e} = {HERMITIAN_RTOL:.0e} * max |M[i,j]|"
            )
        sym = (arr + adjoint) / 2
        sym.flags.writeable = False
        self._entries = sym
        self._eig: EigenDecomposition | None = None

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def dim(self) -> int:
        return self._entries.shape[0]

    def eig(self) -> "EigenDecomposition":
        """Eigendecomposition of this matrix, computed once and cached."""
        if self._eig is None:
            self._eig = eigh(self)
        return self._eig

    def trace(self) -> float:
        return float(np.trace(self._entries).real)

    def __repr__(self) -> str:
        return f"HermitianMatrix(dim={self.dim})"


class SpdMatrix:
    """A Hermitian matrix with strictly positive spectrum.

    The positive-definiteness threshold is relative to the spectral radius
    (``SPD_RTOL * |lambda|_max``), so the check is scale invariant: for every
    ``s > 0``, ``s A`` is accepted when ``A`` is, up to roundoff at the
    threshold itself.
    The constructor checks the spectrum of a checked :func:`eigh` and keeps
    it for reuse.  Spectral results ``V f(Lambda) V*`` (:func:`sqrtm`,
    :func:`invm`, :func:`expm`, ...) are checked on ``f(Lambda)`` instead,
    without an eigensolve, and their eigen cache is left empty: a later
    ``.eig()`` runs the checked :func:`eigh` of the entries, bit for bit what
    the constructor would have cached, so reports stay byte-identical.
    """

    __slots__ = ("_base",)

    def __init__(self, base: MatrixLike):
        if not isinstance(base, HermitianMatrix):
            base = HermitianMatrix(base)
        _check_positive(base.eig().eigenvalues)
        self._base = base

    @property
    def base(self) -> HermitianMatrix:
        return self._base

    @property
    def entries(self) -> np.ndarray:
        return self._base.entries

    @property
    def dim(self) -> int:
        return self._base.dim

    def eig(self) -> "EigenDecomposition":
        return self._base.eig()

    def trace(self) -> float:
        return self._base.trace()

    def __repr__(self) -> str:
        return f"SpdMatrix(dim={self.dim})"


def _check_positive(spectrum: np.ndarray) -> None:
    """Raise unless all of ``spectrum``, in any order, is above the threshold."""
    threshold = SPD_RTOL * float(np.abs(spectrum).max())
    smallest = float(spectrum.min())
    if smallest <= threshold:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite: smallest eigenvalue "
            f"{smallest:.6e} is not above the threshold {threshold:.1e}"
        )


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectrum and unitary eigenbasis of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` holds the
    corresponding orthonormal eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def synthesize(self, values: np.ndarray) -> np.ndarray:
        """Assemble ``V diag(values) V*`` in this eigenbasis."""
        v = self.eigenvectors
        return (v * np.asarray(values)) @ v.conj().T


def eigh(h: MatrixLike) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    Raises
    ------
    EigenDecompositionError
        If the eigensolver does not converge or the factorisation fails the
        reconstruction/unitarity invariants.  Never fails silently.
    """
    if not isinstance(h, (HermitianMatrix, SpdMatrix)):
        h = HermitianMatrix(h)
    arr = h.entries
    try:
        values, vectors = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as exc:
        raise EigenDecompositionError(f"eigensolver failed to converge: {exc}") from exc
    eig = EigenDecomposition(eigenvalues=values, eigenvectors=vectors)
    scale = max(1.0, float(np.linalg.norm(arr)))
    recon = np.linalg.norm(eig.synthesize(values) - arr)
    if recon > EIG_RECONSTRUCTION_TOL * scale:
        raise EigenDecompositionError(
            f"eigendecomposition reconstruction defect {recon:.3e} exceeds tolerance"
        )
    unit = np.linalg.norm(vectors.conj().T @ vectors - np.eye(eig.dim))
    if unit > EIG_RECONSTRUCTION_TOL:
        raise EigenDecompositionError(
            f"eigenvector matrix is not unitary: defect {unit:.3e}"
        )
    return eig


def apply_spectral(f: Callable[[np.ndarray], np.ndarray], h: MatrixLike) -> HermitianMatrix:
    """Apply a real scalar function to a Hermitian matrix through its spectrum.

    Returns ``V f(Lambda) V*``, which commutes with the input.

    Raises
    ------
    SpectralDomainError
        If ``f`` is undefined (non-finite) at some eigenvalue, naming the
        offending eigenvalue.
    """
    if not isinstance(h, (HermitianMatrix, SpdMatrix)):
        h = HermitianMatrix(h)
    eig = h.eig()
    with np.errstate(all="ignore"):
        mapped = np.asarray(f(eig.eigenvalues), dtype=float)
    if mapped.shape != eig.eigenvalues.shape:
        raise SpectralDomainError("scalar function must map the spectrum elementwise")
    bad = ~np.isfinite(mapped)
    if np.any(bad):
        offender = float(eig.eigenvalues[np.argmax(bad)])
        raise SpectralDomainError(
            f"scalar function is undefined at eigenvalue {offender!r}"
        )
    return HermitianMatrix(hermitian_part(eig.synthesize(mapped)))


def _spd_spectral(f: Callable[[np.ndarray], np.ndarray], h: MatrixLike) -> SpdMatrix:
    """``V f(Lambda) V*`` as an SPD value checked on ``f(Lambda)`` (see
    :class:`SpdMatrix`)."""
    if not isinstance(h, (HermitianMatrix, SpdMatrix)):
        h = HermitianMatrix(h)
    result = SpdMatrix.__new__(SpdMatrix)
    result._base = apply_spectral(f, h)
    _check_positive(f(h.eig().eigenvalues))
    return result


def sqrtm(a: SpdMatrix) -> SpdMatrix:
    """Positive-definite square root ``A^{1/2}``."""
    return _spd_spectral(np.sqrt, a)


def inv_sqrtm(a: SpdMatrix) -> SpdMatrix:
    """Positive-definite inverse square root ``A^{-1/2}``."""
    return _spd_spectral(lambda x: 1.0 / np.sqrt(x), a)


def invm(a: SpdMatrix) -> SpdMatrix:
    """Inverse ``A^{-1}`` of a positive definite matrix."""
    return _spd_spectral(lambda x: 1.0 / x, a)


def logm(a: SpdMatrix) -> HermitianMatrix:
    """Principal logarithm of a positive definite matrix."""
    return apply_spectral(np.log, a)


def expm(h: MatrixLike) -> SpdMatrix:
    """Matrix exponential of a Hermitian matrix, always positive definite."""
    return _spd_spectral(np.exp, h)


def sqrt_entries(a: SpdMatrix) -> np.ndarray:
    """Raw array of ``A^{1/2}``, reusing the cached eigensystem (no rewrap)."""
    eig = a.eig()
    return eig.synthesize(np.sqrt(eig.eigenvalues))


def sqrt_pair_entries(a: SpdMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Raw arrays of ``A^{1/2}`` and ``A^{-1/2}`` from one eigensystem."""
    eig = a.eig()
    roots = np.sqrt(eig.eigenvalues)
    return eig.synthesize(roots), eig.synthesize(1.0 / roots)


def product_sqrt(a: SpdMatrix, b: SpdMatrix) -> np.ndarray:
    """Square root of the product ``AB`` with positive eigenvalues.

    ``AB`` is not Hermitian unless ``A`` and ``B`` commute, but its
    eigenvalues are positive, and it has a unique square root with positive
    eigenvalues:  ``A^{1/2} (A^{1/2} B A^{1/2})^{1/2} A^{-1/2}``.  The result
    is similar to ``(A^{1/2} B A^{1/2})^{1/2}`` and shares its eigenvalues.
    """
    _require_same_dim(a, b)
    root, inv_root = sqrt_pair_entries(a)
    inner = sqrt_entries(SpdMatrix(hermitian_part(root @ b.entries @ root)))
    return root @ inner @ inv_root


def congruence(k: MatrixLike, a: SpdMatrix) -> SpdMatrix:
    """Congruence transform ``K A K*`` of a positive definite matrix.

    Raises
    ------
    SingularMatrixError
        If the smallest singular value of ``K`` is not above
        ``1e-12`` times the largest.
    """
    karr = as_array(k)
    if karr.shape[0] != a.dim:
        raise DimensionMismatchError(
            f"congruence factor is {karr.shape[0]}x{karr.shape[1]} "
            f"but the matrix has dimension {a.dim}"
        )
    singular_values = np.linalg.svd(karr, compute_uv=False)
    if singular_values[-1] <= 1e-12 * singular_values[0]:
        raise SingularMatrixError(
            f"congruence factor is numerically singular "
            f"(sigma_min/sigma_max = {singular_values[-1] / singular_values[0]:.3e})"
        )
    return SpdMatrix(hermitian_part(karr @ a.entries @ karr.conj().T))


def identity(dim: int) -> SpdMatrix:
    """The identity matrix as an SPD value."""
    return SpdMatrix(np.eye(dim))


def _require_same_dim(*mats: MatrixLike) -> None:
    dims = [as_array(m).shape[0] for m in mats]
    if len(set(dims)) > 1:
        raise DimensionMismatchError(f"matrices must share one dimension, got {dims}")

"""Dense Hermitian/positive-definite matrix values and spectral calculus.

All matrix functions (square root, logarithm, exponential, powers, inverses)
are computed through the eigendecomposition: the matrices handled here are
small and Hermitian, so the spectral mapping is exact up to roundoff and its
eigensystem can be reused for divided-difference derivatives.

Where input is checked: the public constructors ``HermitianMatrix(...)``
and ``SpdMatrix(...)`` are the input boundary.  They take one n-by-n matrix
the library did not compute (user input, CLI files, test data), check that
it is finite and Hermitian up to ``HERMITIAN_RTOL``, and ``SpdMatrix`` runs
the checked eigensolve and the SPD threshold.  Values the library computes
are built by :func:`_hermitian_stack` and :func:`_spd_stack` instead, from
one matrix or a stack ``(..., n, n)``: they take the exact Hermitian part
themselves, so no defect is scanned for, check that the entries are finite
and, for SPD values, run the checked eigensolve and the threshold.
Spectral results ``V f(Lambda) V*`` are checked on ``f(Lambda)`` instead of
by an eigensolve (see :class:`SpdMatrix`).

Every check and kernel is defined once, over stacks ``(..., n, n)``: the
finiteness check, the Hermitian check of input, the checked eigensolve with
its reconstruction and unitarity invariants, the SPD threshold, the
synthesis ``V diag(f) V*`` and the spectral map.  A value holds one matrix
or a stack: :class:`HermitianMatrix` and :class:`SpdMatrix` (a
:class:`HermitianMatrix` whose spectrum also passed the SPD threshold) are
built from one matrix by their public constructors and from a stack by the
builders, with one stacked eigensolve.  ``dim`` is ``n`` and ``.trace()``
gives one value per matrix: a float for one matrix, an array for a stack.
numpy's ``eigh``, ``qr``, ``@`` and reductions give each matrix of a stack
the same bits as a call on that matrix alone, so a stack is checked and
mapped exactly as its slices would be one by one.  A check that fails on a
stack raises the error class of the single-matrix check and names the first
failing slice.

Real input stays real: entries are float64 when the caller gives real (or
integer) arrays and complex128 when the caller gives a complex dtype, and
every kernel (``eigh``, ``@`` and elementwise maps) keeps that dtype, so
real matrices never pay for complex arithmetic.  A mix of real and complex
operands is promoted by numpy itself.

Each value keeps a memo (see :func:`_memoized`): its eigensystem and the
spectral functions every distance is built from, ``A^{1/2}`` and
``A^{-1/2}`` (:func:`sqrt_entries`, :func:`sqrt_pair_entries`) and
``log A`` (:func:`logm`), each computed on first use from the one
eigensystem, ``V f(Lambda) V*``, and kept read-only.  The first use runs
the checks it always ran, and later uses return those same bits, so a
value reused across calls pays for each function once and reports do not
change.  ``SpdMatrix(h)`` shares the memo of ``h``.

Values are immutable after construction and every operation is a pure
function, so everything in this module is safe for concurrent use: two
threads that make the first request for a memo entry compute the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
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
#: Tolerance on the eigendecomposition invariants: the largest entry of the
#: reconstruction defect relative to the spectral norm of the matrix, and the
#: largest entry of the unitarity defect.
EIG_RECONSTRUCTION_TOL = 1e-10

MatrixLike = Union["HermitianMatrix", np.ndarray]


def _as_stack(value: MatrixLike) -> np.ndarray:
    """The raw array behind ``value``, square in its last two axes, with any
    number of leading axes: complex128 if its dtype is complex, float64
    otherwise.  The imaginary part is not scanned, so a complex array with
    zero imaginary part stays complex."""
    if isinstance(value, HermitianMatrix):
        return value.entries
    arr = np.asarray(value)
    arr = arr.astype(np.complex128 if arr.dtype.kind == "c" else np.float64, copy=False)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2] or arr.shape[-1] == 0:
        raise DimensionMismatchError(f"expected square matrices, got shape {arr.shape}")
    return arr


def as_array(value: MatrixLike) -> np.ndarray:
    """The raw square array behind ``value``, as :func:`_as_stack` gives it,
    for a single matrix."""
    arr = _as_stack(value)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _number_array(values) -> np.ndarray | None:
    """``values`` as a new float64 array when they are an array of numbers,
    as a JSON array of numbers is: ints and floats in nested lists of one
    shape, or a numpy array of integer or float dtype.  ``None`` otherwise:
    a bool, string, null or object is not a number even where numpy would
    convert it, and neither is ragged nesting or an int beyond the float
    range."""
    leaves = np.array(values, dtype=object).ravel()
    if not all(issubclass(t, (int, float, np.integer, np.floating)) and t is not bool
               for t in set(map(type, leaves))):
        return None
    try:
        return np.array(values, dtype=float)
    except OverflowError:
        return None


def hermitian_part(value: MatrixLike) -> np.ndarray:
    """Exact Hermitian part ``(M + M*)/2`` of each square matrix."""
    arr = _as_stack(value)
    return (arr + _adjoint(arr)) / 2


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


def _frobenius_norms(arr: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each matrix, bit for bit: the same BLAS dot of
    its entries in row order (of the real and the imaginary parts, for
    complex entries), one per matrix."""
    flat = arr.reshape(*arr.shape[:-2], 1, arr.shape[-2] * arr.shape[-1])
    parts = (flat.real, flat.imag) if arr.dtype.kind == "c" else (flat,)
    return np.sqrt(sum((part @ _adjoint(part))[..., 0, 0] for part in parts))


def _per_matrix(values: np.ndarray) -> float | bool | np.ndarray:
    """One value per matrix: a Python scalar (a float, or a bool for
    flags) for a single matrix, the array for a stack."""
    values = np.asarray(values)
    return values if values.ndim else values.item()


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr``, made read-only."""
    arr.flags.writeable = False
    return arr


def _adjoint(arr: np.ndarray) -> np.ndarray:
    return arr.conj().swapaxes(-1, -2)


def _trace(arr: np.ndarray) -> np.ndarray:
    """Real part of the trace of each matrix."""
    return arr.trace(axis1=-2, axis2=-1).real


def _largest_entry(arr: np.ndarray) -> np.ndarray:
    """Largest entry magnitude of each matrix (NaN if it holds a NaN)."""
    return np.maximum.reduce(np.abs(arr), axis=(-2, -1))


def _any(flags: np.ndarray) -> bool:
    """Whether any flag is set: one per matrix, or a numpy scalar for a
    single matrix, where the plain truth test is the cheap one."""
    return bool(np.count_nonzero(flags)) if flags.ndim else bool(flags)


def _first_failure(bad: np.ndarray) -> tuple[tuple[int, ...], str]:
    """Index of the first failing matrix and the message prefix that names
    it: ``()`` and no prefix for a single matrix."""
    index = tuple(int(i) for i in np.unravel_index(int(np.argmax(bad)), np.shape(bad)))
    return index, (f"slice {', '.join(map(str, index))}: " if index else "")


def _finite_scale(arr: np.ndarray) -> np.ndarray:
    """Largest entry magnitude of each matrix.

    Raises
    ------
    HermitianError
        On a non-finite entry.
    """
    # a NaN or infinite entry makes the largest magnitude non-finite
    scale = _largest_entry(arr)
    infinite = ~(scale < np.inf)
    if _any(infinite):
        _, where = _first_failure(infinite)
        raise HermitianError(f"{where}matrix entries must be finite")
    return scale


def _hermitian_checked(arr: np.ndarray) -> np.ndarray:
    """Check that each matrix is finite and Hermitian up to a defect of
    ``HERMITIAN_RTOL * max |M[i, j]|``, and return the exact Hermitian parts.

    Raises
    ------
    HermitianError
        On a non-finite entry or a larger defect.
    """
    scale = _finite_scale(arr)
    adjoint = _adjoint(arr)
    defect = _largest_entry(arr - adjoint)
    bad = defect > HERMITIAN_RTOL * scale
    if _any(bad):
        index, where = _first_failure(bad)
        limit = HERMITIAN_RTOL * scale[index]
        raise HermitianError(
            f"{where}matrix is not Hermitian: max |M[i,j] - conj(M[j,i])| = "
            f"{defect[index]:.3e} exceeds {limit:.1e} = {HERMITIAN_RTOL:.0e} * max |M[i,j]|"
        )
    return (arr + adjoint) / 2


class HermitianMatrix:
    """An n-by-n Hermitian matrix value: real symmetric (float64) or complex
    Hermitian (complex128), as :func:`as_array` gives it.  Values the
    library computes (see :func:`_hermitian_stack`) may hold a stack
    ``(..., n, n)`` instead; the constructor accepts one matrix only.

    The constructor checks ``M[i, j] == conj(M[j, i])`` up to a defect of
    ``HERMITIAN_RTOL * max |M[i, j]|`` and then symmetrises exactly, so
    roundoff drift at the boundary of validity is removed.  The tolerance is
    relative, so a matrix is accepted or rejected alike at every scale.
    Entries are frozen after construction.  The memo (see :func:`_memoized`)
    holds what is derived from them.
    """

    __slots__ = ("_entries", "_memo")

    def __init__(self, entries: MatrixLike):
        self._entries = _frozen(_hermitian_checked(as_array(entries)))
        self._memo: dict = {}

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def dim(self) -> int:
        return self._entries.shape[-1]

    def eig(self) -> "EigenDecomposition":
        """Eigendecomposition of this matrix (of each matrix of a stack),
        computed once and kept in the memo (see :func:`_memoized`)."""
        return _memoized(self, _eigensystem)

    def trace(self) -> float | np.ndarray:
        return _per_matrix(_trace(self._entries))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(shape={self._entries.shape})"


def _memoized(h: HermitianMatrix, compute: Callable[[HermitianMatrix], object]):
    """``compute(h)``, run at the first request and kept in ``h``'s memo,
    keyed by ``compute`` (:func:`_eigensystem`, :func:`_root`,
    :func:`_inverse_root` or :func:`_log`): later requests return that same
    object, whose arrays are read-only.  Nothing is evicted; the memo lives
    as long as the value."""
    value = h._memo.get(compute)
    if value is None:
        value = h._memo[compute] = compute(h)
    return value


def _eigensystem(h: HermitianMatrix) -> "EigenDecomposition":
    """The eigensystem's memo entry.  A function of its own, not ``eigh``,
    so the key stays put when ``eigh`` is wrapped, as the benchmark's
    tracer wraps it."""
    return eigh(h)


def _hermitian(h: MatrixLike) -> HermitianMatrix:
    """``h`` itself if it is a Hermitian value, else ``h`` checked as one."""
    return h if isinstance(h, HermitianMatrix) else HermitianMatrix(h)


def _hermitian_stack(arrays: MatrixLike, cls: type = HermitianMatrix) -> HermitianMatrix:
    """A value of ``cls`` over ``(..., n, n)`` built from arrays the library
    computed: their exact Hermitian parts, checked finite, with an empty
    memo.  No Hermitian defect is scanned for: such arrays are
    Hermitian up to roundoff by construction, and the part of an array that
    is already exactly Hermitian is that array bit for bit.

    Raises
    ------
    HermitianError
        On a non-finite entry, which overflow can make.
    """
    sym = hermitian_part(arrays)
    _finite_scale(sym)
    value = cls.__new__(cls)
    value._entries, value._memo = _frozen(sym), {}
    return value


class SpdMatrix(HermitianMatrix):
    """A :class:`HermitianMatrix` whose spectrum is strictly positive.

    The positive-definiteness threshold is relative to the spectral radius
    (``SPD_RTOL * |lambda|_max``), so the check is scale invariant: for every
    ``s > 0``, ``s A`` is accepted when ``A`` is, up to roundoff at the
    threshold itself.
    The constructor checks the spectrum of a checked :func:`eigh` and keeps
    it for reuse.  Spectral results ``V f(Lambda) V*`` (:func:`sqrtm`,
    :func:`invm`, :func:`expm`, ...) are checked on ``f(Lambda)`` instead,
    without an eigensolve, and their memo is left empty: a later
    ``.eig()`` runs the checked :func:`eigh` of the entries, bit for bit what
    the constructor would have cached, so reports stay byte-identical.
    Given a :class:`HermitianMatrix` of one matrix (an :class:`SpdMatrix`
    included), the constructor shares its frozen entries and its memo, so
    the two values compute their eigensystem, ``A^{1/2}``, ``A^{-1/2}`` and
    ``log A`` once between them; the eigensystem is computed only if that
    value has not memoized it yet.
    """

    __slots__ = ()

    def __init__(self, entries: MatrixLike):
        if isinstance(entries, HermitianMatrix):
            self._entries, self._memo = as_array(entries), entries._memo
        else:
            super().__init__(entries)
        _check_positive(self.eig().eigenvalues)


def _spd_stack(arrays: MatrixLike) -> SpdMatrix:
    """An :class:`SpdMatrix` over ``(..., n, n)`` built from arrays the
    library computed, as :func:`_hermitian_stack` builds it, whose checked
    eigensolve (one for the stack, kept for reuse) passed the SPD threshold,
    so the array formulas of the means and distances give one value per
    matrix."""
    value = _hermitian_stack(arrays, SpdMatrix)
    _check_positive(value.eig().eigenvalues)
    return value


def _check_positive(spectrum: np.ndarray) -> None:
    """Raise unless every spectrum (last axis, in any order) is above the
    threshold."""
    threshold = SPD_RTOL * np.maximum.reduce(np.abs(spectrum), axis=-1)
    smallest = np.minimum.reduce(spectrum, axis=-1)
    bad = smallest <= threshold
    if _any(bad):
        index, where = _first_failure(bad)
        raise NotPositiveDefiniteError(
            f"{where}matrix is not positive definite: smallest eigenvalue "
            f"{smallest[index]:.6e} is not above the threshold {threshold[index]:.1e}"
        )


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectra and unitary eigenbases of Hermitian matrices.

    ``eigenvalues`` are real and ascending along the last axis;
    ``eigenvectors`` holds the corresponding orthonormal eigenvectors as
    columns.  Leading axes, if any, index the matrices of a stack.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[-1]

    def synthesize(self, values: np.ndarray) -> np.ndarray:
        """Assemble ``V diag(values) V*`` in this eigenbasis."""
        v = self.eigenvectors
        return (v * values[..., None, :]) @ _adjoint(v)


def _checked_eigh(arr: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of each Hermitian matrix of ``arr``, checked
    against the reconstruction and unitarity invariants; see :func:`eigh`."""
    try:
        values, vectors = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as exc:
        raise EigenDecompositionError(f"eigensolver failed to converge: {exc}") from exc
    eig = EigenDecomposition(eigenvalues=_frozen(values), eigenvectors=_frozen(vectors))
    # largest entries, not squared norms, so nothing overflows or underflows
    # and the check is the same at every scale; a NaN anywhere fails it.
    # ||H||_2 is the larger of -lambda_min and lambda_max (ascending order)
    limit = EIG_RECONSTRUCTION_TOL * np.maximum(-values[..., 0], values[..., -1])
    recon = _largest_entry(eig.synthesize(values) - arr)
    bad = ~(recon <= limit)
    if _any(bad):
        index, where = _first_failure(bad)
        raise EigenDecompositionError(
            f"{where}eigendecomposition reconstruction defect {recon[index]:.3e} "
            f"exceeds {limit[index]:.3e} = {EIG_RECONSTRUCTION_TOL:.0e} * ||H||_2"
        )
    unit = _largest_entry(_adjoint(vectors) @ vectors - _identity(eig.dim))
    bad = unit > EIG_RECONSTRUCTION_TOL
    if _any(bad):
        index, where = _first_failure(bad)
        raise EigenDecompositionError(
            f"{where}eigenvector matrix is not unitary: defect {unit[index]:.3e}"
        )
    return eig


@cache
def _identity(n: int) -> np.ndarray:
    """The read-only n-by-n identity, made once per size."""
    return _frozen(np.eye(n))


def eigh(h: MatrixLike) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    Raises
    ------
    EigenDecompositionError
        If the eigensolver does not converge or the factorisation fails the
        invariants: a reconstruction defect ``max |(V Lambda V* - H)[i, j]|``
        above ``EIG_RECONSTRUCTION_TOL * ||H||_2`` (relative, and no square
        is formed, so it is the same at every scale; a NaN in the
        factorisation fails it) or a unitarity defect
        ``max |(V* V - I)[i, j]|`` above ``EIG_RECONSTRUCTION_TOL``.  Never
        fails silently.
    """
    return _checked_eigh(_hermitian(h).entries)


def _check_defined(bad: np.ndarray, eigenvalues: np.ndarray, what: str) -> None:
    """The one check that a spectral map is defined: ``bad`` flags the
    eigenvalues (or the kernel rows) where it is not, with the shape of
    ``eigenvalues``.

    Raises
    ------
    SpectralDomainError
        If any flag is set, naming the first failing slice of a stack and
        the first flagged eigenvalue in it: ``"{what} eigenvalue {value}"``.
    """
    if _any(bad):
        index, where = _first_failure(bad.any(axis=-1))
        offender = float(eigenvalues[index][np.argmax(bad[index])])
        raise SpectralDomainError(f"{where}{what} eigenvalue {offender!r}")


def _spectral(
    f: Callable[[np.ndarray], np.ndarray], h: MatrixLike, cls: type
) -> HermitianMatrix:
    """``V f(Lambda) V*`` for each eigensystem of ``h``, built as a value of
    ``cls`` by :func:`_hermitian_stack`; for :class:`SpdMatrix`,
    ``f(Lambda)`` must also pass the SPD threshold.

    Raises
    ------
    SpectralDomainError
        If ``f`` is undefined (non-finite) at some eigenvalue, naming the
        offending eigenvalue.
    """
    eig = _hermitian(h).eig()
    with np.errstate(all="ignore"):
        mapped = np.asarray(f(eig.eigenvalues), dtype=float)
    if mapped.shape != eig.eigenvalues.shape:
        raise SpectralDomainError("scalar function must map the spectrum elementwise")
    _check_defined(~np.isfinite(mapped), eig.eigenvalues, "scalar function is undefined at")
    value = _hermitian_stack(eig.synthesize(mapped), cls)
    if cls is SpdMatrix:
        _check_positive(mapped)
    return value


def apply_spectral(f: Callable[[np.ndarray], np.ndarray], h: MatrixLike) -> HermitianMatrix:
    """Apply a real scalar function to a Hermitian matrix through its spectrum.

    Returns ``V f(Lambda) V*``, which commutes with the input.

    Raises
    ------
    SpectralDomainError
        If ``f`` is undefined (non-finite) at some eigenvalue, naming the
        offending eigenvalue.
    """
    return _spectral(f, h, HermitianMatrix)


def _spd_spectral(f: Callable[[np.ndarray], np.ndarray], h: MatrixLike) -> SpdMatrix:
    """``V f(Lambda) V*`` as an SPD value checked on ``f(Lambda)`` (see
    :class:`SpdMatrix`)."""
    return _spectral(f, h, SpdMatrix)


def sqrtm(a: SpdMatrix) -> SpdMatrix:
    """Positive-definite square root ``A^{1/2}``."""
    return _spd_spectral(np.sqrt, a)


def invm(a: SpdMatrix) -> SpdMatrix:
    """Inverse ``A^{-1}`` of a positive definite matrix."""
    return _spd_spectral(lambda x: 1.0 / x, a)


def _log(h: HermitianMatrix) -> HermitianMatrix:
    return apply_spectral(np.log, h)


def logm(a: SpdMatrix) -> HermitianMatrix:
    """Principal logarithm of a positive definite matrix, kept in its memo."""
    return _memoized(_hermitian(a), _log)


def expm(h: MatrixLike) -> SpdMatrix:
    """Matrix exponential of a Hermitian matrix, always positive definite."""
    return _spd_spectral(np.exp, h)


def _root(h: HermitianMatrix) -> np.ndarray:
    """The memo entry ``A^{1/2}``: the raw product ``V Lambda^{1/2} V*``
    (no rewrap), read-only."""
    eig = h.eig()
    return _frozen(eig.synthesize(np.sqrt(eig.eigenvalues)))


def _inverse_root(h: HermitianMatrix) -> np.ndarray:
    """The memo entry ``A^{-1/2}``, as :func:`_root` builds ``A^{1/2}``."""
    eig = h.eig()
    return _frozen(eig.synthesize(1.0 / np.sqrt(eig.eigenvalues)))


def sqrt_entries(a: SpdMatrix) -> np.ndarray:
    """Raw read-only array of ``A^{1/2}``, kept in ``a``'s memo."""
    return _memoized(a, _root)


def sqrt_pair_entries(a: SpdMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Raw read-only arrays of ``A^{1/2}`` and ``A^{-1/2}``, kept in
    ``a``'s memo."""
    return _memoized(a, _root), _memoized(a, _inverse_root)


def product_sqrt(a: SpdMatrix, b: SpdMatrix) -> np.ndarray:
    """Square root of the product ``AB`` with positive eigenvalues.

    ``AB`` is not Hermitian unless ``A`` and ``B`` commute, but its
    eigenvalues are positive, and it has a unique square root with positive
    eigenvalues:  ``A^{1/2} (A^{1/2} B A^{1/2})^{1/2} A^{-1/2}``.  The result
    is similar to ``(A^{1/2} B A^{1/2})^{1/2}`` and shares its eigenvalues.
    On stacks ``a`` and ``b`` it gives one root per pair.
    """
    _require_same_dim(a.dim, b.dim)
    root, inv_root = sqrt_pair_entries(a)
    inner = sqrt_entries(_spd_stack(root @ b.entries @ root))
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
    return _spd_stack(karr @ a.entries @ karr.conj().T)


def _require_same_dim(dim: int, *others: int) -> None:
    """The one check that operands share a dimension: each of ``others``
    equals ``dim``."""
    for other in others:
        if other != dim:
            raise DimensionMismatchError(f"dimension mismatch: {dim} vs {other}")

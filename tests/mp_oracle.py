"""A 50-digit reference for the four Hellinger-type squared distances, the
means they are built from, the two-point barycentres and the tracial
Bregman divergences, computed with mpmath.

Every function takes binary64 numpy arrays, real or complex Hermitian,
and reads their entries exactly.  Spectral functions come from one
eigensolve of mpmath's (``mp.eigsy`` for real symmetric input,
``mp.eighe`` for complex Hermitian input), ``f(M) = V f(Lambda) V*``, all
at 50 significant digits.  So a result is the true value for the matrices
the library computes on, with some 30 digits to spare after the trace
formula's cancellation at the smallest gaps the tests use.
"""

from __future__ import annotations

import functools

import numpy as np
from mpmath import mp

#: Significant decimal digits of every computation here.
DIGITS = 50


def _at_working_precision(fn):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        with mp.workdps(DIGITS):
            return fn(*args, **kwargs)
    return wrapped


def _matrix(arr) -> mp.matrix:
    """The exact entries of a binary64 array as an mpmath matrix: real
    (``mpf``) for a real dtype, complex (``mpc``) for a complex one."""
    arr = np.asarray(arr)
    entry = mp.mpc if arr.dtype.kind == "c" else mp.mpf
    return mp.matrix([[entry(x) for x in row] for row in arr.tolist()])


def _is_complex(m: mp.matrix) -> bool:
    return any(isinstance(m[i, j], mp.mpc) for i in range(m.rows) for j in range(m.cols))


class _Eigensystem:
    """``M = V diag(lambda) V*`` of the Hermitian part of ``M``."""

    def __init__(self, m: mp.matrix):
        hermitian = (m + m.H) / 2
        solve = mp.eighe if _is_complex(hermitian) else mp.eigsy
        self.values, self.vectors = solve(hermitian)

    def apply(self, f) -> mp.matrix:
        """``f(M) = V diag(f(lambda)) V*``."""
        v = self.vectors
        return v * mp.diag([f(x) for x in self.values]) * v.H


def _trace(m: mp.matrix) -> mp.mpf:
    return mp.re(sum(m[i, i] for i in range(m.rows)))


def _to_numpy(m: mp.matrix, complex_entries: bool) -> np.ndarray:
    """``m`` rounded to binary64: complex128 or float64."""
    convert = complex if complex_entries else (lambda x: float(mp.re(x)))
    return np.array([[convert(m[i, j]) for j in range(m.cols)] for i in range(m.rows)])


@_at_working_precision
def sqrtm(a) -> np.ndarray:
    """``A^{1/2}``, rounded to binary64."""
    return _to_numpy(_Eigensystem(_matrix(a)).apply(mp.sqrt), np.iscomplexobj(a))


@_at_working_precision
def logm(a) -> np.ndarray:
    """``log A``, rounded to binary64."""
    return _to_numpy(_Eigensystem(_matrix(a)).apply(mp.log), np.iscomplexobj(a))


def _geometric_mean(root_a: mp.matrix, inv_root_a: mp.matrix, b: mp.matrix) -> mp.matrix:
    """``A # B = A^{1/2} (A^{-1/2} B A^{-1/2})^{1/2} A^{1/2}``."""
    return root_a * _Eigensystem(inv_root_a * b * inv_root_a).apply(mp.sqrt) * root_a


def _log_euclidean_mean(eig_a: _Eigensystem, eig_b: _Eigensystem) -> mp.matrix:
    """``exp((log A + log B) / 2)``."""
    return _Eigensystem((eig_a.apply(mp.log) + eig_b.apply(mp.log)) / 2).apply(mp.exp)


@_at_working_precision
def geometric_mean(a, b) -> np.ndarray:
    """``A # B``, rounded to binary64."""
    eig_a = _Eigensystem(_matrix(a))
    mean = _geometric_mean(eig_a.apply(mp.sqrt), eig_a.apply(lambda x: 1 / mp.sqrt(x)),
                           _matrix(b))
    return _to_numpy(mean, np.iscomplexobj(a) or np.iscomplexobj(b))


@_at_working_precision
def log_euclidean_mean(a, b) -> np.ndarray:
    """``exp((log A + log B) / 2)``, rounded to binary64."""
    mean = _log_euclidean_mean(_Eigensystem(_matrix(a)), _Eigensystem(_matrix(b)))
    return _to_numpy(mean, np.iscomplexobj(a) or np.iscomplexobj(b))


@_at_working_precision
def two_point_barycentre(kind: str, a, b) -> np.ndarray:
    """The equal-weight barycentre of ``(A, B)``, rounded to binary64:
    ``(A + B + (AB)^{1/2} + (BA)^{1/2}) / 4`` for ``"wasserstein"`` and
    ``(A + B + 2 A # B) / 4`` for ``"power-half"``, with
    ``(AB)^{1/2} = A^{1/2} (A^{1/2} B A^{1/2})^{1/2} A^{-1/2}`` and
    ``(BA)^{1/2}`` its adjoint."""
    ma, mb = _matrix(a), _matrix(b)
    eig_a = _Eigensystem(ma)
    root_a, inv_root_a = eig_a.apply(mp.sqrt), eig_a.apply(lambda x: 1 / mp.sqrt(x))
    if kind == "wasserstein":
        cross = root_a * _Eigensystem(root_a * mb * root_a).apply(mp.sqrt) * inv_root_a
        cross = cross + cross.H
    else:
        cross = 2 * _geometric_mean(root_a, inv_root_a, mb)
    return _to_numpy((ma + mb + cross) / 4, np.iscomplexobj(a) or np.iscomplexobj(b))


#: The mother functions of :func:`bregman`, ``psi`` and ``psi'``, keyed by
#: the library's names for them.
_MOTHERS = {
    "entropy": (lambda x: x * mp.log(x) - x, mp.log),
    "square": (lambda x: x * x / 2, lambda x: x),
    "power_1.5": (lambda x: x * mp.sqrt(x), lambda x: 3 * mp.sqrt(x) / 2),
}


@_at_working_precision
def bregman(name: str, a, b) -> mp.mpf:
    """The tracial Bregman divergence ``tr psi(A) - tr psi(B) -
    tr psi'(B)(A - B)`` of the mother function ``name`` (``"entropy"``,
    ``"square"`` or ``"power_1.5"``), as a 50-digit number."""
    psi, dpsi = _MOTHERS[name]
    ma, mb = _matrix(a), _matrix(b)
    eig_a, eig_b = _Eigensystem(ma), _Eigensystem(mb)
    return (sum(psi(x) for x in eig_a.values) - sum(psi(x) for x in eig_b.values)
            - _trace(eig_b.apply(dpsi) * (ma - mb)))


@_at_working_precision
def divergences(a, b) -> dict[str, mp.mpf]:
    """``d^2(A, B) = tr A + tr B - 2 tr G(A, B)`` of each kind, keyed
    ``"d1"`` to ``"d4"``, as 50-digit numbers.

    ``G`` is ``A^{1/2} B^{1/2}`` (d1), the fidelity root
    ``(A^{1/2} B A^{1/2})^{1/2}`` (d2), ``A # B`` (d3) and the log-Euclidean
    mean (d4).  Five eigensolves serve all four: those of ``A``, ``B``,
    ``A^{1/2} B A^{1/2}``, ``A^{-1/2} B A^{-1/2}`` and
    ``(log A + log B) / 2``.
    """
    ma, mb = _matrix(a), _matrix(b)
    eig_a, eig_b = _Eigensystem(ma), _Eigensystem(mb)
    root_a = eig_a.apply(mp.sqrt)
    means = {
        "d1": root_a * eig_b.apply(mp.sqrt),
        "d2": _Eigensystem(root_a * mb * root_a).apply(mp.sqrt),
        "d3": _geometric_mean(root_a, eig_a.apply(lambda x: 1 / mp.sqrt(x)), mb),
        "d4": _log_euclidean_mean(eig_a, eig_b),
    }
    total = _trace(ma) + _trace(mb)
    return {kind: total - 2 * _trace(mean) for kind, mean in means.items()}


def _mean_terms(kind: str, eig_x: _Eigensystem, family: list) -> list:
    """``G(X, A_j)`` of a barycentre kind for each ``A_j`` of ``family``:
    ``(X^{1/2} A X^{1/2})^{1/2}`` for ``"wasserstein"``, ``X #_t A`` for
    ``"power-<t>"``, and ``exp((log X + log A)/2)`` for ``"log-euclidean"``,
    whose ``family`` holds the ``log A_j`` instead."""
    if kind == "wasserstein":
        root = eig_x.apply(mp.sqrt)
        return [_Eigensystem(root * a * root).apply(mp.sqrt) for a in family]
    if kind == "log-euclidean":
        log_x = eig_x.apply(mp.log)
        return [_Eigensystem((log_x + log_a) / 2).apply(mp.exp) for log_a in family]
    t = mp.mpf(float(kind.removeprefix("power-")))
    root, inv_root = eig_x.apply(mp.sqrt), eig_x.apply(lambda x: 1 / mp.sqrt(x))
    return [root * _Eigensystem(inv_root * a * inv_root).apply(lambda x: x**t) * root
            for a in family]


def _coordinates(m: mp.matrix, as_complex: bool) -> mp.matrix:
    """The real coordinates of a Hermitian ``m``, as one column: the
    diagonal, then the real parts (and, for complex ``m``, the imaginary
    parts) of the entries above it."""
    n = m.rows
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    parts = [mp.re(m[i, i]) for i in range(n)] + [mp.re(m[i, j]) for i, j in upper]
    if as_complex:
        parts += [mp.im(m[i, j]) for i, j in upper]
    return mp.matrix(parts)


def _from_coordinates(column: mp.matrix, n: int, as_complex: bool) -> mp.matrix:
    """The Hermitian n-by-n matrix whose :func:`_coordinates` are ``column``."""
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = mp.diag([column[i] for i in range(n)])
    for k, (i, j) in enumerate(upper):
        m[i, j] = column[n + k] + (1j * column[n + len(upper) + k] if as_complex else 0)
        m[j, i] = mp.conj(m[i, j])
    return m


#: Steps :func:`picard_solve` takes before it gives up: the mixing converges
#: in about as many steps as its memory (at most 9 for d <= 3), and a restart
#: begins that count again, so 60 leaves room for several restarts.
_PICARD_STEPS = 60


@_at_working_precision
def picard_solve(kind: str, mats, weights, start) -> np.ndarray:
    """The fixed point of ``X = sum_j w_j G(X, A_j)`` (see :func:`_mean_terms`
    for ``kind``), rounded to binary64.  The weights are taken as given, not
    normalised again, so the equation is the one the library solves.

    The iteration starts from ``start`` (the library's answer, so few steps
    are needed) and mixes the Picard images by Anderson acceleration over up
    to as many earlier steps as the matrix has real degrees of freedom: near
    the fixed point the map is almost linear, and the mixing then converges
    in about that many steps.  A mixed iterate that is not positive definite
    or does not lower the residual is replaced by its Picard image, and the
    history restarts.  It stops when ``||X - T(X)||_F <= 1e-30 ||X||_F``; for
    these contractive maps the fixed point is within a small multiple of
    that of ``X``, far below the rounding to binary64."""
    n = np.shape(start)[-1]
    as_complex = any(np.iscomplexobj(a) for a in (start, *mats))
    memory = n * n if as_complex else n * (n + 1) // 2
    family = [_matrix(a) for a in mats]
    if kind == "log-euclidean":
        family = [_Eigensystem(a).apply(mp.log) for a in family]
    w = [mp.mpf(float(wj)) for wj in weights]

    def picard(x):
        """``x``, ``x - T(x)`` and the relative residual."""
        eig_x = _Eigensystem(x)
        if min(eig_x.values) <= 0:
            return x, None, mp.inf
        image = sum((wj * g for wj, g in zip(w, _mean_terms(kind, eig_x, family))),
                    mp.zeros(n, n))
        gap = x - (image + image.H) / 2
        return x, gap, mp.mnorm(gap, "f") / mp.mnorm(x, "f")

    x, gap, residual = picard(_matrix(start))
    steps, diffs = [], []
    for _ in range(_PICARD_STEPS):
        if residual <= mp.mpf(10) ** -30:
            return _to_numpy(x, as_complex)
        mixed = None
        if steps:
            diff_matrix = mp.matrix([list(c) for c in diffs]).T
            # unit columns: mpmath's Householder QR calls a column of norm
            # below its epsilon singular, however well conditioned
            scales = [mp.norm(c) for c in diffs]
            target = _coordinates(gap, as_complex)
            try:
                unit = mp.qr_solve(diff_matrix * mp.diag([1 / c for c in scales]),
                                   target / mp.norm(target))[0]
            except (ValueError, ZeroDivisionError):  # singular, or an exact zero pivot
                unit = None
            if unit is not None:
                gamma = mp.matrix([u * mp.norm(target) / c for u, c in zip(unit, scales)])
                update = (mp.matrix([list(c) for c in steps]).T - diff_matrix) * gamma
                mixed = picard(_from_coordinates(
                    _coordinates(x - gap, as_complex) - update, n, as_complex))
            if mixed is None or not mixed[2] < residual:
                mixed, steps, diffs = None, [], []
        if mixed is None:
            mixed = picard(x - gap)
        steps = [*steps, _coordinates(mixed[0] - x, as_complex)][-memory:]
        diffs = [*diffs, _coordinates(mixed[1] - gap, as_complex)][-memory:]
        x, gap, residual = mixed
    raise ArithmeticError(f"{kind} Picard solve left residual {float(residual):.3e}")


@_at_working_precision
def relative_error(value: float, truth: mp.mpf) -> float:
    """``|value - truth| / |truth|``, formed at working precision."""
    return float(abs(mp.mpf(value) - truth) / abs(truth))

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


@_at_working_precision
def relative_error(value: float, truth: mp.mpf) -> float:
    """``|value - truth| / |truth|``, formed at working precision."""
    return float(abs(mp.mpf(value) - truth) / abs(truth))

"""Reference values computed with scipy.linalg, independently of helmat.

``sqrtm``/``logm`` are Schur based and ``expm`` is Pade based, so none of
these share helmat's ``eigh`` path.  Distances use the sum-of-squares forms
where one exists, so they do not share helmat's trace-difference
cancellation either.  Nothing here runs inside a timed or traced phase.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla


def _herm(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


def sqrtm(a: np.ndarray) -> np.ndarray:
    return _herm(np.asarray(sla.sqrtm(a), dtype=np.complex128))


def logm(a: np.ndarray) -> np.ndarray:
    return _herm(np.asarray(sla.logm(a), dtype=np.complex128))


def expm(h: np.ndarray) -> np.ndarray:
    return _herm(np.asarray(sla.expm(_herm(h)), dtype=np.complex128))


def geometric_mean(a: np.ndarray, b: np.ndarray,
                   roots: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """``A # B = A^{1/2} (A^{-1/2} B A^{-1/2})^{1/2} A^{1/2}``."""
    root, inv_root = roots if roots is not None else _roots(a)
    return _herm(root @ sqrtm(_herm(inv_root @ b @ inv_root)) @ root)


def _roots(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    root = sqrtm(a)
    return root, _herm(sla.inv(root))


class Prepared:
    """One SPD input with its square roots and logarithm, computed once."""

    def __init__(self, a: np.ndarray):
        self.a = np.asarray(a, dtype=np.complex128)
        self.root, self.inv_root = _roots(self.a)
        self._log = None

    @property
    def log(self) -> np.ndarray:
        if self._log is None:
            self._log = logm(self.a)
        return self._log

    @property
    def trace(self) -> float:
        return float(np.trace(self.a).real)


def distance(kind: str, a: Prepared, b: Prepared) -> float:
    """Reference value of helmat's ``distance(kind, A, B)``."""
    if kind == "d1":
        sq = np.linalg.norm(a.root - b.root) ** 2
    elif kind == "d2":
        # tr (A^{1/2} B A^{1/2})^{1/2} is the nuclear norm of B^{1/2} A^{1/2}.
        sq = a.trace + b.trace - 2.0 * sla.svdvals(b.root @ a.root).sum()
    elif kind == "d3":
        # || (I - M^{1/2}) A^{1/2} ||_F^2 with M = A^{-1/2} B A^{-1/2}
        m_root = sqrtm(_herm(a.inv_root @ b.a @ a.inv_root))
        sq = np.linalg.norm((np.eye(len(a.a)) - m_root) @ a.root) ** 2
    elif kind == "d4":
        sq = a.trace + b.trace - 2.0 * np.trace(expm((a.log + b.log) / 2)).real
    else:
        raise ValueError(f"unknown distance kind {kind!r}")
    return float(np.sqrt(max(sq, 0.0)))


def mean_map(kind: str, x: Prepared, a: np.ndarray) -> np.ndarray:
    """``G(X, A)`` of the barycentre equation for one mean kind; ``power``
    is the power mean at t = 1/2."""
    if kind == "wasserstein":
        return sqrtm(_herm(x.root @ a @ x.root))
    if kind == "power":
        return geometric_mean(x.a, a, roots=(x.root, x.inv_root))
    if kind == "logeuclid":
        return expm((x.log + logm(a)) / 2)
    raise ValueError(f"unknown mean kind {kind!r}")


def fixed_point_residual(kind: str, x: np.ndarray, mats, weights) -> float:
    """``||X - sum_j w_j G(X, A_j)||_F / ||X||_F`` with scipy mean maps."""
    px = Prepared(x)
    summed = sum(w * mean_map(kind, px, np.asarray(a, dtype=np.complex128))
                 for w, a in zip(weights, mats))
    return float(np.linalg.norm(px.a - summed) / np.linalg.norm(px.a))


def mean(kind: str, mats, weights) -> np.ndarray:
    """Reference values of the ``helmat mean`` kinds."""
    mats = [np.asarray(a, dtype=np.complex128) for a in mats]
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    if kind == "arith":
        return sum(wj * a for wj, a in zip(w, mats))
    if kind == "geo":
        return geometric_mean(mats[0], mats[1])
    if kind == "logeuclid":
        return expm(sum(wj * logm(a) for wj, a in zip(w, mats)))
    if kind == "qhalf":
        acc = sum(wj * sqrtm(a) for wj, a in zip(w, mats))
        return _herm(acc @ acc)
    raise ValueError(f"unknown mean kind {kind!r}")

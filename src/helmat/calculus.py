"""Frechet derivatives of matrix functions and exact derivative formulas
for the geometric-mean and log-Euclidean trace functionals.

The primary engine is the divided-difference kernel in the eigenbasis of the
base point: for a scalar function ``f`` and a Hermitian ``X = V diag(lam) V*``,

    Df(X)(Y) = V (K o (V* Y V)) V*,   K[i, j] = (f(lam_i) - f(lam_j)) / (lam_i - lam_j)

with ``K[i, i] = f'(lam_i)`` (``o`` is the Hadamard product).  Equal or nearly
equal eigenvalues fall back to the analytic derivative, which removes the 0/0
singularity.  Integral representations of the same derivatives are kept as
cross-check quadratures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import QuadratureError, SpectralDomainError
from .linalg import (
    EigenDecomposition,
    HermitianMatrix,
    MatrixLike,
    SpdMatrix,
    apply_spectral,
    as_array,
    hermitian_part,
    invm,
    sqrt_pair_entries,
)
from .means import log_euclidean_pair

#: Central finite-difference step used by the cross-check helpers.
FD_STEP = 1e-5

#: Relative eigenvalue gap below which divided differences switch to the
#: analytic derivative at the midpoint.
_GAP_RTOL = 1e-7


def _pair_for(name: str, t: float | None):
    """Scalar function and derivative for a supported function tag."""
    if name == "sqrt":
        return np.sqrt, lambda x: 0.5 / np.sqrt(x)
    if name == "log":
        return np.log, lambda x: 1.0 / x
    if name == "exp":
        return np.exp, np.exp
    if name == "pow_t":
        if t is None:
            raise ValueError("function tag 'pow_t' needs the exponent t")
        return (lambda x: x**t), (lambda x: t * x ** (t - 1.0))
    raise ValueError(f"unsupported function tag {name!r}; use sqrt, log, exp or pow_t")


@dataclass(frozen=True)
class DividedDifferenceKernel:
    """First divided differences of a scalar function on a spectrum.

    ``kernel[i, j] = (f(lam_i) - f(lam_j)) / (lam_i - lam_j)`` with the
    analytic derivative on (near-)coincident pairs; it is symmetric.  For the
    square root the algebraically equivalent stable form
    ``1 / (sqrt(lam_i) + sqrt(lam_j))`` is used, which avoids cancellation.
    """

    eigenbasis: EigenDecomposition
    kernel: np.ndarray

    def apply(self, y: MatrixLike) -> np.ndarray:
        """The derivative as a linear map: Hadamard-multiply in the eigenbasis."""
        v = self.eigenbasis.eigenvectors
        w = v.conj().T @ as_array(y) @ v
        return v @ (self.kernel * w) @ v.conj().T


def divided_difference_kernel(
    name: str,
    eig: EigenDecomposition,
    t: float | None = None,
) -> DividedDifferenceKernel:
    """Build the divided-difference kernel of a tagged function on a spectrum."""
    lam = eig.eigenvalues
    f, df = _pair_for(name, t)
    with np.errstate(all="ignore"):
        if name == "sqrt":
            roots = np.sqrt(lam)
            kernel = 1.0 / np.add.outer(roots, roots)
        else:
            values = f(lam)
            gaps = np.subtract.outer(lam, lam)
            close = np.abs(gaps) <= _GAP_RTOL * np.maximum(
                1.0, np.maximum.outer(np.abs(lam), np.abs(lam))
            )
            quotient = np.where(close, 1.0, gaps)
            kernel = np.where(
                close,
                df((np.add.outer(lam, lam)) / 2.0),
                np.subtract.outer(values, values) / quotient,
            )
    if not np.all(np.isfinite(kernel)):
        bad = int(np.argmax(~np.isfinite(kernel).ravel()))
        raise SpectralDomainError(
            f"function {name!r} is undefined near eigenvalue "
            f"{lam[bad // lam.size]!r}"
        )
    return DividedDifferenceKernel(eigenbasis=eig, kernel=kernel)


def frechet(
    name: str,
    x: SpdMatrix,
    y: MatrixLike,
    t: float | None = None,
) -> HermitianMatrix:
    """Frechet derivative ``Df(X)(Y)`` of a spectral matrix function.

    ``name`` is one of ``sqrt``, ``log``, ``exp``, ``pow_t`` (the latter with
    exponent ``t``).  Linear in ``Y``; Hermitian for Hermitian ``Y``.
    """
    kernel = divided_difference_kernel(name, x.eig(), t)
    return HermitianMatrix(hermitian_part(kernel.apply(y)))


def frechet_geometric(a: SpdMatrix, x: SpdMatrix, y: MatrixLike) -> HermitianMatrix:
    """Derivative at ``X`` of the map ``X -> A # X``, applied to ``Y``.

    Chain rule on the congruence formula for the geometric mean:
    ``A^{1/2} Dsqrt(M)(A^{-1/2} Y A^{-1/2}) A^{1/2}`` with
    ``M = A^{-1/2} X A^{-1/2}``.  At ``X = A`` this is ``Y / 2``.
    """
    root, inv_root = sqrt_pair_entries(a)
    middle = SpdMatrix(hermitian_part(inv_root @ x.entries @ inv_root))
    pushed = hermitian_part(inv_root @ as_array(y) @ inv_root)
    kernel = divided_difference_kernel("sqrt", middle.eig())
    return HermitianMatrix(hermitian_part(root @ kernel.apply(pushed) @ root))


def frechet_geometric_quadrature(
    a: SpdMatrix,
    x: SpdMatrix,
    y: MatrixLike,
    measure: "IntegrationMeasure | None" = None,
) -> HermitianMatrix:
    """Same derivative through its integral representation.

    Evaluates ``int (lam + X A^{-1})^{-1} Y (lam + A^{-1} X)^{-1} dnu(lam)``
    with ``dnu = (1/pi) lam^{1/2} dlam`` by adaptive quadrature; used as an
    independent cross-check of :func:`frechet_geometric`.
    """
    measure = measure or IntegrationMeasure.half_power()
    a_inv = invm(a).entries
    xa = x.entries @ a_inv
    ax = a_inv @ x.entries
    yarr = as_array(y)
    eye = np.eye(a.dim)

    def integrand(lam: float) -> np.ndarray:
        left = np.linalg.solve(lam * eye + xa, yarr)
        return np.linalg.solve((lam * eye + ax).conj().T, left.conj().T).conj().T

    return HermitianMatrix(hermitian_part(measure.integrate_matrix(integrand)))


def grad_phi3(a: SpdMatrix, x: SpdMatrix) -> HermitianMatrix:
    """Gradient of ``X -> Phi_3(A, X) = tr(A) + tr(X) - 2 tr(A # X)``.

    Returns the Hermitian ``G`` with ``D Phi_3(A, X)(Y) = tr(G Y)``:

        G = I - 2 A^{-1/2} Dsqrt(M)(A) A^{-1/2},  M = A^{-1/2} X A^{-1/2}

    using that the divided-difference map is self-adjoint for the trace
    pairing.  Vanishes at ``X = A``; on commuting diagonal inputs it reduces
    to ``diag(1 - sqrt(a_i / x_i))``.
    """
    _, inv_root = sqrt_pair_entries(a)
    middle = SpdMatrix(hermitian_part(inv_root @ x.entries @ inv_root))
    kernel = divided_difference_kernel("sqrt", middle.eig())
    pulled = inv_root @ kernel.apply(a.entries) @ inv_root
    return HermitianMatrix(hermitian_part(np.eye(a.dim) - 2.0 * pulled))


def hessian_phi3_diag(a: SpdMatrix, y: MatrixLike) -> float:
    """Second derivative of ``Phi_3`` on the diagonal: ``(1/2) tr(Y A^{-1} Y)``.

    Nonnegative for every Hermitian ``Y``; this is the quadratic form that
    makes ``Phi_3`` a divergence.
    """
    yarr = hermitian_part(y)
    value = 0.5 * np.trace(yarr @ invm(a).entries @ yarr).real
    return float(value)


def d_tr_log_euclidean(a: SpdMatrix, x: SpdMatrix) -> HermitianMatrix:
    """Gradient of ``X -> tr L(A, X)`` for the log-Euclidean mean ``L``.

    Equals ``(1/2) Dlog(X)(L(A, X))``: in the eigenbasis of ``X`` the entries
    of ``V* L V`` are scaled by the divided differences of the logarithm and
    mapped back.  On commuting diagonal inputs this is
    ``(1/2) diag(sqrt(a_i / x_i))``; at ``X = A`` it is ``I / 2``.
    """
    mean = log_euclidean_pair(a, x)
    kernel = divided_difference_kernel("log", x.eig())
    return HermitianMatrix(hermitian_part(0.5 * kernel.apply(mean.entries)))


@dataclass(frozen=True)
class IntegrationMeasure:
    """Adaptive Gauss-Legendre quadrature against ``dnu`` or ``dlam`` on (0, inf).

    ``half_power`` integrates against ``dnu(lam) = (1/pi) lam^{1/2} dlam``,
    ``lebesgue`` against plain ``dlam``.  The half line is mapped to (0, 1)
    by ``lam = u / (1 - u)``; for the half-power measure the square-root
    weight is first absorbed by ``lam = s^2`` (so ``s`` is mapped instead),
    otherwise the transplanted integrand has an inverse-square-root endpoint
    singularity that stalls Gauss-Legendre far above the target accuracy.
    Nodes are doubled until the result moves by less than ``tol``.
    """

    kind: str
    initial_nodes: int = 32
    max_nodes: int = 4096
    tol: float = 1e-9

    @classmethod
    def half_power(cls, **kw) -> "IntegrationMeasure":
        return cls(kind="half_power", **kw)

    @classmethod
    def lebesgue(cls, **kw) -> "IntegrationMeasure":
        return cls(kind="lebesgue", **kw)

    def _nodes_weights(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        u, w = np.polynomial.legendre.leggauss(n)
        u = 0.5 * (u + 1.0)
        w = 0.5 * w
        if self.kind == "half_power":
            s = u / (1.0 - u)
            lam = s * s
            weights = w * (2.0 / np.pi) * s * s / (1.0 - u) ** 2
        elif self.kind == "lebesgue":
            lam = u / (1.0 - u)
            weights = w / (1.0 - u) ** 2
        else:
            raise ValueError(f"unknown measure kind {self.kind!r}")
        return lam, weights

    def integrate(self, f: Callable[[float], float]) -> float:
        """Scalar integral with node doubling until the update is below tol."""
        return self._integrate(f, lambda v: abs(v))

    def integrate_matrix(self, f: Callable[[float], np.ndarray]) -> np.ndarray:
        """Matrix-valued integral; convergence in the Frobenius norm."""
        return self._integrate(f, np.linalg.norm)

    def _integrate(self, f, norm):
        previous = None
        n = self.initial_nodes
        while n <= self.max_nodes:
            lam, weights = self._nodes_weights(n)
            total = sum(w * np.asarray(f(x)) for x, w in zip(lam, weights))
            if previous is not None and norm(total - previous) <= self.tol * max(
                1.0, norm(total)
            ):
                return total
            previous = total
            n *= 2
        raise QuadratureError(
            f"quadrature did not converge below {self.tol:.1e} "
            f"within {self.max_nodes} nodes"
        )


def quad_check(representation: str, x: float | None = None) -> float:
    """Reproduce the integral identities behind the derivative formulas.

    * ``sqrt_resolvent``: the resolvent-difference representation
      ``sqrt(x) = 1/sqrt(2) + int (lam/(lam^2+1) - 1/(lam+x)) dnu(lam)``;
      returns the quadrature value, which matches ``sqrt(x)`` to 1e-8.
    * ``grad_normalization``: ``(1/pi) int lam^{1/2}/(1+lam)^2 dlam`` — the
      constant that makes the geometric-mean derivative at the base point
      ``Y/2``; equals ``1/2``.
    * ``hessian_normalization``: ``(4/pi) int lam^{1/2}/(1+lam)^3 dlam`` —
      the constant multiplying ``tr(Y A^{-1} Y)`` in the diagonal Hessian of
      the geometric-mean divergence; equals ``1/2``.
    """
    measure = IntegrationMeasure.half_power()
    if representation == "sqrt_resolvent":
        if x is None or x <= 0.0:
            raise ValueError("sqrt_resolvent needs a positive evaluation point x")
        value = measure.integrate(
            lambda lam: lam / (lam * lam + 1.0) - 1.0 / (lam + x)
        )
        return float(1.0 / np.sqrt(2.0) + value)
    if representation == "grad_normalization":
        return float(measure.integrate(lambda lam: 1.0 / (1.0 + lam) ** 2))
    if representation == "hessian_normalization":
        return float(4.0 * measure.integrate(lambda lam: 1.0 / (1.0 + lam) ** 3))
    raise ValueError(
        f"unknown representation {representation!r}; "
        "use sqrt_resolvent, grad_normalization or hessian_normalization"
    )


def fd_directional(
    f: Callable[[np.ndarray], float],
    x: MatrixLike,
    y: MatrixLike,
    step: float = FD_STEP,
) -> float:
    """Central finite difference of a scalar functional along direction ``y``."""
    xarr = as_array(x)
    yarr = as_array(y)
    return float((f(xarr + step * yarr) - f(xarr - step * yarr)) / (2.0 * step))


def fd_frechet(
    name: str,
    x: SpdMatrix,
    y: MatrixLike,
    t: float | None = None,
    step: float = FD_STEP,
) -> np.ndarray:
    """Central finite difference ``(f(X + hY) - f(X - hY)) / 2h`` of a
    matrix function; the independent oracle for :func:`frechet`."""
    f, _ = _pair_for(name, t)
    yarr = as_array(y)
    plus = apply_spectral(f, hermitian_part(x.entries + step * yarr)).entries
    minus = apply_spectral(f, hermitian_part(x.entries - step * yarr)).entries
    return (plus - minus) / (2.0 * step)


def fd_hessian_quadform(
    phi: Callable[[np.ndarray], float],
    a: SpdMatrix,
    y: MatrixLike,
    base_step: float = 1e-2,
) -> float:
    """Richardson-extrapolated limit of ``2 phi(A + tY) / t^2`` as ``t -> 0``.

    ``phi`` must vanish to second order at ``A`` (a divergence evaluated
    against its own diagonal point).  Three extrapolation levels over the
    steps ``t, t/2, t/4, t/8`` cancel the first-, second- and third-order
    error terms of the quotient.
    """
    yarr = as_array(y)
    scale = base_step * max(np.linalg.norm(a.entries), 1e-12) / max(
        np.linalg.norm(yarr), 1e-300
    )

    def quotient(t: float) -> float:
        return 2.0 * phi(a.entries + t * yarr) / (t * t)

    level0 = [quotient(scale / 2.0**k) for k in range(4)]
    level1 = [2.0 * level0[k + 1] - level0[k] for k in range(3)]
    level2 = [(4.0 * level1[k + 1] - level1[k]) / 3.0 for k in range(2)]
    return float((8.0 * level2[1] - level2[0]) / 7.0)

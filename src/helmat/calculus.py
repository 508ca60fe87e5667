"""Frechet derivatives of matrix functions and exact derivative formulas
for the geometric-mean and log-Euclidean trace functionals.

The primary engine is the divided-difference kernel in the eigenbasis of the
base point: for a scalar function ``f`` and a Hermitian ``X = V diag(lam) V*``,

    Df(X)(Y) = V (K o (V* Y V)) V*,   K[i, j] = (f(lam_i) - f(lam_j)) / (lam_i - lam_j)

with ``K[i, i] = f'(lam_i)`` (``o`` is the Hadamard product).  Equal or nearly
equal eigenvalues (relative to their size) fall back to the analytic
derivative, which removes the 0/0 singularity.  The functions are tagged
``sqrt``, ``log`` and ``exp``, each with a divided difference written
without cancellation (Higham, *Functions of Matrices*, SIAM 2008, §3.2).
:func:`fd_frechet` is the independent oracle: one central difference for
all three tags from one eigensystem per shifted point.  Integral
representations of the same derivatives are kept as cross-check
quadratures; they double the Gauss-Legendre nodes from ``QUAD_FIRST_NODES``
up to ``QUAD_MAX_NODES`` until the result moves by less than ``QUAD_TOL``.

The kernel, :func:`frechet`, :func:`fd_frechet`, :func:`grad_phi3`,
:func:`hessian_phi3_diag` and the finite-difference helpers
:func:`fd_directional` and :func:`fd_hessian_quadform` also take stacks
``(..., n, n)`` (an :class:`~helmat.linalg.SpdMatrix` built by
:func:`~helmat.linalg._spd_stack`, with directions of the same shape) and
give each matrix the bits of a call on it alone.  :func:`frechet_geometric`,
its quadrature and :func:`d_tr_log_euclidean` take one matrix.
"""

from __future__ import annotations

from functools import cache
from typing import Callable

import numpy as np

from .errors import QuadratureError
from .linalg import (
    EigenDecomposition,
    HermitianMatrix,
    MatrixLike,
    SpdMatrix,
    _adjoint,
    _as_stack,
    _check_defined,
    _congruence,
    _frobenius_norms,
    _hermitian_stack,
    _per_matrix,
    _require_same_dim,
    _trace,
    apply_spectral,
    as_array,
    hermitian_part,
    invm,
    sqrt_pair_entries,
)
from .means import log_euclidean_pair

#: Central finite-difference step used by the cross-check helpers.
FD_STEP = 1e-5
#: First step of :func:`fd_hessian_quadform`, relative to ``||A||_F / ||Y||_F``.
HESSIAN_BASE_STEP = 1e-2

#: Relative eigenvalue gap below which divided differences switch to the
#: analytic derivative at the midpoint: ``|lam_i - lam_j|`` at most this
#: times ``max(|lam_i|, |lam_j|)``, so the switch is the same at every scale
#: (equal eigenvalues, zeros included, always switch).
_GAP_RTOL = 1e-7

#: Gauss-Legendre node counts of the cross-check quadratures: the first
#: rule, and the largest before :func:`_half_power_integral` gives up.
QUAD_FIRST_NODES = 32
QUAD_MAX_NODES = 4096
#: Change between two node doublings below which a quadrature has converged,
#: relative to ``max(1, |result|)``.
QUAD_TOL = 1e-9

#: The supported function tags: each scalar function and its derivative.
_FUNCTIONS = {
    "sqrt": (np.sqrt, lambda x: 0.5 / np.sqrt(x)),
    "log": (np.log, lambda x: 1.0 / x),
    "exp": (np.exp, np.exp),
}


def divided_difference_kernel(name: str, eig: EigenDecomposition) -> np.ndarray:
    """First divided differences of a tagged function on the spectrum of
    ``eig`` (on each spectrum of a stack).

    ``kernel[i, j] = (f(lam_i) - f(lam_j)) / (lam_i - lam_j)`` with the
    analytic derivative on (near-)coincident pairs; it is symmetric.  For the
    square root the algebraically equivalent stable form
    ``1 / (sqrt(lam_i) + sqrt(lam_j))`` is used, and with ``g = |lam_i -
    lam_j|`` and ``m = min(lam_i, lam_j)``, ``exp(m) expm1(g) / g`` for the
    exponential and ``log1p(g / m) / g`` for the logarithm.  These avoid the
    cancellation of ``f(lam_i) - f(lam_j)`` against ``f(lam)`` itself, which
    for ``exp`` near zero and ``log`` away from one is much larger than the
    difference.

    Raises
    ------
    ValueError
        If ``name`` is not one of ``sqrt``, ``log``, ``exp``.
    SpectralDomainError
        If the kernel is undefined somewhere, naming the first failing slice
        of a stack and the eigenvalue of the first row that fails.
    """
    if name not in _FUNCTIONS:
        raise ValueError(f"unsupported function tag {name!r}; use sqrt, log or exp")
    lam = eig.eigenvalues
    with np.errstate(all="ignore"):
        if name == "sqrt":
            roots = np.sqrt(lam)
            kernel = 1.0 / (roots[..., :, None] + roots[..., None, :])
        else:
            rows, cols = lam[..., :, None], lam[..., None, :]
            low, high = np.minimum(rows, cols), np.maximum(rows, cols)
            close = high - low <= _GAP_RTOL * np.maximum(np.abs(rows), np.abs(cols))
            spread = np.where(close, 1.0, high - low)
            if name == "exp":
                apart = np.exp(low) * np.expm1(spread) / spread
            else:
                apart = np.where(low > 0, np.log1p(spread / low) / spread, np.nan)
            kernel = np.where(close, _FUNCTIONS[name][1]((rows + cols) / 2.0), apart)
    _check_defined(~np.isfinite(kernel).all(axis=-1), lam,
                   f"function {name!r} is undefined near")
    return kernel


def _daleckii_krein(name: str, eig: EigenDecomposition, y: MatrixLike) -> np.ndarray:
    """The derivative of the tagged function at ``V diag(lam) V*`` as a
    linear map on ``y``: ``V (K o (V* Y V)) V*`` with ``K`` the
    divided-difference kernel (for each eigensystem and direction of a
    stack)."""
    v = eig.eigenvectors
    w = _adjoint(v) @ _as_stack(y) @ v
    return v @ (divided_difference_kernel(name, eig) * w) @ _adjoint(v)


def frechet(name: str, x: SpdMatrix, y: MatrixLike) -> HermitianMatrix:
    """Frechet derivative ``Df(X)(Y)`` of a spectral matrix function.

    ``name`` is one of ``sqrt``, ``log``, ``exp``.  Linear in ``Y``;
    Hermitian for Hermitian ``Y``.  A stack ``X`` with a stack ``Y`` of the
    same shape gives one derivative per pair.
    """
    yarr = _as_stack(y)
    _require_same_dim(x.dim, yarr.shape[-1])
    return _hermitian_stack(_daleckii_krein(name, x.eig(), yarr))


def frechet_geometric(a: SpdMatrix, x: SpdMatrix, y: MatrixLike) -> HermitianMatrix:
    """Derivative at ``X`` of the map ``X -> A # X``, applied to ``Y``.

    Chain rule on the congruence formula for the geometric mean:
    ``A^{1/2} Dsqrt(M)(A^{-1/2} Y A^{-1/2}) A^{1/2}`` with
    ``M = A^{-1/2} X A^{-1/2}``.  At ``X = A`` this is ``Y / 2``.
    """
    yarr = as_array(y)
    _require_same_dim(a.dim, x.dim, len(yarr))
    root, inv_root = sqrt_pair_entries(a)
    pushed = hermitian_part(inv_root @ yarr @ inv_root)
    derivative = _daleckii_krein("sqrt", _congruence(inv_root, x).eig(), pushed)
    return _hermitian_stack(root @ derivative @ root)


def frechet_geometric_quadrature(a: SpdMatrix, x: SpdMatrix, y: MatrixLike) -> HermitianMatrix:
    """Same derivative through its integral representation.

    Evaluates ``int (lam + X A^{-1})^{-1} Y (lam + A^{-1} X)^{-1} dnu(lam)``
    with ``dnu = (1/pi) lam^{1/2} dlam`` by adaptive quadrature; used as an
    independent cross-check of :func:`frechet_geometric`.
    """
    yarr = as_array(y)
    _require_same_dim(a.dim, x.dim, len(yarr))
    a_inv = invm(a).entries
    xa = x.entries @ a_inv
    ax = a_inv @ x.entries
    eye = np.eye(a.dim)

    def weighted_sum(lam: np.ndarray, weights: np.ndarray) -> np.ndarray:
        # summed in node order, so the total is bit for bit the per-node sum
        shift = lam[:, None, None] * eye
        left = np.linalg.solve(shift + xa, yarr)
        values = _adjoint(np.linalg.solve(_adjoint(shift + ax), _adjoint(left)))
        return np.add.reduce(weights[:, None, None] * values, axis=0)

    return _hermitian_stack(_half_power_integral(weighted_sum, np.linalg.norm))


def grad_phi3(a: SpdMatrix, x: SpdMatrix) -> HermitianMatrix:
    """Gradient of ``X -> Phi_3(A, X) = tr(A) + tr(X) - 2 tr(A # X)``.

    Returns the Hermitian ``G`` with ``D Phi_3(A, X)(Y) = tr(G Y)``:

        G = I - 2 A^{-1/2} Dsqrt(M)(A) A^{-1/2},  M = A^{-1/2} X A^{-1/2}

    using that the divided-difference map is self-adjoint for the trace
    pairing.  Vanishes at ``X = A``; on commuting diagonal inputs it reduces
    to ``diag(1 - sqrt(a_i / x_i))``.  Stacks ``A`` and ``X`` of one shape
    give one gradient per pair.
    """
    _, inv_root = sqrt_pair_entries(a)
    derivative = _daleckii_krein("sqrt", _congruence(inv_root, x).eig(), a.entries)
    pulled = inv_root @ derivative @ inv_root
    return _hermitian_stack(np.eye(a.dim) - 2.0 * pulled)


def hessian_phi3_diag(a: SpdMatrix, y: MatrixLike) -> float | np.ndarray:
    """Second derivative of ``Phi_3`` on the diagonal: ``(1/2) tr(Y A^{-1} Y)``.

    Nonnegative for every Hermitian ``Y``; this is the quadratic form that
    makes ``Phi_3`` a divergence.  On a stack ``A`` with a stack ``Y`` of
    the same shape it gives one value per pair.
    """
    yarr = hermitian_part(y)
    _require_same_dim(a.dim, yarr.shape[-1])
    inverse = invm(a).entries
    return _per_matrix(0.5 * _trace(yarr @ inverse @ yarr))


def d_tr_log_euclidean(a: SpdMatrix, x: SpdMatrix) -> HermitianMatrix:
    """Gradient of ``X -> tr L(A, X)`` for the log-Euclidean mean ``L``.

    Equals ``(1/2) Dlog(X)(L(A, X))``: in the eigenbasis of ``X`` the entries
    of ``V* L V`` are scaled by the divided differences of the logarithm and
    mapped back.  On commuting diagonal inputs this is
    ``(1/2) diag(sqrt(a_i / x_i))``; at ``X = A`` it is ``I / 2``.
    """
    mean = log_euclidean_pair(a, x)
    return _hermitian_stack(0.5 * _daleckii_krein("log", x.eig(), mean.entries))


@cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``n``-node Gauss-Legendre rule on (-1, 1), computed once per
    ``n`` and read-only."""
    rule = np.polynomial.legendre.leggauss(n)
    for arr in rule:
        arr.flags.writeable = False
    return rule


def _half_power_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes ``lam`` and weights of the ``n``-node rule against
    ``dnu(lam) = (1/pi) lam^{1/2} dlam`` on (0, inf).

    The square-root weight is absorbed by ``lam = s^2`` and the half line of
    ``s`` is mapped to (0, 1) by ``s = u / (1 - u)``; mapping ``lam`` directly
    leaves an inverse-square-root endpoint singularity that stalls
    Gauss-Legendre far above the target accuracy.
    """
    u, w = _gauss_legendre(n)
    u = 0.5 * (u + 1.0)
    w = 0.5 * w
    s = u / (1.0 - u)
    return s * s, w * (2.0 / np.pi) * s * s / (1.0 - u) ** 2


def _half_power_integral(weighted_sum, norm):
    """Integral against ``dnu``: ``weighted_sum(lam, weights)`` on rules of
    ``QUAD_FIRST_NODES``, twice as many, ... nodes until two results differ by
    at most ``QUAD_TOL`` times ``max(1, norm(result))``.

    Raises
    ------
    QuadratureError
        If no rule up to ``QUAD_MAX_NODES`` nodes converges.
    """
    previous = None
    n = QUAD_FIRST_NODES
    while n <= QUAD_MAX_NODES:
        total = weighted_sum(*_half_power_rule(n))
        if previous is not None and norm(total - previous) <= QUAD_TOL * max(
            1.0, norm(total)
        ):
            return total
        previous = total
        n *= 2
    raise QuadratureError(
        f"quadrature did not converge below {QUAD_TOL:.1e} "
        f"within {QUAD_MAX_NODES} nodes"
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
    def integrate(f: Callable[[float], float]) -> float:
        return _half_power_integral(
            lambda lam, weights: sum(w * f(t) for t, w in zip(lam, weights)), abs
        )

    if representation == "sqrt_resolvent":
        if x is None or not 0.0 < x < np.inf:
            raise ValueError("sqrt_resolvent needs a positive finite evaluation point x")
        value = integrate(lambda lam: lam / (lam * lam + 1.0) - 1.0 / (lam + x))
        return float(1.0 / np.sqrt(2.0) + value)
    if representation == "grad_normalization":
        return float(integrate(lambda lam: 1.0 / (1.0 + lam) ** 2))
    if representation == "hessian_normalization":
        return float(4.0 * integrate(lambda lam: 1.0 / (1.0 + lam) ** 3))
    raise ValueError(
        f"unknown representation {representation!r}; "
        "use sqrt_resolvent, grad_normalization or hessian_normalization"
    )


def fd_directional(
    f: Callable[[np.ndarray], float | np.ndarray],
    x: MatrixLike,
    y: MatrixLike,
) -> float | np.ndarray:
    """Central finite difference of a scalar functional along direction
    ``y``, with step ``FD_STEP``.

    ``x`` and ``y`` may be stacks ``(..., n, n)`` of one shape, with ``f``
    giving one value per matrix; each matrix gets, bit for bit, the value of
    a call on it alone.
    """
    xarr, yarr = _as_stack(x), _as_stack(y)
    shift = FD_STEP * yarr
    return _per_matrix((f(xarr + shift) - f(xarr - shift)) / (2.0 * FD_STEP))


def fd_frechet(x: SpdMatrix, y: MatrixLike) -> dict[str, np.ndarray]:
    """Central finite differences ``(f(X + hY) - f(X - hY)) / 2h`` of the
    three tagged matrix functions, as ``{tag: difference}`` in the order
    ``sqrt``, ``log``, ``exp``; the independent oracle for :func:`frechet`.
    The two shifted points get one checked eigensolve each, shared by the
    three functions through :func:`~helmat.linalg.apply_spectral`; a stack
    ``X`` with a stack ``Y`` of the same shape gives one difference per
    pair."""
    yarr = _as_stack(y)
    plus, minus = (_hermitian_stack(x.entries + h * yarr) for h in (FD_STEP, -FD_STEP))
    return {name: (apply_spectral(f, plus).entries - apply_spectral(f, minus).entries)
            / (2.0 * FD_STEP) for name, (f, _) in _FUNCTIONS.items()}


def fd_hessian_quadform(
    phi: Callable[[np.ndarray], float | np.ndarray],
    a: SpdMatrix,
    y: MatrixLike,
) -> float | np.ndarray:
    """Richardson-extrapolated limit of ``2 phi(A + tY) / t^2`` as ``t -> 0``.

    ``phi`` must vanish to second order at ``A`` (a divergence evaluated
    against its own diagonal point).  Three extrapolation levels over the
    steps ``t, t/2, t/4, t/8``, with ``t = HESSIAN_BASE_STEP ||A||_F /
    ||Y||_F``, cancel the first-, second- and third-order error terms of
    the quotient.  On a stack ``A`` with a stack ``Y`` of the same shape,
    ``phi`` gives one value per matrix and each matrix gets its own step
    ``t``; each gets, bit for bit, the value of a call on it alone.
    """
    yarr = _as_stack(y)
    scale = HESSIAN_BASE_STEP * np.maximum(_frobenius_norms(a.entries), 1e-12) / np.maximum(
        _frobenius_norms(yarr), 1e-300
    )

    def quotient(t: np.ndarray) -> np.ndarray:
        return 2.0 * phi(a.entries + t[..., None, None] * yarr) / (t * t)

    level0 = [quotient(scale / 2.0**k) for k in range(4)]
    level1 = [2.0 * level0[k + 1] - level0[k] for k in range(3)]
    level2 = [(4.0 * level1[k + 1] - level1[k]) / 3.0 for k in range(2)]
    return _per_matrix((8.0 * level2[1] - level2[0]) / 7.0)

"""Tracial Bregman divergences, quantum relative entropy and their barycentres.

A *mother function* is a smooth strictly convex scalar ``psi`` on the
positive reals.  Lifting it to ``phi(X) = tr psi(X)`` yields the tracial
Bregman divergence

    Phi(A, B) = tr psi(A) - tr psi(B) - tr(psi'(B) (A - B)),

whose gradient map is ``psi'`` applied to the spectrum.  Because ``psi'`` is
strictly increasing it is a homeomorphism onto the open interval
``J = psi'((0, inf))``, which makes the left barycentre solvable in closed
form: apply ``(psi')^{-1}`` to the weighted average of the ``psi'(A_j)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InternalConsistencyError, SpectralDomainError
from .linalg import HermitianMatrix, SpdMatrix, apply_spectral, hermitian_part, logm
from .means import (
    WeightVector,
    arithmetic_mean,
    check_family,
    log_euclidean_pair,
)

_CONVEXITY_GRID = np.logspace(-6.0, 6.0, 97)


@dataclass(frozen=True)
class MotherFunction:
    """Strictly convex scalar seed of a tracial Bregman divergence.

    ``psi``, ``dpsi`` and ``inv_dpsi`` must be vectorised (accept numpy
    arrays); ``dpsi_image`` is the open interval ``J = psi'((0, inf))``,
    supplied analytically.  Construction samples strict convexity and the
    inverse-derivative consistency on a log-spaced grid over
    ``[1e-6, 1e6]``.
    """

    name: str
    psi: Callable[[np.ndarray], np.ndarray]
    dpsi: Callable[[np.ndarray], np.ndarray]
    inv_dpsi: Callable[[np.ndarray], np.ndarray]
    dpsi_image: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.dpsi_image
        if not lo < hi:
            raise ValueError("dpsi_image must be a nonempty open interval (lo, hi)")
        slope = np.asarray(self.dpsi(_CONVEXITY_GRID), dtype=float)
        if not np.all(np.diff(slope) > 0.0):
            raise ValueError(
                f"mother function {self.name!r} is not strictly convex on the sample grid"
            )
        recovered = np.asarray(self.inv_dpsi(slope), dtype=float)
        rel = np.abs(recovered - _CONVEXITY_GRID) / np.abs(_CONVEXITY_GRID)
        if np.max(rel) > 1e-10:
            raise ValueError(
                f"inv_dpsi(dpsi(x)) deviates from x by {np.max(rel):.3e} "
                f"for mother function {self.name!r}"
            )


#: Matrix-entropy seed ``x log x - x``; its divergence is the quantum
#: relative entropy up to the trace correction, and its gradient map is the
#: matrix logarithm.  The gradient image is the whole real line and the
#: derivative blows up at the domain boundary (a Legendre-type function), so
#: its barycentre problems always have interior solutions.
ENTROPY = MotherFunction(
    name="entropy",
    psi=lambda x: x * np.log(x) - x,
    dpsi=np.log,
    inv_dpsi=np.exp,
    dpsi_image=(-np.inf, np.inf),
)

#: Euclidean seed ``x^2 / 2``; its divergence is ``||A - B||_2^2 / 2``.
SQUARE = MotherFunction(
    name="square",
    psi=lambda x: x * x / 2.0,
    dpsi=lambda x: x,
    inv_dpsi=lambda y: y,
    dpsi_image=(0.0, np.inf),
)


def power_mother(p: float) -> MotherFunction:
    """Power seed ``x^p`` for ``p > 1``; gradient map ``p x^{p-1}``."""
    if p <= 1.0:
        raise ValueError(f"power mother function needs p > 1, got {p}")
    return MotherFunction(
        name=f"power_{p}",
        psi=lambda x: x**p,
        dpsi=lambda x: p * x ** (p - 1.0),
        inv_dpsi=lambda y: (y / p) ** (1.0 / (p - 1.0)),
        dpsi_image=(0.0, np.inf),
    )


def bregman_scalar(m: MotherFunction, x: float, y: float) -> float:
    """Scalar Bregman divergence ``psi(x) - psi(y) - psi'(y)(x - y)``.

    Nonnegative, and zero exactly when ``x == y``.
    """
    if x <= 0.0 or y <= 0.0:
        raise ValueError("bregman_scalar needs strictly positive arguments")
    value = float(m.psi(x)) - float(m.psi(y)) - float(m.dpsi(y)) * (x - y)
    return max(value, 0.0)


def bregman_tracial(m: MotherFunction, a: SpdMatrix, b: SpdMatrix) -> float:
    """Tracial Bregman divergence ``tr psi(A) - tr psi(B) - tr(psi'(B)(A-B))``.

    Nonnegative, and zero exactly when ``A == B``; roundoff-scale negatives
    are clamped to zero.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    psi_a = apply_spectral(m.psi, a).trace()
    psi_b = apply_spectral(m.psi, b).trace()
    slope_b = apply_spectral(m.dpsi, b).entries
    correction = np.trace(slope_b @ (a.entries - b.entries)).real
    value = float(psi_a - psi_b - correction)
    if value < -1e-10:
        raise InternalConsistencyError(
            f"Bregman divergence for {m.name!r} came out {value:.3e}"
        )
    return max(value, 0.0)


def relative_entropy(a: SpdMatrix, b: SpdMatrix) -> float:
    """Quantum relative entropy ``S(A|B) = tr A (log A - log B)``.

    Nonnegative whenever ``tr A == tr B``; jointly convex in ``(A, B)``.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    diff = logm(a).entries - logm(b).entries
    return float(np.trace(a.entries @ diff).real)


def right_barycentre(
    m: MotherFunction, mats: Sequence[SpdMatrix], w: WeightVector
) -> SpdMatrix:
    """Minimiser of ``sum_j w_j Phi(A_j, X)`` over ``X``.

    This is the weighted arithmetic mean for *every* mother function; the
    result does not depend on ``m``.
    """
    del m  # the minimiser is mother-function independent
    return arithmetic_mean(mats, w)


def left_barycentre(
    m: MotherFunction, mats: Sequence[SpdMatrix], w: WeightVector
) -> SpdMatrix:
    """Minimiser of ``sum_j w_j Phi(X, A_j)`` over ``X``.

    Computed in closed form as ``(psi')^{-1}`` of the weighted average of
    the ``psi'(A_j)``.  For the entropy seed this is the weighted
    log-Euclidean mean; for the square seed, the arithmetic mean.

    Raises
    ------
    SpectralDomainError
        If the averaged gradient has spectrum outside the open interval
        ``J = psi'((0, inf))``.  This cannot happen for the built-in seeds
        (the average of matrices with spectra in an interval stays there);
        the guard protects future mother functions.
    """
    check_family(mats, w)
    averaged = sum(
        wj * apply_spectral(m.dpsi, a).entries for wj, a in zip(w.weights, mats)
    )
    averaged = HermitianMatrix(hermitian_part(averaged))
    lo, hi = m.dpsi_image
    spectrum = averaged.eig().eigenvalues
    if spectrum[0] <= lo or spectrum[-1] >= hi:
        raise SpectralDomainError(
            f"averaged gradient spectrum [{spectrum[0]:.6e}, {spectrum[-1]:.6e}] "
            f"leaves the image interval ({lo}, {hi}) of {m.name!r}"
        )
    return SpdMatrix(apply_spectral(m.inv_dpsi, averaged))


def variance(m: MotherFunction, mats: Sequence[SpdMatrix], w: WeightVector) -> float:
    """Spread ``sum_j w_j Phi(mu, A_j)`` about the left barycentre ``mu``.

    For the entropy seed this equals the trace gap between the arithmetic
    and log-Euclidean means of the family.
    """
    mu = left_barycentre(m, mats, w)
    total = sum(
        wj * bregman_tracial(m, mu, a) for wj, a in zip(w.weights, mats)
    )
    return max(float(total), 0.0)


def phi4_via_min(a: SpdMatrix, b: SpdMatrix) -> float:
    """The log-Euclidean divergence as a minimum of entropy Bregman costs.

    ``min_X [Phi(X, A) + Phi(X, B)]`` with the entropy divergence is attained
    at the log-Euclidean mean of the pair, and the minimum value equals the
    squared log-Euclidean Hellinger distance.  Uses the closed-form
    minimiser; no numerical optimisation.
    """
    mean = log_euclidean_pair(a, b)
    total = bregman_tracial(ENTROPY, mean, a) + bregman_tracial(ENTROPY, mean, b)
    return max(float(total), 0.0)

"""Seeded random matrix generators used by the verification suites.

All randomness in the package flows through one generator family:
NumPy's ``Generator`` over the PCG64 bit generator, seeded through
``numpy.random.SeedSequence(seed)``.  Given a seed, every sampler below is
deterministic, which makes the verification suites byte-reproducible.
"""

from __future__ import annotations

import numpy as np

from .linalg import HermitianMatrix, SpdMatrix, hermitian_part


def make_rng(seed: int) -> np.random.Generator:
    """The package-wide PRNG: PCG64 seeded via SeedSequence."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def random_hermitian(rng: np.random.Generator, dim: int, complex_entries: bool = False):
    """Random Hermitian matrix with standard normal entries (GUE/GOE style)."""
    g = rng.standard_normal((dim, dim))
    if complex_entries:
        g = g + 1j * rng.standard_normal((dim, dim))
    return HermitianMatrix(hermitian_part(g))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Ginibre matrix with the
    R-diagonal phase fix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed real orthogonal matrix."""
    g = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


def random_spd(
    rng: np.random.Generator,
    dim: int,
    cond: float = 10.0,
    scale: float = 1.0,
    complex_entries: bool = False,
) -> SpdMatrix:
    """Random SPD matrix with condition number at most ``cond``.

    Built as ``Q diag(lam) Q*`` with a Haar basis and eigenvalues drawn
    log-uniformly from ``[scale/sqrt(cond), scale*sqrt(cond)]``, so ``cond``
    bounds the realized condition number.  Spectra of independent draws are
    distinct almost surely (no pinned eigenvalues).
    """
    if cond < 1.0:
        raise ValueError("condition number must be at least 1")
    basis = random_unitary(rng, dim) if complex_entries else random_orthogonal(rng, dim)
    half = np.sqrt(cond)
    lam = np.exp(rng.uniform(np.log(scale / half), np.log(scale * half), dim))
    return SpdMatrix(hermitian_part((basis * lam) @ basis.conj().T))


def random_invertible(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random well-conditioned invertible real matrix."""
    basis = random_orthogonal(rng, dim)
    other = random_orthogonal(rng, dim)
    lam = np.exp(rng.uniform(-1.0, 1.0, dim))
    return (basis * lam) @ other

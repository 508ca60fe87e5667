"""Seeded random matrix generators used by the verification suites.

All randomness in the package flows through one generator family:
NumPy's ``Generator`` over the PCG64 bit generator, seeded through
``numpy.random.SeedSequence(seed)``.  Given a seed, every sampler below is
deterministic, which makes the verification suites byte-reproducible.

A random SPD matrix is made in two steps.  :func:`draw_spd` takes all its
random numbers from the generator, in this order: the Gaussian block
(``dim x dim`` standard normals, then as many again for the imaginary part
of a complex matrix), then the ``dim`` uniforms of the log-spectrum.
:func:`build_spd` turns draws into validated matrices and takes no random
numbers: the QR factor of the block with its sign (or phase) fix is the Haar
basis ``Q``, and ``Q diag(lam) Q*`` is built by
:func:`~helmat.linalg._spd_stack`, which takes its Hermitian part and runs
the SPD checks.  :func:`random_spd` is one draw and one build; a caller that
wants many matrices can draw them all, in its own order, and build each
dimension as one :class:`SpdMatrix` over ``(k, n, n)``, with the same bits
per matrix.
"""

from __future__ import annotations

import numpy as np

from .linalg import SpdMatrix, _adjoint, _hermitian_stack, _spd_stack


def make_rng(seed: int) -> np.random.Generator:
    """The package-wide PRNG: PCG64 seeded via SeedSequence."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def random_hermitian(rng: np.random.Generator, dim: int, complex_entries: bool = False):
    """Random Hermitian matrix with standard normal entries (GUE/GOE style)."""
    g = rng.standard_normal((dim, dim))
    if complex_entries:
        g = g + 1j * rng.standard_normal((dim, dim))
    return _hermitian_stack(g)


def random_orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed real orthogonal matrix."""
    return _haar_basis(rng.standard_normal((dim, dim)))


def _haar_basis(gaussian: np.ndarray) -> np.ndarray:
    """Q of ``gaussian = QR`` with the diagonal of R made positive (real) or
    of unit phase (complex), for each matrix of a stack."""
    q, r = np.linalg.qr(gaussian)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    phase = d / np.abs(d) if np.iscomplexobj(d) else np.sign(d)
    return q * phase[..., None, :]


def draw_spd(
    rng: np.random.Generator,
    dim: int,
    cond: float = 10.0,
    scale: float = 1.0,
    complex_entries: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """The random numbers of one :func:`random_spd`: the Gaussian block of
    its basis and its spectrum, drawn log-uniformly from
    ``[scale/sqrt(cond), scale*sqrt(cond)]``."""
    if cond < 1.0:
        raise ValueError("condition number must be at least 1")
    gaussian = rng.standard_normal((dim, dim))
    if complex_entries:
        gaussian = gaussian + 1j * rng.standard_normal((dim, dim))
    half = np.sqrt(cond)
    spectrum = np.exp(rng.uniform(np.log(scale / half), np.log(scale * half), dim))
    return gaussian, spectrum


def build_spd(gaussians: np.ndarray, spectra: np.ndarray) -> SpdMatrix:
    """Validated ``Q diag(lam) Q*`` for one draw, or for a stack of draws of
    one dimension as one :class:`SpdMatrix` over ``(k, n, n)``:
    ``gaussians`` is ``(k, n, n)`` and ``spectra`` is ``(k, n)``."""
    basis = _haar_basis(gaussians)
    return _spd_stack((basis * spectra[..., None, :]) @ _adjoint(basis))


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
    return build_spd(*draw_spd(rng, dim, cond, scale, complex_entries))

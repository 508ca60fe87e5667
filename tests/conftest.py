import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from helmat import linalg
from helmat.sampling import random_orthogonal

settings.register_profile(
    "numeric",
    deadline=None,
    max_examples=30,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numeric")


@pytest.fixture
def eigensolves(monkeypatch):
    """Log of LAPACK eigensolves (``eigh`` and ``eigvalsh``) made while the
    test runs, as ``helmat.linalg`` and ``helmat.means`` look them up: one
    ``(name, dtype)`` entry per call, ``dtype`` that of the decomposed array."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, np.asarray(a).dtype))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.fixture
def syntheses(monkeypatch):
    """Log of the spectral syntheses ``V diag(f) V*`` made while the test
    runs: one entry per ``EigenDecomposition.synthesize`` call, the shape
    of the synthesized values."""
    calls = []
    original = linalg.EigenDecomposition.synthesize

    def counted(self, values):
        calls.append(np.shape(values))
        return original(self, values)

    monkeypatch.setattr(linalg.EigenDecomposition, "synthesize", counted)
    return calls


@pytest.fixture
def hermitian_checks(monkeypatch):
    """Log of the input checks ``helmat.linalg._hermitian_checked`` made
    while the test runs: one entry per call, the shape of the checked
    array.  linalg holds the only binding of the check, so every call is
    counted."""
    calls = []
    original = linalg._hermitian_checked

    def counted(arr):
        calls.append(np.shape(arr))
        return original(arr)

    monkeypatch.setattr(linalg, "_hermitian_checked", counted)
    return calls


def _random_invertible(rng: np.random.Generator, dim: int) -> np.ndarray:
    basis = random_orthogonal(rng, dim)
    other = random_orthogonal(rng, dim)
    lam = np.exp(rng.uniform(-1.0, 1.0, dim))
    return (basis * lam) @ other


@pytest.fixture
def random_invertible():
    """Draw a well-conditioned invertible real matrix from ``rng``: two Haar
    orthogonal factors, then a spectrum log-uniform in ``[1/e, e]``."""
    return _random_invertible

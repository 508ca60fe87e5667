import numpy as np
import pytest
from hypothesis import HealthCheck, settings

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
    test runs, as ``helmat.linalg`` and ``helmat.means`` look them up."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls

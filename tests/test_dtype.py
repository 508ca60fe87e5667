"""Real input stays real: float64 in gives float64 out, complex in gives
complex out, and a mixed family is promoted to complex."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helmat.barycentre import LOG_EUCLIDEAN, WASSERSTEIN, PowerMean, solve
from helmat.distances import DistanceKind, distance
from helmat.linalg import SpdMatrix, expm, hermitian_part, invm, logm, sqrtm
from helmat.means import (
    WeightVector,
    arithmetic_mean,
    geometric_mean,
    log_euclidean_multi,
    log_euclidean_pair,
    q_half,
)
from helmat.sampling import make_rng, random_spd

KINDS = (WASSERSTEIN, PowerMean(0.5), PowerMean(0.3), LOG_EUCLIDEAN)
KIND_IDS = ("wasserstein", "power-half", "power-0.3", "logeuclid")


def _family(seed: int, complex_entries: bool, m: int = 3, dim: int = 5):
    rng = make_rng(seed)
    return [random_spd(rng, dim, cond=20.0, complex_entries=complex_entries)
            for _ in range(m)]


def _outputs(mats):
    a, b = mats[0], mats[1]
    w = WeightVector.uniform(len(mats))
    return {
        "SpdMatrix": SpdMatrix(a.entries),
        "sqrtm": sqrtm(a),
        "invm": invm(a),
        "logm": logm(a),
        "expm": expm(logm(a)),
        "arithmetic_mean": arithmetic_mean(mats, w),
        "geometric_mean": geometric_mean(a, b),
        "log_euclidean_pair": log_euclidean_pair(a, b),
        "log_euclidean_multi": log_euclidean_multi(mats, w),
        "q_half": q_half(mats, w),
        **{f"solve-{name}": solve(kind, mats, w)[0] for kind, name in zip(KINDS, KIND_IDS)},
    }


@pytest.mark.parametrize("complex_entries, dtype",
                         [(False, np.float64), (True, np.complex128)],
                         ids=("real", "complex"))
def test_output_dtype_follows_input(complex_entries, dtype):
    for name, value in _outputs(_family(0, complex_entries)).items():
        assert value.entries.dtype == dtype, name
        assert value.eig().eigenvectors.dtype == dtype, name


def test_integer_input_is_real():
    assert SpdMatrix([[2, 1], [1, 2]]).entries.dtype == np.float64


def test_mixed_family_is_promoted_to_complex():
    mats = _family(1, False, m=2) + _family(2, True, m=2)
    w = WeightVector.uniform(4)
    assert arithmetic_mean(mats, w).entries.dtype == np.complex128
    for kind in KINDS:
        x, report = solve(kind, mats, w)
        assert report.converged, kind
        assert x.entries.dtype == np.complex128, kind


@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
@pytest.mark.parametrize("complex_family", [False, True], ids=("real-family", "complex-family"))
def test_solve_converges_from_a_start_of_the_other_dtype(kind, complex_family):
    mats = _family(3, complex_family)
    w = WeightVector.uniform(len(mats))
    reference, _ = solve(kind, mats, w)
    mean = arithmetic_mean(mats, w).entries
    if complex_family:
        # the real part of a Hermitian matrix has its spectrum inside the
        # matrix's, so it is a real start inside the spectral bracket
        x0 = SpdMatrix(mean.real)
    else:
        skew = np.triu(np.ones_like(mean), 1)
        x0 = SpdMatrix(hermitian_part(mean + 1e-3j * (skew - skew.T)))
    assert x0.entries.dtype != reference.entries.dtype
    x, report = solve(kind, mats, w, x0=x0)
    assert report.converged and report.fallbacks == 0, report
    assert x.entries.dtype == np.complex128
    assert_allclose(x.entries, reference.entries, rtol=0, atol=1e-10 * np.abs(mean).max())


def test_real_inputs_make_no_complex_eigensolve(eigensolves):
    mats = _family(4, False, m=4, dim=6)
    w = WeightVector.uniform(len(mats))
    for kind in KINDS:
        solve(kind, mats, w)
    for kind in DistanceKind:
        distance(kind, mats[0], mats[1])
        distance(kind, mats[2], mats[3])
    assert len(eigensolves) > 0
    assert {dtype for _, dtype, _ in eigensolves} == {np.dtype(np.float64)}

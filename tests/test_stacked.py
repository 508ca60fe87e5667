"""Stack-aware kernels: each matrix of a stack gets, bit for bit, what the
single-matrix call gives it, and a failing matrix is named."""

import numpy as np
import pytest

from helmat.distances import (
    DistanceKind,
    chain_divergences,
    divergence,
    divergences,
    trace_chain,
    trace_chains,
)
from helmat.errors import HermitianError, NotPositiveDefiniteError
from helmat.linalg import HermitianMatrix, SpdMatrix, SpdStack, _hermitian_checked, eigh
from helmat.means import _fidelities, fidelity
from helmat.sampling import build_spd, draw_spd, make_rng, random_spd

DIMS = range(2, 17)
STACK = 6


def _draws(seed, dim, complex_entries, cond=100.0):
    rng = make_rng(seed)
    draws = [draw_spd(rng, dim, cond=cond, complex_entries=complex_entries)
             for _ in range(STACK)]
    return np.array([g for g, _ in draws]), np.array([lam for _, lam in draws])


def _pair_stacks(dim, complex_entries):
    a = build_spd(*_draws(dim, dim, complex_entries))
    b = build_spd(*_draws(100 + dim, dim, complex_entries))
    singles = [(SpdMatrix(a.entries[i]), SpdMatrix(b.entries[i])) for i in range(STACK)]
    return a, b, singles


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("dim", DIMS)
def test_stacked_build_is_random_spd_per_slice(dim, complex_entries):
    stack = build_spd(*_draws(dim, dim, complex_entries))
    rng = make_rng(dim)
    for i in range(STACK):
        single = random_spd(rng, dim, cond=100.0, complex_entries=complex_entries)
        assert np.array_equal(stack.entries[i], single.entries)
        assert np.array_equal(stack.eig().eigenvalues[i], single.eig().eigenvalues)
        assert np.array_equal(stack.eig().eigenvectors[i], single.eig().eigenvectors)
    assert np.array_equal(stack.trace(), [SpdMatrix(m).trace() for m in stack.entries])


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("dim", DIMS)
def test_hermitian_check_and_eigh_per_slice(dim, complex_entries):
    rng = make_rng(dim)
    raw = rng.standard_normal((STACK, dim, dim))
    if complex_entries:
        raw = raw + 1j * rng.standard_normal((STACK, dim, dim))
    # a defect well inside the tolerance, so the symmetrisation has work to do
    raw = raw + np.swapaxes(raw, -1, -2).conj() + 1e-14 * raw
    checked = _hermitian_checked(raw)
    stacked = SpdStack(checked + 4.0 * dim * np.eye(dim))
    for i in range(STACK):
        single = HermitianMatrix(raw[i])
        assert np.array_equal(checked[i], single.entries)
        eig = eigh(single.entries + 4.0 * dim * np.eye(dim))
        assert np.array_equal(stacked.eig().eigenvalues[i], eig.eigenvalues)
        assert np.array_equal(stacked.eig().eigenvectors[i], eig.eigenvectors)


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("dim", DIMS)
def test_mean_traces_and_divergences_per_slice(dim, complex_entries):
    a, b, singles = _pair_stacks(dim, complex_entries)
    chains = trace_chains(a, b)
    squares = chain_divergences(a, b, chains)
    fidelities = _fidelities(a, b)
    for i, (a_i, b_i) in enumerate(singles):
        chain = trace_chain(a_i, b_i)
        assert [tr[i] for tr in chains] == list(chain)
        assert [s[i] for s in squares] == chain_divergences(a_i, b_i, chain)
        assert fidelities[i] == fidelity(a_i, b_i)
    for kind in DistanceKind:
        assert np.array_equal(divergences(kind, a, b),
                              [divergence(kind, a_i, b_i) for a_i, b_i in singles])


def _stack_with_bad_slice(bad: np.ndarray, at: int) -> np.ndarray:
    stack = np.array([np.diag([1.0, 2.0, 3.0])] * 5)
    stack[at] = bad
    return stack


@pytest.mark.parametrize(
    "bad, error",
    [
        (np.array([[1.0, 2.0, 0.0], [0.5, 3.0, 0.0], [0.0, 0.0, 1.0]]), HermitianError),
        (np.diag([1.0, np.nan, 1.0]), HermitianError),
        (np.diag([1.0, np.inf, 1.0]), HermitianError),
        (np.diag([1.0, -1.0, 1.0]), NotPositiveDefiniteError),
        (np.diag([1.0, 0.0, 1.0]), NotPositiveDefiniteError),
    ],
    ids=["non-hermitian", "nan", "inf", "indefinite", "singular"],
)
@pytest.mark.parametrize("at", [0, 3])
def test_stack_names_the_failing_slice(bad, error, at):
    with pytest.raises(error) as single:
        SpdMatrix(bad)
    with pytest.raises(error, match=f"^slice {at}: ") as stacked:
        SpdStack(_stack_with_bad_slice(bad, at))
    assert str(stacked.value) == f"slice {at}: {single.value}"

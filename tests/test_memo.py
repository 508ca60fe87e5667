"""The per-value memo of A^{1/2}, A^{-1/2} and log A (see
``helmat.linalg._memoized``): what it saves, and that it changes no bit."""

import pickle

import numpy as np
import pytest

from helmat.barycentre import LOG_EUCLIDEAN, WASSERSTEIN, PowerMean, solve
from helmat.distances import DistanceKind, distance, trace_chain
from helmat.linalg import (
    HermitianMatrix,
    SpdMatrix,
    _spd_stack,
    logm,
    sqrt_entries,
    sqrt_pair_entries,
)
from helmat.means import WeightVector
from helmat.sampling import make_rng, random_spd

ALL_KINDS = list(DistanceKind)


def _pair_arrays(seed: int, dim: int, complex_entries: bool):
    rng = make_rng(seed)
    return [random_spd(rng, dim, cond=50.0, complex_entries=complex_entries).entries
            for _ in range(2)]


def _stack_arrays(seed: int, dim: int, complex_entries: bool, count: int = 3):
    pairs = [_pair_arrays(seed + i, dim, complex_entries) for i in range(count)]
    return [np.stack([pair[k] for pair in pairs]) for k in range(2)]


def _same(x, y) -> bool:
    return all(np.array_equal(u, v) for u, v in zip(np.atleast_1d(x), np.atleast_1d(y)))


def test_warm_distance_calls_make_fewer_syntheses(syntheses, eigensolves):
    a, b = (SpdMatrix(arr) for arr in _pair_arrays(8, 5, True))
    for kind, (synthesised, solved) in zip(ALL_KINDS, ((0, 0), (0, 1), (2, 1), (2, 1))):
        distance(kind, a, b)
        syntheses.clear()
        eigensolves.clear()
        distance(kind, a, b)
        assert (len(syntheses), len(eigensolves)) == (synthesised, solved), kind


def test_trace_chain_on_fresh_values_shares_the_square_root(syntheses):
    a, b = (SpdMatrix(arr) for arr in _pair_arrays(9, 4, False))
    syntheses.clear()
    trace_chain(a, b)
    # d3: A^{1/2}, A^{-1/2}, the checked middle, its power; d4: log A,
    # log B, the checked mean exponent, its exp; d1: B^{1/2} only
    assert len(syntheses) == 9


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
def test_warm_and_fresh_distances_are_bit_identical(complex_entries, stacked):
    arrays = (_stack_arrays if stacked else _pair_arrays)(21, 4, complex_entries)
    build = _spd_stack if stacked else SpdMatrix
    warm = [build(arr) for arr in arrays]
    for kind in ALL_KINDS:
        fresh = distance(kind, *(build(arr) for arr in arrays))
        assert _same(distance(kind, *warm), fresh), kind
        assert _same(distance(kind, *warm), fresh), kind
    fresh_chain = trace_chain(*(build(arr) for arr in arrays))
    for _ in range(2):
        assert all(_same(x, y) for x, y in zip(trace_chain(*warm), fresh_chain))


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("kind", [WASSERSTEIN, PowerMean(0.5), PowerMean(0.3), LOG_EUCLIDEAN],
                         ids=repr)
def test_warm_and_fresh_solves_are_bit_identical(kind, complex_entries):
    rng = make_rng(33)
    arrays = [random_spd(rng, 3, cond=20.0, complex_entries=complex_entries).entries
              for _ in range(3)]
    w = WeightVector([0.2, 0.5, 0.3])
    warm = [SpdMatrix(arr) for arr in arrays]
    fresh_x, fresh_report = solve(kind, [SpdMatrix(arr) for arr in arrays], w)
    for _ in range(2):
        x, report = solve(kind, warm, w)
        assert np.array_equal(x.entries, fresh_x.entries)
        assert report == fresh_report


@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
def test_memo_arrays_are_read_only(stacked):
    arrays = (_stack_arrays if stacked else _pair_arrays)(5, 3, True)
    a = (_spd_stack if stacked else SpdMatrix)(arrays[0])
    eig = a.eig()
    for arr in (*sqrt_pair_entries(a), logm(a).entries, eig.eigenvalues, eig.eigenvectors):
        with pytest.raises(ValueError, match="read-only"):
            arr[..., 0, 0] = 0.0


def test_memo_returns_the_same_arrays():
    a = SpdMatrix(_pair_arrays(6, 3, False)[0])
    assert sqrt_entries(a) is sqrt_pair_entries(a)[0]
    assert sqrt_pair_entries(a)[1] is sqrt_pair_entries(a)[1]
    assert logm(a) is logm(a)


@pytest.mark.parametrize("source", [SpdMatrix, HermitianMatrix], ids=lambda c: c.__name__)
def test_spd_of_a_value_reuses_its_memo(syntheses, source):
    value = source(_pair_arrays(7, 4, True)[0])
    root, inverse_root = sqrt_pair_entries(value)
    log = logm(value)
    syntheses.clear()
    spd = SpdMatrix(value)
    assert sqrt_pair_entries(spd)[0] is root
    assert sqrt_pair_entries(spd)[1] is inverse_root
    assert logm(spd) is log
    assert syntheses == []
    # and what the new value computes first, the old one reads
    fresh = source(_pair_arrays(7, 4, True)[0])
    assert sqrt_entries(SpdMatrix(fresh)) is sqrt_entries(fresh)


def test_a_value_with_a_full_memo_pickles(syntheses):
    a = SpdMatrix(_pair_arrays(9, 3, True)[0])
    root, inverse_root = sqrt_pair_entries(a)
    log = logm(a)
    copy = pickle.loads(pickle.dumps(a))
    syntheses.clear()
    assert np.array_equal(copy.entries, a.entries)
    assert np.array_equal(sqrt_pair_entries(copy)[0], root)
    assert np.array_equal(sqrt_pair_entries(copy)[1], inverse_root)
    assert np.array_equal(logm(copy).entries, log.entries)
    assert syntheses == []  # the copy's memo came along

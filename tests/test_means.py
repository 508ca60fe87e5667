import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helmat.calculus import fd_directional
from helmat.distances import DistanceKind, divergence
from helmat.errors import DimensionMismatchError, SpectralDomainError
from helmat.linalg import SpdMatrix, congruence, frobenius_norm, sqrt_entries
from helmat.means import (
    WeightVector,
    arithmetic_mean,
    check_family,
    fidelity,
    geometric_mean,
    geometric_mean_t,
    log_euclidean_multi,
    log_euclidean_pair,
    q_half,
)
from helmat.sampling import make_rng, random_spd


@given(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=6))
def test_weight_vector_normalises(raw):
    w = WeightVector(raw)
    assert np.sum(w.weights) == pytest.approx(1.0, abs=1e-12)
    assert np.all(w.weights > 0.0)


def test_weight_vector_rejects_bad_input():
    for bad in ([], [1.0, -2.0], [0.0, 1.0], [np.inf, 1.0]):
        with pytest.raises(ValueError):
            WeightVector(bad)


def test_weights_whose_sum_overflows_normalise(recwarn):
    assert np.array_equal(WeightVector([1e308, 1e308]).weights, [0.5, 0.5])
    w = WeightVector([1e308, 1.5e308]).weights
    assert w[1] / w[0] == pytest.approx(1.5, rel=1e-15)
    assert abs(np.sum(w) - 1.0) <= 1e-12
    assert not recwarn.list  # no overflow warning either


def test_weights_with_a_finite_sum_keep_their_bits():
    raw = np.array([1e307, 3.0e307, 0.25e307])
    assert np.array_equal(WeightVector(raw).weights, raw / raw.sum())


def test_check_family_rejects_an_empty_family():
    with pytest.raises(ValueError, match="need at least one matrix"):
        check_family([], WeightVector([1.0]))


def test_arithmetic_mean_examples():
    rng = make_rng(0)
    a = random_spd(rng, 3)
    w2 = WeightVector.uniform(2)
    assert_allclose(arithmetic_mean([a, a], w2).entries, a.entries, atol=1e-14)
    pair = [SpdMatrix(np.eye(2)), SpdMatrix(3.0 * np.eye(2))]
    assert_allclose(arithmetic_mean(pair, w2).entries, 2.0 * np.eye(2))
    triple = [random_spd(rng, 3) for _ in range(3)]
    w = WeightVector([0.2, 0.3, 0.5])
    expected = sum(wj * m.entries for wj, m in zip(w.weights, triple))
    assert_allclose(arithmetic_mean(triple, w).entries, expected)


def test_arithmetic_mean_validates_lengths():
    rng = make_rng(1)
    a, b = random_spd(rng, 2), random_spd(rng, 3)
    with pytest.raises(DimensionMismatchError):
        arithmetic_mean([a, b], WeightVector.uniform(2))
    with pytest.raises(DimensionMismatchError):
        arithmetic_mean([a], WeightVector.uniform(2))


def test_geometric_mean_idempotent_and_endpoints():
    rng = make_rng(2)
    a, b = random_spd(rng, 3), random_spd(rng, 3)
    assert_allclose(geometric_mean(a, a).entries, a.entries, atol=1e-11)
    assert_allclose(geometric_mean_t(a, b, 0.0).entries, a.entries, atol=1e-11)
    assert_allclose(geometric_mean_t(a, b, 1.0).entries, b.entries, atol=1e-10)


def test_geometric_mean_commuting_case():
    a = SpdMatrix(np.diag([1.0, 4.0]))
    b = SpdMatrix(np.diag([9.0, 16.0]))
    assert_allclose(geometric_mean(a, b).entries, np.diag([3.0, 8.0]), atol=1e-12)
    # general t on commuting inputs: entrywise a^(1-t) b^t
    t = 0.3
    expected = np.diag([1.0**0.7 * 9.0**0.3, 4.0**0.7 * 16.0**0.3])
    assert_allclose(geometric_mean_t(a, b, t).entries, expected, rtol=1e-12)


def test_geometric_mean_rejects_bad_t():
    rng = make_rng(3)
    a, b = random_spd(rng, 2), random_spd(rng, 2)
    with pytest.raises(ValueError):
        geometric_mean_t(a, b, 1.2)
    with pytest.raises(ValueError):
        geometric_mean_t(a, b, -0.1)


def test_geometric_mean_congruence_invariance(random_invertible):
    rng = make_rng(4)
    worst = 0.0
    for _ in range(500):
        dim = int(rng.integers(2, 4))
        a, b = random_spd(rng, dim), random_spd(rng, dim)
        t = float(rng.uniform(0.0, 1.0))
        k = random_invertible(rng, dim)
        left = congruence(k, geometric_mean_t(a, b, t)).entries
        right = geometric_mean_t(congruence(k, a), congruence(k, b), t).entries
        worst = max(worst, np.linalg.norm(left - right) / np.linalg.norm(left))
    assert worst <= 1e-9


def test_log_euclidean_pair_examples():
    rng = make_rng(5)
    a = random_spd(rng, 3)
    assert_allclose(log_euclidean_pair(a, a).entries, a.entries, atol=1e-11)
    d1 = SpdMatrix(np.diag([1.0, np.e**2]))
    d2 = SpdMatrix(np.diag([np.e**2, 1.0]))
    assert_allclose(log_euclidean_pair(d1, d2).entries, np.e * np.eye(2), rtol=1e-12)


def test_log_euclidean_trace_between_neighbours_in_chain():
    rng = make_rng(6)
    for _ in range(50):
        a, b = random_spd(rng, 3), random_spd(rng, 3)
        tr_geo = geometric_mean(a, b).trace()
        tr_log = log_euclidean_pair(a, b).trace()
        tr_half = np.trace(sqrt_entries(a) @ sqrt_entries(b)).real
        assert tr_geo <= tr_log + 1e-10
        assert tr_log <= tr_half + 1e-10


def test_log_euclidean_multi_reductions():
    rng = make_rng(7)
    a = random_spd(rng, 3)
    w3 = WeightVector([0.5, 0.25, 0.25])
    assert_allclose(log_euclidean_multi([a, a, a], w3).entries, a.entries, atol=1e-11)

    diag_triple = [SpdMatrix(np.diag(rng.uniform(0.5, 3.0, 4))) for _ in range(3)]
    w = WeightVector([0.2, 0.3, 0.5])
    expected = np.diag(
        np.prod(
            [np.diag(m.entries.real) ** wj for wj, m in zip(w.weights, diag_triple)],
            axis=0,
        )
    )
    assert_allclose(log_euclidean_multi(diag_triple, w).entries, expected, rtol=1e-11)

    b = random_spd(rng, 3)
    pair_value = log_euclidean_pair(a, b).entries
    multi_value = log_euclidean_multi([a, b], WeightVector.uniform(2)).entries
    assert np.linalg.norm(pair_value - multi_value) <= 1e-12 * np.linalg.norm(pair_value)


def test_fidelity_examples():
    rng = make_rng(8)
    a = random_spd(rng, 3)
    assert fidelity(a, a) == pytest.approx(a.trace(), rel=1e-12)
    b = random_spd(rng, 3)
    assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-10)


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_fidelity_negative_eigenvalue_check_is_relative(monkeypatch, scale):
    # a congruence eigenvalue of -1e-3 times the spectral radius is no
    # roundoff at any scale, also where the radius is far below one
    rng = make_rng(13)
    a, b = random_spd(rng, 3), random_spd(rng, 3)
    a, b = SpdMatrix(scale * a.entries), SpdMatrix(scale * b.entries)
    original = np.linalg.eigvalsh

    def shifted(arr, *args, **kwargs):
        values = original(arr, *args, **kwargs)
        return values - (values[..., :1] + 1e-3 * values[..., -1:]) * (np.arange(3) == 0)

    monkeypatch.setattr(np.linalg, "eigvalsh", shifted)
    with pytest.raises(SpectralDomainError, match="negative eigenvalue"):
        fidelity(a, b)


def test_fidelity_near_pure_states():
    u = np.array([1.0, 0.0])
    v = np.array([1.0, 1.0]) / np.sqrt(2.0)
    a = SpdMatrix(np.outer(u, u) + 1e-8 * np.eye(2))
    b = SpdMatrix(np.outer(v, v) + 1e-8 * np.eye(2))
    overlap = abs(u @ v)
    assert fidelity(a, b) == pytest.approx(overlap, abs=1e-3)
    assert overlap == pytest.approx(0.70711, abs=1e-5)


def test_q_half_examples():
    rng = make_rng(9)
    a = random_spd(rng, 3)
    assert_allclose(q_half([a, a], WeightVector.uniform(2)).entries, a.entries, atol=1e-11)
    pair = [SpdMatrix(np.diag([1.0, 9.0])), SpdMatrix(np.diag([9.0, 1.0]))]
    assert_allclose(
        q_half(pair, WeightVector.uniform(2)).entries, np.diag([4.0, 4.0]), atol=1e-12
    )


def test_q_half_minimises_d1_objective():
    rng = make_rng(10)
    mats = [random_spd(rng, 3) for _ in range(3)]
    w = WeightVector([0.2, 0.3, 0.5])
    minimiser = q_half(mats, w)

    def objective(x):
        return sum(
            wj * divergence(DistanceKind.D1, SpdMatrix(x), m)
            for wj, m in zip(w.weights, mats)
        )

    for _ in range(10):
        direction = rng.standard_normal((3, 3))
        direction = (direction + direction.T) / 2
        slope = fd_directional(objective, minimiser.entries, direction)
        assert abs(slope) / np.linalg.norm(direction) <= 1e-6


def test_means_idempotence_and_commuting_reduction():
    rng = make_rng(11)
    diag = np.diag(rng.uniform(0.5, 4.0, 3))
    a, b = SpdMatrix(diag), SpdMatrix(np.diag(rng.uniform(0.5, 4.0, 3)))
    da, db = np.diag(a.entries.real), np.diag(b.entries.real)
    w2 = WeightVector.uniform(2)
    cases = {
        "arithmetic": (arithmetic_mean([a, b], w2).entries, (da + db) / 2),
        "geometric": (geometric_mean(a, b).entries, np.sqrt(da * db)),
        "log_euclidean": (log_euclidean_pair(a, b).entries, np.sqrt(da * db)),
        "q_half": (q_half([a, b], w2).entries, ((np.sqrt(da) + np.sqrt(db)) / 2) ** 2),
    }
    for name, (got, want_diag) in cases.items():
        assert_allclose(got, np.diag(want_diag), atol=1e-11, err_msg=name)


def test_trace_geometric_strictly_concave_in_second_argument():
    rng = make_rng(12)
    for _ in range(100):
        dim = int(rng.integers(2, 4))
        a = random_spd(rng, dim)
        x, y = random_spd(rng, dim), random_spd(rng, dim)
        if frobenius_norm(x.entries - y.entries) < 1e-8:
            continue
        mid = SpdMatrix((x.entries + y.entries) / 2)
        margin = geometric_mean(a, mid).trace() - (
            geometric_mean(a, x).trace() + geometric_mean(a, y).trace()
        ) / 2
        assert margin > 0.0


def test_trace_log_euclidean_jointly_concave():
    rng = make_rng(13)
    for _ in range(500):
        dim = int(rng.integers(2, 4))
        x1, x2 = random_spd(rng, dim), random_spd(rng, dim)
        y1, y2 = random_spd(rng, dim), random_spd(rng, dim)
        mid = log_euclidean_pair(
            SpdMatrix((x1.entries + y1.entries) / 2),
            SpdMatrix((x2.entries + y2.entries) / 2),
        ).trace()
        split = (
            log_euclidean_pair(x1, x2).trace() + log_euclidean_pair(y1, y2).trace()
        ) / 2
        assert mid >= split - 1e-10

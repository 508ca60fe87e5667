import numpy as np
import pytest
from numpy.testing import assert_allclose

from helmat.calculus import fd_directional
from helmat.distances import (
    DistanceKind,
    ProbabilityVector,
    chain_divergences,
    d2_unitary,
    distance,
    divergence,
    hellinger,
    trace_chain,
)
from helmat.errors import DimensionMismatchError, HermitianError
from helmat.linalg import SpdMatrix, frobenius_norm, sqrt_entries
from helmat.sampling import make_rng, random_orthogonal, random_spd, random_unitary
from helmat.suites import (
    D3_TRIANGLE_REFERENCE,
    D3_TRIANGLE_TRIPLE,
    D4_TRIANGLE_REFERENCE,
    D4_TRIANGLE_TRIPLE,
    REFERENCE_TOL,
    counterexamples_suite,
)

ALL_KINDS = (DistanceKind.D1, DistanceKind.D2, DistanceKind.D3, DistanceKind.D4)


def test_probability_vector_validation():
    ProbabilityVector([0.5, 0.5])
    with pytest.raises(ValueError):
        ProbabilityVector([0.5, 0.6])
    with pytest.raises(ValueError):
        ProbabilityVector([1.5, -0.5])


def test_probability_vector_keeps_its_own_copy():
    caller = np.array([0.5, 0.5])
    p = ProbabilityVector(caller)
    assert caller.flags.writeable
    caller[0] = 2.0
    assert p.entries.tolist() == [0.5, 0.5]


def test_hellinger_examples():
    p = ProbabilityVector([0.5, 0.5])
    assert hellinger(p, p) == 0.0
    disjoint = hellinger(ProbabilityVector([1.0, 0.0]), ProbabilityVector([0.0, 1.0]))
    assert disjoint == pytest.approx(1.0, abs=1e-15)
    mixed = hellinger(p, ProbabilityVector([1.0, 0.0]))
    assert mixed == pytest.approx(np.sqrt(1.0 - np.sqrt(0.5)), rel=1e-12)
    assert mixed == pytest.approx(0.54120, abs=5e-6)
    with pytest.raises(DimensionMismatchError):
        hellinger(p, ProbabilityVector([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_distance_zero_on_diagonal_and_symmetric(kind):
    rng = make_rng(0)
    a, b = random_spd(rng, 3, cond=50.0), random_spd(rng, 3, cond=50.0)
    assert distance(kind, a, a) <= 1e-9
    assert abs(distance(kind, a, b) - distance(kind, b, a)) <= 1e-10
    assert distance(kind, a, b) > 1e-3  # distinct inputs separate


def test_d3_triangle_counterexample_values():
    a, b, c = (SpdMatrix(m) for m in D3_TRIANGLE_TRIPLE)
    direct = distance(DistanceKind.D3, a, b)
    detour = distance(DistanceKind.D3, a, c) + distance(DistanceKind.D3, c, b)
    assert direct == pytest.approx(D3_TRIANGLE_REFERENCE[0], abs=REFERENCE_TOL)
    assert detour == pytest.approx(D3_TRIANGLE_REFERENCE[1], abs=REFERENCE_TOL)
    assert direct > detour


def test_d4_triangle_counterexample_values():
    a, b, c = (SpdMatrix(m) for m in D4_TRIANGLE_TRIPLE)
    direct = distance(DistanceKind.D4, a, b)
    detour = distance(DistanceKind.D4, a, c) + distance(DistanceKind.D4, c, b)
    assert direct == pytest.approx(D4_TRIANGLE_REFERENCE[0], abs=REFERENCE_TOL)
    assert detour == pytest.approx(D4_TRIANGLE_REFERENCE[1], abs=REFERENCE_TOL)
    assert direct > detour


def test_divergence_commuting_reduction():
    a = SpdMatrix(np.diag([1.0, 4.0]))
    b = SpdMatrix(np.diag([9.0, 16.0]))
    # scalar reduction: (1+9+4+16) - 2(sqrt(9) + sqrt(64)) = 30 - 22
    assert divergence(DistanceKind.D3, a, b) == pytest.approx(8.0, rel=1e-12)


def test_divergence_is_squared_distance():
    rng = make_rng(1)
    a, b = random_spd(rng, 4), random_spd(rng, 4)
    for kind in ALL_KINDS:
        assert divergence(kind, a, b) == pytest.approx(distance(kind, a, b) ** 2, rel=1e-12)


def test_squared_distance_ordering_sampled():
    rng = make_rng(2)
    for _ in range(200):
        dim = int(rng.integers(2, 6))
        a, b = random_spd(rng, dim, cond=100.0), random_spd(rng, dim, cond=100.0)
        squares = [divergence(k, a, b) for k in
                   (DistanceKind.D3, DistanceKind.D4, DistanceKind.D1, DistanceKind.D2)]
        assert all(np.diff(squares) <= 1e-10)


def test_trace_chain_examples():
    rng = make_rng(3)
    a = random_spd(rng, 3)
    chain = trace_chain(a, a)
    assert_allclose(list(chain), [a.trace()] * 4, rtol=1e-11)

    da, db = np.diag([1.0, 4.0]), np.diag([9.0, 25.0])
    commuting = trace_chain(SpdMatrix(da), SpdMatrix(db))
    collapsed = float(np.sum(np.sqrt(np.diag(da) * np.diag(db))))
    assert_allclose(list(commuting), [collapsed] * 4, rtol=1e-12)

    b = random_spd(rng, 3)
    generic = trace_chain(a, b)
    assert np.all(np.diff(generic) > 0.0)  # strictly increasing off the commuting case


def test_chain_divergences_are_the_divergences():
    rng = make_rng(4)
    kinds = (DistanceKind.D3, DistanceKind.D4, DistanceKind.D1, DistanceKind.D2)
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        a = random_spd(rng, dim, cond=100.0, complex_entries=True)
        b = random_spd(rng, dim, cond=100.0)
        expected = [divergence(k, a, b) for k in kinds]
        assert chain_divergences(a, b, trace_chain(a, b)) == expected
    # the clamp applies as in divergence: equal inputs give exact zeros
    assert chain_divergences(a, a, trace_chain(a, a)) == [0.0] * 4


def test_triangle_row_reports_the_worst_violation():
    # every sampled violation is negative, and the row prints the largest
    # of them rather than a floor of zero
    row = {c.name: c for c in counterexamples_suite(310, 20).checks}["d1-d2-triangle-holds"]
    assert row.passed
    assert float(row.detail.rsplit(" ", 1)[1]) < 0.0


def test_triangle_inequality_for_d1_d2():
    rng = make_rng(4)
    for _ in range(200):
        dim = int(rng.integers(2, 5))
        a, b, c = (random_spd(rng, dim, cond=30.0) for _ in range(3))
        for kind in (DistanceKind.D1, DistanceKind.D2):
            gap = distance(kind, a, b) - distance(kind, a, c) - distance(kind, c, b)
            assert gap <= 1e-10


def test_joint_convexity_of_d3_d4_squares():
    rng = make_rng(5)
    for _ in range(500):
        dim = int(rng.integers(2, 4))
        a1, a2 = random_spd(rng, dim), random_spd(rng, dim)
        b1, b2 = random_spd(rng, dim), random_spd(rng, dim)
        mid_a = SpdMatrix((a1.entries + a2.entries) / 2)
        mid_b = SpdMatrix((b1.entries + b2.entries) / 2)
        for kind in (DistanceKind.D3, DistanceKind.D4):
            lhs = divergence(kind, mid_a, mid_b)
            rhs = (divergence(kind, a1, b1) + divergence(kind, a2, b2)) / 2
            assert lhs <= rhs + 1e-10


def test_d1_d2_squares_satisfy_divergence_axioms_by_fd():
    # no closed-form derivatives are exposed for these two squares, so the
    # axioms (vanishing gradient, nonnegative curvature on the diagonal) are
    # checked by finite differences only
    rng = make_rng(10)
    for _ in range(20):
        dim = int(rng.integers(2, 4))
        a = random_spd(rng, dim, cond=10.0)
        y = rng.standard_normal((dim, dim))
        y = (y + y.T) / 2
        for kind in (DistanceKind.D1, DistanceKind.D2):

            def phi(m):
                return divergence(kind, a, SpdMatrix(m))

            slope = fd_directional(phi, a.entries, y)
            assert abs(slope) / np.linalg.norm(y) <= 1e-6
            t = 1e-2 * frobenius_norm(a) / np.linalg.norm(y)
            curvature = 2.0 * phi(a.entries + t * y) / (t * t)
            assert curvature >= -1e-8


def test_unitary_invariance():
    rng = make_rng(6)
    a, b = random_spd(rng, 3, complex_entries=True), random_spd(rng, 3, complex_entries=True)
    u = random_unitary(rng, 3)
    ua = SpdMatrix(u @ a.entries @ u.conj().T)
    ub = SpdMatrix(u @ b.entries @ u.conj().T)
    for kind in ALL_KINDS:
        assert abs(distance(kind, ua, ub) - distance(kind, a, b)) <= 1e-10


def test_d2_unitary_examples():
    rng = make_rng(7)
    a = random_spd(rng, 3)
    value, u = d2_unitary(a, a)
    assert value <= 1e-9
    assert_allclose(u, np.eye(3), atol=1e-9)

    da = SpdMatrix(np.diag([1.0, 4.0]))
    db = SpdMatrix(np.diag([9.0, 25.0]))
    value, u = d2_unitary(da, db)
    assert_allclose(u, np.eye(2), atol=1e-12)
    assert value == pytest.approx(np.linalg.norm(np.diag([1.0 - 3.0, 2.0 - 5.0])), rel=1e-12)


def test_d2_unitary_matches_distance_and_beats_random_unitaries():
    rng = make_rng(8)
    a, b = random_spd(rng, 3), random_spd(rng, 3)
    value, optimal = d2_unitary(a, b)
    assert value == pytest.approx(distance(DistanceKind.D2, a, b), abs=1e-9)
    assert np.linalg.norm(optimal @ optimal.conj().T - np.eye(3)) <= 1e-12
    root_a, root_b = sqrt_entries(a), sqrt_entries(b)
    for _ in range(500):
        u = random_unitary(rng, 3)
        assert np.linalg.norm(root_a - root_b @ u) >= value - 1e-12


def test_distance_dimension_mismatch():
    rng = make_rng(9)
    with pytest.raises(DimensionMismatchError):
        distance(DistanceKind.D1, random_spd(rng, 2), random_spd(rng, 3))


def test_distance_eigensolves_with_warm_caches(eigensolves):
    rng = make_rng(8)
    a = random_spd(rng, 5, cond=100.0, complex_entries=True)
    b = random_spd(rng, 5, cond=100.0, complex_entries=True)
    for kind, expected in zip(ALL_KINDS, (0, 1, 1, 1)):
        eigensolves.clear()
        distance(kind, a, b)
        assert len(eigensolves) == expected, kind


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_d2_at_overflowing_scale_raises_the_library_error():
    # A^{1/2} B A^{1/2} overflows from s ~ 1.3e154 on; d1, d3 and d4 still
    # give sqrt(s) d(A, B) there
    rng = make_rng(5)
    a, b = (SpdMatrix(1e160 * random_spd(rng, 3).entries) for _ in range(2))
    with pytest.raises(HermitianError, match="finite"):
        distance(DistanceKind.D2, a, b)
    assert np.isfinite(distance(DistanceKind.D1, a, b))


def _homogeneity_pairs():
    """A with spectrum {1, 2, 3} and B with spectrum {1.5, 2, 2.5}, each in
    its own Haar basis, real and complex, at seeds 0-19."""
    pairs = []
    for seed in range(20):
        rng = make_rng(seed)
        for haar in (random_orthogonal, random_unitary):
            u, v = haar(rng, 3), haar(rng, 3)
            pairs.append(((u * [1.0, 2.0, 3.0]) @ u.conj().T,
                          (v * [1.5, 2.0, 2.5]) @ v.conj().T))
    return pairs


@pytest.mark.parametrize("s", [
    1e-6,
    1e6,
    1e12,
    pytest.param(1e-12, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 2: s d^2 ~ 1e-13 falls under the absolute "
        "radicand clamp, so every kind reads 0.0")),
])
def test_distances_are_jointly_homogeneous(s):
    """d(sA, sB) = sqrt(s) d(A, B) for all four kinds."""
    for a, b in _homogeneity_pairs():
        for kind in ALL_KINDS:
            expected = np.sqrt(s) * distance(kind, SpdMatrix(a), SpdMatrix(b))
            scaled = distance(kind, SpdMatrix(s * a), SpdMatrix(s * b))
            assert abs(scaled - expected) <= 1e-12 * expected, (kind, scaled, expected)


def test_distances_are_unitarily_invariant_and_symmetric():
    """d(UAU*, UBU*) = d(A, B) and d(B, A) = d(A, B) for all four kinds, with
    one Haar unitary per pair, drawn in pair order."""
    rng = make_rng(99)
    for a, b in _homogeneity_pairs():
        u = random_unitary(rng, 3)
        a_value, b_value = SpdMatrix(a), SpdMatrix(b)
        ua, ub = SpdMatrix(u @ a @ u.conj().T), SpdMatrix(u @ b @ u.conj().T)
        for kind in ALL_KINDS:
            value = distance(kind, a_value, b_value)
            rotated = distance(kind, ua, ub)
            swapped = distance(kind, b_value, a_value)
            assert abs(rotated - value) <= 1e-12 * value, (kind, rotated, value)
            assert abs(swapped - value) <= 1e-12 * value, (kind, swapped, value)

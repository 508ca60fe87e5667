import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helmat.bregman import (
    ENTROPY,
    SQUARE,
    MotherFunction,
    bregman_tracial,
    left_barycentre,
    phi4_via_min,
    power_mother,
    variance,
)
from helmat.calculus import fd_directional
from helmat.distances import DistanceKind, divergence
from helmat.errors import DimensionMismatchError, NotPositiveDefiniteError, SpectralDomainError
from helmat.linalg import SpdMatrix, frobenius_norm, logm
from helmat.means import WeightVector, arithmetic_mean, log_euclidean_multi
from helmat.sampling import make_rng, random_spd

positive = st.floats(min_value=1e-3, max_value=1e3)


def _scalar(x):
    """``x`` as a 1x1 matrix, whose Bregman divergence is the scalar one."""
    return SpdMatrix([[x]])


def _relative_entropy(a, b):
    """``S(A|B) = tr A (log A - log B)``, from the entropy divergence
    ``S(A|B) - tr A + tr B``."""
    return bregman_tracial(ENTROPY, a, b) + a.trace() - b.trace()


def test_mother_function_construction_validates():
    with pytest.raises(ValueError):
        power_mother(1.0)
    with pytest.raises(ValueError):
        # concave "seed" must be rejected by the strict-convexity sampling
        MotherFunction(
            name="bad",
            psi=np.sqrt,
            dpsi=lambda x: 0.5 / np.sqrt(x),
            inv_dpsi=lambda y: 0.25 / (y * y),
            dpsi_image=(0.0, np.inf),
        )
    with pytest.raises(ValueError, match="nonempty open interval"):
        MotherFunction(
            name="empty-image",
            psi=lambda x: x * x / 2,
            dpsi=lambda x: x,
            inv_dpsi=lambda y: y,
            dpsi_image=(1.0, 1.0),
        )
    with pytest.raises(ValueError):
        # inconsistent inverse derivative
        MotherFunction(
            name="bad-inverse",
            psi=lambda x: x * x / 2,
            dpsi=lambda x: x,
            inv_dpsi=lambda y: 2 * y,
            dpsi_image=(0.0, np.inf),
        )


def test_bregman_scalar_examples():
    assert bregman_tracial(ENTROPY, _scalar(1.0), _scalar(1.0)) == 0.0
    assert bregman_tracial(ENTROPY, _scalar(1.0), _scalar(np.e)) == pytest.approx(
        np.e - 2.0, rel=1e-12)
    with pytest.raises(NotPositiveDefiniteError):
        bregman_tracial(ENTROPY, _scalar(-1.0), _scalar(1.0))


@given(positive, positive)
def test_bregman_scalar_square_identity(x, y):
    value = bregman_tracial(SQUARE, _scalar(x), _scalar(y))
    assert value == pytest.approx((x - y) ** 2 / 2, rel=1e-9, abs=1e-12)


@given(positive, positive)
def test_bregman_scalar_nonnegative(x, y):
    for mother in (ENTROPY, SQUARE):
        value = bregman_tracial(mother, _scalar(x), _scalar(y))
        assert value >= 0.0
        if abs(x - y) > 1e-6 * max(x, y):
            assert value > 0.0


def test_bregman_tracial_zero_iff_equal():
    rng = make_rng(0)
    a = random_spd(rng, 3)
    b = random_spd(rng, 3)
    for mother in (ENTROPY, SQUARE, power_mother(1.5)):
        assert bregman_tracial(mother, a, a) <= 1e-10
        assert bregman_tracial(mother, a, b) > 1e-6


def test_bregman_tracial_nonnegative_sampled():
    rng = make_rng(20)
    mothers = (ENTROPY, SQUARE, power_mother(1.5))
    for i in range(1000):
        dim = int(rng.integers(2, 4))
        a, b = random_spd(rng, dim, cond=50.0), random_spd(rng, dim, cond=50.0)
        mother = mothers[i % 3]
        value = bregman_tracial(mother, a, b)
        assert value >= 0.0
        if frobenius_norm(a.entries - b.entries) > 1e-6:
            assert value > 0.0


@pytest.mark.parametrize("mother", [ENTROPY, SQUARE, power_mother(1.5)],
                         ids=lambda m: m.name)
@pytest.mark.parametrize("s", [1e-12, 1.0, 1e4, 1e8])
def test_bregman_tracial_near_equal_inputs_never_raise(mother, s):
    # B = A (1 + 1e-13): the three traces cancel to roundoff of their own
    # size, which at large scale is far below an absolute -1e-10
    basis = np.linalg.qr(make_rng(13).standard_normal((4, 4)))[0]
    a = s * ((basis * [1.0, 2.0, 3.0, 4.0]) @ basis.T)
    value = bregman_tracial(mother, SpdMatrix(a), SpdMatrix(a * (1.0 + 1e-13)))
    size = 2.0 * np.sum(np.abs(mother.psi(s * np.array([1.0, 2.0, 3.0, 4.0]))))
    assert 0.0 <= value <= 1e-12 * size


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the trace formula cancels; ROADMAP item 2's difference form takes A - B directly",
)
def test_bregman_tracial_square_resolves_near_equal_large_inputs():
    # for the square seed the divergence is ||A - B||_F^2 / 2, here 1.5e-9;
    # the trace formula returns 3.82 for this rounding of A
    basis = np.linalg.qr(make_rng(13).standard_normal((4, 4)))[0]
    a = (1e8 * (basis * [1.0, 2.0, 3.0, 4.0])) @ basis.T
    b = a * (1.0 + 1e-13)
    truth = 0.5 * np.linalg.norm(a - b) ** 2
    assert truth == pytest.approx(1.5e-9, rel=1e-2)
    assert bregman_tracial(SQUARE, SpdMatrix(a), SpdMatrix(b)) == pytest.approx(truth, rel=1e-3)


def test_bregman_tracial_entropy_matches_relative_entropy_form():
    rng = make_rng(1)
    a, b = random_spd(rng, 4), random_spd(rng, 4)
    direct = bregman_tracial(ENTROPY, a, b)
    relative = np.trace(a.entries @ (logm(a).entries - logm(b).entries)).real
    reference = relative - (a.trace() - b.trace())
    assert direct == pytest.approx(reference, rel=1e-10, abs=1e-12)


def test_bregman_tracial_diagonal_reduces_to_scalar_sum():
    rng = make_rng(2)
    da = rng.uniform(0.5, 3.0, 4)
    db = rng.uniform(0.5, 3.0, 4)
    a, b = SpdMatrix(np.diag(da)), SpdMatrix(np.diag(db))
    for mother in (ENTROPY, SQUARE, power_mother(1.7)):
        matrix_value = bregman_tracial(mother, a, b)
        scalar_value = sum(mother.psi(x) - mother.psi(y) - mother.dpsi(y) * (x - y)
                           for x, y in zip(da, db))
        assert matrix_value == pytest.approx(scalar_value, rel=1e-10, abs=1e-12)


def test_pairwise_divergences_reject_mixed_dimensions():
    rng = make_rng(40)
    a, b = random_spd(rng, 2), random_spd(rng, 3)
    with pytest.raises(DimensionMismatchError):
        bregman_tracial(ENTROPY, a, b)


def test_relative_entropy_examples():
    rng = make_rng(3)
    a = random_spd(rng, 3)
    assert _relative_entropy(a, a) == pytest.approx(0.0, abs=1e-12)
    p = SpdMatrix(np.diag([0.5, 0.5]))
    q = SpdMatrix(np.diag([0.25, 0.75]))
    expected = 0.5 * np.log(2.0) + 0.5 * np.log(2.0 / 3.0)
    assert _relative_entropy(p, q) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.14384, abs=5e-6)


def test_bregman_and_entropy_on_complex_inputs():
    rng = make_rng(15)
    a = random_spd(rng, 3, complex_entries=True)
    b = random_spd(rng, 3, complex_entries=True)
    assert bregman_tracial(ENTROPY, a, b) > 0.0
    assert _relative_entropy(a, a) == pytest.approx(0.0, abs=1e-12)
    left = left_barycentre(ENTROPY, [a, b], WeightVector.uniform(2))
    reference = log_euclidean_multi([a, b], WeightVector.uniform(2))
    assert frobenius_norm(left.entries - reference.entries) <= 1e-10


def test_relative_entropy_jointly_convex_sampled():
    rng = make_rng(4)
    for _ in range(500):
        dim = int(rng.integers(2, 4))
        a1, a2, b1, b2 = (random_spd(rng, dim) for _ in range(4))
        lhs = _relative_entropy(
            SpdMatrix((a1.entries + a2.entries) / 2),
            SpdMatrix((b1.entries + b2.entries) / 2),
        )
        rhs = (_relative_entropy(a1, b1) + _relative_entropy(a2, b2)) / 2
        assert lhs <= rhs + 1e-10


@pytest.mark.parametrize("mother", [ENTROPY, SQUARE, power_mother(1.5)],
                         ids=lambda m: m.name)
def test_arithmetic_mean_is_the_right_barycentre(mother):
    # the minimiser of sum_j w_j Phi(A_j, X) is the arithmetic mean for
    # every mother function (Banerjee et al., JMLR 6, 2005, Prop. 1)
    rng = make_rng(6)
    mats = [random_spd(rng, 3) for _ in range(3)]
    w = WeightVector([0.25, 0.35, 0.4])
    centre = arithmetic_mean(mats, w)

    def objective(x):
        return sum(wj * bregman_tracial(mother, m, x) for wj, m in zip(w.weights, mats))

    base = objective(centre)
    for _ in range(200):
        y = rng.standard_normal((3, 3))
        y = (y + y.T) / 2
        y *= 0.05 / np.linalg.norm(y)
        perturbed = objective(SpdMatrix(centre.entries + y))
        assert perturbed > base


def test_left_barycentre_entropy_is_log_euclidean():
    rng = make_rng(7)
    mats = [random_spd(rng, 3) for _ in range(2)]
    w = WeightVector.uniform(2)
    left = left_barycentre(ENTROPY, mats, w)
    reference = log_euclidean_multi(mats, w)
    assert frobenius_norm(left.entries - reference.entries) <= 1e-10
    assert frobenius_norm(
        left_barycentre(ENTROPY, [mats[0], mats[0]], w).entries - mats[0].entries
    ) <= 1e-11


def test_left_barycentre_makes_one_eigensolve(eigensolves):
    rng = make_rng(41)
    a, b = random_spd(rng, 4), random_spd(rng, 4)
    eigensolves.clear()
    left_barycentre(ENTROPY, [a, b], WeightVector(np.array([0.3, 0.7])))
    # the averaged gradient's; the result is checked on its spectrum
    assert len(eigensolves) == 1


def test_left_barycentre_square_is_arithmetic():
    rng = make_rng(8)
    mats = [random_spd(rng, 3) for _ in range(3)]
    w = WeightVector([0.2, 0.3, 0.5])
    left = left_barycentre(SQUARE, mats, w)
    assert frobenius_norm(left.entries - arithmetic_mean(mats, w).entries) <= 1e-12


def test_left_barycentre_scalar_kolmogorov_identity():
    rng = make_rng(9)
    values = rng.uniform(0.2, 5.0, 4)
    mats = [SpdMatrix(np.array([[v]])) for v in values]
    w = WeightVector(rng.uniform(0.5, 2.0, 4))
    for mother in (ENTROPY, SQUARE, power_mother(1.3)):
        left = left_barycentre(mother, mats, w)
        expected = mother.inv_dpsi(float(np.sum(w.weights * mother.dpsi(values))))
        assert float(left.entries[0, 0].real) == pytest.approx(expected, abs=1e-12)
    # entropy case: the weighted geometric mean of the scalars
    left = left_barycentre(ENTROPY, mats, w)
    geometric = float(np.prod(values**w.weights))
    assert float(left.entries[0, 0].real) == pytest.approx(geometric, rel=1e-12)


def test_left_barycentre_stationarity():
    rng = make_rng(10)
    mats = [random_spd(rng, 3) for _ in range(3)]
    w = WeightVector([0.3, 0.3, 0.4])
    centre = left_barycentre(ENTROPY, mats, w)

    def objective(x):
        return sum(wj * bregman_tracial(ENTROPY, SpdMatrix(x), m)
                   for wj, m in zip(w.weights, mats))

    for _ in range(10):
        y = rng.standard_normal((3, 3))
        y = (y + y.T) / 2
        slope = fd_directional(objective, centre.entries, y)
        assert abs(slope) / np.linalg.norm(y) <= 1e-6


def test_left_barycentre_image_interval_guard():
    # a seed whose declared gradient image excludes the averaged gradient
    narrow = MotherFunction(
        name="narrow-square",
        psi=lambda x: x * x / 2.0,
        dpsi=lambda x: x,
        inv_dpsi=lambda y: y,
        dpsi_image=(1.0, 2.0),
    )
    mats = [SpdMatrix(np.diag([0.2, 0.3])), SpdMatrix(np.diag([0.25, 0.35]))]
    with pytest.raises(SpectralDomainError):
        left_barycentre(narrow, mats, WeightVector.uniform(2))


def test_variance_identities():
    rng = make_rng(11)
    a = random_spd(rng, 3)
    w = WeightVector.uniform(3)
    assert variance(ENTROPY, [a, a, a], w) <= 1e-11

    mats = [random_spd(rng, 3) for _ in range(3)]
    w = WeightVector([0.2, 0.5, 0.3])
    spread = variance(ENTROPY, mats, w)
    trace_gap = arithmetic_mean(mats, w).trace() - log_euclidean_multi(mats, w).trace()
    assert spread == pytest.approx(trace_gap, abs=1e-10)

    b = random_spd(rng, 3)
    half = variance(ENTROPY, [a, b], WeightVector.uniform(2))
    assert half == pytest.approx(0.5 * divergence(DistanceKind.D4, a, b), abs=1e-10)


def test_phi4_via_min_matches_divergence():
    rng = make_rng(12)
    a = random_spd(rng, 3)
    assert phi4_via_min(a, a) <= 1e-11
    b = random_spd(rng, 3)
    assert phi4_via_min(a, b) == pytest.approx(
        divergence(DistanceKind.D4, a, b), abs=1e-9
    )

    da, db = np.diag([1.0, 4.0]), np.diag([9.0, 25.0])
    commuting = phi4_via_min(SpdMatrix(da), SpdMatrix(db))
    scalar = float(np.sum((np.sqrt(np.diag(da)) - np.sqrt(np.diag(db))) ** 2))
    assert commuting == pytest.approx(scalar, rel=1e-12)


def test_phi4_via_min_is_a_minimum_over_samples():
    rng = make_rng(13)
    a, b = random_spd(rng, 3), random_spd(rng, 3)
    best = phi4_via_min(a, b)
    for _ in range(200):
        x = random_spd(rng, 3, cond=30.0)
        value = bregman_tracial(ENTROPY, x, a) + bregman_tracial(ENTROPY, x, b)
        assert value >= best - 1e-10


def test_phi4_strictly_convex_in_first_argument():
    rng = make_rng(14)
    for _ in range(500):
        dim = int(rng.integers(2, 4))
        x1, x2, a = (random_spd(rng, dim) for _ in range(3))
        if frobenius_norm(x1.entries - x2.entries) < 1e-6:
            continue
        mid = SpdMatrix((x1.entries + x2.entries) / 2)
        gap = (
            divergence(DistanceKind.D4, x1, a) + divergence(DistanceKind.D4, x2, a)
        ) / 2 - divergence(DistanceKind.D4, mid, a)
        assert gap > 0.0

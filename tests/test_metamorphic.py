"""Metamorphic tests of the means and barycentres: identities that relate
the answer on transformed input to the answer on the input, so they need no
reference value.

- d3 under congruence: ``(CAC*) # (CBC*) = C (A # B) C*`` (Bhatia,
  *Positive Definite Matrices*, Princeton 2007, ch. 4), so
  ``d3^2(CAC*, CBC*) = tr C (A + B - 2 A # B) C*``.
- The power means ``P_t`` are congruence covariant, idempotent,
  invariant under a permutation of the family and its weights, and
  monotone in the Loewner order: ``A_j <= B_j`` for every ``j`` gives
  ``P_t(A; w) <= P_t(B; w)`` (Lim and Palfia, *J. Funct. Anal.* 262, 2012).
- The Wasserstein and log-Euclidean barycentres are unitarily covariant
  but not congruence covariant; the size of the failure is pinned, so that
  nothing comes to rely on it.

Each bound is the worst relative error measured over the draws below,
rounded up to one significant digit.
"""

import numpy as np
import pytest

from helmat.barycentre import LOG_EUCLIDEAN, WASSERSTEIN, PowerMean, solve
from helmat.distances import DistanceKind, divergence
from helmat.linalg import SpdMatrix, congruence, hermitian_part
from helmat.means import WeightVector, geometric_mean
from helmat.sampling import make_rng, random_orthogonal, random_spd


def _relative(x, reference):
    return np.linalg.norm(x - reference) / np.linalg.norm(reference)


def _factor(rng, dim, scale=1.0):
    """``C = scale (G + 3I)`` for a standard normal ``G``: invertible, and
    far from unitary."""
    return scale * (rng.standard_normal((dim, dim)) + 3.0 * np.eye(dim))


@pytest.mark.parametrize("scale", [
    pytest.param(1e-6, marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 2: d3^2 ~ 1e-12 lies under the absolute radicand clamp "
        "1e-10, so it reads 0.0"))),
    1.0,
    1e6,
])
def test_d3_under_congruence(scale):
    # C scales the pair by scale^2
    rng = make_rng(11)
    worst = 0.0
    for _ in range(40):
        dim = int(rng.integers(2, 6))
        a, b = random_spd(rng, dim, cond=100.0), random_spd(rng, dim, cond=100.0)
        c = _factor(rng, dim, scale)
        value = divergence(DistanceKind.D3, congruence(c, a), congruence(c, b))
        middle = a.entries + b.entries - 2.0 * geometric_mean(a, b).entries
        expected = np.trace(c @ middle @ c.T)
        worst = max(worst, abs(value - expected) / expected)
    # 5.2e-12 at scale 1, 6.7e-12 at 1e6
    assert worst <= 7e-12


#: Largest relative error of ``P_t(C A_j C*) = C P_t(A_j) C*``, per ``t``,
#: over the scales of ``C``.
COVARIANCE_BOUNDS = {0.1: 7e-13, 0.5: 2e-12, 0.9: 2e-14}
#: Largest relative change of ``P_t`` under a permutation of the family.
PERMUTATION_BOUNDS = {0.1: 7e-13, 0.5: 8e-15, 0.9: 2e-15}


def _family(seed, dim=4, m=3, complex_entries=False):
    rng = make_rng(seed)
    mats = [random_spd(rng, dim, cond=30.0, complex_entries=complex_entries) for _ in range(m)]
    return rng, mats, WeightVector(rng.uniform(0.5, 2.0, m))


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
def test_power_means_are_congruence_covariant(t, scale):
    rng, mats, w = _family(30)
    c = _factor(rng, 4, scale)
    x, report = solve(PowerMean(t), mats, w)
    y, moved = solve(PowerMean(t), [congruence(c, a) for a in mats], w)
    assert report.converged and moved.converged
    assert _relative(y.entries, c @ x.entries @ c.T) <= COVARIANCE_BOUNDS[t]


@pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
def test_power_means_are_idempotent_and_permutation_invariant(t):
    rng, mats, w = _family(31, complex_entries=True)
    same, report = solve(PowerMean(t), [mats[0]] * 3, w)
    assert report.converged
    assert _relative(same.entries, mats[0].entries) <= 3e-17
    x, _ = solve(PowerMean(t), mats, w)
    order = [2, 0, 1]
    y, report = solve(PowerMean(t), [mats[j] for j in order], WeightVector(w.weights[order]))
    assert report.converged
    assert _relative(y.entries, x.entries) <= PERMUTATION_BOUNDS[t]


#: Largest negative eigenvalue of ``P_t(B) - P_t(A)`` relative to
#: ``||P_t(B)||_2``, per ``t``, over the draws of the test below: measured
#: 2.0e-12, 4.2e-15 and 1.2e-16.  P_0.1 contracts slowest, so its solves
#: stop furthest from the fixed point within the residual tolerance.
MONOTONICITY_BOUNDS = {0.1: 3e-12, 0.5: 5e-15, 0.9: 2e-16}


def _raised_pair(rng, q, dim):
    """``A = Q (A' + a) Q*`` and ``B = Q (A' + c uu* + a) Q*``: a random SPD
    block ``A'`` of dimension ``dim - 1`` and a scalar ``a``, with ``B``
    raised by a rank-one term of relative size 1e-6 to 1 in the block only,
    so ``B - A`` is positive semidefinite with a zero eigenvalue."""
    block = np.zeros((dim, dim))
    block[:-1, :-1] = random_spd(rng, dim - 1, cond=30.0).entries
    block[-1, -1] = rng.uniform(0.5, 2.0)
    u = rng.standard_normal(dim - 1)
    raised = block.copy()
    raised[:-1, :-1] += 10.0 ** rng.uniform(-6.0, 0.0) * np.outer(u, u) / (u @ u)
    return (SpdMatrix(hermitian_part(q @ arr @ q.T)) for arr in (block, raised))


@pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
def test_power_means_are_loewner_monotone(t):
    # families of three at d = 2 and 3; P_t of such a family is block
    # diagonal in the basis Q, so P_t(B) - P_t(A) keeps the zero eigenvalue
    # of each B_j - A_j, and roundoff alone may take it below zero
    rng = make_rng(40)
    for draw in range(10):
        dim, m = 2 + draw % 2, 3
        q = random_orthogonal(rng, dim)
        lower, upper = zip(*(_raised_pair(rng, q, dim) for _ in range(m)))
        w = WeightVector(rng.uniform(0.5, 2.0, m))
        (x, low), (y, high) = (solve(PowerMean(t), family, w) for family in (lower, upper))
        assert low.converged and high.converged
        spectrum = np.linalg.eigvalsh(y.entries - x.entries) / np.linalg.norm(y.entries, 2)
        assert spectrum[0] >= -MONOTONICITY_BOUNDS[t]
        assert spectrum[1] > 0.0  # the raised block stays strictly above


@pytest.mark.parametrize("kind, least, most", [(WASSERSTEIN, 2e-2, 4e-15),
                                               (LOG_EUCLIDEAN, 1e-2, 2e-15)],
                         ids=["wasserstein", "log-euclidean"])
def test_wasserstein_and_log_euclidean_are_only_unitarily_covariant(kind, least, most):
    # measured 2.1e-2 and 1.3e-2 off C X C*, and 3.3e-15 and 1.9e-15 off U X U*;
    # the lower bounds are those rounded down, ten orders above the tolerance
    rng, mats, w = _family(32)
    c, u = _factor(rng, 4), random_orthogonal(rng, 4)
    x, _ = solve(kind, mats, w)
    y, _ = solve(kind, [congruence(c, a) for a in mats], w)
    z, _ = solve(kind, [congruence(u, a) for a in mats], w)
    assert _relative(y.entries, c @ x.entries @ c.T) >= least
    assert _relative(z.entries, u @ x.entries @ u.T) <= most

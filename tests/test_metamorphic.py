"""Metamorphic tests of the means and barycentres: identities that relate
the answer on transformed input to the answer on the input, so they need no
reference value.

- d3 under congruence: ``(CAC*) # (CBC*) = C (A # B) C*`` (Bhatia,
  *Positive Definite Matrices*, Princeton 2007, ch. 4), so
  ``d3^2(CAC*, CBC*) = tr C (A + B - 2 A # B) C*``.
- The power means ``P_t`` are congruence covariant, idempotent and
  invariant under a permutation of the family and its weights (Lim and
  Palfia, *J. Funct. Anal.* 262, 2012).
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
from helmat.linalg import congruence
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

"""The sampled suites evaluate one stack per dimension; these tests hold them
to the per-sample loops over the public scalar API that they replaced."""

import numpy as np
import pytest

from helmat import distances, suites
from helmat.distances import DistanceKind
from helmat.linalg import sqrt_entries
from helmat.sampling import make_rng, random_spd, random_unitary


def _reference_counterexamples(seed, samples):
    """``counterexamples_suite`` as a loop over samples, one pair at a time."""
    result = suites.SuiteResult("counterexamples")
    suites._triangle_check(result, "d3-triangle", DistanceKind.D3,
                           suites.D3_TRIANGLE_TRIPLE, suites.D3_TRIANGLE_REFERENCE)
    suites._triangle_check(result, "d4-triangle", DistanceKind.D4,
                           suites.D4_TRIANGLE_TRIPLE, suites.D4_TRIANGLE_REFERENCE)

    rng = make_rng(seed)
    worst = -np.inf
    for _ in range(samples):
        dim = int(rng.integers(2, 5))
        a, b, c = (random_spd(rng, dim, cond=50.0) for _ in range(3))
        for kind in (DistanceKind.D1, DistanceKind.D2):
            violation = (
                distances.distance(kind, a, b)
                - distances.distance(kind, a, c)
                - distances.distance(kind, c, b)
            )
            worst = max(worst, violation)
    result.add(
        "d1-d2-triangle-holds",
        worst <= 1e-10,
        f"max triangle violation over {samples} random triples: {worst:.3e}",
    )

    gap_polar = 0.0
    sampled_beats = True
    for _ in range(20):
        dim = int(rng.integers(2, 5))
        a, b = random_spd(rng, dim), random_spd(rng, dim)
        value, _ = distances.d2_unitary(a, b)
        gap_polar = max(gap_polar, abs(value - distances.distance(DistanceKind.D2, a, b)))
    a, b = random_spd(rng, 3), random_spd(rng, 3)
    value, _ = distances.d2_unitary(a, b)
    root_a, root_b = sqrt_entries(a), sqrt_entries(b)
    for _ in range(500):
        u = random_unitary(rng, 3)
        if np.linalg.norm(root_a - root_b @ u) < value - 1e-12:
            sampled_beats = False
    result.add(
        "d2-unitary-minimum",
        gap_polar <= 1e-9 and sampled_beats,
        f"max |min_U - d2| = {gap_polar:.3e}; no random unitary beat the polar factor",
    )
    return result


def _reference_trace_chain(seed, samples):
    """``trace_chain_suite`` as a loop over samples, one pair at a time."""
    result = suites.SuiteResult("trace-chain")
    rng = make_rng(seed)
    min_chain_gap = np.inf
    min_order_gap = np.inf
    for _ in range(samples):
        dim = int(rng.integers(2, 7))
        cond = 10.0 ** rng.uniform(0.0, 4.0)
        a = random_spd(rng, dim, cond=cond)
        b = random_spd(rng, dim, cond=cond)
        chain = distances.trace_chain(a, b)
        min_chain_gap = min(min_chain_gap, float(np.min(np.diff(chain))))
        squares = distances.chain_divergences(a, b, chain)
        min_order_gap = min(min_order_gap, float(np.min(-np.diff(squares))))
    result.add(
        "trace-chain-monotone",
        min_chain_gap >= -1e-10,
        f"min consecutive gap over {samples} pairs: {min_chain_gap:.3e}",
    )
    result.add(
        "squared-distance-ordering",
        min_order_gap >= -1e-10,
        f"min ordering gap over {samples} pairs: {min_order_gap:.3e}",
    )
    return result


@pytest.mark.parametrize("samples", [1, 7, 200])
@pytest.mark.parametrize("seed", [42, 310])
@pytest.mark.parametrize(
    "suite, reference",
    [
        (suites.counterexamples_suite, _reference_counterexamples),
        (suites.trace_chain_suite, _reference_trace_chain),
    ],
    ids=["counterexamples", "trace-chain"],
)
def test_stacked_suite_rows_equal_the_per_sample_loop(suite, reference, seed, samples):
    assert suite(seed, samples).checks == reference(seed, samples).checks


@pytest.mark.parametrize(
    "suite", [suites.counterexamples_suite, suites.trace_chain_suite],
    ids=["counterexamples", "trace-chain"],
)
def test_sampled_suites_make_a_fixed_number_of_eigensolves(suite, eigensolves):
    # one stacked eigensolve per step and dimension, however many samples
    suite(42, 200)
    few = len(eigensolves)
    suite(42, 1000)
    assert len(eigensolves) == 2 * few
    assert {dtype for _, dtype in eigensolves} == {np.dtype(np.float64)}

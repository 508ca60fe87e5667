"""Forward errors of the library against the 50-digit reference of
``mp_oracle``.

The grid follows the distances' hard cases: a scale ``s``, a condition
number, real or complex entries, and a gap ``delta`` between the two
matrices.  The tracial Bregman divergences run on the whole grid.  The
square root, the logarithm, the two means, the two-point barycentres and
the entropy left barycentre run on the same grid at the widest gap.  A cell
that fails today is a strict xfail whose reason names the defect; each
bound is the worst error measured over the cells that pass, rounded up to
one significant digit.
"""

import functools
import itertools

import numpy as np
import pytest

from helmat import barycentre, bregman
from helmat.distances import DistanceKind, divergence
from helmat.errors import InternalConsistencyError
from helmat.linalg import SpdMatrix, logm, sqrtm
from helmat.means import WeightVector, geometric_mean, log_euclidean_pair
from helmat.sampling import make_rng, random_spd

import mp_oracle

SCALES = (1e-12, 1.0, 1e12)
CONDS = (1.0, 1e3, 1e6)
FIELDS = ("real", "complex")
GAPS = (1e-1, 1e-4, 1e-8)

#: Largest relative error of d^2 allowed for each kind and gap.
BOUNDS = {
    ("d1", 1e-1): 2e-13, ("d1", 1e-4): 2e-7,
    ("d2", 1e-1): 2e-8, ("d2", 1e-4): 4e-5,
    ("d3", 1e-1): 3e-11, ("d3", 1e-4): 2e-7,
    ("d4", 1e-1): 4e-12, ("d4", 1e-4): 3e-6,
}


#: Largest relative Frobenius error of each matrix function or mean, per
#: condition number, over the scales and fields; ``logm`` is measured
#: against ``max(1, ||log A||_F)``, since ``log A ~ 0`` at s = 1 and cond 1.
MEAN_BOUNDS = {
    ("sqrtm", 1.0): 8e-16, ("sqrtm", 1e3): 3e-15, ("sqrtm", 1e6): 6e-15,
    ("logm", 1.0): 7e-16, ("logm", 1e3): 4e-14, ("logm", 1e6): 2e-12,
    ("geometric_mean", 1.0): 3e-15, ("geometric_mean", 1e3): 3e-14,
    ("geometric_mean", 1e6): 9e-10,
    ("log_euclidean_pair", 1.0): 3e-14, ("log_euclidean_pair", 1e3): 5e-15,
    ("log_euclidean_pair", 1e6): 3e-13,
}

#: Each library function of ``(A, B)`` and its 50-digit reference.
MEANS = {
    "sqrtm": (lambda a, b: sqrtm(a), lambda a, b: mp_oracle.sqrtm(a)),
    "logm": (lambda a, b: logm(a), lambda a, b: mp_oracle.logm(a)),
    "geometric_mean": (geometric_mean, mp_oracle.geometric_mean),
    "log_euclidean_pair": (log_euclidean_pair, mp_oracle.log_euclidean_mean),
}

#: Largest relative error of the tracial Bregman divergence allowed for
#: each mother function and gap.
BREGMAN_BOUNDS = {
    ("entropy", 1e-1): 8e-12, ("entropy", 1e-4): 2e-6,
    ("square", 1e-1): 9e-14, ("square", 1e-4): 7e-8,
    ("power_1.5", 1e-1): 2e-13, ("power_1.5", 1e-4): 1e-7,
}

#: The built-in mother functions, by name.
MOTHERS = {m.name: m for m in (bregman.ENTROPY, bregman.SQUARE, bregman.power_mother(1.5))}

#: Largest relative Frobenius error of each barycentre of a pair, per
#: condition number, over the scales and fields.
BARYCENTRE_BOUNDS = {
    ("wasserstein", 1.0): 2e-15, ("wasserstein", 1e3): 4e-14,
    ("wasserstein", 1e6): 3e-11,
    ("power-half", 1.0): 2e-15, ("power-half", 1e3): 2e-14,
    ("power-half", 1e6): 3e-11,
    ("entropy-left", 1.0): 3e-14, ("entropy-left", 1e3): 5e-15,
    ("entropy-left", 1e6): 3e-13,
}

#: Each barycentre of ``(A, B)`` with equal weights and its 50-digit
#: reference: the two closed forms of :func:`~helmat.barycentre.closed_form_m2`
#: and the entropy left barycentre, which is the log-Euclidean mean.
BARYCENTRES = {
    "wasserstein": (
        lambda a, b: barycentre.closed_form_m2(barycentre.WASSERSTEIN, a, b),
        lambda a, b: mp_oracle.two_point_barycentre("wasserstein", a, b)),
    "power-half": (
        lambda a, b: barycentre.closed_form_m2(barycentre.PowerMean(0.5), a, b),
        lambda a, b: mp_oracle.two_point_barycentre("power-half", a, b)),
    "entropy-left": (
        lambda a, b: bregman.left_barycentre(bregman.ENTROPY, (a, b), WeightVector.uniform(2)),
        mp_oracle.log_euclidean_mean),
}


def _hermitian(m):
    return (m + m.conj().T) / 2


@functools.cache
def _pair(s, cond, field, gap):
    """``(sA, sB)`` at dimension 3: ``A`` has the spectrum
    ``cond^{-1/2}, 1, cond^{1/2}`` in a random basis, and
    ``B = K A K*`` with ``K = I + gap E`` for a Hermitian ``E`` of spectral
    norm one.  Every cell draws its random numbers at one seed, so the
    cells differ only in their parameters."""
    rng = make_rng(0)
    g = rng.standard_normal((2, 2, 3, 3))
    g = g[:, 0] + 1j * g[:, 1] if field == "complex" else g[:, 0]
    basis = np.linalg.qr(g[0])[0]
    e = _hermitian(g[1])
    k = np.eye(3) + gap * e / np.linalg.norm(e, 2)
    a = (basis * cond ** np.array([-0.5, 0.0, 0.5])) @ basis.conj().T
    return _hermitian(s * a), _hermitian(s * (k @ a @ k.conj().T))


@functools.cache
def _truth(s, cond, field, gap):
    return mp_oracle.divergences(*_pair(s, cond, field, gap))


def _fails_today(kind, s, cond, gap):
    """The reason a cell fails at binary64 today, or ``None``.  At
    ``s = 1e-12`` only d3 at condition 1e6 and gap 1e-1 clears the clamp."""
    if s == 1e-12 and not (kind == "d3" and cond == 1e6 and gap == 1e-1):
        return ("ROADMAP item 2: d^2 lies under the absolute radicand clamp "
                "1e-10, so it reads 0.0")
    if gap == 1e-8:
        return ("ROADMAP item 2: the trace formula cancels every digit of d^2 "
                "~ 1e-16 tr, or its radicand falls below the clamp and raises")
    if kind == "d2" and cond == 1e6 and gap == 1e-4:
        return ("ROADMAP item 2: the fidelity's trace loses d2^2 to "
                "cancellation at condition 1e6, 3e-4 to 4e-2")
    return None


def _cells():
    for kind, s, cond, field, gap in itertools.product(
            ("d1", "d2", "d3", "d4"), SCALES, CONDS, FIELDS, GAPS):
        reason = _fails_today(kind, s, cond, gap)
        marks = [pytest.mark.xfail(strict=True, reason=reason)] if reason else []
        yield pytest.param(kind, s, cond, field, gap, marks=marks,
                           id=f"{kind}-s{s:g}-cond{cond:g}-{field}-gap{gap:g}")


@pytest.mark.parametrize("kind, s, cond, field, gap", _cells())
def test_divergence_forward_error(kind, s, cond, field, gap):
    a, b = _pair(s, cond, field, gap)
    try:
        value = divergence(DistanceKind(kind), SpdMatrix(a), SpdMatrix(b))
    except InternalConsistencyError as exc:
        pytest.fail(f"raised {exc}", pytrace=False)
    error = mp_oracle.relative_error(value, _truth(s, cond, field, gap)[kind])
    if not error <= BOUNDS[kind, gap]:
        # no traceback: formatting one for each of the 122 cells that fail
        # today costs about half a second
        pytest.fail(f"relative error {error:.3e} > {BOUNDS[kind, gap]:.0e}", pytrace=False)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("cond", CONDS)
@pytest.mark.parametrize("s", SCALES)
@pytest.mark.parametrize("name", MEANS)
def test_mean_forward_error(name, s, cond, field):
    # the pair at the widest gap: two well-separated matrices
    a, b = _pair(s, cond, field, GAPS[0])
    function, reference = MEANS[name]
    truth = reference(a, b)
    error = np.linalg.norm(function(SpdMatrix(a), SpdMatrix(b)).entries - truth) / max(
        1.0 if name == "logm" else 0.0, np.linalg.norm(truth))
    assert error <= MEAN_BOUNDS[name, cond]


def _bregman_cells():
    for name, s, cond, field, gap in itertools.product(MOTHERS, SCALES, CONDS, FIELDS, GAPS):
        marks = []
        if gap == 1e-8:
            marks = [pytest.mark.xfail(strict=True, reason=(
                "ROADMAP item 7: the trace formula cancels every digit of a "
                "divergence ~ 1e-16 tr psi; each cell errs beyond 1e-3"))]
        yield pytest.param(name, s, cond, field, gap, marks=marks,
                           id=f"{name}-s{s:g}-cond{cond:g}-{field}-gap{gap:g}")


@pytest.mark.parametrize("name, s, cond, field, gap", _bregman_cells())
def test_bregman_forward_error(name, s, cond, field, gap):
    a, b = _pair(s, cond, field, gap)
    try:
        value = bregman.bregman_tracial(MOTHERS[name], SpdMatrix(a), SpdMatrix(b))
    except InternalConsistencyError as exc:
        pytest.fail(f"raised {exc}", pytrace=False)
    error = mp_oracle.relative_error(value, mp_oracle.bregman(name, a, b))
    if not error <= BREGMAN_BOUNDS[name, gap]:
        pytest.fail(f"relative error {error:.3e} > {BREGMAN_BOUNDS[name, gap]:.0e}",
                    pytrace=False)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("cond", CONDS)
@pytest.mark.parametrize("s", SCALES)
@pytest.mark.parametrize("name", BARYCENTRES)
def test_barycentre_forward_error(name, s, cond, field):
    a, b = _pair(s, cond, field, GAPS[0])
    function, reference = BARYCENTRES[name]
    truth = reference(a, b)
    value = function(SpdMatrix(a), SpdMatrix(b)).entries
    assert np.linalg.norm(value - truth) / np.linalg.norm(truth) <= BARYCENTRE_BOUNDS[name, cond]


#: The solved kinds, by the labels of ``mp_oracle.picard_solve``.
SOLVE_KINDS = {
    "wasserstein": barycentre.WASSERSTEIN,
    "power-0.5": barycentre.PowerMean(0.5),
    "log-euclidean": barycentre.LOG_EUCLIDEAN,
}

#: Largest relative Frobenius error of a solve, per kind and condition
#: number, over the fields.
SOLVE_BOUNDS = {
    ("wasserstein", 10.0): 2e-12, ("wasserstein", 1e3): 6e-13,
    ("power-0.5", 10.0): 2e-13, ("power-0.5", 1e3): 2e-13,
    ("log-euclidean", 10.0): 2e-12, ("log-euclidean", 1e3): 8e-13,
}


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("cond", (10.0, 1e3))
@pytest.mark.parametrize("kind", SOLVE_KINDS)
def test_solve_forward_error(kind, cond, field):
    # d = 3, m = 3: the 50-digit solve starts from the library's answer
    rng = make_rng(0)
    mats = [random_spd(rng, 3, cond=cond, complex_entries=field == "complex") for _ in range(3)]
    w = WeightVector(rng.uniform(0.5, 2.0, 3))
    x, report = barycentre.solve(SOLVE_KINDS[kind], mats, w)
    assert report.converged
    truth = mp_oracle.picard_solve(kind, [a.entries for a in mats], w.weights, x.entries)
    error = np.linalg.norm(x.entries - truth) / np.linalg.norm(truth)
    assert error <= SOLVE_BOUNDS[kind, cond]


@pytest.mark.parametrize("kind, closed", [("wasserstein", "wasserstein"),
                                          ("power-0.5", "power-half")])
def test_oracle_solve_agrees_with_the_two_point_closed_forms(kind, closed):
    a, b = _pair(1.0, 1e3, "real", GAPS[0])
    w = WeightVector.uniform(2)
    x, _ = barycentre.solve(SOLVE_KINDS[kind], [SpdMatrix(a), SpdMatrix(b)], w)
    solved = mp_oracle.picard_solve(kind, [a, b], w.weights, x.entries)
    truth = mp_oracle.two_point_barycentre(closed, a, b)
    assert np.linalg.norm(solved - truth) <= 1e-15 * np.linalg.norm(truth)


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
def test_oracle_agrees_with_scipy(complex_entries):
    linalg = pytest.importorskip("scipy.linalg")
    rng = make_rng(1)
    for dim in (2, 4):
        a, b = (random_spd(rng, dim, cond=10.0, complex_entries=complex_entries).entries
                for _ in range(2))
        root_a, inv_root_a = linalg.sqrtm(a), np.linalg.inv(linalg.sqrtm(a))
        pairs = [
            (mp_oracle.sqrtm(a), root_a),
            (mp_oracle.logm(a), linalg.logm(a)),
            (mp_oracle.geometric_mean(a, b),
             root_a @ linalg.sqrtm(inv_root_a @ b @ inv_root_a) @ root_a),
            (mp_oracle.log_euclidean_mean(a, b),
             linalg.expm((linalg.logm(a) + linalg.logm(b)) / 2)),
            (mp_oracle.two_point_barycentre("wasserstein", a, b),
             (a + b + linalg.sqrtm(a @ b) + linalg.sqrtm(b @ a)) / 4),
            (mp_oracle.two_point_barycentre("power-half", a, b),
             (a + b + 2 * root_a @ linalg.sqrtm(inv_root_a @ b @ inv_root_a) @ root_a) / 4),
        ]
        for truth, reference in pairs:
            assert truth.dtype == a.dtype
            assert np.linalg.norm(truth - reference) <= 1e-14 * np.linalg.norm(truth)

"""Fixed-point barycentres of positive definite matrices.

For each mean kind, the mean of ``(A_1, ..., A_m)`` with weights ``w`` is
the solution of

    X = sum_j w_j G(X, A_j)

where ``G`` is the two-variable mean of the kind: the square root of
``X^{1/2} A X^{1/2}`` (:class:`Wasserstein`), the weighted geometric mean
``X #_t A`` (:class:`PowerMean`), or the log-Euclidean midpoint
(:class:`LogEuclidean`).  Each kind is a :class:`MeanKind`, the one record
of its ``G``, of the squared distance attached to it and of its two-point
closed form; the functions below read the kind and never branch on it.
For the Wasserstein and log-Euclidean kinds the fixed point is the
barycentre, the minimiser of ``sum_j w_j d^2(X, A_j)``.  For the power mean
at ``t = 1/2`` it is the Lim-Palfia power mean, which equals the minimiser
of the d3^2 objective only on commuting families (see :func:`objective`).

:func:`solve` iterates the equation from the arithmetic mean.  Plain
Picard iteration contracts only at rate ``1 - t`` for the power mean (Lim
and Palfia), about 40 steps at ``t = 1/2``, so each step mixes the last
Picard images by Anderson acceleration (Walker and Ni), about 12 steps; a
mixed iterate that is not SPD or leaves the spectral bracket of the inputs
is replaced by the Picard image.  The Picard step ``eta`` stays as given
for the whole solve.  Existence and uniqueness of the fixed point are
known, convergence of the iteration is not guaranteed, so non-convergence
is a reportable outcome rather than an error.

A kind evaluates ``G(X, A_j)`` from the values themselves: the factors of
one argument (``X^{1/2}``, ``X^{-1/2}``, ``log X``, ``log A_j``) are kept
in that value's memo (see :func:`~helmat.linalg._memoized`), so a step forms
those of ``X`` once and a solve those of each ``A_j`` once.
:func:`mean_map`, :func:`fixed_point_residual` and :func:`solve` share one
Picard sum, which also gives the relative residual.

:func:`closed_form_m2`, :func:`fixed_point_residual` and
:func:`refute_d4_guess` also take stacks of pairs ``(..., n, n)`` (built by
:func:`~helmat.linalg._spd_stack`) and give one result per pair, bit for
bit what the pair gives alone; :func:`solve` and :func:`mean_map` take one
family of single matrices.

Each solve call is single threaded with a fixed left-to-right summation
order, which makes results deterministic; distinct calls are independent and
safe to run concurrently.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    HermitianError,
    InternalConsistencyError,
    NotPositiveDefiniteError,
    UnsupportedObjectiveError,
)
from .distances import DistanceKind, divergence
from .linalg import (
    SpdMatrix,
    _adjoint,
    _frobenius_norms,
    _per_matrix,
    _require_same_dim,
    _spd_stack,
    product_sqrt,
    sqrt_entries,
    sqrtm,
)
from .means import (
    WeightVector,
    arithmetic_mean,
    check_family,
    geometric_mean_entries,
    log_euclidean_pair,
)

#: Relative slack allowed on the spectral bracket of the iterates.
_BRACKET_SLACK = 1e-9

#: Residual differences Anderson mixing keeps (see :class:`_AndersonHistory`).
_ANDERSON_MEMORY = 5

#: Relative commutator size below which the log-Euclidean guess holds
#: trivially and its refutation is inconclusive.
_COMMUTATOR_TOL = 1e-6


class MeanKind:
    """The two-variable mean ``G(X, A)`` of one fixed-point equation.

    Each kind is the one record of its ``G``: ``_mean(x, a)`` gives the
    array of ``G(X, A)``.  The factors it takes of one argument (``X^{1/2}``,
    ``X^{-1/2}``, ``log X``) are kept in that value's memo, so a solve forms
    those of the iterate once per step and those of each ``A_j`` once.
    ``distance`` is the
    :class:`~helmat.distances.DistanceKind` whose squared distance the
    fixed point minimises (see :func:`objective`), or ``None``;
    ``_closed_form(a, b)`` is the equal-weight two-point barycentre (see
    :func:`closed_form_m2`).  ``_ABORTS_OFF_BRACKET`` says whether an
    iterate outside the spectral bracket of the inputs stops the solve.
    """

    _ABORTS_OFF_BRACKET = False

    def _closed_form(self, a: SpdMatrix, b: SpdMatrix) -> SpdMatrix:
        raise UnsupportedObjectiveError(
            f"no closed form for the two-point barycentre of kind {self!r}"
        )


@dataclass(frozen=True)
class Wasserstein(MeanKind):
    """Barycentre of the Bures-Wasserstein distance: ``G(X, A)`` is the
    square root of ``X^{1/2} A X^{1/2}``."""

    distance = DistanceKind.D2

    def _mean(self, x: SpdMatrix, a: SpdMatrix) -> np.ndarray:
        root = sqrt_entries(x)
        return sqrtm(_spd_stack(root @ a.entries @ root)).entries

    def _closed_form(self, a: SpdMatrix, b: SpdMatrix) -> SpdMatrix:
        cross = product_sqrt(a, b)
        return _spd_stack((a.entries + b.entries + cross + _adjoint(cross)) / 4.0)


@dataclass(frozen=True)
class PowerMean(MeanKind):
    """The mean defined by the fixed-point equation over ``X #_t A``.

    The fixed point is the power mean of Lim and Palfia.  ``t = 1/2`` is the
    kind paired with the geometric-mean divergence objective, but its fixed
    point equals that objective's minimiser only on commuting families (see
    :func:`objective`).  Other values of ``t`` still define a mean through
    the fixed-point equation but carry no squared distance.
    """

    t: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.t < 1.0:
            raise ValueError(f"power-mean parameter must lie in (0, 1), got {self.t}")

    @property
    def distance(self) -> DistanceKind | None:
        return DistanceKind.D3 if self.t == 0.5 else None

    def _mean(self, x: SpdMatrix, a: SpdMatrix) -> np.ndarray:
        return geometric_mean_entries(x, a, self.t)

    def _closed_form(self, a: SpdMatrix, b: SpdMatrix) -> SpdMatrix:
        if self.t != 0.5:
            return super()._closed_form(a, b)
        mid = geometric_mean_entries(a, b, 0.5)
        return _spd_stack((a.entries + b.entries + 2.0 * mid) / 4.0)


@dataclass(frozen=True)
class LogEuclidean(MeanKind):
    """Barycentre of the log-Euclidean divergence: ``G(X, A)`` is the
    log-Euclidean midpoint, whose iterates provably stay in the bracket."""

    distance = DistanceKind.D4
    _ABORTS_OFF_BRACKET = True

    def _mean(self, x: SpdMatrix, a: SpdMatrix) -> np.ndarray:
        return log_euclidean_pair(x, a).entries


WASSERSTEIN = Wasserstein()
LOG_EUCLIDEAN = LogEuclidean()


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the fixed-point iteration (see :func:`solve`).

    ``damping`` is the Picard step ``eta``, fixed for the whole solve.
    """

    tol: float = 1e-12
    max_iter: int = 500
    damping: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.tol < np.inf:
            raise ValueError(f"tolerance must be finite and positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError(f"damping must lie in (0, 1], got {self.damping}")


@dataclass(frozen=True)
class SolverReport:
    """Trace of one solve: converged means the residual met the tolerance.

    ``spectral_bounds`` is the interval ``[alpha, beta]`` spanned by the
    input spectra; every iterate is expected to stay inside it, and
    ``bracket_ok`` records whether that held (violations abort the solve for
    the log-Euclidean kind, where the containment is a proven property of
    the iteration map, and are merely monitored for the other kinds).  Only
    the start and Picard images are checked this way: a mixed iterate
    outside the bracket is never taken.  ``fallbacks`` counts the steps whose
    mixed iterate was rejected for the Picard image.
    """

    iterations: int
    final_residual: float
    converged: bool
    spectral_bounds: tuple[float, float]
    bracket_ok: bool = True
    fallbacks: int = 0


def mean_map(kind: MeanKind, x: SpdMatrix, a: SpdMatrix) -> SpdMatrix:
    """The two-variable mean ``G(X, A)`` the fixed-point equation sums.

    Idempotent (``G(A, A) = A``); on commuting pairs all three kinds with
    ``t = 1/2`` reduce to the entrywise root ``sqrt(x_i a_i)``.
    """
    _require_same_dim(x.dim, a.dim)
    return _spd_stack(kind._mean(x, a))


def _picard_sum(
    kind: MeanKind, x: SpdMatrix, mats: Sequence[SpdMatrix], weights
) -> tuple[np.ndarray, float | np.ndarray]:
    """``sum_j w_j G(X, A_j)`` and the relative residual
    ``||X - sum||_F / ||X||_F`` of each matrix; the memo of ``X`` serves
    its factors to every term after the first."""
    summed = sum(wj * kind._mean(x, aj) for wj, aj in zip(weights, mats))
    relative = _frobenius_norms(x.entries - summed) / _frobenius_norms(x.entries)
    return summed, _per_matrix(relative)


def fixed_point_residual(
    kind: MeanKind, x: SpdMatrix, mats: Sequence[SpdMatrix], w: WeightVector
) -> float | np.ndarray:
    """Relative residual ``||X - sum_j w_j G(X, A_j)||_F / ||X||_F`` of the
    defining equation at a candidate ``X``; one per matrix if ``x`` and the
    ``mats`` are stacks of one shape."""
    _require_same_dim(x.dim, check_family(mats, w))
    return _picard_sum(kind, x, mats, w.weights)[1]


class _AndersonHistory:
    """The last ``_ANDERSON_MEMORY`` differences of the residuals
    ``f = T(X) - X`` and of the images ``g = T(X)`` of a fixed-point map
    ``T``.

    ``propose`` returns the Anderson (type II) iterate ``g - dG gamma``, with
    ``gamma`` the real least-squares solution of ``dF gamma ~ f`` over the
    real view of the entries, so a mix of Hermitian matrices stays
    Hermitian.  ``gamma`` comes from the k-by-k Gram system through a
    rank-tolerant solve: for small matrices the history spans fewer real
    dimensions than its length and the Gram matrix is singular.
    """

    def __init__(self):
        self.df: deque[np.ndarray] = deque(maxlen=_ANDERSON_MEMORY)
        self.dg: deque[np.ndarray] = deque(maxlen=_ANDERSON_MEMORY)
        self.last: tuple[np.ndarray, np.ndarray] | None = None

    def clear(self) -> None:
        """Drop the differences; the latest residual stays as the base."""
        self.df.clear()
        self.dg.clear()

    def propose(self, x: np.ndarray, g: np.ndarray, restart: bool) -> np.ndarray | None:
        """Record ``(f, g)`` at ``x`` and return the mixed iterate, or
        ``None`` while there is no difference to mix (restart clears first)."""
        f = np.ravel(g - x).view(np.float64)
        if restart or self.last is None:
            self.clear()
        else:
            self.df.append(f - self.last[0])
            self.dg.append(g - self.last[1])
        self.last = (f, g)
        if not self.df:
            return None
        # dot products one pair at a time: no stacked copy of the history
        gram = np.array([[np.dot(u, v) for v in self.df] for u in self.df])
        gamma = np.linalg.lstsq(gram, [np.dot(u, f) for u in self.df], rcond=None)[0]
        return g - sum(c * dg for c, dg in zip(gamma, self.dg))


def _bracketed(proposal: np.ndarray, lower: float, upper: float) -> SpdMatrix | None:
    """``proposal`` as the next iterate, or ``None`` if it is not SPD or its
    spectrum leaves ``[lower, upper]``."""
    try:
        candidate = _spd_stack(proposal)
    except (NotPositiveDefiniteError, HermitianError):
        return None
    spectrum = candidate.eig().eigenvalues
    return candidate if lower <= spectrum[0] and spectrum[-1] <= upper else None


def solve(
    kind: MeanKind,
    mats: Sequence[SpdMatrix],
    w: WeightVector,
    cfg: SolverConfig | None = None,
    x0: SpdMatrix | None = None,
) -> tuple[SpdMatrix, SolverReport]:
    """Solve the fixed-point equation ``X = sum_j w_j G(X, A_j)``.

    Starts at the weighted arithmetic mean (or ``x0``).  Each step forms the
    Picard sum at the current iterate and its relative residual, and stops
    once the residual is at most ``cfg.tol`` or ``cfg.max_iter`` steps are
    done; the report says ``converged`` exactly when the residual met the
    tolerance, so exhaustion returns the last iterate with
    ``converged=False`` rather than an exception.

    Otherwise the step forms the damped Picard image
    ``T(X) = (1 - eta) X + eta sum_j w_j G(X, A_j)``.  The next iterate is
    the Anderson mix of the recent images (see :class:`_AndersonHistory`),
    unless the mix is not SPD or its spectrum leaves the bracket
    ``[alpha, beta]`` of the inputs: then the step falls back to the Picard
    image, which is counted in ``fallbacks``.  A fallback and a residual
    that grew each restart the mixing history; ``eta`` is ``cfg.damping``
    throughout.  A step costs m + 1 eigensolves, plus one per fallback.
    """
    cfg = cfg or SolverConfig()
    current = x0 if x0 is not None else arithmetic_mean(mats, w)
    _require_same_dim(current.dim, check_family(mats, w))
    alpha = min(float(a.eig().eigenvalues[0]) for a in mats)
    beta = max(float(a.eig().eigenvalues[-1]) for a in mats)
    lower = alpha * (1.0 - _BRACKET_SLACK)
    upper = beta * (1.0 + _BRACKET_SLACK)
    history = _AndersonHistory()

    previous_residual = np.inf
    bracket_ok = True
    fallbacks = 0

    for iterations in range(cfg.max_iter + 1):
        spectrum = current.eig().eigenvalues
        if spectrum[0] < lower or spectrum[-1] > upper:
            bracket_ok = False
            if kind._ABORTS_OFF_BRACKET:
                raise InternalConsistencyError(
                    f"iterate spectrum [{spectrum[0]:.6e}, {spectrum[-1]:.6e}] left "
                    f"the bracket [{alpha:.6e}, {beta:.6e}] at iteration {iterations}"
                )
        summed, residual = _picard_sum(kind, current, mats, w.weights)
        if residual <= cfg.tol or iterations == cfg.max_iter:
            break
        # growth restarts the mixing history
        grew = residual > previous_residual
        previous_residual = residual
        stepped = (1.0 - cfg.damping) * current.entries + cfg.damping * summed
        proposal = history.propose(current.entries, stepped, restart=grew)
        mixed = None if proposal is None else _bracketed(proposal, lower, upper)
        if proposal is not None and mixed is None:
            fallbacks += 1
            history.clear()
        current = mixed if mixed is not None else _spd_stack(stepped)

    return current, SolverReport(
        iterations=iterations,
        final_residual=residual,
        converged=residual <= cfg.tol,
        spectral_bounds=(alpha, beta),
        bracket_ok=bracket_ok,
        fallbacks=fallbacks,
    )


def objective(
    kind: MeanKind, x: SpdMatrix, mats: Sequence[SpdMatrix], w: WeightVector
) -> float:
    """The weighted sum of squared distances ``sum_j w_j d^2(X, A_j)``.

    The squared distance is the Bures-Wasserstein one for the Wasserstein
    kind, the geometric-mean divergence for the power mean at ``t = 1/2``,
    and the log-Euclidean divergence for the log-Euclidean kind.  Power
    means with ``t != 1/2`` have no associated distance and are refused.

    A caution on the power-mean kind: the Wasserstein and log-Euclidean
    fixed points are stationary points (hence, by convexity, minimisers) of
    their objectives, but the ``t = 1/2`` power-mean fixed point is *not* in
    general a stationary point of the geometric-mean divergence objective.
    Each objective is strictly convex and has a unique minimiser; for the
    power-mean kind that minimiser coincides with the fixed point on
    commuting families (both reduce to the half-power mean) and differs
    slightly off them.  ``solve`` deliberately returns the fixed point,
    which is the defining quantity of this module's mean kinds.
    """
    check_family(mats, w)
    dk = kind.distance
    if dk is None:
        raise UnsupportedObjectiveError(f"no squared distance is attached to {kind!r}")
    return float(
        sum(wj * divergence(dk, x, aj) for wj, aj in zip(w.weights, mats))
    )


def closed_form_m2(kind: MeanKind, a: SpdMatrix, b: SpdMatrix) -> SpdMatrix:
    """Closed forms of the two-point barycentre with equal weights.

    Wasserstein: ``(A + B + (AB)^{1/2} + (BA)^{1/2}) / 4``; power mean at
    ``t = 1/2``: ``(A + B + 2 (A # B)) / 4``.  No closed form is known for
    the log-Euclidean kind (see :func:`refute_d4_guess`).  Stacks ``a``
    and ``b`` of one shape give the stack of the pairs' barycentres.
    """
    _require_same_dim(a.dim, b.dim)
    return kind._closed_form(a, b)


@dataclass(frozen=True)
class D4GuessReport:
    """Evidence that the natural log-Euclidean two-point guess fails.

    ``candidate`` is ``(A + B + 2 exp((log A + log B)/2)) / 4`` — the shape
    a closed form analogous to the other kinds would take.  ``residual`` and
    ``relative_residual`` are the absolute and relative residuals of the
    log-Euclidean fixed-point equation at the candidate.  ``refuted``
    records that the relative residual exceeds ``1e-6``.  On (numerically)
    commuting inputs the residual vanishes identically and the check is
    flagged inconclusive instead.  For stacks of pairs every field holds
    one value per pair, and ``refuted`` is taken pair by pair; for one pair
    the flags are plain ``bool`` and the residuals ``float``.
    """

    candidate: SpdMatrix
    residual: float | np.ndarray
    relative_residual: float | np.ndarray
    inconclusive: bool | np.ndarray

    @property
    def refuted(self) -> bool | np.ndarray:
        conclusive = np.logical_not(self.inconclusive)
        return _per_matrix(conclusive & (np.asarray(self.relative_residual) > _COMMUTATOR_TOL))


def refute_d4_guess(a: SpdMatrix, b: SpdMatrix) -> D4GuessReport:
    """Test the would-be closed form of the log-Euclidean two-point barycentre.

    Evaluates the :func:`fixed_point_residual` of the candidate with equal
    weights, reusing the ``log A`` and ``log B`` the candidate is built from
    (kept in the memos of ``a`` and ``b``); stacks ``a`` and ``b`` of one
    shape give one report over all pairs.
    """
    _require_same_dim(a.dim, b.dim)
    commutator = a.entries @ b.entries - b.entries @ a.entries
    comm_scale = np.maximum(
        _frobenius_norms(a.entries) * _frobenius_norms(b.entries), 1e-300
    )
    inconclusive = _per_matrix(_frobenius_norms(commutator) / comm_scale <= _COMMUTATOR_TOL)

    candidate = _spd_stack(
        (a.entries + b.entries + 2.0 * log_euclidean_pair(a, b).entries) / 4.0
    )
    _, relative = _picard_sum(LOG_EUCLIDEAN, candidate, (a, b), WeightVector.uniform(2).weights)
    return D4GuessReport(
        candidate=candidate,
        residual=_per_matrix(relative * _frobenius_norms(candidate.entries)),
        relative_residual=relative,
        inconclusive=inconclusive,
    )

"""Fixed-point barycentres of positive definite matrices.

For each supported mean kind, the mean of ``(A_1, ..., A_m)`` with
weights ``w`` is characterised as the solution of

    X = sum_j w_j G(X, A_j)

where ``G`` is the two-variable mean attached to the kind: the square root
of ``X^{1/2} A X^{1/2}`` (Wasserstein), the weighted geometric mean
``X #_t A`` (power mean), or the log-Euclidean midpoint (log-Euclidean
type).  For the Wasserstein and log-Euclidean kinds this fixed point is the
barycentre, the minimiser of ``sum_j w_j d^2(X, A_j)``.  For the power mean
at ``t = 1/2`` it is the Lim-Palfia power mean, which equals the minimiser
of the d3^2 objective only on commuting families (see :func:`objective`).
The solver runs plain Picard iteration of this equation, starting
from the arithmetic mean, with damping as a safety net; existence and
uniqueness of the fixed point are known, convergence of Picard is not
guaranteed, so non-convergence is a reportable outcome rather than an error.

Each solve call is single threaded with a fixed left-to-right summation
order, which makes results deterministic; distinct calls are independent and
safe to run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DimensionMismatchError, InternalConsistencyError, UnsupportedObjectiveError
from .distances import DistanceKind, divergence
from .linalg import SpdMatrix, hermitian_part, product_sqrt, sqrt_entries, sqrtm
from .means import (
    WeightVector,
    arithmetic_mean,
    check_family,
    geometric_mean,
    geometric_mean_entries,
    log_euclidean_pair,
)

#: Relative slack allowed on the spectral bracket of the iterates.
_BRACKET_SLACK = 1e-9

#: Relative commutator size below which the log-Euclidean guess holds
#: trivially and its refutation is inconclusive.
_COMMUTATOR_TOL = 1e-6


@dataclass(frozen=True)
class Wasserstein:
    """Barycentre of the Bures-Wasserstein distance."""


@dataclass(frozen=True)
class PowerMean:
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


@dataclass(frozen=True)
class LogEuclidean:
    """Barycentre of the log-Euclidean divergence."""


MeanKind = Union[Wasserstein, PowerMean, LogEuclidean]

WASSERSTEIN = Wasserstein()
LOG_EUCLIDEAN = LogEuclidean()


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the Picard iteration."""

    tol: float = 1e-12
    max_iter: int = 500
    damping: float = 1.0

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError("tolerance must be positive")
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
    the iteration map, and are merely monitored for the other kinds).
    """

    iterations: int
    final_residual: float
    converged: bool
    spectral_bounds: tuple[float, float]
    bracket_ok: bool = True


def mean_map(kind: MeanKind, x: SpdMatrix, a: SpdMatrix) -> SpdMatrix:
    """The two-variable mean ``G(X, A)`` the fixed-point equation sums.

    Idempotent (``G(A, A) = A``); on commuting pairs all three kinds with
    ``t = 1/2`` reduce to the entrywise root ``sqrt(x_i a_i)``.
    """
    if x.dim != a.dim:
        raise DimensionMismatchError(f"dimension mismatch: {x.dim} vs {a.dim}")
    return SpdMatrix(_mean_map_entries(kind, x, a))


def _mean_map_entries(kind: MeanKind, x: SpdMatrix, a: SpdMatrix) -> np.ndarray:
    if isinstance(kind, Wasserstein):
        root = sqrt_entries(x)
        return sqrtm(SpdMatrix(hermitian_part(root @ a.entries @ root))).entries
    if isinstance(kind, PowerMean):
        return geometric_mean_entries(x, a, kind.t)
    if isinstance(kind, LogEuclidean):
        return log_euclidean_pair(x, a).entries
    raise TypeError(f"unknown mean kind {kind!r}")


def _picard_sum(kind: MeanKind, x: SpdMatrix, mats, weights) -> np.ndarray:
    return sum(wj * _mean_map_entries(kind, x, aj) for wj, aj in zip(weights, mats))


def _require_dim(x: SpdMatrix, dim: int) -> None:
    if x.dim != dim:
        raise DimensionMismatchError(f"candidate has dimension {x.dim}, the family {dim}")


def fixed_point_residual(
    kind: MeanKind, x: SpdMatrix, mats: Sequence[SpdMatrix], w: WeightVector
) -> float:
    """Relative residual ``||X - sum_j w_j G(X, A_j)||_F / ||X||_F`` of the
    defining equation at a candidate ``X``."""
    _require_dim(x, check_family(mats, w))
    summed = _picard_sum(kind, x, mats, w.weights)
    return float(np.linalg.norm(x.entries - summed) / np.linalg.norm(x.entries))


def solve(
    kind: MeanKind,
    mats: Sequence[SpdMatrix],
    w: WeightVector,
    cfg: SolverConfig | None = None,
    x0: SpdMatrix | None = None,
) -> tuple[SpdMatrix, SolverReport]:
    """Solve the fixed-point equation ``X = sum_j w_j G(X, A_j)``.

    Starts at the weighted arithmetic mean (or ``x0``), iterates
    ``X <- (1 - eta) X + eta sum_j w_j G(X, A_j)``, and stops when the
    relative residual of the defining equation drops below ``cfg.tol``.  If
    the residual grows for five consecutive iterations the damping ``eta``
    is halved, down to 1/16.  On ``max_iter`` exhaustion the last iterate is
    returned with ``converged=False`` diagnostics rather than an exception.
    """
    cfg = cfg or SolverConfig()
    current = x0 if x0 is not None else arithmetic_mean(mats, w)
    _require_dim(current, check_family(mats, w))
    alpha = min(float(a.eig().eigenvalues[0]) for a in mats)
    beta = max(float(a.eig().eigenvalues[-1]) for a in mats)
    lower = alpha * (1.0 - _BRACKET_SLACK)
    upper = beta * (1.0 + _BRACKET_SLACK)

    damping = cfg.damping
    consecutive_growth = 0
    previous_residual = np.inf
    bracket_ok = True
    residual = np.inf
    iterations = 0

    for iterations in range(cfg.max_iter + 1):
        spectrum = current.eig().eigenvalues
        if spectrum[0] < lower or spectrum[-1] > upper:
            bracket_ok = False
            if isinstance(kind, LogEuclidean):
                raise InternalConsistencyError(
                    f"iterate spectrum [{spectrum[0]:.6e}, {spectrum[-1]:.6e}] left "
                    f"the bracket [{alpha:.6e}, {beta:.6e}] at iteration {iterations}"
                )
        summed = _picard_sum(kind, current, mats, w.weights)
        residual = float(
            np.linalg.norm(current.entries - summed) / np.linalg.norm(current.entries)
        )
        if residual <= cfg.tol:
            return current, SolverReport(
                iterations=iterations,
                final_residual=residual,
                converged=True,
                spectral_bounds=(alpha, beta),
                bracket_ok=bracket_ok,
            )
        if iterations == cfg.max_iter:
            break
        if residual > previous_residual:
            consecutive_growth += 1
            if consecutive_growth >= 5:
                damping = max(damping / 2.0, 1.0 / 16.0)
                consecutive_growth = 0
        else:
            consecutive_growth = 0
        previous_residual = residual
        stepped = (1.0 - damping) * current.entries + damping * summed
        current = SpdMatrix(hermitian_part(stepped))

    return current, SolverReport(
        iterations=iterations,
        final_residual=residual,
        converged=False,
        spectral_bounds=(alpha, beta),
        bracket_ok=bracket_ok,
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
    if isinstance(kind, Wasserstein):
        dk = DistanceKind.D2
    elif isinstance(kind, PowerMean):
        if kind.t != 0.5:
            raise UnsupportedObjectiveError(
                f"no squared distance is attached to the power mean with t={kind.t}"
            )
        dk = DistanceKind.D3
    elif isinstance(kind, LogEuclidean):
        dk = DistanceKind.D4
    else:
        raise TypeError(f"unknown mean kind {kind!r}")
    return float(
        sum(wj * divergence(dk, x, aj) for wj, aj in zip(w.weights, mats))
    )


def closed_form_m2(kind: MeanKind, a: SpdMatrix, b: SpdMatrix) -> SpdMatrix:
    """Closed forms of the two-point barycentre with equal weights.

    Wasserstein: ``(A + B + (AB)^{1/2} + (BA)^{1/2}) / 4``; power mean at
    ``t = 1/2``: ``(A + B + 2 (A # B)) / 4``.  No closed form is known for
    the log-Euclidean kind (see :func:`refute_d4_guess`).
    """
    if isinstance(kind, Wasserstein):
        cross = product_sqrt(a, b)
        return SpdMatrix(hermitian_part((a.entries + b.entries + cross + cross.conj().T) / 4.0))
    if isinstance(kind, PowerMean) and kind.t == 0.5:
        mid = geometric_mean(a, b).entries
        return SpdMatrix(hermitian_part((a.entries + b.entries + 2.0 * mid) / 4.0))
    raise UnsupportedObjectiveError(
        f"no closed form for the two-point barycentre of kind {kind!r}"
    )


@dataclass(frozen=True)
class D4GuessReport:
    """Evidence that the natural log-Euclidean two-point guess fails.

    ``candidate`` is ``(A + B + 2 exp((log A + log B)/2)) / 4`` — the shape
    a closed form analogous to the other kinds would take.  ``refuted``
    records that its fixed-point residual exceeds ``1e-6`` of its norm.  On
    (numerically) commuting inputs the residual vanishes identically and the
    check is flagged inconclusive instead.
    """

    candidate: SpdMatrix
    residual: float
    relative_residual: float
    solution_distance: float
    solver: SolverReport
    inconclusive: bool

    @property
    def refuted(self) -> bool:
        return not self.inconclusive and self.relative_residual > _COMMUTATOR_TOL


def refute_d4_guess(a: SpdMatrix, b: SpdMatrix) -> D4GuessReport:
    """Test the would-be closed form of the log-Euclidean two-point barycentre.

    Evaluates the fixed-point residual of the candidate and, for reference,
    its distance to the true barycentre computed by :func:`solve`.
    """
    commutator = a.entries @ b.entries - b.entries @ a.entries
    comm_scale = max(
        np.linalg.norm(a.entries) * np.linalg.norm(b.entries), 1e-300
    )
    inconclusive = bool(np.linalg.norm(commutator) / comm_scale <= _COMMUTATOR_TOL)

    candidate = SpdMatrix(hermitian_part(
        (a.entries + b.entries + 2.0 * log_euclidean_pair(a, b).entries) / 4.0
    ))
    pulled = 0.5 * (
        log_euclidean_pair(candidate, a).entries
        + log_euclidean_pair(candidate, b).entries
    )
    residual = float(np.linalg.norm(candidate.entries - pulled))
    relative = residual / float(np.linalg.norm(candidate.entries))

    weights = WeightVector.uniform(2)
    solution, report = solve(LOG_EUCLIDEAN, [a, b], weights)
    distance_to_solution = float(
        np.linalg.norm(candidate.entries - solution.entries)
    )
    return D4GuessReport(
        candidate=candidate,
        residual=residual,
        relative_residual=relative,
        solution_distance=distance_to_solution,
        solver=report,
        inconclusive=inconclusive,
    )

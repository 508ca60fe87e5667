"""Hellinger-type distances, divergences and barycentres of positive
definite matrices.

The library is organised around small immutable value types
(:class:`HermitianMatrix`, :class:`SpdMatrix`, :class:`WeightVector`) and
pure functions over them; everything is safe for concurrent use.
"""

from .barycentre import (
    LOG_EUCLIDEAN,
    WASSERSTEIN,
    D4GuessReport,
    LogEuclidean,
    MeanKind,
    PowerMean,
    SolverConfig,
    SolverReport,
    Wasserstein,
    closed_form_m2,
    fixed_point_residual,
    mean_map,
    objective,
    refute_d4_guess,
    solve,
)
from .bregman import (
    ENTROPY,
    SQUARE,
    MotherFunction,
    bregman_scalar,
    bregman_tracial,
    left_barycentre,
    phi4_via_min,
    power_mother,
    relative_entropy,
    right_barycentre,
    variance,
)
from .calculus import (
    DividedDifferenceKernel,
    IntegrationMeasure,
    d_tr_log_euclidean,
    divided_difference_kernel,
    fd_directional,
    fd_frechet,
    fd_hessian_quadform,
    frechet,
    frechet_geometric,
    frechet_geometric_quadrature,
    grad_phi3,
    hessian_phi3_diag,
    quad_check,
)
from .distances import (
    DistanceKind,
    ProbabilityVector,
    TraceChain,
    d2_unitary,
    distance,
    divergence,
    hellinger,
    trace_chain,
)
from .errors import (
    DimensionMismatchError,
    EigenDecompositionError,
    HelmatError,
    HermitianError,
    InternalConsistencyError,
    NotPositiveDefiniteError,
    QuadratureError,
    SingularMatrixError,
    SpectralDomainError,
    UnsupportedObjectiveError,
)
from .legendre_cex import (
    CexParams,
    MatrixCexReport,
    MatrixMaps,
    StrictnessReport,
    VectorInstance,
    build_vector_instance,
    composed_cost_matrix,
    grad_composed_cost_matrix,
    grad_psibar_vector,
    grad_schatten_p,
    matrix_maps,
    psibar_matrix,
    psibar_vector,
    verify_matrix_cex,
    verify_vector_strictness,
)
from .linalg import (
    EigenDecomposition,
    HermitianMatrix,
    SpdMatrix,
    apply_spectral,
    congruence,
    eigh,
    expm,
    frobenius_inner,
    frobenius_norm,
    identity,
    inv_sqrtm,
    invm,
    logm,
    product_sqrt,
    sqrtm,
)
from .means import (
    WeightVector,
    arithmetic_mean,
    fidelity,
    geometric_mean,
    geometric_mean_t,
    log_euclidean_multi,
    log_euclidean_pair,
    q_half,
)
from .sampling import make_rng

__version__ = "0.1.0"

"""Hyperbolic quadrature-method-of-moments toolkit for the 1D BGK equation.

Realizable-moment algebra, orthogonal-polynomial machinery, moment closures
with spectral certification of strict hyperbolicity, numerical verification
of the structural stability condition, and a realizability-preserving
finite-volume solver.
"""

__version__ = "0.1.0"

from .moments import (
    DEFAULT_REALIZABILITY_TOL,
    EquilibriumState,
    NotRealizableError,
    RealizabilityCheck,
    RecurrenceCoefficients,
    affine_transform,
    gaussian_moments,
    hankel_matrix,
    is_strictly_realizable,
    maxwellian_moments,
    moments_to_recurrence,
    recurrence_to_moments,
)
from .orthopoly import (
    Quadrature,
    check_interlacing,
    gauss_quadrature,
    jacobi_roots,
    poly_eval,
    poly_mul,
)
from .closures import (
    CharacteristicPolynomial,
    ClosureSpec,
    InconsistentClosureError,
    SpectralDecomposition,
    characteristic_polynomial,
    close,
    jacobian_matrix,
    spectral_decomposition,
    verify_affine_invariance,
)
from .stability import (
    SourceDecomposition,
    StabilityCertificate,
    TailPolynomials,
    certify,
    coupling_residuals,
    source_jacobian,
    symmetrizer_weights,
    tail_polynomials,
)
from .solver import (
    ConfigError,
    GridState,
    RealizabilityLossError,
    RunResult,
    Snapshot,
    build_initial_grid,
    reconstruct_nodes,
    run,
    step,
    total_moments,
    validate_config,
)

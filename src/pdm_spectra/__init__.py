"""Spectra of complexified position-dependent-mass Hamiltonians.

The package models non-Hermitian Schroedinger operators whose mass varies
with position and whose potential picks up an imaginary part from a
first-order intertwining construction.  A change of variables maps each
such operator onto a constant-mass reference problem; the two pictures are
discretized independently and cross-checked against each other, against
closed-form bound-state ladders, and against a LAPACK-free eigenvalue
oracle.
"""

from .errors import (
    BadIntervalError,
    BetaMinusOneError,
    ConfigError,
    InsufficientBoundStatesError,
    NoConvergenceError,
    OutOfDomainError,
    OutOfRangeError,
    PdmSpectraError,
    SingularEdgeError,
    TooFewNodesError,
    TooLargeError,
    UnsupportedGeneratorError,
    UnsupportedKindError,
)
from .model import (
    AmbiguityOrdering,
    Constant,
    ConstantMass,
    MassProfile,
    ModelSpec,
    Morse,
    ORDERING_PRESETS,
    SamsonovRoy,
    ScarfII,
    delta_of,
    ordering_preset,
)
from .mapping import (
    PotentialDecomposition,
    closed_form_reference,
    closed_form_target,
    potential_decomposition,
    reference_potential,
    target_potential,
    wavefunction_pullback,
)
from .operators import (
    MAX_DENSE_NODES,
    Grid,
    OperatorMatrix,
    build_eta_matrix,
    build_reference_matrix,
    build_target_matrix,
    matched_domains,
    q_induced_grid,
    uniform_grid,
)
from .eigen import (
    Spectrum,
    brute_oracle_small,
    eig,
    eig_lowest,
    eig_tridiagonal,
    match_eigenvalue_sets,
)
from .verify import (
    SAMSONOV_ROY_MISSING_LEVEL,
    VerificationReport,
    analytic_levels,
    check_analytic,
    check_identities,
    check_intertwining,
    check_isospectral,
    convergence_sweep,
    eigensolver_validation,
    fit_decay_rate,
    isospectral_sweep,
    samsonov_roy_levels,
    scarf2_levels,
)
from .config import (
    DEFAULTS,
    RunConfig,
    build_spec,
    config_from_dict,
    load_config,
)

__version__ = "0.1.0"

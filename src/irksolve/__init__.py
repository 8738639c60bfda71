"""Fully implicit Runge-Kutta time integration for linear ODE systems
M u' = L u + f(t), with condition-number-optimal conjugate-pair
preconditioning of the stage equations.

The solver never assembles the coupled stage system. Each time step
reduces to a short sequence of real-valued solves with matrices of the
backward-Euler form (gamma*M - dt*L), preconditioned so that the outer
Krylov iteration has a mesh- and dt-independent condition number.
"""

from .tableaux import (
    ButcherTableau,
    build_tableau,
    validate_tableau,
    SUPPORTED_TABLEAUX,
    UnsupportedScheme,
    ConstructionFailure,
)
from .spectral import (
    Factor,
    SpectralData,
    spectral_decompose,
    factor_list,
    StabilityViolation,
    DefectiveTableau,
)
from .linop import (
    LinearOperator,
    SparseOperator,
    CirculantOperator,
    MassOperator,
    IdentityMass,
    SparseMass,
    shifted_operator,
    build_inner_preconditioner,
    fov_upper_bound,
    DimensionMismatch,
    FactorizationFailure,
    EigenFailure,
    FieldOfValuesViolation,
)
from .krylov import (KrylovConfig, KrylovReport, solve, Breakdown,
                     NonFiniteResidual)
from .stepper import (
    LinearProblem,
    IRKStepper,
    BlockStepper,
    advance_oracle,
    FactorSolveFailure,
)
from .spatial import (
    GridSpec,
    build_advdiff,
    build_upwind_advection,
    build_fd_mms,
    build_fem_mass_1d,
)
from .conditioning import (
    CondResult,
    compute_kappa,
    h_scan,
    proof_constants,
    optimality_probe,
    tightness_matrix,
    random_stable_matrix,
)

__version__ = "0.1.0"

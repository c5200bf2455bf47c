"""Time-centered (implicit midpoint) integration of damped linear systems.

The midpoint scheme applied to q̈ + C·q̇ + K·q = 0 admits an exact discrete
energy balance: each step dissipates (Δq)ᵀC(Δq)/τ, so total energy plus
accumulated dissipation is a step invariant. The same motion is reproduced
by a per-step substituting conservative system whose transition matrix is
symplectic, while the direct scheme's transition matrix is not. This
package implements the schemes, constructs the substituting systems
numerically, verifies both claims as defect norms, and ships a CLI that
emits the CSV/JSON artifacts for the standard one- and two-dimensional
damped-oscillator experiments.
"""

from .errors import (
    ConfigError,
    DimensionError,
    InsufficientOscillationError,
    IntegrationError,
    InvalidStiffnessError,
    SingularMatrixError,
)
from .linalg import lu_factor, lu_solve, lu_solver, solve
from .symplectic import (
    SYMPLECTIC_TOL,
    cayley,
    factored_symplectic_defect,
    infinitesimal_symplectic_defect,
    scaled_verdict,
    symplectic_defect,
    symplectic_form,
)
from .system import (
    DEFAULT_EPSILON,
    DampedLinearSystem,
    EquivalentStiffness,
    PhaseState,
    analytic_1d,
    damping_work,
    make_system,
    total_energy,
)
from .integrators import (
    METHODS,
    StepRecord,
    Trajectory,
    TransitionPair,
    integrate,
    propagate,
    scheme_factors,
    transition_matrices,
)
from .diagnostics import (
    ConvergenceRow,
    ConvergenceTable,
    EnergyReport,
    convergence_study,
    energy_report,
    period_estimate,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConvergenceRow",
    "ConvergenceTable",
    "DampedLinearSystem",
    "DEFAULT_EPSILON",
    "DimensionError",
    "EnergyReport",
    "EquivalentStiffness",
    "InsufficientOscillationError",
    "IntegrationError",
    "InvalidStiffnessError",
    "METHODS",
    "PhaseState",
    "SingularMatrixError",
    "StepRecord",
    "SYMPLECTIC_TOL",
    "Trajectory",
    "TransitionPair",
    "analytic_1d",
    "cayley",
    "convergence_study",
    "damping_work",
    "energy_report",
    "factored_symplectic_defect",
    "infinitesimal_symplectic_defect",
    "integrate",
    "lu_factor",
    "lu_solve",
    "lu_solver",
    "make_system",
    "period_estimate",
    "propagate",
    "scaled_verdict",
    "scheme_factors",
    "solve",
    "symplectic_defect",
    "symplectic_form",
    "total_energy",
    "transition_matrices",
]

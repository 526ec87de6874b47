"""schwarzlab: a numerical laboratory for the variational structure of the
Schwarzian derivative.

The package implements, integrates, and cross-verifies the pieces of that
structure: the Schwarzian as a first integral of a fourth-order
stationarity equation, the generalized Wuenschmann invariants of that
equation, closed-form solution families, and the extended-variation
characterization of S(u) = 0 as a stationarity condition of its own.
"""

from .closed_form import (
    MobiusFamily,
    VerifyReport,
    family_eval_jet,
    family_fourth,
    family_of_jet,
    family_poles,
    family_singularities,
    family_verify,
)
from .el_ode import Trajectory, integrate, invariant_drift, trajectory_csv, write_csv
from .errors import (
    EvalDomainError,
    InfeasibleVariationError,
    IntegrationError,
    ParseError,
    QuadratureError,
    SchwarzLabError,
    SeriesMismatchError,
    SingularJetError,
    SingularTimeError,
)
from .ode_geometry import LinearizedOde, OdeField, el_field, linearize, verify_linear_basis, w0, w1
from .schwarzian import (
    EL_FIELD_TEXT,
    MERCATOR_TEXT,
    SCHWARZIAN_TEXT,
    Jet4,
    VarJet,
    boundary_B,
    boundary_terms,
    d_u,
    d_u2,
    el_rhs,
    lagrangian,
    mercator_c,
    schwarzian,
)
from .symbolics import (
    Expr,
    TaylorScalar,
    differentiate,
    eval_scalar,
    formal_solution,
    parse,
    taylor_eval,
)
from .variation import (
    AdmissibleVariation,
    BumpFn,
    CriticalReport,
    CurveFn,
    DuSolution,
    ExprCurve,
    ExprVariation,
    LinearCombination,
    MobiusCurve,
    TrajectoryCurve,
    VariationFn,
    admissible_variation,
    critical_test,
    delta_fd,
    delta_form,
    functional_IL,
    functional_IS,
    solve_du,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

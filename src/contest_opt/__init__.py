"""Optimal rank-based prize policies for contests with power effort costs.

The package evaluates designer objectives in an equilibrium-free reduced
form, characterizes and samples the unique symmetric mixed equilibrium,
finds optimal policies (certified 1-D branch-and-bound, two-level line
search, exhaustive lattice oracle), and ships executable checks of the
structural mathematics the optimizers rely on.
"""

from .bernstein import (
    basis_integral,
    basis_matrix,
    h_derivative,
    h_eval,
    h_inverse,
)
from .equilibrium import (
    EquilibriumModel,
    SimReport,
    cdf,
    cdf_table,
    expected_revenue,
    quantile,
    simulate,
    utility,
    welfare_quality_analytic,
)
from .errors import (
    BudgetExceededError,
    ContestOptError,
    DomainError,
    NormalizationViolation,
    OrderViolation,
    RangeError,
    ReductionPreconditionError,
    StructuralConditionError,
    TrivialPolicyError,
)
from .objective import (
    ConvexCombo,
    Exponential,
    MaxOrderStat,
    ObjectiveSpec,
    Posynomial,
    SocialWelfare,
    check_posynomial_condition,
    evaluate,
    evaluate_hm_closed_form,
    gradient,
    gradient_weight,
    parse_objective_config,
)
from .optimizer import (
    BnbConfig,
    OptResult,
    branch_and_bound,
    grid_search,
    two_level_line_search,
)
from .policy import (
    Policy,
    StructureClass,
    classify_structure,
    hm,
    is_nontrivial,
    make_policy,
    parse_policy,
    two_level,
    uni,
)
from .quadrature import QuadratureConfig
from .structure import (
    QuasiconvexityReport,
    SchurDirectionReport,
    SignPattern,
    check_gradient_quasiconvexity,
    check_weight_quasiconvexity,
    schur_direction,
    sign_changes,
    vandermonde_minor,
)

__version__ = "0.1.0"

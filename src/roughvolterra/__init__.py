"""Numerical integration calculus and Volterra solvers for rough signals."""

from .algebra import (
    Grid,
    HolderNorm,
    Increment2,
    Increment3,
    Path,
    SewingRegularityWarning,
    delta1,
    delta2,
    holder_norm,
    lambda_of,
    path_holder_norm,
    sew,
    sewing_constant,
    split_holder_norm,
    sup_norm,
)
from .checks import CheckResult, checks_report, run_checks
from .cli import ExperimentConfig, build_problem, load_config, main
from .coefficients import (
    Coefficient,
    MatrixFunc,
    ScalarFunc,
    constant_coefficient,
    linear_coefficient,
    matrix_func,
    scalar_func,
    separable_coefficient,
    trig_coefficient,
)
from .rough import (
    ControlledPath,
    LevyArea,
    QNorm,
    controlled_compose,
    levy_lift_piecewise_linear,
    lift_from_subgrid,
    rough_germ,
    rough_integral,
    volterra_remainder_rough,
)
from .signals import (
    BUILTIN_PATHS,
    CirculantEmbeddingWarning,
    FbmSpec,
    HolderEstimate,
    builtin_path,
    estimate_holder,
    fbm_covariance,
    fgn_autocovariance,
    generate_fbm,
    generate_fbm_detailed,
)
from .singular import (
    KernelSpec,
    kernel_increment,
    singular_increment,
    singular_integral_diag,
    singular_integral_offdiag,
)
from .solver import (
    SolverReport,
    VolterraProblem,
    WindowRecord,
    solve,
    validate_problem,
)
from .young import (
    ExponentWarning,
    YoungIntegrand,
    compose_coeff,
    volterra_increment_young,
    young_germ,
    young_integral,
)

__version__ = "0.1.0"

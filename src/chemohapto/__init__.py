"""Finite-difference simulator and boundedness-condition analyzer for a
minimal 2D chemotaxis-haptotaxis system with homogeneous Neumann walls.

The model couples a cell density u, a diffusible signal v, and a static
adhesive field w:

    u_t = lap u - chi div(u grad v) - xi div(u grad w) + f(u, w)
    tau v_t = lap v + u - v
    w_t = -v w

Alongside the integrator, the package evaluates the quantities that
decide global boundedness for this system: extended damping rates of
the kinetic source, an a-priori mass cap, an interpolation-constant
estimate, and the resulting threshold inequality.
"""

from .grid import Grid
from .kinetics import (
    TOWER_MAX,
    IteratedLogKinetics,
    Kinetics,
    LogisticKinetics,
    LogLogSubLogistic,
    PowerSubLogistic,
    ZeroKinetics,
    damping_rate_estimate,
    default_schedule,
    e_tower,
    iter_log,
    mass_cap,
    shifted_log_deriv,
    shifted_log_weight,
)
from .solver import (
    DerivedConstants,
    InitialData,
    InitialDataError,
    ModelParams,
    Numerics,
    RunResult,
    State,
    compatibility_constant,
    dt_cfl,
    initial_state,
    run,
    solve_elliptic_v,
    step,
)
from .diagnostics import (
    DiagnosticsRecord,
    LogGNReport,
    entropy,
    g_functional,
    gn_constant_estimate,
    identity_residual,
    log_gn_check,
    matrix_decay_violation,
    plateau_ratio,
)
from .condition import (
    CASE_NONE,
    CASE_TAU0,
    CASE_THRESHOLD,
    CLASS_DIVERGED,
    CLASS_GROWING,
    CLASS_PLATEAU,
    CLASS_UNCLASSIFIED,
    Classification,
    ThresholdReport,
    check_boundedness,
    classify_run,
)
from .config import ConfigError, RunConfig, build_initial_data, load_config
from .io import read_field, read_report, read_series, write_field, write_report, write_series

__version__ = "0.1.0"

__all__ = [
    "Grid",
    "Kinetics", "ZeroKinetics", "LogisticKinetics", "PowerSubLogistic",
    "LogLogSubLogistic", "IteratedLogKinetics",
    "TOWER_MAX", "e_tower", "iter_log", "shifted_log_deriv", "shifted_log_weight",
    "damping_rate_estimate", "default_schedule", "mass_cap",
    "ModelParams", "Numerics", "InitialData", "InitialDataError",
    "DerivedConstants", "State", "RunResult",
    "compatibility_constant", "solve_elliptic_v", "dt_cfl",
    "initial_state", "step", "run",
    "DiagnosticsRecord", "LogGNReport",
    "entropy", "g_functional", "identity_residual",
    "matrix_decay_violation", "plateau_ratio",
    "gn_constant_estimate", "log_gn_check",
    "ThresholdReport", "Classification", "check_boundedness", "classify_run",
    "CASE_TAU0", "CASE_THRESHOLD", "CASE_NONE",
    "CLASS_DIVERGED", "CLASS_GROWING", "CLASS_PLATEAU", "CLASS_UNCLASSIFIED",
    "ConfigError", "RunConfig", "build_initial_data", "load_config",
    "read_field", "write_field", "read_series", "write_series",
    "read_report", "write_report",
    "__version__",
]

"""Toolkit for observer-based robust force control.

Gain design for damping/stiffness environments under the observer bandwidth
bound, loop-level stability diagnostics, recursive least-squares plant and
environment identification, and a deterministic fixed-step closed-loop
simulator with a CSV-emitting command line.
"""

from .design import (
    CubicRoots,
    DesignResult,
    DesignSpecA,
    DesignSpecB,
    DesignSpecC,
    EnvClass,
    InfeasibleDesignError,
    classify_environment,
    design_damping,
    design_damping_stiffness,
    design_for_env,
    design_stiffness,
    solve_cubic,
    solve_quadratic,
    split_alpha_g,
)
from .engine import (
    AdaptationConfig,
    AdaptationMode,
    ControlMode,
    IdentConfig,
    Phase,
    Scenario,
    SimResult,
    Simulator,
    run_scenario,
)
from .identify import (
    ContactMode,
    RlmsEstimator,
)
from .loop_model import (
    PhiPoly,
    RationalTf,
    RhpZeroReport,
    asymptote_angles,
    closed_loop_char_poly,
    closed_loop_force_tf,
    open_loop_general,
    poles,
    rhp_zero_check,
    step_response,
)
from .observers import (
    BoundCheck,
    DisturbanceObserver,
    DobConfig,
    RatioReport,
    RfobConfig,
    robustness_bound_check,
)
from .plant import (
    EnvImpedance,
    FrictionParams,
    PlantParams,
)

__version__ = "0.1.0"

"""Toolkit for observer-based robust force control.

Gain design for damping/stiffness environments under the observer bandwidth
bound, loop-level stability diagnostics, recursive least-squares plant and
environment identification, and a deterministic fixed-step closed-loop
simulator with a CSV-emitting command line.

`import rfobkit` loads the design and loop-analysis layers, none of which
needs numpy.  The names in `_LAZY`, the simulator's and the estimators', import
`rfobkit.engine` or `rfobkit.identify`, and with them numpy, on first access.
"""
import importlib

from .design import (
    DesignResult, DesignSpec, EnvClass, InfeasibleDesignError, classify_environment,
    design_damping, design_damping_stiffness, design_for_env, design_stiffness, split_alpha_g,
)
from .loop_model import (
    PhiPoly, RationalTf, RhpZeroReport, asymptote_angles, closed_loop_char_poly, closed_loop_force_tf,
    open_loop_general, poles, rhp_zero_check, step_response,
)
from .observers import BoundCheck, DobConfig, RatioReport, RfobConfig, robustness_bound_check
from .plant import EnvImpedance, FrictionParams, PlantParams

__version__ = "0.1.0"

_LAZY = {**dict.fromkeys(("AdaptationConfig", "AdaptationMode", "ControlMode", "IdentConfig", "Phase", "Scenario",
                          "SimResult", "Simulator", "run_scenario"), "engine"),
         "ContactMode": "identify", "RlmsEstimator": "identify"}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})

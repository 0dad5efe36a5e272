"""Ground-truth continuous plant: motor dynamics, static friction, spring-damper contact."""
from __future__ import annotations

import math
from dataclasses import dataclass


def check_sign(obj, bound: str, *names: str) -> None:
    """Raise ValueError unless each named field of obj is > 0 (bound ">") or >= 0 (bound ">=").

    Written as `not v > 0.0` so that NaN fails both bounds.
    """
    for name in names:
        v = getattr(obj, name)
        if not (v > 0.0 if bound == ">" else v >= 0.0):
            raise ValueError(f"{name} must be {bound} 0, got {v}")


@dataclass(frozen=True)
class PlantParams:
    """True motor parameters (unknown to the controller in a real system).

    M_m: moving mass, kg.
    K_F: thrust coefficient, N/A.
    F_d: constant external disturbance (e.g. gravity component), N.
    """

    M_m: float
    K_F: float
    F_d: float = 0.0

    def __post_init__(self) -> None:
        check_sign(self, ">", "M_m", "K_F")


@dataclass(frozen=True)
class FrictionParams:
    """Viscous + Coulomb friction with a smooth sign approximation.

    k_vsc: viscous coefficient, Ns/m.
    k_clmb: Coulomb force level, N.
    eps: smoothing velocity for the Coulomb sign shape, m/s.
    """

    k_vsc: float = 0.0
    k_clmb: float = 0.0
    eps: float = 1e-3

    def __post_init__(self) -> None:
        check_sign(self, ">=", "k_vsc", "k_clmb")
        check_sign(self, ">", "eps")


@dataclass(frozen=True)
class EnvImpedance:
    """Lumped spring-damper contact environment.

    D_env: damping, Ns/m.  K_env: stiffness, N/m.
    x_env, xdot_env: position/velocity of the environment equilibrium.
    """

    D_env: float = 0.0
    K_env: float = 0.0
    x_env: float = 0.0
    xdot_env: float = 0.0

    def __post_init__(self) -> None:
        check_sign(self, ">=", "D_env", "K_env")


@dataclass
class PlantState:
    """Motor position and velocity."""

    x_m: float = 0.0
    xdot_m: float = 0.0


def smooth_sign(v: float, eps: float) -> float:
    """Smooth, bounded, odd approximation of sign(v): tanh(v / eps)."""
    return math.tanh(v / eps)


def friction_force(xdot: float, fp: FrictionParams) -> float:
    """Static friction force: k_vsc * xdot + k_clmb * smooth_sign(xdot)."""
    return fp.k_vsc * xdot + fp.k_clmb * smooth_sign(xdot, fp.eps)


def contact_force(state: PlantState, env: EnvImpedance, always_in_contact: bool = False) -> float:
    """Environment reaction force.

    Unilateral by default: force only while penetrating (x_m >= x_env).
    With always_in_contact the spring-damper acts in both directions,
    which makes the contact exactly linear for analysis equivalence runs.
    """
    if not always_in_contact and state.x_m < env.x_env:
        return 0.0
    return env.D_env * (state.xdot_m - env.xdot_env) + env.K_env * (state.x_m - env.x_env)


def plant_accel(
    i_m: float,
    state: PlantState,
    pp: PlantParams,
    fp: FrictionParams,
    env: EnvImpedance,
    always_in_contact: bool = False,
    F_d: float | None = None,
) -> float:
    """Acceleration from the force balance on the motor mass.

    F_d overrides the constant disturbance in pp when given (scenario hook).
    """
    dist = pp.F_d if F_d is None else F_d
    f = pp.K_F * i_m - friction_force(state.xdot_m, fp) - contact_force(state, env, always_in_contact) - dist
    return f / pp.M_m

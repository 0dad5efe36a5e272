"""Ground-truth continuous plant: motor dynamics, static friction, spring-damper contact.

`Simulator._advance` integrates the force balance M_m*xddot = K_F*i_m - F_fric - F_env - F_d.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


def check_params(obj, positive: tuple[str, ...] = (), nonnegative: tuple[str, ...] = ()) -> None:
    """Raise ValueError unless each float field of obj is finite, and the named ones > 0 or >= 0.

    A named field's sign is checked first, written as `not v > 0.0`, so NaN fails it with the sign message.
    """
    for name, v in vars(obj).items():
        bound = ">" if name in positive else ">=" if name in nonnegative else ""
        if bound and not (v > 0.0 if bound == ">" else v >= 0.0):
            raise ValueError(f"{name} must be {bound} 0, got {v}")
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")


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
        check_params(self, positive=("M_m", "K_F"))


@dataclass(frozen=True)
class FrictionParams:
    """Viscous + Coulomb friction, F_fric = k_vsc*xdot + k_clmb*tanh(xdot/eps).

    k_vsc: viscous coefficient, Ns/m.
    k_clmb: Coulomb force level, N.
    eps: smoothing velocity for the Coulomb sign shape, m/s.
    """

    k_vsc: float = 0.0
    k_clmb: float = 0.0
    eps: float = 1e-3

    def __post_init__(self) -> None:
        check_params(self, positive=("eps",), nonnegative=("k_vsc", "k_clmb"))


@dataclass(frozen=True)
class EnvImpedance:
    """Lumped spring-damper contact, F_env = D_env*(xdot - xdot_env) + K_env*(x - x_env).

    Unilateral by default: the force acts only while x >= x_env.

    D_env: damping, Ns/m.  K_env: stiffness, N/m.
    x_env, xdot_env: position/velocity of the environment equilibrium.
    """

    D_env: float = 0.0
    K_env: float = 0.0
    x_env: float = 0.0
    xdot_env: float = 0.0

    def __post_init__(self) -> None:
        check_params(self, nonnegative=("D_env", "K_env"))

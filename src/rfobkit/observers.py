"""Discrete-time disturbance observer (DOB and RFOB) plus the observer bandwidth bound.

All first-order low-pass blocks share one discretization: pole at exp(-g*dt)
(exact zero-order-hold, `lpf_pole`), output sampled at the end of each interval:

    y[k] = c * y[k-1] + (1 - c) * u[k],   c = exp(-g * dt)

so a constant input is reproduced with zero steady-state error.  One observer
class serves both loops: the DOB is `DisturbanceObserver` with the nominal
plant and no model terms, the RFOB the same class with the identified model.
Each observer holds its filter state, which `Simulator._advance` steps; the
velocity filter there is its pole alone, `Simulator._c_v`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .plant import FrictionParams, PlantParams, check_params


@dataclass(frozen=True)
class DobConfig:
    """Disturbance-observer parameters: nominal plant and filter cutoffs.

    M_mn: nominal mass, kg.  K_Fn: nominal thrust coefficient, N/A.
    g_dob: observer low-pass cutoff, rad/s.  g_v: velocity-filter cutoff, rad/s.
    """

    M_mn: float
    K_Fn: float
    g_dob: float
    g_v: float

    def __post_init__(self) -> None:
        check_params(self, positive=("M_mn", "K_Fn", "g_dob", "g_v"))


@dataclass(frozen=True)
class RfobConfig:
    """Reaction-force-observer parameters: identified plant model.

    M_hat / K_F_hat: identified mass and thrust coefficient.
    friction: identified friction model subtracted inside the observer.
    F_d_hat: identified constant disturbance, N.
    """

    M_hat: float
    K_F_hat: float
    g_rfob: float
    friction: FrictionParams = field(default_factory=FrictionParams)
    F_d_hat: float = 0.0

    def __post_init__(self) -> None:
        check_params(self, positive=("M_hat", "K_F_hat", "g_rfob"))


def lpf_pole(g: float, dt: float) -> float:
    """Pole exp(-g*dt) of the discretized g/(s+g); rejects g, dt <= 0 or NaN and g*dt >= 1."""
    if not (g > 0.0 and dt > 0.0):
        raise ValueError(f"g and dt must be > 0, got g={g}, dt={dt}")
    if not g * dt < 1.0:
        raise ValueError(f"g*dt = {g * dt:g} >= 1: cutoff too fast for this sample time")
    return math.exp(-g * dt)


class DisturbanceObserver:
    """Velocity-form observer: F_hat = LPF(K_F*i_m + g*M*xdot - F_fric(xdot) - F_d) - g*M*xdot.

    As the DOB (nominal M_mn, K_Fn, friction=None, F_d = 0) F_hat is the lumped
    disturbance and the compensation current is F_hat / K_Fn.  As the RFOB
    (identified M_hat, K_F_hat, friction and F_d_hat) F_hat is the load force.
    The low-pass has cutoff g, pole c = lpf_pole(g, dt) and output y.
    """

    def __init__(self, M: float, K_F: float, g: float, dt: float,
                 friction: FrictionParams | None = None, F_d: float = 0.0):
        self.c, self.g, self.dt, self.y = lpf_pole(g, dt), g, dt, 0.0
        self.M = M
        self.K_F = K_F
        self.friction = friction
        self.F_d = F_d
        self.F_hat = 0.0

    def retune(self, g: float, xdot: float = 0.0) -> None:
        """Change the observer cutoff in place with a bumpless output.

        The output is y - g*M*xdot, so y is shifted by (g_new - g_old)*M*xdot
        to keep the estimate continuous across the cutoff change.  A rejected
        cutoff raises before any state changes.
        """
        c = lpf_pole(g, self.dt)
        self.y += (g - self.g) * self.M * xdot
        self.c, self.g = c, g


@dataclass(frozen=True)
class RatioReport:
    """Nominal-to-actual scaling ratios of the two observers.

    alpha = (M_mn*K_F)/(M_m*K_Fn) for the disturbance observer,
    beta  = (M_mn*K_F_hat)/(M_hat*K_Fn) for the reaction force observer.
    beta < alpha signals an overestimated identified inertia (stability risk).
    """

    alpha: float
    beta: float

    @classmethod
    def from_configs(cls, pp: PlantParams, dob: DobConfig, rfob: RfobConfig) -> "RatioReport":
        alpha = dob.M_mn * pp.K_F / (pp.M_m * dob.K_Fn)
        beta = dob.M_mn * rfob.K_F_hat / (rfob.M_hat * dob.K_Fn)
        return cls(alpha=alpha, beta=beta)


@dataclass(frozen=True)
class BoundCheck:
    """Result of the observer bandwidth bound alpha*g_dob <= g_v/2."""

    passed: bool
    margin: float


def robustness_bound_check(alpha: float, g_dob: float, g_v: float) -> BoundCheck:
    """Check the sensitivity-peak bound alpha*g_dob <= g_v/2 (margin = g_v/2 - alpha*g_dob).

    The check allows the relative 1e-15 of rounding that an on-bound design leaves.
    """
    if alpha <= 0.0 or g_dob <= 0.0 or g_v <= 0.0:
        raise ValueError("alpha, g_dob and g_v must all be > 0")
    alpha_g = alpha * g_dob
    limit = 0.5 * g_v
    return BoundCheck(passed=alpha_g <= limit * (1.0 + 1e-15), margin=limit - alpha_g)

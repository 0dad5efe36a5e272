"""Discrete-time disturbance observer (DOB and RFOB) plus the bandwidth-bound calculus.

All first-order low-pass blocks share one discretization: pole at exp(-g*dt)
(exact zero-order-hold, `lpf_pole`), output sampled at the end of each interval:

    y[k] = c * y[k-1] + (1 - c) * u[k],   c = exp(-g * dt)

so a constant input is reproduced with zero steady-state error.  One observer
class serves both loops: the DOB is `DisturbanceObserver` with the nominal
plant and no model terms, the RFOB the same class with the identified model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .plant import FrictionParams, PlantParams, check_sign, friction_force


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
        check_sign(self, ">", "M_mn", "K_Fn", "g_dob", "g_v")


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
        check_sign(self, ">", "M_hat", "K_F_hat", "g_rfob")


def lpf_pole(g: float, dt: float) -> float:
    """Pole exp(-g*dt) of the discretized g/(s+g); rejects g, dt <= 0 or NaN and g*dt >= 1."""
    if not (g > 0.0 and dt > 0.0):
        raise ValueError(f"g and dt must be > 0, got g={g}, dt={dt}")
    if not g * dt < 1.0:
        raise ValueError(f"g*dt = {g * dt:g} >= 1: cutoff too fast for this sample time")
    return math.exp(-g * dt)


class FirstOrderLpf:
    """First-order low-pass g/(s+g), discretized with pole exp(-g*dt)."""

    def __init__(self, g: float, dt: float, y0: float = 0.0):
        self._c = lpf_pole(g, dt)
        self.g = g
        self.dt = dt
        self.y = y0

    def step(self, u: float) -> float:
        self.y = self._c * self.y + (1.0 - self._c) * u
        return self.y

    def retune(self, g: float) -> None:
        """Change the cutoff without disturbing the filter state."""
        self._c = lpf_pole(g, self.dt)
        self.g = g

    def freq_response(self, omega: np.ndarray) -> np.ndarray:
        """Discrete frequency response at angular frequencies omega (rad/s)."""
        z = np.exp(1j * np.asarray(omega, dtype=float) * self.dt)
        return (1.0 - self._c) * z / (z - self._c)


class DisturbanceObserver:
    """Velocity-form observer: F_hat = LPF(K_F*i_m + g*M*xdot - F_fric(xdot) - F_d) - g*M*xdot.

    As the DOB (nominal M_mn, K_Fn, friction=None, F_d = 0) F_hat is the lumped
    disturbance and the compensation current is F_hat / K_Fn.  As the RFOB
    (identified M_hat, K_F_hat, friction and F_d_hat) F_hat is the load force.
    The cutoff g is read from the filter, `lpf.g`.
    """

    def __init__(self, M: float, K_F: float, g: float, dt: float,
                 friction: FrictionParams | None = None, F_d: float = 0.0):
        self.lpf = FirstOrderLpf(g, dt)
        self.M = M
        self.K_F = K_F
        self.friction = friction
        self.F_d = F_d
        self.F_hat = 0.0

    def step(self, i_m_total: float, xdot: float) -> float:
        lpf = self.lpf
        gm = lpf.g * self.M
        u = self.K_F * i_m_total + gm * xdot
        if self.friction is not None:
            u -= friction_force(xdot, self.friction)
        self.F_hat = lpf.step(u - self.F_d) - gm * xdot
        return self.F_hat

    def retune(self, g: float, xdot: float = 0.0) -> None:
        """Change the observer cutoff in place with a bumpless output.

        The output is lpf_state - g*M*xdot, so the state is shifted by
        (g_new - g_old)*M*xdot to keep the estimate continuous across the
        cutoff change.
        """
        g_old = self.lpf.g
        self.lpf.retune(g)
        self.lpf.y += (g - g_old) * self.M * xdot


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


def sensitivity_second_order_params(alpha: float, kappa: float, g_dob: float) -> tuple[float, float]:
    """Natural frequency and damping of the sensitivity characteristic polynomial.

    With g_v = kappa * g_dob the inner loop denominator is
    s^2 + kappa*g*s + alpha*kappa*g^2, i.e. w_n = sqrt(alpha*kappa)*g and
    xi = 0.5*sqrt(kappa/alpha).
    """
    if alpha <= 0.0 or kappa <= 0.0 or g_dob <= 0.0:
        raise ValueError("alpha, kappa and g_dob must all be > 0")
    w_n = math.sqrt(alpha * kappa) * g_dob
    xi = 0.5 * math.sqrt(kappa / alpha)
    return w_n, xi


@dataclass(frozen=True)
class BoundCheck:
    """Result of the observer bandwidth bound alpha*g_dob <= g_v/2."""

    passed: bool
    margin: float
    alpha_g: float
    limit: float


def robustness_bound_check(alpha: float, g_dob: float, g_v: float) -> BoundCheck:
    """Check the sensitivity-peak bound alpha*g_dob <= g_v/2 (margin = g_v/2 - alpha*g_dob)."""
    if alpha <= 0.0 or g_dob <= 0.0 or g_v <= 0.0:
        raise ValueError("alpha, g_dob and g_v must all be > 0")
    alpha_g = alpha * g_dob
    limit = 0.5 * g_v
    margin = limit - alpha_g
    return BoundCheck(passed=alpha_g <= limit, margin=margin, alpha_g=alpha_g, limit=limit)


@dataclass(frozen=True)
class SensitivityResponse:
    """Complex sensitivity / co-sensitivity samples on a frequency grid."""

    omega: np.ndarray
    t_sen: np.ndarray
    t_cosen: np.ndarray

    @property
    def mag_sen(self) -> np.ndarray:
        return np.abs(self.t_sen)

    @property
    def mag_cosen(self) -> np.ndarray:
        return np.abs(self.t_cosen)


def sensitivity_response(alpha: float, kappa: float, g_dob: float, omega: np.ndarray) -> SensitivityResponse:
    """Evaluate the inner-loop sensitivity pair with g_v = kappa*g_dob.

    T_sen = s(s + kappa*g) / (s^2 + kappa*g*s + alpha*kappa*g^2) and
    T_cosen = alpha*kappa*g^2 / (same denominator); they sum to 1 identically.
    """
    w = np.asarray(omega, dtype=float)
    if np.any(w <= 0.0):
        raise ValueError("omega grid must be strictly positive")
    s = 1j * w
    kg = kappa * g_dob
    den = s * s + kg * s + alpha * kg * g_dob
    t_sen = s * (s + kg) / den
    t_cosen = (alpha * kg * g_dob) / den
    return SensitivityResponse(omega=w, t_sen=t_sen, t_cosen=t_cosen)

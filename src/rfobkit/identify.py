"""Recursive least-squares identification of plant and environment parameters.

Plant parameters (mass, viscous/Coulomb friction, constant disturbance) are
identified from non-contact motion; environmental impedance (damping,
stiffness, offset) from contact motion.  The two estimators are mutually
exclusive, gated by a hysteresis contact detector, and every estimate is
box-projected so it cannot leave its configured convex set.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from enum import Enum

import numpy as np

from .observers import lpf_pole
from .plant import smooth_sign


class ContactMode(Enum):
    NON_CONTACT = "non_contact"
    TRANSITION = "transition"
    CONTACT = "contact"


class RlmsEstimator:
    """Recursive least-squares with forgetting factor and box projection.

    One update, with r = Gamma rho and k = r / (mu + rho' r):
        delta    = clip(delta + k (u - rho' delta), bounds)
        Gamma_ij = ((Gamma_ij - k_i r_j)/mu + (Gamma_ji - k_j r_i)/mu) / 2

    The estimate has 3 or 4 components in the simulator, where numpy's
    per-call overhead would outweigh the arithmetic, so the state is plain
    Python floats.  Written as loops, the update would spend most of its time
    in the interpreter rather than in the arithmetic, so it runs as one
    straight-line function per estimate dimension n, generated and compiled
    on the first update of that n (see `_rlms_kernel`).  The generated code
    must keep the operations and their order: every inner product is summed
    left to right from 0.0 (never with `sum()`, which compensates its float
    sums from Python 3.12 on), the terms of Gamma_ij are formed as written
    above, reading Gamma_ji from the lower triangle, and the clip reads
    `lo if v < lo else hi if v > hi else v`.  The loop form it replaced is
    kept in the tests as a bit-for-bit reference.

    The averaged form keeps Gamma exactly symmetric.  Every `pd_check_period`
    steps a Cholesky factorisation checks that Gamma is still positive
    definite; if rounding has broken that, Gamma is reset to the configured
    initial diagonal and `reset_count` is incremented, so the estimator stays
    alive.

    `delta` and `Gamma` read as new numpy arrays: writing into them leaves
    the estimator unchanged.  `values` is the estimate as a tuple of floats.
    """

    def __init__(
        self,
        delta0: np.ndarray,
        bounds_min: np.ndarray,
        bounds_max: np.ndarray,
        gamma0: float | np.ndarray = 1e4,
        mu: float = 0.999,
        pd_check_period: int = 50,
    ):
        delta = np.array(delta0, dtype=float)
        lo = np.array(bounds_min, dtype=float)
        hi = np.array(bounds_max, dtype=float)
        if delta.ndim != 1 or delta.size == 0:
            raise ValueError("the initial estimate must be a non-empty vector")
        if lo.shape != delta.shape or hi.shape != delta.shape:
            raise ValueError("bounds must match the estimate dimension")
        if not np.all(lo <= hi):
            raise ValueError("bounds_min must be <= bounds_max componentwise")
        if not (np.all(lo <= delta) and np.all(delta <= hi)):
            raise ValueError("initial estimate lies outside the projection box")
        if not (0.0 < mu <= 1.0):
            raise ValueError(f"forgetting factor mu must be in (0, 1], got {mu}")
        self.n = delta.size
        self.mu = float(mu)
        gamma0_diag = np.broadcast_to(np.asarray(gamma0, dtype=float), delta.shape)
        if not np.all(gamma0_diag > 0.0):
            raise ValueError("gamma0 must be positive")
        self._delta = delta.tolist()
        self._lo = lo.tolist()
        self._hi = hi.tolist()
        self._gamma0_diag = gamma0_diag.tolist()
        self._G = self._initial_gamma()
        self._pd_check_period = max(1, pd_check_period)
        self._steps = 0
        self.reset_count = 0

    def _initial_gamma(self) -> list[list[float]]:
        n = self.n
        return [[g if i == j else 0.0 for j in range(n)] for i, g in enumerate(self._gamma0_diag)]

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(self._delta)

    @property
    def delta(self) -> np.ndarray:
        return np.array(self._delta)

    @property
    def Gamma(self) -> np.ndarray:
        return np.array(self._G)

    def update(self, rho: Sequence[float] | np.ndarray, u: float) -> float:
        """One recursion step; returns the prediction error u - rho' delta."""
        n = self.n
        if isinstance(rho, np.ndarray):
            if rho.shape != (n,):
                raise ValueError(f"regressor shape {rho.shape} != estimate dimension ({n},)")
            rho = rho.tolist()
        elif len(rho) != n:
            raise ValueError(f"regressor length {len(rho)} != estimate dimension {n}")
        u = float(u)
        if not (math.isfinite(u) and all(map(math.isfinite, rho))):
            raise ValueError("non-finite regressor or measurement")
        self._G, self._delta, innovation = _rlms_kernel(n)(
            self._G, rho, self._delta, self._lo, self._hi, u, self.mu)
        self._steps += 1
        if self._steps % self._pd_check_period == 0:
            self._guard_positive_definite()
        return innovation

    def _guard_positive_definite(self) -> None:
        G = self.Gamma
        if np.all(np.isfinite(G)) and np.all(np.diag(G) > 0.0):
            try:
                np.linalg.cholesky(G)
                return
            except np.linalg.LinAlgError:
                pass
        self._G = self._initial_gamma()
        self.reset_count += 1

    def covariance_contraction(self) -> np.ndarray:
        """Eigenvalues of Gamma divided by the initial diagonal scale (identifiability probe)."""
        eig = np.linalg.eigvalsh(self.Gamma)
        return eig / max(self._gamma0_diag)


@functools.cache
def _rlms_kernel(n: int):
    """The straight-line RLS update for estimate dimension n >= 1, compiled on first use.

    `kernel(G, rho, d, lo, hi, u, mu)` returns the new Gamma rows, the new
    estimate and the innovation; RlmsEstimator states the operations it keeps.
    """
    ix = range(n)

    def names(prefix: str) -> str:
        return "".join(f"{prefix}{i}, " for i in ix)

    def dot(a: str, b: str) -> str:  # summed left to right from 0.0
        return " + ".join(["0.0"] + [f"{a}{j} * {b}{j}" for j in ix])

    lines = ["".join(f"({names(f'G{i}_')}), " for i in ix) + "= G"]
    lines += [f"{names(v)}= {v}" for v in ("rho", "d", "lo", "hi")]
    lines += [f"r{i} = {dot(f'G{i}_', 'rho')}" for i in ix]
    lines += [f"denom = mu + ({dot('rho', 'r')})", f"innovation = u - ({dot('rho', 'd')})"]
    for i in ix:
        lines += [f"k{i} = r{i} / denom",
                  f"v{i} = d{i} + k{i} * innovation",
                  f"d{i} = lo{i} if v{i} < lo{i} else hi{i} if v{i} > hi{i} else v{i}"]
    lines += [f"g{i}_{j} = ((G{i}_{j} - k{i} * r{j}) / mu + (G{j}_{i} - k{j} * r{i}) / mu) * 0.5"
              for i in ix for j in ix if j >= i]
    rows = ", ".join("[" + ", ".join(f"g{min(i, j)}_{max(i, j)}" for j in ix) + "]" for i in ix)
    lines.append(f"return [{rows}], [{names('d')}], innovation")
    namespace: dict = {}
    source = "def kernel(G, rho, d, lo, hi, u, mu):\n    " + "\n    ".join(lines)
    exec(compile(source, f"<rlms update n={n}>", "exec"), namespace)
    return namespace["kernel"]


class NonContactRegressorBank:
    """Produces filtered, time-aligned non-contact regressors from raw loop signals.

    The regression is u = M_mn*xddot_des + F_dis_hat against
    [xddot, xdot, zeta(xdot), 1]: with delta = [M_m, k_vsc, k_clmb, F_d] it
    is the motor force balance when no external load acts.

    Every channel (measurement and regressor columns) passes through the same
    first-order low-pass so the regression equality is preserved exactly; the
    acceleration column is the backward difference of the filtered velocity,
    i.e. a filtered differentiation, which avoids needing an accelerometer.
    The emitted pair is delayed by one sample to keep all columns aligned.
    """

    def __init__(self, g_filter: float, dt: float, M_mn: float, eps: float):
        self._c = lpf_pole(g_filter, dt)
        self.dt = dt
        self.M_mn = M_mn
        self.eps = eps
        self._f = (0.0, 0.0, 0.0, 0.0)  # filtered [u, xdot, zeta, 1]
        self._warm = 0

    def step(self, xddot_des: float, F_dis_hat: float, xdot: float) -> tuple[float, tuple[float, ...]] | None:
        c = self._c
        b = 1.0 - c
        f_u, f_v, f_z, f_1 = self._f
        u_raw = self.M_mn * xddot_des + F_dis_hat
        new_v = c * f_v + b * xdot
        out = None
        if self._warm >= 2:
            out = (f_u, ((new_v - f_v) / self.dt, f_v, f_z, f_1))
        self._f = (c * f_u + b * u_raw, new_v, c * f_z + b * smooth_sign(xdot, self.eps), c * f_1 + b)
        self._warm += 1
        return out

    def reset(self) -> None:
        self._f = (0.0, 0.0, 0.0, 0.0)
        self._warm = 0


class ContactRegressorBank:
    """Filters the contact regressor columns with the observer's own low-pass.

    The regression is u = F_load_hat against [xdot, x, 1]; with
    delta = [D_env, K_env, offset] the constant column absorbs
    -(D_env*xdot_env + K_env*x_env).  The measured load estimate is already a
    low-passed version of the true contact force, so running the columns
    through the matching filter keeps the regression consistent.
    """

    def __init__(self, g_filter: float, dt: float):
        self._c = lpf_pole(g_filter, dt)
        self.dt = dt
        self._f = (0.0, 0.0, 0.0)  # filtered [xdot, x, 1]

    def step(self, F_load_hat: float, xdot: float, x: float) -> tuple[float, tuple[float, float, float]]:
        c = self._c
        b = 1.0 - c
        f_v, f_x, f_1 = self._f
        self._f = (c * f_v + b * xdot, c * f_x + b * x, c * f_1 + b)
        return F_load_hat, self._f

    def retune(self, g_filter: float) -> None:
        """Track an observer cutoff change; the filter state carries over."""
        self._c = lpf_pole(g_filter, self.dt)


class ContactDetector:
    """Hysteresis + dwell classifier over the estimated load force.

    NON_CONTACT -> TRANSITION once |F| > threshold_on; TRANSITION -> CONTACT
    after `dwell` consecutive steps; CONTACT (or TRANSITION) -> NON_CONTACT
    after `dwell` consecutive steps with |F| < threshold_off.
    """

    def __init__(self, threshold_on: float, threshold_off: float, dwell: int = 20):
        if not (threshold_on > threshold_off >= 0.0):
            raise ValueError(f"need threshold_on > threshold_off >= 0, got on={threshold_on}, off={threshold_off}")
        if dwell < 1:
            raise ValueError(f"dwell must be >= 1, got {dwell}")
        self.threshold_on = threshold_on
        self.threshold_off = threshold_off
        self.dwell = dwell
        self.mode = ContactMode.NON_CONTACT
        self._count = 0
        self._release = 0

    def update(self, F_load_hat: float) -> ContactMode:
        # _release is 0 whenever the mode is NON_CONTACT; _count is read only in TRANSITION
        f = abs(F_load_hat)
        mode = self.mode
        if mode is ContactMode.NON_CONTACT:
            if f > self.threshold_on:
                self.mode = ContactMode.TRANSITION
                self._count = 1
        elif f < self.threshold_off:  # TRANSITION or CONTACT: count towards release
            self._release += 1
            if self._release >= self.dwell:
                self.mode = ContactMode.NON_CONTACT
                self._release = 0
        else:
            self._release = 0
            if mode is ContactMode.TRANSITION:
                self._count += 1
                if self._count >= self.dwell:
                    self.mode = ContactMode.CONTACT
        return self.mode

"""Fixed-step closed-loop simulation: plant, observer inner loop, force outer loop.

One step runs, in order: sensor read (plus optional velocity noise), velocity
filter, phase controller, observer compensation current, exact observer filter
updates, semi-implicit Euler plant integration, contact detection, mode-gated
estimator updates, and the periodic adaptive re-design.  Everything is
deterministic for a fixed scenario and seed.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from enum import Enum

import numpy as np

from .design import DesignSpecA, DesignSpecB, DesignSpecC, InfeasibleDesignError, design_for_env, split_alpha_g
from .identify import (
    ContactDetector,
    ContactMode,
    ContactRegressorBank,
    NonContactRegressorBank,
    RlmsEstimator,
)
from .observers import DisturbanceObserver, DobConfig, FirstOrderLpf, RatioReport, RfobConfig
from .plant import EnvImpedance, FrictionParams, PlantParams, PlantState, check_sign, contact_force, plant_accel


class ControlMode(Enum):
    FORCE = "force"
    POSITION = "position"


class AdaptationMode(Enum):
    OFF = "off"
    ONLINE = "online"
    OFFLINE = "offline"


@dataclass(frozen=True)
class Reference:
    """Scalar reference signal for one phase.

    kind 'const': value.  kind 'sine': offset + amp*sin(2*pi*freq_hz*t + phase).
    kind 'multisine': offset + sum of components (amp, freq_hz, phase).
    kind 'ramp': linear from start to end over `duration`; the simulator
    sets `duration` to that of the phase the reference drives.
    """

    kind: str = "const"
    value: float = 0.0
    offset: float = 0.0
    amp: float = 0.0
    freq_hz: float = 0.0
    phase: float = 0.0
    components: tuple[tuple[float, float, float], ...] = ()
    start: float = 0.0
    end: float = 0.0
    duration: float = 1.0

    def __call__(self, t: float) -> float:
        if self.kind == "const":
            return self.value
        if self.kind == "sine":
            return self.offset + self.amp * math.sin(2.0 * math.pi * self.freq_hz * t + self.phase)
        if self.kind == "multisine":
            out = self.offset
            for amp, freq, ph in self.components:
                out += amp * math.sin(2.0 * math.pi * freq * t + ph)
            return out
        if self.kind == "ramp":
            frac = min(max(t / self.duration, 0.0), 1.0)
            return self.start + (self.end - self.start) * frac
        raise ValueError(f"unknown reference kind {self.kind!r}")


@dataclass(frozen=True)
class Phase:
    """One contiguous segment of the schedule.

    contact_hint scripts every step's contact mode; None leaves it to the
    detector.  Only CONTACT updates the environment estimator and only
    NON_CONTACT the plant estimator, so a scripted TRANSITION records 1 and
    runs neither.  The identified plant folds into the RFOB as a scripted
    NON_CONTACT phase ends.
    """

    mode: ControlMode
    duration: float
    reference: Reference
    contact_hint: ContactMode | None = None
    F_d_override: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.duration < math.inf:
            raise ValueError(f"phase duration must be finite and >= 0, got {self.duration}")


@dataclass(frozen=True)
class AdaptationConfig:
    """Re-design policy applied while the loop runs.

    Online re-design fires at most every period_steps while in contact, and
    only when the identified impedance has moved past the deadband since the
    last applied design; retuning the observers mid-run perturbs the estimate
    channel, so gain churn feeds back into the estimator if left unchecked.
    """

    mode: AdaptationMode = AdaptationMode.OFF
    period_steps: int = 100
    design_alpha: float = 1.0
    deadband: float = 0.05
    spec_a: DesignSpecA = field(default_factory=DesignSpecA)
    spec_b: DesignSpecB = field(default_factory=DesignSpecB)
    spec_c: DesignSpecC = field(default_factory=DesignSpecC)

    def __post_init__(self) -> None:
        if self.period_steps < 1:
            raise ValueError("period_steps must be >= 1")
        if not self.design_alpha > 0.0:
            raise ValueError("design_alpha must be > 0")
        if not self.deadband >= 0.0:
            raise ValueError("deadband must be >= 0")


@dataclass(frozen=True)
class IdentConfig:
    """Estimator wiring: which estimators run and their tuning."""

    enable_plant: bool = False
    enable_env: bool = False
    mu_nc: float = 0.999
    mu_c: float = 0.999
    gamma0_nc: float = 1e4
    gamma0_c: float = 1e4
    delta0_nc: tuple[float, float, float, float] = (1.0, 0.0, 0.0, 0.0)
    delta0_c: tuple[float, float, float] = (1.0, 1000.0, 0.0)
    bounds_nc_min: tuple[float, float, float, float] = (0.05, 0.0, 0.0, -100.0)
    bounds_nc_max: tuple[float, float, float, float] = (50.0, 200.0, 100.0, 100.0)
    bounds_c_min: tuple[float, float, float] = (0.0, 1.0, -100.0)
    bounds_c_max: tuple[float, float, float] = (1000.0, 1e6, 100.0)
    threshold_on: float = 0.5
    threshold_off: float = 0.2
    dwell: int = 20
    g_filter_nc: float | None = None  # defaults to the velocity-filter cutoff
    apply_to_rfob: bool = True

    def __post_init__(self) -> None:
        for name, n in (("delta0_nc", 4), ("bounds_nc_min", 4), ("bounds_nc_max", 4),
                        ("delta0_c", 3), ("bounds_c_min", 3), ("bounds_c_max", 3)):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} needs {n} values, got {len(getattr(self, name))}")
        if self.g_filter_nc is not None and not self.g_filter_nc > 0.0:
            raise ValueError(f"g_filter_nc must be > 0, got {self.g_filter_nc}")
        self.build_estimators()  # the detector and the estimators check the rest of the settings

    def build_estimators(self) -> tuple[ContactDetector, RlmsEstimator | None, RlmsEstimator | None]:
        """The contact detector and the enabled non-contact and contact estimators (None if off)."""
        return (
            ContactDetector(self.threshold_on, self.threshold_off, self.dwell),
            RlmsEstimator(self.delta0_nc, self.bounds_nc_min, self.bounds_nc_max, self.gamma0_nc, self.mu_nc)
            if self.enable_plant else None,
            RlmsEstimator(self.delta0_c, self.bounds_c_min, self.bounds_c_max, self.gamma0_c, self.mu_c)
            if self.enable_env else None,
        )

    def g_nc(self, g_v: float) -> float:
        """Cutoff of the non-contact regressor filters."""
        return self.g_filter_nc if self.g_filter_nc is not None else g_v


@dataclass(frozen=True)
class Scenario:
    """Complete description of one simulation run."""

    plant: PlantParams
    friction: FrictionParams
    env: EnvImpedance
    dob: DobConfig
    rfob: RfobConfig
    phases: tuple[Phase, ...]
    dt: float
    C_f: float = 1.0
    K_P: float = 1200.0
    K_V: float = 90.0
    always_in_contact: bool = False
    velocity_filter_on: bool = True
    noise_std: float = 0.0
    seed: int = 0
    adaptation: AdaptationConfig = field(default_factory=AdaptationConfig)
    ident: IdentConfig = field(default_factory=IdentConfig)
    x0: float = 0.0
    v0: float = 0.0
    x_limit: float = 100.0
    v_limit: float = 1e4
    dist_limit: float = 1e6

    def __post_init__(self) -> None:
        if not self.dt > 0.0:
            raise ValueError("dt must be > 0")
        cutoffs = [self.dob.g_dob, self.rfob.g_rfob]
        if self.velocity_filter_on:
            cutoffs.append(self.dob.g_v)
        if not max(cutoffs) * self.dt < 0.5:
            raise ValueError(f"dt*max(filter cutoff) = {max(cutoffs) * self.dt:g} >= 0.5")
        if not self.C_f > 0.0 and any(p.mode is ControlMode.FORCE for p in self.phases):
            raise ValueError("C_f must be > 0 when a force phase is scheduled")
        if not self.noise_std >= 0.0:
            raise ValueError("noise_std must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # a NaN limit would never trip divergence detection, and one <= 0 would trip it at step 0
        check_sign(self, ">", "x_limit", "v_limit", "dist_limit")
        for i, p in enumerate(self.phases, 1):
            steps = p.duration / self.dt
            if abs(steps - round(steps)) > 1e-6:
                raise ValueError(f"phase {i} ({p.mode.value}): duration {p.duration:g} s is {steps:.6g} steps "
                                 f"of dt = {self.dt:g} s; it must be a whole number of steps")
        g_nc = self.ident.g_nc(self.dob.g_v)
        if self.ident.enable_plant and g_nc * self.dt >= 1.0:
            raise ValueError(f"dt*g_filter_nc = {g_nc * self.dt:g} >= 1")

    @property
    def duration(self) -> float:
        return sum(p.duration for p in self.phases)


@dataclass
class DesignEvent:
    """One applied (or rejected) re-design."""

    t: float
    applied: bool
    alpha_g: float
    C_f: float
    g: float
    note: str = ""


# the codes the ctrl_mode and contact_mode columns record, and the names the CSV prints for them
_CTRL_CODE = {mode: code for code, mode in enumerate(ControlMode)}
CTRL_MODE_NAMES = tuple(mode.value for mode in ControlMode)
CONTACT_MODE_NAMES = tuple(mode.name.lower() for mode in ContactMode)

TIMESERIES_COLUMNS = (
    "t_s",
    "x_m_m",
    "xdot_m_mps",
    "xddot_des_mps2",
    "i_m_A",
    "F_ref_N",
    "x_ref_m",
    "F_load_N",
    "F_hat_load_N",
    "F_hat_dis_N",
    "ctrl_mode",
    "contact_mode",
    "alpha_g_radps",
    "C_f",
    "delta_M_m_kg",
    "delta_k_vsc_Nspm",
    "delta_k_clmb_N",
    "delta_F_d_N",
    "innov_nc_N",
    "delta_D_env_Nspm",
    "delta_K_env_Npm",
    "delta_c_offset_N",
    "innov_c_N",
)


@dataclass
class PhaseSummary:
    mode: str
    t_start: float
    t_end: float
    ss_error: float
    settling_time: float
    max_rfob_error: float


@dataclass
class SimResult:
    """Recorded time series plus the run summary."""

    ts: dict[str, np.ndarray]
    n_steps: int
    diverged: bool
    diverged_step: int | None
    phase_summaries: list[PhaseSummary]
    design_events: list[DesignEvent]
    final_delta_nc: np.ndarray | None
    final_delta_c: np.ndarray | None
    unidentifiable_nc: bool
    unidentifiable_c: bool

    def summary_dict(self) -> dict:
        return {
            "n_steps": self.n_steps,
            "diverged": self.diverged,
            "diverged_step": self.diverged_step,
            "phases": [asdict(p) for p in self.phase_summaries],
            "design_events": [asdict(e) for e in self.design_events],
            "final_delta_nc": None if self.final_delta_nc is None else [float(v) for v in self.final_delta_nc],
            "final_delta_c": None if self.final_delta_c is None else [float(v) for v in self.final_delta_c],
            "unidentifiable_nc": self.unidentifiable_nc,
            "unidentifiable_c": self.unidentifiable_c,
        }


class Simulator:
    """Owns all mutable loop state for one scenario run."""

    def __init__(self, scenario: Scenario):
        self.sc = scenario
        self.dt = scenario.dt
        self.state = PlantState(x_m=scenario.x0, xdot_m=scenario.v0)
        dob, rfob = scenario.dob, scenario.rfob
        self.dob = DisturbanceObserver(dob.M_mn, dob.K_Fn, dob.g_dob, self.dt)
        self.rfob = DisturbanceObserver(rfob.M_hat, rfob.K_F_hat, rfob.g_rfob, self.dt, rfob.friction, rfob.F_d_hat)
        self.vel_filter = FirstOrderLpf(dob.g_v, self.dt) if scenario.velocity_filter_on else None
        self.C_f = scenario.C_f
        self.alpha_true = RatioReport.from_configs(scenario.plant, dob, rfob).alpha
        self._mn_over_kfn = scenario.dob.M_mn / scenario.dob.K_Fn
        self.rng = np.random.default_rng(scenario.seed)
        self.design_events: list[DesignEvent] = []

        ident = scenario.ident
        self.detector, self.est_nc, self.est_c = ident.build_estimators()
        self.bank_nc = NonContactRegressorBank(ident.g_nc(scenario.dob.g_v), self.dt, scenario.dob.M_mn,
                                               scenario.friction.eps) if ident.enable_plant else None
        self.bank_c = ContactRegressorBank(self.rfob.lpf) if ident.enable_env else None

        # measurement available at t_0
        self._xdot_meas = scenario.v0 + (
            self.rng.standard_normal() * scenario.noise_std if scenario.noise_std > 0.0 else 0.0
        )
        self._xdot_f = self.vel_filter.y if self.vel_filter is not None else self._xdot_meas

        if scenario.adaptation.mode is AdaptationMode.OFFLINE:
            self._apply_design(0.0, scenario.env, scenario.rfob.M_hat)

        # phase schedule in steps
        self.n_steps = int(round(scenario.duration / self.dt))
        bounds = [0]
        acc = 0.0
        for p in scenario.phases:
            acc += p.duration
            bounds.append(int(round(acc / self.dt)))
        self._phase_bounds = bounds
        self._phase_idx = 0
        self._next_bound = 0  # the first step enters the schedule
        self._bank_nc_last_k = -10
        self._last_design_env: tuple[float, float] | None = None

        self._alloc(self.n_steps)
        self._k = 0
        self.diverged = False
        self.diverged_step: int | None = None

    # ------------------------------------------------------------------
    def _alloc(self, n: int) -> None:
        self.ts = {name: np.zeros(n) for name in TIMESERIES_COLUMNS if name not in ("ctrl_mode", "contact_mode")}
        self.ts["ctrl_mode"] = np.zeros(n, dtype=np.int8)
        self.ts["contact_mode"] = np.zeros(n, dtype=np.int8)
        for name in ("F_ref_N", "x_ref_m", "innov_nc_N", "innov_c_N"):
            self.ts[name].fill(np.nan)
        if self.est_nc is None:
            for name in ("delta_M_m_kg", "delta_k_vsc_Nspm", "delta_k_clmb_N", "delta_F_d_N"):
                self.ts[name].fill(np.nan)
        if self.est_c is None:
            for name in ("delta_D_env_Nspm", "delta_K_env_Npm", "delta_c_offset_N"):
                self.ts[name].fill(np.nan)
        # step() records through these views: a memoryview store costs about
        # half as much as a numpy scalar store
        self._columns = tuple(memoryview(self.ts[name]) for name in TIMESERIES_COLUMNS)

    def _enter_phase(self, k: int) -> None:
        """Advance the schedule to step k and cache what step() reads of the current phase."""
        bounds = self._phase_bounds
        while self._phase_idx + 1 < len(bounds) - 1 and k >= bounds[self._phase_idx + 1]:
            self._phase_idx += 1
            self._on_phase_start(self._phase_idx)
        i = self._phase_idx
        phase = self.sc.phases[i]
        self._phase = phase
        self._phase_t0 = bounds[i] * self.dt
        self._next_bound = bounds[i + 1] if i + 2 < len(bounds) else math.inf
        ref = phase.reference
        self._reference = replace(ref, duration=phase.duration) if ref.kind == "ramp" else ref
        self._ctrl_code = _CTRL_CODE[phase.mode]

    def _on_phase_start(self, idx: int) -> None:
        """The schedule has advanced from phase idx - 1 to phase idx (idx >= 1)."""
        if (self.sc.phases[idx - 1].contact_hint is ContactMode.NON_CONTACT
                and self.sc.ident.apply_to_rfob and self.est_nc is not None):
            # fold the identified plant model into the reaction force observer
            d = self.est_nc.values
            rfob = self.rfob
            rfob.M = max(d[0], 1e-6)
            rfob.friction = FrictionParams(k_vsc=max(d[1], 0.0), k_clmb=max(d[2], 0.0), eps=rfob.friction.eps)
            rfob.F_d = d[3]

    def _outside_deadband(self, d_env: float, k_env: float) -> bool:
        if self._last_design_env is None:
            return True
        band = self.sc.adaptation.deadband
        d0, k0 = self._last_design_env
        return (
            abs(d_env - d0) > band * max(abs(d0), 1e-2)
            or abs(k_env - k0) > band * max(abs(k0), 1e-2)
        )

    def _apply_design(self, t: float, env: EnvImpedance, m_design: float) -> bool:
        """Design for `env` and retune the loop; returns whether the design was applied."""
        ad = self.sc.adaptation
        try:
            result = design_for_env(m_design, env, self.sc.dob.g_v, ad.spec_a, ad.spec_b, ad.spec_c)
            if not result.feasible:
                raise InfeasibleDesignError("design degenerate", "; ".join(result.notes))
            g = split_alpha_g(result, ad.design_alpha)
            if g * self.dt >= 0.5:
                raise InfeasibleDesignError("designed cutoff too fast for the sample time",
                                            f"g*dt = {g * self.dt:g}")
        except (InfeasibleDesignError, ValueError) as exc:
            self.design_events.append(
                DesignEvent(t=t, applied=False, alpha_g=float("nan"), C_f=self.C_f, g=float("nan"), note=str(exc))
            )
            return False
        # bumpless retune: filter states shift so the estimates stay continuous
        self.C_f = result.C_f
        self.dob.retune(g, self._xdot_f)
        self.rfob.retune(g, self._xdot_f)
        self.design_events.append(
            DesignEvent(t=t, applied=True, alpha_g=result.alpha_g, C_f=result.C_f, g=g)
        )
        return True

    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Advance one step; returns False once the run is over or diverged."""
        k = self._k
        if k >= self.n_steps or self.diverged:
            return False
        sc = self.sc
        dt = self.dt
        state = self.state
        t = k * dt
        if k >= self._next_bound:
            self._enter_phase(k)
        phase = self._phase
        t_local = t - self._phase_t0

        x = state.x_m
        xdot_meas = self._xdot_meas  # measurement taken at t_k
        xdot_f = self._xdot_f

        F_ref = math.nan
        x_ref = math.nan
        if phase.mode is ControlMode.FORCE:
            F_ref = self._reference(t_local)
            xddot_des = self.C_f * (F_ref - self.rfob.F_hat)
        else:
            x_ref = self._reference(t_local)
            xddot_des = sc.K_P * (x_ref - x) - sc.K_V * xdot_f

        F_dis_used = self.dob.F_hat
        i_m = self._mn_over_kfn * xddot_des + F_dis_used / sc.dob.K_Fn

        a = plant_accel(i_m, state, sc.plant, sc.friction, sc.env,
                        sc.always_in_contact, phase.F_d_override)
        xdot_new = state.xdot_m = state.xdot_m + a * dt
        x_new = state.x_m = x + xdot_new * dt

        # fresh measurement at t_{k+1}: observers integrate the interval just applied
        xdot_meas_new = xdot_new + (
            self.rng.standard_normal() * sc.noise_std if sc.noise_std > 0.0 else 0.0
        )
        xdot_f_new = self.vel_filter.step(xdot_meas_new) if self.vel_filter is not None else xdot_meas_new
        F_hat_dis = self.dob.step(i_m, xdot_f_new)
        F_hat_load = self.rfob.step(i_m, xdot_f_new)
        self._xdot_meas = xdot_meas_new
        self._xdot_f = xdot_f_new

        if (
            not state.is_finite()
            or abs(x_new) > sc.x_limit
            or abs(xdot_new) > sc.v_limit
            or abs(F_hat_load) > sc.dist_limit
        ):
            self.diverged = True
            self.diverged_step = k

        mode = phase.contact_hint
        if mode is None:
            mode = self.detector.update(F_hat_load)

        innov_nc = math.nan
        innov_c = math.nan
        est_nc = self.est_nc
        est_c = self.est_c
        if est_c is not None and not self.diverged:
            # the bank filter tracks the observer filter every step; only the
            # estimator update is gated by the contact mode
            u_c, rho_c = self.bank_c.step(F_hat_load, xdot_meas, x)
            if mode is ContactMode.CONTACT:
                innov_c = est_c.update(rho_c, u_c)
                if (
                    sc.adaptation.mode is AdaptationMode.ONLINE
                    and (k + 1) % sc.adaptation.period_steps == 0
                ):
                    d = est_c.values
                    d_env, k_env = max(d[0], 0.0), max(d[1], 0.0)
                    # a rejected design leaves the anchor alone, so the next period retries
                    if self._outside_deadband(d_env, k_env) and self._apply_design(
                        t, EnvImpedance(D_env=d_env, K_env=k_env), self.rfob.M
                    ):
                        self._last_design_env = (d_env, k_env)
        if mode is ContactMode.NON_CONTACT and est_nc is not None and not self.diverged:
            if self._bank_nc_last_k != k - 1:
                self.bank_nc.reset()  # gap in the fed samples: restart the filter history
            self._bank_nc_last_k = k
            emitted = self.bank_nc.step(xddot_des, F_dis_used, xdot_meas)
            if emitted is not None:
                innov_nc = est_nc.update(emitted[1], emitted[0])

        (c_t, c_x, c_xdot, c_xddot, c_i, c_F_ref, c_x_ref, c_F_load, c_F_hat_load, c_F_hat_dis,
         c_ctrl, c_contact, c_alpha_g, c_C_f, c_M, c_k_vsc, c_k_clmb, c_F_d, c_innov_nc,
         c_D_env, c_K_env, c_offset, c_innov_c) = self._columns
        c_t[k] = t + dt
        c_x[k] = x_new
        c_xdot[k] = xdot_new
        c_xddot[k] = xddot_des
        c_i[k] = i_m
        c_F_ref[k] = F_ref
        c_x_ref[k] = x_ref
        c_F_load[k] = contact_force(state, sc.env, sc.always_in_contact)
        c_F_hat_load[k] = F_hat_load
        c_F_hat_dis[k] = F_hat_dis
        c_ctrl[k] = self._ctrl_code
        c_contact[k] = mode
        c_alpha_g[k] = self.alpha_true * self.dob.lpf.g
        c_C_f[k] = self.C_f
        # update() replaces the estimate list, so reading it needs no copy
        if est_nc is not None:
            c_M[k], c_k_vsc[k], c_k_clmb[k], c_F_d[k] = est_nc._delta
            c_innov_nc[k] = innov_nc
        if est_c is not None:
            c_D_env[k], c_K_env[k], c_offset[k] = est_c._delta
            c_innov_c[k] = innov_c

        self._k = k + 1
        return not self.diverged and self._k < self.n_steps

    # ------------------------------------------------------------------
    def run(self) -> SimResult:
        while self.step():
            pass
        n = self._k
        ts = {name: arr[:n] for name, arr in self.ts.items()}
        phase_summaries = self._summarize_phases(ts)
        unident_nc = self._unidentifiable(self.est_nc)
        unident_c = self._unidentifiable(self.est_c)
        return SimResult(
            ts=ts,
            n_steps=n,
            diverged=self.diverged,
            diverged_step=self.diverged_step,
            phase_summaries=phase_summaries,
            design_events=self.design_events,
            final_delta_nc=None if self.est_nc is None else self.est_nc.delta,
            final_delta_c=None if self.est_c is None else self.est_c.delta,
            unidentifiable_nc=unident_nc,
            unidentifiable_c=unident_c,
        )

    @staticmethod
    def _unidentifiable(est: RlmsEstimator | None) -> bool:
        if est is None:
            return False
        return bool(np.any(est.covariance_contraction() > 0.5))

    def _summarize_phases(self, ts: dict[str, np.ndarray]) -> list[PhaseSummary]:
        out: list[PhaseSummary] = []
        n = self._k
        t = ts["t_s"]
        for i, phase in enumerate(self.sc.phases):
            k0 = self._phase_bounds[i]
            k1 = min(self._phase_bounds[i + 1], n)
            if k1 <= k0:
                continue
            if phase.mode is ControlMode.FORCE:
                err = np.abs(ts["F_hat_load_N"][k0:k1] - ts["F_ref_N"][k0:k1])
                ref_scale = max(np.nanmax(np.abs(ts["F_ref_N"][k0:k1])), 1e-12)
            else:
                err = np.abs(ts["x_m_m"][k0:k1] - ts["x_ref_m"][k0:k1])
                ref_scale = max(np.nanmax(np.abs(ts["x_ref_m"][k0:k1])), 1e-12)
            tail = max(1, int(0.2 * (k1 - k0)))
            ss_error = float(np.mean(err[-tail:]))
            outside = np.flatnonzero(~(err < 0.01 * ref_scale))
            j = 0 if outside.size == 0 else int(outside[-1]) + 1
            settle = float("nan") if j >= err.size else float(t[k0 + j] - k0 * self.dt)
            rfob_err = float(np.max(np.abs(ts["F_hat_load_N"][k0:k1] - ts["F_load_N"][k0:k1])))
            out.append(
                PhaseSummary(
                    mode=phase.mode.value,
                    t_start=k0 * self.dt,
                    t_end=k1 * self.dt,
                    ss_error=ss_error,
                    settling_time=settle,
                    max_rfob_error=rfob_err,
                )
            )
        return out


def run_scenario(scenario: Scenario) -> SimResult:
    """Build a simulator for the scenario and run it to completion."""
    return Simulator(scenario).run()

"""Fixed-step closed-loop simulation: plant, observer inner loop, force outer loop.

The step order lives in `Simulator._advance`, the one definition of each
stage, written out inline in its text `_ADVANCE`: phase controller, observer
compensation current, semi-implicit Euler plant integration, sensor read (plus
optional velocity noise), velocity filter, exact observer filter updates,
contact detection, mode-gated estimator updates, the record, and the periodic
adaptive re-design.  Between chunks the loop state lives in one dict,
`Simulator._loop`, keyed by `LOOP_STATE`; the observers are the scenario's
frozen records, which the run replaces to change them.  The velocity noise
comes from one seeded generator, built only for a run with noise: t_0's sample
is drawn on its own, and each chunk of steps draws its samples in one call
from the same stream, so the samples do not depend on where chunks end.
Everything is deterministic for a fixed scenario and seed.
"""
from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field, replace
from enum import Enum

import numpy as np

from .design import DesignSpec, InfeasibleDesignError, design_for_env, split_alpha_g
from .identify import ContactMode, RlmsEstimator, _compile_filled
from .observers import DobConfig, RatioReport, RfobConfig, lpf_pole
from .plant import EnvImpedance, FrictionParams, PlantParams


class ControlMode(Enum):
    FORCE = "force"
    POSITION = "position"


class AdaptationMode(Enum):
    OFF = "off"
    ONLINE = "online"
    OFFLINE = "offline"


@dataclass(frozen=True)
class Phase:
    """One contiguous segment of the schedule.

    The phase drives its force or position reference with tau counted from
    the phase start: offset, ramped linearly to ramp_end over the phase when
    ramp_end is set, plus the sum of amp*sin(2*pi*freq_hz*tau + phase_rad)
    over the waves (amp, freq_hz, phase_rad).

    contact_hint scripts every step's contact mode; None leaves it to the
    detector.  Only CONTACT updates the environment estimator and only
    NON_CONTACT the plant estimator, so a scripted TRANSITION records 1 and
    runs neither.  The identified plant folds into the RFOB as a scripted
    NON_CONTACT phase ends.
    """

    mode: ControlMode
    duration: float
    offset: float = 0.0
    waves: tuple[tuple[float, float, float], ...] = ()
    ramp_end: float | None = None
    contact_hint: ContactMode | None = None
    F_d_override: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.duration < math.inf:
            raise ValueError(f"phase duration must be finite and >= 0, got {self.duration}")
        if not all(isinstance(wave, (tuple, list)) and len(wave) == 3 for wave in self.waves):
            raise ValueError(f"each wave must be an (amp, freq_hz, phase_rad) triple, got waves = {self.waves}")
        span = 0.0 if self.ramp_end is None else self.ramp_end - self.offset  # inf * 0 would make a NaN reference
        values = (self.offset, *(v for wave in self.waves for v in wave), self.ramp_end or 0.0, span)
        if not all(map(math.isfinite, values)):
            raise ValueError(f"reference values must be finite, and ramp_end - offset too, got offset = {self.offset}, "
                             f"waves = {self.waves}, ramp_end = {self.ramp_end}")
        if not all(math.isfinite(abs(2.0 * math.pi * f) * self.duration + abs(ph)) for _, f, ph in self.waves):
            raise ValueError(f"each wave's sine argument, up to |2*pi*freq_hz|*duration + |phase_rad|, must be "
                             f"finite, got waves = {self.waves} over duration {self.duration}")
        if self.F_d_override is not None and not math.isfinite(self.F_d_override):
            raise ValueError(f"F_d_override must be finite, got {self.F_d_override}")


@dataclass(frozen=True)
class AdaptationConfig:
    """Re-design policy applied while the loop runs.

    Each re-design classifies the environment it designs for, designs that
    case with the choices in `spec` and splits alpha_g by `spec.alpha`.
    Online re-design fires at most every period_steps while in contact, and
    only when the identified impedance has moved past the deadband since the
    last applied design; retuning the observers mid-run perturbs the estimate
    channel, so gain churn feeds back into the estimator if left unchecked.
    """

    mode: AdaptationMode = AdaptationMode.OFF
    period_steps: int = 100
    deadband: float = 0.05
    spec: DesignSpec = field(default_factory=DesignSpec)

    def __post_init__(self) -> None:
        if self.period_steps < 1:
            raise ValueError("period_steps must be >= 1")
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
        if not (self.threshold_on > self.threshold_off >= 0.0):
            raise ValueError(f"need threshold_on > threshold_off >= 0, got on={self.threshold_on}, "
                             f"off={self.threshold_off}")
        if self.dwell < 1:
            raise ValueError(f"dwell must be >= 1, got {self.dwell}")
        self.build_estimators()  # the estimators check the rest of the settings

    def build_estimators(self) -> tuple[RlmsEstimator | None, RlmsEstimator | None]:
        """The enabled non-contact and contact estimators (None if off)."""
        return (
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
        for name in ("x0", "v0", "C_f", "K_P", "K_V"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 <= self.noise_std < math.inf:
            raise ValueError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("x_limit", "v_limit", "dist_limit"):  # NaN never trips divergence detection, <= 0 does at once
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        for i, p in enumerate(self.phases, 1):
            steps = p.duration / self.dt
            if not (math.isfinite(steps) and abs(steps - round(steps)) <= 1e-6):
                raise ValueError(f"phase {i} ({p.mode.value}): duration {p.duration:g} s is {steps:.6g} steps "
                                 f"of dt = {self.dt:g} s; it must be a finite, whole number of steps")
        if not self.duration / self.dt <= sys.maxsize:  # the recorded arrays hold one row per step
            raise ValueError(f"duration {self.duration:g} s is {self.duration / self.dt:.6g} steps of dt = "
                             f"{self.dt:g} s, more than an array can index ({sys.maxsize})")
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


# the locals the step loop carries from chunk to chunk, in the order Simulator._loop keys them: the plant state, the
# measured and filtered velocity, each observer's filter output and estimate, the contact detector, the contact
# regressor filters [xdot, x, 1], the last step fed to the free-motion filters [u, xdot, zeta, 1] and their count
LOOP_STATE = ("x", "v", "v_meas", "v_f", "y_d", "F_hat_dis", "y_r", "F_hat_load", "det_mode", "det_count",
              "det_release", "fv_c", "fx_c", "f1_c", "nc_last_k", "fu_nc", "fv_nc", "fz_nc", "f1_nc", "warm_nc")

# the most steps one chunk of Simulator._advance runs, so its noise buffer does not grow with the run
NOISE_BLOCK = 4096

# the codes the ctrl_mode and contact_mode columns record, and the names the CSV prints for them
_CTRL_CODE = {mode: code for code, mode in enumerate(ControlMode)}
# each control mode's reference column and the column of the output it tracks
_TRACKED = {ControlMode.FORCE: ("F_ref_N", "F_hat_load_N"), ControlMode.POSITION: ("x_ref_m", "x_m_m")}
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
# the columns `identify` writes: time, contact mode and the estimator states
TRACE_COLUMNS = ("t_s", "contact_mode") + TIMESERIES_COLUMNS[TIMESERIES_COLUMNS.index("delta_M_m_kg"):]


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
    """Recorded time series plus the run summary.  A column no step of the run writes is one shared
    read-only NaN view: copy it before writing into it.  A run given `on_window` keeps in `ts` only those
    views and the columns it held whole (see `Simulator`)."""

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
    """Owns all mutable loop state for one scenario run.

    The step loop records into one window of NOISE_BLOCK rows, the steps from a multiple of NOISE_BLOCK on, and
    hands each window, once full or at the run's end or divergence, to the phase summary, which keeps its RFOB-error
    maxima, and then to `on_window` as a dict of column arrays of the rows recorded.  Without `on_window` every
    written column is full-length and a window is a slice of each.  With it, only what the phase summary reads after
    the run stays full-length, the reference of each control mode in use and the output it tracks (`F_hat_load_N`
    or `x_m_m`); every other written column is one window buffer, which the next window overwrites, so `on_window`
    uses a window before it returns.  `rng`, the velocity-noise generator, is None in a run without noise, so such
    a run never imports `numpy.random`.  `dob` and `rfob` start as the scenario's records; the RFOB model fold
    (`_on_phase_start`) and a redesign's retune (`_apply_design`) each replace them with `dataclasses.replace`.
    """

    def __init__(self, scenario: Scenario, on_window=None):
        self.sc = scenario
        self._on_window = on_window
        self.dt = scenario.dt
        self.dob, self.rfob = scenario.dob, scenario.rfob
        self.C_f = scenario.C_f
        self.alpha_true = RatioReport.from_configs(scenario.plant, self.dob, self.rfob).alpha
        self.rng = np.random.default_rng(scenario.seed) if scenario.noise_std > 0.0 else None
        self.design_events: list[DesignEvent] = []

        self.est_nc, self.est_c = scenario.ident.build_estimators()
        v_meas = scenario.v0 + (self.rng.standard_normal() * scenario.noise_std if scenario.noise_std > 0.0 else 0.0)
        # the loop state at t_0 in LOOP_STATE's order, v_meas the measurement there; the free-motion filters were
        # last fed at step -10
        v_f = 0.0 if scenario.velocity_filter_on else v_meas
        self._loop = dict(zip(LOOP_STATE, (scenario.x0, scenario.v0, v_meas, v_f, 0.0, 0.0, 0.0, 0.0, 0, 0, 0, 0.0, 0.0,
                                           0.0, -10, 0.0, 0.0, 0.0, 0.0, 0)))

        if scenario.adaptation.mode is AdaptationMode.OFFLINE:
            self._apply_design(0.0, scenario.env.D_env, scenario.env.K_env, scenario.rfob.M_hat)

        # phase schedule in steps
        self.n_steps = int(round(scenario.duration / self.dt))
        bounds = [0]
        acc = 0.0
        for p in scenario.phases:
            acc += p.duration
            bounds.append(int(round(acc / self.dt)))
        self._phase_bounds = bounds
        self._phase_folds = [[] for _ in scenario.phases]  # per window: the largest RFOB error over the phase's rows
        self._phase_idx = 0
        self._next_bound = 0  # the first step enters the schedule
        self._last_design_env: tuple[float, float] | None = None

        self._alloc(self.n_steps)
        self._k = 0
        self.diverged = False
        self.diverged_step: int | None = None

    # ------------------------------------------------------------------
    def _alloc(self, n: int) -> None:
        # a column no step writes is one shared read-only NaN view, which holds no memory
        unwritten = {"F_ref_N", "x_ref_m"} - {_TRACKED[phase.mode][0] for phase in self.sc.phases}
        if self.est_nc is None:
            unwritten.update(("delta_M_m_kg", "delta_k_vsc_Nspm", "delta_k_clmb_N", "delta_F_d_N", "innov_nc_N"))
        if self.est_c is None:
            unwritten.update(("delta_D_env_Nspm", "delta_K_env_Npm", "delta_c_offset_N", "innov_c_N"))
        # the phase summary reads each reference in use and the output it tracks after the run, so those stay whole
        whole = {name for phase in self.sc.phases for name in _TRACKED[phase.mode]}
        nan = np.broadcast_to(np.nan, n)
        self.ts, self._buffers = {}, {}
        for name in TIMESERIES_COLUMNS:
            dtype = np.int8 if name.endswith("_mode") else float
            if name in unwritten:
                self.ts[name] = nan
            elif self._on_window is None or name in whole:
                self.ts[name] = np.zeros(n, dtype)
            else:
                self._buffers[name] = np.zeros(NOISE_BLOCK, dtype)
        for name in ({"F_ref_N", "x_ref_m", "innov_nc_N", "innov_c_N"} - unwritten) & self.ts.keys():
            self.ts[name].fill(np.nan)
        self._open_window(0)

    def _open_window(self, base: int) -> None:
        """Record the steps from `base` on: into slices of the full-length columns and into the window buffers,
        an innovation's refilled with NaN, since only a step that updates its estimator writes it."""
        self._base = base
        for name in {"innov_nc_N", "innov_c_N"} & self._buffers.keys():
            self._buffers[name].fill(np.nan)
        self._window = {name: self._buffers[name] if name in self._buffers else self.ts[name][base:base + NOISE_BLOCK]
                        for name in TIMESERIES_COLUMNS}
        # _advance records each step's varying cells through these views (a memoryview store costs about half
        # a numpy scalar store); t_s and the columns fixed over a chunk take one slice fill per chunk instead
        self._columns = tuple(memoryview(a) for a in self._window.values())

    def _flush(self, rows: int) -> None:
        """Hand the window's first `rows` rows to the phase summary and to `on_window`, then open the next window."""
        window = {name: a[:rows] for name, a in self._window.items()}
        self._summarize_window(self._base, window)
        if self._on_window is not None:
            self._on_window(window)
        self._open_window(self._base + rows)

    def _enter_phase(self, k: int) -> None:
        """Advance the schedule to step k, cache what _advance reads of the phase, and write its reference column.

        The other reference column keeps _alloc's NaN.  The fill runs NOISE_BLOCK steps at a time, so its
        temporaries stay small, and keeps the formula's IEEE operations in order: tau = k*dt - t0, offset + rise *
        (tau / duration), then + amp*sin(w*tau + ph) per wave with w = 2*pi*freq_hz and math.sin (numpy's SIMD sine
        need not match libm), so each value is the formula's in Python floats, an overflow included (a silent inf).
        """
        bounds = self._phase_bounds
        while self._phase_idx + 1 < len(bounds) - 1 and k >= bounds[self._phase_idx + 1]:
            self._phase_idx += 1
            self._on_phase_start(self._phase_idx)
        i = self._phase_idx
        self._phase = phase = self.sc.phases[i]
        self._next_bound = bounds[i + 1] if i + 2 < len(bounds) else math.inf
        self._ctrl_code = _CTRL_CODE[phase.mode]
        ref = self.ts[_TRACKED[phase.mode][0]]
        t0, b1, offset = bounds[i] * self.dt, bounds[i + 1], phase.offset
        with np.errstate(all="ignore"):
            for b0 in range(bounds[i], b1, NOISE_BLOCK):
                tau = np.arange(b0, min(b0 + NOISE_BLOCK, b1)) * self.dt - t0
                r = ref[b0:b0 + tau.size]
                r[:] = offset if phase.ramp_end is None else offset + (phase.ramp_end - offset) * (tau / phase.duration)
                for amp, freq_hz, ph in phase.waves:
                    r += amp * np.fromiter(map(math.sin, memoryview(2.0 * math.pi * freq_hz * tau + ph)), float, r.size)

    def _on_phase_start(self, idx: int) -> None:
        """The schedule has advanced from phase idx - 1 to phase idx (idx >= 1)."""
        if (self.sc.phases[idx - 1].contact_hint is ContactMode.NON_CONTACT
                and self.sc.ident.apply_to_rfob and self.est_nc is not None):
            # fold the identified plant model into the reaction force observer; a wound-up, non-finite estimate
            # leaves the RFOB's model as it is, and the run reports the directions unidentifiable
            d = self.est_nc.values
            if all(map(math.isfinite, d)):
                self.rfob = replace(self.rfob, M_hat=max(d[0], 1e-6), F_d_hat=d[3], friction=FrictionParams(
                    k_vsc=max(d[1], 0.0), k_clmb=max(d[2], 0.0), eps=self.rfob.friction.eps))

    def _outside_deadband(self, d_env: float, k_env: float) -> bool:
        if self._last_design_env is None:
            return True
        band = self.sc.adaptation.deadband
        d0, k0 = self._last_design_env
        return (
            abs(d_env - d0) > band * max(abs(d0), 1e-2)
            or abs(k_env - k0) > band * max(abs(k0), 1e-2)
        )

    def _apply_design(self, t: float, D_env: float, K_env: float, m_design: float) -> bool:
        """Design for the environment (D_env, K_env) and retune the loop; returns whether the design was applied."""
        spec, dob, rfob = self.sc.adaptation.spec, self.dob, self.rfob
        try:
            result = design_for_env(m_design, EnvImpedance(D_env=D_env, K_env=K_env), dob.g_v, spec)
            if not result.feasible:
                raise InfeasibleDesignError("design degenerate", "; ".join(result.notes))
            g = split_alpha_g(result, spec.alpha)
            if g * self.dt >= 0.5:
                raise InfeasibleDesignError("designed cutoff too fast for the sample time",
                                            f"g*dt = {g * self.dt:g}")
            self.dob, self.rfob = replace(dob, g_dob=g), replace(rfob, g_rfob=g)
        except (InfeasibleDesignError, ValueError) as exc:
            self.design_events.append(
                DesignEvent(t=t, applied=False, alpha_g=float("nan"), C_f=self.C_f, g=float("nan"), note=str(exc))
            )
            return False
        # bumpless retune: each estimate is y - g*M*v_f, so y shifts by (g - g_old)*M*v_f to keep it continuous
        self.C_f, loop = result.C_f, self._loop
        loop["y_d"] += (g - dob.g_dob) * dob.M_mn * loop["v_f"]
        loop["y_r"] += (g - rfob.g_rfob) * rfob.M_hat * loop["v_f"]
        self.design_events.append(
            DesignEvent(t=t, applied=True, alpha_g=result.alpha_g, C_f=result.C_f, g=g)
        )
        return True

    # ------------------------------------------------------------------
    def _advance(self, k_end: int) -> bool:
        # the first call compiles the step loop, _ADVANCE, and puts it in place of this method, once per process
        Simulator._advance = _compile_filled(_ADVANCE, "_advance", globals(), {"_c": len(IdentConfig.delta0_c),
                                                                             "_nc": len(IdentConfig.delta0_nc)})
        return self._advance(k_end)

    # ------------------------------------------------------------------
    def run(self) -> SimResult:
        self._advance(self.n_steps)
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
        # a Gamma wound up past the largest float has no eigenvalues to probe
        return not all(map(math.isfinite, est._state)) or bool(np.any(est.covariance_contraction() > 0.5))

    def _summarize_window(self, base: int, window: dict[str, np.ndarray]) -> None:
        """Fold the window of steps from `base` into each phase it covers: the largest RFOB error over the phase's
        rows in it, the one summary input that the columns held whole after the run cannot give."""
        bounds, end = self._phase_bounds, base + window["t_s"].size
        F_hat, F_load = window["F_hat_load_N"], window["F_load_N"]
        for i, rfob_maxes in enumerate(self._phase_folds):
            b0, b1 = max(bounds[i], base) - base, min(bounds[i + 1], end) - base
            if b0 < b1:
                rfob_maxes.append(np.max(np.abs(F_hat[b0:b1] - F_load[b0:b1])))

    def _summarize_phases(self, ts: dict[str, np.ndarray]) -> list[PhaseSummary]:
        """Per phase: the mean tracking error over its last 20%, the settling time into 1% of its largest reference
        and the largest RFOB error.  The RFOB error comes folded from the windows (`_summarize_window`).  The
        reference scale and the settling time run NOISE_BLOCK steps at a time over `ts`, which holds each reference
        in use and its tracked output full-length (fmax.reduce per block, then nanmax, is nanmax with its all-NaN
        warning), and the tail takes one np.mean, whose pairwise sum fixes ss_error's bits."""
        out: list[PhaseSummary] = []
        n, dt = self._k, self.dt
        for i, phase in enumerate(self.sc.phases):
            k0 = self._phase_bounds[i]
            k1 = min(self._phase_bounds[i + 1], n)
            if k1 <= k0:
                continue
            ref, y = (ts[name] for name in _TRACKED[phase.mode])
            blocks = [(b0, min(b0 + NOISE_BLOCK, k1)) for b0 in range(k0, k1, NOISE_BLOCK)]
            scales = np.array([np.fmax.reduce(np.abs(ref[b0:b1])) for b0, b1 in blocks])
            ref_scale = max(np.nanmax(scales), 1e-12)  # an array: nanmax warns "All-NaN slice" on it
            last = k0 - 1  # the last step outside the band
            for b0, b1 in blocks:
                outside = np.flatnonzero(~(np.abs(y[b0:b1] - ref[b0:b1]) < 0.01 * ref_scale))
                last = b0 + int(outside[-1]) if outside.size else last
            tail = max(1, int(0.2 * (k1 - k0)))
            err = y[k1 - tail:k1] - ref[k1 - tail:k1]
            ss_error = float(np.mean(np.abs(err, out=err)))
            # t_s[last + 1] - t_start, with t_s[k] = k * dt + dt as the step loop writes it
            settle = float("nan") if last + 1 >= k1 else (last + 1) * dt + dt - k0 * dt
            rfob_err = float(np.max(self._phase_folds[i]))
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


_ADVANCE = '''def _advance(self, k_end: int) -> bool:
    """Run the steps before k_end (at most n_steps); returns False once the run is over or diverged.

    One step reads the reference `_enter_phase` wrote, then runs the control
    law, the plant force balance, the velocity filter, the DOB and RFOB
    updates, the divergence guard (its x and v limits capped at the largest
    float, so a NaN or infinite x or v trips it), the contact detector, the
    contact and the free-motion regressor filters with their RLS updates, and
    the record, all written out inline: the first call compiles this text,
    `_ADVANCE`, with the updates of `RlmsEstimator.update` filled in
    (`identify._compile_filled`).  The tests keep each stage as a bit-for-bit
    reference on plain values (`plant_accel`, `lpf_step`, `observer_step`,
    `detector_update` and the two regressor filters) and rebuild the step from
    them in `LoopStepReference`.  The loop state lives in locals: a chunk
    loads the names of `LOOP_STATE` (filled in at import) from `self._loop`,
    and each estimator's `_state` and `_bounds` lists, in the names
    identify.py lays out, and mu, and stores `_loop` and `_state` back when it
    ends, at k_end, a phase boundary, a divergence or a redesign step, so the
    RFOB model fold and a redesign's retune read the current state; each chunk
    takes the observer poles and gains from the records `self.dob` and
    `self.rfob`, which those two replace.  A step records the cells that vary
    into the open window (`_open_window`), at its row k - base, an innovation
    only where its update runs (the window starts it as NaN); the write-back
    fills, over the steps run, the columns fixed over a chunk (ctrl_mode,
    alpha_g_radps, C_f, and contact_mode under a hint; the detector path
    records it per step) and t_s with one slice store each.  A redesign then
    patches the gains of the step's record; the next chunk reloads them.  A
    chunk also ends at its window's end, the next multiple of NOISE_BLOCK, and
    a chunk that fills its window, ends the run or diverges hands the window
    over (`_flush`) after the patch.  A chunk's prologue draws its noise
    samples with one `standard_normal(n)` call, which gives the same sequence
    as n scalar draws, so a chunk boundary moves no sample; a divergence
    leaves the chunk's unused samples drawn.
    """
    k_end = min(k_end, self.n_steps)
    sc, dt, ad = self.sc, self.dt, self.sc.adaptation
    K_F, M_m, dist0 = sc.plant.K_F, sc.plant.M_m, sc.plant.F_d
    k_vsc, k_clmb, eps = sc.friction.k_vsc, sc.friction.k_clmb, sc.friction.eps
    D_env, K_env, x_env, xdot_env = sc.env.D_env, sc.env.K_env, sc.env.x_env, sc.env.xdot_env
    unilateral, K_P, K_V, K_Fn = not sc.always_in_contact, sc.K_P, sc.K_V, sc.dob.K_Fn
    x_hi, v_hi, F_hi = min(sc.x_limit, sys.float_info.max), min(sc.v_limit, sys.float_info.max), sc.dist_limit
    x_lo, v_lo, F_lo, noise_std = -x_hi, -v_hi, -F_hi, sc.noise_std
    noisy, mn_over_kfn, M_mn = noise_std > 0.0, sc.dob.M_mn / K_Fn, sc.dob.M_mn
    tanh, normal = math.tanh, self.rng.standard_normal if noisy else None  # a run without noise has no generator
    est_nc, est_c = self.est_nc, self.est_c
    c_v = lpf_pole(sc.dob.g_v, dt) if sc.velocity_filter_on else None  # the velocity-filter pole
    b_v = 1.0 - c_v if c_v is not None else 0.0
    th_on, th_off, dwell = sc.ident.threshold_on, sc.ident.threshold_off, sc.ident.dwell
    th_on_lo, th_off_lo = -th_on, -th_off
    # the free-motion regression is u = M_mn*xddot_des + F_dis_hat against [xddot, xdot, tanh(xdot/eps), 1],
    # the motor force balance with delta = [M_m, k_vsc, k_clmb, F_d]; every channel passes through one
    # low-pass, so the balance holds exactly, and xddot is the backward difference of the filtered velocity
    c_nc = lpf_pole(sc.ident.g_nc(sc.dob.g_v), dt) if est_nc is not None else 0.0
    b_nc = 1.0 - c_nc
    online = ad.mode is AdaptationMode.ONLINE and est_c is not None
    period = ad.period_steps
    while self._k < k_end and not self.diverged:
        k = self._k
        if k >= self._next_bound:
            self._enter_phase(k)
        base, window = self._base, self._window
        stop = min(k_end, self._next_bound, (k // period + 1) * period if online else k_end, base + NOISE_BLOCK)
        (_, c_x, c_xdot, c_xddot, c_i, c_F_ref, c_x_ref, c_F_load, c_F_hat_load, c_F_hat_dis,
         _, c_contact, _, _, c_M, c_k_vsc, c_k_clmb, c_F_d, c_innov_nc,
         c_D_env, c_K_env, c_offset, c_innov_c) = self._columns
        k0, noise = k, normal(stop - k).tolist() if noisy else None
        j0 = k0 - base  # the loop counts rows of the window: step k records at row k - base
        phase, ctrl_code, force = self._phase, self._ctrl_code, self._phase.mode is ControlMode.FORCE
        c_ref = c_F_ref if force else c_x_ref  # _enter_phase wrote the phase's reference there
        hint = None if phase.contact_hint is None else int(phase.contact_hint)
        dist = dist0 if phase.F_d_override is None else phase.F_d_override
        # the observers as the fold and the last redesign left them; the DOB has no friction model and no F_d
        dob, rfob, C_f = self.dob, self.rfob, self.C_f
        c_d, gm_d, K_F_d = lpf_pole(dob.g_dob, dt), dob.g_dob * dob.M_mn, dob.K_Fn
        c_r, gm_r, K_F_r, F_d_r = lpf_pole(rfob.g_rfob, dt), rfob.g_rfob * rfob.M_hat, rfob.K_F_hat, rfob.F_d_hat
        b_d, b_r, kv_r, kc_r, eps_r = 1.0 - c_d, 1.0 - c_r, rfob.friction.k_vsc, rfob.friction.k_clmb, rfob.friction.eps
        alpha_g = self.alpha_true * dob.g_dob
        [*loop] = self._loop.values()
        # the contact force at (x, v): each step records it for its new (x, v) and the next step applies it
        F_load = 0.0 if unilateral and x < x_env else D_env * (v - xdot_env) + K_env * (x - x_env)
        nc_last_j, diverged = nc_last_k - base, False
        if est_c is not None:
            [*s_c], [*bounds_c], mu_c = est_c._state, est_c._bounds, est_c.mu
        if est_nc is not None:
            [*s_nc], [*bounds_nc], mu_nc = est_nc._state, est_nc._bounds, est_nc.mu
        for j in range(j0, stop - base):
            r = c_ref[j]
            if force:
                xddot_des = C_f * (r - F_hat_load)
            else:
                xddot_des = K_P * (r - x) - K_V * v_f
            F_dis_used = F_hat_dis
            i_m = mn_over_kfn * xddot_des + F_dis_used / K_Fn
            # k_clmb == 0 skips tanh; that flips at most the sign of a zero force, kept only if K_F*i_m is -0.0
            F_fric = k_vsc * v + k_clmb * tanh(v / eps) if k_clmb else k_vsc * v
            v += (K_F * i_m - F_fric - F_load - dist) / M_m * dt
            x_new = x + v * dt
            # fresh measurement at t_{k+1}: the observers integrate the interval just applied
            # a Python product: it overflows to inf without the warning a numpy product gives
            v_meas_new = v + (noise[j - j0] * noise_std if noisy else 0.0)
            if c_v is not None:
                v_f = c_v * v_f + b_v * v_meas_new
            else:
                v_f = v_meas_new
            gv = gm_d * v_f
            y_d = c_d * y_d + b_d * (K_F_d * i_m + gv)
            F_hat_dis = y_d - gv
            gv = gm_r * v_f
            F_fric_r = kv_r * v_f + kc_r * tanh(v_f / eps_r) if kc_r else kv_r * v_f
            y_r = c_r * y_r + b_r * (K_F_r * i_m + gv - F_fric_r - F_d_r)
            F_hat_load = y_r - gv
            if not (x_lo <= x_new <= x_hi and v_lo <= v <= v_hi) or F_hat_load > F_hi or F_hat_load < F_lo:
                diverged = self.diverged = True
                self.diverged_step = base + j
            if hint is None:  # the contact detector on the mode codes: 0 non-contact, 1 transition, 2 contact
                if det_mode == 0:
                    if F_hat_load > th_on or F_hat_load < th_on_lo:  # |F| > th_on; a NaN takes neither branch
                        det_mode, det_count = 1, 1
                elif F_hat_load < th_off and F_hat_load > th_off_lo:
                    det_release += 1
                    if det_release >= dwell:
                        det_mode = det_release = 0
                else:
                    det_release = 0
                    if det_mode == 1:
                        det_count += 1
                        if det_count >= dwell:
                            det_mode = 2
                c_contact[j] = mode = det_mode
            else:
                mode = hint
            if est_c is not None and not diverged:
                # the contact regression is u = F_hat_load against [xdot, x, 1] through the RFOB's own pole, the
                # low-pass the load estimate already carries; with delta = [D_env, K_env, offset] the constant
                # column absorbs -(D_env*xdot_env + K_env*x_env).  The filter tracks the RFOB filter every step;
                # only the update is gated
                fv_c = c_r * fv_c + b_r * v_meas
                fx_c = c_r * fx_c + b_r * x
                f1_c = c_r * f1_c + b_r
                if mode == 2:
                    innov_c = RLMS_UPDATE(fv_c, fx_c, f1_c, F_hat_load)
                    c_innov_c[j] = innov_c
            if mode == 0 and est_nc is not None and not diverged:
                if nc_last_j != j - 1:  # gap in the fed samples: restart the filter history
                    fu_nc = fv_nc = fz_nc = f1_nc = 0.0
                    warm_nc = 0
                nc_last_j = j
                v_nc = c_nc * fv_nc + b_nc * v_meas
                if warm_nc >= 2:  # the regressor lags the filters by one sample, so its columns align
                    xddot_nc = (v_nc - fv_nc) / dt
                    innov_nc = RLMS_UPDATE(xddot_nc, fv_nc, fz_nc, f1_nc, fu_nc)
                    c_innov_nc[j] = innov_nc
                else:
                    warm_nc += 1
                fu_nc = c_nc * fu_nc + b_nc * (M_mn * xddot_des + F_dis_used)
                fv_nc = v_nc
                fz_nc = c_nc * fz_nc + b_nc * tanh(v_meas / eps)
                f1_nc = c_nc * f1_nc + b_nc
            c_x[j] = x = x_new
            c_xdot[j] = v
            c_xddot[j] = xddot_des
            c_i[j] = i_m
            c_F_load[j] = F_load = 0.0 if unilateral and x < x_env else D_env * (v - xdot_env) + K_env * (x - x_env)
            c_F_hat_load[j] = F_hat_load
            c_F_hat_dis[j] = F_hat_dis
            if est_nc is not None:
                c_M[j], c_k_vsc[j], c_k_clmb[j], c_F_d[j] = *d_nc,
            if est_c is not None:
                c_D_env[j], c_K_env[j], c_offset[j] = *d_c,
            v_meas = v_meas_new
            if diverged:
                break
        k, rows = base + j, slice(j0, j + 1)
        # arange(k0, k + 1) * dt + dt rounds as k * dt + dt does, so t_s is bit-identical to a per-step store
        window["t_s"][rows] = np.arange(k0, k + 1) * dt + dt
        window["ctrl_mode"][rows], window["alpha_g_radps"][rows], window["C_f"][rows] = ctrl_code, alpha_g, C_f
        if hint is not None:
            window["contact_mode"][rows] = hint
        nc_last_k, self._k = base + nc_last_j, k + 1
        self._loop = dict(zip(LOOP_STATE, [*loop]))
        if est_c is not None:
            est_c._state = [*s_c]
        if est_nc is not None:
            est_nc._state = [*s_nc]
        if online and mode == 2 and not diverged and (k + 1) % period == 0:
            d_env, k_env = (max(v, 0.0) for v in est_c.values[:2])
            # a rejected design leaves the anchor alone, so the next period retries
            if self._outside_deadband(d_env, k_env) and self._apply_design(k * dt, d_env, k_env, rfob.M_hat):
                self._last_design_env = (d_env, k_env)
                window["alpha_g_radps"][j], window["C_f"][j] = self.alpha_true * self.dob.g_dob, self.C_f
        if j + 1 == NOISE_BLOCK or diverged or k + 1 == self.n_steps:
            self._flush(j + 1)
    return not self.diverged and self._k < self.n_steps
'''.replace("*loop", ", ".join(LOOP_STATE))


def run_scenario(scenario: Scenario, on_window=None) -> SimResult:
    """Build a simulator for the scenario, handing its record window by window to `on_window`, and run it to
    completion."""
    return Simulator(scenario, on_window).run()

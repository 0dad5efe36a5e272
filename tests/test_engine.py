import dataclasses
import functools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rfobkit as rk
from rfobkit.config import build_scenario, parse_config
from rfobkit.design import EnvClass
from rfobkit.engine import NOISE_BLOCK, TIMESERIES_COLUMNS
from rfobkit.identify import ContactMode
from rfobkit.loop_model import closed_loop_force_tf, step_response
from rfobkit.observers import lpf_pole
from test_identify import DETECTOR_START, NonContactBankReference, detector_update
from test_observers import lpf_step, observer_step
from test_plant import contact_force, plant_accel

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

ENV = rk.EnvImpedance(D_env=2.0, K_env=6500.0)
PP = rk.PlantParams(M_m=3.02, K_F=0.5)


def force_phase(duration, value, hint=None):
    return rk.Phase(mode=rk.ControlMode.FORCE, duration=duration, offset=value, contact_hint=hint)


def linear_scenario(dt=1e-4, duration=0.5, F_ref=1.0, g=None, C_f=None):
    des = rk.design_damping_stiffness(3.02, 2.0, 6500.0, 1000.0, rk.DesignSpec(k_hint=0.5))
    g = g if g is not None else rk.split_alpha_g(des, 1.0)
    return rk.Scenario(
        plant=PP,
        friction=rk.FrictionParams(),
        env=ENV,
        dob=rk.DobConfig(M_mn=3.02, K_Fn=0.5, g_dob=g, g_v=1000.0),
        rfob=rk.RfobConfig(M_hat=3.02, K_F_hat=0.5, g_rfob=g),
        phases=(force_phase(duration, F_ref, hint=rk.ContactMode.CONTACT),),
        dt=dt,
        C_f=C_f if C_f is not None else des.C_f,
        always_in_contact=True,
        velocity_filter_on=False,
    ), des


class LoopStepReference(rk.Simulator):
    """One call per stage reference and one step per call: the bit-for-bit reference for Simulator._advance.

    It keeps its own plant state (x, v), velocity-filter pole c_v and detector state `det`; the measured and
    filtered velocity, the observers' filter outputs and estimates and the last step that fed the free-motion
    filters stay in `_loop`, where the bumpless retune of `_apply_design` reads and shifts them.  Each step runs the
    observer records `dob` and `rfob` as the fold and the last redesign left them.
    """

    def __init__(self, scenario):
        super().__init__(scenario)
        self.x, self.v = scenario.x0, scenario.v0
        self.c_v = lpf_pole(scenario.dob.g_v, self.dt) if scenario.velocity_filter_on else None
        self.det = DETECTOR_START
        self._f_ref = (0.0, 0.0, 0.0)  # the contact regressor [xdot, x, 1], filtered by the RFOB's pole
        ident = scenario.ident
        self.bank_nc = NonContactBankReference(ident.g_nc(scenario.dob.g_v), self.dt, scenario.dob.M_mn,
                                               scenario.friction.eps) if ident.enable_plant else None

    def _alloc(self, n):
        # every column full and writable, NaN where no step writes: each step below stores all 23 cells into the
        # open window's slices of them, at the step's row from the window's start
        self.ts = {name: np.zeros(n, np.int8) if name.endswith("_mode") else np.full(n, np.nan)
                   for name in TIMESERIES_COLUMNS}
        self._buffers = {}
        self._open_window(0)

    def _advance(self, k_end):
        while self._k < k_end and self._step():
            pass
        return not self.diverged and self._k < self.n_steps

    def _step(self):
        k = self._k
        if k >= self.n_steps or self.diverged:
            return False
        sc = self.sc
        dt = self.dt
        t = k * dt
        if k >= self._next_bound:
            self._enter_phase(k)
        phase = self._phase
        t_local = t - self._phase_bounds[self._phase_idx] * dt

        x, loop = self.x, self._loop
        xdot_meas = loop["v_meas"]  # measurement taken at t_k
        xdot_f = loop["v_f"]

        # the reference formulas written out; a ramp clips tau/duration to [0, 1]
        r = phase.offset
        if phase.ramp_end is not None:
            r += (phase.ramp_end - phase.offset) * min(max(t_local / phase.duration, 0.0), 1.0)
        for amp, freq_hz, ph in phase.waves:
            r += amp * math.sin(2.0 * math.pi * freq_hz * t_local + ph)
        F_ref = math.nan
        x_ref = math.nan
        if phase.mode is rk.ControlMode.FORCE:
            F_ref = r
            xddot_des = self.C_f * (F_ref - loop["F_hat_load"])
        else:
            x_ref = r
            xddot_des = sc.K_P * (x_ref - x) - sc.K_V * xdot_f

        F_dis_used = loop["F_hat_dis"]
        i_m = sc.dob.M_mn / sc.dob.K_Fn * xddot_des + F_dis_used / sc.dob.K_Fn

        a = plant_accel(i_m, x, self.v, sc.plant, sc.friction, sc.env, sc.always_in_contact, phase.F_d_override)
        xdot_new = self.v = self.v + a * dt
        x_new = self.x = x + xdot_new * dt

        # fresh measurement at t_{k+1}: observers integrate the interval just applied
        xdot_meas_new = xdot_new + (
            self.rng.standard_normal() * sc.noise_std if sc.noise_std > 0.0 else 0.0
        )
        xdot_f_new = lpf_step(self.c_v, xdot_f, xdot_meas_new) if self.c_v is not None else xdot_meas_new
        loop["y_d"], F_hat_dis = observer_step(self.dob, dt, loop["y_d"], i_m, xdot_f_new)
        loop["y_r"], F_hat_load = observer_step(self.rfob, dt, loop["y_r"], i_m, xdot_f_new)
        loop["F_hat_dis"], loop["F_hat_load"] = F_hat_dis, F_hat_load
        loop["v_meas"] = xdot_meas_new
        loop["v_f"] = xdot_f_new

        if (
            not (math.isfinite(x_new) and math.isfinite(xdot_new))
            or abs(x_new) > sc.x_limit
            or abs(xdot_new) > sc.v_limit
            or abs(F_hat_load) > sc.dist_limit
        ):
            self.diverged = True
            self.diverged_step = k

        mode = phase.contact_hint
        if mode is None:
            self.det = detector_update(self.det, F_hat_load, sc.ident.threshold_on, sc.ident.threshold_off,
                                       sc.ident.dwell)
            mode = self.det[0]

        innov_nc = math.nan
        innov_c = math.nan
        est_nc = self.est_nc
        est_c = self.est_c
        if est_c is not None and not self.diverged:
            c = lpf_pole(self.rfob.g_rfob, dt)
            b = 1.0 - c
            f_v, f_x, f_1 = self._f_ref
            rho_c = self._f_ref = (c * f_v + b * xdot_meas, c * f_x + b * x, c * f_1 + b)
            if mode is ContactMode.CONTACT:
                innov_c = est_c.update(rho_c, F_hat_load)
                if (
                    sc.adaptation.mode is rk.AdaptationMode.ONLINE
                    and (k + 1) % sc.adaptation.period_steps == 0
                ):
                    d = est_c.values
                    d_env, k_env = max(d[0], 0.0), max(d[1], 0.0)
                    if self._outside_deadband(d_env, k_env) and self._apply_design(t, d_env, k_env, self.rfob.M_hat):
                        self._last_design_env = (d_env, k_env)
        if mode is ContactMode.NON_CONTACT and est_nc is not None and not self.diverged:
            if loop["nc_last_k"] != k - 1:
                self.bank_nc.reset()
            loop["nc_last_k"] = k
            emitted = self.bank_nc.step(xddot_des, F_dis_used, xdot_meas)
            if emitted is not None:
                innov_nc = est_nc.update(emitted[1], emitted[0])

        (c_t, c_x, c_xdot, c_xddot, c_i, c_F_ref, c_x_ref, c_F_load, c_F_hat_load, c_F_hat_dis,
         c_ctrl, c_contact, c_alpha_g, c_C_f, c_M, c_k_vsc, c_k_clmb, c_F_d, c_innov_nc,
         c_D_env, c_K_env, c_offset, c_innov_c) = self._columns
        j = k - self._base
        c_t[j] = t + dt
        c_x[j] = x_new
        c_xdot[j] = xdot_new
        c_xddot[j] = xddot_des
        c_i[j] = i_m
        c_F_ref[j] = F_ref
        c_x_ref[j] = x_ref
        c_F_load[j] = contact_force(x_new, xdot_new, sc.env, sc.always_in_contact)
        c_F_hat_load[j] = F_hat_load
        c_F_hat_dis[j] = F_hat_dis
        c_ctrl[j] = self._ctrl_code
        c_contact[j] = mode
        c_alpha_g[j] = self.alpha_true * self.dob.g_dob
        c_C_f[j] = self.C_f
        if est_nc is not None:
            c_M[j], c_k_vsc[j], c_k_clmb[j], c_F_d[j] = est_nc.values
            c_innov_nc[j] = innov_nc
        if est_c is not None:
            c_D_env[j], c_K_env[j], c_offset[j] = est_c.values
            c_innov_c[j] = innov_c

        self._k = k + 1
        if j + 1 == NOISE_BLOCK or self.diverged or self._k == self.n_steps:  # the window is full or the run over
            self._flush(j + 1)
        return not self.diverged and self._k < self.n_steps


def assert_same_run(sc, sim=None):
    """Simulator(sc).run(), or `sim` run on from where it stands, matches LoopStepReference bit for bit."""
    ref = LoopStepReference(sc)
    ref_res = ref.run()
    if sim is None:
        sim = rk.Simulator(sc)
    res = sim.run()
    assert_same_record(sim, res, ref, ref_res)
    return res


def assert_same_record(sim, res, ref, ref_res):
    """`sim`'s result `res` is `ref`'s `ref_res` bit for bit, with the same estimator state and, in a noisy run,
    generator state; a run without noise builds no generator."""
    assert res.n_steps == ref_res.n_steps and res.diverged_step == ref_res.diverged_step
    assert set(res.ts) == set(TIMESERIES_COLUMNS)
    for name in TIMESERIES_COLUMNS:
        assert res.ts[name].dtype == ref_res.ts[name].dtype, name
        assert res.ts[name].tobytes() == ref_res.ts[name].tobytes(), name
    assert repr(res.design_events) == repr(ref_res.design_events)  # repr: NaN fields compare too
    if sim.sc.noise_std == 0.0:
        assert sim.rng is None
    elif not res.diverged:  # the chunked draws took exactly the reference's scalar draws from the stream
        assert sim.rng.bit_generator.state == ref.rng.bit_generator.state
    for est, ref_est in ((sim.est_nc, ref.est_nc), (sim.est_c, ref.est_c)):
        assert (est is None) == (ref_est is None)
        if est is not None:
            assert np.array(est._state).tobytes() == np.array(ref_est._state).tobytes()


def test_position_gains_stable_on_nominalized_plant():
    # default gains close a stable loop around the nominalized double integrator
    pls = rk.poles((1.0, 90.0, 1200.0))
    assert all(z.real < 0 for z in pls)


def test_zero_everything_stays_zero():
    sc = rk.Scenario(
        plant=rk.PlantParams(M_m=1.0, K_F=0.5),
        friction=rk.FrictionParams(),
        env=rk.EnvImpedance(D_env=1.0, K_env=100.0, x_env=1.0),
        dob=rk.DobConfig(M_mn=1.0, K_Fn=0.5, g_dob=100.0, g_v=1000.0),
        rfob=rk.RfobConfig(M_hat=1.0, K_F_hat=0.5, g_rfob=100.0),
        phases=(force_phase(0.1, 0.0),),
        dt=1e-4,
        C_f=1.0,
    )
    res = rk.run_scenario(sc)
    for name in ("x_m_m", "xdot_m_mps", "F_hat_load_N", "F_hat_dis_N", "i_m_A", "F_load_N"):
        assert np.all(res.ts[name] == 0.0), name


def test_zero_duration_scenario():
    sc = linear_scenario(duration=0.0)[0]
    res = rk.run_scenario(sc)
    assert res.n_steps == 0
    assert not res.diverged
    assert res.summary_dict()["phases"] == []
    for name in TIMESERIES_COLUMNS:
        assert res.ts[name].size == 0


def test_determinism_same_seed():
    def make():
        sc, _ = linear_scenario(duration=0.2)
        sc = rk.Scenario(**{**sc.__dict__, "noise_std": 1e-3, "seed": 99})
        return rk.run_scenario(sc)

    a, b = make(), make()
    for name in TIMESERIES_COLUMNS:
        assert np.array_equal(a.ts[name], b.ts[name], equal_nan=True), name


def test_linear_regime_equivalence_and_convergence():
    """Simulated step response follows the analytic closed loop; error halves with dt."""
    errs = {}
    for dt in (1e-4, 5e-5):
        sc, des = linear_scenario(dt=dt, duration=0.5)
        res = rk.run_scenario(sc)
        tf = closed_loop_force_tf(EnvClass.DAMPING_STIFFNESS, 3.02, des.alpha_g, des.C_f, ENV)
        t_full = np.arange(res.n_steps + 1) * dt
        y = step_response(tf, t_full)[1:]
        errs[dt] = float(np.max(np.abs(res.ts["F_hat_load_N"] - y)))
    assert errs[1e-4] < 0.01
    assert errs[5e-5] <= 0.6 * errs[1e-4]


def test_linear_regime_equivalence_damping_case():
    des = rk.design_damping(0.81, 2.0, 1000.0, rk.DesignSpec(xi_damping=0.7071, gamma=0.15))
    g = rk.split_alpha_g(des, 1.0)
    env = rk.EnvImpedance(D_env=2.0)
    sc = rk.Scenario(
        plant=rk.PlantParams(M_m=0.81, K_F=0.5),
        friction=rk.FrictionParams(),
        env=env,
        dob=rk.DobConfig(M_mn=0.81, K_Fn=0.5, g_dob=g, g_v=1000.0),
        rfob=rk.RfobConfig(M_hat=0.81, K_F_hat=0.5, g_rfob=g),
        phases=(force_phase(0.3, 1.0, hint=rk.ContactMode.CONTACT),),
        dt=2e-5,
        C_f=des.C_f,
        always_in_contact=True,
        velocity_filter_on=False,
    )
    res = rk.run_scenario(sc)
    tf = closed_loop_force_tf(EnvClass.PURE_DAMPING, 0.81, des.alpha_g, des.C_f, env)
    t_full = np.arange(res.n_steps + 1) * sc.dt
    y = step_response(tf, t_full)[1:]
    assert np.max(np.abs(res.ts["F_hat_load_N"] - y)) < 0.01


def test_linear_regime_equivalence_stiffness_case():
    des = rk.design_stiffness(3.02, 6500.0, 1000.0, rk.DesignSpec(xi_stiffness=1.0, eta=2.0))
    g = rk.split_alpha_g(des, 1.0)
    env = rk.EnvImpedance(K_env=6500.0)
    sc = rk.Scenario(
        plant=PP,
        friction=rk.FrictionParams(),
        env=env,
        dob=rk.DobConfig(M_mn=3.02, K_Fn=0.5, g_dob=g, g_v=1000.0),
        rfob=rk.RfobConfig(M_hat=3.02, K_F_hat=0.5, g_rfob=g),
        phases=(force_phase(0.5, 1.0, hint=rk.ContactMode.CONTACT),),
        dt=1e-4,
        C_f=des.C_f,
        always_in_contact=True,
        velocity_filter_on=False,
    )
    res = rk.run_scenario(sc)
    tf = closed_loop_force_tf(EnvClass.PURE_STIFFNESS, 3.02, des.alpha_g, des.C_f, env)
    t_full = np.arange(res.n_steps + 1) * sc.dt
    y = step_response(tf, t_full)[1:]
    assert np.max(np.abs(res.ts["F_hat_load_N"] - y)) < 0.01


def test_steady_state_force_tracking():
    sc, des = linear_scenario(duration=1.0)
    res = rk.run_scenario(sc)
    late = res.ts["t_s"] >= 0.65
    assert np.max(np.abs(res.ts["F_hat_load_N"][late] - 1.0)) < 1e-3
    assert abs(res.ts["F_hat_load_N"][-1] - 1.0) < 1e-6


def test_divergence_detected_for_unstable_mismatch():
    # overestimated identified inertia with high loop gain: right-half-plane zero regime
    sc = rk.Scenario(
        plant=PP,
        friction=rk.FrictionParams(),
        env=ENV,
        dob=rk.DobConfig(M_mn=6.04, K_Fn=0.5, g_dob=500.0, g_v=1000.0),
        rfob=rk.RfobConfig(M_hat=6.04, K_F_hat=0.5, g_rfob=500.0),
        phases=(force_phase(2.0, 1.0, hint=rk.ContactMode.CONTACT),),
        dt=1e-4,
        C_f=1.25,
        always_in_contact=True,
        velocity_filter_on=False,
        x_limit=1.0,
        v_limit=100.0,
    )
    res = rk.run_scenario(sc)
    assert res.diverged
    assert res.diverged_step is not None
    assert res.n_steps == res.diverged_step + 1  # partial output retained


def test_identification_improves_rfob_between_force_phases():
    """Plant identification during a free-motion phase sharpens later force estimates."""
    pp = rk.PlantParams(M_m=0.81, K_F=0.5, F_d=7.95)
    fric = rk.FrictionParams(k_vsc=12.0, k_clmb=6.0, eps=1e-3)
    env = rk.EnvImpedance(D_env=5.0, K_env=1000.0, x_env=0.0)
    phases = (
        force_phase(1.5, 5.0, hint=rk.ContactMode.CONTACT),
        rk.Phase(mode=rk.ControlMode.POSITION, duration=2.5,
                 offset=-0.025, waves=((0.012, 1.2, 0.0), (0.006, 0.35, 1.0)),
                 contact_hint=rk.ContactMode.NON_CONTACT),
        force_phase(1.5, 5.0, hint=rk.ContactMode.CONTACT),
    )
    sc = rk.Scenario(
        plant=pp, friction=fric, env=env,
        dob=rk.DobConfig(M_mn=0.81, K_Fn=0.5, g_dob=500.0, g_v=1000.0),
        rfob=rk.RfobConfig(M_hat=0.81, K_F_hat=0.5, g_rfob=500.0),
        phases=phases, dt=1e-4, C_f=5.0,
        velocity_filter_on=False,
        ident=rk.IdentConfig(enable_plant=True, mu_nc=1.0, gamma0_nc=1e5),
    )
    res = rk.run_scenario(sc)
    assert not res.diverged
    ts = res.ts
    truth = np.array([0.81, 12.0, 6.0, 7.95])
    assert np.all(np.abs(res.final_delta_nc - truth) <= 0.02 * np.abs(truth))

    def late_rfob_err(t0, t1):
        m = (ts["t_s"] >= t0) & (ts["t_s"] <= t1)
        return float(np.max(np.abs(ts["F_hat_load_N"][m] - ts["F_load_N"][m])))

    first = late_rfob_err(0.75, 1.5)
    second = late_rfob_err(4.75, 5.5)
    assert second < first
    assert second < 0.1 * first


def test_transition_rows_freeze_estimates_and_gains():
    # drive through a contact onset with online adaptation and check the gating
    des = rk.design_damping_stiffness(3.02, 2.0, 6500.0, 1000.0, rk.DesignSpec(k_hint=0.5))
    g = rk.split_alpha_g(des, 1.0)
    sc = rk.Scenario(
        plant=PP, friction=rk.FrictionParams(),
        env=rk.EnvImpedance(D_env=2.0, K_env=6500.0, x_env=0.001),
        dob=rk.DobConfig(M_mn=3.02, K_Fn=0.5, g_dob=g, g_v=1000.0),
        rfob=rk.RfobConfig(M_hat=3.02, K_F_hat=0.5, g_rfob=g),
        phases=(force_phase(1.0, 5.0),),
        dt=1e-4, C_f=des.C_f, x0=-0.001,
        velocity_filter_on=False,
        adaptation=rk.AdaptationConfig(mode=rk.AdaptationMode.ONLINE, period_steps=100,
                                       spec=rk.DesignSpec(alpha=1.0)),
        ident=rk.IdentConfig(enable_env=True, mu_c=1.0, gamma0_c=1e5,
                             delta0_c=(0.5, 3000.0, 0.0)),
    )
    res = rk.run_scenario(sc)
    ts = res.ts
    trans = np.flatnonzero(ts["contact_mode"] == 1)
    assert trans.size > 0
    for k in trans:
        if k == 0:
            continue
        for col in ("delta_D_env_Nspm", "delta_K_env_Npm", "delta_c_offset_N", "alpha_g_radps", "C_f"):
            assert ts[col][k] == ts[col][k - 1], (col, k)
    # online adaptation only ever changes gains in contact rows
    changes = np.flatnonzero(np.diff(ts["C_f"]) != 0.0) + 1
    assert changes.size > 0
    assert np.all(ts["contact_mode"][changes] == 2)


def test_scripted_transition_records_code_1_and_runs_neither_estimator():
    sc, _ = linear_scenario(duration=0.05)
    ident = rk.IdentConfig(enable_plant=True, enable_env=True)
    phases = (force_phase(0.05, 1.0, hint=rk.ContactMode.TRANSITION),)
    res = rk.run_scenario(rk.Scenario(**{**sc.__dict__, "phases": phases, "ident": ident}))
    assert res.n_steps == 500 and np.all(res.ts["contact_mode"] == 1)
    assert np.all(np.isnan(res.ts["innov_nc_N"])) and np.all(np.isnan(res.ts["innov_c_N"]))
    assert tuple(res.final_delta_nc) == ident.delta0_nc and tuple(res.final_delta_c) == ident.delta0_c


def test_online_adaptation_converges_to_truth_design():
    """Identified impedance feeding the re-design reproduces the truth-based gains."""
    des_truth = rk.design_damping_stiffness(3.02, 2.0, 6500.0, 1000.0, rk.DesignSpec(k_hint=0.5))
    g0 = rk.split_alpha_g(des_truth, 1.0)
    sc = rk.Scenario(
        plant=PP, friction=rk.FrictionParams(), env=ENV,
        dob=rk.DobConfig(M_mn=3.02, K_Fn=0.5, g_dob=g0, g_v=1000.0),
        rfob=rk.RfobConfig(M_hat=3.02, K_F_hat=0.5, g_rfob=g0),
        phases=(rk.Phase(mode=rk.ControlMode.FORCE, duration=3.0,
                         offset=5.0, waves=((2.0, 3.0, 0.0), (1.5, 1.3, 0.7))),),
        dt=5e-5, C_f=des_truth.C_f, velocity_filter_on=False,
        adaptation=rk.AdaptationConfig(mode=rk.AdaptationMode.ONLINE, period_steps=200,
                                       spec=rk.DesignSpec(alpha=1.0)),
        ident=rk.IdentConfig(enable_env=True, mu_c=1.0, gamma0_c=1e6,
                             delta0_c=(0.5, 3000.0, 0.0),
                             bounds_c_min=(0.0, 10.0, -100.0),
                             bounds_c_max=(500.0, 1e6, 100.0)),
    )
    res = rk.run_scenario(sc)
    assert not res.diverged
    applied = [e for e in res.design_events if e.applied]
    assert applied
    last = applied[-1]
    assert last.alpha_g == pytest.approx(des_truth.alpha_g, rel=0.02)
    assert last.C_f == pytest.approx(des_truth.C_f, rel=0.02)
    assert res.final_delta_c[1] == pytest.approx(6500.0, rel=0.02)
    # equilibrium at the origin: the offset column stays near zero
    assert abs(res.final_delta_c[2]) < 0.2


def test_rejected_redesign_retries_next_period():
    """A rejected design leaves no deadband anchor, so every later period tries again."""
    sc, _ = linear_scenario(duration=0.1)
    period = 100
    sc = rk.Scenario(**{**sc.__dict__,
                        # g = alpha_g / alpha is far too fast for dt: g*dt >= 0.5.  The
                        # deadband puts every estimate near the anchor, had one been set.
                        "adaptation": rk.AdaptationConfig(mode=rk.AdaptationMode.ONLINE, period_steps=period,
                                                          spec=rk.DesignSpec(alpha=1e-4), deadband=1e9),
                        "ident": rk.IdentConfig(enable_env=True, mu_c=1.0, gamma0_c=1e5,
                                                delta0_c=(0.5, 3000.0, 0.0))})
    res = rk.run_scenario(sc)
    assert not res.diverged
    events = res.design_events
    assert len(events) == res.n_steps // period
    for i, e in enumerate(events):
        assert not e.applied
        assert e.t == pytest.approx(((i + 1) * period - 1) * sc.dt, abs=1e-12)
    assert "too fast" in events[0].note
    assert np.all(res.ts["C_f"] == sc.C_f)


def test_offline_adaptation_applies_design_at_start():
    sc, des = linear_scenario(duration=0.1, C_f=1.0, g=500.0)
    sc = rk.Scenario(**{**sc.__dict__,
                        "adaptation": rk.AdaptationConfig(mode=rk.AdaptationMode.OFFLINE,
                                                          spec=rk.DesignSpec(alpha=1.0))})
    res = rk.run_scenario(sc)
    assert len(res.design_events) == 1
    ev = res.design_events[0]
    assert ev.applied and ev.t == 0.0
    assert ev.C_f == pytest.approx(des.C_f, rel=1e-9)
    assert np.all(res.ts["C_f"] == pytest.approx(des.C_f))
    assert np.all(res.ts["alpha_g_radps"] == pytest.approx(des.alpha_g))


def test_offline_adaptation_bank_filters_with_the_designed_cutoff():
    # g_rfob = 500 rad/s differs from the designed cutoff the offline design retunes the RFOB to
    sc, des = linear_scenario(duration=0.01, C_f=1.0, g=500.0)
    sc = rk.Scenario(**{**sc.__dict__, "ident": rk.IdentConfig(enable_env=True),
                        "adaptation": rk.AdaptationConfig(mode=rk.AdaptationMode.OFFLINE,
                                                          spec=rk.DesignSpec(alpha=1.0))})
    sim = rk.Simulator(sc)
    assert sim.rfob.g_rfob == pytest.approx(rk.split_alpha_g(des, 1.0), rel=1e-9)
    assert sim.rfob.g_rfob != 500.0
    sim.run()
    # the constant regressor column is 1 - c**k for the pole c the filter ran with
    assert sim._loop["f1_c"] == pytest.approx(1.0 - math.exp(-sim.rfob.g_rfob * sc.dt * sim.n_steps), rel=1e-12)


def test_offline_adaptation_applies_a_design_on_the_bandwidth_bound():
    # the damping design puts alpha_g on g_v/2 = 500 rad/s exactly
    sc = rk.Scenario(
        plant=rk.PlantParams(M_m=6.69, K_F=0.5),
        friction=rk.FrictionParams(),
        env=rk.EnvImpedance(D_env=788.9),
        dob=rk.DobConfig(M_mn=6.69, K_Fn=0.5, g_dob=100.0, g_v=1000.0),
        rfob=rk.RfobConfig(M_hat=6.69, K_F_hat=0.5, g_rfob=100.0),
        phases=(force_phase(0.01, 1.0, hint=rk.ContactMode.CONTACT),),
        dt=1e-4,
        C_f=1.0,
        always_in_contact=True,
        adaptation=rk.AdaptationConfig(mode=rk.AdaptationMode.OFFLINE, spec=rk.DesignSpec(alpha=1.0)),
    )
    des = rk.design_damping(6.69, 788.9, 1000.0)
    assert des.alpha_g == 500.0
    res = rk.run_scenario(sc)
    [ev] = res.design_events
    assert ev.applied and ev.t == 0.0
    assert ev.g == des.alpha_g and ev.C_f == des.C_f


def test_offline_adaptation_rejects_a_degenerate_design_as_an_event():
    # on a pure stiffness, eta = 1e-9 puts the third pole below 1e-6 * w_n: the design is flagged degenerate,
    # so the run records the rejection and keeps its force gain
    sc, _ = linear_scenario(duration=0.01)
    sc = rk.Scenario(**{**sc.__dict__, "env": rk.EnvImpedance(K_env=6500.0),
                        "adaptation": rk.AdaptationConfig(mode=rk.AdaptationMode.OFFLINE,
                                                          spec=rk.DesignSpec(eta=1e-9))})
    [ev] = rk.run_scenario(sc).design_events
    assert (ev.t, ev.applied, ev.C_f) == (0.0, False, sc.C_f) and math.isnan(ev.alpha_g) and math.isnan(ev.g)
    assert ev.note == "design degenerate: degenerate third pole: p < 1e-6 * w_n"


def test_phase_disturbance_override():
    sc, _ = linear_scenario(duration=0.5)
    phases = (rk.Phase(mode=rk.ControlMode.FORCE, duration=0.5,
                       offset=1.0, contact_hint=rk.ContactMode.CONTACT, F_d_override=0.7),)
    sc = rk.Scenario(**{**sc.__dict__, "phases": phases})
    res = rk.run_scenario(sc)
    # the inner observer swallows the constant disturbance; the force loop still
    # regulates the estimate while the unmodeled offset shifts the true force
    assert abs(res.ts["F_hat_load_N"][-1] - 1.0) < 0.01
    assert abs(res.ts["F_load_N"][-1] - 0.3) < 0.01


def test_scenario_validation():
    sc, _ = linear_scenario()
    with pytest.raises(ValueError):
        rk.Scenario(**{**sc.__dict__, "dt": -1.0})
    with pytest.raises(ValueError):
        rk.Scenario(**{**sc.__dict__, "dt": 0.01})  # cutoff too fast for sample time
    with pytest.raises(ValueError):
        rk.Scenario(**{**sc.__dict__, "C_f": 0.0})
    with pytest.raises(ValueError):
        rk.Scenario(**{**sc.__dict__, "noise_std": -0.1})


def test_reference_kinds():
    """Each config `ref` kind records, in both control modes, the value its formula written out gives, bit for bit."""
    rng = np.random.default_rng(14)
    off, amp, freq, ph, start, end = rng.uniform(-1.0, 1.0, 6).tolist()
    comps = rng.uniform(-1.0, 1.0, (3, 3)).tolist()
    components = ", ".join(f"{a!r}:{f!r}:{p!r}" for a, f, p in comps)
    dt, duration, n = 1e-4, 0.05, 500

    def multisine(tau):
        out = off
        for a, f, p in comps:
            out += a * math.sin(2.0 * math.pi * f * tau + p)
        return out

    kinds = [
        (f"ref = const\nvalue = {off!r}", lambda tau: off),
        (f"ref = sine\noffset = {off!r}\namp = {amp!r}\nfreq_hz = {freq!r}\nphase_rad = {ph!r}",
         lambda tau: off + amp * math.sin(2.0 * math.pi * freq * tau + ph)),
        (f"ref = multisine\noffset = {off!r}\ncomponents = {components}", multisine),
        (f"ref = ramp\nstart = {start!r}\nend = {end!r}",
         lambda tau: start + (end - start) * min(max(tau / duration, 0.0), 1.0)),
    ]
    text = (CONFIGS / "sim_force_step.cfg").read_text().split("[phase]")[0]
    modes = ("force", "position")
    text += "".join(f"[phase]\nmode = {mode}\nduration_s = {duration}\n{ref}\n" for mode in modes for ref, _ in kinds)
    res = rk.run_scenario(build_scenario(parse_config(text)))
    assert not res.diverged and res.n_steps == 2 * len(kinds) * n
    for i, (mode, (_, formula)) in enumerate((mode, kind) for mode in modes for kind in kinds):
        recorded, unused = ("F_ref_N", "x_ref_m") if mode == "force" else ("x_ref_m", "F_ref_N")
        k0 = i * n
        assert [res.ts[recorded][k].hex() for k in range(k0, k0 + n)] == [
            formula(k * dt - k0 * dt).hex() for k in range(k0, k0 + n)], (mode, i)
        assert np.isnan(res.ts[unused][k0:k0 + n]).all()


def test_scenario_rejects_nan_settings():
    sc, _ = linear_scenario()
    for field, message in (("dt", "dt must be > 0"), ("C_f", "C_f must be > 0"),
                           ("noise_std", "noise_std must be finite and >= 0")):
        with pytest.raises(ValueError, match=message):
            rk.Scenario(**{**sc.__dict__, field: math.nan})
    with pytest.raises(ValueError, match="noise_std must be finite and >= 0, got inf"):
        rk.Scenario(**{**sc.__dict__, "noise_std": math.inf})
    for make, field in ((rk.DesignSpec, "alpha"), (rk.AdaptationConfig, "deadband")):
        with pytest.raises(ValueError, match=field):
            make(**{field: math.nan})


@pytest.mark.parametrize("alpha", [math.inf, -math.inf, 0.0, -1.0])
def test_adaptation_config_refuses_a_design_alpha_outside_zero_to_inf(alpha):
    # an infinite alpha would leave every redesign of the run to be rejected; the spec refuses it instead
    with pytest.raises(ValueError, match=f"^alpha must be {'finite' if alpha == math.inf else '> 0'}, got {alpha}$"):
        rk.DesignSpec(alpha=alpha)
    assert rk.AdaptationConfig(spec=rk.DesignSpec(alpha=1e300)).spec.alpha == 1e300


def test_scenario_rejects_non_finite_gains_and_initial_state():
    sc, _ = linear_scenario()
    position = (rk.Phase(mode=rk.ControlMode.POSITION, duration=0.1),)
    for field in ("x0", "v0", "C_f", "K_P", "K_V"):
        for bad in (math.inf, -math.inf, math.nan):
            # with no force phase scheduled, C_f need not be > 0 but must still be finite
            with pytest.raises(ValueError, match=f"{field} must be finite, got {bad}"):
                rk.Scenario(**{**sc.__dict__, "phases": position, field: bad})
    assert rk.Scenario(**{**sc.__dict__, "phases": position, "C_f": 0.0}).C_f == 0.0


def test_phase_duration_must_be_whole_steps():
    sc, _ = linear_scenario()
    with pytest.raises(ValueError, match=r"phase 2 \(force\).*1\.5 steps"):
        rk.Scenario(**{**sc.__dict__, "phases": (force_phase(0.1, 1.0), force_phase(1.5e-4, 1.0))})
    for bad in (math.inf, math.nan, -1e-4):
        with pytest.raises(ValueError, match="finite and >= 0"):
            force_phase(bad, 1.0)
    # rounding-level misfits and zero durations are whole numbers of steps
    sc = rk.Scenario(**{**sc.__dict__, "phases": (force_phase(0.3, 1.0), force_phase(0.0, 1.0),
                                                  force_phase(0.7, 1.0))})
    assert rk.Simulator(sc)._phase_bounds == [0, 3000, 3000, 10000]


def test_phase_rejects_a_wave_that_is_not_a_triple():
    for waves in (((0.5, 2.0),), ((0.5, 2.0, 0.0, 1.0),), (0.5, 2.0, 0.0), ((0.5, 2.0, 0.0), (1.0,))):
        with pytest.raises(ValueError, match=r"\(amp, freq_hz, phase_rad\) triple"):
            rk.Phase(mode=rk.ControlMode.FORCE, duration=0.1, waves=waves)
    assert rk.Phase(mode=rk.ControlMode.FORCE, duration=0.1, waves=((0.5, 2.0, 0.0), [1.0, 3.0, 0.5])).waves[1][2] == 0.5


@pytest.mark.parametrize("duration, wave", [
    (2.0, (0.01, 2e307, 0.0)),  # w = 2*pi*freq_hz is finite, w*duration is not: math.sin(inf) raised mid-run
    (2.0, (0.01, 1e308, 0.0)),  # w is inf, so w*tau + ph was NaN from the first step
    (0.0, (0.01, -1e308, 0.0)),  # inf * 0 is NaN even on a zero-length phase
    (1.0, (0.01, -1e307, 1.7e308)),  # each term finite, their sum not
], ids=["argument_overflows", "w_infinite", "w_infinite_zero_duration", "sum_overflows"])
def test_phase_rejects_a_wave_whose_argument_overflows(duration, wave):
    message = r"sine argument, up to \|2\*pi\*freq_hz\|\*duration \+ \|phase_rad\|, must be finite"
    with pytest.raises(ValueError, match=message):
        rk.Phase(mode=rk.ControlMode.FORCE, duration=duration, offset=1.0, waves=((0.5, 2.0, 0.0), wave))
    amp, freq_hz, ph = wave  # an eighth of the frequency and half the phase keep the argument finite
    rk.Phase(mode=rk.ControlMode.FORCE, duration=duration, waves=((amp, freq_hz / 8.0, ph / 2.0),))


def test_ramp_spans_its_phase():
    sc, _ = linear_scenario()
    sc = rk.Scenario(**{**sc.__dict__, "phases": (
        rk.Phase(mode=rk.ControlMode.FORCE, duration=0.5, offset=0.5, ramp_end=2.5,
                 contact_hint=rk.ContactMode.CONTACT),
        force_phase(0.1, 1.0, hint=rk.ContactMode.CONTACT))})
    F_ref = rk.run_scenario(sc).ts["F_ref_N"]
    # the reference is sampled at the start of each step, so the phase's last
    # sample (k = 4999, t = 0.4999 s) is one step's increment short of `end`
    assert F_ref[0] == 0.5
    assert F_ref[2500] == pytest.approx(1.5, rel=1e-12)
    assert F_ref[4999] == pytest.approx(2.5 - 2.0 * 1e-4 / 0.5, rel=1e-12)
    assert F_ref[5000] == 1.0


def _switching_scenario(**ident):
    sc, _ = linear_scenario()
    phases = (rk.Phase(mode=rk.ControlMode.POSITION, duration=0.3,
                       offset=1e-4, contact_hint=None),
              force_phase(0.7, 1.0))
    return rk.Scenario(**{**sc.__dict__, "phases": phases, "always_in_contact": False,
                          "ident": rk.IdentConfig(**ident)})


def _online_scenario():
    """A contact onset under online adaptation: with g = alpha_g / alpha near 0.5/dt, the first
    redesigns are rejected as too fast and the later ones, on converged estimates, are applied."""
    sc, des = linear_scenario()
    return rk.Scenario(**{**sc.__dict__, "phases": (force_phase(0.5, 5.0),), "C_f": des.C_f, "x0": -0.001,
                          "env": rk.EnvImpedance(D_env=2.0, K_env=6500.0, x_env=0.001), "always_in_contact": False,
                          "adaptation": rk.AdaptationConfig(mode=rk.AdaptationMode.ONLINE, period_steps=100,
                                                            spec=rk.DesignSpec(alpha=0.0105), deadband=0.0),
                          "ident": rk.IdentConfig(enable_env=True, mu_c=1.0, gamma0_c=1e5,
                                                  delta0_c=(0.5, 3000.0, 0.0))})


def _noisy_filtered_scenario():
    """Velocity filter on and seeded noise, a unilateral contact the detector finds, both estimators on."""
    sc, _ = linear_scenario(duration=0.3)
    return rk.Scenario(**{**sc.__dict__, "phases": (force_phase(0.3, 2.0),), "velocity_filter_on": True,
                          "noise_std": 1e-3, "seed": 5, "always_in_contact": False,
                          "env": rk.EnvImpedance(D_env=2.0, K_env=6500.0, x_env=2e-4),
                          "ident": rk.IdentConfig(enable_plant=True, enable_env=True)})


def _free_then_auto_scenario():
    """Free motion identifies the plant, which folds into the RFOB as the auto-detected force phase starts."""
    sc, _ = linear_scenario()
    free = rk.Phase(mode=rk.ControlMode.POSITION, duration=0.5,
                    offset=-0.01, waves=((0.004, 4.0, 0.0), (0.002, 11.0, 1.0)),
                    contact_hint=rk.ContactMode.NON_CONTACT)
    return rk.Scenario(**{**sc.__dict__, "phases": (free, force_phase(0.3, 3.0)), "always_in_contact": False,
                          "plant": rk.PlantParams(M_m=3.02, K_F=0.5, F_d=1.5),
                          "friction": rk.FrictionParams(k_vsc=4.0, k_clmb=1.0),
                          "ident": rk.IdentConfig(enable_plant=True, enable_env=True, mu_nc=1.0, gamma0_nc=1e5)})


def _free_contact_free_scenario():
    """Position holds out of, into and back out of contact, found by the detector, with the plant estimator on."""
    sc, _ = linear_scenario()

    def hold(x):
        return rk.Phase(mode=rk.ControlMode.POSITION, duration=0.1, offset=x)

    return rk.Scenario(**{**sc.__dict__, "phases": (hold(-1e-3), hold(1e-3), hold(-1e-3)), "always_in_contact": False,
                          "env": rk.EnvImpedance(D_env=2.0, K_env=6500.0),
                          "ident": rk.IdentConfig(enable_plant=True, mu_nc=1.0, gamma0_nc=1e5)})


def _reference_kinds_scenario():
    sc, _ = linear_scenario()
    contact = rk.ContactMode.CONTACT
    refs = ({"waves": ((0.5, 20.0, 0.3),)}, {"waves": ((0.3, 7.0, 0.0), (0.2, 31.0, 1.1))}, {"ramp_end": 2.0})
    phases = tuple(rk.Phase(mode=rk.ControlMode.FORCE, duration=0.1, offset=1.0, **r, contact_hint=contact)
                   for r in refs)
    return rk.Scenario(**{**sc.__dict__, "phases": phases, "ident": rk.IdentConfig(enable_env=True)})


def _diverging_scenario():
    # overestimated identified inertia with high loop gain: the loop leaves x_limit within 2 s
    sc, _ = linear_scenario()
    return rk.Scenario(**{**sc.__dict__, "phases": (force_phase(2.0, 1.0, hint=rk.ContactMode.CONTACT),),
                          "dob": rk.DobConfig(M_mn=6.04, K_Fn=0.5, g_dob=500.0, g_v=1000.0),
                          "rfob": rk.RfobConfig(M_hat=6.04, K_F_hat=0.5, g_rfob=500.0), "C_f": 1.25,
                          "x_limit": 1.0, "v_limit": 100.0, "ident": rk.IdentConfig(enable_env=True)})


def _noisy_online_scenario():
    """_online_scenario with the velocity filter on, seeded noise and a phase bound at step 2550, in contact."""
    sc = _online_scenario()
    return rk.Scenario(**{**sc.__dict__, "phases": (force_phase(0.255, 5.0), force_phase(0.245, 5.0)),
                          "velocity_filter_on": True, "noise_std": 1e-3, "seed": 3})


def _noisy_diverging_scenario():
    """A 0.5 s position hold, then _diverging_scenario's force phase, with seeded noise: the loop diverges
    at step 5050, inside the chunk that starts at the phase bound, after a chunk has ended at NOISE_BLOCK."""
    sc = _diverging_scenario()
    hold = rk.Phase(mode=rk.ControlMode.POSITION, duration=0.5, contact_hint=rk.ContactMode.CONTACT)
    return rk.Scenario(**{**sc.__dict__, "phases": (hold, *sc.phases), "noise_std": 1e-3, "seed": 3})


def _multi_phase_scenario():
    """_online_scenario behind a ramped position phase with a wave, its force phase ramped with three waves: both
    phases are longer than NOISE_BLOCK and no multiple of it, and the force phase starts at step 4321."""
    sc = _online_scenario()
    position = rk.Phase(mode=rk.ControlMode.POSITION, duration=0.4321, offset=-1e-3, ramp_end=-5e-4,
                        waves=((1e-4, 3.0, 0.5),))
    force = rk.Phase(mode=rk.ControlMode.FORCE, duration=0.5003, offset=5.0, ramp_end=6.0,
                     waves=((0.5, 20.0, 0.3), (0.3, 7.0, 1.1), (0.2, 31.0, -0.7)))
    return rk.Scenario(**{**sc.__dict__, "phases": (position, force)})


def _overflowing_reference_scenario():
    """A force phase whose offset plus its wave overflows to inf on its first step, step 500."""
    sc, _ = linear_scenario()
    huge = rk.Phase(mode=rk.ControlMode.FORCE, duration=0.05, offset=1.7e308, waves=((1e308, 3.0, 1.0),),
                    contact_hint=rk.ContactMode.CONTACT)
    return rk.Scenario(**{**sc.__dict__, "phases": (force_phase(0.05, 1.0, hint=rk.ContactMode.CONTACT), huge)})


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.cfg") if "[phase]" in p.read_text()))
def test_step_loop_matches_the_reference_loop_on_bundled_configs(name):
    # design_combined.cfg schedules no phase, so it has nothing to simulate
    assert_same_run(build_scenario(parse_config((CONFIGS / name).read_text())))


def test_step_loop_matches_the_reference_loop_under_online_adaptation():
    events = assert_same_run(_online_scenario()).design_events
    assert any(e.applied for e in events) and any(not e.applied for e in events)


def test_step_loop_matches_the_reference_loop_with_noise_and_the_velocity_filter():
    res = assert_same_run(_noisy_filtered_scenario())
    assert set(np.unique(res.ts["contact_mode"])) == {0, 1, 2}


def test_step_loop_matches_the_reference_loop_across_the_rfob_fold():
    sc = _free_then_auto_scenario()
    sim = rk.Simulator(sc)
    sim._advance(5000)  # the whole free phase
    d = sim.est_nc.values
    assert (sim.rfob.M_hat, sim.rfob.F_d_hat) == (3.02, 0.0) and d[3] != 0.0
    sim._advance(sim._k + 1)
    assert (sim.rfob.M_hat, sim.rfob.friction.k_vsc, sim.rfob.friction.k_clmb, sim.rfob.F_d_hat) == (
        max(d[0], 1e-6), max(d[1], 0.0), max(d[2], 0.0), d[3])
    assert_same_run(sc, sim)


def test_step_loop_matches_the_reference_loop_where_both_clips_engage_under_forgetting():
    """The inlined updates clip and forget as RlmsEstimator.update does: a frictionless plant puts k_vsc and k_clmb
    on the default lower bound 0, and the contact phase's D_env bound of 1 lies below the true 2."""
    sc = _free_then_auto_scenario()
    sc = rk.Scenario(**{**sc.__dict__, "plant": PP, "friction": rk.FrictionParams(),
                        "phases": (sc.phases[0], force_phase(0.3, 3.0, hint=rk.ContactMode.CONTACT)),
                        "ident": rk.IdentConfig(enable_plant=True, enable_env=True, mu_nc=0.99, mu_c=0.99,
                                                delta0_c=(0.5, 3000.0, 0.0), bounds_c_max=(1.0, 1e6, 100.0))})
    ts = assert_same_run(sc).ts
    assert (ts["delta_k_vsc_Nspm"] == 0.0).any() and (ts["delta_k_clmb_N"] == 0.0).any()
    assert (ts["delta_D_env_Nspm"] == 1.0).any()


@pytest.mark.parametrize("k_clmb", [0.0, -0.0])
def test_zero_coulomb_terms_match_the_reference_loop_on_signed_zeros(k_clmb):
    """The step skips tanh where a Coulomb level is a zero; the plant and the RFOB (k_vsc = -0.0, k_clmb) from
    v0 = -0.0 still run as the reference loop's full friction term, across a fold that sets the RFOB's k_clmb."""
    sc = _free_then_auto_scenario()
    friction = rk.FrictionParams(k_vsc=-0.0, k_clmb=k_clmb)
    sc = rk.Scenario(**{**sc.__dict__, "friction": friction, "v0": -0.0,
                        "rfob": dataclasses.replace(sc.rfob, friction=friction)})
    sim = rk.Simulator(sc)
    assert_same_run(sc, sim)
    assert sim.rfob.friction.k_clmb != 0.0


def test_step_loop_restarts_the_free_motion_filters_after_a_contact_gap():
    res = assert_same_run(_free_contact_free_scenario())
    mode, innov = res.ts["contact_mode"], res.ts["innov_nc_N"]
    changes = np.flatnonzero(np.diff(mode) != 0) + 1
    assert mode[0] == 0 and mode[changes].tolist() == [1, 2, 0]
    k = int(changes[-1])  # free motion resumes after the contact gap
    # the restarted filters warm up for two samples, as at the start, before the estimator updates again
    assert np.flatnonzero(np.isnan(innov) & (mode == 0)).tolist() == [0, 1, k, k + 1]
    assert np.isfinite(innov[k + 2:]).all()


@pytest.mark.parametrize("make", [_switching_scenario, _reference_kinds_scenario, _diverging_scenario,
                                  _multi_phase_scenario, _overflowing_reference_scenario],
                         ids=["position_to_force", "reference_kinds", "divergence", "multi_phase",
                              "overflowing_reference"])
def test_step_loop_matches_the_reference_loop(make):
    sc = make()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflowing reference is a silent inf, as Python float arithmetic leaves it
        res = assert_same_run(sc)
    assert res.diverged == (make in (_diverging_scenario, _overflowing_reference_scenario))
    if make is _multi_phase_scenario:
        steps = np.diff(rk.Simulator(sc)._phase_bounds)
        assert (steps > NOISE_BLOCK).all() and (steps % NOISE_BLOCK != 0).all()
        assert any(e.applied for e in res.design_events)
    if make is _overflowing_reference_scenario:
        assert res.diverged_step == 500 and res.ts["F_ref_N"][500] == math.inf


@pytest.mark.parametrize("limits, k_div", [
    ({"x_limit": 100.0, "v_limit": 1e4, "dist_limit": 1e6}, 59),  # the defaults: F_hat_load leaves dist_limit first
    ({"x_limit": math.inf, "v_limit": math.inf, "dist_limit": math.inf}, 3118),  # only a non-finite x or v trips
    ({"x_limit": 0.5, "v_limit": math.inf, "dist_limit": math.inf}, 60),
    ({"x_limit": math.inf, "v_limit": 500.0, "dist_limit": math.inf}, 57),
], ids=["default_limits", "infinite_limits", "x_limit_crossed", "v_limit_crossed"])
def test_divergence_guard_trips_on_the_reference_loops_step(limits, k_div):
    """_diverging_scenario's unstable run under other limits diverges on the same step as LoopStepReference."""
    sc = rk.Scenario(**{**_diverging_scenario().__dict__, **limits})
    res = assert_same_run(sc)
    assert res.diverged and res.diverged_step == k_div
    x, v, F = (res.ts[name][-1] for name in ("x_m_m", "xdot_m_mps", "F_hat_load_N"))
    assert not (math.isfinite(x) and math.isfinite(v) and abs(x) <= sc.x_limit and abs(v) <= sc.v_limit
                and abs(F) <= sc.dist_limit)


@pytest.mark.parametrize("case", ["no_ident", "env_ident", "plant_ident", "online", "divergence",
                                  "noisy_online", "noisy_divergence"])
def test_stepped_simulator_records_as_run_scenario(case):
    """j one-step chunks, then run(), record what run_scenario does, for j on each kind of chunk boundary.

    Each one-step chunk draws its one noise sample on its own, and run() draws the rest chunk by chunk from
    there, so the noisy cases also check that the samples do not depend on where chunks end."""
    if case == "online":
        sc = _online_scenario()
        period = sc.adaptation.period_steps
        js = [3 * period - 1, 3 * period]  # the next step, or the last one stepped, is a redesign step
    elif case == "noisy_online":
        sc = _noisy_online_scenario()
        redesigns = {round(e.t / sc.dt) for e in rk.run_scenario(sc).design_events}
        assert 1799 in redesigns
        js = [1799, 1800, 2549, 2550]  # on either side of a redesign step and of the phase bound
    elif case == "divergence":
        sc = _diverging_scenario()
        k_div = rk.run_scenario(sc).diverged_step
        js = [k_div - 1, k_div]
    elif case == "noisy_divergence":
        sc = _noisy_diverging_scenario()
        k_div = rk.run_scenario(sc).diverged_step
        assert NOISE_BLOCK < 5000 < k_div < 5000 + NOISE_BLOCK
        js = [NOISE_BLOCK, k_div - 1, k_div]
    elif case == "plant_ident":
        sc = _free_then_auto_scenario()
        js = [1, 2, 4999, 5000]  # within the free-motion filters' warm-up, and the free -> force bound
    else:
        sc = _switching_scenario(**({"enable_env": True} if case == "env_ident" else {}))
        js = [2999, 3000]  # the position -> force bound
    sim = rk.Simulator(sc)
    while sim._advance(sim._k + 1):
        pass
    ran_res = rk.run_scenario(sc)
    assert sim._k == ran_res.n_steps == (ran_res.diverged_step + 1 if ran_res.diverged else sim.n_steps)
    assert ran_res.diverged == case.endswith("divergence")
    if case in ("no_ident", "env_ident"):
        assert sim._k == 10000
    stepped = {name: arr[:sim._k] for name, arr in sim.ts.items()}
    ran = ran_res.ts
    assert set(stepped) == set(ran) == set(TIMESERIES_COLUMNS)
    for name, arr in ran.items():
        assert arr.dtype == stepped[name].dtype == (np.int8 if name in ("ctrl_mode", "contact_mode") else np.float64)
        np.testing.assert_array_equal(stepped[name], arr, err_msg=name)  # NaN-aware
    for j in js:
        sim = rk.Simulator(sc)
        for _ in range(j):
            assert sim._advance(sim._k + 1)
        assert sim._k == j
        assert_same_run(sc, sim)


# a redesign every period in contact; a hinted phase, then an auto one; a divergence partway through a chunk
_SPLIT_SCENARIOS = {"noisy_online": _noisy_online_scenario, "free_then_auto": _free_then_auto_scenario,
                    "noisy_divergence": _noisy_diverging_scenario}


@functools.cache
def _recorded_run(name):
    """The simulator that ran the named scenario in one run() call, as run_scenario does, and its result."""
    sim = rk.Simulator(_SPLIT_SCENARIOS[name]())
    return sim, sim.run()


@pytest.mark.parametrize("name", sorted(_SPLIT_SCENARIOS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_any_chunk_split_records_as_run_scenario(name, data):
    """_advance through any increasing k_end sequence, one-step chunks included, then run(), records the same run."""
    ref, ref_res = _recorded_run(name)
    n, sc = ref.n_steps, ref.sc
    assert ref_res.diverged == (name == "noisy_divergence")
    # the loop's own chunk ends (phase bounds, redesign periods, noise blocks, a divergence), the steps where the
    # recorded contact mode changes, so a split falls on each edge of the detector state, and one step either
    # side of them
    edges = (np.flatnonzero(np.diff(ref_res.ts["contact_mode"])) + 1).tolist()
    own = {*ref._phase_bounds, *range(0, n, sc.adaptation.period_steps), *range(0, n, NOISE_BLOCK), *edges,
           *([ref_res.diverged_step] if ref_res.diverged else [])}
    near = sorted({k + d for k in own for d in (-1, 0, 1) if 0 <= k + d <= n})
    k_ends = sorted(set(data.draw(st.lists(st.one_of(st.integers(0, n + 1), st.sampled_from(near)), max_size=30))))
    sim = rk.Simulator(sc)
    for k_end in k_ends:
        sim._advance(k_end)
        assert sim._k == min(k_end, ref_res.n_steps)  # a diverged run stops after its diverged step
    res = sim.run()
    assert_same_record(sim, res, ref, ref_res)


def test_position_to_force_switch_lands_on_the_boundary_step():
    ts = rk.run_scenario(_switching_scenario()).ts
    k = 3000
    assert np.all(ts["ctrl_mode"][:k] == 1) and np.all(ts["ctrl_mode"][k:] == 0)
    assert np.all(ts["x_ref_m"][:k] == 1e-4) and np.all(np.isnan(ts["x_ref_m"][k:]))
    assert np.all(np.isnan(ts["F_ref_N"][:k])) and np.all(ts["F_ref_N"][k:] == 1.0)
    assert ts["t_s"][k] == pytest.approx(0.3001, rel=1e-12)


def _cut(sc, *seconds):
    """`sc` with its phases shortened to the given durations."""
    return rk.Scenario(**{**sc.__dict__, "phases": tuple(dataclasses.replace(p, duration=s)
                                                         for p, s in zip(sc.phases, seconds))})


def _unwritten_columns(sc):
    """The columns no step of `sc` writes: the reference of a mode no phase runs, an absent estimator's columns."""
    modes = {p.mode for p in sc.phases}
    cols = {ref for ref, mode in (("F_ref_N", rk.ControlMode.FORCE), ("x_ref_m", rk.ControlMode.POSITION))
            if mode not in modes}
    if not sc.ident.enable_plant:
        cols.update(("delta_M_m_kg", "delta_k_vsc_Nspm", "delta_k_clmb_N", "delta_F_d_N", "innov_nc_N"))
    if not sc.ident.enable_env:
        cols.update(("delta_D_env_Nspm", "delta_K_env_Npm", "delta_c_offset_N", "innov_c_N"))
    return cols


_ALLOC_SCENARIOS = {
    # design_combined.cfg schedules no phase, so it has nothing to simulate
    "identify_env.cfg": lambda: _cut(build_scenario(parse_config((CONFIGS / "identify_env.cfg").read_text())), 1.0),
    "identify_plant.cfg": lambda: _cut(build_scenario(parse_config((CONFIGS / "identify_plant.cfg").read_text())),
                                       1.0),
    "sim_force_step.cfg": lambda: build_scenario(parse_config((CONFIGS / "sim_force_step.cfg").read_text())),
    "position_to_force": lambda: _switching_scenario(),
}


@pytest.mark.parametrize("name", sorted(_ALLOC_SCENARIOS))
def test_a_run_allocates_only_the_columns_it_writes(name):
    """Traced allocations peak below the written columns, one phase tail's error and a few block-sized
    temporaries; every column no step writes is the one shared read-only NaN view, of no size."""
    import tracemalloc
    sc = _ALLOC_SCENARIOS[name]()
    rk.run_scenario(sc)  # compiles the step loop outside the trace
    tracemalloc.start()
    try:
        res = rk.run_scenario(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n, unwritten = res.n_steps, _unwritten_columns(sc)
    assert n >= 10_000 and not res.diverged
    written = sum(n * (1 if col.endswith("_mode") else 8) for col in TIMESERIES_COLUMNS if col not in unwritten)
    tail = 8 * max(int(0.2 * k) for k in np.diff(rk.Simulator(sc)._phase_bounds))
    assert peak < written + tail + 8 * 8 * NOISE_BLOCK, (peak, written, tail)
    for col in TIMESERIES_COLUMNS:
        a = res.ts[col]
        assert a.shape == (n,) and a.dtype == (np.int8 if col.endswith("_mode") else np.float64), col
        if col in unwritten:
            assert a.strides == (0,) and not a.flags.writeable and np.isnan(a).all(), col
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
        else:
            assert a.strides == (a.itemsize,) and a.flags.writeable, col


@pytest.mark.parametrize("make", [_switching_scenario, _noisy_online_scenario, _noisy_diverging_scenario,
                                  _multi_phase_scenario, _free_then_auto_scenario],
                         ids=["position_to_force", "noisy_online", "noisy_divergence", "multi_phase", "free_then_auto"])
def test_streamed_windows_record_what_run_scenario_records(make):
    """run_scenario(sc, on_window) hands over the record NOISE_BLOCK rows at a time, from each multiple of NOISE_BLOCK,
    and the windows joined are run_scenario(sc).ts bit for bit; its result holds whole only the columns the phase
    summary reads, and summarises the run as run_scenario(sc) does."""
    sc = make()
    whole = rk.run_scenario(sc)
    windows = []
    streamed = rk.run_scenario(sc, lambda window: windows.append({name: a.copy() for name, a in window.items()}))
    sizes = [w["t_s"].size for w in windows]
    assert sizes[:-1] == [NOISE_BLOCK] * (len(sizes) - 1) and 0 < sizes[-1] <= NOISE_BLOCK
    for name in TIMESERIES_COLUMNS:
        assert np.concatenate([w[name] for w in windows]).tobytes() == whole.ts[name].tobytes(), name
    modes = {p.mode for p in sc.phases}
    kept = {name for name, a in streamed.ts.items() if a.strides != (0,)}
    assert kept == {name for mode, names in ((rk.ControlMode.FORCE, ("F_ref_N", "F_hat_load_N")),
                                             (rk.ControlMode.POSITION, ("x_ref_m", "x_m_m"))) if mode in modes
                    for name in names}
    assert repr(streamed.summary_dict()) == repr(whole.summary_dict())  # repr: NaN fields compare too


def _whole_phase_summaries(sim, ts):
    """Each phase's (ss_error, settling_time, max_rfob_error) from one array per quantity over the whole phase:
    the reference for Simulator._summarize_phases, which runs NOISE_BLOCK steps at a time."""
    out = []
    t = ts["t_s"]
    for i, phase in enumerate(sim.sc.phases):
        k0 = sim._phase_bounds[i]
        k1 = min(sim._phase_bounds[i + 1], sim._k)
        if k1 <= k0:
            continue
        if phase.mode is rk.ControlMode.FORCE:
            err = np.abs(ts["F_hat_load_N"][k0:k1] - ts["F_ref_N"][k0:k1])
            ref_scale = max(np.nanmax(np.abs(ts["F_ref_N"][k0:k1])), 1e-12)
        else:
            err = np.abs(ts["x_m_m"][k0:k1] - ts["x_ref_m"][k0:k1])
            ref_scale = max(np.nanmax(np.abs(ts["x_ref_m"][k0:k1])), 1e-12)
        tail = max(1, int(0.2 * (k1 - k0)))
        ss_error = float(np.mean(err[-tail:]))
        outside = np.flatnonzero(~(err < 0.01 * ref_scale))
        j = 0 if outside.size == 0 else int(outside[-1]) + 1
        settle = float("nan") if j >= err.size else float(t[k0 + j] - k0 * sim.dt)
        rfob_err = float(np.max(np.abs(ts["F_hat_load_N"][k0:k1] - ts["F_load_N"][k0:k1])))
        out.append((ss_error, settle, rfob_err))
    return out


def assert_summaries_match_the_whole_phase_formula(sim, ts):
    """The block-wise summary of `ts`, handed to `sim` NOISE_BLOCK steps at a time as the step loop's windows are,
    gives the whole-phase formula's floats (NaN included) and its warnings.  `sim` has recorded no window yet; the
    windows leave one RFOB-error maximum per window a phase covers in that phase's fold."""
    with warnings.catch_warnings(record=True) as caught_ref:
        warnings.simplefilter("always")
        expected = _whole_phase_summaries(sim, ts)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for base in range(0, sim._k, NOISE_BLOCK):
            sim._summarize_window(base, {name: a[base:base + NOISE_BLOCK] for name, a in ts.items()})
        got = [(s.ss_error, s.settling_time, s.max_rfob_error) for s in sim._summarize_phases(ts)]
    assert [[v.hex() for v in s] for s in got] == [[v.hex() for v in s] for s in expected]
    bounds = [min(b, sim._k) for b in sim._phase_bounds]
    assert [len(fold) for fold in sim._phase_folds] == [len({k // NOISE_BLOCK for k in range(b0, b1)})
                                                        for b0, b1 in zip(bounds, bounds[1:])]
    assert {(w.category, str(w.message)) for w in caught} == {(w.category, str(w.message)) for w in caught_ref}
    return expected, {str(w.message) for w in caught_ref}


_SUMMARY_CASES = ("in_band", "first_block", "block_end", "block_start", "last_step", "nonfinite_load_estimate",
                  "infinite_reference", "nan_in_reference", "nan_reference")


@pytest.mark.parametrize("case", _SUMMARY_CASES)
@pytest.mark.parametrize("mode", ["force", "position"])
@pytest.mark.parametrize("steps", [1, NOISE_BLOCK - 1, NOISE_BLOCK, NOISE_BLOCK + 1, 3 * NOISE_BLOCK + 1,
                                   6 * NOISE_BLOCK + 1])  # the last: a tail longer than a block
def test_block_wise_summary_matches_the_whole_phase_formula(mode, steps, case):
    """A phase of `steps` steps, after a 3-step phase of the other mode so its blocks start off the grid of k."""
    lead, dt = 3, 1e-4
    main = rk.ControlMode.FORCE if mode == "force" else rk.ControlMode.POSITION
    other = rk.ControlMode.POSITION if mode == "force" else rk.ControlMode.FORCE
    sc, _ = linear_scenario()
    sim = rk.Simulator(rk.Scenario(**{**sc.__dict__, "phases": (
        dataclasses.replace(sc.phases[0], mode=other, duration=0.1), dataclasses.replace(sc.phases[0], mode=main))}))
    n = lead + steps
    sim._phase_bounds, sim._k = [0, lead, n], n
    rng = np.random.default_rng([steps, _SUMMARY_CASES.index(case), mode == "force"])
    ref = 1.0 + 0.5 * np.sin(0.01 * np.arange(n))
    y = ref * (1.0 + 5e-3 * rng.uniform(-1.0, 1.0, n))  # inside the 1% band of the largest |ref|
    lead_ref = ref[::-1].copy()  # the lead phase reads the other mode's columns
    if mode == "force":
        ts = {"F_ref_N": ref, "F_hat_load_N": y, "F_load_N": ref.copy(), "x_ref_m": lead_ref, "x_m_m": lead_ref}
    else:
        F_hat, F_load = rng.standard_normal((2, n))
        ts = {"x_ref_m": ref, "x_m_m": y, "F_ref_N": lead_ref, "F_hat_load_N": F_hat, "F_load_N": F_load}
    ts["t_s"] = np.arange(n) * dt + dt  # as the step loop writes it
    last = {"first_block": 17, "block_end": NOISE_BLOCK - 1, "block_start": NOISE_BLOCK, "last_step": steps - 1}
    if case in last:
        y[lead + min(last[case], steps - 1)] += 1.0
    elif case == "nonfinite_load_estimate":
        ts["F_hat_load_N"][lead + rng.integers(0, steps, 3)] = (np.nan, np.inf, -np.inf)
    elif case == "infinite_reference":
        k = lead + rng.integers(0, steps, 2)
        ref[k] = np.inf, -np.inf
        y[k[0]] = ref[k[0]]  # inf - inf: a NaN error, with numpy's warning
    elif case == "nan_in_reference":
        ref[lead + rng.integers(0, steps, 2)] = np.nan
    elif case == "nan_reference":
        ref[lead:] = np.nan
    (_, (ss, settle, rfob)), messages = assert_summaries_match_the_whole_phase_formula(sim, ts)
    if case == "in_band":
        assert settle == pytest.approx(dt) and ss < 1e-2 and not messages  # settled from the first step
    elif case == "infinite_reference":
        assert messages == {"invalid value encountered in subtract"}
    elif case == "nan_reference":
        assert math.isnan(ss) and math.isnan(settle) and messages == {"All-NaN slice encountered"}


def test_block_wise_summary_matches_the_whole_phase_formula_on_a_diverging_run():
    """Infinite limits let the load estimate run to inf and NaN before x or v leaves the finite range."""
    sc = rk.Scenario(**{**_diverging_scenario().__dict__, "x_limit": math.inf, "v_limit": math.inf,
                        "dist_limit": math.inf})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the step loop's own overflow is not what this test checks
        res = rk.run_scenario(sc)
    F_hat = res.ts["F_hat_load_N"]
    assert res.diverged and not np.isfinite(F_hat).all()
    sim = rk.Simulator(sc)  # summarises the run's record window by window
    sim._k = res.n_steps
    assert_summaries_match_the_whole_phase_formula(sim, res.ts)

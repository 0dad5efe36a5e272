import math

import numpy as np
import pytest

import rfobkit as rk
from rfobkit.design import EnvClass
from rfobkit.engine import TIMESERIES_COLUMNS
from rfobkit.loop_model import closed_loop_force_tf, step_response

ENV = rk.EnvImpedance(D_env=2.0, K_env=6500.0)
PP = rk.PlantParams(M_m=3.02, K_F=0.5)


def force_phase(duration, value, hint=rk.ContactHint.AUTO):
    return rk.Phase(mode=rk.ControlMode.FORCE, duration=duration,
                    reference=rk.Reference(kind="const", value=value), contact_hint=hint)


def linear_scenario(dt=1e-4, duration=0.5, F_ref=1.0, g=None, C_f=None):
    des = rk.design_damping_stiffness(3.02, 2.0, 6500.0, 1000.0, rk.DesignSpecC(k_hint=0.5))
    g = g if g is not None else rk.split_alpha_g(des, 1.0)[0]
    return rk.Scenario(
        plant=PP,
        friction=rk.FrictionParams(),
        env=ENV,
        dob=rk.DobConfig(M_mn=3.02, K_Fn=0.5, g_dob=g, g_v=1000.0),
        rfob=rk.RfobConfig(M_hat=3.02, K_F_hat=0.5, g_rfob=g),
        phases=(force_phase(duration, F_ref, hint=rk.ContactHint.CONTACT),),
        dt=dt,
        C_f=C_f if C_f is not None else des.C_f,
        always_in_contact=True,
        velocity_filter_on=False,
    ), des


def test_controllers():
    assert rk.force_controller(1.0, 1.0, 5.0) == 0.0
    assert rk.force_controller(1.0, 0.0, 5.0) == 5.0
    assert rk.force_controller(1.0, 0.0, 10.0) == 2.0 * rk.force_controller(1.0, 0.0, 5.0)
    assert rk.pd_position_controller(0.0, 0.0, 0.0, 1200.0, 90.0) == 0.0
    assert rk.pd_position_controller(0.01, 0.0, 0.0, 1200.0, 90.0) == pytest.approx(12.0)


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
    des = rk.design_damping(0.81, 2.0, 1000.0, rk.DesignSpecA(xi=0.7071, gamma=0.15))
    g = rk.split_alpha_g(des, 1.0)[0]
    env = rk.EnvImpedance(D_env=2.0)
    sc = rk.Scenario(
        plant=rk.PlantParams(M_m=0.81, K_F=0.5),
        friction=rk.FrictionParams(),
        env=env,
        dob=rk.DobConfig(M_mn=0.81, K_Fn=0.5, g_dob=g, g_v=1000.0),
        rfob=rk.RfobConfig(M_hat=0.81, K_F_hat=0.5, g_rfob=g),
        phases=(force_phase(0.3, 1.0, hint=rk.ContactHint.CONTACT),),
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
    des = rk.design_stiffness(3.02, 6500.0, 1000.0, rk.DesignSpecB(xi=1.0, eta=2.0))
    g = rk.split_alpha_g(des, 1.0)[0]
    env = rk.EnvImpedance(K_env=6500.0)
    sc = rk.Scenario(
        plant=PP,
        friction=rk.FrictionParams(),
        env=env,
        dob=rk.DobConfig(M_mn=3.02, K_Fn=0.5, g_dob=g, g_v=1000.0),
        rfob=rk.RfobConfig(M_hat=3.02, K_F_hat=0.5, g_rfob=g),
        phases=(force_phase(0.5, 1.0, hint=rk.ContactHint.CONTACT),),
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
        phases=(force_phase(2.0, 1.0, hint=rk.ContactHint.CONTACT),),
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
        force_phase(1.5, 5.0, hint=rk.ContactHint.CONTACT),
        rk.Phase(mode=rk.ControlMode.POSITION, duration=2.5,
                 reference=rk.Reference(kind="multisine", offset=-0.025,
                                        components=((0.012, 1.2, 0.0), (0.006, 0.35, 1.0))),
                 contact_hint=rk.ContactHint.FREE),
        force_phase(1.5, 5.0, hint=rk.ContactHint.CONTACT),
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
    des = rk.design_damping_stiffness(3.02, 2.0, 6500.0, 1000.0, rk.DesignSpecC(k_hint=0.5))
    g = rk.split_alpha_g(des, 1.0)[0]
    sc = rk.Scenario(
        plant=PP, friction=rk.FrictionParams(),
        env=rk.EnvImpedance(D_env=2.0, K_env=6500.0, x_env=0.001),
        dob=rk.DobConfig(M_mn=3.02, K_Fn=0.5, g_dob=g, g_v=1000.0),
        rfob=rk.RfobConfig(M_hat=3.02, K_F_hat=0.5, g_rfob=g),
        phases=(force_phase(1.0, 5.0),),
        dt=1e-4, C_f=des.C_f, x0=-0.001,
        velocity_filter_on=False,
        adaptation=rk.AdaptationConfig(mode=rk.AdaptationMode.ONLINE, period_steps=100,
                                       design_alpha=1.0),
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


def test_online_adaptation_converges_to_truth_design():
    """Identified impedance feeding the re-design reproduces the truth-based gains."""
    des_truth = rk.design_damping_stiffness(3.02, 2.0, 6500.0, 1000.0, rk.DesignSpecC(k_hint=0.5))
    g0 = rk.split_alpha_g(des_truth, 1.0)[0]
    sc = rk.Scenario(
        plant=PP, friction=rk.FrictionParams(), env=ENV,
        dob=rk.DobConfig(M_mn=3.02, K_Fn=0.5, g_dob=g0, g_v=1000.0),
        rfob=rk.RfobConfig(M_hat=3.02, K_F_hat=0.5, g_rfob=g0),
        phases=(rk.Phase(mode=rk.ControlMode.FORCE, duration=3.0,
                         reference=rk.Reference(kind="multisine", offset=5.0,
                                                components=((2.0, 3.0, 0.0), (1.5, 1.3, 0.7)))),),
        dt=5e-5, C_f=des_truth.C_f, velocity_filter_on=False,
        adaptation=rk.AdaptationConfig(mode=rk.AdaptationMode.ONLINE, period_steps=200,
                                       design_alpha=1.0),
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
                        # g = alpha_g / design_alpha is far too fast for dt: g*dt >= 0.5.  The
                        # deadband puts every estimate near the anchor, had one been set.
                        "adaptation": rk.AdaptationConfig(mode=rk.AdaptationMode.ONLINE, period_steps=period,
                                                          design_alpha=1e-4, deadband=1e9),
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
                                                          design_alpha=1.0)})
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
                                                          design_alpha=1.0)})
    sim = rk.Simulator(sc)
    assert sim.rfob.lpf.g == pytest.approx(rk.split_alpha_g(des, 1.0)[0], rel=1e-9)
    assert sim.rfob.lpf.g != 500.0
    assert sim.bank_c._c == sim.rfob.lpf._c


def test_phase_disturbance_override():
    sc, _ = linear_scenario(duration=0.5)
    phases = (rk.Phase(mode=rk.ControlMode.FORCE, duration=0.5,
                       reference=rk.Reference(kind="const", value=1.0),
                       contact_hint=rk.ContactHint.CONTACT, F_d_override=0.7),)
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
    assert rk.Reference(kind="const", value=2.0)(10.0) == 2.0
    r = rk.Reference(kind="sine", offset=1.0, amp=2.0, freq_hz=0.25)
    assert r(1.0) == pytest.approx(3.0)
    r = rk.Reference(kind="ramp", start=0.0, end=4.0, duration=2.0)
    assert r(1.0) == pytest.approx(2.0)
    assert r(5.0) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        rk.Reference(kind="wiggle")(0.0)


def test_scenario_rejects_nan_settings():
    sc, _ = linear_scenario()
    for field, message in (("dt", "dt must be > 0"), ("C_f", "C_f must be > 0"),
                           ("noise_std", "noise_std must be >= 0")):
        with pytest.raises(ValueError, match=message):
            rk.Scenario(**{**sc.__dict__, field: math.nan})
    for field in ("design_alpha", "deadband"):
        with pytest.raises(ValueError, match=field):
            rk.AdaptationConfig(**{field: math.nan})


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


def test_ramp_spans_its_phase():
    sc, _ = linear_scenario()
    ramp = rk.Reference(kind="ramp", start=0.5, end=2.5)  # no duration given
    sc = rk.Scenario(**{**sc.__dict__, "phases": (
        rk.Phase(mode=rk.ControlMode.FORCE, duration=0.5, reference=ramp, contact_hint=rk.ContactHint.CONTACT),
        force_phase(0.1, 1.0, hint=rk.ContactHint.CONTACT))})
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
                       reference=rk.Reference(kind="const", value=1e-4), contact_hint=rk.ContactHint.AUTO),
              force_phase(0.7, 1.0))
    return rk.Scenario(**{**sc.__dict__, "phases": phases, "always_in_contact": False,
                          "ident": rk.IdentConfig(**ident)})


@pytest.mark.parametrize("ident", [{}, {"enable_env": True}], ids=["no_ident", "env_ident"])
def test_stepped_simulator_records_as_run_scenario(ident):
    sc = _switching_scenario(**ident)
    sim = rk.Simulator(sc)
    while sim.step():
        pass
    assert sim._k == sim.n_steps == 10000
    stepped = {name: arr[:sim._k] for name, arr in sim.ts.items()}
    ran = rk.run_scenario(sc).ts
    assert set(stepped) == set(ran) == set(TIMESERIES_COLUMNS)
    for name, arr in ran.items():
        assert arr.dtype == stepped[name].dtype == (np.int8 if name in ("ctrl_mode", "contact_mode") else np.float64)
        np.testing.assert_array_equal(stepped[name], arr, err_msg=name)  # NaN-aware


def test_position_to_force_switch_lands_on_the_boundary_step():
    ts = rk.run_scenario(_switching_scenario()).ts
    k = 3000
    assert np.all(ts["ctrl_mode"][:k] == 1) and np.all(ts["ctrl_mode"][k:] == 0)
    assert np.all(ts["x_ref_m"][:k] == 1e-4) and np.all(np.isnan(ts["x_ref_m"][k:]))
    assert np.all(np.isnan(ts["F_ref_N"][:k])) and np.all(ts["F_ref_N"][k:] == 1.0)
    assert ts["t_s"][k] == pytest.approx(0.3001, rel=1e-12)

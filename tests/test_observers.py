import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rfobkit.observers import (
    DisturbanceObserver,
    DobConfig,
    RatioReport,
    RfobConfig,
    lpf_pole,
    robustness_bound_check,
)
from rfobkit.plant import FrictionParams, PlantParams
from test_plant import friction_force


# The filter and observer steps that Simulator._advance writes out, kept as bit-for-bit references
# for LoopStepReference.  `lpf_step` maps the pole, output and input to the new output; `observer_step`
# updates the filter output and estimate the observer holds.

def lpf_step(c: float, y: float, u: float) -> float:
    return c * y + (1.0 - c) * u


def observer_step(obs: DisturbanceObserver, i_m_total: float, xdot: float) -> float:
    gm = obs.g * obs.M
    u = obs.K_F * i_m_total + gm * xdot
    if obs.friction is not None:
        u -= friction_force(xdot, obs.friction)
    obs.y = lpf_step(obs.c, obs.y, u - obs.F_d)
    obs.F_hat = obs.y - gm * xdot
    return obs.F_hat


def test_lpf_dc_gain():
    c = lpf_pole(g=100.0, dt=1e-3)
    y = 0.0
    for _ in range(2000):
        y = lpf_step(c, y, 3.0)
    assert y == pytest.approx(3.0, rel=1e-9)


def test_lpf_one_time_constant():
    # exact pole placement: after n = 1/(g dt) steps the step response is 1 - e^-1
    g, dt = 1000.0, 1e-4
    c = lpf_pole(g, dt)
    n = int(round(1.0 / (g * dt)))
    y = 0.0
    for _ in range(n):
        y = lpf_step(c, y, 1.0)
    assert y == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)


def test_velocity_filter_table_values_accepted():
    assert lpf_pole(g=1000.0, dt=1e-4) == math.exp(-0.1)  # the engine's velocity filter at g_v = 1000 rad/s


def test_lpf_rejects_fast_cutoff():
    with pytest.raises(ValueError, match="cutoff too fast for this sample time"):
        lpf_pole(g=1000.0, dt=1e-3)
    with pytest.raises(ValueError, match="cutoff too fast for this sample time"):
        DisturbanceObserver(1.0, 0.5, g=1000.0, dt=1e-3)


@pytest.mark.parametrize("g, dt", [(0.0, 1e-4), (-5.0, 1e-4), (100.0, 0.0), (100.0, -1e-4), (1e4, 1e-4),
                                   (math.nan, 1e-4), (100.0, math.nan)])
def test_lpf_pole_rejects_invalid_cutoffs(g, dt):
    with pytest.raises(ValueError):
        lpf_pole(g, dt)
    obs, twin = DisturbanceObserver(1.0, 0.5, 100.0, 1e-4), DisturbanceObserver(1.0, 0.5, 100.0, 1e-4)
    observer_step(obs, 1.0, 0.3)
    observer_step(twin, 1.0, 0.3)
    if dt > 0.0:
        with pytest.raises(ValueError):
            obs.retune(g, 0.3)  # a rejected retune leaves the observer as it was
    assert obs.g == 100.0 and (obs.c, obs.y) == (twin.c, twin.y)
    assert observer_step(obs, 1.0, 0.3) == observer_step(twin, 1.0, 0.3)


@pytest.mark.parametrize("name", ["M_mn", "K_Fn", "g_dob", "g_v", "M_hat", "K_F_hat", "g_rfob"])
def test_observer_configs_reject_nan(name):
    dob = dict(M_mn=1.0, K_Fn=0.5, g_dob=500.0, g_v=1000.0)
    rfob = dict(M_hat=1.0, K_F_hat=0.5, g_rfob=500.0)
    cls, kwargs = (DobConfig, dob) if name in dob else (RfobConfig, rfob)
    with pytest.raises(ValueError, match=f"{name} must be > 0, got nan"):
        cls(**{**kwargs, name: math.nan})


@pytest.mark.parametrize("cls, name, value", [
    *((DobConfig, name, math.inf) for name in ("M_mn", "K_Fn", "g_dob", "g_v")),
    *((RfobConfig, name, math.inf) for name in ("M_hat", "K_F_hat", "g_rfob", "F_d_hat")),
    (RfobConfig, "F_d_hat", math.nan), (RfobConfig, "F_d_hat", -math.inf),
])
def test_observer_configs_reject_non_finite(cls, name, value):
    kwargs = dict(M_mn=1.0, K_Fn=0.5, g_dob=500.0, g_v=1000.0) if cls is DobConfig else dict(
        M_hat=1.0, K_F_hat=0.5, g_rfob=500.0)
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
        cls(**{**kwargs, name: value})


def test_dob_estimates_constant_disturbance():
    # plant held at rest by an external agent, constant disturbance enters the balance
    dob = DisturbanceObserver(M=1.0, K_F=0.5, g=300.0, dt=1e-4)
    # zero velocity, current exactly cancels a 2 N disturbance: F_dis = K_Fn*i = 2
    f = 0.0
    for _ in range(3000):
        f = observer_step(dob, 4.0, 0.0)
    assert f == pytest.approx(2.0, rel=1e-9)


def test_dob_zero_state_zero_output():
    dob = DisturbanceObserver(M=1.0, K_F=0.5, g=300.0, dt=1e-4)
    assert observer_step(dob, 0.0, 0.0) == 0.0


def test_rfob_steady_state_with_friction_error():
    # measured velocity constant; steady output is K_hat*i - F_fric_hat - F_d_hat,
    # so a friction misestimate shifts the estimate one-for-one
    fric_true = FrictionParams(k_vsc=3.0, k_clmb=1.0, eps=1e-3)
    fric_hat = FrictionParams(k_vsc=3.0, k_clmb=0.4, eps=1e-3)
    v = 0.2
    F_load = 5.0
    K_F = 0.5
    # current balancing friction + load at constant velocity
    i = (F_load + friction_force(v, fric_true)) / K_F
    rfob = DisturbanceObserver(M=1.3, K_F=K_F, g=400.0, dt=1e-4, friction=fric_hat)
    f = 0.0
    for _ in range(3000):
        f = observer_step(rfob, i, v)
    d_fric = friction_force(v, fric_true) - friction_force(v, fric_hat)
    assert f == pytest.approx(F_load + d_fric, rel=1e-9)


def test_rfob_perfect_model_recovers_load():
    fric = FrictionParams(k_vsc=3.0, k_clmb=1.0, eps=1e-3)
    v = -0.1
    F_load = 2.5
    K_F = 0.5
    i = (F_load + friction_force(v, fric)) / K_F
    rfob = DisturbanceObserver(M=1.3, K_F=K_F, g=400.0, dt=1e-4, friction=fric)
    f = 0.0
    for _ in range(3000):
        f = observer_step(rfob, i, v)
    assert f == pytest.approx(F_load, rel=1e-9)


_MODEL = {
    "dob": {},
    "rfob": {"friction": FrictionParams(k_vsc=3.0, k_clmb=1.2, eps=1e-3), "F_d": -4.0},
}
_inputs = st.tuples(st.floats(-20.0, 20.0), st.floats(-1.0, 1.0))


@pytest.mark.parametrize("model", ["dob", "rfob"])
@given(
    M=st.floats(0.1, 10.0),
    K_F=st.floats(0.1, 2.0),
    g=st.floats(10.0, 2000.0),
    g_new=st.floats(10.0, 2000.0),
    dt=st.sampled_from([2e-5, 5e-5, 1e-4]),
    history=st.lists(_inputs, min_size=1, max_size=50),
)
def test_observer_retune_is_bumpless(model, M, K_F, g, g_new, dt, history):
    obs = DisturbanceObserver(M, K_F, g, dt, **_MODEL[model])
    for i, xdot in history:
        observer_step(obs, i, xdot)
    xdot = history[-1][1]
    before = obs.F_hat
    obs.retune(g_new, xdot)
    after = obs.y - obs.g * obs.M * xdot  # the output re-evaluated at the same xdot
    scale = abs(obs.y) + (g + g_new) * M * abs(xdot)
    assert obs.g == g_new and obs.c == lpf_pole(g_new, dt)
    assert after == pytest.approx(before, abs=1e-13 * scale + 1e-300)
    with pytest.raises(ValueError):
        obs.retune(2.0 / dt, xdot)  # rejected before the state is touched
    assert obs.g == g_new and obs.c == lpf_pole(g_new, dt) and obs.y - g_new * M * xdot == after


@pytest.mark.parametrize("model", ["dob", "rfob"])
@given(
    M=st.floats(0.1, 10.0),
    K_F=st.floats(0.1, 2.0),
    g=st.floats(100.0, 2000.0),
    dt=st.sampled_from([2e-5, 5e-5, 1e-4]),
    inputs=_inputs,
)
def test_observer_converges_to_exact_equilibrium(model, M, K_F, g, dt, inputs):
    i, xdot = inputs
    terms = _MODEL[model]
    obs = DisturbanceObserver(M, K_F, g, dt, **terms)
    n = math.ceil(30.0 / (g * dt))  # exp(-g dt n) < 1e-13
    for _ in range(n):
        out = observer_step(obs, i, xdot)
    fric = friction_force(xdot, terms["friction"]) if "friction" in terms else 0.0
    equilibrium = K_F * i - fric - terms.get("F_d", 0.0)
    scale = abs(K_F * i) + g * M * abs(xdot) + abs(fric) + abs(terms.get("F_d", 0.0))
    assert out == pytest.approx(equilibrium, abs=1e-11 * scale + 1e-300)


@given(alpha=st.floats(0.1, 10.0), g=st.floats(10.0, 2000.0), gv=st.floats(10.0, 5000.0))
def test_bound_check_equivalences(alpha, g, gv):
    # with g_v = kappa*g the inner loop is s^2 + kappa*g*s + alpha*kappa*g^2, damped at
    # xi = sqrt(kappa/alpha)/2: xi >= 0.707 iff kappa >= 2 alpha iff alpha*g <= gv/2
    check = robustness_bound_check(alpha, g, gv)
    kappa = gv / g
    xi = 0.5 * math.sqrt(kappa / alpha)
    assert check.passed == (kappa >= 2.0 * alpha - 1e-12) == (xi >= math.sqrt(0.5) - 1e-12)


def test_bound_check_examples():
    c = robustness_bound_check(1.0, 500.0, 1000.0)
    assert c.passed and c.margin == pytest.approx(0.0, abs=1e-9)
    assert not robustness_bound_check(2.0, 500.0, 1000.0).passed
    c = robustness_bound_check(0.5, 500.0, 1000.0)
    assert c.passed and c.margin == pytest.approx(250.0, rel=1e-12)


def test_bound_check_passes_the_rounding_an_on_bound_design_leaves():
    # an on-bound design may place g_dob one ulp above g_v/2, at 500.00000000000006
    c = robustness_bound_check(1.0, 500.00000000000006, 1000.0)
    assert c.passed and c.margin == -5.684341886080802e-14
    assert not robustness_bound_check(1.0, 500.0 * (1 + 1e-14), 1000.0).passed


@given(
    m_m=st.floats(0.1, 10.0),
    m_hat=st.floats(0.1, 10.0),
    k_f=st.floats(0.1, 2.0),
    k_hat=st.floats(0.1, 2.0),
)
def test_ratio_report_identity(m_m, m_hat, k_f, k_hat):
    # beta < alpha iff K_hat/M_hat < K_F/M_m with the nominals fixed
    pp = PlantParams(M_m=m_m, K_F=k_f)
    dob = DobConfig(M_mn=2.0, K_Fn=0.5, g_dob=100.0, g_v=1000.0)
    rfob = RfobConfig(M_hat=m_hat, K_F_hat=k_hat, g_rfob=100.0)
    r = RatioReport.from_configs(pp, dob, rfob)
    assert (r.beta < r.alpha) == (k_hat / m_hat < k_f / m_m)


def test_inner_loop_accel_transfer_matches_first_order_model():
    """Closed inner loop with ideal velocity measurement follows alpha*(s+g)/(s+alpha*g)."""

    def simulate_gain(alpha, g_dob, omega, dt, T):
        M_m, K_F = 2.0, 0.5
        M_mn = alpha * M_m
        dob = DisturbanceObserver(M_mn, K_F, g_dob, dt)
        mn_over_kfn = M_mn / K_F
        v = 0.0
        n = int(round(T / dt))
        ts, acc = np.empty(n), np.empty(n)
        for k in range(n):
            t = k * dt
            xddot_des = math.sin(omega * t)
            i = mn_over_kfn * xddot_des + dob.F_hat / K_F
            observer_step(dob, i, v)
            a = K_F * i / M_m
            v += a * dt
            ts[k] = t
            acc[k] = a
        half = n // 2
        basis = np.column_stack([np.sin(omega * ts[half:]), np.cos(omega * ts[half:])])
        coef, *_ = np.linalg.lstsq(basis, acc[half:], rcond=None)
        return complex(coef[0], coef[1])

    alpha, g, omega = 2.0, 100.0, 50.0
    s = 1j * omega
    expected = alpha * (s + g) / (s + alpha * g)
    devs = []
    for dt in (4e-5, 2e-5):
        got = simulate_gain(alpha, g, omega, dt, T=0.6)
        devs.append(abs(got - expected))
    got = simulate_gain(alpha, g, omega, 2e-5, T=0.6)
    assert abs(got) == pytest.approx(abs(expected), rel=0.02)
    assert devs[1] <= 0.65 * devs[0] + 1e-4

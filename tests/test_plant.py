import math

import pytest
from hypothesis import given, strategies as st

from rfobkit.plant import (
    EnvImpedance,
    FrictionParams,
    PlantParams,
    PlantState,
    contact_force,
    friction_force,
    plant_accel,
)


def test_friction_zero_velocity_is_zero():
    fp = FrictionParams(k_vsc=5.0, k_clmb=2.0, eps=1e-3)
    assert friction_force(0.0, fp) == 0.0


def test_friction_saturated_coulomb():
    # at 1 m/s with eps = 1e-3 the smooth sign is fully saturated
    fp = FrictionParams(k_vsc=1.0, k_clmb=0.5, eps=1e-3)
    assert friction_force(1.0, fp) == pytest.approx(1.5, rel=1e-12)


@given(
    v=st.floats(-50.0, 50.0),
    k_vsc=st.floats(0.0, 100.0),
    k_clmb=st.floats(0.0, 50.0),
    eps=st.floats(1e-4, 1.0),
)
def test_friction_odd(v, k_vsc, k_clmb, eps):
    fp = FrictionParams(k_vsc=k_vsc, k_clmb=k_clmb, eps=eps)
    assert friction_force(-v, fp) == pytest.approx(-friction_force(v, fp), abs=1e-9)


@given(
    v1=st.floats(-20.0, 20.0),
    v2=st.floats(-20.0, 20.0),
    k_vsc=st.floats(0.0, 100.0),
    k_clmb=st.floats(0.0, 50.0),
    eps=st.floats(1e-4, 1.0),
)
def test_friction_monotone(v1, v2, k_vsc, k_clmb, eps):
    fp = FrictionParams(k_vsc=k_vsc, k_clmb=k_clmb, eps=eps)
    lo, hi = sorted((v1, v2))
    assert friction_force(lo, fp) <= friction_force(hi, fp) + 1e-9


def test_contact_force_equilibrium_zero():
    env = EnvImpedance(D_env=2.0, K_env=6500.0, x_env=0.01, xdot_env=0.0)
    assert contact_force(PlantState(x_m=0.01, xdot_m=0.0), env) == 0.0


def test_contact_force_penetration():
    env = EnvImpedance(D_env=2.0, K_env=6500.0)
    f = contact_force(PlantState(x_m=0.001, xdot_m=0.0), env)
    assert f == pytest.approx(6.5, rel=1e-12)


def test_contact_force_unilateral_no_contact():
    env = EnvImpedance(D_env=2.0, K_env=6500.0, x_env=0.0)
    assert contact_force(PlantState(x_m=-1e-6, xdot_m=3.0), env) == 0.0


def test_contact_force_bilateral_mode():
    env = EnvImpedance(D_env=2.0, K_env=6500.0)
    f = contact_force(PlantState(x_m=-0.001, xdot_m=0.0), env, always_in_contact=True)
    assert f == pytest.approx(-6.5, rel=1e-12)


def test_contact_force_continuous_at_boundary():
    env = EnvImpedance(D_env=2.0, K_env=6500.0, x_env=0.005)
    inside = contact_force(PlantState(x_m=0.005 + 1e-12, xdot_m=0.0), env)
    outside = contact_force(PlantState(x_m=0.005 - 1e-12, xdot_m=0.0), env)
    assert abs(inside - outside) < 1e-7


def test_plant_accel_equilibrium():
    pp = PlantParams(M_m=0.81, K_F=0.5)
    a = plant_accel(0.0, PlantState(), pp, FrictionParams(), EnvImpedance(x_env=1.0))
    assert a == 0.0


def test_plant_accel_current_gain():
    pp = PlantParams(M_m=0.81, K_F=0.5)
    a = plant_accel(1.0, PlantState(), pp, FrictionParams(), EnvImpedance(x_env=1.0))
    assert a == pytest.approx(0.5 / 0.81, rel=1e-12)


def test_plant_accel_force_balance_identity():
    pp = PlantParams(M_m=1.7, K_F=0.4, F_d=3.0)
    fp = FrictionParams(k_vsc=4.0, k_clmb=1.5)
    env = EnvImpedance(D_env=3.0, K_env=500.0)
    st_ = PlantState(x_m=0.02, xdot_m=-0.3)
    a = plant_accel(2.5, st_, pp, fp, env)
    lhs = pp.M_m * a + friction_force(st_.xdot_m, fp) + contact_force(st_, env) + pp.F_d
    assert lhs == pytest.approx(pp.K_F * 2.5, rel=1e-12)


def test_plant_accel_linear_in_current():
    pp = PlantParams(M_m=2.0, K_F=0.5)
    fp = FrictionParams(k_vsc=1.0, k_clmb=1.0)
    env = EnvImpedance(D_env=1.0, K_env=100.0)
    st_ = PlantState(x_m=0.01, xdot_m=0.1)
    a1 = plant_accel(1.0, st_, pp, fp, env)
    a2 = plant_accel(2.0, st_, pp, fp, env)
    a3 = plant_accel(3.0, st_, pp, fp, env)
    assert a3 - a2 == pytest.approx(a2 - a1, rel=1e-9)


def test_param_validation():
    with pytest.raises(ValueError):
        PlantParams(M_m=0.0, K_F=0.5)
    with pytest.raises(ValueError):
        PlantParams(M_m=1.0, K_F=-1.0)
    with pytest.raises(ValueError):
        FrictionParams(k_vsc=-1.0)
    with pytest.raises(ValueError):
        FrictionParams(eps=0.0)
    with pytest.raises(ValueError):
        EnvImpedance(D_env=-0.1)


@pytest.mark.parametrize("cls, kwargs, message", [
    (PlantParams, dict(M_m=math.nan, K_F=0.5), "M_m must be > 0, got nan"),
    (PlantParams, dict(M_m=1.0, K_F=math.nan), "K_F must be > 0, got nan"),
    (FrictionParams, dict(k_vsc=math.nan), "k_vsc must be >= 0, got nan"),
    (FrictionParams, dict(k_clmb=math.nan), "k_clmb must be >= 0, got nan"),
    (FrictionParams, dict(eps=math.nan), "eps must be > 0, got nan"),
    (EnvImpedance, dict(D_env=math.nan), "D_env must be >= 0, got nan"),
    (EnvImpedance, dict(K_env=math.nan), "K_env must be >= 0, got nan"),
])
def test_param_validation_rejects_nan(cls, kwargs, message):
    with pytest.raises(ValueError, match=message):
        cls(**kwargs)


import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rfobkit.identify import (
    ContactDetector,
    ContactMode,
    ContactRegressorBank,
    NonContactRegressorBank,
    RlmsEstimator,
)
from rfobkit.plant import smooth_sign


class NumpyRlmsReference:
    """The numpy RLS update the scalar estimator replaced, kept as a reference."""

    def __init__(self, delta0, bounds_min, bounds_max, gamma0, mu, pd_check_period=50):
        self.delta = np.array(delta0, dtype=float)
        self.bounds_min = np.array(bounds_min, dtype=float)
        self.bounds_max = np.array(bounds_max, dtype=float)
        self.mu = mu
        self._gamma0_diag = np.full(self.delta.size, float(gamma0))
        self.Gamma = np.diag(self._gamma0_diag.copy())
        self._pd_check_period = pd_check_period
        self._steps = 0
        self.reset_count = 0

    def update(self, rho, u):
        rho = np.asarray(rho, dtype=float)
        g_rho = self.Gamma @ rho
        denom = self.mu + float(rho @ g_rho)
        innovation = u - float(rho @ self.delta)
        gain = g_rho / denom
        np.clip(self.delta + gain * innovation, self.bounds_min, self.bounds_max, out=self.delta)
        self.Gamma -= np.outer(gain, g_rho)
        self.Gamma /= self.mu
        self.Gamma += self.Gamma.T
        self.Gamma *= 0.5
        self._steps += 1
        if self._steps % self._pd_check_period == 0:
            ok = np.all(np.isfinite(self.Gamma)) and np.all(np.diag(self.Gamma) > 0.0)
            if ok:
                try:
                    np.linalg.cholesky(self.Gamma)
                    return innovation
                except np.linalg.LinAlgError:
                    pass
            self.Gamma = np.diag(self._gamma0_diag.copy())
            self.reset_count += 1
        return innovation


class NumpyNonContactBankReference:
    """The numpy non-contact bank step the tuple version replaced."""

    def __init__(self, g_filter, dt, M_mn, eps):
        self._c = math.exp(-g_filter * dt)
        self.dt, self.M_mn, self.eps = dt, M_mn, eps
        self._f = np.zeros(4)
        self._warm = 0

    def step(self, xddot_des, F_dis_hat, xdot):
        raw = np.array([self.M_mn * xddot_des + F_dis_hat, xdot, smooth_sign(xdot, self.eps), 1.0])
        new = self._c * self._f + (1.0 - self._c) * raw
        out = None
        if self._warm >= 2:
            xddot_f = (new[1] - self._f[1]) / self.dt
            out = (float(self._f[0]), np.array([xddot_f, self._f[1], self._f[2], self._f[3]]))
        self._f = new
        self._warm += 1
        return out


class NumpyContactBankReference:
    """The numpy contact bank step the tuple version replaced."""

    def __init__(self, g_filter, dt):
        self._c = math.exp(-g_filter * dt)
        self._f = np.zeros(3)

    def step(self, F_load_hat, xdot, x):
        self._f = self._c * self._f + (1.0 - self._c) * np.array([xdot, x, 1.0])
        return F_load_hat, self._f.copy()


def scalar_estimator(gamma0=100.0, mu=1.0, lo=-1e6, hi=1e6, delta0=0.0):
    return RlmsEstimator(
        delta0=np.array([delta0]),
        bounds_min=np.array([lo]),
        bounds_max=np.array([hi]),
        gamma0=gamma0,
        mu=mu,
    )


def test_rlms_scalar_hand_recursion():
    # u = 3, rho = 1, mu = 1, Gamma0 = 100, delta0 = 0:
    # step 1: K = 100/101, delta = 300/101, Gamma = 100/101
    # step 2: delta ~ 2.985075
    est = scalar_estimator()
    innov = est.update(np.array([1.0]), 3.0)
    assert innov == pytest.approx(3.0)
    assert est.delta[0] == pytest.approx(300.0 / 101.0, rel=1e-12)
    assert est.Gamma[0, 0] == pytest.approx(100.0 / 101.0, rel=1e-12)
    est.update(np.array([1.0]), 3.0)
    assert est.delta[0] == pytest.approx(2.9850746268656714, rel=1e-9)


def test_rlms_zero_innovation_keeps_estimate_contracts_covariance():
    est = scalar_estimator(delta0=3.0)
    g_before = est.Gamma[0, 0]
    innov = est.update(np.array([1.0]), 3.0)
    assert innov == 0.0
    assert est.delta[0] == 3.0
    assert est.Gamma[0, 0] < g_before


@pytest.mark.parametrize("delta0, lo, hi, gamma0", [
    (0.0, -1.0, 1.0, math.nan),
    (math.nan, -1.0, 1.0, 1e4),
    (0.0, math.nan, 1.0, 1e4),
    (0.0, -1.0, math.nan, 1e4),
])
def test_rlms_rejects_nan_settings(delta0, lo, hi, gamma0):
    with pytest.raises(ValueError):
        RlmsEstimator(np.array([delta0]), np.array([lo]), np.array([hi]), gamma0)


def test_rlms_projection_clamps():
    est = scalar_estimator(lo=-1.0, hi=1.0)
    est.update(np.array([1.0]), 50.0)
    assert est.delta[0] == 1.0


def test_rlms_rejects_bad_inputs():
    est = scalar_estimator()
    with pytest.raises(ValueError):
        est.update(np.array([math.nan]), 1.0)
    with pytest.raises(ValueError):
        est.update(np.array([1.0]), math.inf)
    with pytest.raises(ValueError):
        est.update(np.array([1.0, 2.0]), 1.0)
    with pytest.raises(ValueError):
        RlmsEstimator(np.array([0.0]), np.array([1.0]), np.array([2.0]))  # delta0 outside box
    with pytest.raises(ValueError):
        RlmsEstimator(np.array([0.0]), np.array([-1.0]), np.array([1.0]), mu=0.0)


def test_rlms_converges_vector_case():
    rng = np.random.default_rng(0)
    truth = np.array([2.0, -1.0, 0.5])
    est = RlmsEstimator(
        delta0=np.zeros(3),
        bounds_min=np.full(3, -10.0),
        bounds_max=np.full(3, 10.0),
        gamma0=1e6,
        mu=1.0,
    )
    for _ in range(200):
        rho = rng.standard_normal(3)
        est.update(rho, float(rho @ truth))
    assert np.allclose(est.delta, truth, atol=1e-8)


def test_rlms_covariance_stays_spd():
    rng = np.random.default_rng(1)
    est = RlmsEstimator(
        delta0=np.zeros(4),
        bounds_min=np.full(4, -5.0),
        bounds_max=np.full(4, 5.0),
        gamma0=1e5,
        mu=0.995,
    )
    for _ in range(3000):
        rho = rng.standard_normal(4) * rng.uniform(0.0, 10.0)
        est.update(rho, float(rng.standard_normal()))
        np.linalg.cholesky(est.Gamma)  # raises if not SPD
        assert np.allclose(est.Gamma, est.Gamma.T)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_rlms_projection_never_violated(seed):
    rng = np.random.default_rng(seed)
    lo = np.array([-1.0, 0.0, -0.5])
    hi = np.array([2.0, 3.0, 0.5])
    est = RlmsEstimator(delta0=np.array([0.0, 1.0, 0.0]), bounds_min=lo, bounds_max=hi,
                        gamma0=1e4, mu=float(rng.uniform(0.9, 1.0)))
    for _ in range(300):
        rho = rng.standard_normal(3) * 10.0 ** rng.integers(-2, 3)
        est.update(rho, float(rng.standard_normal() * 100.0))
        assert np.all(est.delta >= lo) and np.all(est.delta <= hi)


@pytest.mark.parametrize("n", [3, 4])
def test_rlms_matches_numpy_reference(n):
    """5 000 random updates with forgetting and active clamping track the numpy update to 1e-9."""
    rng = np.random.default_rng(100 + n)
    lo = np.full(n, -2.0)
    hi = np.full(n, 2.0)
    args = dict(delta0=np.zeros(n), bounds_min=lo, bounds_max=hi, gamma0=1e4, mu=0.98)
    est = RlmsEstimator(**args)
    ref = NumpyRlmsReference(**args)
    truth = np.array([3.0, -1.0, 0.5, 1.5])[:n]  # the first component lies outside the box
    clamped = 0
    for _ in range(5000):
        rho = rng.standard_normal(n) * 10.0 ** rng.integers(-1, 2)
        u = float(rho @ truth + rng.standard_normal())
        innov = est.update(rho, u)
        innov_ref = ref.update(rho, u)
        assert innov == pytest.approx(innov_ref, rel=1e-9, abs=1e-9 * abs(u))
        np.testing.assert_allclose(est.delta, ref.delta, rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(est.Gamma, ref.Gamma, rtol=1e-9, atol=1e-9 * np.max(np.abs(ref.Gamma)))
        clamped += int(np.any((est.delta == lo) | (est.delta == hi)))
    assert clamped > 1000
    assert est.reset_count == ref.reset_count == 0
    assert np.array_equal(est.Gamma, est.Gamma.T)


def test_rlms_guard_resets_indefinite_covariance():
    """An indefinite Gamma survives until the periodic Cholesky check, which resets and counts it."""
    rng = np.random.default_rng(5)
    args = dict(delta0=np.zeros(3), bounds_min=np.full(3, -10.0), bounds_max=np.full(3, 10.0),
                gamma0=1e3, mu=1.0)
    est = RlmsEstimator(**args)
    ref = NumpyRlmsReference(**args)
    indefinite = np.diag([100.0, -50.0, 100.0])
    est._G = indefinite.tolist()
    ref.Gamma = indefinite.copy()
    for step in range(1, 51):
        rho = rng.standard_normal(3) * 1e-3
        u = float(rng.standard_normal())
        est.update(rho, u)
        ref.update(rho, u)
        if step < 50:
            assert est.reset_count == 0
            assert np.linalg.eigvalsh(est.Gamma)[0] < 0.0
    assert est.reset_count == ref.reset_count == 1
    assert np.array_equal(est.Gamma, np.diag([1e3, 1e3, 1e3]))
    np.testing.assert_allclose(est.delta, ref.delta, rtol=1e-9)


def test_rlms_estimate_reads_as_array_and_floats():
    est = RlmsEstimator(np.array([0.5, 1.0]), np.zeros(2), np.full(2, 2.0), gamma0=np.array([1.0, 2.0]))
    assert isinstance(est.delta, np.ndarray) and est.delta.tolist() == [0.5, 1.0]
    assert est.values == (0.5, 1.0) and all(type(v) is float for v in est.values)
    est.delta[0] = 9.0  # a copy: the estimator is unchanged
    assert est.values == (0.5, 1.0)
    assert np.array_equal(est.Gamma, np.diag([1.0, 2.0]))
    est.update((1.0, 0.0), 1.5)
    assert est.values[0] == pytest.approx(0.5 + 1.0 / 1.999, rel=1e-12)


# ---------------------------------------------------------------------------
# regressor banks
# ---------------------------------------------------------------------------

def test_noncontact_bank_reproduces_balance_split_across_dob():
    # the loop forms K_Fn i = M_mn xddot_des + F_dis_hat; with M_mn != 1 and half
    # of the force carried by the DOB estimate, u must still equal rho' delta
    dt, M_mn = 1e-4, 2.0
    M_m, k_vsc, k_clmb, F_d, eps = 1.7, 3.0, 1.2, 4.0, 1e-3
    truth = np.array([M_m, k_vsc, k_clmb, F_d])
    bank = NonContactRegressorBank(g_filter=1000.0, dt=dt, M_mn=M_mn, eps=eps)
    v = 0.0  # at rest, so the zero filter state is consistent from the first sample
    worst = 0.0
    for k in range(3000):
        a = -2.0 + 5.0 * math.sin(2.0 * math.pi * 3.0 * k * dt)
        u_force = M_m * a + k_vsc * v + k_clmb * smooth_sign(v, eps) + F_d
        emitted = bank.step(xddot_des=u_force / (2.0 * M_mn), F_dis_hat=u_force / 2.0, xdot=v)
        if emitted is not None:
            u, rho = emitted
            worst = max(worst, abs(u - float(np.dot(rho, truth))))
        v += a * dt
    assert worst < 1e-10


def test_contact_bank_offset_absorbs_equilibrium():
    # nonzero x_env and xdot_env: the filtered constant column carries
    # -(D xdot_env + K x_env) and the regression stays exact while the contact moves
    dt, g = 1e-4, 400.0
    D, K, x_env, xdot_env = 2.0, 6500.0, 0.01, 0.002
    bank = ContactRegressorBank(g_filter=g, dt=dt)
    delta = np.array([D, K, -(D * xdot_env + K * x_env)])
    c = math.exp(-g * dt)
    f_meas = 0.0
    worst = 0.0
    for k in range(2000):
        x = 0.013 + 1e-3 * math.sin(2.0 * math.pi * 5.0 * k * dt)
        xdot = 1e-3 * 2.0 * math.pi * 5.0 * math.cos(2.0 * math.pi * 5.0 * k * dt)
        F = D * (xdot - xdot_env) + K * (x - x_env)
        # the load estimate carries the same low-pass as the regressor columns
        f_meas = c * f_meas + (1.0 - c) * F
        u, rho = bank.step(f_meas, xdot, x)
        worst = max(worst, abs(u - float(np.dot(rho, delta))))
    assert rho[2] == pytest.approx(1.0, rel=1e-12)
    assert worst < 1e-9 * abs(delta[2])


def test_noncontact_bank_exact_on_simulated_sequence():
    """The matched-filter bank keeps the regression exact for sampled loop data."""
    dt = 1e-4
    M_m, k_vsc, k_clmb, F_d, eps = 0.81, 12.0, 6.0, 7.95, 1e-3
    truth = np.array([M_m, k_vsc, k_clmb, F_d])
    bank = NonContactRegressorBank(g_filter=1000.0, dt=dt, M_mn=1.0, eps=eps)
    rng = np.random.default_rng(2)
    v = 0.0
    worst = 0.0
    for k in range(4000):
        t = k * dt
        # any trajectory works: drive with a rich acceleration profile
        a = 3.0 * math.sin(2.0 * math.pi * 7.0 * t) + 2.0 * math.sin(2.0 * math.pi * 1.3 * t + 0.5)
        u_force = M_m * a + k_vsc * v + k_clmb * smooth_sign(v, eps) + F_d
        emitted = bank.step(xddot_des=u_force, F_dis_hat=0.0, xdot=v)
        if emitted is not None and k > 2:
            u, rho = emitted
            assert type(rho) is tuple and len(rho) == 4
            worst = max(worst, abs(u - float(np.dot(rho, truth))))
        v += a * dt  # engine convention: velocity updates after the balance is formed
    assert worst < 1e-10


def test_noncontact_bank_identifies_truth():
    dt = 1e-4
    M_m, k_vsc, k_clmb, F_d, eps = 0.81, 12.0, 6.0, 7.95, 1e-3
    bank = NonContactRegressorBank(g_filter=1000.0, dt=dt, M_mn=1.0, eps=eps)
    est = RlmsEstimator(
        delta0=np.array([1.0, 0.0, 0.0, 0.0]),
        bounds_min=np.array([0.05, 0.0, 0.0, -50.0]),
        bounds_max=np.array([50.0, 200.0, 100.0, 50.0]),
        gamma0=1e5,
        mu=1.0,
    )
    v = 0.0
    for k in range(30000):
        t = k * dt
        a = 3.0 * math.sin(2.0 * math.pi * 7.0 * t) + 2.0 * math.sin(2.0 * math.pi * 1.3 * t + 0.5)
        u_force = M_m * a + k_vsc * v + k_clmb * smooth_sign(v, eps) + F_d
        emitted = bank.step(xddot_des=u_force, F_dis_hat=0.0, xdot=v)
        if emitted is not None:
            est.update(emitted[1], emitted[0])
        v += a * dt
    truth = np.array([M_m, k_vsc, k_clmb, F_d])
    assert np.all(np.abs(est.delta - truth) <= 0.02 * np.abs(truth))


# ---------------------------------------------------------------------------
# contact detector
# ---------------------------------------------------------------------------

def test_detector_all_zero_stays_noncontact():
    det = ContactDetector(0.5, 0.2, dwell=5)
    for _ in range(100):
        assert det.update(0.0) is ContactMode.NON_CONTACT


def test_detector_step_force_transition_then_contact():
    det = ContactDetector(0.5, 0.2, dwell=5)
    assert det.update(1.0) is ContactMode.TRANSITION
    for _ in range(3):
        assert det.update(1.0) is ContactMode.TRANSITION
    assert det.update(1.0) is ContactMode.CONTACT
    # release needs dwell steps below the off threshold
    for _ in range(4):
        assert det.update(0.1) is ContactMode.CONTACT
    assert det.update(0.1) is ContactMode.NON_CONTACT


def test_detector_hysteresis_no_chatter():
    det = ContactDetector(0.5, 0.2, dwell=5)
    # drive into contact
    for _ in range(10):
        det.update(1.0)
    assert det.mode is ContactMode.CONTACT
    # oscillate between the thresholds: no mode changes
    changes = 0
    prev = det.mode
    for k in range(200):
        mode = det.update(0.3 if k % 2 == 0 else 0.45)
        if mode is not prev:
            changes += 1
        prev = mode
    assert changes == 0


def test_detector_validates_thresholds():
    with pytest.raises(ValueError):
        ContactDetector(0.2, 0.5)
    with pytest.raises(ValueError):
        ContactDetector(0.5, 0.2, dwell=0)


def test_contact_bank_filters_consistently():
    # constant contact: filtered columns converge and the regression becomes exact
    dt = 1e-4
    g = 400.0
    bank = ContactRegressorBank(g_filter=g, dt=dt)
    D, K, off = 2.0, 6500.0, 0.0
    x, xdot = 1e-3, 0.0
    F = D * xdot + K * x + off
    # the measurement channel carries the same filter as the regressor columns
    c = math.exp(-g * dt)
    f_meas = 0.0
    for _ in range(400):
        f_meas = c * f_meas + (1.0 - c) * F
        u, rho = bank.step(f_meas, xdot, x)
    assert type(rho) is tuple and len(rho) == 3
    delta = np.array([D, K, off])
    assert u == pytest.approx(float(np.dot(rho, delta)), rel=1e-9)


def test_banks_emit_the_numpy_reference_values_exactly():
    rng = np.random.default_rng(9)
    nc = NonContactRegressorBank(g_filter=1000.0, dt=1e-4, M_mn=1.3, eps=1e-3)
    nc_ref = NumpyNonContactBankReference(g_filter=1000.0, dt=1e-4, M_mn=1.3, eps=1e-3)
    c = ContactRegressorBank(g_filter=400.0, dt=1e-4)
    c_ref = NumpyContactBankReference(g_filter=400.0, dt=1e-4)
    for k in range(2000):
        if k == 1000:
            nc.reset()
            nc_ref = NumpyNonContactBankReference(g_filter=1000.0, dt=1e-4, M_mn=1.3, eps=1e-3)
            c.retune(250.0)
            c_ref._c = math.exp(-250.0 * 1e-4)
        a, f, v, x = (rng.standard_normal(4) * (10.0, 5.0, 0.01, 1e-3)).tolist()
        got, want = nc.step(a, f, v), nc_ref.step(a, f, v)
        if want is None:
            assert got is None
        else:
            assert got[0] == want[0] and got[1] == tuple(want[1].tolist())
        got, want = c.step(f, v, x), c_ref.step(f, v, x)
        assert got[0] == want[0] and got[1] == tuple(want[1].tolist())

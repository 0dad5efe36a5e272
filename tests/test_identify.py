import builtins
import dis
import math
import re
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rfobkit.engine as engine
from rfobkit.config import build_scenario, parse_config
from rfobkit.engine import IdentConfig, Simulator
from rfobkit.identify import ContactMode, RlmsEstimator, _compile_filled, _rlms_kernel
from rfobkit.observers import lpf_pole
from test_plant import smooth_sign


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


class LoopUdReference(RlmsEstimator):
    """Bierman's UD update in loop form: the bit-for-bit reference for the generated straight-line kernel."""

    def update(self, rho, u):
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
        mu = self.mu
        upper = [(i, j) for j in range(n) for i in range(j)]
        m = n + len(upper)  # the UD factors lead the state list, the estimate follows
        D, delta_old = self._state[:n], self._state[m:]
        U = [[0.0] * n for _ in range(n)]
        for (i, j), v in zip(upper, self._state[n:m]):
            U[i][j] = v
        f = []
        for j in range(n):
            s = rho[j]
            for i in range(j):
                s += U[i][j] * rho[i]
            f.append(s)
        h = [Dj * fj for Dj, fj in zip(D, f)]
        a = mu
        b = [0.0] * n
        for j in range(n):
            a_prev = a
            a = a_prev + f[j] * h[j]
            D[j] = D[j] * a_prev / (a * mu)
            b[j] = h[j]
            p = -f[j] / a_prev
            for i in range(j):
                U_ij = U[i][j]
                U[i][j] = U_ij + b[i] * p
                b[i] = b[i] + U_ij * h[j]
        innovation = u - _dot(rho, delta_old)
        g = innovation / a
        delta = []
        for d, bi, lo, hi in zip(delta_old, b, self._bounds[:n], self._bounds[n:]):
            v = d + bi * g
            delta.append(lo if v < lo else hi if v > hi else v)
        self._state = D + [U[i][j] for i, j in upper] + delta
        return innovation


def _dot(a, b):
    """Inner product summed left to right."""
    s = 0.0
    for x, y in zip(a, b):
        s += x * y
    return s


def _bits(est):
    """The state (UD factors and estimate) as exact hex strings, so 0.0 and -0.0 or two NaNs compare bitwise."""
    return list(map(float.hex, est._state))


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


class NonContactBankReference:
    """The free-motion regressor filter that Simulator._advance writes out.

    The regression is u = M_mn*xddot_des + F_dis_hat against
    [xddot, xdot, zeta(xdot), 1]: with delta = [M_m, k_vsc, k_clmb, F_d] it
    is the motor force balance when no external load acts.  Every channel
    passes through the same first-order low-pass, so the balance holds
    exactly; the acceleration column is the backward difference of the
    filtered velocity, and the emitted pair lags one sample so every column
    is aligned.
    """

    def __init__(self, g_filter, dt, M_mn, eps):
        self._c = lpf_pole(g_filter, dt)
        self.dt, self.M_mn, self.eps = dt, M_mn, eps
        self.reset()

    def step(self, xddot_des, F_dis_hat, xdot):
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

    def reset(self):
        self._f = (0.0, 0.0, 0.0, 0.0)  # filtered [u, xdot, zeta, 1]
        self._warm = 0


class ContactBankReference:
    """The contact regressor filter that Simulator._advance writes out: [xdot, x, 1] through the pole c."""

    def __init__(self, c):
        self.c = c
        self._f = (0.0, 0.0, 0.0)

    def step(self, F_load_hat, xdot, x):
        c = self.c
        b = 1.0 - c
        f_v, f_x, f_1 = self._f
        self._f = (c * f_v + b * xdot, c * f_x + b * x, c * f_1 + b)
        return F_load_hat, self._f


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
    (0.0, -1.0, 1.0, math.inf),  # an infinite D_j becomes inf / inf, a NaN, on the first update
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
    with pytest.raises(ValueError):
        RlmsEstimator(np.array([]), np.array([]), np.array([]))  # no kernel for an empty estimate
    est.update((1.0,), 3.0)
    before = _bits(est)
    with pytest.raises(ValueError):
        est.update((1.0,), math.nan)
    assert _bits(est) == before  # a rejected update leaves the state as it was


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
    assert ref.reset_count == 0
    assert np.array_equal(est.Gamma, est.Gamma.T)


@pytest.mark.parametrize("mu", [1.0, 0.98])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_rlms_matches_loop_reference_bitwise(n, mu):
    """5 000 random updates with active clamping: the generated update equals the loop form bit for bit."""
    rng = np.random.default_rng(200 + 10 * n + int(mu == 1.0))
    lo = np.full(n, -2.0)
    hi = np.full(n, 2.0)
    args = dict(delta0=np.zeros(n), bounds_min=lo, bounds_max=hi, gamma0=1e4, mu=mu)
    est = RlmsEstimator(**args)
    ref = LoopUdReference(**args)
    truth = np.resize([3.0, -1.0, 0.5, 1.5], n)  # the first component lies outside the box
    clamped = 0
    for _ in range(5000):
        rho = rng.standard_normal(n) * 10.0 ** rng.integers(-1, 2)
        u = float(rho @ truth + rng.standard_normal())
        rho = tuple(rho.tolist()) if rng.integers(2) else rho  # tuples as the banks emit, arrays as callers pass
        assert est.update(rho, u).hex() == ref.update(rho, u).hex()
        assert _bits(est) == _bits(ref)
        clamped += any(v in (-2.0, 2.0) for v in est.values)
    assert clamped > 1000


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rlms_rejects_every_non_finite_input_before_any_state_changes(n):
    """A NaN or infinite u or rho_i raises, whether the estimate is zero or not, and the estimator keeps its state."""
    args = dict(delta0=np.zeros(n), bounds_min=np.full(n, -5.0), bounds_max=np.full(n, 5.0), gamma0=1e4, mu=0.98)
    est = RlmsEstimator(**args)
    rng = np.random.default_rng(n)
    for estimate in ("zero", "nonzero"):
        if estimate == "nonzero":
            for _ in range(20):
                est.update(rng.standard_normal(n), float(rng.standard_normal()))
            assert all(v != 0.0 for v in est.values)
        rho, u = rng.standard_normal(n).tolist(), 0.5
        before = _bits(est)
        for bad in (math.nan, math.inf, -math.inf):
            for i in range(-1, n):  # -1 puts the bad value in u, i >= 0 in rho_i
                rho_bad = [bad if j == i else r for j, r in enumerate(rho)]
                with pytest.raises(ValueError, match="non-finite regressor or measurement"):
                    est.update(rho_bad, bad if i < 0 else u)
                assert _bits(est) == before


@pytest.mark.parametrize("hi0, rho0, u", [(1e6, 1e303, 1.0), (1e6, -1e303, 1e308), (1e200, 1e150, 1.0)],
                         ids=["minus_inf", "plus_inf", "clipped"])
def test_rlms_proceeds_on_finite_inputs_whose_innovation_overflows(hi0, rho0, u):
    """rho0 * d0 overflows with d0 near hi0: the update runs as the loop form does, bit for bit, and raises nothing.

    With rho0 = +-1e303 the factors overflow too and leave NaN in the estimate; with rho0 = 1e150 they stay
    finite and the infinite step clips the estimate to the box."""
    args = dict(delta0=np.array([0.9 * hi0, 1.0, 0.0]), bounds_min=np.array([0.0, -10.0, -10.0]),
                bounds_max=np.array([hi0, 10.0, 10.0]), gamma0=1e4, mu=0.999)
    est, ref = RlmsEstimator(**args), LoopUdReference(**args)
    for rho, u_k in (((rho0, 1.0, 1.0), u), ((1.0, 2.0, 1.0), 3.0)):
        innovation = est.update(rho, u_k)
        assert innovation.hex() == ref.update(rho, u_k).hex()
        assert _bits(est) == _bits(ref)
        assert math.isfinite(innovation) == (rho0 == 1e150 and rho[0] == 1.0)


def test_rlms_factors_stay_positive_under_wild_updates():
    """100 000 criterion-7-style wild updates with forgetting: every D_j stays finite and > 0, Gamma factors."""
    rng = np.random.default_rng(78)
    est = RlmsEstimator(delta0=np.array([0.0, 100.0, 0.0]), bounds_min=np.array([-1.0, 0.0, -10.0]),
                        bounds_max=np.array([5.0, 1000.0, 10.0]), gamma0=1e5, mu=0.99)
    n = 100_000
    rhos = rng.standard_normal((n, 3)) * (10.0 ** rng.integers(-3, 4, (n, 1)))
    us = rng.standard_normal(n) * 1e3
    for i in range(n):
        est.update(rhos[i], us[i])
    D = est._state[:3]
    assert all(math.isfinite(v) and v > 0.0 for v in D)
    np.linalg.cholesky(est.Gamma)  # raises if not positive definite


def test_rlms_estimate_reads_as_array_and_floats():
    est = RlmsEstimator(np.array([0.5, 1.0]), np.zeros(2), np.full(2, 2.0), gamma0=np.array([1.0, 2.0]))
    assert isinstance(est.delta, np.ndarray) and est.delta.tolist() == [0.5, 1.0]
    assert est.values == (0.5, 1.0) and all(type(v) is float for v in est.values)
    est.delta[0] = 9.0  # a copy: the estimator is unchanged
    assert est.values == (0.5, 1.0)
    assert np.array_equal(est.Gamma, np.diag([1.0, 2.0]))
    est.update((1.0, 0.0), 1.5)
    assert est.values[0] == pytest.approx(0.5 + 1.0 / 1.999, rel=1e-12)


def unresolved_globals(fn) -> set[str]:
    """The names that fn's code, nested code objects included, loads as globals and neither fn's module nor builtins
    defines: what a linter would flag in source that it cannot see, such as the generated step loop's text."""
    codes, names = [fn.__code__], set()
    while codes:
        code = codes.pop()
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        names |= {ins.argval for ins in dis.get_instructions(code) if ins.opname == "LOAD_GLOBAL"}
    return {name for name in names if name not in fn.__globals__ and not hasattr(builtins, name)}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generated_rlms_kernel_reads_only_defined_globals(n):
    assert unresolved_globals(_rlms_kernel(n)) == set()


def test_generated_step_loop_reads_only_defined_globals():
    cfg = Path(__file__).resolve().parent.parent / "configs" / "sim_force_step.cfg"
    Simulator(build_scenario(parse_config(cfg.read_text())))._advance(0)  # the first call installs the compiled loop
    dims = {"_c": len(IdentConfig.delta0_c), "_nc": len(IdentConfig.delta0_nc)}
    assert Simulator._advance.__code__.co_filename == f"<_advance {dims}>"
    assert unresolved_globals(Simulator._advance) == set()
    planted = engine._ADVANCE.replace("y_r = c_r * y_r", "y_r = c_r * y_rr")
    assert planted.count("y_rr") == 1
    assert unresolved_globals(_compile_filled(planted, "_advance", vars(engine), dims)) == {"y_rr"}


# ---------------------------------------------------------------------------
# regressor banks
# ---------------------------------------------------------------------------

def test_noncontact_bank_reproduces_balance_split_across_dob():
    # the loop forms K_Fn i = M_mn xddot_des + F_dis_hat; with M_mn != 1 and half
    # of the force carried by the DOB estimate, u must still equal rho' delta
    dt, M_mn = 1e-4, 2.0
    M_m, k_vsc, k_clmb, F_d, eps = 1.7, 3.0, 1.2, 4.0, 1e-3
    truth = np.array([M_m, k_vsc, k_clmb, F_d])
    bank = NonContactBankReference(g_filter=1000.0, dt=dt, M_mn=M_mn, eps=eps)
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
    bank = ContactBankReference(lpf_pole(g, dt))
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
    bank = NonContactBankReference(g_filter=1000.0, dt=dt, M_mn=1.0, eps=eps)
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
    bank = NonContactBankReference(g_filter=1000.0, dt=dt, M_mn=1.0, eps=eps)
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

DETECTOR_START = (ContactMode.NON_CONTACT, 0, 0)  # mode, dwell count, release count


def detector_update(det: tuple[ContactMode, int, int], F_load_hat: float, threshold_on: float,
                    threshold_off: float, dwell: int) -> tuple[ContactMode, int, int]:
    """The contact detector step that Simulator._advance writes out on the mode codes, kept as its reference.

    NON_CONTACT -> TRANSITION once |F| > threshold_on; TRANSITION -> CONTACT after `dwell` consecutive
    steps; CONTACT (or TRANSITION) -> NON_CONTACT after `dwell` consecutive steps with |F| < threshold_off.
    """
    # the release count is 0 whenever the mode is NON_CONTACT; the dwell count is read only in TRANSITION
    mode, count, release = det
    f = abs(F_load_hat)
    if mode is ContactMode.NON_CONTACT:
        if f > threshold_on:
            mode, count = ContactMode.TRANSITION, 1
    elif f < threshold_off:  # TRANSITION or CONTACT: count towards release
        release += 1
        if release >= dwell:
            mode, release = ContactMode.NON_CONTACT, 0
    else:
        release = 0
        if mode is ContactMode.TRANSITION:
            count += 1
            if count >= dwell:
                mode = ContactMode.CONTACT
    return mode, count, release


def test_detector_all_zero_stays_noncontact():
    det = DETECTOR_START
    for _ in range(100):
        det = detector_update(det, 0.0, 0.5, 0.2, dwell=5)
        assert det == DETECTOR_START


def test_detector_step_force_transition_then_contact():
    det = detector_update(DETECTOR_START, 1.0, 0.5, 0.2, dwell=5)
    assert det == (ContactMode.TRANSITION, 1, 0)
    for _ in range(3):
        det = detector_update(det, 1.0, 0.5, 0.2, dwell=5)
        assert det[0] is ContactMode.TRANSITION
    det = detector_update(det, 1.0, 0.5, 0.2, dwell=5)
    assert det[0] is ContactMode.CONTACT
    # release needs dwell steps below the off threshold
    for _ in range(4):
        det = detector_update(det, 0.1, 0.5, 0.2, dwell=5)
        assert det[0] is ContactMode.CONTACT
    det = detector_update(det, 0.1, 0.5, 0.2, dwell=5)
    assert det[0] is ContactMode.NON_CONTACT and det[2] == 0


def test_detector_hysteresis_no_chatter():
    det = DETECTOR_START
    # drive into contact
    for _ in range(10):
        det = detector_update(det, 1.0, 0.5, 0.2, dwell=5)
    assert det[0] is ContactMode.CONTACT
    # oscillate between the thresholds: no mode changes
    changes = 0
    prev = det[0]
    for k in range(200):
        det = detector_update(det, 0.3 if k % 2 == 0 else 0.45, 0.5, 0.2, dwell=5)
        if det[0] is not prev:
            changes += 1
        prev = det[0]
    assert changes == 0


def test_detector_validates_thresholds():
    for kwargs, message in [
        (dict(threshold_on=0.2, threshold_off=0.5), "need threshold_on > threshold_off >= 0, got on=0.2, off=0.5"),
        (dict(threshold_on=0.5, threshold_off=0.5), "need threshold_on > threshold_off >= 0, got on=0.5, off=0.5"),
        (dict(threshold_off=-0.1), "need threshold_on > threshold_off >= 0, got on=0.5, off=-0.1"),
        (dict(threshold_on=math.nan), "need threshold_on > threshold_off >= 0, got on=nan, off=0.2"),
        (dict(dwell=0), "dwell must be >= 1, got 0"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            IdentConfig(**kwargs)


def test_contact_bank_filters_consistently():
    # constant contact: filtered columns converge and the regression becomes exact
    dt = 1e-4
    g = 400.0
    bank = ContactBankReference(lpf_pole(g, dt))
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
    nc = NonContactBankReference(g_filter=1000.0, dt=1e-4, M_mn=1.3, eps=1e-3)
    nc_ref = NumpyNonContactBankReference(g_filter=1000.0, dt=1e-4, M_mn=1.3, eps=1e-3)
    for k in range(2000):
        if k == 1000:
            nc.reset()
            nc_ref = NumpyNonContactBankReference(g_filter=1000.0, dt=1e-4, M_mn=1.3, eps=1e-3)
        a, f, v, _ = (rng.standard_normal(4) * (10.0, 5.0, 0.01, 1e-3)).tolist()
        got, want = nc.step(a, f, v), nc_ref.step(a, f, v)
        if want is None:
            assert got is None
        else:
            assert got[0] == want[0] and got[1] == tuple(want[1].tolist())

import importlib
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import rfobkit
from rfobkit.design import EnvClass
from rfobkit.loop_model import (
    PhiPoly,
    RationalTf,
    _expm,
    asymptote_angles,
    closed_loop_char_poly,
    closed_loop_force_tf,
    open_loop_general,
    poles,
    rhp_zero_check,
    step_response,
)
from rfobkit.observers import DobConfig, RfobConfig
from rfobkit.plant import EnvImpedance, PlantParams

PP = PlantParams(M_m=3.02, K_F=0.5)
ENV = EnvImpedance(D_env=2.0, K_env=6500.0)


def dob(M_mn=3.02, g=500.0):
    return DobConfig(M_mn=M_mn, K_Fn=0.5, g_dob=g, g_v=1000.0)


def rfob(M_hat=3.02, K_hat=0.5, g=500.0):
    return RfobConfig(M_hat=M_hat, K_F_hat=K_hat, g_rfob=g)


# ---------------------------------------------------------------------------
# poles
# ---------------------------------------------------------------------------

def test_poles_simple():
    assert poles((1.0, 2.0, 1.0)) == pytest.approx([-1.0, -1.0])
    got = sorted(z.real for z in poles((1.0, -6.0, 11.0, -6.0)))
    assert got == pytest.approx([1.0, 2.0, 3.0], abs=1e-9)
    assert poles((2.0, 4.0)) == [pytest.approx(-2.0)]
    assert poles((5.0,)) == []
    # any degree: z^4 + 1 has the four odd eighth roots of unity, in exact conjugate pairs
    got = poles((1.0, 0.0, 0.0, 0.0, 1.0))
    assert got == pytest.approx([complex(s * 0.5 ** 0.5, t * 0.5 ** 0.5) for s in (-1, 1) for t in (-1, 1)], abs=1e-15)
    assert [z.conjugate() for z in got[::2]] == got[1::2]


def test_poles_random_cubic_vs_companion():
    rng = np.random.default_rng(3)
    for _ in range(200):
        c = rng.uniform(-2.0, 2.0, size=4)
        c[0] = c[0] if abs(c[0]) > 0.3 else 1.0
        mine = sorted(poles(c), key=lambda z: (z.real, z.imag))
        ref = sorted((complex(z) for z in np.roots(c)), key=lambda z: (z.real, z.imag))
        for a, b in zip(mine, ref):
            assert abs(a - b) < 1e-8


@pytest.mark.parametrize("cubic, pair", [
    # sim_force_step.cfg at K_env = 1e300, then at C_f = 1e300
    ((3.02, 245.56377136229108, 1e300, 8.729856744399341e300), 5.754353376484e149),
    ((3.02, 245.56377136229108, 4.871275427245822e302, 1.5831645138548922e306), 1.270041380570e151),
])
def test_poles_lists_a_cubic_whose_closed_forms_divided_by_0(cubic, pair):
    # the closed-form cubic formulas divided by a quantity that rounds to 0 on both; the root finder lists
    # the real root and the conjugate pair, whose real part is known only to about |z|*eps
    small, lo, hi = sorted(poles(cubic), key=lambda z: abs(z.imag))
    want = -cubic[3] / cubic[2]  # with the pair far out (|z|^2 near a1/a3), the real root is near -a0/a1
    assert small.imag == 0.0 and small.real == pytest.approx(want, rel=1e-12)
    assert lo == hi.conjugate() and abs(hi) == pytest.approx(pair, rel=1e-12)
    assert abs(hi.real) <= 1e-12 * abs(hi)


def test_poles_keeps_the_finite_roots_of_a_leading_coefficient_past_the_float_range():
    # FOUND 34: the closed form lost -1 and 1 at a3 = 1e-200; FOUND 64: a subnormal a3/max|a_i| gave -6.67e19
    # three times for the 1e-20 kg loop, whose small root is -5e-23 (p(-5e-23) is 0 to rounding)
    assert poles((1e-200, -1.0, 0.0, 1.0)) == [-1.0, 1.0, 1e200]
    small, lo, hi = sorted(poles((1e-20, 2.0, 1e300, 5e277)), key=abs)
    assert small == pytest.approx(-5e-23, rel=1e-15) and small.imag == 0.0
    assert lo == hi.conjugate() and abs(hi) == pytest.approx(1e160, rel=1e-15) and abs(hi.real) <= 1e-12 * abs(hi)
    # the root of 5e-314 k^3 - 1.38 k^2 + 1 near 2.8e313 is beyond the float range and left out, as a3 = 0 would be
    assert poles((5e-314, -1.38, 0.0, 1.0)) == pytest.approx([-0.8512565307587486, 0.8512565307587486], rel=1e-15)
    assert poles((0.0, -1.38, 0.0, 1.0)) == poles((5e-314, -1.38, 0.0, 1.0))


def test_poles_of_degree_1_to_6_match_the_companion_matrix_oracle():
    # coefficients +-10^U(-3, 3); each degree's bound on the relative distance to numpy.roots is about 50 times the
    # worst that the ROADMAP item 28 prototype showed on 12 000 such draws, which grows with the degree through the
    # near-multiple roots random draws contain
    rng = np.random.default_rng(28)
    bounds = {1: 1e-14, 2: 1e-13, 3: 1e-9, 4: 1e-8, 5: 1e-7, 6: 1e-7}
    for deg, bound in bounds.items():
        for _ in range(500):
            c = rng.choice([-1.0, 1.0], deg + 1) * 10.0 ** rng.uniform(-3.0, 3.0, deg + 1)
            got = poles(c.tolist())
            assert len(got) == deg
            rest = [complex(z) for z in np.roots(c)]
            for z in got:
                ref = min(rest, key=lambda r: abs(r - z))
                rest.remove(ref)
                assert abs(z - ref) <= bound * abs(ref), (c, got)
            assert [z for z in got if z.imag > 0.0] == [z.conjugate() for z in got if z.imag < 0.0]


def test_poles_invariant_under_scaling():
    p = (1.0, 4.0, 5.0, 6.0)
    r1 = sorted(poles(p), key=lambda z: (z.real, z.imag))
    r2 = sorted(poles(tuple(37.5 * c for c in p)), key=lambda z: (z.real, z.imag))
    for a, b in zip(r1, r2):
        assert abs(a - b) < 1e-9


# ---------------------------------------------------------------------------
# closed-loop characteristic polynomials
# ---------------------------------------------------------------------------

def test_char_poly_damping_reference():
    env = EnvImpedance(D_env=2.0)
    p = closed_loop_char_poly(EnvClass.PURE_DAMPING, 0.81, 500.0, 126.24, env)
    assert p[0] == 1.0
    assert p[1] == pytest.approx(502.469, rel=1e-5)
    assert p[2] == pytest.approx(126240.0, rel=1e-4)


def test_char_poly_stiffness_cf_zero_limit():
    env = EnvImpedance(K_env=6500.0)
    p = closed_loop_char_poly(EnvClass.PURE_STIFFNESS, 3.02, 100.0, 1e-12, env)
    roots = sorted(poles(p), key=lambda z: abs(z))
    assert abs(roots[0]) < 1e-6  # root at the origin when the force gain vanishes


def test_char_poly_case_env_mismatch():
    with pytest.raises(ValueError):
        closed_loop_char_poly(EnvClass.PURE_DAMPING, 1.0, 100.0, 1.0, ENV)
    with pytest.raises(ValueError):
        closed_loop_char_poly(EnvClass.PURE_STIFFNESS, 1.0, 100.0, 1.0, ENV)


def _value_at(tf: RationalTf, s: complex) -> complex:
    """num(s) / den(s)."""
    return complex(np.polyval(tf.num, s) / np.polyval(tf.den, s))


def test_closed_loop_dc_gain_is_one():
    for case, env in (
        (EnvClass.PURE_DAMPING, EnvImpedance(D_env=2.0)),
        (EnvClass.PURE_STIFFNESS, EnvImpedance(K_env=6500.0)),
        (EnvClass.DAMPING_STIFFNESS, ENV),
    ):
        tf = closed_loop_force_tf(case, 3.02, 80.0, 0.05, env)
        assert abs(_value_at(tf, 0.0) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# open loop structure
# ---------------------------------------------------------------------------

def test_open_loop_perfect_identification_relative_degree_two():
    L = open_loop_general(PP, dob(), rfob(), ENV, C_f=1.0)
    assert L.relative_degree == 2
    assert asymptote_angles(L) == (-90.0, 90.0)


def test_open_loop_perfect_identification_different_cutoffs():
    L = open_loop_general(PP, dob(g=500.0), rfob(g=800.0), ENV, C_f=1.0)
    assert L.relative_degree == 2
    assert asymptote_angles(L) == (-90.0, 90.0)


def test_open_loop_mismatch_relative_degree_one():
    L = open_loop_general(PP, dob(), rfob(M_hat=4.0), ENV, C_f=1.0)
    assert L.relative_degree == 1
    assert asymptote_angles(L) == (180.0,)


def test_open_loop_rejects_empty_environment():
    with pytest.raises(ValueError):
        open_loop_general(PP, dob(), rfob(), EnvImpedance(), C_f=1.0)


def test_open_loop_single_origin_pole():
    for env in (ENV, EnvImpedance(D_env=2.0), EnvImpedance(K_env=6500.0)):
        for m_hat in (3.02, 4.0):
            L = open_loop_general(PP, dob(), rfob(M_hat=m_hat), env, C_f=1.0)
            den = L.den
            assert den[-1] == 0.0 and den[-2] != 0.0  # exactly one integrator


def test_open_loop_matches_reduced_form_when_perfect():
    # perfect identification and equal cutoffs: L = C_f g M alpha (D s + K) / (s (M s (s+alpha g) + D s + K))
    alpha = 2.0
    d = dob(M_mn=alpha * 3.02, g=500.0)
    L = open_loop_general(PP, d, rfob(M_hat=3.02 / 1.0), ENV, C_f=1.25)
    # beta = M_mn K_hat / (M_hat K_Fn) = 2 when M_hat = M_m: perfect ratio match
    for w in (1.0, 10.0, 100.0, 1000.0):
        s = 1j * w
        expected = 1.25 * 500.0 * 3.02 * alpha * (2.0 * s + 6500.0) / (
            s * (3.02 * s * (s + alpha * 500.0) + 2.0 * s + 6500.0)
        )
        assert _value_at(L, s) == pytest.approx(expected, rel=1e-9)


def test_closed_loop_from_open_matches_char_poly():
    # with equal cutoffs and perfect identification the closed loop denominator
    # reproduces the combined-case characteristic polynomial
    alpha = 1.0
    L = open_loop_general(PP, dob(g=80.0), rfob(g=80.0), ENV, C_f=0.05)
    cl = L.closed_loop()
    char = closed_loop_char_poly(EnvClass.DAMPING_STIFFNESS, 3.02, alpha * 80.0, 0.05, ENV)
    got = tuple(c / cl.den[0] for c in cl.den)
    want = char
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a == pytest.approx(b, rel=1e-9)


# ---------------------------------------------------------------------------
# right-half-plane zero diagnostics
# ---------------------------------------------------------------------------

def test_rhp_zero_perfect_identification():
    phi = PhiPoly.from_params(PP, rfob(), ENV)
    assert phi.c2 == 0.0
    rep = rhp_zero_check(phi)
    assert not rep.has_rhp
    assert rep.roots[0].real == pytest.approx(-6500.0 / 2.0, rel=1e-9)


def test_rhp_zero_overestimated_inertia():
    # M_hat = 4 > M_m: leading coefficient negative while others positive
    phi = PhiPoly.from_params(PP, rfob(M_hat=4.0), ENV)
    assert phi.c2 == pytest.approx(0.5 * (3.02 - 4.0), rel=1e-12)
    rep = rhp_zero_check(phi)
    assert rep.has_rhp
    pos = [r for r in rep.roots if r.real > 0]
    assert len(pos) == 1 and abs(pos[0].imag) < 1e-9


def test_rhp_zero_underestimated_inertia_safe():
    rep = rhp_zero_check(PhiPoly.from_params(PP, rfob(M_hat=1.51), ENV))
    assert not rep.has_rhp


def test_rhp_zero_mirrored_identification_has_no_spurious_zeros():
    # beta = alpha exactly (M_hat = 3 M_m, K_F_hat = 3 K_F), but 0.7*0.3 - 2.1*0.1 rounds
    # to -2.8e-17, which a soft environment (c0 = 3e-6) does not dwarf
    phi = PhiPoly.from_params(PlantParams(M_m=0.7, K_F=0.1), rfob(M_hat=2.1, K_hat=0.3),
                              EnvImpedance(K_env=1e-5))
    assert 0.7 * 0.3 - 2.1 * 0.1 != 0.0
    assert phi.coeffs == (0.3 * 1e-5,)
    rep = rhp_zero_check(phi)
    assert rep.roots == () and not rep.has_rhp


def test_rhp_zero_origin_is_marginal_not_rhp():
    phi = PhiPoly(c2=1.0, c1=2.0, c0=0.0)
    rep = rhp_zero_check(phi)
    assert not rep.has_rhp
    assert rep.marginal


def test_rhp_zero_safe_region_random():
    # M_hat <= M_m with K_hat = K_F never produces a right-half-plane zero
    rng = np.random.default_rng(5)
    for _ in range(300):
        m_m = float(rng.uniform(0.5, 10.0))
        m_hat = float(rng.uniform(0.05, 1.0)) * m_m
        env = EnvImpedance(D_env=float(rng.uniform(0.0, 50.0)), K_env=float(rng.uniform(1.0, 1e5)))
        pp = PlantParams(M_m=m_m, K_F=0.5)
        rep = rhp_zero_check(PhiPoly.from_params(pp, rfob(M_hat=m_hat), env))
        assert not rep.has_rhp


# ---------------------------------------------------------------------------
# asymptotes / step response
# ---------------------------------------------------------------------------

def test_asymptote_angles_general():
    tf1 = RationalTf(num=(1.0,), den=(1.0, 1.0))
    assert asymptote_angles(tf1) == (180.0,)
    tf2 = RationalTf(num=(1.0,), den=(1.0, 1.0, 1.0))
    assert asymptote_angles(tf2) == (-90.0, 90.0)
    improper = RationalTf(num=(1.0, 0.0, 0.0), den=(1.0, 1.0))
    with pytest.raises(ValueError):
        asymptote_angles(improper)


def _rk4_step_response(tf: RationalTf, t: np.ndarray, substeps: int = 60) -> np.ndarray:
    """Independent oracle: dense RK4 on the controllable canonical realization."""
    lead = tf.den[0]
    den = tuple(c / lead for c in tf.den)
    num = tuple(c / lead for c in tf.num)
    n = len(den) - 1
    A = np.zeros((n, n))
    A[0, :] = [-c for c in den[1:]]
    for i in range(1, n):
        A[i, i - 1] = 1.0
    B = np.zeros(n)
    B[0] = 1.0
    C = np.zeros(n)
    C[n - len(num):] = num
    h = (t[1] - t[0]) / substeps
    x = np.zeros(n)
    y = np.empty_like(t)
    y[0] = 0.0
    for i in range(1, t.size):
        for _ in range(substeps):
            k1 = A @ x + B
            k2 = A @ (x + 0.5 * h * k1) + B
            k3 = A @ (x + 0.5 * h * k2) + B
            k4 = A @ (x + h * k3) + B
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        y[i] = C @ x
    return y


def test_step_response_matches_rk4_oracle():
    tf = closed_loop_force_tf(EnvClass.DAMPING_STIFFNESS, 3.02, 80.65, 0.03584, ENV)
    t = np.linspace(0.0, 0.6, 601)
    mine = step_response(tf, t)
    ref = _rk4_step_response(tf, t)
    assert np.max(np.abs(mine - ref)) < 1e-9
    assert mine[-1] == pytest.approx(1.0, abs=1e-3)


def test_step_response_second_order_analytic():
    # critically damped (s + w)^2 with unit DC gain: y = 1 - (1 + w t) e^{-w t}
    w = 30.0
    tf = RationalTf(num=(w * w,), den=(1.0, 2.0 * w, w * w))
    t = np.linspace(0.0, 0.5, 256)
    got = step_response(tf, t)
    want = 1.0 - (1.0 + w * t) * np.exp(-w * t)
    assert np.max(np.abs(got - want)) < 1e-12


def test_expm_closed_forms():
    np.testing.assert_allclose(_expm(np.zeros((3, 3))), np.eye(3), rtol=0.0, atol=1e-15)
    d = np.array([-3.0, 0.5, 2.0])
    np.testing.assert_allclose(_expm(np.diag(d)), np.diag(np.exp(d)), rtol=1e-14, atol=0.0)
    lam = -0.7
    jordan = lam * np.eye(3) + np.diag([1.0, 1.0], 1)
    want = math.exp(lam) * np.array([[1.0, 1.0, 0.5], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    np.testing.assert_allclose(_expm(jordan), want, rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("w", [1.0, 100.0])
def test_expm_rotation(w):
    want = np.array([[math.cos(w), math.sin(w)], [-math.sin(w), math.cos(w)]])
    np.testing.assert_allclose(_expm(np.array([[0.0, w], [-w, 0.0]])), want, rtol=0.0, atol=1e-13)


def test_expm_squaring_path_non_normal():
    # 1-norm 240 >> theta_13, so the argument is halved and the result squared 6 times
    a, b, c = 1.0, 200.0, 40.0
    m = np.array([[-a, b], [0.0, -c]])
    want = np.array([[math.exp(-a), b * (math.exp(-a) - math.exp(-c)) / (c - a)], [0.0, math.exp(-c)]])
    np.testing.assert_allclose(_expm(m), want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("p, dt", [
    ((10.0, 1e3, 3e4), 1e-3),
    ((10.0, 1e3, 1e4, 5e4), 1e-3),
    ((1.0, 50.0, 2e3, 4e4), 5e-4),
    ((5.0, 200.0, 5e3, 1e5), 1e-4),
])
def test_step_response_stiff_partial_fractions(p, dt):
    # H = prod(p_i) / prod(s + p_i): y = 1 + sum_i r_i exp(-p_i t),
    # r_i = prod(p) / (-p_i * prod_{j != i} (p_j - p_i))
    den = (1.0,)
    for pi in p:
        den = tuple(np.polymul(den, (1.0, pi)))
    tf = RationalTf(num=(math.prod(p),), den=den)
    t = np.arange(2001) * dt
    want = np.ones_like(t)
    for i, pi in enumerate(p):
        r = math.prod(p) / (-pi * math.prod(pj - pi for j, pj in enumerate(p) if j != i))
        want += r * np.exp(-pi * t)
    assert np.max(np.abs(step_response(tf, t) - want)) < 1e-10


def _run_python(code: str) -> str:
    src = str(Path(rfobkit.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_import_leaves_scipy_unloaded():
    assert _run_python("import sys, rfobkit.cli; print('scipy' in sys.modules)").strip() == "False"


def test_cli_and_config_import_leave_numpy_and_the_simulator_unloaded():
    out = _run_python("import sys, rfobkit, rfobkit.cli, rfobkit.config\n"
                      "print([m for m in ('numpy', 'rfobkit.engine', 'rfobkit.identify') if m in sys.modules])")
    assert out.strip() == "[]"


# the names `rfobkit` exports, by defining module; the `engine` and `identify` ones resolve on first access
PACKAGE_EXPORTS = {
    "design": ("DesignResult", "DesignSpec", "EnvClass", "InfeasibleDesignError", "classify_environment",
               "design_damping", "design_damping_stiffness", "design_for_env", "design_stiffness", "split_alpha_g"),
    "engine": ("AdaptationConfig", "AdaptationMode", "ControlMode", "IdentConfig", "Phase", "Scenario",
               "SimResult", "Simulator", "run_scenario"),
    "identify": ("ContactMode", "RlmsEstimator"),
    "loop_model": ("PhiPoly", "RationalTf", "RhpZeroReport", "asymptote_angles", "closed_loop_char_poly",
                   "closed_loop_force_tf", "open_loop_general", "poles", "rhp_zero_check", "step_response"),
    "observers": ("BoundCheck", "DobConfig", "RatioReport", "RfobConfig", "robustness_bound_check"),
    "plant": ("EnvImpedance", "FrictionParams", "PlantParams"),
}


@pytest.mark.parametrize("module", sorted(PACKAGE_EXPORTS))
def test_package_exports_each_name_of_its_modules(module):
    defining = importlib.import_module(f"rfobkit.{module}")
    listed = dir(rfobkit)
    for name in PACKAGE_EXPORTS[module]:
        assert getattr(rfobkit, name) is getattr(defining, name)
        assert name in listed


def test_package_from_import_and_unknown_attribute():
    from rfobkit import ContactMode, Simulator

    assert (Simulator, ContactMode) == (rfobkit.engine.Simulator, rfobkit.identify.ContactMode)
    with pytest.raises(AttributeError) as got:
        getattr(rfobkit, "no_such_name")
    with pytest.raises(AttributeError) as plain:
        getattr(types.ModuleType("rfobkit"), "no_such_name")
    assert str(got.value) == str(plain.value) == "module 'rfobkit' has no attribute 'no_such_name'"


def test_step_response_runs_without_scipy():
    out = _run_python(
        "import sys\n"
        "sys.modules['scipy'] = None  # any import of scipy now raises ImportError\n"
        "import numpy as np\n"
        "from rfobkit.design import EnvClass\n"
        "from rfobkit.loop_model import closed_loop_force_tf, step_response\n"
        "from rfobkit.plant import EnvImpedance\n"
        "tf = closed_loop_force_tf(EnvClass.DAMPING_STIFFNESS, 3.02, 80.65, 0.03584, EnvImpedance(D_env=2.0, K_env=6500.0))\n"
        "print(step_response(tf, np.linspace(0.0, 0.6, 601))[-1])\n"
    )
    assert float(out) == pytest.approx(1.0, abs=1e-3)


def test_closed_loop_poles_keep_the_leading_coefficient_of_a_stiff_loop():
    # the loop constant 7.55e12 exceeds 1e12 * M_m; all three poles stay, two of them unstable
    env = EnvImpedance(K_env=1e8)
    pls = poles(open_loop_general(PP, dob(), rfob(), env, 50.0).closed_loop().den)
    char = np.polyadd(np.polymul([1.0, 0.0], [3.02, 3.02 * 500.0, 1e8]), [50.0 * 500.0 * 3.02 / 0.5 * 0.5 * 1e8])
    want = sorted((complex(z) for z in np.roots(char)), key=lambda z: (z.real, z.imag))
    got = sorted(pls, key=lambda z: (z.real, z.imag))
    assert len(got) == 3
    for a, b in zip(got, want):
        assert abs(a - b) <= 1e-6 * abs(b)
    assert sum(z.real > 0.0 for z in got) == 2

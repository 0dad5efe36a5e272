"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""
import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

import rfobkit as rk
from rfobkit.cli import main as cli_main
from rfobkit.config import build_scenario, parse_config
from rfobkit.design import EnvClass, InfeasibleDesignError
from rfobkit.loop_model import PhiPoly, closed_loop_char_poly, closed_loop_force_tf, rhp_zero_check, step_response

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _target_coeffs(r: rk.DesignResult) -> tuple[float, ...]:
    if r.case is EnvClass.PURE_DAMPING:
        return (1.0, 2.0 * r.xi * r.w_n, r.w_n ** 2)
    return (
        1.0,
        2.0 * r.xi * r.w_n + r.p,
        r.w_n ** 2 + 2.0 * r.xi * r.w_n * r.p,
        r.w_n ** 2 * r.p,
    )


def _placement_dev(r: rk.DesignResult, M: float, D: float, K: float) -> float:
    env = {
        EnvClass.PURE_DAMPING: rk.EnvImpedance(D_env=D),
        EnvClass.PURE_STIFFNESS: rk.EnvImpedance(K_env=K),
        EnvClass.DAMPING_STIFFNESS: rk.EnvImpedance(D_env=D, K_env=K),
    }[r.case]
    achieved = closed_loop_char_poly(r.case, M, r.alpha_g, r.C_f, env)
    target = _target_coeffs(r)
    return max(abs(a - b) / max(abs(a), abs(b), 1e-30) for a, b in zip(achieved, target))


def test_criterion_1_pole_placement_soundness():
    """>= 1000 random feasible designs per case match the target polynomial to 1e-9."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    counts = {c: 0 for c in EnvClass}
    worst = 0.0
    attempts = 0
    while min(counts.values()) < 1000 and attempts < 60000:
        attempts += 1
        M = float(rng.uniform(0.2, 20.0))
        D = float(rng.uniform(0.1, 200.0))
        K = float(rng.uniform(50.0, 5e5))
        g_v = float(rng.uniform(200.0, 5000.0))
        case = attempts % 3
        try:
            if case == 0:
                r = rk.design_damping(M, D, g_v, rk.DesignSpec(
                    xi_damping=float(rng.uniform(0.707, 1.0)), gamma=float(rng.uniform(0.2, 1.0))))
                worst = max(worst, _placement_dev(r, M, D, 0.0))
            elif case == 1:
                r = rk.design_stiffness(M, K, g_v, rk.DesignSpec(
                    xi_stiffness=float(rng.uniform(0.3, 1.5)), eta=float(rng.uniform(0.05, 5.0))))
                worst = max(worst, _placement_dev(r, M, 0.0, K))
            else:
                r = rk.design_damping_stiffness(M, D, K, g_v, rk.DesignSpec(
                    eta_star=float(rng.uniform(0.02, 0.9)), k_hint=float(rng.uniform(0.1, 0.95))))
                worst = max(worst, _placement_dev(r, M, D, K))
        except InfeasibleDesignError:
            continue
        counts[r.case] += 1
    elapsed = time.perf_counter() - t0
    ok = all(v >= 1000 for v in counts.values()) and worst <= 1e-9 and elapsed < 5.0
    _report(1, ok, f"{sum(counts.values())} feasible designs "
                   f"({ {c.value: v for c, v in counts.items()} }), worst coefficient "
                   f"deviation {worst:.2e} <= 1e-9, {elapsed:.2f} s < 5 s")


def test_criterion_2_bandwidth_bound_over_stiffness_sweep():
    """With g_v = 1000 and alpha = 1 every design over K in [1e2, 1e5] keeps alpha_g <= 500."""
    g_v, alpha, M, D = 1000.0, 1.0, 3.02, 2.0
    worst_margin = math.inf
    all_ok = True
    for K in np.geomspace(1e2, 1e5, 25):
        rb = rk.design_stiffness(M, float(K), g_v)
        rc = rk.design_damping_stiffness(M, D, float(K), g_v)
        for r in (rb, rc):
            g = rk.split_alpha_g(r, alpha)
            check = rk.robustness_bound_check(alpha, g, g_v)
            all_ok = all_ok and r.alpha_g <= 500.0 and check.passed
            worst_margin = min(worst_margin, 500.0 - r.alpha_g)
    _report(2, all_ok, f"50 designs over K in [1e2, 1e5], alpha_g <= 500 rad/s, "
                       f"smallest margin {worst_margin:.6g} rad/s")


def test_criterion_3_cubic_solver_vs_companion_oracle():
    """1000 cubics spanning all discriminant signs; < 1e-8 absolute root error."""
    rng = np.random.default_rng(33)
    t0 = time.perf_counter()

    def best_match(mine, ref):
        return min(
            max(abs(mine[i] - ref[p[i]]) for i in range(3))
            for p in itertools.permutations(range(3))
        )

    def discriminant(a3, a2, a1, a0):
        return math.fsum((18.0 * a3 * a2 * a1 * a0, -4.0 * a2 ** 3 * a0, (a2 * a1) ** 2, -4.0 * a3 * a1 ** 3,
                          -27.0 * (a3 * a0) ** 2))

    worst = 0.0
    n_pos = n_neg = n_zero = 0
    for i in range(1000):
        kind = i % 3
        if kind == 0:  # three distinct real roots
            roots = np.sort(rng.uniform(-4.0, 4.0, 3))
            while np.min(np.diff(roots)) < 0.05:
                roots = np.sort(rng.uniform(-4.0, 4.0, 3))
            c = [1.0, -roots.sum(),
                 roots[0] * roots[1] + roots[0] * roots[2] + roots[1] * roots[2],
                 -roots.prod()]
            res = rk.poles(c)
            assert discriminant(*c) > 0 and not any(z.imag for z in res)
            worst = max(worst, best_match(res, [complex(z) for z in np.roots(c)]))
            n_pos += 1
        elif kind == 1:  # complex pair
            c = rng.uniform(-3.0, 3.0, 4)
            c[0] = c[0] if abs(c[0]) > 0.3 else 1.0
            res = rk.poles(c)
            worst = max(worst, best_match(res, [complex(z) for z in np.roots(c)]))
            if discriminant(*c) < 0:
                assert sum(1 for z in res if z.imag) == 2
                n_neg += 1
            else:
                n_pos += 1
        else:  # exact double root, dyadic coefficients: the constructed roots are the truth
            r = (rng.integers(20, 193) / 64.0) * (1.0 if rng.random() < 0.5 else -1.0)
            r3 = r - math.copysign(3.0 + rng.integers(0, 193) / 64.0, r)
            c = [1.0, -(2 * r + r3), r * r + 2 * r * r3, -r * r * r3]
            res = rk.poles(c)
            assert discriminant(*c) == 0 and not any(z.imag for z in res)
            worst = max(worst, best_match(res, [complex(r), complex(r), complex(r3)]))
            n_zero += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 1.0 and min(n_pos, n_neg, n_zero) > 200
    _report(3, ok, f"1000 cubics (D>0: {n_pos}, D<0: {n_neg}, D=0: {n_zero}), "
                   f"max root error {worst:.2e} < 1e-8, {elapsed:.2f} s < 1 s")


def _linear_step_scenario(dt: float, duration: float = 0.5):
    des = rk.design_damping_stiffness(3.02, 2.0, 6500.0, 1000.0, rk.DesignSpec(k_hint=0.5))
    g = rk.split_alpha_g(des, 1.0)
    sc = rk.Scenario(
        plant=rk.PlantParams(M_m=3.02, K_F=0.5),
        friction=rk.FrictionParams(),
        env=rk.EnvImpedance(D_env=2.0, K_env=6500.0),
        dob=rk.DobConfig(M_mn=3.02, K_Fn=0.5, g_dob=g, g_v=1000.0),
        rfob=rk.RfobConfig(M_hat=3.02, K_F_hat=0.5, g_rfob=g),
        phases=(rk.Phase(mode=rk.ControlMode.FORCE, duration=duration,
                         offset=1.0,
                         contact_hint=rk.ContactMode.CONTACT),),
        dt=dt,
        C_f=des.C_f,
        always_in_contact=True,
        velocity_filter_on=False,
    )
    return sc, des


def test_criterion_4_linear_regime_equivalence():
    """Unit force step against the analytic closed loop: 1% at dt = 1e-4, 0.6x at dt = 5e-5."""
    t0 = time.perf_counter()
    errs = {}
    for dt in (1e-4, 5e-5):
        sc, des = _linear_step_scenario(dt)
        res = rk.run_scenario(sc)
        tf = closed_loop_force_tf(EnvClass.DAMPING_STIFFNESS, 3.02, des.alpha_g, des.C_f,
                                  rk.EnvImpedance(D_env=2.0, K_env=6500.0))
        t_full = np.arange(res.n_steps + 1) * dt
        y = step_response(tf, t_full)[1:]
        errs[dt] = float(np.max(np.abs(res.ts["F_hat_load_N"] - y)))
    elapsed = time.perf_counter() - t0
    ok = errs[1e-4] < 0.01 and errs[5e-5] <= 0.6 * errs[1e-4] and elapsed < 10.0
    _report(4, ok, f"L-inf {errs[1e-4]:.5f} < 0.01 at dt=1e-4; "
                   f"ratio {errs[5e-5] / errs[1e-4]:.3f} <= 0.6 at dt=5e-5; {elapsed:.2f} s < 10 s")


def test_criterion_5_steady_state_force_tracking():
    """Relative tracking error below 0.1% once the step transient has died out."""
    sc, des = _linear_step_scenario(1e-4, duration=1.0)
    res = rk.run_scenario(sc)
    env = rk.EnvImpedance(D_env=2.0, K_env=6500.0)
    pls = rk.poles(closed_loop_char_poly(EnvClass.DAMPING_STIFFNESS, 3.02, des.alpha_g, des.C_f, env))
    t_transient = 5.0 / min(abs(p.real) for p in pls)
    # the slowest pole is repeated: allow three transient windows before measuring
    window = res.ts["t_s"] >= 3.0 * t_transient
    late_err = float(np.max(np.abs(res.ts["F_hat_load_N"][window] - 1.0)))
    end_err = float(abs(res.ts["F_hat_load_N"][-1] - 1.0))
    ok = late_err < 1e-3 and end_err < 1e-3
    _report(5, ok, f"poles {sorted(p.real for p in pls)}, 5/min|Re| = {t_transient:.3f} s; "
                   f"error {late_err:.2e} < 1e-3 beyond {3 * t_transient:.3f} s, "
                   f"final error {end_err:.2e}")


def test_criterion_6_stability_rule_reproduction():
    """Fixed C_f*alpha = 2.5: the beta < alpha twin has an RHP zero and diverges,
    the alpha <= beta twin converges."""
    pp = rk.PlantParams(M_m=3.02, K_F=0.5)
    env = rk.EnvImpedance(D_env=2.0, K_env=6500.0)

    def run(m_hat):
        sc = rk.Scenario(
            plant=pp, friction=rk.FrictionParams(), env=env,
            dob=rk.DobConfig(M_mn=6.04, K_Fn=0.5, g_dob=500.0, g_v=1000.0),
            rfob=rk.RfobConfig(M_hat=m_hat, K_F_hat=0.5, g_rfob=500.0),
            phases=(rk.Phase(mode=rk.ControlMode.FORCE, duration=3.0,
                             offset=1.0,
                             contact_hint=rk.ContactMode.CONTACT),),
            dt=1e-4, C_f=1.25, always_in_contact=True, velocity_filter_on=False,
            x_limit=1.0, v_limit=100.0,
        )
        return rk.run_scenario(sc)

    # alpha = 2 both; M_hat = 6.04 -> beta = 1 < alpha; M_hat = 1.51 -> beta = 4 >= alpha
    bad_cfg = rk.RfobConfig(M_hat=6.04, K_F_hat=0.5, g_rfob=500.0)
    good_cfg = rk.RfobConfig(M_hat=1.51, K_F_hat=0.5, g_rfob=500.0)
    rhp_bad = rhp_zero_check(PhiPoly.from_params(pp, bad_cfg, env))
    rhp_good = rhp_zero_check(PhiPoly.from_params(pp, good_cfg, env))
    bad = run(6.04)
    good = run(1.51)
    err = np.abs(good.ts["F_hat_load_N"] - 1.0)
    third = err.size // 3
    decat = float(err[2 * third:].max() / err[:third].max())
    converged = (not good.diverged) and decat < 0.5 and float(err[-1]) < 0.05
    ok = rhp_bad.has_rhp and bad.diverged and (not rhp_good.has_rhp) and converged
    _report(6, ok, f"beta<alpha: RHP zero {rhp_bad.has_rhp}, diverged at step {bad.diverged_step}; "
                   f"alpha<=beta: RHP zero {rhp_good.has_rhp}, envelope decay {decat:.3f}, "
                   f"final error {float(err[-1]):.4f}")


def test_criterion_7_identification_convergence_and_projection():
    """Plant parameters within 2%, environment within 5%, projection box never violated."""
    sc = build_scenario(parse_config((CONFIGS / "identify_plant.cfg").read_text()))
    res = rk.run_scenario(sc)
    truth_nc = np.array([0.81, 12.0, 6.0, 7.95])
    rel_nc = np.abs(res.final_delta_nc - truth_nc) / np.abs(truth_nc)
    ok_nc = bool(np.all(rel_nc[:3] <= 0.02))

    sc = build_scenario(parse_config((CONFIGS / "identify_env.cfg").read_text()))
    res = rk.run_scenario(sc)
    truth_c = np.array([2.0, 6500.0])
    rel_c = np.abs(res.final_delta_c[:2] - truth_c) / truth_c
    ok_c = bool(np.all(rel_c <= 0.05))

    # adversarial projection check: one million wild updates
    rng = np.random.default_rng(77)
    lo = np.array([-1.0, 0.0, -10.0])
    hi = np.array([5.0, 1000.0, 10.0])
    est = rk.RlmsEstimator(delta0=np.array([0.0, 100.0, 0.0]), bounds_min=lo, bounds_max=hi,
                           gamma0=1e5, mu=0.99)
    n = 1_000_000
    rhos = rng.standard_normal((n, 3)) * (10.0 ** rng.integers(-3, 4, (n, 1)))
    us = rng.standard_normal(n) * 1e3
    violated = False
    for i in range(n):
        est.update(rhos[i], us[i])
        d = est.delta
        if d[0] < lo[0] or d[0] > hi[0] or d[1] < lo[1] or d[1] > hi[1] or d[2] < lo[2] or d[2] > hi[2]:
            violated = True
            break
    ok = ok_nc and ok_c and not violated
    _report(7, ok, f"plant rel err {np.array2string(rel_nc[:3], precision=5)} <= 2%; "
                   f"env rel err {np.array2string(rel_c, precision=5)} <= 5%; "
                   f"projection violated: {violated} over {n} updates")


def test_criterion_8_adaptation_benefit():
    """Offline-adaptive gains beat the fixed alpha = beta = 2 gains after contact."""
    pp = rk.PlantParams(M_m=3.02, K_F=0.5)
    env = rk.EnvImpedance(D_env=2.0, K_env=6500.0, x_env=0.002)

    def run(mode):
        sc = rk.Scenario(
            plant=pp, friction=rk.FrictionParams(), env=env,
            dob=rk.DobConfig(M_mn=6.04, K_Fn=0.5, g_dob=500.0, g_v=1000.0),
            rfob=rk.RfobConfig(M_hat=3.02, K_F_hat=0.5, g_rfob=500.0),
            phases=(rk.Phase(mode=rk.ControlMode.FORCE, duration=4.0,
                             offset=5.0),),
            dt=1e-4, C_f=1.25, x0=-0.002, seed=42,
            velocity_filter_on=True, x_limit=5.0, v_limit=1000.0,
            adaptation=rk.AdaptationConfig(mode=mode, spec=rk.DesignSpec(alpha=2.0)),
        )
        return rk.run_scenario(sc)

    def oscillation_metric(res):
        f_true = res.ts["F_load_N"]
        first = int(np.argmax(f_true > 0.0))
        err = np.abs(res.ts["F_hat_load_N"][first:] - 5.0)
        return float(np.sum(err) * 1e-4)

    off = run(rk.AdaptationMode.OFF)
    offline = run(rk.AdaptationMode.OFFLINE)
    m_off = oscillation_metric(off)
    m_offline = oscillation_metric(offline)
    ok = m_offline < m_off
    _report(8, ok, f"post-contact |error| integral: offline {m_offline:.4f} < fixed-gain {m_off:.4f}")


def test_criterion_9_determinism_byte_identical_csv(tmp_path):
    """Two CLI runs with the same seed produce byte-identical CSV files."""
    cfg = tmp_path / "noisy.cfg"
    base = (CONFIGS / "sim_force_step.cfg").read_text()
    cfg.write_text(base.replace("[scenario]", "[scenario]\nnoise_std_m_per_s = 0.001"))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a = cli_main(["simulate", "--config", str(cfg), "--out", str(a), "--seed", "12345"])
    code_b = cli_main(["simulate", "--config", str(cfg), "--out", str(b), "--seed", "12345"])
    same = a.read_bytes() == b.read_bytes()
    ok = code_a == 0 and code_b == 0 and same
    _report(9, ok, f"byte-identical CSV across seeded runs: {same} "
                   f"({a.stat().st_size} bytes each)")

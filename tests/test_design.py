import collections
import hashlib
import math
import random

import numpy as np
import pytest

from rfobkit.cli import _json_text
from rfobkit.design import (
    DesignResult,
    DesignSpecA,
    DesignSpecB,
    DesignSpecC,
    EnvClass,
    InfeasibleDesignError,
    classify_environment,
    design_damping,
    design_damping_stiffness,
    design_for_env,
    design_stiffness,
    solve_cubic,
    solve_quadratic,
    split_alpha_g,
)
from rfobkit.loop_model import closed_loop_char_poly
from rfobkit.observers import robustness_bound_check
from rfobkit.plant import EnvImpedance


def target_coeffs(r: DesignResult) -> tuple[float, ...]:
    """Intended characteristic polynomial (s + p)(s^2 + 2 xi w s + w^2), monic."""
    if r.case is EnvClass.PURE_DAMPING:
        return (1.0, 2.0 * r.xi * r.w_n, r.w_n ** 2)
    return (
        1.0,
        2.0 * r.xi * r.w_n + r.p,
        r.w_n ** 2 + 2.0 * r.xi * r.w_n * r.p,
        r.w_n ** 2 * r.p,
    )


def env_for(r: DesignResult, D: float, K: float) -> EnvImpedance:
    if r.case is EnvClass.PURE_DAMPING:
        return EnvImpedance(D_env=D, K_env=0.0)
    if r.case is EnvClass.PURE_STIFFNESS:
        return EnvImpedance(D_env=0.0, K_env=K)
    return EnvImpedance(D_env=D, K_env=K)


def assert_placed(r: DesignResult, M: float, D: float, K: float, rel: float = 1e-9):
    achieved = closed_loop_char_poly(r.case, M, r.alpha_g, r.C_f, env_for(r, D, K))
    target = target_coeffs(r)
    assert len(achieved) == len(target)
    for a, b in zip(achieved, target):
        assert abs(a - b) <= rel * max(abs(a), abs(b), 1e-30)


# ---------------------------------------------------------------------------
# case A
# ---------------------------------------------------------------------------

def test_design_damping_reference_point():
    r = design_damping(0.81, 2.0, 1000.0, DesignSpecA(xi=0.7071, gamma=1.0))
    assert r.w_n == pytest.approx(355.3027, rel=1e-6)
    assert r.alpha_g == pytest.approx(500.0, rel=1e-9)
    assert r.C_f == pytest.approx(126.24, rel=1e-4)
    assert_placed(r, 0.81, 2.0, 0.0)


def test_design_damping_gamma_at_lower_bound_infeasible():
    lb = 2.0 * 2.0 / (0.81 * 1000.0 + 2.0 * 2.0)
    with pytest.raises(InfeasibleDesignError):
        design_damping(0.81, 2.0, 1000.0, DesignSpecA(xi=0.8, gamma=lb))
    with pytest.raises(InfeasibleDesignError):
        design_damping(0.81, 2.0, 1000.0, DesignSpecA(xi=0.8, gamma=0.5 * lb))


def test_design_damping_scaling_invariance():
    r1 = design_damping(0.81, 2.0, 1000.0, DesignSpecA(xi=0.75, gamma=0.9))
    c = 3.7
    r2 = design_damping(0.81 * c, 2.0 * c, 1000.0, DesignSpecA(xi=0.75, gamma=0.9))
    assert r2.w_n == pytest.approx(r1.w_n, rel=1e-12)
    assert r2.alpha_g == pytest.approx(r1.alpha_g, rel=1e-12)
    assert r2.C_f == pytest.approx(r1.C_f / c, rel=1e-12)


def test_design_damping_xi_range_enforced():
    with pytest.raises(InfeasibleDesignError):
        design_damping(1.0, 1.0, 1000.0, DesignSpecA(xi=0.5, gamma=1.0))
    with pytest.raises(InfeasibleDesignError):
        design_damping(1.0, 1.0, 1000.0, DesignSpecA(xi=1.2, gamma=1.0))


# ---------------------------------------------------------------------------
# case B
# ---------------------------------------------------------------------------

def test_design_stiffness_reference_point():
    # M*g_v^2/K = 464.6 >= 16, so xi is unconstrained
    r = design_stiffness(3.02, 6500.0, 1000.0, DesignSpecB(xi=1.0, eta=2.0))
    assert r.report["M_gv2_over_K"] == pytest.approx(464.6, rel=1e-3)
    assert r.k == pytest.approx(0.4472136, rel=1e-6)
    assert r.w_n == pytest.approx(20.7476, rel=1e-4)
    assert r.p == pytest.approx(41.4952, rel=1e-4)
    assert r.alpha_g == pytest.approx(82.9905, rel=1e-4)
    assert r.C_f == pytest.approx(0.0331126, rel=1e-4)
    assert r.alpha_g <= 500.0
    assert_placed(r, 3.02, 0.0, 6500.0)


def test_design_stiffness_eta_zero_limit_degenerate():
    r = design_stiffness(3.02, 6500.0, 1000.0, DesignSpecB(xi=1.0, eta=1e-9))
    assert r.degenerate
    assert not r.feasible
    assert r.k == pytest.approx(1.0, rel=1e-8)
    assert r.p == pytest.approx(0.0, abs=1e-4)


def test_design_stiffness_infeasible_when_stiffness_dominates():
    # M*g_v^2/K ~ 1: no positive eta can satisfy the bandwidth bound
    with pytest.raises(InfeasibleDesignError):
        design_stiffness(3.02, 3.0e6, 1000.0, DesignSpecB(xi=1.0, eta=2.0))


def test_design_stiffness_xi_cap_applies():
    # M*g_v^2/K < 16 forces the xi cap but a design still exists for small xi
    M, K, g_v = 1.0, 1.0e5, 1000.0
    assert M * g_v ** 2 / K < 16.0
    r = design_stiffness(M, K, g_v, DesignSpecB(xi=1.0, eta=1.0))
    assert r.xi < 1.0
    assert r.xi <= r.report["xi_star_real"]
    assert r.alpha_g <= 0.5 * g_v + 1e-9
    assert_placed(r, M, 0.0, K)


# ---------------------------------------------------------------------------
# case C
# ---------------------------------------------------------------------------

def test_design_damping_stiffness_reference_point():
    r = design_damping_stiffness(3.02, 2.0, 6500.0, 1000.0, DesignSpecC(k_hint=0.5))
    assert r.report["xi_minus"] == pytest.approx(0.0071374, rel=1e-4)
    assert r.report["xi_plus"] == pytest.approx(5.3959, rel=1e-4)
    assert r.xi == 1.0
    assert r.psi == pytest.approx(0.0071374, rel=1e-4)
    assert r.k == pytest.approx(0.5, rel=1e-12)
    assert r.eta == pytest.approx(1.50537, rel=1e-4)
    assert r.w_n == pytest.approx(23.1965, rel=1e-4)
    assert r.p == pytest.approx(34.9194, rel=1e-4)
    assert r.alpha_g == pytest.approx(80.6503, rel=1e-4)
    assert r.C_f == pytest.approx(0.0358422, rel=1e-4)
    assert r.alpha_g <= 500.0
    assert r.p == pytest.approx(r.eta * r.xi * r.w_n, rel=1e-12)
    assert_placed(r, 3.02, 2.0, 6500.0)


def test_design_damping_stiffness_k_one_gives_zero_eta():
    r = design_damping_stiffness(3.02, 2.0, 6500.0, 1000.0, DesignSpecC(k_hint=1.0 - 1e-10))
    assert r.eta == pytest.approx(0.0, abs=1e-6)
    assert r.degenerate


def test_design_damping_stiffness_matches_stiffness_in_zero_damping_limit():
    rb = design_stiffness(3.02, 6500.0, 1000.0, DesignSpecB(xi=1.0, eta=2.0))
    # pick the k that reproduces eta = 2 at psi ~ 0
    rc = design_damping_stiffness(3.02, 1e-9, 6500.0, 1000.0, DesignSpecC(xi=1.0, k_hint=rb.k))
    assert rc.w_n == pytest.approx(rb.w_n, rel=1e-6)
    assert rc.p == pytest.approx(rb.p, rel=1e-6)
    assert rc.alpha_g == pytest.approx(rb.alpha_g, rel=1e-6)
    assert rc.C_f == pytest.approx(rb.C_f, rel=1e-6)


def test_design_damping_stiffness_narrow_branch():
    # stiff enough that xi_plus < 1: eta fixed small, k near 1
    M, D, K, g_v = 3.02, 2.0, 1.0e6, 1000.0
    r = design_damping_stiffness(M, D, K, g_v, DesignSpecC(eta_star=0.1))
    assert r.report["xi_plus"] < 1.0
    assert r.eta == pytest.approx(0.1, rel=1e-9)
    assert r.eta < 1.0
    assert 0.9 < r.k < 1.0
    assert 0.0 < r.alpha_g <= 0.5 * g_v + 1e-9
    assert_placed(r, M, D, K)


def test_design_damping_stiffness_narrow_branch_user_xi_out_of_window():
    with pytest.raises(InfeasibleDesignError):
        design_damping_stiffness(3.02, 2.0, 1.0e6, 1000.0, DesignSpecC(xi=2.0, eta_star=0.1))


def test_design_damping_stiffness_heavy_damping_tight_window():
    # admissible window only 2.7% wide and the default eta_star is too large:
    # the search shrinks eta_star until the bandwidth bound holds
    M, D, K, g_v = 1.0, 1800.0, 1.0e6, 100.0
    r = design_damping_stiffness(M, D, K, g_v)
    assert r.report["xi_plus"] < 1.0
    assert r.eta < 0.1
    assert 0.0 < r.alpha_g <= 0.5 * g_v
    assert any("eta_star reduced" in n for n in r.notes)
    assert_placed(r, M, D, K)


def test_psi_equals_xi_minus_over_xi():
    # for any valid window psi = xi_minus / xi < 1, so on the narrow branch the k cubic at the chosen
    # eta_star has three real roots with no condition on eta_star
    draws = [(design_damping_stiffness, (3.02, 2.0, 6500.0, 1000.0, DesignSpecC()))]
    draws += [d for d in _case_b_and_c_draws(800, seed=26) if d[0] is design_damping_stiffness]
    branches = collections.Counter()
    for design, args in draws:
        try:
            r = design(*args)
        except InfeasibleDesignError:
            continue
        assert r.psi == pytest.approx(r.report["xi_minus"] / r.xi, rel=1e-12)
        # an xi a few ulps above xi_minus can round psi up to 1
        assert r.psi < 1.0 or r.xi - r.report["xi_minus"] <= 4.0 * math.ulp(r.xi), args
        if r.report["branch"] == 0.0:
            a = 2.0 * r.eta * r.xi * r.xi
            assert solve_cubic(a * r.psi, -(1.0 + a), 0.0, 1.0).all_real, args
        branches[r.report["branch"], args[-1].xi is None] += 1
    assert min(branches.values()) > 20 and len(branches) == 4, branches


def test_eta_feasibility_psi_below_one_unrestricted():
    # psi < 1 puts no condition on eta_star: the k cubic stays all-real for small, unit and large eta
    psi, xi = 0.5, 1.0
    for eta in (1e-6, 1.0, 100.0):
        a = 2.0 * eta * xi * xi
        assert solve_cubic(a * psi, -(1.0 + a), 0.0, 1.0).all_real, eta


def test_design_damping_stiffness_stability_region():
    r = design_damping_stiffness(3.02, 2.0, 6500.0, 1000.0, DesignSpecC(k_hint=0.5))
    assert (r.k < 1.0 and r.k < 1.0 / r.psi) or (r.k > 1.0 and r.k > 1.0 / r.psi)


# ---------------------------------------------------------------------------
# pole-placement soundness over random draws (all cases)
# ---------------------------------------------------------------------------

def test_pole_placement_soundness_random():
    rng = np.random.default_rng(7)
    n_ok = {EnvClass.PURE_DAMPING: 0, EnvClass.PURE_STIFFNESS: 0, EnvClass.DAMPING_STIFFNESS: 0}
    for _ in range(1200):
        M = float(rng.uniform(0.2, 20.0))
        D = float(rng.uniform(0.1, 200.0))
        K = float(rng.uniform(50.0, 5e5))
        g_v = float(rng.uniform(200.0, 5000.0))
        case = rng.integers(0, 3)
        try:
            if case == 0:
                r = design_damping(M, D, g_v, DesignSpecA(
                    xi=float(rng.uniform(0.707, 1.0)), gamma=float(rng.uniform(0.2, 1.0))))
                assert_placed(r, M, D, 0.0)
                assert 0.0 < r.alpha_g <= 0.5 * g_v + 1e-9 * g_v
            elif case == 1:
                r = design_stiffness(M, K, g_v, DesignSpecB(
                    xi=float(rng.uniform(0.3, 1.5)), eta=float(rng.uniform(0.05, 5.0))))
                assert_placed(r, M, 0.0, K)
                assert 0.0 < r.alpha_g <= 0.5 * g_v + 1e-9 * g_v
            else:
                r = design_damping_stiffness(M, D, K, g_v, DesignSpecC(
                    eta_star=float(rng.uniform(0.02, 0.9)), k_hint=float(rng.uniform(0.1, 0.95))))
                assert_placed(r, M, D, K)
                assert 0.0 < r.alpha_g <= 0.5 * g_v + 1e-9 * g_v
                assert r.p == pytest.approx(r.eta * r.xi * r.w_n, rel=1e-9)
            n_ok[r.case] += 1
        except InfeasibleDesignError:
            continue
    # plenty of feasible draws per case
    assert all(v > 200 for v in n_ok.values()), n_ok


def test_default_designs_keep_alpha_g_within_the_bandwidth_bound():
    # each design case owns alpha*g <= g_v/2: at the default knobs alpha_g lands on or
    # inside g_v/2 to within rounding, so splitting it needs no second check.  Case A
    # lands on g_v/2 exactly at gamma = 1.
    rng = np.random.default_rng(10)
    g_v = 1000.0
    n_ok = dict.fromkeys(EnvClass, 0)
    n_above = dict.fromkeys(EnvClass, 0)
    for _ in range(1500):
        M = float(10.0 ** rng.uniform(-1.0, 1.5))
        D = float(10.0 ** rng.uniform(-1.0, 4.0))
        K = float(10.0 ** rng.uniform(1.0, 7.0))
        for design in (lambda: design_damping(M, D, g_v), lambda: design_stiffness(M, K, g_v),
                       lambda: design_damping_stiffness(M, D, K, g_v)):
            try:
                r = design()
            except InfeasibleDesignError:
                continue
            assert r.alpha_g <= 0.5 * g_v * (1.0 + 1e-15)
            n_ok[r.case] += 1
            n_above[r.case] += r.alpha_g > 0.5 * g_v
    assert min(n_ok.values()) > 500, n_ok
    # the draws reach the bound itself: case B can land one ulp above it, case A never does
    assert n_above[EnvClass.PURE_DAMPING] == 0 and n_above[EnvClass.PURE_STIFFNESS] > 0, n_above


def _case_b_and_c_draws(n: int, seed: int):
    """Seeded (design function, args) pairs, one case C and one case B per draw.

    Case C cycles through the default spec, random eta_star/k_hint (some outside
    their ranges), an explicit xi inside the window and an explicit xi 1-4 ulps
    above xi_minus, where psi rounds to about 1.  The draws use only
    `random.Random.random`, whose sequence Python keeps across versions.
    """
    rng = random.Random(seed)

    def uniform(lo: float, hi: float) -> float:
        return lo + (hi - lo) * rng.random()

    for i in range(n):
        M, D, K, g_v = (10.0 ** uniform(lo, hi) for lo, hi in ((-1.3, 1.7), (-3.0, 4.0), (0.0, 8.0), (1.0, 4.0)))
        kind = i % 4
        if kind == 0:
            spec = DesignSpecC()
        elif kind == 1:
            spec = DesignSpecC(eta_star=uniform(-0.1, 1.2), k_hint=uniform(-0.05, 1.2))
        else:
            sq_km = math.sqrt(K / M)  # the window edges as design_damping_stiffness computes them
            xi_minus, xi_plus = D / M / (2.0 * sq_km), (0.5 * g_v + D / M) / (2.0 * sq_km)
            if kind == 2:
                xi = xi_minus + rng.random() * (xi_plus - xi_minus)
            else:
                xi = xi_minus
                for _ in range(1 + int(4.0 * rng.random())):
                    xi = math.nextafter(xi, math.inf)
            spec = DesignSpecC(xi=xi, eta_star=uniform(0.001, 0.999), k_hint=uniform(0.01, 1.0))
        yield design_damping_stiffness, (M, D, K, g_v, spec)
        spec_b = DesignSpecB() if i % 2 else DesignSpecB(xi=10.0 ** uniform(-1.3, 0.7), eta=10.0 ** uniform(-7.0, 1.7))
        yield design_stiffness, (M, K, g_v, spec_b)


def test_case_b_and_c_designs_match_their_pinned_digest():
    # every result as the design command writes it, plus its report key order, or the error text
    digest = hashlib.sha256()
    outcomes = collections.Counter()
    for design, args in _case_b_and_c_draws(1500, seed=25):
        try:
            r = design(*args)
        except InfeasibleDesignError as exc:
            text = str(exc)
            outcomes["error"] += 1
        else:
            text = _json_text(r.as_dict()) + " ".join(r.report)
            outcomes[r.case, r.report.get("branch"), r.degenerate] += 1
        digest.update(text.encode())
    assert digest.hexdigest() == "6d2952f1049fd74ee80ba7b789d07abe5a7205c8e1a9f9babfc81b129cb6f389", outcomes


def test_default_damping_designs_pass_the_bandwidth_bound_check():
    # alpha_g = 2*xi*w_n - D/M rounded by up to 1e-15 * D/M above g_v/2, which analyze's bound check
    # rejects for some designs, among them M = 0.2230378061750539, D = 3409.131712151424
    g_v = 1000.0
    rng = np.random.default_rng(23)
    Ms = [0.2230378061750539, *(10.0 ** rng.uniform(-1.0, 1.5, 20_000)).tolist()]
    Ds = [3409.131712151424, *(10.0 ** rng.uniform(-1.0, 4.0, 20_000)).tolist()]
    for M, D in zip(Ms, Ds):
        r = design_damping(M, D, g_v)
        assert r.alpha_g <= 0.5 * g_v and robustness_bound_check(1.0, split_alpha_g(r, 1.0), g_v).passed, (M, D)


# ---------------------------------------------------------------------------
# cubic solver
# ---------------------------------------------------------------------------

def test_solve_cubic_factored():
    r = solve_cubic(1.0, -6.0, 11.0, -6.0)
    assert r.all_real
    got = sorted(x.real for x in r.roots)
    assert got == pytest.approx([1.0, 2.0, 3.0], abs=1e-10)


def test_solve_cubic_one_real():
    r = solve_cubic(1.0, 0.0, 0.0, -2.0)
    assert not r.all_real
    reals = r.real_roots()
    assert len(reals) == 1
    assert reals[0] == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-12)


def test_solve_cubic_bandwidth_instance():
    # 0.0011564 k^3 - 1.162 k^2 + 1 = 0: positive roots near 0.928 and 1004.8
    eta, xi, psi = 0.1, 0.9, 0.007138
    a3 = 2.0 * eta * xi * xi * psi
    a2 = -(1.0 + 2.0 * eta * xi * xi)
    r = solve_cubic(a3, a2, 0.0, 1.0)
    pos = sorted(r.positive_real_roots())
    assert len(pos) == 2
    assert pos[0] == pytest.approx(0.928, rel=1e-3)
    assert pos[1] == pytest.approx(1004.8, rel=1e-3)
    nearest = min(pos, key=lambda k: abs(k - 1.0))
    assert nearest == pytest.approx(0.928, rel=1e-3)


def test_solve_cubic_random_vs_companion_matrix():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(400):
        coeffs = rng.uniform(-3.0, 3.0, size=4)
        if abs(coeffs[0]) < 0.3:
            coeffs[0] = 0.3 * math.copysign(1.0, coeffs[0] or 1.0)
        mine = sorted(solve_cubic(*coeffs).roots, key=lambda z: (z.real, z.imag))
        ref = sorted((complex(z) for z in np.roots(coeffs)), key=lambda z: (z.real, z.imag))
        for a, b in zip(mine, ref):
            worst = max(worst, abs(a - b))
    assert worst < 1e-8


def test_solve_cubic_residual_bound():
    rng = np.random.default_rng(13)
    for _ in range(200):
        coeffs = rng.uniform(-5.0, 5.0, size=4)
        coeffs[0] = coeffs[0] if abs(coeffs[0]) > 0.2 else 1.0
        r = solve_cubic(*coeffs)
        top = max(abs(c) for c in coeffs)
        for root in r.roots:
            val = ((coeffs[0] * root + coeffs[1]) * root + coeffs[2]) * root + coeffs[3]
            assert abs(val) <= 1e-8 * top


def test_solve_cubic_vieta_and_classification():
    rng = np.random.default_rng(17)
    for _ in range(300):
        a3, a2, a1, a0 = rng.uniform(-4.0, 4.0, size=4)
        if abs(a3) < 0.2:
            a3 = 0.7
        r = solve_cubic(a3, a2, a1, a0)
        s = sum(r.roots)
        p = r.roots[0] * r.roots[1] * r.roots[2]
        assert s.real == pytest.approx(-a2 / a3, rel=1e-9, abs=1e-9)
        assert abs(s.imag) < 1e-9 * (1.0 + abs(s))
        assert p.real == pytest.approx(-a0 / a3, rel=1e-9, abs=1e-9)
        max_imag = max(abs(z.imag) for z in r.roots)
        assert r.all_real == (max_imag < 1e-7 * (1.0 + max(abs(z) for z in r.roots)))


def test_solve_cubic_double_root_construction():
    r = solve_cubic(1.0, -4.5, 6.75, -3.375)  # (x - 1.5)^3
    assert r.all_real
    for z in r.roots:
        assert z.real == pytest.approx(1.5, abs=1e-9)
    # (x - 0.5)^2 (x + 8)
    r = solve_cubic(1.0, 7.0, -7.75, 2.0)
    got = sorted(x.real for x in r.roots)
    assert got[0] == pytest.approx(-8.0, abs=1e-8)
    assert got[1] == pytest.approx(0.5, abs=1e-8)
    assert got[2] == pytest.approx(0.5, abs=1e-8)


def test_solve_cubic_rejects_quadratic():
    with pytest.raises(ValueError):
        solve_cubic(0.0, 1.0, 2.0, 3.0)


def test_solve_cubic_rejects_a_leading_coefficient_that_scales_to_zero():
    # a3 / max|a_i| underflows to 0: the scaled cubic is a quadratic, as with a3 == 0
    with pytest.raises(ValueError, match=r"a3 = 1e-300 is 0 once scaled by max\|a_i\| = 1e\+100"):
        solve_cubic(1e-300, 0.0, 0.0, 1e100)


def test_solve_cubic_tiny_leading_coefficient():
    # dominant-root regime: direct closed forms cancel catastrophically here
    c = (-1.51547717e-05, 1.56739775e+03, 5.06321766e+01, 7.68584146e-02)
    mine = sorted(solve_cubic(*c).roots, key=lambda z: (z.real, z.imag))
    ref = sorted((complex(z) for z in np.roots(c)), key=lambda z: (z.real, z.imag))
    for a, b in zip(mine, ref):
        assert abs(a - b) <= 1e-8 * (1.0 + abs(b))


def test_solve_cubic_repairs_lost_small_roots():
    # the closed form returns the two small roots near -2.4e12 +- 0.1j in the first case; only the
    # dominant-root repair (polish -a2/a3, deflate, solve the quadratic) recovers +-1.6596j.  The
    # second is design's k cubic a3 k^3 + a2 k^2 + 1, where the closed form gave -115.65 and 115.65
    # for -1 and 1: the lost pair cancels in the root sum, so only the residual shows the loss
    for c in [(-6.834402301693627e-18, 0.3630682533620418, 6.5698740439335205e-15, 1.0), (1e-20, -1.0, 0.0, 1.0)]:
        mine = sorted(solve_cubic(*c).roots, key=lambda z: (z.real, z.imag))
        ref = sorted((complex(z) for z in np.roots(c)), key=lambda z: (z.real, z.imag))
        for a, b in zip(mine, ref):
            assert abs(a - b) <= 1e-9 * abs(b), c
    # at a3 = 1e-100 numpy.roots loses the pair too (it gives 0 and 0), so the roots are checked against their limit
    mine = sorted(solve_cubic(1e-100, -1.0, 0.0, 1.0).roots, key=lambda z: (z.real, z.imag))
    for a, b in zip(mine, (-1.0, 1.0, 1e100)):
        assert abs(a - b) <= 1e-9 * abs(b)


def test_solve_cubic_bandwidth_family_weak_damping():
    # the k cubic with a nearly vanishing leading coefficient (psi -> 0)
    rng = np.random.default_rng(23)
    for _ in range(300):
        eta = float(rng.uniform(0.001, 0.99))
        xi = float(rng.uniform(0.05, 1.5))
        psi = 10.0 ** float(rng.uniform(-8, 0))
        a3 = 2.0 * eta * xi * xi * psi
        a2 = -(1.0 + 2.0 * eta * xi * xi)
        res = solve_cubic(a3, a2, 0.0, 1.0)
        ref = sorted((complex(z) for z in np.roots([a3, a2, 0.0, 1.0])),
                     key=lambda z: (z.real, z.imag))
        mine = sorted(res.roots, key=lambda z: (z.real, z.imag))
        for a, b in zip(mine, ref):
            assert abs(a - b) <= 1e-8 * (1.0 + abs(b))


def test_solve_cubic_three_real_roots_around_zero():
    # the k cubic's all-real condition at psi = 2, xi = 1: 8*lam^3 - (27*psi^2 - 12)*lam^2 + 6*lam + 1
    r = solve_cubic(8.0, -96.0, 6.0, 1.0)
    assert r.all_real
    lam = sorted(r.real_roots())
    assert len(lam) == 3 and lam[0] < 0.0 < lam[1] < lam[2]
    assert 8.0 * lam[1] ** 3 - 96.0 * lam[1] ** 2 + 6.0 * lam[1] + 1.0 == pytest.approx(0.0, abs=1e-8)


def test_solve_cubic_k_cubic_between_the_all_real_roots():
    # with eta = 5 between those roots (0.139, 11.94) the k cubic 2*eta*psi*k^3 - (1 + 2*eta)*k^2 + 1
    # = (4k + 1)(5k^2 - 4k + 1) keeps one real root
    r = solve_cubic(2.0 * 5.0 * 2.0, -(1.0 + 2.0 * 5.0), 0.0, 1.0)
    assert not r.all_real
    assert r.real_roots() == pytest.approx([-0.25], abs=1e-12)
    assert list(r.roots[1:]) == pytest.approx([0.4 - 0.2j, 0.4 + 0.2j], abs=1e-12)


def test_solve_quadratic_stable():
    lo, hi = solve_quadratic(1.0, -1e8, 1.0)
    assert lo.real == pytest.approx(1e-8, rel=1e-9)
    assert hi.real == pytest.approx(1e8, rel=1e-9)


# ---------------------------------------------------------------------------
# splitting the aggregate gain
# ---------------------------------------------------------------------------

def _result_with(alpha_g: float, g_v: float) -> DesignResult:
    return DesignResult(case=EnvClass.PURE_DAMPING, w_n=1.0, xi=1.0, p=0.0,
                        alpha_g=alpha_g, C_f=1.0, g_v=g_v)


def test_split_alpha_g():
    assert split_alpha_g(_result_with(500.0, 1000.0), 1.0) == pytest.approx(500.0)
    assert split_alpha_g(_result_with(500.0, 1000.0), 2.0) == pytest.approx(250.0)


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])  # alpha_g / inf would be a zero cutoff
def test_split_alpha_g_rejects_nonpositive_or_nan_alpha(alpha):
    with pytest.raises(ValueError):
        split_alpha_g(_result_with(500.0, 1000.0), alpha)


def test_classify_environment():
    assert classify_environment(EnvImpedance(D_env=1.0)) is EnvClass.PURE_DAMPING
    assert classify_environment(EnvImpedance(K_env=1.0)) is EnvClass.PURE_STIFFNESS
    assert classify_environment(EnvImpedance(D_env=1.0, K_env=1.0)) is EnvClass.DAMPING_STIFFNESS
    with pytest.raises(ValueError):
        classify_environment(EnvImpedance())


def test_design_for_env_dispatch():
    r = design_for_env(3.02, EnvImpedance(D_env=2.0, K_env=6500.0), 1000.0)
    assert r.case is EnvClass.DAMPING_STIFFNESS

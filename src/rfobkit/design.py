"""Adaptive gain design for observer-based force control under the bandwidth bound.

Each environment class (pure damping, pure stiffness, damping + stiffness) gets a
pole-placement procedure that returns the aggregate observer gain alpha_g and the
force gain C_f such that the closed-loop characteristic polynomial equals

    (s + p) * (s^2 + 2*xi*w_n*s + w_n^2)        (p = 0 for the damping case)

while respecting alpha*g_dob <= g_v/2.  The cubic-root machinery used by the
damping+stiffness case lives here as well.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum

from .plant import EnvImpedance


class EnvClass(Enum):
    PURE_DAMPING = "damping"
    PURE_STIFFNESS = "stiffness"
    DAMPING_STIFFNESS = "damping_stiffness"


def classify_environment(env: EnvImpedance) -> EnvClass:
    """Pick the design case matching the nonzero impedance components."""
    has_d = env.D_env > 0.0
    has_k = env.K_env > 0.0
    if has_d and has_k:
        return EnvClass.DAMPING_STIFFNESS
    if has_d:
        return EnvClass.PURE_DAMPING
    if has_k:
        return EnvClass.PURE_STIFFNESS
    raise ValueError("environment has neither damping nor stiffness: no force loop exists")


class InfeasibleDesignError(Exception):
    """A design constraint cannot be met; `condition` names the violated inequality."""

    def __init__(self, condition: str, details: str = ""):
        self.condition = condition
        self.details = details
        super().__init__(f"{condition}" + (f": {details}" if details else ""))


# ---------------------------------------------------------------------------
# polynomial root solvers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CubicRoots:
    """Roots of a cubic with the real/complex classification.

    all_real is True when the discriminant is >= 0 (three real roots counting
    multiplicity); otherwise one real root and a conjugate pair.
    """

    roots: tuple[complex, complex, complex]
    all_real: bool
    discriminant: float

    def real_roots(self, tol: float = 1e-9) -> list[float]:
        return [r.real for r in self.roots if abs(r.imag) <= tol * (1.0 + abs(r))]

    def positive_real_roots(self, tol: float = 1e-9) -> list[float]:
        return [r for r in self.real_roots(tol) if r > 0.0]


def solve_quadratic(a: float, b: float, c: float) -> tuple[complex, complex]:
    """Roots of a*x^2 + b*x + c with the cancellation-safe split."""
    if a == 0.0:
        raise ValueError("leading coefficient is zero; not a quadratic")
    disc = b * b - 4.0 * a * c
    sq = cmath.sqrt(disc)
    if b.real >= 0.0:
        q = -0.5 * (b + sq)
    else:
        q = -0.5 * (b - sq)
    if q == 0:
        r1 = complex(0.0)
    else:
        r1 = c / q
    r2 = q / a
    lo, hi = sorted((r1, r2), key=lambda z: (z.real, z.imag))
    return lo, hi


def _cubic_eval(b3: float, b2: float, b1: float, b0: float, x: complex) -> complex:
    return ((b3 * x + b2) * x + b1) * x + b0


def _polish(b3: float, b2: float, b1: float, b0: float, x: complex, iters: int = 3) -> complex:
    for _ in range(iters):
        f = _cubic_eval(b3, b2, b1, b0, x)
        df = (3.0 * b3 * x + 2.0 * b2) * x + b1
        if df == 0:
            break
        step = f / df
        x = x - step
        if abs(step) <= 1e-16 * (1.0 + abs(x)):
            break
    return x


def solve_cubic(a3: float, a2: float, a1: float, a0: float) -> CubicRoots:
    """Analytic roots of a3*x^3 + a2*x^2 + a1*x + a0.

    Uses Delta0 = a2^2 - 3*a3*a1, Delta1 = 2*a2^3 - 9*a3*a2*a1 + 27*a3^2*a0 and
    G = cbrt((Delta1 + sqrt(Delta1^2 - 4*Delta0^3)) / 2), enumerating the three
    cube roots; the sqrt branch is picked to avoid cancellation and a dedicated
    closed form handles repeated roots.  Roots are Newton-polished so the
    residual stays below 1e-8 * max|coeff|.
    """
    if a3 == 0.0:
        raise ValueError("a3 = 0: use solve_quadratic for degree-2 polynomials")
    scale = max(abs(a3), abs(a2), abs(a1), abs(a0))
    b3, b2, b1, b0 = a3 / scale, a2 / scale, a1 / scale, a0 / scale
    if b3 == 0.0:
        raise ValueError(f"a3 = {a3:g} is 0 once scaled by max|a_i| = {scale:g}")

    terms = (
        18.0 * b3 * b2 * b1 * b0,
        -4.0 * b2 ** 3 * b0,
        (b2 * b1) ** 2,
        -4.0 * b3 * b1 ** 3,
        -27.0 * (b3 * b0) ** 2,
    )
    disc = math.fsum(terms)
    disc_scale = sum(abs(t) for t in terms)
    near_zero = abs(disc) <= 1e-13 * max(disc_scale, 1e-300)

    d0 = b2 * b2 - 3.0 * b3 * b1
    d1 = 2.0 * b2 ** 3 - 9.0 * b3 * b2 * b1 + 27.0 * b3 * b3 * b0

    if near_zero:
        d0_scale = abs(b2 * b2) + abs(3.0 * b3 * b1)
        if abs(d0) <= 1e-13 * max(d0_scale, 1e-300):
            r = -b2 / (3.0 * b3)
            roots = [complex(r), complex(r), complex(r)]
        else:
            double = (9.0 * b3 * b0 - b2 * b1) / (2.0 * d0)
            single = (4.0 * b3 * b2 * b1 - 9.0 * b3 * b3 * b0 - b2 ** 3) / (b3 * d0)
            roots = [
                complex(_polish(b3, b2, b1, b0, complex(single)).real),
                complex(double),
                complex(double),
            ]
        all_real = True
    else:
        # Delta1^2 - 4*Delta0^3 = -27*a3^2*disc; the right-hand form avoids the
        # catastrophic cancellation of the direct expression when a3 is tiny
        inner = -27.0 * b3 * b3 * disc
        sq = cmath.sqrt(complex(inner))
        num = d1 + sq if abs(d1 + sq) >= abs(d1 - sq) else d1 - sq
        gamma = (0.5 * num) ** (1.0 / 3.0)
        w = complex(-0.5, 0.5 * math.sqrt(3.0))
        roots = []
        for j in range(3):
            gj = gamma * w ** j
            x = -(b2 + gj + d0 / gj) / (3.0 * b3)
            roots.append(_polish(b3, b2, b1, b0, x))
        roots = _repair_dominant_root(b3, b2, b1, b0, roots)
        all_real = disc > 0.0
        if all_real:
            roots = [complex(_polish(b3, b2, b1, b0, complex(r.real)).real) for r in roots]
        else:
            # one real root, one conjugate pair; enforce exact conjugacy
            roots.sort(key=lambda z: abs(z.imag))
            real_r = _polish(b3, b2, b1, b0, complex(roots[0].real)).real
            re = 0.5 * (roots[1].real + roots[2].real)
            im = 0.5 * (abs(roots[1].imag) + abs(roots[2].imag))
            z = _polish(b3, b2, b1, b0, complex(re, im))
            roots = [complex(real_r), complex(z.real, -abs(z.imag)), complex(z.real, abs(z.imag))]

    roots = sorted(roots, key=lambda z: (z.real, z.imag))
    return CubicRoots(roots=tuple(roots), all_real=all_real, discriminant=disc)


def _repair_dominant_root(b3: float, b2: float, b1: float, b0: float,
                          roots: list[complex]) -> list[complex]:
    """Recover from the ill-conditioned tiny-leading-coefficient regime.

    When one root dominates (|a3| << |a2|) the closed-form sum can lose the
    small roots entirely; the root sum then misses -a2/a3, or the residual
    shows it when the lost pair cancels in the sum.  Repair: polish the
    dominant root from -a2/a3, deflate it with the backward (constant-side)
    recursion, which is stable for the small roots, and solve the quadratic.
    """
    def worst_residual(rs):
        out = 0.0
        for r in rs:
            try:
                scale = abs(b3 * r ** 3) + abs(b2 * r * r) + abs(b1 * r) + abs(b0) + 1e-300
            except OverflowError:  # |r| ** 3 beyond the float range: a set that cannot be scored loses
                return math.inf
            res = abs(_cubic_eval(b3, b2, b1, b0, r)) / scale
            out = max(out, math.inf if math.isnan(res) else res)  # so does a NaN root
        return out

    s_target = -b2 / b3
    s_got = sum(r.real for r in roots)
    before = worst_residual(roots)
    if abs(s_got - s_target) <= 1e-6 * (1.0 + abs(s_target)) and before <= 1e-8:
        return roots
    big = _polish(b3, b2, b1, b0, complex(s_target), iters=8)
    if big == 0:
        return roots
    q0 = -b0 / big
    q1 = (q0 - b1) / big
    try:
        small = solve_quadratic(b3, q1.real, q0.real)
    except ValueError:
        return roots
    repaired = [_polish(b3, b2, b1, b0, big),
                _polish(b3, b2, b1, b0, small[0]),
                _polish(b3, b2, b1, b0, small[1])]
    return repaired if worst_residual(repaired) < before else roots


# ---------------------------------------------------------------------------
# design specs and result
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DesignSpecA:
    """Damping-environment choices: xi in [0.707, 1], gamma in (lower bound, 1]."""

    xi: float = 0.7071
    gamma: float = 1.0


@dataclass(frozen=True)
class DesignSpecB:
    """Stiffness-environment choices; eta and xi are clipped into the feasible set."""

    xi: float = 1.0
    eta: float = 2.0


@dataclass(frozen=True)
class DesignSpecC:
    """Damping+stiffness choices.

    xi: damping ratio, default picked inside the admissible window.
    eta_star: third-pole ratio target used on the narrow-window branch (< 1).
    k_hint: preferred natural-frequency fraction on the wide-window branch.
    """

    xi: float | None = None
    eta_star: float = 0.1
    k_hint: float = 0.5


@dataclass(frozen=True)
class DesignResult:
    """Placed gains plus the audit intermediates for one design call."""

    case: EnvClass
    w_n: float
    xi: float
    p: float
    alpha_g: float
    C_f: float
    g_v: float
    k: float | None = None
    eta: float | None = None
    psi: float | None = None
    feasible: bool = True
    degenerate: bool = False
    report: dict[str, float] = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        # the fields in declaration order; `asdict` would deep-copy them at several times
        # the cost of the design itself, once per point of a sweep
        return {**vars(self), "case": self.case.value, "report": dict(self.report), "notes": list(self.notes)}


def _third_order_result(case: EnvClass, xi: float, k: float, eta: float, psi: float | None, w_n: float, p: float,
                        alpha_g: float, g_v: float, K_env: float, report: dict[str, float],
                        notes: list[str]) -> DesignResult:
    """C_f and the result of a case-B or case-C design, once the case has placed its poles.

    The design is flagged degenerate when the third pole nearly vanishes.
    """
    C_f = w_n * w_n * p / (alpha_g * K_env)
    degenerate = p < 1e-6 * w_n
    if degenerate:
        notes.append("degenerate third pole: p < 1e-6 * w_n")
    return DesignResult(
        case=case,
        w_n=w_n,
        xi=xi,
        p=p,
        alpha_g=alpha_g,
        C_f=C_f,
        g_v=g_v,
        k=k,
        eta=eta,
        psi=psi,
        feasible=not degenerate,
        degenerate=degenerate,
        report=report,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# case A: pure damping
# ---------------------------------------------------------------------------

def design_damping(M_m: float, D_env: float, g_v: float, spec: DesignSpecA | None = None) -> DesignResult:
    """Second-order placement for a pure-damping environment.

    w_n = (gamma / 2 xi) * (g_v/2 + D/M), alpha_g = 2*xi*w_n - D/M and
    C_f = w_n^2 / (alpha_g * D_env); feasibility requires
    D/M < 2*xi*w_n <= g_v/2 + D/M, i.e. gamma in (2D/(M g_v + 2D), 1].
    """
    spec = spec or DesignSpecA()
    if M_m <= 0.0 or D_env <= 0.0 or g_v <= 0.0:
        raise InfeasibleDesignError("M_m, D_env and g_v must be > 0 for the damping case")
    if not (0.707 - 1e-9 <= spec.xi <= 1.0 + 1e-12):
        raise InfeasibleDesignError("xi outside [0.707, 1]", f"xi = {spec.xi}")
    dm = D_env / M_m
    gamma_lb = 2.0 * D_env / (M_m * g_v + 2.0 * D_env)
    if not (gamma_lb < spec.gamma <= 1.0):
        raise InfeasibleDesignError(
            "gamma outside (2D/(M*g_v + 2D), 1]",
            f"gamma = {spec.gamma:.6g}, lower bound = {gamma_lb:.6g}",
        )
    w_n = (spec.gamma / (2.0 * spec.xi)) * (0.5 * g_v + dm)
    # 2*xi*w_n - D/M rearranged so that gamma = 1 lands on g_v/2 exactly, with no rounding that scales with D/M
    alpha_g = spec.gamma * 0.5 * g_v - (1.0 - spec.gamma) * dm
    C_f = w_n * w_n / (alpha_g * D_env)
    report = {
        "gamma": spec.gamma,
        "gamma_lower_bound": gamma_lb,
        "D_over_M": dm,
        "bandwidth_margin": 0.5 * g_v + dm - 2.0 * spec.xi * w_n,
        "alpha_g_lower_margin": alpha_g,
    }
    return DesignResult(
        case=EnvClass.PURE_DAMPING,
        w_n=w_n,
        xi=spec.xi,
        p=0.0,
        alpha_g=alpha_g,
        C_f=C_f,
        g_v=g_v,
        report=report,
    )


# ---------------------------------------------------------------------------
# case B: pure stiffness
# ---------------------------------------------------------------------------

def _eta_interval_stiffness(R: float, xi: float) -> tuple[float, float] | None:
    """Feasible eta range from eta^2 + (4 - 2R)*eta + 4 - R/xi^2 <= 0, intersected with eta > 0."""
    disc = R * R - 4.0 * R + R / (xi * xi)
    if disc < 0.0:
        return None
    sq = math.sqrt(disc)
    lo = (R - 2.0) - sq
    hi = (R - 2.0) + sq
    if hi <= 0.0:
        return None
    return max(lo, 0.0), hi


def design_stiffness(M_m: float, K_env: float, g_v: float, spec: DesignSpecB | None = None) -> DesignResult:
    """Third-order placement for a pure-stiffness environment.

    The third pole is p = eta*xi*w_n with w_n = k*sqrt(K/M), k = 1/sqrt(1+2*eta*xi^2);
    then alpha_g = 2*xi*w_n + p and C_f = w_n^2*p/(alpha_g*K_env).  Feasibility of
    0 < alpha_g <= g_v/2 is equivalent to eta^2 + (4-2R)eta + 4 - R/xi^2 <= 0 with
    R = M*g_v^2/(4K); when M*g_v^2/K_env < 16 the damping ratio is capped at
    xi_star = 2*sqrt(K)/sqrt(16K - M*g_v^2).
    """
    spec = spec or DesignSpecB()
    if M_m <= 0.0 or K_env <= 0.0 or g_v <= 0.0:
        raise InfeasibleDesignError("M_m, K_env and g_v must be > 0 for the stiffness case")
    if spec.xi <= 0.0 or spec.eta <= 0.0:
        raise InfeasibleDesignError("xi and eta must be > 0", f"xi={spec.xi}, eta={spec.eta}")
    notes: list[str] = []
    Rq = M_m * g_v * g_v / K_env
    R = 0.25 * Rq
    xi = spec.xi
    xi_star_real = math.inf
    xi_star_pos = math.inf
    if Rq < 16.0:
        xi_star_real = 2.0 * math.sqrt(K_env) / math.sqrt(16.0 * K_env - M_m * g_v * g_v)
        xi_star_pos = 0.5 * math.sqrt(R)
        if xi > xi_star_real:
            xi = xi_star_real * (1.0 - 1e-12)
            notes.append(f"xi clipped from {spec.xi:.6g} to {xi:.6g} (real-eta cap)")
    interval = _eta_interval_stiffness(R, xi)
    if interval is None:
        raise InfeasibleDesignError(
            "no eta > 0 satisfies the bandwidth bound 2*xi*w_n + p <= g_v/2",
            f"M*g_v^2/K_env = {Rq:.6g}, xi = {xi:.6g}",
        )
    eta_lo, eta_hi = interval
    eta = spec.eta
    if eta < eta_lo or eta > eta_hi:
        eta = min(max(eta, max(eta_lo, 1e-12)), eta_hi)
        notes.append(f"eta clipped from {spec.eta:.6g} to {eta:.6g} (feasible range [{eta_lo:.6g}, {eta_hi:.6g}])")
    k = 1.0 / math.sqrt(1.0 + 2.0 * eta * xi * xi)
    w_n = k * math.sqrt(K_env / M_m)
    p = eta * xi * w_n
    alpha_g = 2.0 * xi * w_n + p
    report = {
        "R": R,
        "M_gv2_over_K": Rq,
        "xi_star_real": xi_star_real,
        "xi_star_pos": xi_star_pos,
        "eta_lo": eta_lo,
        "eta_hi": eta_hi,
        "bandwidth_margin": 0.5 * g_v - alpha_g,
    }
    return _third_order_result(EnvClass.PURE_STIFFNESS, xi, k, eta, None, w_n, p, alpha_g, g_v, K_env, report, notes)


# ---------------------------------------------------------------------------
# case C: damping + stiffness
# ---------------------------------------------------------------------------

def _eta_from_k(k: float, xi: float, psi: float) -> float:
    return (1.0 - k * k) / (2.0 * xi * xi * (1.0 - psi * k) * k * k)


def _check_xi_window(xi: float, xi_minus: float, xi_plus: float) -> None:
    if not (xi_minus < xi <= xi_plus):
        raise InfeasibleDesignError(
            "xi outside the admissible window (xi_minus, xi_plus]",
            f"xi = {xi:.6g}, window = ({xi_minus:.6g}, {xi_plus:.6g}]",
        )


def _check_stability_region(k: float, psi: float) -> None:
    inv = 1.0 / psi if psi > 0.0 else math.inf
    if not ((k < 1.0 and k < inv) or (k > 1.0 and k > inv)):
        raise InfeasibleDesignError(
            "unstable k region: need (k < 1 and k < 1/psi) or (k > 1 and k > 1/psi)",
            f"k = {k:.6g}, 1/psi = {1.0 / psi:.6g}",
        )


def design_damping_stiffness(
    M_m: float,
    D_env: float,
    K_env: float,
    g_v: float,
    spec: DesignSpecC | None = None,
) -> DesignResult:
    """Third-order placement for a combined damping + stiffness environment.

    With w_n = k*sqrt(K/M) the third-pole ratio is
    eta = (1 - k^2) / (2*xi^2*(1 - psi*k)*k^2), psi = D / (2*xi*sqrt(M*K)),
    and alpha_g = (2 + eta)*xi*w_n - D/M must land in (0, g_v/2].  The damping
    ratio window is xi_minus < xi <= xi_plus with
    xi_minus = (D/M)/(2*sqrt(K/M)) and xi_plus = (g_v/2 + D/M)/(2*sqrt(K/M)).

    Narrow window (xi_plus < 1): fix eta = eta_star < 1 and solve
    2*eta*xi^2*psi*k^3 - (1 + 2*eta*xi^2)*k^2 + 1 = 0, keeping the positive real
    root nearest 1.  Every eta_star > 0 is admissible: on the window
    psi = xi_minus/xi < 1, so the cubic's all-real condition
    8*lam^3 - (27*psi^2 - 12)*lam^2 + 6*lam + 1 >= 0 (lam = xi^2*eta_star)
    holds, its left side being at least (lam - 1)^2*(8*lam + 1).

    Wide window (xi_plus >= 1): xi defaults to 1 and k is searched on
    (0, min(1, 1/psi)) directly against the bandwidth bound, which sidesteps the
    closed-form inequality whose symbols are underdetermined.
    """
    spec = spec or DesignSpecC()
    if M_m <= 0.0 or D_env <= 0.0 or K_env <= 0.0 or g_v <= 0.0:
        raise InfeasibleDesignError("M_m, D_env, K_env and g_v must be > 0 for the combined case")
    notes: list[str] = []
    sq_km = math.sqrt(K_env / M_m)
    if not sq_km > 0.0:  # both window edges divide by it
        raise InfeasibleDesignError("sqrt(K/M) rounds to 0", f"M_m = {M_m:.6g}, K_env = {K_env:.6g}")
    dm = D_env / M_m
    xi_minus = dm / (2.0 * sq_km)
    xi_plus = (0.5 * g_v + dm) / (2.0 * sq_km)
    if not D_env / (2.0 * xi_plus * math.sqrt(M_m * K_env)) > 0.0:  # psi at the largest xi; 1/psi is used below
        raise InfeasibleDesignError("psi = D/(2*xi*sqrt(M*K)) rounds to 0", f"M_m = {M_m:.6g}, K_env = {K_env:.6g}")

    def solve_with_xi(xi: float, eta_star: float) -> tuple[float, float] | None:
        """Return (k, alpha_g) on the narrow branch, or None if the bound fails."""
        psi = D_env / (2.0 * xi * math.sqrt(M_m * K_env))
        a3 = 2.0 * eta_star * xi * xi * psi
        a2 = -(1.0 + 2.0 * eta_star * xi * xi)
        roots = solve_cubic(a3, a2, 0.0, 1.0)
        pos = roots.positive_real_roots()
        if not pos:
            raise InfeasibleDesignError(
                "k cubic has no positive real root (all-real condition violated)",
                f"eta_star = {eta_star:.6g}, psi = {psi:.6g}",
            )
        pos.sort(key=lambda r: (abs(r - 1.0), r))
        k = pos[0]
        _check_stability_region(k, psi)
        alpha_g = (2.0 + eta_star) * xi * k * sq_km - dm
        if alpha_g <= 0.0 or alpha_g > 0.5 * g_v:
            return None
        return k, alpha_g

    if xi_plus < 1.0:
        # narrow window: small eta_star, k close to 1
        if not (0.0 < spec.eta_star < 1.0):
            raise InfeasibleDesignError("eta_star must lie in (0, 1) on the narrow branch",
                                        f"eta_star = {spec.eta_star}")
        eta = spec.eta_star
        if spec.xi is not None:
            xi = spec.xi
            _check_xi_window(xi, xi_minus, xi_plus)
            solved = solve_with_xi(xi, eta)
            if solved is None:
                raise InfeasibleDesignError(
                    "bandwidth bound violated: (2+eta)*xi*k*sqrt(K/M) - D/M not in (0, g_v/2]",
                    f"xi = {xi:.6g}",
                )
        else:
            # deterministic search: prefer the requested eta_star and larger xi; for
            # tight windows shrink eta_star (a smaller third-pole ratio relaxes the
            # bandwidth bound) before giving up
            xi_grid = [xi_plus - (xi_plus - xi_minus) * i / 33.0 for i in range(33)]
            solved = None
            xi = xi_plus
            while solved is None and eta >= 1e-5:
                for xi_cand in xi_grid:
                    solved = solve_with_xi(xi_cand, eta)
                    if solved is not None:
                        xi = xi_cand
                        break
                if solved is None:
                    eta *= 0.5
            if solved is None:
                raise InfeasibleDesignError(
                    "bandwidth bound violated for every (xi, eta_star) tried in the admissible window",
                    f"window = ({xi_minus:.6g}, {xi_plus:.6g}]",
                )
            if eta != spec.eta_star:
                notes.append(f"eta_star reduced from {spec.eta_star:.6g} to {eta:.6g} "
                             f"to satisfy the bandwidth bound")
            if abs(xi - xi_plus) > 1e-12 * xi_plus:
                notes.append(f"xi auto-selected at {xi:.6g} inside ({xi_minus:.6g}, {xi_plus:.6g}]")
        k, alpha_g = solved
        branch = 0.0
    else:
        # wide window: xi defaults to 1, k searched directly against the bound
        xi = 1.0 if spec.xi is None else spec.xi
        _check_xi_window(xi, xi_minus, xi_plus)
        psi = D_env / (2.0 * xi * math.sqrt(M_m * K_env))
        k_max = min(1.0, 1.0 / psi) * (1.0 - 1e-9)

        def alpha_g_of(k: float) -> float:
            return (2.0 + _eta_from_k(k, xi, psi)) * xi * k * sq_km - dm

        def feasible(k: float) -> bool:
            ag = alpha_g_of(k)
            return 0.0 < ag <= 0.5 * g_v

        if not (spec.k_hint > 0.0 and spec.k_hint * spec.k_hint > 0.0):  # eta's formula divides by k^2
            raise InfeasibleDesignError("k_hint must be > 0", f"k_hint = {spec.k_hint}"
                                        + (", whose square rounds to 0" if spec.k_hint > 0.0 else ""))
        k = min(spec.k_hint, k_max)
        if not feasible(k):
            grid = [k_max * (i + 1) / 2000.0 for i in range(2000)]
            candidates = [kk for kk in grid if feasible(kk)]
            if not candidates:
                raise InfeasibleDesignError(
                    "bandwidth bound violated: (2+eta)*xi*k*sqrt(K/M) - D/M not in (0, g_v/2] for any k",
                    f"xi = {xi:.6g}, psi = {psi:.6g}",
                )
            k = min(candidates, key=lambda kk: (abs(kk - k), kk))
            notes.append(f"k moved from {spec.k_hint:.6g} to {k:.6g} to satisfy the bandwidth bound")
        alpha_g = alpha_g_of(k)
        eta = _eta_from_k(k, xi, psi)
        branch = 1.0

    psi = D_env / (2.0 * xi * math.sqrt(M_m * K_env))
    w_n = k * sq_km
    p = eta * xi * w_n
    report = {
        "xi_minus": xi_minus,
        "xi_plus": xi_plus,
        "psi": psi,
        "branch": branch,
        "D_over_M": dm,
        "bandwidth_margin": 0.5 * g_v - alpha_g,
        "alpha_g_lower_margin": alpha_g,
    }
    return _third_order_result(EnvClass.DAMPING_STIFFNESS, xi, k, eta, psi, w_n, p, alpha_g, g_v, K_env, report, notes)


def design_for_env(
    M_m: float,
    env: EnvImpedance,
    g_v: float,
    spec_a: DesignSpecA | None = None,
    spec_b: DesignSpecB | None = None,
    spec_c: DesignSpecC | None = None,
) -> DesignResult:
    """Dispatch to the design procedure matching the environment class."""
    case = classify_environment(env)
    if case is EnvClass.PURE_DAMPING:
        return design_damping(M_m, env.D_env, g_v, spec_a)
    if case is EnvClass.PURE_STIFFNESS:
        return design_stiffness(M_m, env.K_env, g_v, spec_b)
    return design_damping_stiffness(M_m, env.D_env, env.K_env, g_v, spec_c)


def split_alpha_g(result: DesignResult, alpha: float) -> float:
    """The observer cutoff g = alpha_g / alpha that the DOB and the RFOB share.

    Each design case places alpha_g inside alpha*g <= g_v/2, so an on-bound
    design gives alpha*g on the bound to within rounding.
    """
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be {'finite' if alpha > 0.0 else '> 0'}, got {alpha}")
    return result.alpha_g / alpha

"""Adaptive gain design for observer-based force control under the bandwidth bound.

Each environment class (pure damping, pure stiffness, damping + stiffness) gets a
pole-placement procedure that returns the aggregate observer gain alpha_g and the
force gain C_f such that the closed-loop characteristic polynomial equals

    (s + p) * (s^2 + 2*xi*w_n*s + w_n^2)        (p = 0 for the damping case)

while respecting alpha*g_dob <= g_v/2.  The polynomial root finder that the
damping+stiffness case and the loop analysis share lives here as well.
"""
from __future__ import annotations

import cmath
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter

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
# polynomial roots
# ---------------------------------------------------------------------------

_EPS = sys.float_info.epsilon
_LOG_MAX = math.log(sys.float_info.max)


def _aberth(c: list[float], zs: list, rad: list[float]) -> None:
    """Aberth's iteration (Math. Comp. 27 (1973)) on the descending coefficients c, in place on zs.

    Where |z| > 1 the reversed polynomial q(w) = w^n p(1/w) is evaluated at w = 1/z, with
    p/p' = z*q/(n*q - w*q'), so no power of z over- or underflows. A root stops once its next step,
    extrapolated at the rate of its last two, would fall below its rounding, or one step after |p(z)|
    falls within Horner's rounding bound 4*n*eps*sum|a_i||z|^i; rad[k] then holds a radius around
    zs[k] that holds a root. With a single start point this is Newton's method.
    """
    n = len(c) - 1
    ahead, back = c[1:], c[-2::-1]  # after the leading coefficient, of p and of q
    tol = 4.0 * n * _EPS
    most = tol * sum(map(abs, c))  # the rounding bound at |z| = 1, the largest |z| or |w| evaluated
    prev = [0.0] * len(zs)
    todo = range(len(zs))
    for _ in range(64):
        left = []
        for k in todo:
            z = zs[k]
            az = abs(z)
            big = az > 1.0
            if big:
                x, p, rest = 1.0 / z, c[-1], back
            else:
                x, p, rest = z, c[0], ahead
            dp = 0.0
            for a in rest:
                dp = dp * x + p
                p = p * x + a
            if big:
                dp = n * p - x * dp
            newton = p / dp * (z if big else 1.0) if dp else 0.0
            t = 0.0
            for w in zs:
                if w != z:
                    t += 1.0 / (z - w)
            step = newton / ((1.0 - newton * t) or 1.0)
            zs[k] = z - step
            h = abs(newton) + abs(step)
            if prev[k] and h * (h / prev[k]) <= _EPS * az:  # the next step, at the last rate h/prev, is below rounding
                rad[k] = n * h
                continue
            if abs(p) <= most:
                ax, s = abs(x), abs(c[-1] if big else c[0])
                for a in rest:
                    s = s * ax + abs(a)
                if abs(p) <= tol * s:
                    rad[k] = n * (h + (tol * s / abs(dp) * (az if big else 1.0) if dp else 0.0))
                    continue
            prev[k] = h
            left.append(k)
        if not left:
            return
        todo = left


def poles(coeffs: Sequence[float]) -> list[complex]:
    """Roots of a polynomial of any degree with real coefficients in descending order, sorted by (real, imag).

    The start points lie on the circles of the Newton polygon of (k, log|a_k|) (Bini, Numer.
    Algorithms 13 (1996)); Aberth's iteration takes them to the roots. Leading zeros are stripped,
    and so are the leading coefficients of a polygon edge whose roots lie beyond the float range:
    at every float z they count as the zeros they round to, so those roots are left out. Roots
    whose error disks overlap form a cluster of m, refined as the simple root of p^(m-1) nearest
    their mean. A root or cluster whose disk reaches the real axis is real, with imaginary part
    exactly 0, and the other roots come in exact conjugate pairs.
    """
    c = list(map(float, coeffs))
    while len(c) > 1 and c[0] == 0.0:
        del c[0]
    if not all(map(math.isfinite, c)):
        raise ValueError(f"the polynomial {tuple(coeffs)} has a non-finite coefficient")
    roots: list[complex] = []
    while len(c) > 1 and c[-1] == 0.0:
        c.pop()
        roots.append(0j)
    n = len(c) - 1
    hull: list[tuple[int, float]] = []  # the upper convex hull of (k, log|a_k|), a_k the coefficient of z^k
    for k, a in enumerate(reversed(c)):
        if a:
            y = math.log(abs(a))
            while len(hull) > 1 and ((hull[-1][0] - hull[-2][0]) * (y - hull[-2][1])
                                     >= (hull[-1][1] - hull[-2][1]) * (k - hull[-2][0])):
                hull.pop()
            hull.append((k, y))
    zs: list[complex] = []
    for (k0, l0), (k1, l1) in zip(hull, hull[1:]):
        if (l0 - l1) / (k1 - k0) > _LOG_MAX:  # the radii grow along the hull: the rest lie beyond the float range
            del c[:n - k0]
            break
        zs += [cmath.rect(math.exp((l0 - l1) / (k1 - k0)), 2.0 * math.pi * (j / (k1 - k0) + k0 / n) + 0.7)
               for j in range(k1 - k0)]
    rad = [0.0] * len(zs)
    _aberth(c, zs, rad)
    clusters: list[list[int]] = []
    for k in range(len(zs)):
        for g in clusters:
            if abs(zs[k] - zs[g[0]]) <= rad[k] + rad[g[0]]:
                g.append(k)
                break
        else:
            clusters.append([k])
    for g in clusters:
        m = len(g)
        if m == 1:
            z = zs[g[0]]
            roots.append(complex(z.real) if abs(z.imag) <= rad[g[0]] else z)
            continue
        mu = sum([zs[j] for j in g]) / m
        z = [mu.real if abs(mu.imag) <= max([abs(zs[j] - mu) + rad[j] for j in g]) else mu]
        d = c
        for _ in range(m - 1):
            d = [a * (len(d) - 1 - i) for i, a in enumerate(d[:-1])]
        _aberth(d, z, [0.0])
        roots += [complex(z[0])] * m
    upper = [z for z in roots if z.imag > 0.0]
    if upper and 2 * len(upper) == sum(1 for z in roots if z.imag):
        roots = [z for z in roots if not z.imag] + upper + [z.conjugate() for z in upper]
    return sorted(roots, key=attrgetter("real", "imag"))


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
        pos = [z.real for z in poles((a3, a2, 0.0, 1.0)) if not z.imag and z.real > 0.0]
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

"""Open/closed-loop transfer functions of the force loop and stability diagnostics.

Builds the loop gain seen by the proportional force controller (observer inner
loop plus spring-damper environment), the closed-loop characteristic
polynomials for the three environment classes, and the structural stability
checks: right-half-plane zero of the mismatch polynomial, root-locus asymptote
angles, and poles at any degree through `design.poles`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .design import EnvClass, classify_environment, poles
from .observers import DobConfig, RatioReport, RfobConfig
from .plant import EnvImpedance, PlantParams

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class RationalTf:
    """Rational transfer function num(s) / den(s), coefficient tuples in descending degree."""

    num: tuple[float, ...]
    den: tuple[float, ...]

    @property
    def relative_degree(self) -> int:
        return len(self.den) - len(self.num)

    def closed_loop(self) -> "RationalTf":
        """Unity negative feedback: L / (1 + L)."""
        pad = (0.0,) * (len(self.den) - len(self.num))
        return RationalTf(num=self.num, den=tuple(a + b for a, b in zip(self.den, pad + self.num)))


def _times_first_order(p: tuple[float, ...], g: float) -> tuple[float, ...]:
    """p(s) * (s + g)."""
    return tuple(a + g * b for a, b in zip(p + (0.0,), (0.0,) + p))


@dataclass(frozen=True)
class PhiPoly:
    """Model-mismatch quadratic of the force loop numerator.

    phi(s) = (M_m*K_F_hat - M_hat*K_F) s^2 + K_F_hat*D_env s + K_F_hat*K_env.
    A sign flip of the leading coefficient against the others puts a zero in
    the right half plane.
    """

    c2: float
    c1: float
    c0: float

    @classmethod
    def from_params(cls, pp: PlantParams, rfob: RfobConfig, env: EnvImpedance) -> "PhiPoly":
        """phi of the given models; c2 is 0 within 1e-12 of its two products.

        At beta = alpha the products M_m*K_F_hat and M_hat*K_F cancel only up to
        rounding, so their difference is judged against the products, never
        against c1 or c0: a stiff environment makes c0 large enough to hide a
        real mismatch.
        """
        a, b = pp.M_m * rfob.K_F_hat, rfob.M_hat * pp.K_F
        return cls(
            c2=a - b if abs(a - b) > 1e-12 * (abs(a) + abs(b)) else 0.0,
            c1=rfob.K_F_hat * env.D_env,
            c0=rfob.K_F_hat * env.K_env,
        )

    @property
    def coeffs(self) -> tuple[float, ...]:
        """(c2, c1, c0) without leading zeros."""
        c = (self.c2, self.c1, self.c0)
        c = c[1:] if c[0] == 0.0 else c
        return c[1:] if c[0] == 0.0 else c


def open_loop_general(
    pp: PlantParams,
    dob: DobConfig,
    rfob: RfobConfig,
    env: EnvImpedance,
    C_f: float,
) -> RationalTf:
    """Loop gain of the outer force loop with possibly imperfect identification.

    L(s) = C_f * [(s + g_dob)/(s + g_rfob)] * g_rfob * (M_mn/K_Fn) * phi(s)
           / ( s * [M_m s (s + alpha*g_dob) + D_env s + K_env] )

    The lead-lag factor is dropped when g_dob == g_rfob.  Common s factors
    (pure-damping environments) are cancelled so exactly one integrator
    remains.
    """
    if env.D_env == 0.0 and env.K_env == 0.0:
        raise ValueError("environment has neither damping nor stiffness: no force loop exists")
    if C_f <= 0.0:
        raise ValueError(f"C_f must be > 0, got {C_f}")
    alpha = RatioReport.from_configs(pp, dob, rfob).alpha
    den = (pp.M_m, pp.M_m * alpha * dob.g_dob + env.D_env, env.K_env, 0.0)
    gain = C_f * rfob.g_rfob * dob.M_mn / dob.K_Fn
    num = tuple(gain * c for c in PhiPoly.from_params(pp, rfob, env).coeffs)
    if dob.g_dob != rfob.g_rfob:
        num, den = _times_first_order(num, dob.g_dob), _times_first_order(den, rfob.g_rfob)
    if env.K_env == 0.0:
        num, den = num[:-1], den[:-1]
    return RationalTf(num=num, den=den)


def closed_loop_char_poly(
    case: EnvClass,
    M_m: float,
    alpha_g: float,
    C_f: float,
    env: EnvImpedance,
) -> tuple[float, ...]:
    """Monic closed-loop characteristic polynomial of the force loop.

    s^3 + (alpha_g + D/M) s^2 + (C_f*alpha_g*D + K/M) s + C_f*alpha_g*K,
    divided by s in the pure-damping case (K = 0).
    """
    if classify_environment(env) is not case:
        raise ValueError(f"{case.value} case does not match D_env = {env.D_env:g}, K_env = {env.K_env:g}")
    c = C_f * alpha_g
    p = (1.0, alpha_g + env.D_env / M_m, c * env.D_env + env.K_env / M_m, c * env.K_env)
    return p[:-1] if case is EnvClass.PURE_DAMPING else p


def closed_loop_force_tf(
    case: EnvClass,
    M_m: float,
    alpha_g: float,
    C_f: float,
    env: EnvImpedance,
) -> RationalTf:
    """Closed-loop transfer from force reference to estimated load force (unit DC gain).

    The numerator is C_f*alpha_g*(D s + K), without the zero term of a pure case.
    """
    c = C_f * alpha_g
    num = (c * env.D_env, c * env.K_env)
    if case is EnvClass.PURE_DAMPING:
        num = num[:1]
    elif case is EnvClass.PURE_STIFFNESS:
        num = num[1:]
    return RationalTf(num=num, den=closed_loop_char_poly(case, M_m, alpha_g, C_f, env))


def asymptote_angles(tf: RationalTf) -> tuple[float, ...]:
    """Root-locus asymptote angles in degrees, normalized to (-180, 180]."""
    r = tf.relative_degree
    if r < 0:
        raise ValueError("improper transfer function: relative degree < 0")
    if r == 0:
        return ()
    angles = []
    for q in range(r):
        a = (2.0 * q + 1.0) * 180.0 / r
        a = ((a + 180.0) % 360.0) - 180.0
        if a == -180.0:
            a = 180.0
        angles.append(a)
    return tuple(sorted(angles))


@dataclass(frozen=True)
class RhpZeroReport:
    """Roots of the mismatch polynomial and the right-half-plane flag."""

    roots: tuple[complex, ...]
    has_rhp: bool
    marginal: bool


def rhp_zero_check(phi: PhiPoly) -> RhpZeroReport:
    """Solve phi(s) = 0 and flag strictly right-half-plane roots.

    Roots on the imaginary axis (within tolerance) are reported as marginal,
    not as right-half-plane.
    """
    roots = poles(phi.coeffs)
    has_rhp = False
    marginal = False
    for r in roots:
        tol = 1e-9 * (1.0 + abs(r))
        if r.real > tol:
            has_rhp = True
        elif abs(r.real) <= tol:
            marginal = True
    return RhpZeroReport(roots=tuple(roots), has_rhp=has_rhp, marginal=marginal)


def step_response(tf: RationalTf, t: np.ndarray) -> np.ndarray:
    """Unit step response on a uniform time grid.

    The transfer function is realized in controllable canonical form and
    discretized exactly: the matrix exponential of the augmented system gives
    the zero-order-hold model, so the only approximation is the grid itself.
    The exponential is a degree-13 Pade approximant with scaling and squaring
    (`_expm`).

    Before that, time is rescaled by a power of two rho near the root radius
    max_k |den_k|^(1/k): H(rho*sigma) is realized with den_k / rho^k and
    num_j * rho^(m-j-n) (m, n the degrees) and stepped on the grid rho*dt,
    which gives the same samples. The companion coefficients of a stiff loop
    grow like the roots to the k-th power, so its unscaled matrix has a 1-norm
    far above its spectral radius. Pade scaling and squaring takes the number
    of squarings from that norm, and on stiff loops the result then keeps as
    few as five correct digits. After the rescale the coefficients are of
    order one. Powers of two scale exactly in floating point, so the rescale
    itself rounds nothing.
    """
    import numpy as np
    t = np.asarray(t, dtype=float)
    if t.size < 2:
        raise ValueError("need at least two time points")
    dt = t[1] - t[0]
    if not np.allclose(np.diff(t), dt, rtol=1e-9, atol=1e-12):
        raise ValueError("time grid must be uniform")
    if tf.relative_degree < 1:
        raise ValueError("step response requires a strictly proper transfer function")
    lead = tf.den[0]
    den = tuple(c / lead for c in tf.den)
    num = tuple(c / lead for c in tf.num)
    n = len(den) - 1
    m = len(num) - 1
    _, e = math.frexp(max(abs(c) ** (1.0 / k) for k, c in enumerate(den) if k))  # rho = 2^e
    den = [math.ldexp(c, -e * k) for k, c in enumerate(den)]
    num = [math.ldexp(c, e * (m - j - n)) for j, c in enumerate(num)]
    a = np.zeros((n, n))
    a[0, :] = [-c for c in den[1:]]
    for i in range(1, n):
        a[i, i - 1] = 1.0
    b = np.zeros((n, 1))
    b[0, 0] = 1.0
    cvec = np.zeros(n)
    cvec[n - len(num):] = num
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = a
    aug[:n, n:] = b
    phi = _expm(aug * math.ldexp(dt, e))
    ad, bd = phi[:n, :n], phi[:n, n]
    x = np.zeros(n)
    y = np.empty_like(t)
    y[0] = cvec @ x
    for i in range(1, t.size):
        x = ad @ x + bd
        y[i] = cvec @ x
    return y


# Higham, "The scaling and squaring method for the matrix exponential revisited",
# SIAM J. Matrix Anal. Appl. 26 (2005): degree-13 Pade coefficients b_0..b_13 and the
# largest 1-norm theta_13 for which the approximant is accurate to double precision.
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
           129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
           40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential: degree-13 Pade approximant with scaling and squaring."""
    import numpy as np
    norm = np.linalg.norm(a, 1)
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    a = a / 2.0 ** s
    b = _PADE13
    ident = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r

"""Recursive least-squares identification of plant and environment parameters.

Plant parameters (mass, viscous/Coulomb friction, constant disturbance) are
identified from non-contact motion; environmental impedance (damping,
stiffness, offset) from contact motion.  The two estimators are mutually
exclusive, gated by the contact detector of `Simulator._advance`, and every
estimate is box-projected so it cannot leave its configured convex set.
"""
from __future__ import annotations

import functools
import math
import re
from collections.abc import Sequence
from enum import IntEnum

import numpy as np


class ContactMode(IntEnum):
    """Contact mode; its value is the code the `contact_mode` column records."""

    NON_CONTACT = 0
    TRANSITION = 1
    CONTACT = 2


class RlmsEstimator:
    """Recursive least-squares with forgetting factor and box projection.

    Gamma is kept as U D U' (U unit upper-triangular, D diagonal) and updated
    by Bierman's factored measurement update (Bierman 1977), with mu as the
    measurement variance and D divided by mu:
        f = U' rho;  h = D f;  a = mu
        for each j:  a_prev = a;  a = a_prev + f_j h_j;  D_j = D_j a_prev / (a mu)
                     b_j = h_j;  p = -f_j / a_prev
                     for each i < j, from the old U_ij and b_i:
                         U_ij = U_ij + b_i p;  b_i = b_i + U_ij h_j
        delta = clip(delta + b ((u - rho' delta) / a), bounds)
    On exit b = Gamma rho and a = mu + rho' Gamma rho, so this is the standard
    update Gamma = (Gamma - b b' / a) / mu in factored form.  Each D_j stays
    positive since a >= a_prev >= mu > 0: Gamma is positive definite by
    construction, with no symmetrising and no periodic check.  Forgetting
    still winds up: with mu < 1, the D_j of a direction the regressors do not
    excite grows by 1/mu per update, as Gamma would, and nothing bounds it.

    The state is one flat float list, `_state`: D_0 ... D_{n-1}, then the
    strict upper part of U column by column (U_01, U_02, U_12, U_03, ...),
    then the estimate, from gamma0, zeros and delta0.  `_bounds` is the box:
    the lower bounds, then the upper.  Only this module knows these layouts.
    With 3 or 4 components numpy's per-call overhead would outweigh the
    arithmetic, and loops would spend the time in the interpreter, so the
    update is straight-line code, generated once (`_rlms_lines`), filled into
    text that this module and engine.py carry (`_compile_filled`) and compiled
    on first use: `_KERNEL` per n in `_rlms_kernel`, and `engine._ADVANCE`.
    It keeps the operations and their order: f_j = rho_j + U_0j rho_0 +
    U_1j rho_1 + ..., the steps above as written, the innovation summed left
    to right from 0.0 (never `sum()`, which compensates float sums from
    Python 3.12 on) and the clip as `lo if v < lo else hi if v > hi else v`.
    The innovation comes first: u and each rho_i are checked only when it is
    not finite, as any NaN or inf among them makes it.  The tests keep the
    loop form as a bit-for-bit reference.

    `delta` and `Gamma` read as new numpy arrays: writing into them leaves
    the estimator unchanged.  `values` is the estimate as a tuple of floats.
    """

    def __init__(
        self,
        delta0: np.ndarray,
        bounds_min: np.ndarray,
        bounds_max: np.ndarray,
        gamma0: float | np.ndarray = 1e4,
        mu: float = 0.999,
    ):
        delta = np.array(delta0, dtype=float)
        lo = np.array(bounds_min, dtype=float)
        hi = np.array(bounds_max, dtype=float)
        if delta.ndim != 1 or delta.size == 0:
            raise ValueError("the initial estimate must be a non-empty vector")
        if lo.shape != delta.shape or hi.shape != delta.shape:
            raise ValueError("bounds must match the estimate dimension")
        if not np.all(lo <= hi):
            raise ValueError("bounds_min must be <= bounds_max componentwise")
        if not (np.all(lo <= delta) and np.all(delta <= hi)):
            raise ValueError("initial estimate lies outside the projection box")
        if not (0.0 < mu <= 1.0):
            raise ValueError(f"forgetting factor mu must be in (0, 1], got {mu}")
        n = self.n = delta.size
        self.mu = float(mu)
        gamma0_diag = np.broadcast_to(np.asarray(gamma0, dtype=float), delta.shape)
        if not np.all((gamma0_diag > 0.0) & (gamma0_diag < np.inf)):
            raise ValueError("gamma0 must be positive and finite")
        self._gamma0_max = float(gamma0_diag.max())
        self._state = gamma0_diag.tolist() + [0.0] * (n * (n - 1) // 2) + delta.tolist()
        self._bounds = lo.tolist() + hi.tolist()

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(self._state[-self.n:])

    @property
    def delta(self) -> np.ndarray:
        return np.array(self._state[-self.n:])

    @property
    def Gamma(self) -> np.ndarray:
        """U D U' as a new, exactly symmetric array."""
        n = self.n
        Ut = np.eye(n)
        Ut[np.tril_indices(n, -1)] = self._state[n:-n]  # row by row below the diagonal of U' is U column by column
        G = (Ut.T * self._state[:n]) @ Ut
        return (G + G.T) * 0.5

    def update(self, rho: Sequence[float] | np.ndarray, u: float) -> float:
        """One recursion step; returns the prediction error u - rho' delta."""
        n = self.n
        if isinstance(rho, np.ndarray):
            if rho.shape != (n,):
                raise ValueError(f"regressor shape {rho.shape} != estimate dimension ({n},)")
            rho = rho.tolist()
        elif len(rho) != n:
            raise ValueError(f"regressor length {len(rho)} != estimate dimension {n}")
        self._state, innovation = _rlms_kernel(n)(self._state, rho, self._bounds, float(u), self.mu)
        return innovation

    def covariance_contraction(self) -> np.ndarray:
        """Eigenvalues of Gamma divided by the initial diagonal scale (identifiability probe)."""
        return np.linalg.eigvalsh(self.Gamma) / self._gamma0_max


_KERNEL = """def kernel(s, rho, bounds, u, mu):  # returns the new state and the innovation
    [*s], [*rho], [*bounds] = s, rho, bounds  # three or fewer per statement: no tuple is built
    innov = RLMS_UPDATE(*rho, u)
    return [*s], innov
"""


@functools.cache
def _rlms_kernel(n: int):
    """The UD update for dimension n >= 1 as one function; it raises ValueError on a non-finite u or rho_i."""
    return _compile_filled(_KERNEL, "kernel", globals(), {"": n})


def _compile_filled(source: str, name: str, namespace: dict, dims: dict[str, int]):
    """Fill the placeholders of `source`, compile it with `namespace` as its globals, and return the function `name`.

    For each suffix s, `*s{s}`, `*bounds{s}`, `*d{s}` and `*rho{s}` stand for the local names, in list order, of the
    `_state` and `_bounds` lists, the estimate (the tail of `_state`) and the regressor of dimension dims[s], and each
    line `innov{s} = RLMS_UPDATE(rho_0, ..., u)` for `_rlms_lines`' update, which also reads mu{s}."""
    for s, n in dims.items():
        d, lo, hi, rho = ([f"{key}{i}{s}" for i in range(n)] for key in ("d", "lo", "hi", "rho"))
        names = {"s": [f"D{j}{s}" for j in range(n)] + [f"U{i}_{j}{s}" for j in range(n) for i in range(j)] + d,
                 "bounds": lo + hi, "d": d, "rho": rho}
        source = re.sub(rf"\*(s|bounds|d|rho){s}\b", lambda m: ", ".join(names[m[1]]), source)
        source = re.sub(rf"^( *)innov{s} = RLMS_UPDATE\((.*), (\w+)\)$", lambda m: "".join(
            f"{m[1]}{line}\n" for line in _rlms_lines(n, s, m[2].split(", "), m[3])), source, flags=re.M)
    exec(compile(source, f"<{name} {dims}>", "exec"), namespace, defined := {})
    return defined[name]


def _rlms_lines(n: int, s: str, rho: Sequence[str], u: str) -> list[str]:
    """Bierman's update as statements on the names rho and u; the state, estimate, bounds, mu and innov end in s,
    the temporaries f{j}, h{j}, a{j}, b{j}, p, g and v{i} do not, so a template must not use those names."""
    ix = range(n)
    lines = [f"innov$ = {u} - (" + " + ".join(["0.0"] + [f"{rho[j]} * d{j}$" for j in ix]) + ")",
             "if not math.isfinite(innov$) and not (" + " and ".join(f"math.isfinite({x})" for x in (u, *rho)) + "):",
             "    raise ValueError('non-finite regressor or measurement')"]
    lines += [f"f{j} = " + " + ".join([rho[j]] + [f"U{i}_{j}$ * {rho[i]}" for i in range(j)]) for j in ix]
    lines += [f"h{j} = D{j}$ * f{j}" for j in ix] + ["a0 = mu$"]
    for j in ix:
        lines += [f"a{j + 1} = a{j} + f{j} * h{j}", f"D{j}$ = D{j}$ * a{j} / (a{j + 1} * mu$)", f"b{j} = h{j}"]
        if j:
            lines.append(f"p = -f{j} / a{j}")
        lines += [f"U{i}_{j}$, b{i} = U{i}_{j}$ + b{i} * p, b{i} + U{i}_{j}$ * h{j}" for i in range(j)]
    lines.append(f"g = innov$ / a{n}")
    for i in ix:
        lines += [f"v{i} = d{i}$ + b{i} * g", f"d{i}$ = lo{i}$ if v{i} < lo{i}$ else hi{i}$ if v{i} > hi{i}$ else v{i}"]
    return [line.replace("$", s) for line in lines]

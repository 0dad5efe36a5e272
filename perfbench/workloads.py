"""Seeded inputs for the four benchmark workloads and the checks on every command's output.

Each workload is a fixed cycle of CLI commands.  The cycle starts with the
bundled config(s) it is built on; the remaining commands run seeded variants
written into the work directory, so the program only ever reads generated
files.  The seed changes parameter values, never the shape of the cycle, so
every run executes the same mix of command kinds.

Checks use only the benchmark's own knowledge of each input (step counts,
true parameters, sweep grids, closed-form loop algebra); the rfobkit
functions they call (`step_response`, `closed_loop_force_tf`) are the
analytic references the acceptance suite also uses.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Acceptance-suite bounds, applied to the bundled configs only.
PLANT_BOUND = 0.02
ENV_BOUND = 0.05
STEP_BOUND = 0.01
CHAR_POLY_BOUND = 1e-9

SIM_COLUMNS = 23
TRACE_COLUMNS = 11
SWEEP_POINTS = 400


# ---------------------------------------------------------------------------
# config text: the benchmark reads and writes the INI format itself so the
# generated inputs do not depend on the program's own serializer
# ---------------------------------------------------------------------------

def read_cfg(path: Path) -> list[tuple[str, dict[str, str]]]:
    blocks: list[tuple[str, dict[str, str]]] = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            blocks.append((line.strip("[]").strip(), {}))
        else:
            key, value = line.split("=", 1)
            blocks[-1][1][key.strip()] = value.strip()
    return blocks


def write_cfg(path: Path, blocks: list[tuple[str, dict[str, str]]]) -> None:
    lines = []
    for name, body in blocks:
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in body.items())
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")


def section(blocks, name: str) -> dict[str, str]:
    for sec, body in blocks:
        if sec == name:
            return body
    body: dict[str, str] = {}
    blocks.append((name, body))
    return body


def phases(blocks) -> list[dict[str, str]]:
    return [body for sec, body in blocks if sec == "phase"]


def without_phases(blocks):
    return [(sec, dict(body)) for sec, body in blocks if sec != "phase"]


def num(x: float) -> str:
    return repr(float(x))


def copy_blocks(blocks):
    return [(sec, dict(body)) for sec, body in blocks]


def copy_bundled(configs: Path, inputs: Path, name: str) -> list[tuple[str, dict[str, str]]]:
    """Copy a bundled config unchanged into the inputs and return its parsed blocks."""
    text = (configs / name).read_text(encoding="utf-8")
    (inputs / name).write_text(text, encoding="utf-8")
    return read_cfg(inputs / name)


# ---------------------------------------------------------------------------
# commands and outcomes
# ---------------------------------------------------------------------------

@dataclass
class Command:
    """One CLI invocation plus what the benchmark knows about its input."""

    label: str
    kind: str                 # simulate | identify | design | analyze
    cfg: Path
    out: Path
    work: int                 # simulated steps, or design points + analyze calls
    bundled: bool = False     # runs a bundled config unchanged: acceptance bounds apply
    accuracy: bool = False    # contributes to the workload's ref_err_max
    sweep: str | None = None
    expect: dict = field(default_factory=dict)

    def argv(self, out: Path | None = None) -> list[str]:
        args = [self.kind, "--config", str(self.cfg), "--out", str(out or self.out)]
        if self.sweep:
            args += ["--sweep", self.sweep]
        return args

    def outputs(self, out: Path | None = None) -> list[Path]:
        out = out or self.out
        if self.kind in ("simulate", "identify"):
            return [out, Path(str(out) + ".summary.json")]
        return [out]


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    err: float | None = None        # the command's reference error (relative)
    info: dict = field(default_factory=dict)


def _strict_json(path: Path):
    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


def _rel(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-12)


def _load_columns(path: Path, names: tuple[str, ...], n_columns: int) -> tuple[dict[str, np.ndarray], int]:
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    if len(header) != n_columns:
        raise ValueError(f"CSV header has {len(header)} columns, expected {n_columns}")
    idx = [header.index(n) for n in names]
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=idx, ndmin=2)
    return {n: data[:, j] for j, n in enumerate(names)}, data.shape[0]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check(cmd: Command, rc: int, stdout: str) -> Outcome:
    """Gate one command: exit code, divergence, NaN and row counts, then the reference error."""
    if rc != 0:
        return Outcome(False, f"exit code {rc}")
    try:
        return {"simulate": _check_simulate, "identify": _check_identify,
                "design": _check_design, "analyze": _check_analyze}[cmd.kind](cmd, stdout)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return Outcome(False, f"unreadable output: {exc!r}")


def _check_run_summary(cmd: Command, stdout: str) -> tuple[dict, Outcome | None]:
    summary = _strict_json(Path(str(cmd.out) + ".summary.json"))
    if summary["diverged"] or "diverged: True" in stdout:
        return summary, Outcome(False, f"diverged at step {summary['diverged_step']}")
    if summary["n_steps"] != cmd.work:
        return summary, Outcome(False, f"n_steps {summary['n_steps']} != {cmd.work}")
    return summary, None


def _check_simulate(cmd: Command, stdout: str) -> Outcome:
    summary, bad = _check_run_summary(cmd, stdout)
    if bad:
        return bad
    if len(summary["phases"]) != cmd.expect["n_phases"]:
        return Outcome(False, f"{len(summary['phases'])} phase summaries, expected {cmd.expect['n_phases']}")
    finite = ("t_s", "x_m_m", "xdot_m_mps", "xddot_des_mps2", "i_m_A", "F_load_N",
              "F_hat_load_N", "F_hat_dis_N", "alpha_g_radps", "C_f")
    cols, rows = _load_columns(cmd.out, finite, SIM_COLUMNS)
    if rows != cmd.work:
        return Outcome(False, f"CSV has {rows} rows, expected {cmd.work}")
    for name in finite:
        if not np.all(np.isfinite(cols[name])):
            return Outcome(False, f"non-finite value in CSV column {name}")
    if not cmd.accuracy:
        return Outcome(True)
    err = _force_track_error(cmd, cols)
    if cmd.bundled and not err <= STEP_BOUND:
        return Outcome(False, f"force step deviates {err:.4g} > {STEP_BOUND} from the analytic loop", err)
    return Outcome(True, err=err)


def _force_track_error(cmd: Command, cols: dict[str, np.ndarray]) -> float:
    """L-inf deviation of F_hat_load from the analytic closed-loop step, relative to the step."""
    from rfobkit.design import EnvClass
    from rfobkit.loop_model import closed_loop_force_tf, step_response
    from rfobkit.plant import EnvImpedance

    e = cmd.expect
    tf = closed_loop_force_tf(EnvClass.DAMPING_STIFFNESS, e["M_m"], float(cols["alpha_g_radps"][0]),
                              float(cols["C_f"][0]), EnvImpedance(D_env=e["D_env"], K_env=e["K_env"]))
    t_full = np.arange(cmd.work + 1) * e["dt"]
    y = e["value"] * step_response(tf, t_full)[1:]
    return float(np.max(np.abs(cols["F_hat_load_N"] - y)) / abs(e["value"]))


def _check_identify(cmd: Command, stdout: str) -> Outcome:
    summary, bad = _check_run_summary(cmd, stdout)
    if bad:
        return bad
    e = cmd.expect
    est_cols = {"plant": ("delta_M_m_kg", "delta_k_vsc_Nspm", "delta_k_clmb_N", "delta_F_d_N"),
                "env": ("delta_D_env_Nspm", "delta_K_env_Npm", "delta_c_offset_N")}[e["estimator"]]
    cols, rows = _load_columns(cmd.out, ("t_s",) + est_cols, TRACE_COLUMNS)
    if rows != cmd.work:
        return Outcome(False, f"CSV has {rows} rows, expected {cmd.work}")
    for name in ("t_s",) + est_cols:
        if not np.all(np.isfinite(cols[name])):
            return Outcome(False, f"non-finite value in CSV column {name}")
    final = summary["final_delta_nc" if e["estimator"] == "plant" else "final_delta_c"]
    for name, value in zip(est_cols, final):
        if _rel(float(cols[name][-1]), value) > 1e-9:
            return Outcome(False, f"CSV {name} ends at {cols[name][-1]!r}, summary says {value!r}")
    truth = e["truth"]
    errs = [_rel(got, want) for got, want in zip(final, truth)]
    if e["estimator"] == "plant":
        # the acceptance suite bounds mass and both friction terms
        gated = errs[:3]
        bound = PLANT_BOUND
        err = max(errs)
    else:
        gated = errs[:2]
        bound = ENV_BOUND
        err = max(errs[:2])
    # the environment offset's truth is 0: only D_env and K_env have a relative error
    info = {"rel_err": [round(x, 8) for x in (errs if e["estimator"] == "plant" else errs[:2])]}
    if cmd.bundled and max(gated) > bound:
        return Outcome(False, f"{e['estimator']} error {max(gated):.4g} > {bound}", err, info)
    return Outcome(True, err=err, info=info)


def _achieved_vs_target(row: dict, M_m: float, D: float, K: float) -> float:
    """Max relative char-poly coefficient deviation, recomputed from the reported gains."""
    a, c, w, xi, p = row["alpha_g"], row["C_f"], row["w_n"], row["xi"], row["p"]
    case = row["case"]
    if case == "damping":
        achieved = (1.0, a + D / M_m, c * a * D)
        target = (1.0, 2.0 * xi * w, w * w)
    elif case == "stiffness":
        achieved = (1.0, a, K / M_m, a * c * K)
        target = (1.0, 2.0 * xi * w + p, w * w + 2.0 * xi * w * p, w * w * p)
    else:
        achieved = (1.0, a + D / M_m, c * a * D + K / M_m, c * a * K)
        target = (1.0, 2.0 * xi * w + p, w * w + 2.0 * xi * w * p, w * w * p)
    return max(abs(x - y) / max(abs(x), abs(y), 1e-30) for x, y in zip(achieved, target))


def _check_design(cmd: Command, stdout: str) -> Outcome:
    e = cmd.expect
    data = _strict_json(cmd.out)
    rows = data if cmd.sweep else [data]
    if len(rows) != len(e["grid"]):
        return Outcome(False, f"{len(rows)} design rows, expected {len(e['grid'])}")
    worst = 0.0
    infeasible = 0
    for row, value in zip(rows, e["grid"]):
        env = {"D": e["D_env"], "K": e["K_env"]}
        if cmd.sweep:
            if _rel(row["sweep_value"], value) > 1e-12:
                return Outcome(False, f"sweep value {row['sweep_value']} != grid {value}")
            env[e["key"]] = value
        if row["case"] != e["case"]:
            return Outcome(False, f"design case {row['case']}, expected {e['case']}")
        if any(row[k] is None for k in ("alpha_g", "C_f", "w_n", "xi", "p", "char_poly_max_rel_dev")):
            return Outcome(False, "null (non-finite) design value")
        infeasible += not row["feasible"]
        worst = max(worst, _achieved_vs_target(row, e["M_m"], env["D"], env["K"]))
    if cmd.bundled and worst > CHAR_POLY_BOUND:
        return Outcome(False, f"char poly deviation {worst:.3g} > {CHAR_POLY_BOUND}", worst)
    return Outcome(True, err=worst, info={"infeasible": infeasible})


def _check_analyze(cmd: Command, stdout: str) -> Outcome:
    e = cmd.expect
    rep = _strict_json(cmd.out)
    if _rel(rep["alpha"], e["alpha"]) > 1e-12 or _rel(rep["beta"], e["beta"]) > 1e-12:
        return Outcome(False, f"alpha/beta {rep['alpha']}/{rep['beta']} != {e['alpha']}/{e['beta']}")
    # phi = c2 s^2 + c1 s + c0 with c1, c0 > 0 has a right-half-plane root iff c2 < 0 iff beta < alpha
    if rep["rhp_zero"] != (e["beta"] < e["alpha"]):
        return Outcome(False, f"rhp_zero {rep['rhp_zero']} with beta {e['beta']:.6g} < alpha {e['alpha']:.6g}"
                              f" = {e['beta'] < e['alpha']}")
    if rep["bandwidth_bound_passed"] != e["bound_passed"]:
        return Outcome(False, "bandwidth bound verdict differs from alpha*g_dob <= g_v/2")
    want = e["poles"]
    got = rep["closed_loop_poles"]
    if want is None:
        return Outcome(True) if got is None else Outcome(False, "poles listed for a degree > 3 loop")
    if got is None or len(got) != len(want):
        return Outcome(False, f"closed-loop poles {got}, expected {len(want)}")
    got_c = sorted((complex(re, im) for re, im in got), key=lambda z: (z.real, z.imag))
    scale = max(abs(z) for z in want)
    for g, w in zip(got_c, want):
        if abs(g - w) > 1e-6 * scale:
            return Outcome(False, f"closed-loop pole {g} != {w}")
    return Outcome(True)


# ---------------------------------------------------------------------------
# workload generators
# ---------------------------------------------------------------------------

def _balanced(rng: random.Random, n: int, values: list) -> list:
    """n values cycling through `values` in a seeded order: each value appears n/len times (+-1)."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def _duration_steps(phase_list: list[dict[str, str]], dt: float) -> int:
    return int(round(sum(float(p["duration_s"]) for p in phase_list) / dt))


def gen_force_loop(rng: random.Random, configs: Path, inputs: Path, outputs: Path) -> list[Command]:
    """`simulate` on sim_force_step.cfg plus nine variants, three per reference kind."""
    name = "sim_force_step.cfg"
    base = copy_bundled(configs, inputs, name)
    dt = float(section(base, "scenario")["dt_s"])
    env = section(base, "environment")
    expect_base = {"M_m": float(section(base, "plant")["M_m_kg"]), "D_env": float(env["D_env_Ns_per_m"]),
                   "K_env": float(env["K_env_N_per_m"]), "dt": dt,
                   "value": float(phases(base)[0]["value"]), "n_phases": 1}
    cmds = [Command("force_loop/bundled", "simulate", inputs / name, outputs / "bundled.csv",
                    _duration_steps(phases(base), dt), bundled=True, accuracy=True, expect=expect_base)]
    n = 9
    kinds = _balanced(rng, n, ["const", "sine", "multisine"])
    toggles = {t: _balanced(rng, n, [True, False])
               for t in ("filter", "noise", "unilateral", "auto", "position_phase")}
    for i in range(n):
        blocks = without_phases(base)
        sc = section(blocks, "scenario")
        sc["velocity_filter"] = "on" if toggles["filter"][i] else "off"
        if toggles["noise"][i]:
            sc["noise_std_m_per_s"] = num(rng.uniform(1e-4, 5e-4))
            sc["seed"] = str(rng.randrange(1, 2 ** 31))
        section(blocks, "environment")["contact"] = "unilateral" if toggles["unilateral"][i] else "bilateral"
        hint = "auto" if toggles["auto"][i] else "contact"
        force = {"mode": "force", "duration_s": "1.0", "contact": hint}
        kind = kinds[i]
        if kind == "const":
            force.update(ref="const", value=num(rng.uniform(0.5, 3.0)))
        elif kind == "sine":
            off = rng.uniform(1.5, 3.0)
            force.update(ref="sine", offset=num(off), amp=num(rng.uniform(0.2, 0.6) * off),
                         freq_hz=num(rng.uniform(1.0, 8.0)), phase_rad=num(rng.uniform(0.0, 2 * math.pi)))
        else:
            off = rng.uniform(1.5, 3.0)
            comps = ", ".join(f"{num(rng.uniform(0.1, 0.25) * off)}:{num(rng.uniform(0.5, 10.0))}:"
                              f"{num(rng.uniform(0.0, 2 * math.pi))}" for _ in range(3))
            force.update(ref="multisine", offset=num(off), components=comps)
        phase_list = [force]
        if toggles["position_phase"][i]:
            # free-space approach (unilateral) or a small pre-load (bilateral), then the force phase
            x = -rng.uniform(0.5e-3, 2e-3) if toggles["unilateral"][i] else rng.uniform(-2e-4, 2e-4)
            phase_list = [{"mode": "position", "duration_s": "0.3", "ref": "const", "value": num(x),
                           "contact": hint},
                          dict(force, duration_s="0.7")]
        blocks += [("phase", p) for p in phase_list]
        path = inputs / f"force_v{i}.cfg"
        write_cfg(path, blocks)
        cmds.append(Command(f"force_loop/v{i}-{kind}", "simulate", path, outputs / f"v{i}.csv",
                            _duration_steps(phase_list, dt), expect={"n_phases": len(phase_list)}))
    return cmds


def gen_identify_free(rng: random.Random, configs: Path, inputs: Path, outputs: Path) -> list[Command]:
    """`identify` on identify_plant.cfg plus three variants of the excitation and of the true plant."""
    name = "identify_plant.cfg"
    base = copy_bundled(configs, inputs, name)
    dt = float(section(base, "scenario")["dt_s"])

    def truth(blocks):
        pl, fr = section(blocks, "plant"), section(blocks, "friction")
        return [float(pl["M_m_kg"]), float(fr["k_vsc_Ns_per_m"]), float(fr["k_clmb_N"]), float(pl["F_d_N"])]

    cmds = [Command("identify_free/bundled", "identify", inputs / name, outputs / "bundled.csv",
                    _duration_steps(phases(base), dt), bundled=True, accuracy=True,
                    expect={"estimator": "plant", "truth": truth(base)})]
    for i in range(3):
        blocks = copy_blocks(base)
        pl, fr = section(blocks, "plant"), section(blocks, "friction")
        # true plant moves; the nominal model in [dob]/[rfob] stays as bundled
        pl["M_m_kg"] = num(float(pl["M_m_kg"]) * rng.uniform(0.8, 1.25))
        pl["F_d_N"] = num(rng.uniform(-10.0, 10.0))
        fr["k_vsc_Ns_per_m"] = num(rng.uniform(6.0, 18.0))
        fr["k_clmb_N"] = num(rng.uniform(3.0, 9.0))
        ph = phases(blocks)[0]
        ph["components"] = (f"{num(rng.uniform(0.009, 0.015))}:{num(rng.uniform(0.8, 1.6))}, "
                            f"{num(rng.uniform(0.004, 0.008))}:{num(rng.uniform(0.25, 0.5))}:"
                            f"{num(rng.uniform(0.0, 2 * math.pi))}")
        path = inputs / f"plant_v{i}.cfg"
        write_cfg(path, blocks)
        cmds.append(Command(f"identify_free/v{i}", "identify", path, outputs / f"v{i}.csv",
                            _duration_steps(phases(blocks), dt),
                            expect={"estimator": "plant", "truth": truth(blocks)}))
    return cmds


def gen_identify_contact(rng: random.Random, configs: Path, inputs: Path, outputs: Path) -> list[Command]:
    """`identify` on identify_env.cfg, its online-redesign twin and its dt = 1e-4 twin.

    The inputs do not depend on the seed.  The dt = 1e-4 twin carries the
    known dt defect (D_env about 16% off); it is reported, never gated.
    """
    name = "identify_env.cfg"
    base = copy_bundled(configs, inputs, name)
    env = section(base, "environment")
    truth = [float(env["D_env_Ns_per_m"]), float(env["K_env_N_per_m"]), 0.0]
    expect = {"estimator": "env", "truth": truth}
    dt = float(section(base, "scenario")["dt_s"])
    cmds = [Command("identify_contact/bundled", "identify", inputs / name, outputs / "bundled.csv",
                    _duration_steps(phases(base), dt), bundled=True, accuracy=True, expect=expect)]
    online = copy_blocks(base)
    section(online, "scenario").update(adaptation="online", redesign_period_steps="200")
    write_cfg(inputs / "env_online.cfg", online)
    cmds.append(Command("identify_contact/online", "identify", inputs / "env_online.cfg",
                        outputs / "online.csv", _duration_steps(phases(online), dt), accuracy=True,
                        expect=expect))
    coarse = copy_blocks(base)
    section(coarse, "scenario")["dt_s"] = "1e-4"
    write_cfg(inputs / "env_dt1e-4.cfg", coarse)
    cmds.append(Command("identify_contact/dt1e-4", "identify", inputs / "env_dt1e-4.cfg",
                        outputs / "dt1e-4.csv", _duration_steps(phases(coarse), 1e-4), accuracy=True,
                        expect=expect))
    return cmds


def _loop_expectation(M_m, K_F, M_mn, K_Fn, g_dob, g_v, M_hat, K_F_hat, g_rfob, D, K, C_f) -> dict:
    """Ratios, bound verdict and closed-loop poles of the force loop, from the loop algebra."""
    alpha = M_mn * K_F / (M_m * K_Fn)
    beta = M_mn * K_F_hat / (M_hat * K_Fn)
    poles = None
    if g_dob == g_rfob:
        # s*(M s^2 + (M alpha g + D) s + K) + C_f g M_mn/K_Fn * phi(s)
        gain = C_f * g_rfob * M_mn / K_Fn
        phi = (M_m * K_F_hat - M_hat * K_F, K_F_hat * D, K_F_hat * K)
        den = (M_m, M_m * alpha * g_dob + D, K, 0.0)
        char = [den[0], den[1] + gain * phi[0], den[2] + gain * phi[1], den[3] + gain * phi[2]]
        poles = sorted((complex(z) for z in np.roots(char)), key=lambda z: (z.real, z.imag))
    return {"alpha": alpha, "beta": beta, "bound_passed": alpha * g_dob <= 0.5 * g_v, "poles": poles}


def gen_design_sweep(rng: random.Random, configs: Path, inputs: Path, outputs: Path) -> list[Command]:
    """Bundled design, the README's reference sweep, four seeded sweeps and eight analyze calls."""
    name = "design_combined.cfg"
    base = copy_bundled(configs, inputs, name)
    M_m = float(section(base, "plant")["M_m_kg"])
    env = section(base, "environment")
    D0, K0 = float(env["D_env_Ns_per_m"]), float(env["K_env_N_per_m"])
    common = {"M_m": M_m, "D_env": D0, "K_env": K0}
    cmds = [Command("design_sweep/bundled", "design", inputs / name, outputs / "bundled.json", 1,
                    bundled=True, accuracy=True,
                    expect=dict(common, case="damping_stiffness", grid=[None]))]
    ref_grid = np.geomspace(100.0, 100000.0, 25)
    cmds.append(Command("design_sweep/reference", "design", inputs / name, outputs / "reference.json", 25,
                        bundled=True, accuracy=True, sweep="environment.K_env_N_per_m=100:100000:25:log",
                        expect=dict(common, case="damping_stiffness", key="K", grid=list(ref_grid))))

    def sweep(label, case, key, lo, hi, d_env, k_env, design_extra=None):
        blocks = copy_blocks(base)
        e = section(blocks, "environment")
        e["D_env_Ns_per_m"], e["K_env_N_per_m"] = num(d_env), num(k_env)
        if design_extra:
            section(blocks, "design").update(design_extra)
        path = inputs / f"sweep_{label}.cfg"
        write_cfg(path, blocks)
        field_name = {"D": "environment.D_env_Ns_per_m", "K": "environment.K_env_N_per_m"}[key]
        spec = f"{field_name}={num(lo)}:{num(hi)}:{SWEEP_POINTS}:log"
        return Command(f"design_sweep/{label}", "design", path, outputs / f"sweep_{label}.json", SWEEP_POINTS,
                       sweep=spec, expect={"M_m": M_m, "D_env": d_env, "K_env": k_env, "case": case,
                                           "key": key, "grid": list(np.geomspace(lo, hi, SWEEP_POINTS))})

    # ranges stay inside the feasible region of each case at M = 3.02 kg, g_v = 1000 rad/s
    sweeps = [
        sweep("damping", "damping", "D", rng.uniform(0.2, 1.0), rng.uniform(100.0, 1000.0), 1.0, 0.0,
              {"gamma": num(rng.uniform(0.8, 0.95))}),
        sweep("stiffness", "stiffness", "K", rng.uniform(50.0, 200.0), rng.uniform(5e4, 1.5e5), 0.0, 1.0),
        sweep("combined_K", "damping_stiffness", "K", rng.uniform(100.0, 500.0), rng.uniform(1e5, 1e6),
              rng.uniform(1.0, 5.0), 1.0),
        sweep("combined_D", "damping_stiffness", "D", rng.uniform(0.1, 0.5), rng.uniform(50.0, 150.0),
              1.0, rng.uniform(3000.0, 10000.0)),
    ]
    analyzes = []
    mismatch = _balanced(rng, 8, [True, False])
    for i in range(8):
        M = rng.uniform(1.0, 5.0)
        M_mn = M * rng.uniform(0.8, 1.2)
        g_dob = rng.uniform(50.0, 480.0)
        # half the twins overestimate the inertia (beta < alpha: right-half-plane zero)
        alpha = M_mn / M
        M_hat = M_mn / (alpha * rng.uniform(0.5, 0.95)) if mismatch[i] else M_mn / (alpha * rng.uniform(1.05, 2.0))
        g_rfob = g_dob if i % 4 else g_dob * rng.uniform(0.5, 0.9)
        D, K, C_f = rng.uniform(1.0, 20.0), rng.uniform(1000.0, 20000.0), rng.uniform(0.01, 0.1)
        blocks = [
            ("plant", {"M_m_kg": num(M), "K_F_N_per_A": "0.5"}),
            ("environment", {"D_env_Ns_per_m": num(D), "K_env_N_per_m": num(K)}),
            ("dob", {"M_mn_kg": num(M_mn), "K_Fn_N_per_A": "0.5", "g_dob_rad_per_s": num(g_dob),
                     "g_v_rad_per_s": "1000.0"}),
            ("rfob", {"M_hat_kg": num(M_hat), "K_F_hat_N_per_A": "0.5", "g_rfob_rad_per_s": num(g_rfob)}),
            ("scenario", {"dt_s": "1e-4", "C_f": num(C_f)}),
        ]
        path = inputs / f"analyze_{i}.cfg"
        write_cfg(path, blocks)
        # recompute from the written text so the expectation sees the same rounding as the program
        vals = {k: float(v) for _, body in read_cfg(path) for k, v in body.items()}
        exp = _loop_expectation(vals["M_m_kg"], 0.5, vals["M_mn_kg"], 0.5, vals["g_dob_rad_per_s"], 1000.0,
                                vals["M_hat_kg"], 0.5, vals["g_rfob_rad_per_s"], vals["D_env_Ns_per_m"],
                                vals["K_env_N_per_m"], vals["C_f"])
        analyzes.append(Command(f"design_sweep/analyze{i}", "analyze", path, outputs / f"analyze_{i}.json", 1,
                                expect=exp))
    # interleave so a partial last cycle keeps roughly the same mix
    order = [cmds[0], analyzes[0], sweeps[0], analyzes[1], cmds[1], analyzes[2], sweeps[1], analyzes[3],
             analyzes[4], sweeps[2], analyzes[5], analyzes[6], sweeps[3], analyzes[7]]
    return order


GENERATORS = {
    "force_loop": gen_force_loop,
    "identify_free": gen_identify_free,
    "identify_contact": gen_identify_contact,
    "design_sweep": gen_design_sweep,
}


def generate(workload: str, seed: int, configs: Path, inputs: Path, outputs: Path) -> list[Command]:
    inputs.mkdir(parents=True, exist_ok=True)
    outputs.mkdir(parents=True, exist_ok=True)
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), configs, inputs, outputs)

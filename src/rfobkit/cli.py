"""Command line: design gains, analyze stability, run simulations, run identification.

Subcommands: design | analyze | simulate | identify.  Reports print as text;
--out writes the machine-readable variant (JSON for design/analyze, CSV plus a
JSON summary for simulate/identify).  Exit codes: 0 success, 2 configuration
error, 3 infeasible design, 4 divergence.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING

from . import config as cfgmod
from .config import ConfigDocument, ConfigError, parse_config
from .design import EnvClass, InfeasibleDesignError, classify_environment, design_for_env, split_alpha_g
from .loop_model import PhiPoly, asymptote_angles, closed_loop_char_poly, open_loop_general, poles, rhp_zero_check
from .observers import RatioReport, robustness_bound_check
from .plant import EnvImpedance

if TYPE_CHECKING:  # design and analyze run without the simulator and numpy; the commands that need them import them
    import numpy as np
    from .engine import Scenario, SimResult

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_DIVERGED = 4

CSV_SCHEMA_VERSION = "timeseries-v1"


def _json_text(obj, indent: str = "\n") -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)` in one pass, a non-finite float written as null.

    json falls back to its pure-Python encoder whenever `indent` is set; this
    writes the same text by json's rules, in json's order: str, None, True,
    False, int (`int.__repr__`), float (`float.__repr__`), list or tuple, dict
    (str keys, sorted); any other type raises TypeError.  A plain float item of
    a container, the bulk of every report, is written without a call.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return float.__repr__(obj) if math.isfinite(obj) else "null"
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [float.__repr__(v) if type(v) is float and math.isfinite(v) else _json_text(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [encode_basestring_ascii(k) + ": "
                 + (float.__repr__(v) if type(v) is float and math.isfinite(v) else _json_text(v, inner))
                 for k in sorted(obj) for v in (obj[k],)]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _load_config(path: str) -> ConfigDocument:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read --config {path}: {exc}") from None
    return parse_config(text)


def _design_inputs(doc: ConfigDocument, inputs: dict, section: str | None = None) -> dict:
    """Read into `inputs` every design input, or only those `section` feeds; returns `inputs`.

    Each section is read and checked whole by its builder in `config`, as every command reads it: [plant] feeds
    M_m, [dob] g_v, [environment] the environment and its case projection, [design] the projection and the spec;
    no other section feeds any.
    """
    every = section is None
    if every or section == "plant":
        inputs["M_m"] = cfgmod.build_plant(doc).M_m
    if every or section == "dob":
        inputs["g_v"] = cfgmod.build_dob(doc).g_v
    if every or section == "environment":
        inputs["env_read"] = cfgmod.build_env(doc)
    if every or section in ("environment", "design"):
        env, case = inputs["env_read"], doc.get("design", "case")
        if case != "auto":
            case = EnvClass(case)
        else:
            try:
                case = classify_environment(env)
            except ValueError as exc:
                raise ConfigError(f"[environment] {exc}") from None
        if (case is not EnvClass.PURE_STIFFNESS and env.D_env == 0.0
                or case is not EnvClass.PURE_DAMPING and env.K_env == 0.0):
            raise ConfigError(f"[design] case = {case.value} needs a nonzero value of each impedance term it "
                              f"designs for, got D_env = {env.D_env:g}, K_env = {env.K_env:g}")
        if case is EnvClass.PURE_DAMPING:
            env = EnvImpedance(D_env=env.D_env)
        elif case is EnvClass.PURE_STIFFNESS:
            env = EnvImpedance(K_env=env.K_env)
        inputs["env"] = env
    if every or section == "design":
        inputs["spec"] = cfgmod.build_design_specs(doc)
    return inputs


def _design(inputs: dict) -> dict:
    """The `design` report: the design for `_design_inputs`' environment projection, split by alpha."""
    m, env, spec = inputs["M_m"], inputs["env"], inputs["spec"]
    result = design_for_env(m, env, inputs["g_v"], spec)
    g = split_alpha_g(result, spec.alpha)
    achieved = closed_loop_char_poly(result.case, m, result.alpha_g, result.C_f, env)
    xi, w_n, p = result.xi, result.w_n, result.p
    if result.case is EnvClass.PURE_DAMPING:
        target = (1.0, 2.0 * xi * w_n, w_n ** 2)
    else:
        target = (1.0, 2.0 * xi * w_n + p, w_n ** 2 + 2.0 * xi * w_n * p, w_n ** 2 * p)
    out = result.as_dict()
    out.update(alpha=spec.alpha, g_dob=g, g_rfob=g, char_poly_achieved=list(achieved), char_poly_target=list(target),
               char_poly_max_rel_dev=max(abs(a - b) / max(abs(a), abs(b), 1e-30) for a, b in zip(achieved, target)))
    return out


def _print_design_report(rep: dict) -> None:
    print(f"design case: {rep['case']}   feasible: {rep['feasible']}   degenerate: {rep['degenerate']}")
    for name in ("xi", "w_n", "p", "k", "eta", "psi", "alpha_g", "C_f", "alpha", "g_dob", "g_rfob"):
        v = rep.get(name)
        if v is None:
            continue
        print(f"  {name:10s} = {v:.10g}")
    for name, v in sorted(rep["report"].items()):
        print(f"  {name:24s} = {v:.10g}")
    print(f"  char poly achieved = [{', '.join(f'{c:.10g}' for c in rep['char_poly_achieved'])}]")
    print(f"  char poly target   = [{', '.join(f'{c:.10g}' for c in rep['char_poly_target'])}]")
    print(f"  max relative deviation = {rep['char_poly_max_rel_dev']:.3e}")
    for note in rep["notes"]:
        print(f"  note: {note}")


def _parse_sweep(spec: str) -> tuple[str, str, np.ndarray]:
    import numpy as np
    try:
        key_part, rng = spec.split("=", 1)
        section, key = key_part.strip().split(".", 1)
        parts = rng.split(":")
        if len(parts) not in (3, 4):
            raise ValueError
        start, stop, n = float(parts[0]), float(parts[1]), int(parts[2])
        scale = parts[3] if len(parts) == 4 else "lin"
        if scale not in ("lin", "log") or n < 1:
            raise ValueError
    except ValueError:
        raise ConfigError(
            f"bad --sweep {spec!r}: expected section.key=START:STOP:N[:lin|log]"
        ) from None
    if not math.isfinite(stop - start):  # NaN or infinite when START or STOP is, or when the span overflows
        raise ConfigError(f"bad --sweep {spec!r}: START, STOP and STOP - START must be finite")
    if scale == "log":
        if start <= 0 or stop <= 0:
            raise ConfigError("log sweep requires positive endpoints")
        values = np.geomspace(start, stop, n)
    else:
        values = np.linspace(start, stop, n)
    return section, key, values


def _create_beside(path: str):
    """A new text file in `path`'s directory, under a name no other file has, created as `open(path, "w")` would."""
    for n in itertools.count():
        try:
            return open(f"{path}.{os.getpid()}.{n}.tmp", "x", encoding="utf-8")
        except FileExistsError:
            continue


def cmd_design(args) -> int:
    doc = _load_config(args.config)
    if args.sweep:
        section, key, values = _parse_sweep(args.sweep)
        if section == "phase":  # a config holds one [phase] section per phase
            raise ConfigError(f"--sweep target [phase] {key}: phase keys cannot be swept")
        spec = cfgmod.SCHEMA.get(section, {}).get(key)
        if spec is None:
            raise ConfigError(f"--sweep target [{section}] {key} is not a known key")
        if spec.typ not in ("float", "opt_float"):
            raise ConfigError(f"--sweep target [{section}] {key} is a {spec.typ} key; only float keys sweep")
        if section not in doc.sections:
            missing = [k for k, s in cfgmod.SCHEMA[section].items() if s.required and k != key]
            if missing:
                raise ConfigError(f"--sweep needs section [{section}] in the config "
                                  f"(required keys: {', '.join(missing)})")
            doc.sections[section] = {k: s.default for k, s in cfgmod.SCHEMA[section].items()}
        fh = _create_beside(args.out) if args.out else None
        try:
            inputs, sep = {}, "[\n  "
            for v in values.tolist():
                doc.sections[section][key] = v
                rep = _design(_design_inputs(doc, inputs, section if inputs else None))  # all inputs at the first point
                rep["sweep_value"] = v
                print(f"{key} = {v:.10g}: alpha_g = {rep['alpha_g']:.10g}, C_f = {rep['C_f']:.10g}, "
                      f"w_n = {rep['w_n']:.10g}, feasible = {rep['feasible']}")
                if fh:  # the rows of `_json_text(rows)`, one at a time
                    fh.write(sep + _json_text(rep, "\n  "))
                    sep = ",\n  "
            if fh:
                fh.write("\n]")
                fh.close()
                os.replace(fh.name, args.out)
        except BaseException:
            if fh:
                fh.close()
                os.unlink(fh.name)
            raise
        return EXIT_OK
    rep = _design(_design_inputs(doc, {}))
    _print_design_report(rep)
    if args.out:
        Path(args.out).write_text(_json_text(rep), encoding="utf-8")
    return EXIT_OK


def cmd_analyze(args) -> int:
    doc = _load_config(args.config)
    pp = cfgmod.build_plant(doc)
    dob = cfgmod.build_dob(doc)
    rfob = cfgmod.build_rfob(doc)
    env = cfgmod.build_env(doc)
    c_f = doc.get("scenario", "C_f")
    if not 0.0 < c_f < math.inf:
        raise ConfigError(f"[scenario] C_f must be finite and > 0, got {c_f}")
    if env.D_env == 0.0 and env.K_env == 0.0:
        raise ConfigError("[environment] neither damping nor stiffness: no force loop to analyze")
    ratios = RatioReport.from_configs(pp, dob, rfob)
    phi = PhiPoly.from_params(pp, rfob, env)
    rhp = rhp_zero_check(phi)
    loop = open_loop_general(pp, dob, rfob, env, c_f)
    angles = asymptote_angles(loop)
    bound = robustness_bound_check(ratios.alpha, dob.g_dob, dob.g_v)
    char = loop.closed_loop().den
    cl_poles: list[complex] | None = None
    unlisted = "degree > 3"
    if len(char) <= 4:
        try:
            cl_poles = poles(char)
        except ValueError as exc:  # a coefficient that overflowed to inf
            unlisted = str(exc)
    # the sign of a real part within about 4*degree*eps*|z| of 0 is lost to rounding, and so is that of a
    # pole beyond the float range, which poles() leaves out: such a loop gets no verdict
    sign_known = cl_poles is not None and len(cl_poles) == len(char) - 1 and all(
        abs(z.real) > 4.0 * len(char) * sys.float_info.epsilon * abs(z) for z in cl_poles)
    rep = {
        "alpha": ratios.alpha,
        "beta": ratios.beta,
        "beta_below_alpha": ratios.beta < ratios.alpha,
        "phi_coeffs": [phi.c2, phi.c1, phi.c0],
        "phi_roots": [[z.real, z.imag] for z in rhp.roots],
        "rhp_zero": rhp.has_rhp,
        "rhp_marginal": rhp.marginal,
        "asymptote_angles_deg": list(angles),
        "relative_degree": loop.relative_degree,
        "closed_loop_poles": None if cl_poles is None else [[z.real, z.imag] for z in cl_poles],
        "closed_loop_stable": bool(all(z.real < 0 for z in cl_poles)) if sign_known else None,
        "bandwidth_bound_passed": bound.passed,
        "bandwidth_bound_margin": bound.margin,
    }
    print(f"alpha = {ratios.alpha:.10g}   beta = {ratios.beta:.10g}")
    if rep["beta_below_alpha"]:
        print("WARNING: beta < alpha: overestimated identified inertia, right-half-plane zero risk")
    print(f"mismatch zeros: {', '.join(f'{z.real:.10g}{z.imag:+g}j' for z in rhp.roots) or 'none'}")
    print(f"right-half-plane zero: {rhp.has_rhp}   marginal: {rhp.marginal}")
    print(f"relative degree: {loop.relative_degree}   asymptote angles: {angles} deg")
    if cl_poles is not None:
        for z in sorted(cl_poles, key=lambda z: z.real):
            print(f"  closed-loop pole: {z.real:.10g} {z.imag:+.6g}j")
        print(f"closed-loop stable: {rep['closed_loop_stable']}")
    else:
        print(f"closed-loop poles: {unlisted}, analytic pole listing unsupported")
    print(f"bandwidth bound alpha*g_dob <= g_v/2: {'pass' if bound.passed else 'FAIL'} "
          f"(margin {bound.margin:.10g} rad/s)")
    if args.out:
        Path(args.out).write_text(_json_text(rep), encoding="utf-8")
    return EXIT_OK


CSV_BLOCK_ROWS = 64


def _write_chunk(fh, columns, chunk: dict[str, np.ndarray]) -> None:
    """Write the rows of `chunk`, each of `columns` over the same rows (at least one), in `columns` order.

    `_run_and_write` passes each window of a run's record here.  Cells read
    as `f"{v:.10g}"` would print them, a mode code as its name.  A column
    whose cells are all bitwise equal is formatted once and folded into the
    chunk's row template; bitwise, so NaN columns fold and 0.0 stays apart
    from -0.0.  The varying columns are stacked into one array, and
    each CSV_BLOCK_ROWS rows are formatted by one `%` of the repeated
    `%.10g`/`%s` row template, so only one block's cells are Python objects
    at a time.
    """
    import numpy as np
    from .engine import CONTACT_MODE_NAMES, CTRL_MODE_NAMES
    mode_names = {"contact_mode": CONTACT_MODE_NAMES, "ctrl_mode": CTRL_MODE_NAMES}
    fields, varying, named = [], [], []
    for name in columns:
        a = chunk[name]
        bits = a.view(f"u{a.itemsize}") if a.dtype.kind == "f" else a
        names = mode_names.get(name)
        if (bits == bits[0]).all():
            cell = names[a[0]] if names else "%.10g" % a[0]
            fields.append(cell.replace("%", "%%"))
            continue
        if names:
            named.append((len(varying), [names[v] for v in a.tolist()]))
        fields.append("%s" if names else "%.10g")
        varying.append(a)
    row, n = ",".join(fields) + "\n", chunk[columns[0]].size
    if not varying:
        fh.write((row % ()) * n)
        return
    m, grid = len(varying), np.column_stack(varying)
    for b0 in range(0, n, CSV_BLOCK_ROWS):
        b1 = min(b0 + CSV_BLOCK_ROWS, n)
        cells = grid[b0:b1].ravel().tolist()
        for c, labels in named:
            cells[c::m] = labels[b0:b1]
        fh.write(row * (b1 - b0) % tuple(cells))


def _load_scenario(args) -> Scenario:
    """Load the config, apply --seed and build the scenario."""
    doc = _load_config(args.config)
    if args.seed is not None and "scenario" in doc.sections:
        doc.sections["scenario"]["seed"] = args.seed
    return cfgmod.build_scenario(doc)


def _run_and_write(scenario: Scenario, out: str | None, columns) -> SimResult:
    """Run the scenario; with `out`, write the CSV of `columns` and the JSON summary next to it.

    The one CSV writer: it writes the header, then the run hands each window of its record to `_write_chunk` as
    it fills, so the CSV grows while the loop runs, a diverged run leaves the rows up to its diverged step, and
    only the columns the phase summary reads are held whole.  Fixed column order, >= 10 significant digits,
    deterministic text.
    """
    from .engine import run_scenario
    if not out:
        return run_scenario(scenario, lambda window: None)  # nothing to write: hold no more than a written run
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        res = run_scenario(scenario, functools.partial(_write_chunk, fh, columns))
    summary = res.summary_dict()
    summary["csv_schema"] = CSV_SCHEMA_VERSION
    Path(out + ".summary.json").write_text(_json_text(summary), encoding="utf-8")
    return res


def cmd_simulate(args) -> int:
    from .engine import TIMESERIES_COLUMNS
    res = _run_and_write(_load_scenario(args), args.out, TIMESERIES_COLUMNS)
    print(f"steps: {res.n_steps}   diverged: {res.diverged}"
          + (f" at step {res.diverged_step}" if res.diverged else ""))
    for p in res.phase_summaries:
        print(f"  phase {p.mode} [{p.t_start:.10g}, {p.t_end:.10g}] s: "
              f"steady error {p.ss_error:.10g}, settling {p.settling_time:.10g} s, "
              f"max observer error {p.max_rfob_error:.10g}")
    for e in res.design_events:
        status = "applied" if e.applied else f"rejected ({e.note})"
        print(f"  design event t = {e.t:.10g} s: {status}"
              + (f", alpha_g = {e.alpha_g:.10g}, C_f = {e.C_f:.10g}, g = {e.g:.10g}" if e.applied else ""))
    return EXIT_DIVERGED if res.diverged else EXIT_OK


def cmd_identify(args) -> int:
    from .engine import TRACE_COLUMNS
    scenario = _load_scenario(args)
    if not (scenario.ident.enable_plant or scenario.ident.enable_env):
        raise ConfigError("[identify] enable_plant or enable_env must be on for the identify command")
    res = _run_and_write(scenario, args.out, TRACE_COLUMNS)
    print(f"steps: {res.n_steps}   diverged: {res.diverged}")
    if res.final_delta_nc is not None:
        truth = [scenario.plant.M_m, scenario.friction.k_vsc, scenario.friction.k_clmb,
                 scenario.plant.F_d]
        names = ["M_m_kg", "k_vsc_Ns_per_m", "k_clmb_N", "F_d_N"]
        _print_estimates("plant", names, res.final_delta_nc, truth)
        print(f"  unidentifiable directions: {res.unidentifiable_nc}")
    if res.final_delta_c is not None:
        env = scenario.env
        truth = [env.D_env, env.K_env, -(env.D_env * env.xdot_env + env.K_env * env.x_env)]
        names = ["D_env_Ns_per_m", "K_env_N_per_m", "offset_N"]
        _print_estimates("environment", names, res.final_delta_c, truth)
        print(f"  unidentifiable directions: {res.unidentifiable_c}")
    return EXIT_DIVERGED if res.diverged else EXIT_OK


def _print_estimates(what: str, names, values, truth) -> None:
    """One line per estimate: value, truth, and the relative error (absolute where the truth is 0)."""
    print(f"{what} estimates (value, truth, relative error):")
    for name, got, want in zip(names, values, truth):
        if want == 0.0:
            print(f"  {name:16s} {got:>14.10g} {'0':>12s} {abs(got):.10g} absolute")
        else:
            print(f"  {name:16s} {got:>14.10g} {want:>12.10g} {abs(got - want) / abs(want):.3%}")


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The command-line parser and its subcommand parsers, built on the first `main()` call only."""
    parser = argparse.ArgumentParser(
        prog="rfobkit",
        description="Observer-based robust force control: gain design, stability analysis, "
                    "simulation and identification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("design", "analyze", "simulate", "identify"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="configuration file path")
        p.add_argument("--out", default=None, help="output path (JSON report or CSV)")
        if name in ("simulate", "identify"):
            p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        if name == "design":
            p.add_argument("--sweep", default=None,
                           help="section.key=START:STOP:N[:lin|log] one design per grid point")
    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = _parser()
    args = parser.parse_args(argv)
    if args.out is not None and (Path(args.out).is_dir() or not Path(args.out).parent.is_dir()):
        commands[args.command].error(f"--out {args.out}: not a file path in an existing directory")
    try:
        # looked up by name on every call, so a replaced cmd_* (a test's patch, a tracer) is the one run
        return globals()["cmd_" + args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleDesignError as exc:
        print(f"infeasible design: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())

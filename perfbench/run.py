"""rfobkit benchmark: closed-loop CLI workloads, end-to-end metrics and a traced per-layer breakdown.

Usage (from the repository root):

    python3 perfbench/run.py --workload force_loop --seed 1 --seconds 15 --trace 0

One process per workload and one client: the commands of the workload's
cycle are issued back to back through `rfobkit.cli.main`, in-process, and the
next starts only when the previous one has returned and been checked.  The
run covers at least one whole cycle and keeps issuing commands until
`--seconds` have passed.  The last line of standard output is a JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`.  Every end-to-end
time is corrected for the host's speed, which `hostspeed.SpeedSampler`
measures all through the run; the raw figures go to the log.

The traced run executes every command twice, untraced then traced, checks
that both write byte-identical outputs and reports the time ratio.
See perfbench/README.md for why each workload exists and what each metric
should move.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from hostspeed import NUMPY_NOMINAL_S, SpeedSampler, numpy_reference  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_SAMPLES = 5
SAMPLE_PERIOD_S = 0.05
PROBE_TIMEOUT_S = 120

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "cmd_wall_ms_p50": "ms",
    "cmd_wall_ms_tail": "ms",
    "work_per_s": "1/s",
    "peak_rss_MB": "MB",
    "ref_err_max": "ratio",
}

PER_LAYER = {
    "identify.RlmsEstimator.update.n4.us_per_call": "us",
    "identify.RlmsEstimator.update.n3.us_per_call": "us",
    "identify.RlmsEstimator.update.share": "ratio",
    "identify.NonContactRegressorBank.step.us_per_call": "us",
    "identify.NonContactRegressorBank.step.emit_ratio": "ratio",
    "identify.ContactRegressorBank.step.us_per_call": "us",
    "identify.ContactDetector.update.us_per_call": "us",
    "identify.updates_per_step": "ratio",
    "plant.plant_accel.us_per_call": "us",
    "plant.contact_force.us_per_call": "us",
    "observers.DisturbanceObserver.step.us_per_call": "us",
    "observers.ReactionForceObserver.step.us_per_call": "us",
    "observers.VelocityFilter.step.us_per_call": "us",
    "engine.Simulator.step.self_us_per_step": "us",
    "engine.Simulator.run.post_ms": "ms",
    "engine.run_scenario.self_ms": "ms",
    "cli.write_timeseries_csv.ms_per_call": "ms",
    "cli.write_timeseries_csv.MB_per_s": "MB/s",
    "cli.write_timeseries_csv.share": "ratio",
    "cli.cmd.self_ms": "ms",
    "design.design_for_env.us_per_call": "us",
    "design.solve_cubic.us_per_call": "us",
    "design.feasible_ratio": "ratio",
    "loop_model.closed_loop_char_poly.us_per_call": "us",
    "loop_model.open_loop_general.us_per_call": "us",
    "loop_model.rhp_zero_check.us_per_call": "us",
    "loop_model.poles.us_per_call": "us",
    "config.parse_config.us_per_call": "us",
    "config.build_scenario.us_per_call": "us",
    **{f"{m}.self_share": "ratio" for m in
       ("config", "plant", "observers", "identify", "engine", "design", "loop_model", "cli")},
    "trace.overhead_ratio": "ratio",
    "trace.wrapper_ns": "ns",
}


@dataclass
class Record:
    cmd: workloads.Command
    t0: float                 # perf_counter seconds around the command
    t1: float
    outcome: workloads.Outcome
    wall_s: float = 0.0       # host-speed corrected (untraced run) or raw (traced run)

    @property
    def raw_s(self) -> float:
        return self.t1 - self.t0


def log(msg: str) -> None:
    print(msg, flush=True)


def run_cli(cli_main, argv: list[str]) -> tuple[int, float, float, str]:
    """One command through the CLI entry point; returns (exit code, start, end, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash counts as a failed command, the run goes on
        rc = -1
        err.write(traceback.format_exc())
    t1 = time.perf_counter()
    if rc != 0 and err.getvalue():
        log(f"  stderr: {err.getvalue().strip().splitlines()[-1]}")
    return rc, t0, t1, out.getvalue()


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def measure_setup(src: Path, cmds: list[workloads.Command]) -> float:
    """Median over fresh processes of importing rfobkit and parsing and building every input.

    Each sample is corrected to the nominal host speed by the probe itself.
    """
    items = sorted({f"{c.kind}:{c.cfg}" for c in cmds})
    samples, raw = [], []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"), str(src), *items],
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        corrected, wall = proc.stdout.strip().splitlines()[-1].split()
        samples.append(float(corrected))
        raw.append(float(wall))
    log(f"setup samples (s): {', '.join(f'{s:.4f}' for s in samples)}"
        f"   raw: {', '.join(f'{s:.4f}' for s in raw)}")
    return statistics.median(samples)


def tail_percentile(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, samples beyond).

    Up to 21 samples that percentile would be no higher than the median (below 11
    none qualifies), so the maximum is reported.
    """
    s = sorted(values)
    n = len(s)
    if n <= 21:
        return s[-1], 100.0, 0
    return s[n - 11], 100.0 * (n - 10) / n, 10


def issue_commands(cmds, seconds: float, step) -> None:
    """Closed loop: at least one whole cycle, then until `seconds` have passed."""
    t_start = time.perf_counter()
    i = 0
    while i < len(cmds) or time.perf_counter() - t_start < seconds:
        step(i, cmds[i % len(cmds)])
        i += 1


def report_outcome(rec: Record) -> None:
    o = rec.outcome
    status = "ok" if o.ok else f"FAILED: {o.reason}"
    err = "" if o.err is None else f"  ref_err {o.err:.6g}"
    extra = f"  {o.info}" if o.info else ""
    log(f"  {rec.cmd.label:28s} {rec.raw_s * 1e3:10.2f} ms  {status}{err}{extra}")


def run_untraced(cli_main, cmds, seconds: float) -> tuple[list[Record], dict]:
    """The timed run; each record's wall_s is its host-speed corrected wall time."""
    records: list[Record] = []
    hashes: dict[str, str] = {}

    def step(i, cmd):
        rc, t0, t1, stdout = run_cli(cli_main, cmd.argv())
        rec = Record(cmd, t0, t1, workloads.check(cmd, rc, stdout))
        records.append(rec)
        report_outcome(rec)
        if cmd.bundled and cmd.kind in ("simulate", "identify") and rc == 0 and cmd.label not in hashes:
            hashes[cmd.label] = sha256(cmd.out)

    sampler = SpeedSampler(numpy_reference(), NUMPY_NOMINAL_S, SAMPLE_PERIOD_S)
    with sampler:
        # samples on both sides of every command
        time.sleep(2 * SAMPLE_PERIOD_S)
        issue_commands(cmds, seconds, step)
        time.sleep(2 * SAMPLE_PERIOD_S)
    for rec in records:
        rec.wall_s = sampler.corrected(rec.t0, rec.t1)
    log(f"host speed: {len(sampler.ref)} reference samples, median {statistics.median(sampler.ref) * 1e6:.1f} us"
        f" (nominal {NUMPY_NOMINAL_S * 1e6:.1f} us)")
    return records, hashes


def end_to_end_metrics(records: list[Record], setup_s: float) -> dict[str, float]:
    walls_ms = [r.wall_s * 1e3 for r in records]
    tail, pct, beyond = tail_percentile(walls_ms)
    log(f"commands: {len(records)}   tail = p{pct:.1f} with {beyond} samples beyond it"
        + ("" if beyond else " (21 commands or fewer: the maximum)"))
    raw_ms = [r.raw_s * 1e3 for r in records]
    log(f"raw wall time: p50 {statistics.median(raw_ms):.2f} ms, work per second"
        f" {sum(r.cmd.work for r in records) / sum(r.raw_s for r in records):.6g}")
    errs = [r.outcome.err for r in records if r.cmd.accuracy and r.outcome.err is not None]
    return {
        "setup_s": setup_s,
        "cmd_wall_ms_p50": statistics.median(walls_ms),
        "cmd_wall_ms_tail": tail,
        "work_per_s": sum(r.cmd.work for r in records) / sum(r.wall_s for r in records),
        "peak_rss_MB": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # a run whose reference commands all failed reports a 100% error
        "ref_err_max": max(errs) if errs else 1.0,
    }


def run_traced(cli_main, cmds, seconds: float, tracer: Tracer, traced_out: Path) -> tuple[list[Record], dict]:
    records: list[Record] = []
    ratios: list[float] = []
    csv_bytes = 0

    def step(i, cmd):
        nonlocal csv_bytes
        rc, t0, t1, stdout = run_cli(cli_main, cmd.argv())
        outcome = workloads.check(cmd, rc, stdout)
        alt = traced_out / cmd.out.name
        tracer.begin()
        try:
            rc_t, t0_t, t1_t, stdout_t = run_cli(cli_main, cmd.argv(alt))
        finally:
            tracer.end()
        tracer.flush(i)
        wall, wall_t = t1 - t0, t1_t - t0_t
        ratios.append(wall_t / wall)
        if outcome.ok:
            same = rc_t == rc and stdout_t == stdout and all(
                sha256(a) == sha256(b) for a, b in zip(cmd.outputs(), cmd.outputs(alt)))
            if not same:
                outcome = workloads.Outcome(False, "traced run output differs from the untraced run")
        if cmd.kind in ("simulate", "identify") and rc_t == 0:
            csv_bytes += alt.stat().st_size
        rec = Record(cmd, t0, t1, outcome, wall)
        records.append(rec)
        report_outcome(rec)
        log(f"  {'':28s} {wall_t * 1e3:10.2f} ms traced (x{wall_t / wall:.3f})")

    issue_commands(cmds, seconds, step)
    return records, {"ratios": ratios, "csv_bytes": csv_bytes}


def div(a: float, b: float) -> float:
    """a / b, or 0 when the layer did no work in this workload."""
    return a / b if b else 0.0


def per_layer_metrics(tr: Tracer, extra: dict) -> dict[str, float]:
    calls, incl, self_ns = tr.calls, tr.incl_ns, tr.self_ns

    def us_per_call(name):
        return div(incl[name], calls[name]) / 1e3

    work_ns = sum(self_ns.values())
    rls = [f"identify.RlmsEstimator.update{s}" for s in (".n3", ".n4", "")]
    csv = "cli.write_timeseries_csv"
    m = {
        "identify.RlmsEstimator.update.n4.us_per_call": us_per_call(rls[1]),
        "identify.RlmsEstimator.update.n3.us_per_call": us_per_call(rls[0]),
        "identify.RlmsEstimator.update.share": div(sum(incl[n] for n in rls), work_ns),
        "identify.NonContactRegressorBank.step.us_per_call": us_per_call("identify.NonContactRegressorBank.step"),
        "identify.NonContactRegressorBank.step.emit_ratio":
            div(tr.counts["identify.NonContactRegressorBank.step.emitted"],
                calls["identify.NonContactRegressorBank.step"]),
        "identify.ContactRegressorBank.step.us_per_call": us_per_call("identify.ContactRegressorBank.step"),
        "identify.ContactDetector.update.us_per_call": us_per_call("identify.ContactDetector.update"),
        "identify.updates_per_step": div(sum(calls[n] for n in rls), calls["engine.Simulator.step"]),
        "plant.plant_accel.us_per_call": us_per_call("plant.plant_accel"),
        "plant.contact_force.us_per_call": us_per_call("plant.contact_force"),
        "observers.DisturbanceObserver.step.us_per_call": us_per_call("observers.DisturbanceObserver.step"),
        "observers.ReactionForceObserver.step.us_per_call": us_per_call("observers.ReactionForceObserver.step"),
        "observers.VelocityFilter.step.us_per_call": us_per_call("observers.VelocityFilter.step"),
        "engine.Simulator.step.self_us_per_step":
            div(self_ns["engine.Simulator.step"], calls["engine.Simulator.step"]) / 1e3,
        "engine.Simulator.run.post_ms": div(sum(tr.post_ns), len(tr.post_ns)) / 1e6,
        "engine.run_scenario.self_ms": div(self_ns["engine.run_scenario"], calls["engine.run_scenario"]) / 1e6,
        "cli.write_timeseries_csv.ms_per_call": us_per_call(csv) / 1e3,
        "cli.write_timeseries_csv.MB_per_s": div(extra["csv_bytes"] / 1e6, incl[csv] / 1e9),
        "cli.write_timeseries_csv.share": div(incl[csv], work_ns),
        "cli.cmd.self_ms": div(self_ns["cli.cmd"], calls["cli.cmd"]) / 1e6,
        "design.design_for_env.us_per_call": us_per_call("design.design_for_env"),
        "design.solve_cubic.us_per_call": us_per_call("design.solve_cubic"),
        "design.feasible_ratio": div(tr.counts["design.design_for_env.feasible"], calls["design.design_for_env"]),
        "loop_model.closed_loop_char_poly.us_per_call": us_per_call("loop_model.closed_loop_char_poly"),
        "loop_model.open_loop_general.us_per_call": us_per_call("loop_model.open_loop_general"),
        "loop_model.rhp_zero_check.us_per_call": us_per_call("loop_model.rhp_zero_check"),
        "loop_model.poles.us_per_call": us_per_call("loop_model.poles"),
        "config.parse_config.us_per_call": us_per_call("config.parse_config"),
        "config.build_scenario.us_per_call": us_per_call("config.build_scenario"),
        "trace.overhead_ratio": statistics.median(extra["ratios"]),
        "trace.wrapper_ns": tr.wrapper_ns,
    }
    for module in ("config", "plant", "observers", "identify", "engine", "design", "loop_model", "cli"):
        m[f"{module}.self_share"] = div(sum(ns for name, ns in self_ns.items()
                                            if name.split(".", 1)[0] == module), work_ns)
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = BENCH_DIR.parent
    src, configs = root / "src", root / "configs"
    if not (src / "rfobkit" / "cli.py").is_file() or not configs.is_dir():
        print(f"error: no rfobkit sources under {src} or no bundled configs under {configs}", file=sys.stderr)
        return 2

    work = root / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    outputs, traced_out, trace_dir = work / "out", work / "out_traced", work / "trace"
    for d in (traced_out, trace_dir):
        d.mkdir(parents=True)
    cmds = workloads.generate(args.workload, args.seed, configs, work / "inputs", outputs)
    log(f"workload {args.workload}  seed {args.seed}  cycle of {len(cmds)} commands  trace {args.trace}")

    # set-up is timed in fresh processes, before this one imports the program
    setup_s = None if args.trace else measure_setup(src, cmds)
    sys.path.insert(0, str(src))
    from rfobkit import cli

    if args.trace:
        tracer = Tracer(trace_dir)
        tracer.calibrate()
        tracer.install()
        try:
            records, extra = run_traced(cli.main, cmds, args.seconds, tracer, traced_out)
        finally:
            tracer.restore()
        tracer.write_names()
        if tracer.missing:
            log(f"not traced (not found): {', '.join(tracer.missing)}")
        log(f"spans: {tracer.n_spans}   wrapper cost {tracer.wrapper_ns:.0f} ns per call")
        metrics = per_layer_metrics(tracer, extra)
        units = PER_LAYER
    else:
        records, hashes = run_untraced(cli.main, cmds, args.seconds)
        for label, digest in sorted(hashes.items()):
            log(f"sha256 {label}: {digest}")
        metrics = end_to_end_metrics(records, setup_s)
        units = END_TO_END

    shutil.rmtree(outputs, ignore_errors=True)
    shutil.rmtree(traced_out, ignore_errors=True)
    failed = sum(not r.outcome.ok for r in records)
    for name in units:
        log(f"{name:52s} {metrics[name]:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    bad = [name for name, v in result["metrics"].items() if not math.isfinite(v["value"])]
    if bad:
        raise RuntimeError(f"non-finite metric values: {bad}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

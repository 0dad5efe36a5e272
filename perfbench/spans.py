"""Span tracer that instruments rfobkit from outside the package.

Public functions and methods of each layer are replaced by timing wrappers
under every name a caller looks them up by (e.g. `rfobkit.engine.plant_accel`
as well as `rfobkit.plant.plant_accel`), and restored afterwards.  Each call
made while a command is traced records one span (name, parent, start,
end) into flat in-memory arrays, the row index being the span id; `flush` turns one command's spans into
per-name aggregates, writes the raw spans out and clears the buffer, so
memory stays bounded by the largest command.

A layer's self time is its span time minus the time its child spans cover.
The wrapper's own cost lands in the parent's self time, so self times are
corrected by the per-call cost measured in `calibrate`.
"""
from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

ROOT_SPAN = "cli.main"

# (module, function, span name): patched under every rfobkit name bound to it
FUNCTIONS = [
    ("rfobkit.config", "parse_config", "config.parse_config"),
    ("rfobkit.config", "build_scenario", "config.build_scenario"),
    ("rfobkit.plant", "plant_accel", "plant.plant_accel"),
    ("rfobkit.plant", "contact_force", "plant.contact_force"),
    ("rfobkit.engine", "run_scenario", "engine.run_scenario"),
    ("rfobkit.design", "design_for_env", "design.design_for_env"),
    ("rfobkit.design", "solve_cubic", "design.solve_cubic"),
    ("rfobkit.loop_model", "closed_loop_char_poly", "loop_model.closed_loop_char_poly"),
    ("rfobkit.loop_model", "open_loop_general", "loop_model.open_loop_general"),
    ("rfobkit.loop_model", "rhp_zero_check", "loop_model.rhp_zero_check"),
    ("rfobkit.loop_model", "poles", "loop_model.poles"),
    ("rfobkit.cli", "write_timeseries_csv", "cli.write_timeseries_csv"),
    ("rfobkit.cli", "cmd_design", "cli.cmd"),
    ("rfobkit.cli", "cmd_analyze", "cli.cmd"),
    ("rfobkit.cli", "cmd_simulate", "cli.cmd"),
    ("rfobkit.cli", "cmd_identify", "cli.cmd"),
]

# (module, class, method, span name)
METHODS = [
    ("rfobkit.identify", "RlmsEstimator", "update", "identify.RlmsEstimator.update"),
    ("rfobkit.identify", "NonContactRegressorBank", "step", "identify.NonContactRegressorBank.step"),
    ("rfobkit.identify", "ContactRegressorBank", "step", "identify.ContactRegressorBank.step"),
    ("rfobkit.identify", "ContactDetector", "update", "identify.ContactDetector.update"),
    ("rfobkit.observers", "DisturbanceObserver", "step", "observers.DisturbanceObserver.step"),
    ("rfobkit.observers", "ReactionForceObserver", "step", "observers.ReactionForceObserver.step"),
    ("rfobkit.observers", "VelocityFilter", "step", "observers.VelocityFilter.step"),
    ("rfobkit.engine", "Simulator", "step", "engine.Simulator.step"),
    ("rfobkit.engine", "Simulator", "run", "engine.Simulator.run"),
]


class Tracer:
    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one row per span of the command being traced; the row index is the span id
        self.nid = array("i")
        self.parent = array("i")
        self.t0 = array("q")
        self.t1 = array("q")
        self.stack = [-1]
        self.active = False
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object, bool]] = []
        self.wrapper_ns = 0.0
        # per-name aggregates over all flushed commands
        self.calls: Counter = Counter()
        self.incl_ns: defaultdict = defaultdict(float)
        self.self_ns: defaultdict = defaultdict(float)
        self.post_ns: list[float] = []
        self.n_spans = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- wrapping ------------------------------------------------------------
    def wrap(self, fn, name: str, pick=None, on_result=None):
        """Timing wrapper; `pick(args)` may choose a sub-name, `on_result` counts outcomes."""
        tracer = self
        nid = self.name_id(name)
        nids, parents, t0s, t1s, stack = self.nid, self.parent, self.t0, self.t1, self.stack
        clock = time.perf_counter_ns

        if pick is None and on_result is None:
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                row = len(t0s)
                nids.append(nid)
                parents.append(stack[-1])
                t1s.append(0)
                stack.append(row)
                t0s.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1s[row] = clock()
                    stack.pop()
        else:
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                row = len(t0s)
                nids.append(pick(args) if pick else nid)
                parents.append(stack[-1])
                t1s.append(0)
                stack.append(row)
                t0s.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1s[row] = clock()
                    stack.pop()
                if on_result:
                    on_result(tracer.counts, args, result)
                return result

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        had = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap the layer functions; names that no longer exist are recorded and skipped."""
        mods = [m for n, m in sorted(sys.modules.items()) if n == "rfobkit" or n.startswith("rfobkit.")]
        wrappers: dict[int, object] = {}
        for mod_name, attr, name in FUNCTIONS:
            target = getattr(importlib.import_module(mod_name), attr, None)
            if target is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            on_result = _count_feasible if name == "design.design_for_env" else None
            w = wrappers.setdefault(id(target), self.wrap(target, name, on_result=on_result))
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is target:
                        self._patch(mod, key, w)
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name, None)
            fn = getattr(cls, attr, None) if cls is not None else None
            if fn is None:
                self.missing.append(f"{mod_name}.{cls_name}.{attr}")
                continue
            pick = on_result = None
            if name == "identify.RlmsEstimator.update":
                by_n = {n: self.name_id(f"{name}.n{n}") for n in (3, 4)}

                def pick(args, by_n=by_n, other=self.name_id(name)):
                    return by_n.get(getattr(args[0], "n", None), other)
            if name == "identify.NonContactRegressorBank.step":
                on_result = _count_emitted
            self._patch(cls, attr, self.wrap(fn, name, pick=pick, on_result=on_result))

    def restore(self) -> None:
        for owner, attr, old, had in reversed(self._patches):
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- recording -----------------------------------------------------------
    def begin(self) -> None:
        """Open the root span (row 0) of one traced command."""
        self.nid.append(self.name_id(ROOT_SPAN))
        self.parent.append(-1)
        self.t1.append(0)
        self.stack.append(0)
        self.active = True
        self.t0.append(time.perf_counter_ns())

    def end(self) -> None:
        self.t1[0] = time.perf_counter_ns()
        self.active = False
        self.stack.pop()

    def flush(self, cmd_id: int) -> None:
        """Aggregate the spans of command `cmd_id`, write them out and clear the buffers."""
        nid = np.array(self.nid, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        t0 = np.array(self.t0, dtype=np.int64)
        t1 = np.array(self.t1, dtype=np.int64)
        for buf in (self.nid, self.parent, self.t0, self.t1):
            del buf[:]
        n = len(nid)
        if n == 0:
            return
        np.savez(self.out_dir / f"spans_cmd{cmd_id:04d}.npz", name=nid, parent=parent, start_ns=t0, end_ns=t1)
        has_parent = parent >= 0
        prow = parent[has_parent]
        dur = (t1 - t0).astype(float)
        child_ns = np.bincount(prow, weights=dur[has_parent], minlength=n)
        n_children = np.bincount(prow, minlength=n)
        self_ns = np.maximum(dur - child_ns - self.wrapper_ns * n_children, 0.0)
        # inclusive time corrected for the wrapper cost of every descendant
        n_desc = np.zeros(n)
        for _ in range(64):
            nxt = np.bincount(prow, weights=1.0 + n_desc[has_parent], minlength=n)
            if np.array_equal(nxt, n_desc):
                break
            n_desc = nxt
        incl_ns = np.maximum(dur - self.wrapper_ns * n_desc, 0.0)
        for k in np.unique(nid):
            mask = nid == k
            name = self.names[int(k)]
            self.calls[name] += int(mask.sum())
            self.incl_ns[name] += float(incl_ns[mask].sum())
            self.self_ns[name] += float(self_ns[mask].sum())
        # engine.Simulator.run: time after its last child (the step loop) returned
        run_id = self._ids.get("engine.Simulator.run")
        if run_id is not None:
            last_end = np.zeros(n, dtype=np.int64)
            np.maximum.at(last_end, prow, t1[has_parent])
            for r in np.flatnonzero(nid == run_id):
                if last_end[r] > 0:
                    self.post_ns.append(float(t1[r] - last_end[r]))
        self.n_spans += n

    def write_names(self) -> None:
        (self.out_dir / "span_names.txt").write_text("\n".join(self.names) + "\n", encoding="utf-8")

    # -- calibration -----------------------------------------------------------
    def calibrate(self, n: int = 20000) -> None:
        """Cost a wrapped call adds to its caller, from an empty function called n times."""
        def noop():
            return None

        wrapped = self.wrap(noop, "trace.calibration")
        samples = []
        for _ in range(5):
            t0 = time.perf_counter_ns()
            for _ in range(n):
                noop()
            plain = time.perf_counter_ns() - t0
            self.active = True
            t0 = time.perf_counter_ns()
            for _ in range(n):
                wrapped()
            traced = time.perf_counter_ns() - t0
            self.active = False
            for buf in (self.nid, self.parent, self.t0, self.t1):
                del buf[:]
            samples.append((traced - plain) / n)
        self.wrapper_ns = float(np.median(samples))


def _count_feasible(counts: Counter, args, result) -> None:
    counts["design.design_for_env.feasible"] += bool(getattr(result, "feasible", False))


def _count_emitted(counts: Counter, args, result) -> None:
    counts["identify.NonContactRegressorBank.step.emitted"] += result is not None

"""Host-speed correction: a fixed reference workload, timed all through a run.

The vCPUs of a small shared host change speed by up to 2x, within seconds
and over minutes, so a raw wall time says as much about the host as about
the program.  A `SpeedSampler` times a fixed reference workload every
`period_s` of wall time, from a SIGALRM handler, while the program runs in
the same thread.  The references do not call rfobkit, so a change to the
program moves the commands' times and not the reference.

A time taken between `t0` and `t1` is corrected to the host speed at which
the reference takes its nominal duration `nominal_s`:

    corrected = (wall - time spent in the handler) * mean(nominal_s / r_i)

over the reference samples r_i taken from one period before `t0` to one
period after `t1`.  A command's wall time is the integral of the host's
slowness over the command, so the mean of the inverse sample is the right
average.

The references do, in small, the two kinds of work the commands spend their
time on: `text_reference` formats rows of floats as CSV text, as the CLI
does when it writes a time series or a report; `numpy_reference` adds to it
small matrix-vector products between attribute updates, as a simulation
step does, and corrects the commands.  The set-up probe uses
`text_reference` alone, because it must not load numpy before the set-up
it times.  Importing this module loads only the standard library.  The
nominal durations are each reference's time on a 2-vCPU x86-64 host at its
fast speed level (Python 3.11, numpy 2.4); they only set the scale of
corrected times.
"""
from __future__ import annotations

import bisect
import io
import signal
import time
from typing import Callable

TEXT_NOMINAL_S = 1.0e-4
NUMPY_NOMINAL_S = 2.0e-4

_ROW = [i * 0.123456789 for i in range(23)]


def text_reference() -> int:
    """Six 23-column CSV rows of floats, formatted with repr into a text buffer."""
    buf = io.StringIO()
    for k in range(1, 7):
        buf.write(",".join(repr(x * k) for x in _ROW))
        buf.write("\n")
    return len(buf.getvalue())


def numpy_reference() -> Callable[[], float]:
    """`text_reference` plus 60 products of a 4x4 matrix and a 4-vector between attribute updates."""
    import numpy as np

    class State:
        x = 1.0

    state, a, v = State(), np.eye(4), np.ones(4)

    def run() -> float:
        s = 0.0
        for _ in range(60):
            state.x = state.x * 0.999 + 0.001
            w = a @ v
            s += float(w[0]) * state.x
        return s + text_reference()
    return run


class SpeedSampler:
    """Times `reference` every `period_s` of wall time inside its `with` block."""

    def __init__(self, reference: Callable[[], object], nominal_s: float, period_s: float):
        self.reference = reference
        self.nominal_s = nominal_s
        self.period_s = period_s
        self.t: list[float] = []       # start of each sample (perf_counter seconds)
        self.ref: list[float] = []     # duration of one reference call
        self.spent: list[float] = []   # whole handler time, bookkeeping included
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a signal that arrives during the handler would nest it
            return
        self._busy = True
        t0 = time.perf_counter()
        self.reference()
        t1 = time.perf_counter()
        self.t.append(t0)
        self.ref.append(t1 - t0)
        self.spent.append(time.perf_counter() - t0)
        self._busy = False

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def corrected(self, t0: float, t1: float) -> float:
        """Seconds that [t0, t1] would have taken at the nominal host speed."""
        inside = slice(bisect.bisect_left(self.t, t0), bisect.bisect_right(self.t, t1))
        near = self.ref[bisect.bisect_left(self.t, t0 - self.period_s):
                        bisect.bisect_right(self.t, t1 + self.period_s)]
        if not near:
            raise RuntimeError("no host-speed sample near the timed interval")
        scale = sum(self.nominal_s / r for r in near) / len(near)
        return (t1 - t0 - sum(self.spent[inside])) * scale

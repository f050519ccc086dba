"""Host speed, sampled while the benchmark runs, so that times can be reported at
one fixed reference speed.

The benchmark shares a few cores of a busy host. The speed of its core drifts
by a third and more, over seconds and over minutes, and process CPU time
drifts with it. A run timed in plain wall seconds mostly measures that drift:
the same cell, same inputs, took 2.0 s to 3.6 s in consecutive repeats.

A `Sampler` therefore interrupts the workload every PERIOD_S (SIGALRM, real
time) and times a fixed pure-Python probe in the handler. A window
[start, end) of the run is reported by `scaled` as

    (end - start - time spent in the handler) * PROBE_REF_S / mean(probe times)

over the probes taken inside the window: the wall time the window would have
taken at the speed at which one probe takes PROBE_REF_S. The probe calls
nothing from the library, so no change to the program can move it. It uses
no numpy either, so a set-up probe can sample before numpy is imported.
Handlers run between bytecodes, so a probe due during a long numpy call runs
when that call returns; the probes stay spread over the window all the same.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD_S = 0.02
# The mean probe time inside the handler, while a workload ran, on the host
# the README's baselines come from (2 vCPUs of an Intel Xeon at 2.0 GHz); the
# scaled times are wall seconds at that speed.
PROBE_REF_S = 4.4e-4
MIN_PROBES = 8  # fewer probes in a window than this: use the enclosing window's


def probe_work() -> int:
    """The fixed unit of work whose time gauges the host's current speed."""
    total = 0
    seen = {}
    for i in range(2400):
        total += i * i % 7
        seen[i & 63] = total
    return total + len(seen)


class Sampler:
    """Times `probe_work` every PERIOD_S while active (a context manager).

    Only the main thread can take the signal; the benchmark has no other."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.starts: list[float] = []     # when each probe started
        self.probe_s: list[float] = []    # how long each probe took
        self.handler_s: list[float] = []  # how long each handler ran, probe included
        self._previous = None

    def _handle(self, signum, frame):
        enter = self.clock()
        probe_work()
        done = self.clock()
        self.starts.append(enter)
        self.probe_s.append(done - enter)
        self.handler_s.append(self.clock() - enter)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handle)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        return False

    def _span(self, start, end):
        return bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)

    def busy_s(self, start, end) -> float:
        """Handler time inside [start, end)."""
        i, j = self._span(start, end)
        return sum(self.handler_s[i:j])

    def speed_probe_s(self, start, end, enclosing=None) -> float:
        """Mean probe time inside [start, end), or inside `enclosing` (a wider
        (start, end) window) when the first holds fewer than MIN_PROBES."""
        i, j = self._span(start, end)
        if j - i < MIN_PROBES and enclosing is not None:
            i, j = self._span(*enclosing)
        if j == i:
            raise RuntimeError("no host-speed probe fell in the window; is the sampler active?")
        return statistics.fmean(self.probe_s[i:j])

    def scaled(self, start, end, enclosing=None) -> float:
        """Seconds [start, end) would have taken at the reference speed."""
        raw = end - start - self.busy_s(start, end)
        return raw * PROBE_REF_S / self.speed_probe_s(start, end, enclosing)

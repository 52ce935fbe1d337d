"""A clock that runs at the machine's current speed.

Machine speed on a shared host is not steady: a fixed Python loop on one
2-vCPU KVM guest switches between states about 1.5x apart with a dwell time
of seconds, on either vCPU and with the process pinned or not, and a probe
on the other vCPU does not follow it. Work in the same thread does: over
150 s of alternating `train_siamese` and `knn` pieces, each rescaled by a
reference kernel timed right beside it, the spread of 5-piece medians fell
from 0.23 of the median to 0.04.

So SpeedClock interrupts the measuring thread every PERIOD_S (SIGALRM) to
time a fixed reference kernel, and advances, until the next probe, at
NOMINAL_PROBE_S / (last probe's duration) seconds per wall second. It
stands still while a probe runs, so no probe time enters a measurement.
Readings are seconds on a machine where the probe takes NOMINAL_PROBE_S.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
# The probe's duration on the uncontended machine this was tuned on, so
# readings there are close to wall seconds.
NOMINAL_PROBE_S = 0.0013
_PROBE_STEPS = 1000
# Interpreter work on small arrays, like ivenn's per-example paths.
_ROWS = np.random.default_rng(0).standard_normal((64, 16))
_QUERY = np.random.default_rng(1).standard_normal(16)


def _probe():
    rows, query, kept = _ROWS, _QUERY, []
    t0 = time.perf_counter()
    for i in range(_PROBE_STEPS):
        d = rows[i & 63] - query
        s = float(d @ d)
        if s < 20.0:
            kept.append(s)
    return time.perf_counter() - t0


class SpeedClock:
    """Speed-rescaled seconds; call the instance to read it. Main thread
    only, and only one running at a time: it owns SIGALRM until `stop`."""

    def __init__(self):
        self.probes = [_probe()]
        # (reading at mark, wall time of mark, rate); replaced whole by the
        # handler, so a reader sees one consistent triple
        self._state = (0.0, time.perf_counter(), NOMINAL_PROBE_S / self.probes[0])
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _on_alarm(self, signum, frame):
        reading, mark, rate = self._state
        reading += (time.perf_counter() - mark) * rate
        d = _probe()
        self.probes.append(d)
        self._state = (reading, time.perf_counter(), NOMINAL_PROBE_S / d)

    def __call__(self):
        while True:
            state = self._state
            now = time.perf_counter()
            if state is self._state:  # no probe ran in between
                return state[0] + (now - state[1]) * state[2]

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def probe_quartiles_ms(self):
        return [q * 1e3 for q in statistics.quantiles(self.probes, n=4)]

"""Host-speed probe: corrects timings for the host's changing speed.

On a shared 2-CPU host the same single-threaded work can take twice as long
from one ten-second stretch to the next, with process CPU time equal to wall
time: the slowdown comes from outside the process. While a sample runs, a
SIGALRM timer runs a fixed reference kernel (a Python loop plus 2x2 and 4x4
numpy products, the mix the filter uses) every INTERVAL_S seconds and
records how long it took. A timed interval is then reported as

    corrected = (raw - probe time inside it) * REFERENCE_S / mean kernel time inside it

that is, in seconds of a host running the kernel in REFERENCE_S. The
handler runs between bytecodes of the main thread, touches no program
state, and costs about 1% of the run.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.2
# About the kernel's time on an uncontended core of a 2-CPU Intel Xeon host
# (its fastest tenth there); it only fixes the scale of corrected seconds.
REFERENCE_S = 0.001

_F = np.eye(4)
_F[0, 2] = _F[1, 3] = 0.05
_Q = 0.01 * np.eye(4)
_R = np.eye(2)


def kernel() -> float:
    """Fixed reference work; returns a value so it cannot be skipped."""
    acc = 0.0
    table = {}
    for i in range(1500):
        acc += (i * 1.5) % 7.0
        table[i & 63] = acc
    P = np.eye(4)
    for _ in range(30):
        P = _F @ P @ _F.T + _Q
        S = P[:2, :2] + _R
        K = P[:, :2] @ np.linalg.inv(S)
        P = P - K @ P[:2]
    return acc + float(P[0, 0])


class SpeedProbe:
    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.ticks: list[tuple[float, float]] = []  # (start, kernel seconds)

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        kernel()
        self.ticks.append((start, time.perf_counter() - start))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean kernel time in the perf_counter interval
        [start, end]; an interval too short to hold a tick uses the ticks
        just around it."""
        near = [d for s, d in self.ticks if start <= s < end]
        near = near or [d for s, d in self.ticks if start - self.interval <= s < end + self.interval]
        near = near or [d for _, d in self.ticks]
        return REFERENCE_S * len(near) / sum(near)

    def probe_time(self, start: float, end: float) -> float:
        """Seconds the probe itself spent inside [start, end]."""
        return sum(d for s, d in self.ticks if start <= s < end)

    def correct(self, start: float, end: float) -> float:
        """Corrected seconds of the interval [start, end]."""
        return (end - start - self.probe_time(start, end)) * self.factor(start, end)

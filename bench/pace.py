"""The host's current speed, sampled while the benchmark runs.

The host's speed drifts by tens of percent over seconds to minutes, so
a wall time on its own is not comparable from run to run. A Pace timer
interrupts the process every PERIOD_S seconds and runs a short, fixed
pure-Python chunk of work that does not touch gatesynth, recording when
it ran and how long it took. A stretch of work measured against the
chunks that ran during it reads the same at any host speed: `seconds`
gives its time, chunk time excluded, at the speed where one chunk takes
NOMINAL_CHUNK_S.

The chunks run in the main thread, from a signal handler between two
bytecodes of whatever is being timed; they add about CHUNK_S / PERIOD_S
to its wall time, which `relative` subtracts.
"""

from __future__ import annotations

import bisect
import signal
import time
from typing import List

PERIOD_S = 0.01
NOMINAL_CHUNK_S = 0.0005
MARGIN_S = 0.05             # host speed around a stretch is taken this wide


def chunk() -> int:
    """About half a millisecond of arithmetic and of hashing small tuples."""
    s = 0
    d = {}
    for i in range(2500):
        s += i * i % 7
        k = (i % 97, i % 13)
        d[k] = d.get(k, 0) + 1
    return s + len(d)


class Pace:
    def __init__(self):
        self.starts: List[float] = []
        self.times: List[float] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        chunk()
        self.starts.append(t0)
        self.times.append(time.perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def seconds(self, t0: float, t1: float) -> float:
        """Work timed from t0 to t1, in seconds at nominal host speed.

        Chunks that ran inside [t0, t1] are subtracted from its time. The
        host speed is the mean time of the chunks that ran inside
        [t0 - MARGIN_S, t1 + MARGIN_S]; the margin lets work shorter than
        PERIOD_S see some."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        inside = sum(self.times[lo:hi])
        lo = bisect.bisect_left(self.starts, t0 - MARGIN_S)
        hi = bisect.bisect_right(self.starts, t1 + MARGIN_S)
        near = self.times[lo:hi]
        if not near:
            raise ValueError("no pace sample within %.3f s of the work" % MARGIN_S)
        return (t1 - t0 - inside) / (sum(near) / len(near)) * NOMINAL_CHUNK_S

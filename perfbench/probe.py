"""Speed probe: scales measured seconds to a nominal CPU speed.

On a shared box the speed one CPU gives a process drifts by tens of
percent within seconds, and it moves every timing of a run alike.  The
probe times a fixed pure-Python kernel on the same CPU over the same
interval as the measurement; ``PROBE_NOMINAL_S / mean kernel time`` is the
scale that turns measured seconds into seconds at nominal speed.  The
kernel (~1 ms) is shorter than the interpreter's switch interval and holds
the GIL throughout, so a sample times the CPU, not a wait for the GIL.

This module imports only what ``import tsadkit`` imports anyway, so the
set-up timing can use it without loading anything extra.
"""

from __future__ import annotations

import threading
import time

PROBE_LOOPS = 10_000
PROBE_INTERVAL_S = 0.05
# The kernel's time at nominal speed: about its time on an idle Intel Xeon
# vCPU with Python 3.11.  A scale of 1 means the run went at that speed.
PROBE_NOMINAL_S = 1.0e-3


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    x = 0
    for k in range(PROBE_LOOPS):
        x += k * k
    return time.perf_counter() - t0


def scale(samples: list) -> float:
    return PROBE_NOMINAL_S * len(samples) / sum(samples)


class SpeedProbe:
    """Samples the kernel every ``PROBE_INTERVAL_S`` seconds on a background thread.

    The thread must share the measured thread's CPU (pin the process), so
    the mean of its samples measures how fast that CPU ran the measurement.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        self._thread.join()

    def _run(self):
        while True:
            self.samples.append(kernel_seconds())
            if self._stop.wait(PROBE_INTERVAL_S):
                return

    @property
    def scale(self) -> float:
        return scale(self.samples)

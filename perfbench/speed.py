"""Machine-speed sampling, so that times can be reported at a fixed speed.

On a shared host the same iteration of a workload can take half as long
again from one minute to the next, because other tenants load the same
cores; no statistic over a 30-second run removes that.  So while a workload
runs, a timer signal interrupts it every ``SAMPLE_INTERVAL_S`` to time one
short, fixed chunk of pure-Python work (``chunk``) that touches nothing of
the package.  The mean chunk time over an iteration says how fast this
process's core ran during it, and ``run.py`` scales the iteration's times by
``REFERENCE_CHUNK_S / mean``: seconds at the reference speed.  The chunk
runs with the collector off and touches a small table of its own, so a
workload whose heap grows slows the workload, not the chunk.  Only timer
samples count for a run: back-to-back chunks run at another speed than
chunks that interrupt the workload, so mixing the two would tie the scale
to the iteration's length.

The handler runs in the main thread between bytecodes, on top of whatever
stack the workload has, and adds three frames to it; the deep queries stay
hundreds of frames away from the recursion limit (see ``workloads.py``).
It costs about 1.5% of the run.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter

SAMPLE_INTERVAL_S = 0.05
SETUP_CHUNKS = 20
# An operation is scaled by the samples within its own span, widened to
# LOCAL_WINDOW_S about its middle when it is shorter: the speed changes from
# one second to the next, so the iteration's mean misjudges short operations.
LOCAL_WINDOW_S = 1.0
MIN_LOCAL_SAMPLES = 5
REFERENCE_CHUNK_S = 0.0007
_P = 2147483647


def chunk() -> int:
    """Fixed work: integer keys, dict updates and modular powers."""
    table: dict[int, int] = {}
    for i in range(1000):
        key = (i * 7) % 31 * 100 + i % 13
        table[key] = table.get(key, 0) + pow(i + 3, 5, _P)
    return len(table)


def timed_chunk() -> float:
    """One chunk's time, with the collector off so heap size cannot matter."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        chunk()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def setup_chunk() -> float:
    """Mean time of back-to-back chunks, the speed sample for set-up, which
    is too short for the timer."""
    return sum(timed_chunk() for _ in range(SETUP_CHUNKS)) / SETUP_CHUNKS


class Sampler:
    """Times one chunk on every timer signal while the ``with`` block runs."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (when, chunk seconds)

    def _on_alarm(self, signum, frame):
        when = perf_counter()
        self.samples.append((when, timed_chunk()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mean(self, fallback: float) -> float:
        """Mean sampled chunk time; ``fallback`` if the run was too short
        for a single sample."""
        if not self.samples:
            return fallback
        return sum(d for _, d in self.samples) / len(self.samples)

    def local(self, start: float, seconds: float, fallback: float) -> float:
        """Mean chunk time around one operation; ``fallback`` with fewer
        than MIN_LOCAL_SAMPLES samples there."""
        half = max(seconds, LOCAL_WINDOW_S) / 2
        middle = start + seconds / 2
        near = [d for when, d in self.samples if abs(when - middle) <= half]
        return sum(near) / len(near) if len(near) >= MIN_LOCAL_SAMPLES else fallback

"""Host speed reference for the benchmark's times.

The machine this benchmark was built on runs on shared hosts, whose speed
moves by a third within minutes, and by a fifth within seconds, as
neighbours come and go. A short fixed loop of interpreter and numpy work
slows down by the same share as closroute does when the two alternate every
tenth of a second: over 100 s, closroute's time per window moved from 59 to
91 ms while its ratio to this loop stayed within 8.08-8.29. The loop run at
the edges of a long operation does not track it, because the speed changes
within the operation.

So the benchmark probes the speed with this loop about every PROBE_EVERY_S
during the measured work, between calls into the program (see
spans.Tracer), takes the probes' own time out of the measured time, and
reports every time rescaled to the speed at which one pass takes
REFERENCE_S:

    reported = measured * REFERENCE_S / median(probes around the measurement)

An operation's time uses the probes taken while it ran (Speed); a single
call's time uses the four probes nearest to it (rescale_calls).

The loop touches nothing in closroute, so a change to the program cannot
move it.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

REFERENCE_S = 0.002
PROBE_EVERY_S = 0.1
_VALUES = np.arange(2000, dtype=np.int64)


def _work() -> int:
    counts: dict = {}
    for i in range(4000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + i
    ranked = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    peak = 0
    for _ in range(10):
        peak += int(np.bincount(_VALUES % 64, minlength=64).max())
    return len(ranked) + peak


def probe_s() -> float:
    """Seconds for one pass of the reference loop. The garbage collector is
    held off, so the loop does not pay for collecting the caller's objects."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def calibration_s(passes: int = 5) -> float:
    """Median of a few probes, for spans of work with no probe of their own."""
    return statistics.median(probe_s() for _ in range(passes))


class Speed:
    """Rescales operation times to the reference speed, per stretch of work.

    Callers report operation times with ``add`` and call ``boundary`` between
    operations. A stretch closes once it is SEGMENT_S long, or when forced,
    and its times are multiplied by REFERENCE_S / the median of the probes
    taken during it.
    """

    SEGMENT_S = 0.25

    def __init__(self, probes: list[float]):
        self.probes = probes
        self.factors: list[float] = []
        self._open()

    def _open(self):
        self.opened = time.perf_counter()
        self.probe_mark = len(self.probes)
        self.pending: list[tuple] = []

    def add(self, sink, seconds: float):
        """Add ``seconds``, rescaled, to ``sink.wall_s`` when the stretch closes."""
        self.pending.append((sink, seconds))

    def boundary(self, force: bool = False):
        if not force and time.perf_counter() - self.opened < self.SEGMENT_S:
            return
        probes = self.probes[self.probe_mark:]
        factor = REFERENCE_S / (statistics.median(probes) if probes else calibration_s())
        for sink, seconds in self.pending:
            sink.wall_s += seconds * factor
        self.factors.append(factor)
        self._open()


def rescale_calls(times: list[float], probe_index: list[int], probes: list[float]) -> list[float]:
    """Rescale per-call times by the probes nearest each call: the two taken
    before it and the two after it, so within about 0.2 s."""
    if not probes:
        return list(times)
    return [
        t * REFERENCE_S / statistics.median(probes[max(0, i - 2): i + 2] or probes[-2:])
        for t, i in zip(times, probe_index)
    ]

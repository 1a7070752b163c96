"""Host speed, sampled while timed work runs.

The shared 2-vCPU host this benchmark was tuned on changes speed by
itself: with nothing else running in the machine, a fixed pure-Python
loop, and every workload with it, runs up to about 40% slower for a
minute or two at a time.  The raw times of ten runs of the same code
spread by a quarter of their median, as wide as the widest bound a
regression gate may use.

``Sampler`` measures that speed while the work runs.  A ``SIGALRM``
timer interrupts the work every ``INTERVAL_S`` seconds and times a fixed
loop of ``PROBE_LOOPS`` iterations.  ``corrected`` turns a measured time
into the time the same work takes at the reference speed, at which the
loop takes ``REFERENCE_S``:

    corrected = (measured - time spent in probes) * REFERENCE_S * mean(1 / probe)

The mean of 1/probe is the mean speed over the interval, since the
samples are about evenly spaced in time.  The probes run in the thread of
the work, between two of its bytecodes, so they see the speed it sees; a
long C call (a numpy operation) delays the next probe until it returns.
A change that slows the interpreter itself (a trace hook left installed,
say) slows the probe too and is partly hidden; a change that makes the
work itself bigger or smaller is not.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.1
PROBE_LOOPS = 10_000
#: About the probe's duration on the reference machine (2-vCPU Xeon at
#: 2.1 GHz) in its fast spells, when its medians read 0.79-0.85 ms; in
#: slow spells they read 0.9-1.0 ms.  A corrected time is the time the
#: work takes when the probe takes exactly this long.
REFERENCE_S = 0.00082


class Sampler:
    """``with Sampler() as speed:`` samples the speed until the block ends."""

    def __init__(self):
        #: (perf_counter at the probe's start, its duration) of every probe.
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        x = 0
        for i in range(PROBE_LOOPS):
            x += i * i % 7
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def corrected(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` (wall or CPU time) of work done between the
        ``perf_counter`` readings ``start`` and ``end``, at the reference
        speed of the probes taken in that interval."""
        inside = [d for t, d in self.samples if start <= t < end]
        if not inside:
            raise ValueError(f"no speed sample in {end - start:.3f} s; the work is too short to correct")
        return (seconds - sum(inside)) * REFERENCE_S * statistics.fmean(1.0 / d for d in inside)

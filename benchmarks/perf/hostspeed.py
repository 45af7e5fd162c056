"""Normalised CPU time: CPU time corrected for how fast the host runs now.

On a shared host the cores slow down as other tenants load them, up to
threefold and for anything from milliseconds to minutes, and a process's
CPU time slows with them.  :class:`HostSpeed` measures that slowdown
inside the measured work: while ``sampling()`` is active, a CPU-time
timer (``ITIMER_PROF``) interrupts the work every ``PERIOD_S`` and runs
a short probe.  The probe drives a miniature set-associative LRU cache
(a dict per set; each access a method call that misses, evicts the
set's oldest line and inserts the new one), the kind of work the
simulator's hot loop does.  It is the benchmark's own code, so a change
to the program leaves it alone.  Of the probes tried, this one tracked
the simulator's slowdowns best: over four passes of one process whose
raw CPU time varied by 22%, normalised pass times varied by 2.7%.  A
pure arithmetic loop, probes between operations instead of during
them, and the same cache with random lines and hits all did worse.

The normalised time of some work is its CPU time, less the probes',
times the mean of ``REF_S / t`` over the probe times ``t`` sampled
during it (the nearest ``MIN_SAMPLES`` when fewer fell inside).  On a
host where the probe takes ``REF_S``, normalised time is CPU time.

Clocks: ``time.thread_time``.  An armed ``ITIMER_PROF`` makes the
process-wide CPU clock advance in scheduler ticks (4 ms on a 250 Hz
kernel); the thread clock stays exact.  The measured work runs on the
main thread.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

#: The probe's cache: 16384 sets of 8 ways.  Its lines come from a
#: full-period congruential sequence over twice as many lines as it
#: holds, so each set sees 16 lines in a fixed cycle and every access
#: misses once the cache is full.
SETS = 1 << 14
WAYS = 8
LINES = 1 << 18

#: Accesses per probe: about 1 ms on an idle core.
TOUCHES = 2500

#: CPU time between two probes; the probes cost about 4% of it.
PERIOD_S = 0.025

#: Fewest probe samples one normalisation uses.
MIN_SAMPLES = 8

#: Roughly the probe's time on the reference host (2 vCPUs of an Intel
#: Xeon, Python 3.11) in its quietest periods, when it took 1.0-1.3 ms.
#: It only turns probe units into seconds: any fixed value would rank two
#: commits the same way.
REF_S = 1.0e-3


class _Cache:
    """The probe's miniature cache."""

    def __init__(self) -> None:
        self.sets: list[dict[int, int]] = [{} for _ in range(SETS)]

    def access(self, line: int) -> None:
        ways = self.sets[line & (SETS - 1)]
        if ways.pop(line, None) is None and len(ways) >= WAYS:
            ways.pop(next(iter(ways)))
        ways[line] = 0


class HostSpeed:
    """Probe samples of this host's speed, and the CPU clock they correct."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.probe_cpu = 0.0
        self._cache = _Cache()
        self._line = 12345
        self._busy = False
        # Fill the cache: from then on, every access misses.
        for _ in range(SETS * WAYS // TOUCHES + 1):
            self._probe()
        self.samples.clear()

    def _probe(self, *_signal_args) -> None:
        if self._busy:  # a timer signal during a probe
            return
        self._busy = True
        t0 = time.thread_time()
        access, line = self._cache.access, self._line
        for _ in range(TOUCHES):
            line = (line * 1103515245 + 12345) & (LINES - 1)
            access(line)
        self._line = line
        elapsed = time.thread_time() - t0
        self.samples.append(elapsed)
        self.probe_cpu += elapsed
        self._busy = False

    def work_time(self) -> float:
        """CPU seconds of this thread, less the time spent in probes."""
        return time.thread_time() - self.probe_cpu

    def probe(self, n: int) -> None:
        """Run the probe ``n`` times now."""
        for _ in range(n):
            self._probe()

    @contextmanager
    def sampling(self):
        """Probe every ``PERIOD_S`` of CPU time while the block runs."""
        previous = signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)

    def factor(self, lo: int, hi: int) -> float:
        """Normalised seconds per CPU second of the work that ran while
        ``samples[lo:hi]`` were taken, widened on both sides to the
        nearest ``MIN_SAMPLES`` samples when fewer fell inside."""
        if len(self.samples) < MIN_SAMPLES:  # work too short to be sampled
            self.probe(MIN_SAMPLES - len(self.samples))
        n = len(self.samples)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < n):
            lo, hi = max(0, lo - 1), min(n, hi + 1)
        return statistics.fmean(REF_S / t for t in self.samples[lo:hi])

"""Machine pace: how much slower than quiet the machine runs right now.

On a shared machine other tenants slow a Python process by up to half,
in phases that last seconds to minutes, and wall times of the same
operation spread by 20-40 % between its quartiles.  polymap is pure
Python, and pure-Python work slows alike, so a fixed reference kernel
timed before, during and after an operation measures the slowdown that
operation met; dividing it out leaves a time that spreads far less.

During the operation the kernel runs from a SIGALRM handler in the main
thread (no extra threads) every INTERVAL seconds; the time spent in the
handler is recorded so that it can be taken out of the operation's
time and out of any span that covers it.
"""

from __future__ import annotations

import gc
import signal
import time
from collections import deque
from contextlib import contextmanager

# Time of Reference().run() on an idle core of the machine the bounds
# were set on (2 cores, x86-64, Python 3.11.7); see README.md.  Scaled
# times are wall times at that speed.
REF_QUIET_S = 0.0039
INTERVAL = 0.2


class Reference:
    """The fixed kernel: breadth-first search of a 100x100 torus grid held
    in a dict, with a set and a deque, as polymap's searches are.  The grid
    is built once, so timing the kernel adds only the search's small set
    and queue to the process's memory."""

    def __init__(self):
        n = 100
        self.adj = {(i, j): [((i + 1) % n, j), ((i - 1) % n, j),
                             (i, (j + 1) % n), (i, (j - 1) % n)]
                    for i in range(n) for j in range(n)}

    def run(self):
        adj = self.adj
        seen = {(0, 0)}
        queue = deque([(0, 0)])
        while queue:
            for w in adj[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen)


class Pace:
    """Kernel timings around and inside one measured piece of work."""

    def __init__(self, reference):
        self.reference = reference
        self.samples = []
        self.inside = []  # (start, end) of each handler run inside the work
        self._busy = False

    def _sample(self):
        was_enabled = gc.isenabled()
        gc.disable()  # collect none of the measured work's garbage here
        # The first run brings the grid back into cache, so the timed run
        # does not depend on how much of it the measured work evicted.
        self.reference.run()
        start = time.perf_counter()
        self.reference.run()
        self.samples.append(time.perf_counter() - start)
        if was_enabled:
            gc.enable()

    def _on_alarm(self, signum, frame):
        # If the process was held off the CPU for longer than INTERVAL the
        # next alarm arrives inside this handler; skip it, or its time
        # would be counted twice.
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        self._sample()
        self.inside.append((start, time.perf_counter()))
        self._busy = False

    @contextmanager
    def measure(self):
        """Time the body; afterwards ``seconds`` is its wall time without
        the handler runs and ``scaled`` that time at reference speed."""
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        start = time.perf_counter()
        try:
            yield self
        finally:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.seconds = end - start - self.hidden(start, end)
            self._sample()
            self.factor = REF_QUIET_S * len(self.samples) / sum(self.samples)
            self.scaled = self.seconds * self.factor

    def hidden(self, start, end):
        """Handler time that falls inside [start, end]."""
        return sum(max(0.0, min(end, b) - max(start, a)) for a, b in self.inside)

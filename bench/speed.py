"""The machine's current speed, read off a fixed reference computation.

On a shared host the whole machine slows down, by up to a factor of two, for
spells of seconds to minutes. The process's CPU time slows with it, so neither
wall nor CPU time of a query is steady between runs. The ratio of a query's
time to that of a fixed pure-Python computation timed around it is: over a
minute of such spells, the two times spread by 40 % each and their ratio by
6 %.

So while a `Speed` is entered, a timer signal times `reference()` every
`INTERVAL_S`, in the middle of a query too, and `scaled()` turns an interval
of this machine's time into reference-speed time: the time the same work
takes on a machine where `reference()` takes `NOMINAL_MS`. Each stretch of
the interval between two readings is scaled by the mean of those two, and
the readings' own time is left out. The reference uses only the standard
library and never the program, so a change to the program cannot move it.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

# reference() on one vCPU of an Intel Xeon at 2.0 GHz, Python 3.11, in the
# host's fast spells; a scaled time reads as the time taken in such a spell
NOMINAL_MS = 1.0
INTERVAL_S = 0.25
REPEATS = 3  # one reading is the least of this many reference() calls in a row

# a fixed weighted graph: 40 nodes, each with edges to three others
_EDGES = [(u, (u * 7 + d) % 40, (u * 13 + d * 5) % 11 - 3) for u in range(40) for d in (1, 2, 3)]


def reference():
    """The graph relaxation, dict and Fraction work the decision pipeline is made of."""
    least = []
    for source in (0, 13, 26):
        dist = {source: 0}
        for _ in range(6):
            for u, v, w in _EDGES:
                if u in dist and (v not in dist or dist[u] + w < dist[v]):
                    dist[v] = dist[u] + w
        least.append(min((Fraction(dist.get(u, 0) - dist.get(v, 0) + w, 1 + u % 5), u) for u, v, w in _EDGES))
    return least


class Speed:
    """Readings of `reference()`, on entry, every `INTERVAL_S` while entered, and on exit.

    Times to scale are `time.perf_counter_ns()` values taken while entered.
    """

    def __init__(self):
        self.starts: list[int] = []  # ns, ascending
        self.ends: list[int] = []
        self.values: list[int] = []  # each reading's time, ns
        self._reading = False
        self._previous = None

    def __enter__(self) -> "Speed":
        self.read()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.read()

    def _tick(self, signum, frame) -> None:
        if not self._reading:  # a signal arriving during a reading is dropped
            self.read()

    def read(self) -> None:
        self._reading = True
        try:
            start = time.perf_counter_ns()
            best = None
            for _ in range(REPEATS):
                t = time.perf_counter_ns()
                reference()
                ns = time.perf_counter_ns() - t
                best = ns if best is None else min(best, ns)
            self.starts.append(start)
            self.ends.append(time.perf_counter_ns())
            self.values.append(best)
        finally:
            self._reading = False

    def scaled(self, start: int, end: int) -> float:
        """Reference-speed ns of the work done from `start` to `end`, readings excluded.

        Call after exit, so that a reading follows every interval.
        """
        first = bisect.bisect_left(self.starts, start)  # the first reading inside or after
        last = bisect.bisect_right(self.ends, end)  # one past the last reading inside
        cuts = [start]
        for i in range(first, last):
            cuts += [self.starts[i], self.ends[i]]
        cuts.append(end)
        values = self.values[first - 1 : last + 1]
        total = 0.0
        for j in range(len(values) - 1):
            total += (cuts[2 * j + 1] - cuts[2 * j]) * 2 / (values[j] + values[j + 1])
        return total * NOMINAL_MS * 1e6

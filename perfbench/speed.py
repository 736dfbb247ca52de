"""The machine's current speed, from a fixed reference kernel.

On a shared host the same pure-Python code runs up to 60% slower in
spells that last from seconds to minutes, longer than a run. Raw op
times therefore spread more from run to run than the bounds allow. The
benchmark runs a fixed reference kernel every `EVERY_S` seconds, between
ops and outside their timed region, and scales each op's time by
`REF_S` over the kernel's time around the op: the op's time at the speed
the machine has when the kernel takes `REF_S` seconds.

The kernel is a greedy dominating set on a fixed random graph, written
here with sets and dicts as domset's Python code is, so that slow spells
slow both alike. It lives in the benchmark and uses nothing from domset:
a change to the program cannot change it.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

REF_S = 0.015    # nominal kernel time; scaled times are seconds at this speed
EVERY_S = 0.25   # at most this much op time between two kernel runs
SIDE = 2         # an op's speed is from this many kernel runs on each side of it


def _kernel_graph(n: int = 300, seed: int = 12345) -> list[frozenset]:
    rng = random.Random(seed)
    adj = [set() for _ in range(n)]
    for v in range(1, n):
        u = rng.randrange(v)
        adj[u].add(v)
        adj[v].add(u)
    for _ in range(n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return [frozenset(a | {v}) for v, a in enumerate(adj)]


CLOSED = _kernel_graph()
PICKS = 82  # what the kernel returns; anything else means it is broken


def kernel() -> int:
    """Greedy dominating set of the fixed graph; returns its size."""
    undominated = set(range(len(CLOSED)))
    picks = []
    while undominated:
        best = max(range(len(CLOSED)), key=lambda v: (len(CLOSED[v] & undominated), -v))
        picks.append(best)
        undominated -= CLOSED[best]
    return len(picks)


class Speed:
    """Kernel timings of one run, and the scale they give op times."""

    def __init__(self):
        self.ends: list[float] = []      # perf_counter at the end of each kernel run
        self.samples: list[float] = []   # seconds each kernel run took

    def sample(self) -> None:
        start = time.perf_counter()
        picks = kernel()
        end = time.perf_counter()
        if picks != PICKS:
            raise RuntimeError(f"reference kernel returned {picks}, not {PICKS}")
        self.ends.append(end)
        self.samples.append(end - start)

    def due(self) -> None:
        """Run the kernel if `EVERY_S` has passed since its last run."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor from measured to nominal-speed seconds for what ran from
        `start` to `end` (perf_counter): from the median of the `SIDE`
        kernel runs before it and the `SIDE` after it."""
        before = bisect.bisect_right(self.ends, start)
        after = bisect.bisect_right(self.ends, end)
        near = self.samples[max(0, before - SIDE):before] + self.samples[after:after + SIDE]
        return REF_S / statistics.median(near)

"""A fixed piece of pure-Python work that gauges the machine's current speed.

On a machine that is a share of a bigger host, such as a 2-vCPU cloud
instance, how fast plain Python runs can change by up to 2x from one
second to the next and drift over minutes.  ``reference()`` does the same work on every call, of the
kinds the program does: 64-bit mixing on Python ints, bitmask clique tests
on adjacency rows, list and dict work and Fraction arithmetic.  It uses
nothing from the program, so a change to the program never changes it.

The benchmark takes a gauge (``CALLS`` timed calls of ``reference()``)
right before and right after each timed find or stretch of set-up, and
divides its wall time by the slowdown they show: the median call over
nominal.  That gives its seconds at the speed at which one call of
``reference()`` takes ``NOMINAL_S``.  The median keeps one call that was
hit by a pause from deciding the scale.  A program change moves the
find's time and not the reference, so it shows in full; a slow spell of
the machine moves both.
"""

from __future__ import annotations

from fractions import Fraction
from statistics import median
from time import perf_counter

MASK64 = (1 << 64) - 1
N = 128          # vertices of the fixed graph
DRAWS = 800      # random 4-tuples tested for being cliques
CALLS = 3        # calls of reference() in one gauge
NOMINAL_S = 0.025  # typical seconds of one reference(): Xeon 2.1 GHz, Python 3.11


def _mix(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, z ^ (z >> 31)


def reference() -> int:
    """The same work on every call; returns a checksum of it."""
    state = 12345
    adj = [0] * N
    for u in range(N):
        for v in range(u + 1, N):
            state, z = _mix(state)
            if z & 3:             # edge with probability 3/4
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    found = 0
    seen: dict[int, int] = {}
    total = Fraction(0)
    for _ in range(DRAWS):
        state, z = _mix(state)
        v = z % N
        nbrs = [u for u in range(N) if (adj[v] >> u) & 1]
        picked = []
        for _ in range(3):
            state, z = _mix(state)
            picked.append(nbrs[z % len(nbrs)])
        common = adj[v]
        for u in picked:
            common &= adj[u]
        if len(set(picked)) == 3 and all((adj[a] >> b) & 1 for a in picked
                                         for b in picked if a != b):
            found += 1
            key = v | (min(picked) << 8)
            seen[key] = seen.get(key, 0) + common.bit_count()
            total += Fraction(common.bit_count(), len(nbrs))
    return found + len(seen) + total.numerator % 1000


def gauge() -> list[float]:
    """Wall seconds of each of ``CALLS`` calls of ``reference``."""
    times = []
    for _ in range(CALLS):
        t = perf_counter()
        reference()
        times.append(perf_counter() - t)
    return times


class Gauges:
    """A chain of gauges, each closing the stretch of work since the last."""

    def __init__(self):
        self.last = gauge()

    def lap(self, wall: float) -> tuple[float, float]:
        """Gauge now; returns (slowdown, `wall` at nominal speed) for the
        `wall` seconds of work done since the last gauge."""
        before, self.last = self.last, gauge()
        slow = median(before + self.last) / NOMINAL_S
        return slow, wall / slow

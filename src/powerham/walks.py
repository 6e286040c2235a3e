"""Exact walk counting and the layered reachability threshold schedule.

``count_walks`` tabulates, for a fixed source x, the number of (x,v)-walks
with i inner vertices for every v and every i up to a cap.  A walk with i
inner vertices has edge-length i+1, so the table row i equals the x-row of
the (i+1)-st adjacency-matrix power; the implementation iterates
vector-adjacency products in exact integer arithmetic since the entries
grow like n^i and overflow any fixed width almost immediately.

``delta_schedule`` evaluates the companion threshold sequence exactly: for
a separation parameter mu it sets L = floor(8/mu) and

    delta_i = (mu^2 / 3)^i * (1/2)^(i(i+1)/2),      i = 0..L
    c       = (mu^2 / 48) * delta_{floor(4/mu)}^2

as Fractions.  In the connecting argument a vertex v joins layer i when
its walk count reaches delta_i * n^i; in graphs that cannot be split
cheaply these layers swallow most of the graph within a bounded number of
levels, which is what makes a bounded-length connection between any two
vertices plausible.  The
threshold comparisons cross-multiply (count * denominator >= numerator *
n^i) so no rounding ever enters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor

from powerham.errors import InputError
from powerham.graph import Graph, iter_bits

WALK_LEVEL_CAP = 64


@dataclass(frozen=True)
class WalkCountTable:
    source: int
    n: int
    counts: tuple[tuple[int, ...], ...]  # counts[i][v], i = inner vertices

    def count(self, v: int, inner: int) -> int:
        return self.counts[inner][v]


@dataclass(frozen=True)
class DeltaSchedule:
    mu: Fraction
    L: int
    delta: tuple[Fraction, ...]  # delta[0..L]
    c: Fraction


def count_walks(g: Graph, x: int, l_max: int) -> WalkCountTable:
    """Exact (x,v)-walk counts for every inner-vertex count up to l_max."""
    if not 0 <= x < g.n:
        raise InputError("source out of range")
    if not 0 <= l_max <= WALK_LEVEL_CAP:
        raise InputError(f"l_max must be in [0, {WALK_LEVEL_CAP}]")
    adj = g.adj
    vec = [adj[x] >> v & 1 for v in range(g.n)]  # 0 inner vertices: an edge
    rows = [tuple(vec)]
    for _ in range(l_max):
        vec = [sum(vec[w] for w in iter_bits(adj[u])) for u in range(g.n)]
        rows.append(tuple(vec))
    return WalkCountTable(x, g.n, tuple(rows))


def delta_schedule(mu: Fraction) -> DeltaSchedule:
    mu = Fraction(mu)
    if not 0 < mu <= 1:
        raise InputError("mu must be in (0, 1]")
    L = floor(8 / mu)
    base = mu * mu / 3
    deltas = []
    for i in range(L + 1):
        deltas.append(base ** i * Fraction(1, 2 ** (i * (i + 1) // 2)))
    c = (mu * mu / 48) * deltas[floor(4 / mu)] ** 2
    return DeltaSchedule(mu, L, tuple(deltas), c)

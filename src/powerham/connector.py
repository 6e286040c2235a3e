"""Short k-paths between two prescribed ordered cliques.

The construction is an exact search over end-tuple states: a partial path
is summarized by its last k vertices, a new vertex must land in the AND of
their adjacency rows, and iterative deepening on the inner-vertex count
finds a shortest connection first (the depth-limited DFS explores exactly
the breadth-first skeleton, but keeps on-path disjointness exact).
Docking is exact by construction: a level whose fixed (x_end, y_end) pairs
within distance k are not all edges is refuted before any node is spent,
and every inner vertex must see the prefix of the target it lies within k
of, so every leaf the search reaches docks.  Ties break by a vertex order
shuffled from the request seed when the first search with an inner vertex
starts, so a call that docks with none (common at k = 1) never draws it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from powerham.errors import InputError
from powerham.graph import Graph, is_clique, iter_bits, mask_of
from powerham.pathcover import KPath
from powerham.rng import SplitMix64


@dataclass(frozen=True)
class ConnectRequest:
    x_end: tuple[int, ...]
    y_end: tuple[int, ...]
    k: int
    max_inner: int
    allowed_inner: Optional[int] = None   # vertex mask; None = anywhere
    prefer_inner: int = 0                 # vertex mask, tried first
    seed: int = 0
    node_budget: Optional[int] = None     # None = exhaustive
    min_inner: int = 0                    # skip connections shorter than this

    def _validate(self, g: Graph) -> None:
        if self.k < 1 or len(self.x_end) != self.k or len(self.y_end) != self.k:
            raise InputError("ends must be ordered k-tuples")
        xm, ym = mask_of(self.x_end), mask_of(self.y_end)
        if xm & ym:
            raise InputError("ends must be disjoint")
        if not is_clique(g, self.x_end) or not is_clique(g, self.y_end):
            raise InputError("ends must span cliques")
        if self.max_inner < 0:
            raise InputError("max_inner must be >= 0")
        if not 0 <= self.min_inner <= self.max_inner:
            raise InputError("min_inner must lie in [0, max_inner]")


class _Budget:
    __slots__ = ("left",)

    def __init__(self, limit):
        self.left = limit

    def spend(self) -> bool:
        if self.left is None:
            return True
        if self.left <= 0:
            return False
        self.left -= 1
        return True


def _search(g: Graph, req: ConnectRequest, m: int, budget: _Budget,
            priority: list[int], pool: int, dock: list[int]
            ) -> Optional[tuple[int, ...]]:
    """DFS for a connection with exactly m inner vertices.

    Returns a vertex tuple; None when the space is exhausted, and raises
    nothing on budget exhaustion -- the caller treats a dead budget as a
    miss.  An empty ``priority`` (vertex -> tie-break rank) is filled, in
    O(n), if m > 0 and the level is not refuted up front.  ``pool`` and
    ``dock`` come from ``_masks``; neither depends on m.
    """
    k = req.k
    adj = g.adj
    # x_end[t] and y_end[i] lie within distance k iff t >= m + i; no inner
    # vertex changes these pairs, so one non-edge refutes the whole level
    if any(not adj[req.y_end[i]] >> req.x_end[t] & 1
           for i in range(k - m) for t in range(m + i, k)):
        return None
    if m and not priority:   # rank of each vertex in the seeded shuffle
        priority.extend(range(g.n))
        SplitMix64(req.seed).shuffle(priority)
        for rank, v in enumerate(priority[:]):
            priority[v] = rank
    seq = list(req.x_end)

    def rec(depth: int, used: int) -> Optional[tuple[int, ...]]:
        if depth == m:
            return tuple(seq) + tuple(req.y_end)
        if not budget.spend():
            return None
        win = pool & ~used
        for v in seq[-k:]:
            win &= adj[v]
        # inner vertices close to the dock must already see its prefix
        j = depth + 1 + k - m
        if j >= 1:
            win &= dock[min(j, k)]
        cands = sorted(iter_bits(win),
                       key=lambda v: (not req.prefer_inner >> v & 1, priority[v]))
        for v in cands:
            seq.append(v)
            got = rec(depth + 1, used | 1 << v)
            seq.pop()
            if got is not None:
                return got
        return None

    return rec(0, 0)


def _masks(g: Graph, req: ConnectRequest) -> tuple[int, list[int]]:
    """(pool, dock) for ``_search``: the vertices an inner vertex may take,
    and dock[j] = the AND of the first j target rows (dock[0] = V)."""
    pool = g.full_mask() & ~(mask_of(req.x_end) | mask_of(req.y_end))
    if req.allowed_inner is not None:
        pool &= req.allowed_inner
    dock = [g.full_mask()]
    for y in req.y_end:
        dock.append(dock[-1] & g.adj[y])
    return pool, dock


def connect(g: Graph, req: ConnectRequest) -> Optional[KPath]:
    """Shortest-inner-count connection between the two ordered ends; ties
    break by a ``req.seed`` shuffle drawn once a search needs inner vertices."""
    req._validate(g)
    priority: list[int] = []
    budget = _Budget(req.node_budget)
    pool, dock = _masks(g, req)
    for m in range(req.min_inner, req.max_inner + 1):
        got = _search(g, req, m, budget, priority, pool, dock)
        if got is not None:
            return KPath(req.k, got)
        if budget.left is not None and budget.left <= 0:
            return None
    return None


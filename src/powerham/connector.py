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
shuffled from the request seed once a node has two candidates, so a call
whose nodes never have a choice (common at k = 1) never draws it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Optional

from powerham.errors import InputError
from powerham.graph import (Graph, common_neighborhood_mask, is_clique,
                            mask_of, verts_of)
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


@dataclass
class _Budget:
    left: Optional[int]   # DFS nodes left; None = unbounded


def _search(g: Graph, req: ConnectRequest, m: int, budget: _Budget,
            priority: list[int], pool: int, dock: list[int]
            ) -> Optional[tuple[int, ...]]:
    """DFS for a connection with exactly m inner vertices.

    Returns a vertex tuple, or None once the space or the budget is spent.
    The budget counts nodes, prefixes with fewer than m inner vertices:
    one unit of ``budget.left`` each, written back once.  Candidates go
    ``prefer_inner`` first, then by ``priority`` (vertex -> shuffle rank),
    filled in O(n) if empty at the first node with two candidates.
    """
    k, adj, y_end = req.k, g.adj, req.y_end
    # x_end[t] and y_end[i] lie within distance k iff t >= m + i; no inner
    # vertex changes these pairs, so one non-edge refutes the whole level
    if any(not adj[y_end[i]] >> req.x_end[t] & 1
           for i in range(k - m) for t in range(m + i, k)):
        return None
    if not m:
        return (*req.x_end, *y_end)
    left = inf if budget.left is None else budget.left - 1   # pay for the root
    if left < 0:
        return None
    seq = list(req.x_end) + [0] * m
    # inner vertex i (from 1) must see y_end[:i + k - m] (dock[0] = V)
    docks = [dock[min(max(i + k - m, 0), k)] for i in range(m + 1)]
    table: list[int] = []   # vertex -> sort key, built on first use

    def rank() -> None:
        if not priority:
            priority.extend(range(g.n))
            SplitMix64(req.seed).shuffle(priority)
            for r, v in enumerate(priority[:]):
                priority[v] = r
        table.extend(priority)
        for v in verts_of(req.prefer_inner & pool):
            table[v] -= g.n

    def rec(i: int, free: int, win: int) -> Optional[tuple[int, ...]]:
        # a paid node, candidates win != 0; a child with none is not entered
        nonlocal left
        cands = []
        while win:
            low = win & -win
            cands.append(low.bit_length() - 1)
            win ^= low
        if len(cands) > 1:
            if not table:
                rank()
            if i == m:   # the first candidate's child is the answer
                return (*seq[:-1], min(cands, key=table.__getitem__), *y_end)
            cands.sort(key=table.__getitem__)
        elif i == m:
            return (*seq[:-1], cands[0], *y_end)
        common = free & docks[i + 1]
        for u in seq[i:k + i - 1]:
            common &= adj[u]
        for v in cands:
            if left <= 0:
                return None
            left -= 1
            seq[k + i - 1] = v
            win = common & adj[v]
            if win and (got := rec(i + 1, free ^ 1 << v, win)):
                return got
        return None

    win = pool & docks[1] & common_neighborhood_mask(g, req.x_end)
    got = rec(1, pool, win) if win else None
    del rec   # rec's closure holds rec: free the cycle now, not at a GC pass
    budget.left = None if left == inf else left
    return got


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
    break by a ``req.seed`` shuffle drawn once a node has two candidates."""
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


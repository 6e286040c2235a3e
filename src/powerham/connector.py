"""Short k-paths between two prescribed ordered cliques.

The construction is an exact search over end-tuple states: a partial path
is summarized by its last k vertices, a new vertex must land in the AND of
their adjacency rows, and iterative deepening on the inner-vertex count
finds a shortest connection first (the depth-limited DFS explores exactly
the breadth-first skeleton, but keeps on-path disjointness exact).
Docking is exact by construction: a level whose fixed (x_end, y_end) pairs
within distance k are not all edges is refuted before any node is spent (so
is a level with more inner vertices than the pool holds), and every inner
vertex must see the prefix of the target it lies within k of, so every leaf
the search reaches docks.  Ties break by ``keys[v]`` alone: the calling
stage draws one table for all its calls and lowers the keys of any vertex
it wants routed first.  A request holds one joint's ends, pool and node
budget and is checked once, when built; each call names its levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from powerham.errors import InputError
from powerham.graph import Graph, common_neighborhood_mask, is_clique, mask_of
from powerham.pathcover import KPath


@dataclass(frozen=True)
class ConnectRequest:
    """Ordered end cliques of ``g``, the inner vertices' mask and one call's
    DFS node budget; InputError when built with empty, unequal or
    overlapping ends, ends that are not cliques, or a negative budget."""
    g: Graph = field(compare=False, repr=False)
    x_end: tuple[int, ...]
    y_end: tuple[int, ...]
    allowed_inner: int   # vertex mask
    node_budget: int     # DFS nodes, shared by the levels of one call

    def __post_init__(self) -> None:
        if not self.x_end or len(self.x_end) != len(self.y_end):
            raise InputError("ends must be non-empty tuples of one length")
        if mask_of(self.x_end) & mask_of(self.y_end):
            raise InputError("ends must be disjoint")
        if not (is_clique(self.g, self.x_end)
                and is_clique(self.g, self.y_end)):
            raise InputError("ends must span cliques")
        if self.node_budget < 0:
            raise InputError("node_budget must be >= 0")


@dataclass
class _Budget:
    left: int   # DFS nodes left


def _search(g: Graph, req: ConnectRequest, m: int, budget: _Budget,
            keys: Sequence[int], pool: int, dock: list[int]
            ) -> Optional[tuple[int, ...]]:
    """DFS for a connection with exactly m inner vertices.

    Returns a vertex tuple, or None once the space or the budget is spent.
    The budget counts nodes, prefixes with fewer than m inner vertices:
    one unit of ``budget.left`` each, written back once.  Candidates go by
    ascending ``keys[v]``.
    """
    k, adj, y_end = len(req.x_end), g.adj, req.y_end
    # x_end[t] and y_end[i] lie within distance k iff t >= m + i; no inner
    # vertex changes these pairs, so one non-edge refutes the whole level
    if any(not adj[y_end[i]] >> req.x_end[t] & 1
           for i in range(k - m) for t in range(m + i, k)):
        return None
    if m > pool.bit_count():   # too few vertices for m inner ones
        return None
    if not m:
        return (*req.x_end, *y_end)
    left = budget.left - 1   # pay for the root
    if left < 0:
        return None
    seq = list(req.x_end) + [0] * m
    # inner vertex i (from 1) must see y_end[:i + k - m] (dock[0] = V)
    docks = [dock[min(max(i + k - m, 0), k)] for i in range(m + 1)]

    def rec(i: int, free: int, win: int) -> Optional[tuple[int, ...]]:
        # a paid node, candidates win != 0; a child with none is not entered
        nonlocal left
        cands = []
        while win:
            low = win & -win
            cands.append(low.bit_length() - 1)
            win ^= low
        if len(cands) > 1:
            if i == m:   # the first candidate's child is the answer
                return (*seq[:-1], min(cands, key=keys.__getitem__), *y_end)
            cands.sort(key=keys.__getitem__)
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
    budget.left = left
    return got


def _masks(g: Graph, req: ConnectRequest) -> tuple[int, list[int]]:
    """(pool, dock) for ``_search``: the vertices an inner vertex may take,
    and dock[j] = the AND of the first j target rows (dock[0] = V)."""
    pool = (g.full_mask() & req.allowed_inner
            & ~(mask_of(req.x_end) | mask_of(req.y_end)))
    dock = [g.full_mask()]
    for y in req.y_end:
        dock.append(dock[-1] & g.adj[y])
    return pool, dock


def connect(req: ConnectRequest, keys: Sequence[int], min_inner: int,
            max_inner: int) -> Optional[KPath]:
    """Shortest connection between the request's ends with min_inner to
    max_inner inner vertices, or None; one node budget serves every level.
    Ties break by ascending ``keys[v]``, the calling stage's table."""
    if not 0 <= min_inner <= max_inner:
        raise InputError("levels must satisfy 0 <= min_inner <= max_inner")
    budget = _Budget(req.node_budget)
    pool, dock = _masks(req.g, req)
    for m in range(min_inner, max_inner + 1):
        got = _search(req.g, req, m, budget, keys, pool, dock)
        if got is not None:
            return KPath(len(req.x_end), got)
        if budget.left <= 0:
            return None
    return None

"""Simple undirected graphs on vertices 0..n-1 with bitset adjacency.

Each adjacency row is one Python integer used as a bitmask, so neighborhood
intersection (the hot operation behind clique listing, connection search and
absorber screening) is a single ``&``.  Graphs are immutable; no loops, no
multi-edges.

Conventions used across the package:

* a *vertex set* crosses the API as any iterable of ints, internally as a
  bitmask (helpers ``mask_of`` / ``verts_of`` convert);
* an *ordered clique* is a plain tuple of distinct, pairwise adjacent
  vertices;
* ``list_cliques`` yields each clique once, as an ascending tuple, in
  lexicographic order, so downstream consumers are deterministic;
* pair counts between vertex sets are ORDERED pair counts: ``e(X, Y)`` is
  the number of pairs (x, y) in X x Y with xy an edge.  Overlapping X and Y
  therefore count an edge inside the intersection twice (once per
  direction), and ``e(V, V)`` equals twice the edge count.

The text format is line-based: a header ``p <n> <m>`` followed by ``m``
lines ``e <u> <v>`` with 0-indexed endpoints, ``#`` lines are comments.
Writing is canonical (edges ascending, u < v), so parse/write round-trips
are byte-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from powerham.errors import InputError

# the largest graph any input may declare; checked before rows are allocated
MAX_VERTICES = 1 << 16


def mask_of(verts: Iterable[int]) -> int:
    m = 0
    for v in verts:
        m |= 1 << v
    return m


def verts_of(mask: int) -> tuple[int, ...]:
    """Ascending tuple of the vertices in a bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise InputError("graphs need at least one vertex")
        if len(self.adj) != self.n:
            raise InputError("adjacency row count differs from n")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise InputError(f"adjacency row {v} mentions vertices >= n")
            if row >> v & 1:
                raise InputError(f"loop at vertex {v}")
        for v in range(self.n):
            for u in iter_bits(self.adj[v]):
                if not self.adj[u] >> v & 1:
                    raise InputError(f"edge {v}-{u} is not symmetric")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise InputError(f"loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, tuple(rows))

    @staticmethod
    def complete(n: int) -> "Graph":
        full = (1 << n) - 1
        return Graph(n, tuple(full ^ (1 << v) for v in range(n)))

    @staticmethod
    def edgeless(n: int) -> "Graph":
        return Graph(n, (0,) * n)

    @staticmethod
    def cycle(n: int) -> "Graph":
        if n < 3:
            raise InputError("cycles need n >= 3")
        return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def induced(self, keep: Iterable[int]) -> "Graph":
        """Induced subgraph on `keep`, relabeled to 0..|keep|-1 ascending."""
        kept = sorted(set(keep))
        pos = {v: i for i, v in enumerate(kept)}
        rows = [0] * len(kept)
        for v in kept:
            for u in iter_bits(self.adj[v]):
                if u in pos:
                    rows[pos[v]] |= 1 << pos[u]
        return Graph(len(kept), tuple(rows))


def common_neighborhood_mask(g: Graph, verts: Iterable[int]) -> int:
    """Mask of the vertices adjacent to all of `verts` (V when it is empty)."""
    m = g.full_mask()   # rows carry no loops, so no member of verts survives
    for v in verts:
        m &= g.adj[v]
    return m


def edges_between(g: Graph, xs: Iterable[int], ys: Iterable[int]) -> int:
    """Ordered pair count |{(x, y) in X x Y : xy in E}|; X, Y may overlap."""
    ym = mask_of(ys)
    return sum((g.adj[x] & ym).bit_count() for x in iter_bits(mask_of(xs)))


def is_clique(g: Graph, verts: Iterable[int]) -> bool:
    """True iff the vertices are distinct and pairwise adjacent."""
    vs = tuple(verts)
    if len(set(vs)) != len(vs):
        return False
    for i, v in enumerate(vs):
        for u in vs[i + 1:]:
            if not g.adj[v] >> u & 1:
                return False
    return True


def list_cliques(g: Graph, k: int, within: int | Iterable[int] | None = None
                 ) -> Iterator[tuple[int, ...]]:
    """Yield the k-cliques inside `within` as ascending tuples, lex order.

    `within` is a bitmask or an iterable of vertices; None means all of V.
    k = 0 yields the single empty clique.
    """
    if k < 0:
        raise InputError("clique order must be >= 0")
    if within is None:
        pool = g.full_mask()
    elif isinstance(within, int):
        pool = within & g.full_mask()
    else:
        pool = mask_of(within) & g.full_mask()
    if k == 0:
        yield ()
        return
    adj = g.adj

    # Grow ascending prefixes; cand holds vertices above the last chosen
    # one that are adjacent to the whole prefix.
    def grow(prefix: tuple[int, ...], cand: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == k:
            yield prefix
            return
        m = cand
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            yield from grow(prefix + (v,), cand & adj[v] & ~((low << 1) - 1))

    yield from grow((), pool)


def count_cliques(g: Graph, k: int, within: int | Iterable[int] | None = None
                  ) -> int:
    """Number of unordered k-cliques (exact, arbitrary precision)."""
    if k < 0:
        raise InputError("clique order must be >= 0")
    if k == 0:
        return 1
    if within is None:
        pool = g.full_mask()
    elif isinstance(within, int):
        pool = within & g.full_mask()
    else:
        pool = mask_of(within) & g.full_mask()
    adj = g.adj

    def rec(depth: int, cand: int) -> int:
        if depth == k:
            return 1
        if cand.bit_count() < k - depth:
            return 0
        total = 0
        m = cand
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            total += rec(depth + 1, cand & adj[v] & ~((low << 1) - 1))
        return total

    return rec(0, pool)


def count_ordered_cliques(g: Graph, k: int) -> int:
    """Number of ordered k-tuples of distinct pairwise-adjacent vertices."""
    return count_cliques(g, k) * math.factorial(k)


def to_text(g: Graph) -> str:
    lines = [f"p {g.n} {g.edge_count}"]
    for u in range(g.n):
        row = g.adj[u] >> (u + 1) << (u + 1)
        for v in iter_bits(row):
            lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def _ints(fields: list[str], lineno: int) -> tuple[int, ...]:
    try:
        return tuple(int(f) for f in fields)
    except ValueError:
        raise InputError(f"line {lineno}: not an integer in {fields}")


def check_vertex_count(n: int) -> None:
    """Refuse a vertex count above MAX_VERTICES before anything is built."""
    if n > MAX_VERTICES:
        raise InputError(f"{n} vertices exceed the cap of {MAX_VERTICES}")


def from_text(text: str) -> Graph:
    n = None
    declared = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise InputError(f"line {lineno}: second header")
            if len(parts) != 3:
                raise InputError(f"line {lineno}: header must be 'p <n> <m>'")
            n, declared = _ints(parts[1:], lineno)
            check_vertex_count(n)
        elif parts[0] == "e":
            if n is None:
                raise InputError(f"line {lineno}: edge before header")
            if len(parts) != 3:
                raise InputError(f"line {lineno}: edge must be 'e <u> <v>'")
            edges.append(_ints(parts[1:], lineno))
        else:
            raise InputError(f"line {lineno}: unknown record '{parts[0]}'")
    if n is None:
        raise InputError("missing 'p <n> <m>' header")
    g = Graph.from_edges(n, edges)
    if g.edge_count != declared:
        raise InputError(
            f"header declares {declared} edges, body has {g.edge_count}")
    return g

"""Simple undirected graphs on vertices 0..n-1 with bitset adjacency.

Each adjacency row is one Python integer used as a bitmask, so neighborhood
intersection (the hot operation behind clique listing, connection search and
absorber screening) is a single ``&``.  Graphs are immutable; no loops, no
multi-edges.

Every ``Graph`` validates its rows when built, at about the cost of
reading them.  Range and loop checks take O(n / 64) word steps a row.  The
symmetry check counts edge ends first: dense rows are compared 256 rows at
a time (``_symmetric``: O(n^2) character steps in C, O(n^2 / 256) Python
steps, O(256 n) extra memory), sparse rows by one shift per edge end
(O(m n / 64) word steps), so empty rows cost nothing.  The per-edge loop
names any mismatch: the first asymmetric pair (v, u) in ascending order.

Conventions used across the package:

* a *vertex set* crosses the API as any iterable of ints, internally as a
  bitmask (helpers ``mask_of`` / ``verts_of`` convert);
* ``nth_bit(mask, i)`` is ``verts_of(mask)[i]`` in O(n / 64) word steps;
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
from collections import defaultdict
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Iterator

from powerham.errors import InputError

# the largest graph any input may declare; checked before rows are allocated
MAX_VERTICES = 1 << 16
# rows per slab of the symmetry check
_SLAB = 256
_DIGITS = bytes.maketrans(b"01", b"\0\1")


def mask_of(verts: Iterable[int]) -> int:
    m = 0
    for v in verts:
        m |= 1 << v
    return m


def verts_of(mask: int) -> tuple[int, ...]:
    """Ascending tuple of the vertices in a bitmask.

    Masks over 256 bits wide with over 1/8 of them set are read off their
    ``bin()`` digits in C, 5-12x faster from 600 to 4000 bits; the others
    clear one low bit at a time, as fast there and without digit strings,
    whose n = 60 scans raised the pipeline's peak RSS by 0.1-0.3 MB.
    """
    width = mask.bit_length()
    if width > 256 and 8 * mask.bit_count() > width:
        return tuple(compress(range(width),
                              bin(mask)[:1:-1].encode().translate(_DIGITS)))
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def nth_bit(mask: int, i: int) -> int:
    """``verts_of(mask)[i]``, skipping 64-bit words by their bit counts."""
    if not 0 <= i < mask.bit_count():
        raise IndexError(f"mask has no bit number {i}")
    base = 0
    while (c := (word := mask >> base & 0xFFFF_FFFF_FFFF_FFFF).bit_count()) <= i:
        i, base = i - c, base + 64
    for _ in range(i):
        word &= word - 1
    return base + (word & -word).bit_length() - 1


def _row(n: int, verts: list[int]) -> int:
    """``mask_of(verts)`` for vertices below n, built in one pass.

    An OR of shifts costs about (n + 10000) / 400 base-2 digits a vertex,
    so a long list fills an ASCII row once and parses it with ``int``.
    """
    if len(verts) * (n + 10_000) < 400 * (n + 250):
        return mask_of(verts)
    digits = bytearray(b"0") * n
    for v in verts:
        digits[v] = 49   # ord("1"); digits[v] is bit v
    return int(digits[::-1], 2)


def _symmetric(adj: tuple[int, ...]) -> bool:
    """True iff the 0/1 matrix whose rows are `adj` equals its transpose.

    A slab of rows [s, s + b) is rendered as b binary strings of the bits
    >= s and transposed with ``zip``; each column c >= s of the slab must
    then read as the b-bit slice [s, s + b) of row c.  Pairs below s were
    compared by an earlier slab.  Extra memory stays at O(b * n).
    """
    n = len(adj)
    for s in range(0, n, _SLAB):
        b = min(_SLAB, n - s)
        low, fmt = (1 << b) - 1, f"0{b}b"
        # top row first, so each column reads bit s + b - 1 first, as
        # format() writes the slice; column n - 1 comes first
        slab = [format(row >> s, f"0{n - s}b") for row in reversed(adj[s:s + b])]
        cols = map("".join, zip(*slab))
        want = (format(row >> s & low, fmt) for row in reversed(adj[s:]))
        if not all(map(str.__eq__, cols, want)):
            return False
    return True


@dataclass(frozen=True)
class Graph:
    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise InputError("graphs need at least one vertex")
        if len(self.adj) != self.n:
            raise InputError("adjacency row count differs from n")
        for v, row in enumerate(self.adj):
            if row < 0 or row.bit_length() > self.n:
                raise InputError(f"adjacency row {v} mentions vertices >= n")
            if row >> v & 1:
                raise InputError(f"loop at vertex {v}")
        adj, n = self.adj, self.n
        # a shift per edge end costs about (n + 1024) / 64 slab cells
        if (sum(map(int.bit_count, adj)) * (n + 1024) > 64 * n * n
                and _symmetric(adj)):
            return
        # sparse rows, or a mismatch to name: find the first pair per edge
        for v, row in enumerate(adj):
            if row:
                for u in verts_of(row):
                    if not adj[u] >> v & 1:
                        raise InputError(f"edge {v}-{u} is not symmetric")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        nbrs: defaultdict[int, list[int]] = defaultdict(list)
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise InputError(f"loop at vertex {u}")
            nbrs[u].append(v)
            nbrs[v].append(u)
        rows = [0] * n
        for v, vs in nbrs.items():
            rows[v] = _row(n, vs)
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


def common_neighborhood_mask(g: Graph, verts: Iterable[int]) -> int:
    """Mask of the vertices adjacent to all of `verts` (V when it is empty)."""
    m = g.full_mask()   # rows carry no loops, so no member of verts survives
    for v in verts:
        m &= g.adj[v]
    return m


def edges_between(g: Graph, xs: Iterable[int], ys: Iterable[int]) -> int:
    """Ordered pair count |{(x, y) in X x Y : xy in E}|; X, Y may overlap."""
    ym = mask_of(ys)
    return sum((g.adj[x] & ym).bit_count() for x in verts_of(mask_of(xs)))


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
    pool = g.full_mask()
    if within is not None:
        pool &= within if isinstance(within, int) else mask_of(within)
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
    """Number of unordered k-cliques: the length of ``list_cliques``."""
    return sum(1 for _ in list_cliques(g, k, within))


def count_ordered_cliques(g: Graph, k: int) -> int:
    """Number of ordered k-tuples of distinct pairwise-adjacent vertices."""
    return count_cliques(g, k) * math.factorial(k)


def to_text(g: Graph) -> str:
    lines = [f"p {g.n} {g.edge_count}"]
    for u in range(g.n):
        row = g.adj[u] >> (u + 1) << (u + 1)
        for v in verts_of(row):
            lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def _ints(fields: list[str], lineno: int) -> tuple[int, ...]:
    try:
        return tuple(map(int, fields))
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
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "e":
            if n is None:
                raise InputError(f"line {lineno}: edge before header")
            if len(parts) != 3:
                raise InputError(f"line {lineno}: edge must be 'e <u> <v>'")
            edges.append(_ints(parts[1:], lineno))
        elif parts[0] == "p":
            if n is not None:
                raise InputError(f"line {lineno}: second header")
            if len(parts) != 3:
                raise InputError(f"line {lineno}: header must be 'p <n> <m>'")
            n, declared = _ints(parts[1:], lineno)
            check_vertex_count(n)
        else:
            raise InputError(f"line {lineno}: unknown record '{parts[0]}'")
    if n is None:
        raise InputError("missing 'p <n> <m>' header")
    g = Graph.from_edges(n, edges)
    if g.edge_count != declared:
        raise InputError(
            f"header declares {declared} edges, body has {g.edge_count}")
    return g

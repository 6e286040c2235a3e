"""Long tight paths in the clique hypergraph, and almost-perfect covers.

The auxiliary hypergraph has one edge per (k+1)-clique of the host graph.
After pruning away every k-tuple lying in too few edges, any maximal tight
path must be long: the end tuple's surviving extensions all sit inside the
path, and pruning guarantees there are more than the threshold of them.
Acceptance criterion 3 checks exactly that on pruned hypergraphs.

The cover routine does not prune: it grows greedy tight paths through
every (k+1)-clique of whatever is still uncovered.  A path grows from the
bit rows alone, so the degree table is listed only when pruning or a
caller reads it; only pruned-away edges are stored explicitly, and with
none a growth step scores its candidates in C (see greedy_tight_path).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from powerham.errors import InputError, NoCliquesError
from powerham.graph import (Graph, common_neighborhood_mask, list_cliques,
                            mask_of, verts_of)
from powerham.rng import SplitMix64


@dataclass(frozen=True)
class KPath:
    """Vertex sequence in which every k+1 consecutive vertices span a clique.

    Validity against a concrete graph is the job of is_valid_kpath; the
    dataclass itself only enforces shape (distinct vertices, length >= k).
    """

    k: int
    vertices: tuple[int, ...]

    def __post_init__(self):
        if self.k < 1:
            raise InputError("k must be >= 1")
        if len(self.vertices) < self.k:
            raise InputError("a k-path has at least k vertices")
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("path vertices must be distinct")

    @property
    def x_end(self) -> tuple[int, ...]:
        return self.vertices[:self.k]

    @property
    def y_end(self) -> tuple[int, ...]:
        return self.vertices[-self.k:]

    @property
    def mask(self) -> int:
        return mask_of(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)


def is_valid_kpath(g: Graph, kp: KPath) -> bool:
    """Every k+1 consecutive vertices of kp (a path of k has none) span a
    clique of g: each vertex sees the next k.  KPath checked the shape."""
    vs, adj, k = kp.vertices, g.adj, kp.k
    return all(0 <= v < g.n for v in vs) and (len(vs) == k or all(
        adj[v] >> u & 1 for i, v in enumerate(vs) for u in vs[i + 1:i + k + 1]))


def _subtuples(emask: int):
    m = emask
    while m:
        b = m & -m
        yield emask ^ b
        m ^= b


class CliqueHypergraph:
    """(k+1)-clique hypergraph over the live vertices of a host graph."""

    __slots__ = ("g", "k", "live", "removed", "_degree")

    def __init__(self, g: Graph, k: int, live: int,
                 removed: frozenset[int] = frozenset(),
                 degree: Optional[dict[int, int]] = None):
        self.g = g
        self.k = k
        self.live = live
        self.removed = removed  # (k+1)-tuple masks pruned away
        self._degree = degree

    @property
    def degree(self) -> dict[int, int]:
        """k-tuple mask -> alive edge count (> 0 only), listed on first read."""
        if self._degree is None:
            self._degree = {}
            for t in list_cliques(self.g, self.k, within=self.live):
                tm = mask_of(t)
                dg = _extensions(self, tm, _window(self, tm)).bit_count()
                if dg:
                    self._degree[tm] = dg
        return self._degree

    @property
    def is_empty(self) -> bool:
        return not self.degree

    def iter_edges(self):
        """Each surviving edge once (from its subtuple missing the top vertex)."""
        for tm in self.degree:
            for w in verts_of(_extensions(self, tm, _window(self, tm))):
                if (1 << w) > tm:
                    yield tm | 1 << w

    def edge_count(self) -> int:
        return sum(1 for _ in self.iter_edges())


def build_clique_hypergraph(g: Graph, k: int,
                            within: int | None = None) -> CliqueHypergraph:
    if k < 1:
        raise InputError("k must be >= 1")
    live = g.full_mask() if within is None else within & g.full_mask()
    return CliqueHypergraph(g, k, live)


def prune(h: CliqueHypergraph, threshold: int) -> CliqueHypergraph:
    """Fixpoint removal of every k-tuple with degree <= threshold.

    Worklist order does not matter: an edge is removed iff some of its
    k-subtuples dies, and dying is monotone under edge removal.
    """
    if threshold < 0:
        raise InputError("threshold must be >= 0")
    degree = dict(h.degree)
    removed = set(h.removed)
    work = [t for t, dg in degree.items() if dg <= threshold]
    queued = set(work)
    while work:
        t = work.pop()
        for w in verts_of(_window(h, t)):
            e = t | (1 << w)
            if e in removed:
                continue
            removed.add(e)
            for s in _subtuples(e):
                dg = degree.get(s, 0)
                if not dg:
                    continue
                dg -= 1
                if dg == 0:
                    del degree[s]
                    queued.add(s)  # nothing left to do for it
                else:
                    degree[s] = dg
                    if dg <= threshold and s not in queued:
                        queued.add(s)
                        work.append(s)
    return CliqueHypergraph(h.g, h.k, h.live, frozenset(removed), degree)


def _window(h: CliqueHypergraph, tmask: int) -> int:
    """Live common neighbourhood of a tuple: every w that forms an edge."""
    return common_neighborhood_mask(h.g, verts_of(tmask)) & h.live


def _extensions(h: CliqueHypergraph, tmask: int, ext: int) -> int:
    """The w in `ext`, a subset of _window(h, tmask), whose edge is alive."""
    if h.removed:
        for w in verts_of(ext):
            if (tmask | 1 << w) in h.removed:
                ext ^= 1 << w
    return ext


def _start_edge(h: CliqueHypergraph, rng: SplitMix64) -> int:
    """Exact search for an alive edge, rotating from a random live vertex.

    At each vertex v it tries the k-cliques of v's live neighborhood in
    list_cliques order; raises NoCliquesError when no edge is alive.
    """
    verts = verts_of(h.live)
    if verts:
        i = rng.below(len(verts))
        for v in verts[i:] + verts[:i]:
            for t in list_cliques(h.g, h.k, within=h.g.adj[v] & h.live):
                e = mask_of(t) | 1 << v
                if e not in h.removed:
                    return e
    raise NoCliquesError("hypergraph has no edges")


def greedy_tight_path(h: CliqueHypergraph, seed: int,
                      limit: Optional[int] = None) -> KPath:
    """Maximal tight path from a seeded start edge, or one of `limit` vertices.

    Extends alternately at both ends; among candidate extensions it takes
    the one whose new end tuple keeps the most unused edges (ties to the
    lowest vertex id).  On return neither end extends to an unused vertex,
    unless the path stopped at `limit`.

    A score is v's row ANDed with the unused window of the tuple that
    stays, popcounted in C, less the edges a pruned hypergraph removed.
    Unpruned at k = 1 the scores are degrees into the unused live vertices,
    kept in bit-sliced ``planes`` (bit v of plane j is bit j of v's degree).
    """
    k, adj = h.k, h.g.adj
    if limit is not None and limit < k + 1:
        raise InputError("limit must be >= k + 1")
    used = _start_edge(h, SplitMix64(seed))
    seq = deque(verts_of(used))  # ascending start edge
    free = h.live & ~used
    vs = verts_of(free) if k == 1 and not h.removed else ()
    deg = list(map(int.bit_count, map(free.__and__, map(adj.__getitem__, vs))))
    planes = [mask_of(v for v, d in zip(vs, deg) if d >> j & 1)
              for j in range(max(deg, default=0).bit_length())]

    dead = [False, False]   # left end, right end
    right = False
    while not all(dead) and len(seq) != limit:
        right = not right
        if dead[right]:
            continue
        end = [seq[i] for i in (range(-k, 0) if right else range(k))]
        tm = mask_of(end)
        cands = _extensions(h, tm, _window(h, tm) & free)
        if not cands:
            dead[right] = True
            continue
        if planes:
            # keep the candidates with the top degree, bit by bit
            for plane in reversed(planes):
                if cands & plane:
                    cands &= plane
            best = (cands & -cands).bit_length() - 1
        else:
            base = tm ^ (1 << (end[0] if right else end[-1]))
            # the window of base + v is base's window ANDed with v's row
            around = _window(h, base) & free
            vs = verts_of(cands)
            score = map(around.__and__, map(adj.__getitem__, vs))
            if h.removed:
                score = [_extensions(h, base | 1 << v, ext)
                         for v, ext in zip(vs, score)]
            score = list(map(int.bit_count, score))
            best = vs[score.index(max(score))]   # first top: lowest id
        (seq.append if right else seq.appendleft)(best)
        free ^= 1 << best
        borrow = adj[best] & free   # best's free neighbours lose one
        for j, plane in enumerate(planes):
            planes[j] = plane ^ borrow
            borrow &= ~plane
    return KPath(k, tuple(seq))


@dataclass(frozen=True)
class PathCover:
    paths: tuple[KPath, ...]
    leftover: tuple[int, ...]
    stop_size: int

    @property
    def reached_stop(self) -> bool:
        return len(self.leftover) <= self.stop_size


def cover_with_paths(g: Graph, k: int, excluded, stop_size: int,
                     seed: int) -> PathCover:
    """Disjoint tight paths over everything outside `excluded`.

    Each round grows one greedy path through the still-uncovered vertices,
    capped at the length that would land the leftover on stop_size
    (callers that route spare vertices through connections rely on the
    leftover not undershooting stop_size).  Stops at stop_size uncovered
    or when the uncovered set holds no (k+1)-clique; the shortfall is
    visible in the returned leftover, never raised.
    """
    if stop_size < 0:
        raise InputError("stop_size must be >= 0")
    rng = SplitMix64(seed)
    live = g.full_mask() & ~(excluded if isinstance(excluded, int) else mask_of(excluded))
    paths: list[KPath] = []
    while live.bit_count() > stop_size:
        h = build_clique_hypergraph(g, k, within=live)
        keep = max(k + 1, live.bit_count() - stop_size)
        try:
            path = greedy_tight_path(h, rng.next_u64(), limit=keep)
        except NoCliquesError:
            break
        paths.append(path)
        live &= ~path.mask
    return PathCover(tuple(paths), verts_of(live), stop_size)

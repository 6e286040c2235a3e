"""Long tight paths in the clique hypergraph, and almost-perfect covers.

The auxiliary hypergraph has one edge per (k+1)-clique of the host graph.
After pruning away every k-tuple lying in too few edges, any maximal tight
path must be long: the end tuple's surviving extensions all sit inside the
path, and pruning guarantees there are more than the threshold of them.
That observation is the whole engine of this module; the cover routine
just applies it repeatedly to whatever is still uncovered.

Degrees are tabulated from the bit rows (the degree of a k-clique is the
size of its common neighborhood), so the hypergraph never materializes its
edge set; only pruned-away edges are stored explicitly.  At the densities
this package targets, pruning usually removes nothing and the structure
stays within a dict of k-tuple masks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from powerham.errors import InputError, NoCliquesError
from powerham.graph import (Graph, common_neighborhood_mask, is_clique,
                            iter_bits, list_cliques, mask_of, verts_of)
from powerham.rng import SplitMix64

RESTARTS = 8


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
    vs = kp.vertices
    if len(set(vs)) != len(vs) or len(vs) < kp.k:
        return False
    if any(not 0 <= v < g.n for v in vs):
        return False
    for i in range(len(vs) - kp.k):
        if not is_clique(g, vs[i:i + kp.k + 1]):
            return False
    return True


def _subtuples(emask: int):
    m = emask
    while m:
        b = m & -m
        yield emask ^ b
        m ^= b


class CliqueHypergraph:
    """(k+1)-clique hypergraph over the live vertices of a host graph."""

    __slots__ = ("g", "k", "live", "degree", "removed")

    def __init__(self, g: Graph, k: int, live: int,
                 degree: dict[int, int], removed: frozenset[int]):
        self.g = g
        self.k = k
        self.live = live
        self.degree = degree  # k-tuple mask -> surviving edge count (> 0 only)
        self.removed = removed  # (k+1)-tuple masks pruned away

    @property
    def is_empty(self) -> bool:
        return not self.degree

    def has_edge(self, emask: int) -> bool:
        if emask & ~self.live or emask.bit_count() != self.k + 1:
            return False
        return emask not in self.removed and is_clique(self.g, verts_of(emask))

    def iter_edges(self):
        """Each surviving edge once (from its subtuple missing the top vertex)."""
        for tm, _ in self.degree.items():
            ext = common_neighborhood_mask(self.g, iter_bits(tm)) & self.live
            for w in iter_bits(ext):
                b = 1 << w
                if b > tm and (tm | b) not in self.removed:
                    yield tm | b

    def edge_count(self) -> int:
        return sum(1 for _ in self.iter_edges())


def build_clique_hypergraph(g: Graph, k: int,
                            within: int | None = None) -> CliqueHypergraph:
    if k < 1:
        raise InputError("k must be >= 1")
    live = g.full_mask() if within is None else within & g.full_mask()
    degree: dict[int, int] = {}
    for t in list_cliques(g, k, within=live):
        dg = (common_neighborhood_mask(g, t) & live).bit_count()
        if dg:
            degree[mask_of(t)] = dg
    return CliqueHypergraph(g, k, live, degree, frozenset())


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
        ext = common_neighborhood_mask(h.g, iter_bits(t)) & h.live
        for w in iter_bits(ext):
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
    return CliqueHypergraph(h.g, h.k, h.live, degree, frozenset(removed))


def _alive_extensions(h: CliqueHypergraph, tmask: int, avoid: int) -> list[int]:
    avail = common_neighborhood_mask(h.g, iter_bits(tmask)) & h.live & ~avoid
    if not h.removed:
        return list(iter_bits(avail))
    return [w for w in iter_bits(avail) if (tmask | 1 << w) not in h.removed]


def _remaining_degree(h: CliqueHypergraph, tmask: int, used: int) -> int:
    avail = common_neighborhood_mask(h.g, iter_bits(tmask)) & h.live & ~used
    if not h.removed:
        return avail.bit_count()
    return sum(1 for w in iter_bits(avail) if (tmask | 1 << w) not in h.removed)


def greedy_tight_path(h: CliqueHypergraph, seed: int) -> KPath:
    """Maximal tight path from a seeded start edge.

    Extends alternately at both ends; among candidate extensions it takes
    the one whose new end tuple keeps the most unused edges (ties to the
    lowest vertex id).  On return neither end extends to an unused vertex.
    """
    if h.is_empty:
        raise NoCliquesError("hypergraph has no edges")
    k = h.k
    rng = SplitMix64(seed)
    tuples = list(h.degree)
    t = tuples[rng.below(len(tuples))]
    cands = _alive_extensions(h, t, 0)
    w = cands[rng.below(len(cands))]
    seq = deque(verts_of(t | 1 << w))  # ascending start edge
    used = t | 1 << w

    dead_right = dead_left = False
    grow_right = True
    while not (dead_right and dead_left):
        if (grow_right and dead_right) or (not grow_right and dead_left):
            grow_right = not grow_right
            continue
        if grow_right:
            end = list(seq)[-k:]
            drop = end[0]
        else:
            end = list(seq)[:k]
            drop = end[-1]
        tm = mask_of(end)
        cands = _alive_extensions(h, tm, used)
        if not cands:
            if grow_right:
                dead_right = True
            else:
                dead_left = True
            grow_right = not grow_right
            continue
        base = tm ^ (1 << drop) if k > 1 else 0
        best = max(cands, key=lambda v: (_remaining_degree(h, base | 1 << v, used), -v))
        if grow_right:
            seq.append(best)
        else:
            seq.appendleft(best)
        used |= 1 << best
        grow_right = not grow_right
    return KPath(k, tuple(seq))


@dataclass(frozen=True)
class PathCover:
    paths: tuple[KPath, ...]
    leftover: tuple[int, ...]
    stop_size: int

    @property
    def reached_stop(self) -> bool:
        return len(self.leftover) <= self.stop_size

    def to_json_dict(self):
        return {"paths": [list(p.vertices) for p in self.paths],
                "leftover": list(self.leftover)}


def cover_with_paths(g: Graph, k: int, zeta, excluded, stop_size: int,
                     seed: int) -> PathCover:
    """Disjoint tight paths over everything outside `excluded`.

    Loops: rebuild the hypergraph on the still-uncovered vertices, prune at
    ceil(zeta * live count), extract the best of RESTARTS greedy paths.
    Stops at stop_size uncovered or when no path can be extracted; the
    shortfall is visible in the returned leftover, never raised.  The last
    path is cut so the leftover lands on stop_size rather than under it
    (a prefix of a tight path is a tight path), callers that route spare
    vertices through connections rely on that.
    """
    if stop_size < 0:
        raise InputError("stop_size must be >= 0")
    zeta = Fraction(zeta)
    if not 0 <= zeta <= 1:
        raise InputError("zeta must be in [0, 1]")
    rng = SplitMix64(seed)
    live = g.full_mask() & ~(excluded if isinstance(excluded, int) else mask_of(excluded))
    paths: list[KPath] = []
    while live.bit_count() > stop_size:
        h = prune(build_clique_hypergraph(g, k, within=live),
                  ceil(zeta * live.bit_count()))
        if h.is_empty:
            break
        best = None
        for _ in range(RESTARTS):
            p = greedy_tight_path(h, rng.next_u64())
            if best is None or len(p) > len(best):
                best = p
        keep = max(k + 1, live.bit_count() - stop_size)
        if len(best) > keep:
            best = KPath(k, best.vertices[:keep])
        paths.append(best)
        live &= ~best.mask
    return PathCover(tuple(paths), verts_of(live), stop_size)

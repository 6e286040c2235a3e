"""Absorbers: prebuilt path segments that can swallow one extra vertex each.

A v-absorber is a clique on 2k vertices drawn from the neighborhood of v,
split into two halves that each have a large common neighborhood.  Laid
down consecutively inside a path, the segment stays a valid k-path whether
or not v is spliced into its midpoint, because v is adjacent to all 2k
segment vertices and any window containing v sees only segment vertices.

The module covers the full lifecycle: sample a pairwise disjoint family
with per-vertex rate limiting, growing each candidate lazily inside the
running common neighbourhood only when an admission turn needs one, join
the family into one absorbing path, and finally absorb a set of leftover
vertices by matching them to segments.  A family short of its target is
returned as sampled; no second pass tops it up.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import ceil
from typing import Iterable

from .connector import ConnectRequest, connect
from .errors import AssemblyError, CapacityError, InputError
from .graph import Graph, mask_of, verts_of
# unused here, but perfbench/spans.py traces clique listing at this binding
from .graph import list_cliques  # noqa: F401
from .pathcover import KPath, is_valid_kpath
from .properties import is_connectable
from .rng import DEFAULT_SEED, SplitMix64

PER_VERTEX_CAP = 8
GROW_TRIES = 4           # grow attempts a vertex gets per admission turn


@dataclass(frozen=True)
class VAbsorber:
    """An ordered 2k-clique inside N(v) whose halves are both connectable."""

    v: int
    clique: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.clique) % 2 != 0 or not self.clique:
            raise InputError("absorber clique must have 2k vertices")
        if len(set(self.clique)) != len(self.clique):
            raise InputError("absorber clique has repeated vertices")
        if self.v in self.clique:
            raise InputError("absorber clique must avoid its own vertex")

    @property
    def k(self) -> int:
        return len(self.clique) // 2

    @property
    def x_half(self) -> tuple[int, ...]:
        return self.clique[: self.k]

    @property
    def y_half(self) -> tuple[int, ...]:
        return self.clique[self.k :]

    @property
    def mask(self) -> int:
        return mask_of(self.clique)


def is_valid_absorber(g: Graph, ab: VAbsorber, zeta: Fraction) -> bool:
    """Recheck every defining property of a v-absorber from scratch."""
    k = ab.k
    nb = g.adj[ab.v]
    if any(not (nb >> u) & 1 for u in ab.clique):
        return False
    for a, b in combinations(ab.clique, 2):
        if not g.has_edge(a, b):
            return False
    threshold = ceil(Fraction(zeta) * g.n)
    return (is_connectable(g, ab.x_half, threshold)
            and is_connectable(g, ab.y_half, threshold))


def _split(g: Graph, clique: tuple[int, ...], threshold: int
           ) -> tuple[int, ...] | None:
    """First x-half + y-half split of a 2k-clique with both halves connectable.

    Index order, clique[0] pinned to the x-half; None when none qualifies.
    """
    k = len(clique) // 2
    for rest in combinations(range(1, 2 * k), k - 1):
        xs = (clique[0],) + tuple(clique[i] for i in rest)
        ys = tuple(u for u in clique if u not in xs)
        if (is_connectable(g, xs, threshold)
                and is_connectable(g, ys, threshold)):
            return xs + ys
    return None


@dataclass(frozen=True)
class FamilyStats:
    """Bookkeeping from one sampling run."""

    draws: int            # grow attempts in the admission rounds
    sampled: int          # grown absorbers that survived the coin flip
    members: int          # equals sampled; perfbench/spans.py reads both
    coverage_min: int     # per-vertex usable members
    coverage_mean: float


def _grow(g: Graph, v: int, k: int, used: int, threshold: int,
          rng: SplitMix64) -> tuple[int, ...] | None:
    """Grow one random 2k-clique inside N(v) minus ``used`` and split it.

    Each pick is uniform over the running common neighbourhood of v and
    the vertices picked so far, so the result is a clique by construction.
    None when the neighbourhood runs dry or no split qualifies.
    """
    pool = g.adj[v] & ~used
    picked = []
    for _ in range(2 * k):
        if not pool:
            return None
        cands = verts_of(pool)
        u = cands[rng.below(len(cands))]
        picked.append(u)
        pool &= g.adj[u]
    return _split(g, tuple(sorted(picked)), threshold)


def sample_family(g: Graph, k: int, zeta: Fraction, p: Fraction, seed: int = DEFAULT_SEED,
                  per_vertex_cap: int = PER_VERTEX_CAP,
                  max_members: int | None = None
                  ) -> tuple[tuple[VAbsorber, ...], FamilyStats]:
    """Sample a disjoint absorber family, rate limited per vertex.

    Admission runs in rounds over the vertices of degree >= 2k, fewest
    neighbours first, one admission per vertex per round.  A vertex's turn
    grows up to ``GROW_TRIES`` candidates lazily, each a random 2k-clique
    inside its neighbourhood minus the vertices admitted members already
    hold, so candidates never overlap the family; the first one whose
    halves are connectable and that survives a coin flip of rate p joins.
    A vertex that grows nothing in its turn, or owns ``per_vertex_cap``
    members, leaves the rotation; rounds end when one admits nothing or
    the family holds ``max_members``.  A family that falls short of
    ``max_members`` is returned as it stands; no rescue pass tops it up.
    """
    p = Fraction(p)
    if not 0 < p <= 1:
        raise InputError("sampling rate must lie in (0, 1]")
    if per_vertex_cap < 1:
        raise InputError("per-vertex cap must be >= 1")
    rng = SplitMix64(seed)
    threshold = ceil(Fraction(zeta) * g.n)
    # a disjoint family holds at most n / 2k members, so n never binds
    cap = g.n if max_members is None else max_members
    members: list[VAbsorber] = []
    owned = [0] * g.n
    used = 0
    draws = 0
    # vertices with the fewest neighbors are hostable by the fewest
    # segments, so they get first claim on owning one
    rotation = sorted((v for v in range(g.n) if g.degree(v) >= 2 * k),
                      key=lambda v: (g.degree(v), v))
    while rotation and len(members) < cap:
        before = len(members)
        stay = []
        for v in rotation:
            if len(members) >= cap:
                break
            grew = False
            for _ in range(GROW_TRIES):
                draws += 1
                split = _grow(g, v, k, used, threshold, rng)
                if split is None:
                    continue
                grew = True
                if rng.chance(p):
                    members.append(VAbsorber(v, split))
                    owned[v] += 1
                    used |= mask_of(split)
                    break
            if grew and owned[v] < per_vertex_cap:
                stay.append(v)
        rotation = stay if len(members) > before else []

    # a segment absorbs w exactly when w is adjacent to all 2k of its vertices
    masks = [ab.mask for ab in members]
    coverage = [sum(g.adj[w] & m == m for m in masks) for w in range(g.n)]
    stats = FamilyStats(
        draws=draws,
        sampled=len(members),
        members=len(members),
        coverage_min=min(coverage) if coverage else 0,
        coverage_mean=sum(coverage) / len(coverage) if coverage else 0.0,
    )
    return tuple(members), stats


@dataclass(frozen=True, eq=False)
class AbsorbingPath:
    """A k-path threading every family member as one contiguous segment.

    ``starts[i]`` is the position of ``member_ids[i]``'s segment inside
    ``path``.  :func:`absorb` may use every segment and returns a new path;
    positions refer to the path as built, so absorb once and rebuild rather
    than absorbing into an already grown path.
    """

    path: KPath
    member_ids: tuple[int, ...]
    starts: tuple[int, ...]

    @property
    def k(self) -> int:
        return self.path.k

    def segment(self, i: int) -> tuple[int, ...]:
        s = self.starts[i]
        return self.path.vertices[s : s + 2 * self.path.k]

    @cached_property
    def _segment_masks(self) -> tuple[int, ...]:
        return tuple(mask_of(self.segment(i)) for i in range(len(self.starts)))

    def hosts(self, g: Graph, v: int) -> list[int]:
        """Segments that can host v: those whose 2k vertices v all sees."""
        row = g.adj[v]
        return [i for i, sm in enumerate(self._segment_masks) if row & sm == sm]


def _validate(g: Graph, k: int, family: tuple[VAbsorber, ...],
              zeta: Fraction) -> None:
    seen = 0
    for ab in family:
        if ab.k != k:
            raise InputError("family was sampled for a different k")
        if seen & ab.mask:
            raise InputError("family members overlap")
        seen |= ab.mask
        if not is_valid_absorber(g, ab, zeta):
            raise InputError(f"member for vertex {ab.v} is not an absorber")


def build_absorbing_path(g: Graph, k: int, zeta: Fraction,
                         family: tuple[VAbsorber, ...],
                         seed: int = DEFAULT_SEED, max_inner: int = 12,
                         node_budget: int | None = None) -> AbsorbingPath:
    """Join all family members into a single k-path, in owner order.

    Members are visited ascending by the vertex they were sampled for; each
    join connects the y-half of the previous segment to the x-half of the
    next one.  Everything already placed plus every not-yet-placed segment
    is forbidden as connector interior, so segments stay contiguous.
    Each join is one ``connect`` call, with no retry: AssemblyError, naming
    the failing pair, is raised as soon as one call finds no connection.
    """
    if not family:
        raise InputError("cannot assemble an empty family")
    _validate(g, k, family, zeta)
    rng = SplitMix64(seed)
    order = sorted(range(len(family)),
                   key=lambda i: (family[i].v, family[i].clique))
    members = [family[i] for i in order]

    verts = list(members[0].clique)
    starts = [0]
    placed_mask = members[0].mask
    pending_mask = 0
    for ab in members[1:]:
        pending_mask |= ab.mask
    for prev, nxt in zip(members, members[1:]):
        # nxt's y-half stays off limits: contiguity, and it follows immediately
        allowed = g.full_mask() & ~(placed_mask | pending_mask)
        pending_mask &= ~nxt.mask
        req = ConnectRequest(x_end=prev.y_half, y_end=nxt.x_half, k=k,
                             max_inner=max_inner, allowed_inner=allowed,
                             seed=rng.next_u64(), node_budget=node_budget)
        piece = connect(g, req)
        if piece is None:
            raise AssemblyError(
                f"cannot join the segment for vertex {prev.v} "
                f"to the segment for vertex {nxt.v}")
        inner = piece.vertices[k:-k]
        verts.extend(inner)
        starts.append(len(verts))
        verts.extend(nxt.clique)
        placed_mask |= mask_of(inner) | nxt.mask

    path = KPath(k, tuple(verts))
    if not is_valid_kpath(g, path):
        raise AssemblyError("assembled segments do not form a valid k-path")
    return AbsorbingPath(path, tuple(order), tuple(starts))


def absorb(g: Graph, pa: AbsorbingPath, x_set: Iterable[int]) -> KPath:
    """Insert every vertex of x_set between the halves of the segments.

    Singletons first: vertices are matched one-per-segment by augmenting
    paths, so a one-each assignment is found whenever it exists at all.
    Vertices left over by the matching are packed as groups: a segment's
    halves come from one clique, so it can host any clique of up to k
    vertices each adjacent to that whole clique (every pair inside a
    crossing window is then an edge).  Raises CapacityError for the first
    vertex (ascending) that fits nowhere.
    """
    xs = sorted(set(x_set))
    if not xs:
        return pa.path
    path_mask = pa.path.mask
    for v in xs:
        if not 0 <= v < g.n:
            raise InputError(f"vertex {v} out of range")
        if (path_mask >> v) & 1:
            raise InputError(f"vertex {v} already lies on the path")

    k = pa.path.k
    usable = {v: pa.hosts(g, v) for v in xs}

    matched: dict[int, int] = {}   # segment -> its singleton vertex

    def augment(v: int, visited: set[int]) -> bool:
        for i in usable[v]:
            if i in visited:
                continue
            visited.add(i)
            if i not in matched or augment(matched[i], visited):
                matched[i] = v
                return True
        return False

    groups: dict[int, list[int]] = {}
    spill: list[int] = []
    for v in xs:
        if not augment(v, set()):
            spill.append(v)
    for i, v in matched.items():
        groups[i] = [v]
    for v in spill:
        for i in usable[v]:
            grp = groups.setdefault(i, [])
            if len(grp) < k and all((g.adj[v] >> w) & 1 for w in grp):
                grp.append(v)
                break
        else:
            raise CapacityError(f"no absorber segment can take vertex {v}")

    verts = list(pa.path.vertices)
    for i, grp in sorted(groups.items(), key=lambda t: pa.starts[t[0]],
                         reverse=True):
        verts[pa.starts[i] + k:pa.starts[i] + k] = sorted(grp)
    out = KPath(pa.path.k, tuple(verts))
    if not is_valid_kpath(g, out):
        raise CapacityError("absorption produced an invalid path")
    return out

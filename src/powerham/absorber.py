"""Absorbers: prebuilt path segments that can swallow one extra vertex each.

A v-absorber is a clique on 2k vertices drawn from the neighborhood of v,
in ascending order; its halves are its first and last k vertices.  Laid
down consecutively inside a path, the segment stays a valid k-path whether
or not v is spliced into its midpoint, because v is adjacent to all 2k
segment vertices and any window containing v sees only segment vertices.
The halves go unchecked: the paper needs each to have a large common
neighbourhood for its connecting lemma, but a join here is an exact
bounded search, so a weak half can only fail a join and its attempt.

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
from functools import reduce
from itertools import compress
from typing import Iterable

from .connector import ConnectRequest, connect
from .errors import AssemblyError, CapacityError, InputError, PowerhamError
from .graph import (_DIGITS, Graph, common_neighborhood_mask, is_clique,
                    mask_of, nth_bit, verts_of)
# unused here, but perfbench/spans.py traces clique listing at this binding
from .graph import list_cliques  # noqa: F401
from .pathcover import KPath, is_valid_kpath
from .rng import DEFAULT_SEED, SplitMix64

PER_VERTEX_CAP = 8
GROW_TRIES = 4           # grow attempts a vertex gets per admission turn
MAX_INNER = 12           # inner-vertex ceiling of each absorbing-path join
JOIN_NODE_BUDGET = 100_000   # DFS nodes each join may spend


@dataclass(frozen=True)
class VAbsorber:
    """An ordered 2k-clique inside N(v); halves clique[:k], clique[k:]."""

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
    def mask(self) -> int:
        return mask_of(self.clique)


@dataclass(frozen=True)
class FamilyStats:
    """Bookkeeping from one sampling run."""

    draws: int            # grow attempts in the admission rounds
    sampled: int          # grown absorbers that survived the coin flip
    members: int          # equals sampled; perfbench/spans.py reads both


def _grow(g: Graph, v: int, k: int, used: int, rng: SplitMix64
          ) -> tuple[int, ...] | None:
    """Grow one random 2k-clique inside N(v) minus ``used``, sorted.

    Each pick is uniform over the running common neighbourhood of v and
    the vertices picked so far, so the result is a clique by construction.
    None when the neighbourhood runs dry.
    """
    pool = g.adj[v] & ~used
    picked = []
    for _ in range(2 * k):
        if not pool:
            return None
        u = nth_bit(pool, rng.below(pool.bit_count()))
        picked.append(u)
        pool &= g.adj[u]
    return tuple(sorted(picked))


def sample_family(g: Graph, k: int, p: Fraction, seed: int = DEFAULT_SEED,
                  per_vertex_cap: int = PER_VERTEX_CAP,
                  max_members: int | None = None
                  ) -> tuple[tuple[VAbsorber, ...], FamilyStats]:
    """Sample a disjoint absorber family, rate limited per vertex.

    Admission runs in rounds over the vertices of degree >= 2k, fewest
    neighbours first, one admission per vertex per round.  A vertex's turn
    grows up to ``GROW_TRIES`` candidates lazily, each a random 2k-clique
    inside its neighbourhood minus the vertices admitted members already
    hold, so candidates never overlap the family; the first one that
    survives a coin flip of rate p joins.  A vertex that grows nothing in
    its turn, or owns ``per_vertex_cap`` members, leaves the rotation;
    rounds end when one admits nothing or the family holds
    ``max_members``.  A family that falls short of ``max_members`` is
    returned as it stands; no rescue pass tops it up.
    """
    p = Fraction(p)
    if not 0 < p <= 1:
        raise InputError("sampling rate must lie in (0, 1]")
    if per_vertex_cap < 1:
        raise InputError("per-vertex cap must be >= 1")
    rng = SplitMix64(seed)
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
                clique = _grow(g, v, k, used, rng)
                if clique is None:
                    continue
                grew = True
                if rng.chance(p):
                    members.append(VAbsorber(v, clique))
                    owned[v] += 1
                    used |= mask_of(clique)
                    break
            if grew and owned[v] < per_vertex_cap:
                stay.append(v)
        rotation = stay if len(members) > before else []

    stats = FamilyStats(draws=draws, sampled=len(members),
                        members=len(members))
    return tuple(members), stats


@dataclass(frozen=True, eq=False)
class AbsorbingPath:
    """A k-path threading every family member as one contiguous segment.

    ``starts[i]`` is the position of ``member_ids[i]``'s segment inside
    ``path`` and ``hosts[i]`` the vertices it can host: those adjacent to
    all 2k of its vertices (its common neighbourhood).  The path may go on
    past the last segment (stitched hitting cliques).  :func:`absorb` may
    use every segment and returns a new path; positions refer to the path
    as built, so absorb once and rebuild rather than absorbing into an
    already grown path.
    """

    path: KPath
    member_ids: tuple[int, ...]
    starts: tuple[int, ...]
    hosts: tuple[int, ...]

    @property
    def hostable(self) -> int:
        """Mask of the vertices some segment can host."""
        return reduce(int.__or__, self.hosts, 0)


def _validate(g: Graph, k: int, family: tuple[VAbsorber, ...]) -> None:
    if not family:
        raise InputError("cannot assemble an empty family")
    seen = 0
    for ab in family:
        if ab.k != k:
            raise InputError("family was sampled for a different k")
        if not is_clique(g, ab.clique):
            raise InputError(f"member for vertex {ab.v} is not a clique")
        if seen & ab.mask:
            raise InputError("family members overlap")
        seen |= ab.mask


def join_chain(g: Graph, k: int, verts: Iterable[int],
               pieces: list[tuple[int, ...]], seed: int, max_inner: int
               ) -> tuple[list[int], list[int]]:
    """Append each piece to the k-path ``verts``, one ``connect`` per join.

    A join runs from the path's last k vertices to the piece's first k,
    within max_inner inner vertices and ``JOIN_NODE_BUDGET`` DFS nodes; its
    inner vertices avoid everything placed or pending, so pieces stay
    contiguous.  Every join breaks ties by one key table drawn from seed.
    Returns the vertices and each piece's start; the first failed join
    raises AssemblyError naming both end tuples.
    """
    keys = SplitMix64(seed).words(g.n)
    verts = list(verts)
    blocked = mask_of(verts) | mask_of(v for piece in pieces for v in piece)
    starts = []
    for piece in pieces:
        x_end, y_end = tuple(verts[-k:]), tuple(piece[:k])
        req = ConnectRequest(g, x_end, y_end, g.full_mask() & ~blocked,
                             JOIN_NODE_BUDGET)
        link = connect(req, keys, 0, max_inner)
        if link is None:
            raise AssemblyError(f"cannot join {x_end} to {y_end}")
        verts.extend(link.vertices[k:-k])
        blocked |= mask_of(link.vertices)   # its ends are blocked already
        starts.append(len(verts))
        verts.extend(piece)
    return verts, starts


def build_absorbing_path(g: Graph, k: int, family: tuple[VAbsorber, ...],
                         seed: int = DEFAULT_SEED) -> AbsorbingPath:
    """Join all family members into a single k-path, in owner order.

    The family must be non-empty, sampled for this k, and made of pairwise
    disjoint 2k-cliques, else InputError.  Owner adjacency is
    :func:`sample_family`'s guarantee and is not rechecked: nothing here
    depends on it.  Members are visited ascending by the vertex they were
    sampled for and chained by :func:`join_chain`, each join running from
    the last k vertices of the previous segment to the first k of the
    next under ``MAX_INNER`` and ``JOIN_NODE_BUDGET``.  A failed join
    raises AssemblyError; a result that is not a k-path raises
    PowerhamError (an internal fault).  Each segment's host mask is
    computed here, once.
    """
    _validate(g, k, family)
    order = sorted(range(len(family)),
                   key=lambda i: (family[i].v, family[i].clique))
    members = [family[i] for i in order]
    verts, starts = join_chain(g, k, members[0].clique,
                               [ab.clique for ab in members[1:]], seed,
                               MAX_INNER)
    path = KPath(k, tuple(verts))
    if not is_valid_kpath(g, path):
        # valid by construction: a miss is a bug, not a reason to retry
        raise PowerhamError("internal: the assembled path is not a k-path")
    return AbsorbingPath(path, tuple(order), (0, *starts), tuple(
        common_neighborhood_mask(g, ab.clique) for ab in members))


def _match(xs: list[int], usable: dict[int, int]
           ) -> tuple[dict[int, int], list[int]]:
    """Match xs to segments, ascending, without recursion; ``usable[v]`` is
    the mask of the segments that can host v.  A root takes its lowest free
    usable segment if it has one, else walks an augmenting path; which path
    it takes moves segments, never the set of matched roots.  Returns
    segment -> vertex and the unmatched vertices, in xs order."""
    matched: dict[int, int] = {}
    held = 0                            # mask of the matched segments
    spill = []
    for root in xs:
        # mask of the segments not tried: only free ones if any is usable
        unvisited = ~held if usable[root] & ~held else -1
        todo = [usable[root]]           # usable segments along the path
        taken: list[int] = []           # the segment each path vertex takes
        while todo:
            # skipped segments are visited: take the lowest unvisited one
            free = todo[-1] & unvisited
            if not free:
                todo.pop()
                del taken[-1:]          # the segment that led here, if any
                continue
            low = free & -free
            unvisited ^= low
            i = low.bit_length() - 1
            taken.append(i)
            if not held & low:
                held |= low
                break
            todo.append(usable[matched[i]])
        # root and each vertex it displaces move to the segment taken next
        matched.update(zip(taken, [root] + [matched[i] for i in taken[:-1]]))
        if not todo:
            spill.append(root)
    return matched, spill


def absorb(g: Graph, pa: AbsorbingPath, x_set: Iterable[int]) -> KPath:
    """Insert every vertex of x_set between the halves of the segments.

    Singletons first: vertices are matched one-per-segment by augmenting
    paths, so a one-each assignment is found whenever it exists at all.
    Vertices left over by the matching are packed as groups: a segment's
    halves come from one clique, so it can host any clique of up to k
    vertices each adjacent to that whole clique (every pair inside a
    crossing window is then an edge).  Raises CapacityError for the first
    vertex (ascending) that fits nowhere, PowerhamError if the result is
    not a k-path (an internal fault).
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
    # vertex -> its hosts' mask: the host masks' digit columns, zipped
    usable, fmt = dict.fromkeys(xs, 0), f"0{g.n}b"
    rows = [format(h, fmt) for h in reversed(pa.hosts)]
    usable.update(zip(reversed(xs), (int("".join(col), 2) for col in compress(
        zip(*rows), format(mask_of(xs), fmt).encode().translate(_DIGITS)))))

    matched, spill = _match(xs, usable)
    groups = {i: [v] for i, v in matched.items()}
    for v in spill:
        for i in verts_of(usable[v]):
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
        # valid by construction: a miss is a bug, not a capacity shortfall
        raise PowerhamError("internal: absorption produced an invalid path")
    return out

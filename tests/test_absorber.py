"""Absorber enumeration, family sampling, assembly, and absorption."""

import ast
import re
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerham.absorber import (
    AbsorbingPath,
    VAbsorber,
    _grow,
    _match,
    _split,
    absorb,
    build_absorbing_path,
    is_valid_absorber,
    join_chain,
    sample_family,
)
from powerham import absorber
from powerham.errors import (AssemblyError, CapacityError, InputError,
                             PowerhamError)
from powerham.generators import gnp
from powerham.graph import Graph, list_cliques, mask_of
from powerham.hamiltonian import _family_target
from powerham.pathcover import KPath, is_valid_kpath
from powerham.rng import SplitMix64

from oracles import (lowest_first_match, oracle_is_kpath,
                     oracle_segment_hosts, recursive_match)


def two_disjoint_cliques(size: int) -> Graph:
    edges = []
    for a in range(size):
        for b in range(a + 1, size):
            edges.append((a, b))
            edges.append((size + a, size + b))
    return Graph.from_edges(2 * size, edges)


def splits_around(g, v, k, threshold):
    """_split of every 2k-clique inside N(v), in list_cliques order."""
    return [_split(g, cl, threshold)
            for cl in list_cliques(g, 2 * k, within=g.adj[v])]


# --- candidate splits ---

@pytest.mark.parametrize("k", [1, 2, 3])
def test_complete_graph_every_clique_qualifies(k):
    g = Graph.complete(2 * k + 2)
    found = splits_around(g, 0, k, 1)
    # N(0) has 2k+1 vertices, one absorber per 2k-subset of it
    assert len(found) == 2 * k + 1
    for split in found:
        ab = VAbsorber(0, split)
        assert len(ab.x_half) == k and len(ab.y_half) == k
        assert is_valid_absorber(g, ab, Fraction(1, 100))


def test_low_degree_vertex_has_no_absorbers():
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5)])
    for v in (4, 0):   # deg 2 < 4
        assert _grow(g, v, 2, 0, 0, SplitMix64(0)) is None
    # no vertex reaches degree 2k, so none enters the admission rounds
    fam, stats = sample_family(g, 2, Fraction(0), Fraction(1), seed=0)
    assert fam == () and stats.draws == 0


def test_enumeration_is_deterministic_and_revalidates():
    g = gnp(30, Fraction(4, 5), seed=4)
    zeta = Fraction(15, 100)
    found = splits_around(g, 0, 2, 5)   # ceil(zeta * 30)
    assert found == splits_around(g, 0, 2, 5)
    assert any(found)
    for split in filter(None, found):
        assert is_valid_absorber(g, VAbsorber(0, split), zeta)


def test_strict_threshold_filters_everything():
    g = Graph.complete(6)
    # a half is a single vertex with 5 neighbors; demand all 6
    assert splits_around(g, 0, 1, 6) == [None] * 10


def test_split_takes_the_first_qualifying_split_in_index_order():
    # clique 0..3; 4, 5 join only 0 and 2, and 6, 7 join only 1 and 3, so
    # {0, 1} sees just {2, 3} while {0, 2} and {1, 3} see four vertices
    edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    edges += [(w, u) for w in (4, 5) for u in (0, 2)]
    edges += [(w, u) for w in (6, 7) for u in (1, 3)]
    g = Graph.from_edges(8, edges)
    assert _split(g, (0, 1, 2, 3), 2) == (0, 1, 2, 3)
    assert _split(g, (0, 1, 2, 3), 4) == (0, 2, 1, 3)
    assert _split(g, (0, 1, 2, 3), 5) is None


def test_absorber_shape_errors():
    with pytest.raises(InputError):
        VAbsorber(0, (1, 2, 3))          # odd length
    with pytest.raises(InputError):
        VAbsorber(0, (1, 1))             # repeat
    with pytest.raises(InputError):
        VAbsorber(1, (1, 2))             # contains its own vertex


# --- sampling ---

def test_sample_family_members_are_disjoint_and_valid():
    g = gnp(40, Fraction(4, 5), seed=7)
    zeta = Fraction(1, 10)
    fam, stats = sample_family(g, 2, zeta, Fraction(1), seed=11)
    assert len(fam) == stats.members > 0
    seen = set()
    for ab in fam:
        assert ab.k == 2 and not seen & set(ab.clique)
        seen |= set(ab.clique)
        assert is_valid_absorber(g, ab, zeta)
    # without max_members there is no rescue pass
    assert stats.draws >= stats.sampled == stats.members


def test_sample_family_interleaves_owners():
    g = Graph.complete(30)
    fam, _ = sample_family(g, 2, Fraction(1, 100), Fraction(1), seed=3)
    owners = [ab.v for ab in fam]
    # round robin: the first few admissions come from distinct vertices
    head = owners[: min(5, len(owners))]
    assert len(set(head)) == len(head)


def test_sample_family_vanishing_rate_gives_empty_family():
    g = Graph.complete(20)
    fam, stats = sample_family(g, 2, Fraction(1, 10), Fraction(1, 2 ** 40), seed=9)
    assert len(fam) == 0
    assert stats.members == 0 and stats.sampled == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(6, 24), st.integers(0, 2 ** 32), st.integers(1, 2),
       st.sampled_from([Fraction(1), Fraction(1, 2)]), st.integers(1, 3),
       st.one_of(st.none(), st.integers(1, 6)), st.integers(0, 2 ** 32))
def test_sample_family_properties(n, gseed, k, p, cap, max_members, seed):
    g = gnp(n, Fraction(3, 4), gseed)
    zeta = Fraction(1, 10)

    def run():
        return sample_family(g, k, zeta, p, seed=seed, per_vertex_cap=cap,
                             max_members=max_members)

    fam, stats = run()
    assert (fam, stats) == run()
    seen = 0
    for ab in fam:
        assert ab.k == k and not seen & ab.mask
        seen |= ab.mask
        assert is_valid_absorber(g, ab, zeta)
    owners = [ab.v for ab in fam]
    assert all(owners.count(v) <= cap for v in owners)
    assert max_members is None or len(fam) <= max_members
    assert len(fam) == stats.members >= stats.sampled


@settings(max_examples=60, deadline=None)
@given(st.integers(8, 30), st.integers(0, 2 ** 32), st.integers(1, 3),
       st.integers(0, 2 ** 64 - 1))
def test_hostable_is_every_vertex_some_segment_hosts(n, gseed, k, seed):
    g = gnp(n, Fraction(3, 4), gseed)
    fam, _ = sample_family(g, k, Fraction(1, 25), Fraction(1), seed=seed,
                           max_members=4)
    try:
        pa = build_absorbing_path(g, k, fam, seed=seed)
    except (InputError, AssemblyError):
        return   # no member, or no join between two of them
    hosts = oracle_segment_hosts(g, pa.path.vertices, k, pa.starts)
    assert pa.hosts == hosts
    assert pa.hostable == sum(1 << v for v in range(n)
                              if any(h >> v & 1 for h in hosts))


def test_host_table_is_built_once(monkeypatch):
    # one common neighbourhood per segment while the path is built, and
    # none after: absorb and hostable read the table
    g = gnp(40, Fraction(3, 4), 1)
    fam, _ = sample_family(g, 2, Fraction(1, 25), Fraction(1), seed=0,
                           max_members=4)
    assert len(fam) == 4
    calls = []

    def spy(g, verts):
        calls.append(tuple(verts))
        return common_neighborhood_mask(g, verts)
    common_neighborhood_mask = absorber.common_neighborhood_mask
    monkeypatch.setattr(absorber, "common_neighborhood_mask", spy)
    pa = build_absorbing_path(g, 2, fam, seed=0)
    assert sorted(calls) == sorted(ab.clique for ab in fam)
    off = [v for v in range(g.n) if pa.hostable >> v & 1
           and not pa.path.mask >> v & 1]
    sets = [off[:1], off[1:3], off[:len(fam)]]
    want = [absorb(g, pa, xs) for xs in sets], pa.hostable

    def fail(g, verts):
        raise AssertionError("host masks recomputed")
    monkeypatch.setattr(absorber, "common_neighborhood_mask", fail)
    assert ([absorb(g, pa, xs) for xs in sets], pa.hostable) == want


def test_sample_family_grows_about_one_clique_per_member():
    # random 6-tuples of N(v) are cliques ~1% of the time here, so the
    # grown draws are the difference between ms and seconds
    g = gnp(300, Fraction(3, 4), 0)
    fam, stats = sample_family(g, 3, Fraction(1, 25), Fraction(1), seed=0,
                               max_members=_family_target(300, 3))
    assert len(fam) == _family_target(300, 3)
    assert stats.draws <= 2 * stats.members


def test_sample_family_rejects_bad_rate():
    g = Graph.complete(8)
    with pytest.raises(InputError):
        sample_family(g, 1, Fraction(1, 10), Fraction(0))
    with pytest.raises(InputError):
        sample_family(g, 1, Fraction(1, 10), Fraction(3, 2))


def test_sample_family_is_deterministic():
    g = gnp(36, Fraction(3, 4), seed=5)
    a, _ = sample_family(g, 2, Fraction(1, 10), Fraction(1, 2), seed=21)
    b, _ = sample_family(g, 2, Fraction(1, 10), Fraction(1, 2), seed=21)
    assert a == b


# --- assembly ---

def test_single_member_path_is_the_clique_itself():
    g = Graph.complete(6)
    fam = (VAbsorber(5, (0, 1)),)
    pa = build_absorbing_path(g, 1, fam, seed=1)
    assert pa.path.vertices == (0, 1)
    assert pa.starts == (0,)


def test_assembled_path_keeps_segments_contiguous():
    g = Graph.complete(50)
    zeta = Fraction(1, 2)
    fam, _ = sample_family(g, 2, zeta, Fraction(1), seed=2, per_vertex_cap=1,
                           max_members=5)
    assert len(fam) == 5
    pa = build_absorbing_path(g, 2, fam, seed=8)
    assert is_valid_kpath(g, pa.path)
    assert oracle_is_kpath(g, pa.path.vertices, 2)
    for s, mid in zip(pa.starts, pa.member_ids):
        assert pa.path.vertices[s:s + 4] == fam[mid].clique
    owners = [fam[mid].v for mid in pa.member_ids]
    assert owners == sorted(owners)
    # outer ends are the first segment's x-half and last segment's y-half
    assert pa.path.x_end == fam[pa.member_ids[0]].x_half
    assert pa.path.y_end == fam[pa.member_ids[-1]].y_half


def test_assembly_across_components_fails_loudly():
    g = two_disjoint_cliques(6)
    fam = (VAbsorber(4, (0, 1, 2, 3)), VAbsorber(10, (6, 7, 8, 9)))
    with pytest.raises(AssemblyError) as err:
        build_absorbing_path(g, 2, fam, seed=0)
    assert "(2, 3)" in str(err.value) and "(6, 7)" in str(err.value)


@settings(max_examples=120, deadline=None)
@given(n=st.integers(4, 16), p=st.sampled_from([Fraction(1, 2), Fraction(3, 4),
                                               Fraction(9, 10)]),
       k=st.integers(1, 2), shape=st.integers(1, 2), gseed=st.integers(0, 999),
       seed=st.integers(0, 2 ** 64 - 1), max_inner=st.integers(0, 4))
def test_join_chain_places_pieces_verbatim(n, p, k, shape, gseed, seed,
                                           max_inner):
    g = gnp(n, p, seed=gseed)
    # a k-clique to start from, then up to three disjoint (shape*k)-cliques
    heads = list(list_cliques(g, k))
    cands = list(list_cliques(g, shape * k))
    SplitMix64(gseed).shuffle(heads)
    SplitMix64(gseed + 1).shuffle(cands)
    if not heads:
        return
    verts = heads[0]
    taken = mask_of(verts)
    pieces = []
    for cl in cands:
        if len(pieces) < 3 and not mask_of(cl) & taken:
            pieces.append(cl)
            taken |= mask_of(cl)
    try:
        out, starts = join_chain(g, k, verts, pieces, seed, max_inner)
    except AssemblyError as err:
        x_end, y_end = (ast.literal_eval(t) for t in re.fullmatch(
            r"cannot join (\(.*?\)) to (\(.*?\))", str(err)).groups())
        j = [pc[:k] for pc in pieces].index(y_end)
        assert x_end == (pieces[j - 1] if j else verts)[-k:]
        return
    assert tuple(out[:k]) == verts and len(starts) == len(pieces)
    for s, pc in zip(starts, pieces):
        assert tuple(out[s:s + len(pc)]) == pc
    assert len(set(out)) == len(out)   # so no inner vertex is in a piece
    assert oracle_is_kpath(g, out, k)


def test_assembly_rejects_empty_or_mismatched_family():
    g = Graph.complete(8)
    with pytest.raises(InputError):
        build_absorbing_path(g, 2, ())
    fam = (VAbsorber(5, (0, 1)),)
    with pytest.raises(InputError):
        build_absorbing_path(g, 2, fam)


def test_assembly_rejects_overlapping_members():
    g = Graph.complete(10)
    fam = (VAbsorber(0, (1, 2, 3, 4)), VAbsorber(5, (4, 6, 7, 8)))
    with pytest.raises(InputError, match="overlap"):
        build_absorbing_path(g, 2, fam)


def test_assembly_rejects_a_member_that_is_not_a_clique():
    g = Graph.from_edges(9, [e for e in combinations(range(9), 2)
                             if e != (2, 3)])
    fam = (VAbsorber(0, (1, 2, 3, 4)),)
    with pytest.raises(InputError, match="not a clique"):
        build_absorbing_path(g, 2, fam)


def test_assembly_on_random_graph_validates():
    g = gnp(60, Fraction(4, 5), seed=9)
    zeta = Fraction(1, 10)
    fam, _ = sample_family(g, 2, zeta, Fraction(1), seed=13, per_vertex_cap=1,
                           max_members=6)
    pa = build_absorbing_path(g, 2, fam, seed=13)
    assert is_valid_kpath(g, pa.path)
    assert len(pa.member_ids) == len(fam)


# --- absorption ---

def test_absorb_empty_set_is_identity():
    g = Graph.complete(8)
    fam = (VAbsorber(0, (1, 2, 3, 4)),)
    pa = build_absorbing_path(g, 2, fam, seed=1)
    assert absorb(g, pa, ()) is pa.path


def test_absorb_single_vertex_at_midpoint():
    g = Graph.complete(8)
    fam = (VAbsorber(0, (1, 2, 3, 4)),)
    pa = build_absorbing_path(g, 2, fam, seed=1)
    out = absorb(g, pa, {0})
    assert out.vertices == (1, 2, 0, 3, 4)


def test_absorb_matches_beyond_first_fit():
    # segment 0 suits both leftovers, segment 1 suits only vertex 0;
    # a first-fit pass that hands segment 0 to vertex 0 would strand vertex 1
    g = Graph.from_edges(7, [
        (2, 3), (4, 5),
        (0, 2), (0, 3), (0, 4), (0, 5),
        (1, 2), (1, 3),
        (2, 4), (3, 4), (2, 5), (3, 5),   # join so the two segments connect
        (2, 6), (3, 6), (4, 6), (5, 6),
    ])
    fam = (VAbsorber(0, (2, 3)), VAbsorber(0, (4, 5)))
    pa = build_absorbing_path(g, 1, fam, seed=4)
    assert pa.path.vertices == (2, 3, 4, 5)
    out = absorb(g, pa, {0, 1})
    assert sorted(out.vertices) == [0, 1, 2, 3, 4, 5]
    assert oracle_is_kpath(g, out.vertices, 1)
    assert out.vertices.index(1) == 1   # vertex 1 got the (2,3) midpoint


def test_absorb_packs_a_clique_into_one_segment():
    # both 0 and 5 sit between the halves: the segment clique covers the rest
    g = Graph.complete(9)
    fam = (VAbsorber(0, (1, 2, 3, 4)),)
    pa = build_absorbing_path(g, 2, fam, seed=1)
    out = absorb(g, pa, {0, 5})
    assert oracle_is_kpath(g, out.vertices, 2)
    assert set(out.vertices) == {0, 1, 2, 3, 4, 5}


def test_absorb_capacity_error_names_the_vertex():
    # a k=2 segment holds at most two extras, the third has nowhere to go
    g = Graph.complete(9)
    fam = (VAbsorber(0, (1, 2, 3, 4)),)
    pa = build_absorbing_path(g, 2, fam, seed=1)
    with pytest.raises(CapacityError) as err:
        absorb(g, pa, {0, 5, 6})
    assert "6" in str(err.value)


def test_final_path_checks_fail_as_internal_errors(monkeypatch):
    # both checks hold by construction, so a miss is neither a failed join
    # nor a capacity shortfall that a caller may retry past
    g = Graph.complete(9)
    fam = (VAbsorber(0, (1, 2, 3, 4)),)
    pa = build_absorbing_path(g, 2, fam, seed=1)
    monkeypatch.setattr(absorber, "is_valid_kpath", lambda g, kp: False)
    for call in (lambda: build_absorbing_path(g, 2, fam, seed=1),
                 lambda: absorb(g, pa, {0})):
        with pytest.raises(PowerhamError, match="internal") as err:
            call()
        assert not isinstance(err.value, (AssemblyError, CapacityError))


def test_absorb_rejects_vertices_already_on_the_path():
    g = Graph.complete(8)
    fam = (VAbsorber(0, (1, 2, 3, 4)),)
    pa = build_absorbing_path(g, 2, fam, seed=1)
    with pytest.raises(InputError):
        absorb(g, pa, {3})


def test_absorb_bulk_on_random_graph():
    g = gnp(60, Fraction(4, 5), seed=9)
    zeta = Fraction(1, 10)
    fam, _ = sample_family(g, 2, zeta, Fraction(1), seed=17, per_vertex_cap=1,
                           max_members=6)
    pa = build_absorbing_path(g, 2, fam, seed=17)
    off_path = [v for v in range(g.n) if not (pa.path.mask >> v) & 1]
    seg_masks = [mask_of(fam[m].clique) for m in pa.member_ids]
    xs = [v for v in off_path
          if any(g.adj[v] & m == m for m in seg_masks)][:3]
    assert len(xs) == 3
    out = absorb(g, pa, xs)
    assert is_valid_kpath(g, out)
    assert set(out.vertices) == set(pa.path.vertices) | set(xs)
    assert out.x_end == pa.path.x_end and out.y_end == pa.path.y_end


def test_absorption_preserves_validity_across_seeds():
    zeta = Fraction(1, 10)
    exercised = 0
    for seed in range(6):
        g = gnp(24, Fraction(17, 20), seed=seed)
        fam, _ = sample_family(g, 2, zeta, Fraction(1), seed=seed, per_vertex_cap=1,
                               max_members=3)
        if len(fam) < 2:
            continue
        try:
            pa = build_absorbing_path(g, 2, fam, seed=seed)
        except AssemblyError:
            continue
        seg_masks = [mask_of(fam[m].clique) for m in pa.member_ids]
        hosts = {v: {i for i, m in enumerate(seg_masks) if g.adj[v] & m == m}
                 for v in range(g.n) if not (pa.path.mask >> v) & 1}
        # two vertices that distinct segments host, so both must fit; two
        # non-adjacent vertices with one common host make absorb raise
        xs = next(([u, v] for u, v in combinations(sorted(hosts), 2)
                   if hosts[u] and hosts[v] and len(hosts[u] | hosts[v]) > 1),
                  [])
        if not xs:
            continue
        out = absorb(g, pa, xs)
        assert oracle_is_kpath(g, out.vertices, 2)
        assert set(out.vertices) == set(pa.path.vertices) | set(xs)
        exercised += 1
    assert exercised >= 3


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 8).flatmap(lambda segs: st.lists(
    st.lists(st.integers(0, segs - 1), unique=True).map(sorted)
    if segs else st.just([]), max_size=10)))
def test_match_agrees_with_recursive_oracle(rows):
    xs = list(range(100, 100 + len(rows)))
    usable = dict(zip(xs, rows))
    masks = {v: mask_of(row) for v, row in usable.items()}
    want, want_spill = recursive_match(xs, usable)
    _assert_same_matching(xs, masks, _match(xs, masks), len(want), want_spill)


def _assert_same_matching(xs, usable, got, size, spill):
    """got = (segment -> vertex, spill) is a matching of xs into their
    usable segments with the given size and spill list."""
    matched, got_spill = got
    assert got_spill == spill and len(matched) == size
    assert sorted([*matched.values(), *got_spill]) == sorted(xs)
    assert all(usable[v] >> i & 1 for i, v in matched.items())


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40).flatmap(lambda segs: st.lists(
    st.integers(0, (1 << segs) - 1)
    | st.lists(st.integers(0, segs - 1), max_size=3).map(mask_of),
    max_size=60)))
def test_match_agrees_with_lowest_first_match(masks):
    # the former walk from each root's lowest segment matches the same
    # roots, so only the segments they get may differ
    xs = list(range(len(masks)))
    usable = dict(zip(xs, masks))
    want, want_spill = lowest_first_match(xs, usable)
    _assert_same_matching(xs, usable, _match(xs, usable), len(want), want_spill)


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_absorb_survives_a_long_augmenting_chain():
    # segment i is path vertices 2i, 2i + 1; vertex 600 + j hosts segments
    # j and j + 1 and takes j free, and vertex 850 hosts only segment 0, so
    # its augmenting path walks 250 matched segments
    rows = [(1 << 600) - 1 ^ 1 << u for u in range(600)] + [0] * 251
    for x, segs in [(600 + j, (j, j + 1)) for j in range(250)] + [(850, (0,))]:
        for u in (w for i in segs for w in (2 * i, 2 * i + 1)):
            rows[x] |= 1 << u
            rows[u] |= 1 << x
    g = Graph(851, tuple(rows))
    starts = tuple(range(0, 600, 2))
    pa = AbsorbingPath(KPath(1, tuple(range(600))), tuple(range(300)), starts,
                       oracle_segment_hosts(g, range(600), 1, starts))
    xs = range(600, 851)
    want = absorb(g, pa, xs)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        got = absorb(g, pa, xs)
    finally:
        sys.setrecursionlimit(limit)
    assert got == want
    assert got.vertices[:3] == (0, 850, 1)
    assert set(got.vertices) == set(range(851))

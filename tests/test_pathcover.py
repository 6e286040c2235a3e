from fractions import Fraction
from itertools import combinations
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerham.errors import InputError, NoCliquesError
from powerham.generators import gnp
from powerham.graph import (Graph, common_neighborhood_mask, is_clique,
                            mask_of, verts_of)
from powerham.pathcover import (CliqueHypergraph, KPath,
                                build_clique_hypergraph, cover_with_paths,
                                greedy_tight_path, is_valid_kpath, prune,
                                _subtuples)

from oracles import lambda_greedy_tight_path, oracle_cliques, oracle_is_kpath


def brute_edges(g, k, live=None):
    live = verts_of(g.full_mask() if live is None else live)
    out = set()
    for vs in combinations(live, k + 1):
        if is_clique(g, vs):
            out.add(mask_of(vs))
    return out


def naive_prune_oracle(g, k, threshold, live=None):
    """Fixpoint by repeated full rescans; different order than the worklist."""
    edges = brute_edges(g, k, live)
    while True:
        deg = {}
        for e in edges:
            for s in _subtuples(e):
                deg[s] = deg.get(s, 0) + 1
        bad = {s for s, c in deg.items() if c <= threshold}
        keep = {e for e in edges if not any(s in bad for s in _subtuples(e))}
        if keep == edges:
            return edges
        edges = keep


# -------------------------------------------------------------- hypergraph

def test_build_k5():
    h = build_clique_hypergraph(Graph.complete(5), 2)
    assert h.edge_count() == 10
    assert all(dg == 3 for dg in h.degree.values())
    assert len(h.degree) == 10  # C(5,2) pairs


def test_build_c5_empty():
    h = build_clique_hypergraph(Graph.cycle(5), 2)
    assert h.is_empty and h.edge_count() == 0


def test_build_matches_brute_force():
    g = gnp(20, Fraction(7, 10), 6)
    h = build_clique_hypergraph(g, 2)
    assert set(h.iter_edges()) == brute_edges(g, 2)


def test_build_respects_within():
    g = Graph.complete(6)
    live = mask_of(range(4))
    h = build_clique_hypergraph(g, 2, within=live)
    assert h.edge_count() == 4  # C(4,3)
    assert all(dg == 2 for dg in h.degree.values())


def test_prune_k5_thresholds():
    h = build_clique_hypergraph(Graph.complete(5), 2)
    assert prune(h, 2).edge_count() == 10  # degrees 3 > 2: unchanged
    p = prune(h, 3)
    assert p.is_empty and p.edge_count() == 0


def test_prune_triangle_plus_k6():
    edges = [(0, 1), (1, 2), (0, 2)]
    edges += [(u, v) for u in range(3, 9) for v in range(u + 1, 9)]
    g = Graph.from_edges(9, edges)
    p = prune(build_clique_hypergraph(g, 2), 1)
    assert p.edge_count() == 20  # C(6,3) survive
    assert mask_of((0, 1, 2)) not in set(p.iter_edges())
    assert all(dg == 4 for dg in p.degree.values())


def test_prune_fixpoint_by_rescan():
    g = gnp(15, Fraction(1, 2), 3)
    p = prune(build_clique_hypergraph(g, 2), 2)
    live_edges = set(p.iter_edges())
    for tm, dg in p.degree.items():
        incident = [e for e in live_edges if e & tm == tm]
        assert len(incident) == dg
        assert dg > 2


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(5, 13), st.integers(0, 4))
def test_prune_confluence(seed, n, threshold):
    g = gnp(n, Fraction(3, 5), seed)
    p = prune(build_clique_hypergraph(g, 2), threshold)
    assert set(p.iter_edges()) == naive_prune_oracle(g, 2, threshold)


# ------------------------------------------------------------ greedy paths

def test_greedy_complete_graph_covers_everything():
    h = build_clique_hypergraph(Graph.complete(12), 2)
    p = greedy_tight_path(h, 5)
    assert len(p) == 12
    assert is_valid_kpath(Graph.complete(12), p)


def test_greedy_single_hyperedge():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    p = greedy_tight_path(build_clique_hypergraph(g, 2), 0)
    assert p.vertices == (0, 1, 2)


def test_greedy_empty_raises():
    with pytest.raises(NoCliquesError):
        greedy_tight_path(build_clique_hypergraph(Graph.cycle(5), 2), 0)


def test_greedy_validity_and_maximality():
    g = gnp(25, Fraction(3, 4), 8)
    h = prune(build_clique_hypergraph(g, 2), ceil(0.1 * 25))
    for seed in range(6):
        p = greedy_tight_path(h, seed)
        assert is_valid_kpath(g, p)
        assert oracle_is_kpath(g, p.vertices, 2)
        used = p.mask
        for end in (p.x_end, p.y_end):
            tm = mask_of(end)
            ext = common_neighborhood_mask(g, end) & h.live & ~used
            for w in verts_of(ext):
                assert (tm | 1 << w) in h.removed  # no unused extension alive


def test_greedy_lemma_scale_bound():
    # pruned at ceil(zeta*n) and nonempty forces a path that long
    zeta = Fraction(1, 5)
    for seed in (1, 4, 9):
        g = gnp(30, Fraction(4, 5), seed)
        h = prune(build_clique_hypergraph(g, 2), ceil(zeta * 30))
        assert not h.is_empty
        p = greedy_tight_path(h, seed)
        assert len(p) >= ceil(zeta * 30)


def test_greedy_k1_path():
    g = Graph.cycle(6)
    p = greedy_tight_path(build_clique_hypergraph(g, 1), 2)
    assert is_valid_kpath(g, p)
    assert len(p) == 6  # maximality walks the whole cycle


# ------------------------------------------------------------------ covers

def test_cover_complete_graph():
    pc = cover_with_paths(Graph.complete(30), 2, 0, 0, 7)
    assert len(pc.paths) == 1 and len(pc.paths[0]) == 30
    assert pc.leftover == () and pc.reached_stop


def test_cover_no_cliques():
    pc = cover_with_paths(Graph.cycle(5), 2, 0, 0, 7)
    assert pc.paths == () and pc.leftover == (0, 1, 2, 3, 4)
    assert not pc.reached_stop


def test_cover_gnp_fixture():
    g = gnp(60, Fraction(7, 10), 12)
    pc = cover_with_paths(g, 2, 0, 6, 3)
    assert len(pc.leftover) <= 6 and pc.reached_stop
    seen = set()
    for p in pc.paths:
        assert is_valid_kpath(g, p)
        assert not (set(p.vertices) & seen)
        seen |= set(p.vertices)
    assert seen | set(pc.leftover) == set(range(60))


def test_cover_respects_excluded():
    g = Graph.complete(20)
    pc = cover_with_paths(g, 2, mask_of(range(10)), 0, 1)
    assert all(v >= 10 for p in pc.paths for v in p.vertices)
    assert pc.leftover == ()


def test_cover_is_one_path_of_two_disjoint_cliques():
    # the path takes one K5 and leaves the other, though stop 0 asks for all
    g = Graph.from_edges(10, list(combinations(range(5), 2))
                         + list(combinations(range(5, 10), 2)))
    pc = cover_with_paths(g, 2, 0, 0, 3)
    assert len(pc.paths) == 1 and len(pc.paths[0]) == 5
    assert len(pc.leftover) == 5 and not pc.reached_stop
    assert set(pc.paths[0].vertices) | set(pc.leftover) == set(range(10))


def test_cover_determinism():
    g = gnp(30, Fraction(3, 4), 2)
    a = cover_with_paths(g, 2, 0, 3, 42)
    b = cover_with_paths(g, 2, 0, 3, 42)
    assert a == b


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(2, 12), st.integers(1, 3),
       st.sampled_from((Fraction(1, 2), Fraction(3, 4), Fraction(9, 10))),
       st.integers(0, 2 ** 12 - 1), st.integers(0, 12), st.integers(0, 12))
def test_cover_is_one_path_whose_leftover_completes_the_live_set(
        seed, n, k, p, excluded, stop_size, extra):
    g = gnp(n, p, seed)
    live = set(verts_of(g.full_mask() & ~excluded))
    pc = cover_with_paths(g, k, excluded, stop_size, seed)
    assert len(pc.paths) <= 1
    covered = set(pc.paths[0].vertices) if pc.paths else set()
    left = set(pc.leftover)
    assert not covered & left and covered | left == live
    if pc.paths:
        path = pc.paths[0]
        assert oracle_is_kpath(g, path.vertices, k)
        assert len(path) <= max(k + 1, len(live) - stop_size)
    if not pc.reached_stop:
        # short of the stop: the path is maximal, or nothing could start one
        if pc.paths:
            for end in (path.x_end, path.y_end):
                assert not any(all(g.has_edge(w, u) for u in end)
                               for w in left)
        else:
            assert oracle_cliques(g, k + 1, within=live) == []

    h = build_clique_hypergraph(g, k, within=mask_of(live))
    limit = k + 1 + extra
    if oracle_cliques(g, k + 1, within=live):
        path = greedy_tight_path(h, seed, limit=limit)
        assert len(path) <= limit and set(path.vertices) <= live
        assert oracle_is_kpath(g, path.vertices, k)
    else:
        with pytest.raises(NoCliquesError):
            greedy_tight_path(h, seed, limit=limit)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(2, 40), st.integers(1, 3),
       st.sampled_from((Fraction(1, 2), Fraction(3, 4), Fraction(9, 10))),
       st.integers(0, 2 ** 40 - 1), st.one_of(st.none(), st.integers(0, 3)),
       st.one_of(st.none(), st.integers(0, 40)), st.integers(0, 2 ** 64 - 1))
def test_greedy_matches_lambda_scoring(gseed, n, k, p, excluded, threshold,
                                       extra, seed):
    g = gnp(n, p, gseed)
    h = build_clique_hypergraph(g, k, within=g.full_mask() & ~excluded)
    if threshold is not None:
        h = prune(h, threshold)
    limit = None if extra is None else k + 1 + extra
    try:
        want = lambda_greedy_tight_path(h, seed, limit)
    except NoCliquesError:
        with pytest.raises(NoCliquesError):
            greedy_tight_path(h, seed, limit)
        return
    assert greedy_tight_path(h, seed, limit) == KPath(k, want)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 30), st.integers(1, 4),
       st.sampled_from((Fraction(1, 2), Fraction(9, 10), Fraction(1))),
       st.data())
def test_is_valid_kpath_matches_window_oracle(gseed, n, k, p, data):
    g = gnp(n, p, gseed)
    vs = data.draw(st.permutations(range(n)))
    if len(vs) < k:
        return
    # grow a valid prefix greedily, then take any slice, so both answers occur
    order = [vs[0]]
    for v in vs[1:]:
        if all(g.has_edge(v, u) for u in order[-k:]):
            order.append(v)
    order += [v for v in vs if v not in order]
    lo = data.draw(st.integers(0, n - k))
    kp = KPath(k, tuple(order[lo:lo + data.draw(st.integers(k, n - lo))]))
    assert is_valid_kpath(g, kp) == oracle_is_kpath(g, kp.vertices, k)


def test_greedy_limit_below_an_edge_is_refused():
    with pytest.raises(InputError):
        greedy_tight_path(build_clique_hypergraph(Graph.complete(6), 2), 0, 2)


# ------------------------------------------------------------------ shapes

def test_kpath_shape_errors():
    with pytest.raises(InputError):
        KPath(2, (0,))
    with pytest.raises(InputError):
        KPath(1, (0, 1, 1))
    with pytest.raises(InputError):
        KPath(0, (0, 1))


def test_kpath_ends():
    p = KPath(2, (4, 7, 1, 3))
    assert p.x_end == (4, 7) and p.y_end == (1, 3)
    assert is_valid_kpath(Graph.complete(8), p)
    assert not is_valid_kpath(Graph.cycle(8), p)

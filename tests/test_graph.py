"""Graph core: construction, counting, clique listing, text round-trip."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerham.errors import InputError
from powerham.graph import (MAX_VERTICES, Graph, common_neighborhood_mask,
                            count_cliques, count_ordered_cliques,
                            edges_between, from_text, is_clique, iter_bits,
                            list_cliques, mask_of, to_text, verts_of)
from powerham import generators

import oracles


def gnp(n, p, seed):
    from fractions import Fraction
    return generators.gnp(n, Fraction(p), seed)


# ---------------------------------------------------------------- basics

def test_construction_rejects_bad_input():
    with pytest.raises(InputError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(InputError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(InputError):
        Graph(2, (0b10, 0b00))  # asymmetric rows
    with pytest.raises(InputError):
        Graph(0, ())


def test_mask_helpers_roundtrip():
    assert verts_of(mask_of([5, 1, 3])) == (1, 3, 5)
    assert list(iter_bits(0b101001)) == [0, 3, 5]
    assert verts_of(0) == ()


def test_neighbors_examples():
    # the common neighborhood of one vertex is its neighborhood
    def nbrs(g, v):
        return verts_of(common_neighborhood_mask(g, (v,)))
    assert nbrs(Graph.complete(4), 0) == (1, 2, 3)
    assert nbrs(Graph.edgeless(3), 1) == ()
    assert nbrs(Graph.cycle(5), 2) == (1, 3)


def test_common_neighborhood_examples():
    c5 = Graph.cycle(5)
    assert verts_of(common_neighborhood_mask(Graph.complete(5), (0, 1))) == \
        (2, 3, 4)
    assert common_neighborhood_mask(c5, (0, 1)) == 0
    # a non-clique gets no special treatment
    assert verts_of(common_neighborhood_mask(c5, (0, 2))) == (1,)
    assert common_neighborhood_mask(c5, ()) == c5.full_mask()


def test_common_neighborhood_in_overlap_block():
    from fractions import Fraction
    g, a, b = generators.two_overlapping_cliques_parts(12, Fraction(1, 3))
    shared = sorted(a & b)
    t = (shared[0], shared[1])
    got = common_neighborhood_mask(g, t)
    want = mask_of(set(range(12)) - set(t))
    assert got == want  # intersection vertices see everything


def test_edges_between_examples():
    k33 = generators.complete_multipartite([3, 3])
    a, b = {0, 1, 2}, {3, 4, 5}
    assert edges_between(k33, a, b) == 9
    g = Graph.cycle(4)
    assert edges_between(g, range(4), range(4)) == 2 * g.edge_count
    # overlapping sets: the ordered-pair definition is the oracle
    assert edges_between(g, {0, 1}, {1, 2}) == \
        oracles.oracle_edges_between(g, {0, 1}, {1, 2}) == 2


def test_clique_counts_examples():
    assert count_ordered_cliques(Graph.complete(4), 3) == 24
    assert count_ordered_cliques(Graph.cycle(5), 3) == 0
    assert count_ordered_cliques(Graph.complete(4), 5) == 0  # k > n
    assert count_ordered_cliques(Graph.complete(3), 0) == 1  # empty tuple
    g = gnp(20, 0.5, 7)
    assert count_ordered_cliques(g, 3) == oracles.oracle_ordered_clique_count(g, 3)


def test_list_cliques_examples():
    assert len(list(list_cliques(Graph.complete(4), 2))) == 6
    g = gnp(10, 0.7, 1)
    singles = list(list_cliques(g, 1, within={2, 5, 7}))
    assert singles == [(2,), (5,), (7,)]
    g15 = gnp(15, 0.6, 3)
    assert list(list_cliques(g15, 3)) == oracles.oracle_cliques(g15, 3)


def test_list_cliques_within_restricts():
    g = Graph.complete(6)
    inside = list(list_cliques(g, 2, within={1, 3, 4}))
    assert inside == [(1, 3), (1, 4), (3, 4)]


def test_is_clique():
    g = Graph.cycle(5)
    assert is_clique(g, (0, 1))
    assert not is_clique(g, (0, 2))
    assert not is_clique(g, (0, 0))
    assert is_clique(g, ())


# ------------------------------------------------------------ properties

@settings(max_examples=40, deadline=None)
@given(st.integers(4, 32), st.integers(0, 2 ** 32))
def test_edges_between_v_v_is_twice_edge_count(n, seed):
    g = gnp(n, 0.4, seed)
    assert edges_between(g, range(n), range(n)) == 2 * g.edge_count


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 12), st.integers(0, 2 ** 32), st.integers(1, 4))
def test_ordered_counts_match_listing(n, seed, k):
    g = gnp(n, 0.6, seed)
    unordered = len(list(list_cliques(g, k)))
    assert count_ordered_cliques(g, k) == math.factorial(k) * unordered
    assert unordered == len(oracles.oracle_cliques(g, k))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 14), st.integers(0, 2 ** 32), st.data())
def test_common_neighborhood_mask_matches_edge_set(n, seed, data):
    g = gnp(n, 0.6, seed)
    verts = data.draw(st.lists(st.integers(0, n - 1), max_size=5))
    es = oracles.edge_set(g)
    want = {u for u in range(n)
            if all(frozenset((u, v)) in es for v in verts)}
    assert set(iter_bits(common_neighborhood_mask(g, verts))) == want


def test_clique_count_lemma_bound_small():
    """Certified (rho, d)-dense graphs carry the promised clique supply."""
    from fractions import Fraction
    from powerham.properties import denseness_exact

    d = Fraction(1, 2)
    for seed in range(6):
        g = gnp(12, 0.7, seed)
        rho = denseness_exact(g, d).rho_star
        for k in range(2, 5):
            bound = (d ** math.comb(k, 2) - (k - 1) * k * rho) * g.n ** k
            assert count_ordered_cliques(g, k) >= bound


# ------------------------------------------------------------ text format

def test_text_round_trip_examples():
    g = gnp(13, 0.4, 9)
    text = to_text(g)
    assert from_text(text).adj == g.adj
    assert to_text(from_text(text)) == text


def test_text_format_parses_comments_and_rejects_garbage():
    text = "# a comment\np 3 2\ne 0 1\n# another\ne 1 2\n"
    g = from_text(text)
    assert g.n == 3 and g.edge_count == 2
    with pytest.raises(InputError):
        from_text("e 0 1\n")  # edge before header
    with pytest.raises(InputError):
        from_text("p 3 5\ne 0 1\n")  # header miscounts
    with pytest.raises(InputError):
        from_text("p 2 1\nq 0 1\n")
    with pytest.raises(InputError):
        from_text("p x 1\n")  # non-integer field
    with pytest.raises(InputError):
        from_text("p 2 1\ne 0 y\n")


@pytest.mark.parametrize("n", [100_000, 3_000_000, 10_000_000_000])
def test_text_header_above_vertex_cap_is_refused(n):
    # refused at the header: the rows are never allocated
    with pytest.raises(InputError, match="exceed the cap"):
        from_text(f"p {n} 0\n")


def test_text_header_at_vertex_cap_parses():
    assert from_text(f"p {MAX_VERTICES} 0\n").n == MAX_VERTICES

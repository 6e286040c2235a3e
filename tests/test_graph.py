"""Graph core: construction, counting, clique listing, text round-trip."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerham.errors import InputError
from powerham.graph import (MAX_VERTICES, Graph, common_neighborhood_mask,
                            count_cliques, count_ordered_cliques,
                            edges_between, from_text, is_clique,
                            list_cliques, mask_of, nth_bit, to_text,
                            verts_of)
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


def test_construction_checks_rows_by_bit_length():
    # an empty row costs nothing to check, whatever n is
    assert Graph(MAX_VERTICES, (0,) * MAX_VERTICES).n == MAX_VERTICES
    with pytest.raises(InputError, match="mentions vertices >= n"):
        Graph(2, (-1, 0))
    with pytest.raises(InputError, match="mentions vertices >= n"):
        Graph(3, (0b1000, 0, 0))


def _flip(rows, v, u):
    """The rows with bit u of row v flipped, row u left as it is."""
    return rows[:v] + (rows[v] ^ 1 << u,) + rows[v + 1:]


@pytest.mark.parametrize("n, p", [(100, 3 / 4), (300, 1 / 2), (200, 1 / 50)])
def test_asymmetric_bit_above_word_names_first_pair(n, p):
    # dense rows take the slab check and sparse ones the per-edge loop; both
    # report the first (v, u) with u in row v and v not in row u
    g = gnp(n, p, 3)
    for v, u in [(5, 70), (70, 5), (64, n - 1), (n - 1, 64), (n - 2, n - 1)]:
        rows = _flip(g.adj, v, u)
        want = oracles.first_asymmetric_pair(rows)
        # an added bit names (v, u); a dropped one names (u, v)
        assert want == ((v, u) if rows[v] >> u & 1 else (u, v))
        with pytest.raises(InputError,
                           match=f"^edge {want[0]}-{want[1]} is not symmetric$"):
            Graph(n, rows)


@settings(max_examples=40, deadline=None)
@given(st.integers(65, 300), st.integers(0, 2 ** 32), st.data())
def test_asymmetric_rows_report_the_first_pair(n, seed, data):
    g = gnp(n, data.draw(st.sampled_from([1 / 2, 3 / 4, 1])), seed)
    rows = g.adj
    for _ in range(data.draw(st.integers(1, 4))):
        v, u = data.draw(st.lists(st.integers(0, n - 1), min_size=2,
                                  max_size=2, unique=True))
        rows = _flip(rows, v, u)
    want = oracles.first_asymmetric_pair(rows)
    if want is None:
        assert Graph(n, rows).adj == rows
    else:
        with pytest.raises(InputError,
                           match=f"^edge {want[0]}-{want[1]} is not symmetric$"):
            Graph(n, rows)


def test_loop_and_range_checks_above_word():
    g = gnp(150, 3 / 4, 1)
    with pytest.raises(InputError, match="^loop at vertex 100$"):
        Graph(150, _flip(g.adj, 100, 100))
    with pytest.raises(InputError, match="^adjacency row 120 mentions vertices >= n$"):
        Graph(150, _flip(g.adj, 120, 150))
    with pytest.raises(InputError, match="^adjacency row 80 mentions vertices >= n$"):
        Graph(150, g.adj[:80] + (-g.adj[80],) + g.adj[81:])


def test_complete_5000_builds():
    g = Graph.complete(5000)
    assert g.edge_count == 5000 * 4999 // 2
    assert g.degree(0) == g.degree(4999) == 4999


def test_mask_helpers_roundtrip():
    assert verts_of(mask_of([5, 1, 3])) == (1, 3, 5)
    assert verts_of(0b101001) == (0, 3, 5)
    assert verts_of(0) == ()


def _dense_and_sparse(width, seed):
    """Masks of bit width `width`, about 3/4 and about 1/16 of bits set."""
    bits = random.Random(seed).getrandbits
    a, b, c, d = (bits(width - 1) for _ in range(4))
    return (a | b) | 1 << width - 1, (a & b & c & d) | 1 << width - 1


# verts_of scans masks over 256 bits wide with over 1/8 of their bits set
@pytest.mark.parametrize("mask", [
    0, 1, 1 << 255, 1 << 256, 1 << 257, 1 << 4095, (1 << 4096) - 1,
    (1 << 255) - 1, (1 << 256) - 1, (1 << 257) - 1, (1 << 257) | 1,
    int("1" * 37 + "0" * 264, 2),   # 37 of 301 bits: below the density gate
    int("1" * 38 + "0" * 263, 2),   # 38 of 301 bits: above it
    *(m for w in (60, 256, 257, 600, 4000) for s in range(3)
      for m in _dense_and_sparse(w, s)),
])
def test_verts_of_matches_bit_by_bit_reading(mask):
    want = tuple(v for v in range(mask.bit_length()) if mask >> v & 1)
    assert verts_of(mask) == want
    assert mask_of(verts_of(mask)) == mask


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
    singles = list(list_cliques(g, 1, within=mask_of((2, 5, 7))))
    assert singles == [(2,), (5,), (7,)]
    g15 = gnp(15, 0.6, 3)
    assert list(list_cliques(g15, 3)) == oracles.oracle_cliques(g15, 3)


def test_list_cliques_within_restricts():
    g = Graph.complete(6)
    inside = list(list_cliques(g, 2, within=mask_of((1, 3, 4))))
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
    assert set(verts_of(common_neighborhood_mask(g, verts))) == want


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(1, (1 << 700) - 1),
                 st.sets(st.integers(0, 699), min_size=1).map(mask_of)),
       st.data())
def test_nth_bit_indexes_verts_of(mask, data):
    verts = verts_of(mask)
    for i in (0, len(verts) - 1,
              data.draw(st.integers(0, len(verts) - 1))):
        assert nth_bit(mask, i) == verts[i]
    with pytest.raises(IndexError):
        nth_bit(mask, len(verts))


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


def test_text_errors_keep_line_numbers_above_word():
    g = gnp(100, 3 / 4, 2)
    lines = to_text(g).splitlines()
    # a comment, a blank line and spaces in the body still parse
    body = lines[:1] + ["# note", ""] + ["  " + ln + " " for ln in lines[1:]]
    assert from_text("\n".join(body)).adj == g.adj
    for lineno, bad, msg in [
            (40, "e 3", "edge must be 'e <u> <v>'"),
            (41, "e 3 x", "not an integer in \\['3', 'x'\\]"),
            (42, "f 3 4", "unknown record 'f'"),
            (43, "p 100 7", "second header")]:
        text = "\n".join(lines[:lineno - 1] + [bad] + lines[lineno:])
        with pytest.raises(InputError, match=f"^line {lineno}: {msg}$"):
            from_text(text)
    # a duplicate edge line sets no new bit, so the count no longer matches
    m = g.edge_count
    with pytest.raises(InputError,
                       match=f"^header declares {m + 1} edges, body has {m}$"):
        from_text("\n".join([f"p 100 {m + 1}"] + lines[1:] + [lines[-1]]))
    with pytest.raises(InputError, match=r"^edge \(7, 100\) out of range for n=100$"):
        from_text("\n".join(lines[:1] + ["e 7 100"] + lines[1:]))
    with pytest.raises(InputError, match="^loop at vertex 99$"):
        from_text("\n".join(lines + ["e 99 99"]))


@pytest.mark.parametrize("n", [100_000, 3_000_000, 10_000_000_000])
def test_text_header_above_vertex_cap_is_refused(n):
    # refused at the header: the rows are never allocated
    with pytest.raises(InputError, match="exceed the cap"):
        from_text(f"p {n} 0\n")


def test_text_header_at_vertex_cap_parses():
    assert from_text(f"p {MAX_VERTICES} 0\n").n == MAX_VERTICES

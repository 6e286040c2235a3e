"""Seeded families: structure fixtures and determinism."""

from fractions import Fraction
from math import floor

import pytest

from powerham import generators
from powerham.errors import InputError
from powerham.graph import Graph, count_cliques, to_text
from powerham.properties import denseness_exact, inseparable_exact
from powerham.rng import SplitMix64

import oracles

THIRD = Fraction(1, 3)


def test_two_overlapping_cliques_block_structure():
    g, a, b = generators.two_overlapping_cliques_parts(12, THIRD)
    assert g.n == 12
    assert len(a) == len(b) == 8
    assert len(a & b) == 4
    assert a | b == set(range(12))
    # both cliques complete, nothing across the private blocks
    assert oracles.oracle_edges_within(g, a) == 28
    assert oracles.oracle_edges_within(g, b) == 28
    assert oracles.oracle_edges_between(g, a - b, b - a) == 0
    # every vertex degree >= clique size - 1
    assert min(map(g.degree, range(g.n))) >= 7


def test_two_overlapping_cliques_degenerate_single_clique():
    g = generators.two_overlapping_cliques(8, Fraction(1))
    assert g.edge_count == 28  # K_8


def test_two_overlapping_cliques_denseness_fixture():
    g = generators.two_overlapping_cliques(12, THIRD)
    rep = denseness_exact(g, Fraction(1, 2))
    # the sparse corner between the private blocks costs a little density
    assert rep.rho_star == Fraction(1, 36)


def test_two_overlapping_cliques_rejects_bad_mu():
    with pytest.raises(InputError):
        generators.two_overlapping_cliques(10, Fraction(0))
    with pytest.raises(InputError):
        generators.two_overlapping_cliques(10, Fraction(3, 2))


def test_complete_multipartite_shapes():
    k34 = generators.complete_multipartite([3, 4])
    assert k34.n == 7 and k34.edge_count == 12
    k222 = generators.complete_multipartite([2, 2, 2])
    assert k222.edge_count == 12
    assert generators.complete_multipartite([1]).edge_count == 0
    with pytest.raises(InputError):
        generators.complete_multipartite([])


def test_gnp_endpoints_and_fixture():
    assert generators.gnp(6, Fraction(1), 0).edge_count == 15
    assert generators.gnp(6, Fraction(0), 0).edge_count == 0
    g = generators.gnp(20, Fraction(1, 2), 1)
    # binomial(190, 1/2): mean 95, sd ~ 6.9; the fixed seed must stay in 3 sd
    assert abs(g.edge_count - 95) <= 21
    # regression fixture for cross-version stability
    assert g.edge_count == generators.gnp(20, Fraction(1, 2), 1).edge_count
    assert to_text(g) == to_text(generators.gnp(20, Fraction(1, 2), 1))


@pytest.mark.parametrize("family", [generators.gnp,
                                    generators.random_bipartite])
def test_edge_probability_outside_unit_interval(family):
    for p in (Fraction(2), Fraction(-1, 2)):
        with pytest.raises(InputError):
            family(6, p, 0)


# a probability whose chance() threshold ceil(p_num 2**64 / q) is no whole
# number, next to the endpoints and the usual rationals
ODD = Fraction(12345678901, 12345678902)


@pytest.mark.parametrize("p", [Fraction(0), Fraction(1), THIRD,
                               Fraction(1, 2), Fraction(3, 4), ODD])
def test_random_families_match_per_pair_oracle(p):
    # sizes on both sides of the 64-bit word boundary, and seeds that are
    # masked to 64 bits
    for n in [*range(1, 71), 129]:
        for seed in (0, 7, 2 ** 64 + 5):
            assert generators.gnp(n, p, seed).adj == \
                oracles.per_pair_rows(n, p, seed), (n, seed)
            if n >= 2:
                assert generators.random_bipartite(n, p, seed).adj == \
                    oracles.per_pair_rows(n, p, seed, bipartite=True), (n, seed)


def _seed_for_first_word(u):
    """A seed whose first SplitMix64 word is u: each mixing step inverts."""
    mod = 1 << 64

    def unshift(z, s):   # inverse of z ^= z >> s
        x = z
        for _ in range(64 // s):
            x = z ^ (x >> s)
        return x

    z = unshift(u, 31) * pow(0x94D049BB133111EB, -1, mod) % mod
    z = unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, mod) % mod
    return (unshift(z, 30) - 0x9E3779B97F4A7C15) % mod


@pytest.mark.parametrize("p", [Fraction(0), Fraction(1), THIRD,
                               Fraction(3, 4), ODD])
def test_random_families_keep_a_pair_exactly_below_the_chance_boundary(p):
    # n = 2 draws one word; chance(p) keeps u iff u * q < p_num * 2**64
    last = ((p.numerator << 64) - 1) // p.denominator   # largest kept word
    for u in (last, last + 1):
        if not 0 <= u < 1 << 64:
            continue
        seed = _seed_for_first_word(u)
        assert SplitMix64(seed).next_u64() == u
        kept = u == last
        assert SplitMix64(seed).chance(p) == kept
        assert generators.gnp(2, p, seed).edge_count == kept, u
        assert generators.random_bipartite(2, p, seed).edge_count == kept, u


def test_random_bipartite_structure():
    g = generators.random_bipartite(16, Fraction(4, 5), 4)
    half = 8
    for u in range(half):
        for v in range(half):
            assert not g.has_edge(u, v) or u == v or True
    assert all(g.adj[u] >> 0 & ((1 << half) - 1) == 0 for u in range(half))
    assert count_cliques(g, 3) == 0
    full = generators.random_bipartite(9, Fraction(1), 0)
    assert full.edge_count == 4 * 5  # floor/ceil sides


def test_random_bipartite_inseparability_fixture():
    g = generators.random_bipartite(20, Fraction(4, 5), 9)
    mu = inseparable_exact(g).mu_star
    assert mu > 0
    # regression fixture recorded from the exact scan (the scan is the oracle)
    assert mu == Fraction(11, 36)
    small = generators.random_bipartite(8, Fraction(4, 5), 9)
    assert inseparable_exact(small).mu_star == oracles.oracle_inseparability(small)


def test_clique_complement_structure():
    g = generators.clique_complement(10, Fraction(2, 5))
    ind, clique = set(range(6)), set(range(6, 10))
    assert oracles.oracle_edges_within(g, ind) == 0
    assert oracles.oracle_edges_within(g, clique) == 6
    assert oracles.oracle_edges_between(g, ind, clique) == 24
    assert inseparable_exact(g).mu_star > 0
    assert generators.clique_complement(7, Fraction(1)).edge_count == 21


def test_block_families_match_edge_list_definitions():
    def by_edges(n, joined):
        return Graph.from_edges(n, [(u, v) for u in range(n)
                                    for v in range(u + 1, n) if joined(u, v)])

    mus = sorted({Fraction(a, b) for b in range(1, 7) for a in range(1, b + 1)})
    for n in range(1, 16):
        for mu in mus:
            ind = floor((1 - mu) * n)
            assert generators.clique_complement(n, mu).adj == by_edges(
                n, lambda u, v: v >= ind).adj, (n, mu)
            try:
                g, a, b = generators.two_overlapping_cliques_parts(n, mu)
            except InputError as e:
                assert "block sizes" in str(e), (n, mu)
                continue
            assert a | b == set(range(n))
            assert g.adj == by_edges(
                n, lambda u, v: {u, v} <= a or {u, v} <= b).adj, (n, mu)
    for parts in ([1], [3], [1, 1], [2, 3], [1, 4, 2], [3, 1, 1, 2], [2] * 5):
        part = [i for i, s in enumerate(parts) for _ in range(s)]
        assert generators.complete_multipartite(parts).adj == by_edges(
            len(part), lambda u, v: part[u] != part[v]).adj, parts


def test_genspec_roundtrip_dispatch():
    spec = generators.GenSpec("gnp", {"n": 10, "p": "1/2"}, seed=3)
    g1 = generators.generate(spec)
    g2 = generators.gnp(10, Fraction(1, 2), 3)
    assert g1.adj == g2.adj
    assert '"family":"gnp"' in spec.to_json()
    with pytest.raises(InputError):
        generators.generate(generators.GenSpec("nope", {}))


def test_determinism_byte_identical():
    for fam, build in [
        ("gnp", lambda: generators.gnp(18, Fraction(3, 10), 77)),
        ("bip", lambda: generators.random_bipartite(15, Fraction(1, 3), 8)),
        ("two", lambda: generators.two_overlapping_cliques(13, Fraction(2, 5))),
        ("cc", lambda: generators.clique_complement(11, Fraction(1, 2))),
    ]:
        assert to_text(build()) == to_text(build()), fam

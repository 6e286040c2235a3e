"""Density, inseparability, connectable cliques, robust matchability."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerham import generators
from powerham.errors import InputError, SizeError
from powerham.graph import Graph, edges_between, list_cliques
from powerham.properties import (_random_mask, bipartite_denseness_exact,
                                 denseness_exact, denseness_heuristic,
                                 inseparable_exact, inseparable_heuristic,
                                 is_connectable, robustly_matchable_exact)
from powerham.rng import SplitMix64

import oracles

HALF = Fraction(1, 2)


def gnp(n, p, seed):
    return generators.gnp(n, Fraction(p), seed)


# ------------------------------------------------------------- denseness

def test_denseness_complete_graph():
    for n in (3, 5, 8):
        rep = denseness_exact(Graph.complete(n), Fraction(1))
        assert rep.rho_star == Fraction(1, 2 * n)
        assert rep.witness == tuple(range(n))


def test_denseness_edgeless_and_bipartite():
    assert denseness_exact(Graph.edgeless(6), Fraction(0)).rho_star == 0
    rep = denseness_exact(generators.complete_multipartite([4, 4]), HALF)
    assert rep.rho_star == Fraction(1, 16)
    assert rep.witness == (0, 1, 2, 3)  # lex-least of the two sides


@settings(max_examples=15, deadline=None)
@given(st.integers(3, 8), st.integers(0, 2 ** 32))
def test_denseness_matches_bruteforce(n, seed):
    g = gnp(n, 0.5, seed)
    rep = denseness_exact(g, HALF)
    rho, witness = oracles.oracle_denseness(g, HALF)
    assert rep.rho_star == rho
    # the library witness must attain the maximum deficit
    deficit = HALF * len(rep.witness) ** 2 / 2 - oracles.oracle_edges_within(
        g, rep.witness)
    assert deficit == rho * n * n


def test_denseness_size_cap():
    with pytest.raises(SizeError):
        denseness_exact(Graph.edgeless(27), HALF)


def test_denseness_heuristic_sound_and_finds_bipartite_gap():
    g = generators.complete_multipartite([4, 4])
    rep = denseness_heuristic(g, HALF, seed=3, budget=5000)
    assert rep.rho_star == Fraction(1, 16)  # finds a full side here
    for seed in range(4):
        h = gnp(12, 0.4, seed)
        heur = denseness_heuristic(h, HALF, seed=seed, budget=4000)
        exact = denseness_exact(h, HALF)
        assert heur.rho_star <= exact.rho_star
        assert heur.rho_star >= 0


# -------------------------------------------------------- inseparability

def test_inseparable_complete_and_disconnected():
    rep = inseparable_exact(Graph.complete(6))
    assert rep.mu_star == 1
    assert rep.witness == (0,)
    two = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    rep = inseparable_exact(two)
    assert rep.mu_star == 0
    assert rep.witness == (0, 1, 2)


def test_inseparable_two_overlapping_cliques_fixture():
    g = generators.two_overlapping_cliques(12, Fraction(1, 3))
    rep = inseparable_exact(g)
    assert rep.mu_star > 0
    # regression fixture, first computed by this very scan (it is the oracle)
    assert rep.mu_star == HALF
    assert rep.mu_star == oracles.oracle_inseparability(g)


@settings(max_examples=12, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2 ** 32))
def test_inseparable_matches_bruteforce(n, seed):
    g = gnp(n, 0.6, seed)
    assert inseparable_exact(g).mu_star == oracles.oracle_inseparability(g)


def test_inseparable_heuristic_examples():
    assert inseparable_heuristic(Graph.complete(7), seed=1).mu_star == 1
    two = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert inseparable_heuristic(two, seed=1).mu_star == 0


def test_inseparable_heuristic_vs_exact_gap():
    g = gnp(24, 0.4, 5)
    heur = inseparable_heuristic(g, seed=5, budget=4000)
    exact = inseparable_exact(g)
    assert heur.mu_star >= exact.mu_star
    # the heuristic exhibits a real cut, so its value is attained
    x = set(heur.witness)
    cut = edges_between(g, x, set(range(g.n)) - x)
    assert heur.mu_star == Fraction(cut, len(x) * (g.n - len(x)))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10), st.sampled_from(["1/5", "1/2", "4/5"]),
       st.integers(0, 2 ** 32), st.integers(0, 2 ** 16))
def test_inseparable_heuristic_ratio_is_its_witness_cut(n, p, gseed, seed):
    g = gnp(n, p, gseed)
    heur = inseparable_heuristic(g, seed=seed, budget=300)
    x = set(heur.witness)
    assert 0 < len(x) < n
    cut = oracles.oracle_edges_between(g, x, set(range(n)) - x)
    assert heur.mu_star == Fraction(cut, len(x) * (n - len(x)))
    assert heur.mu_star >= inseparable_exact(g).mu_star


@pytest.mark.parametrize("g, seed, budget, mu, witness", [
    (gnp(24, "2/5", 5), 5, 4000, Fraction(4, 23),
     tuple(v for v in range(24) if v != 9)),
    (generators.two_overlapping_cliques(30, Fraction(1, 3)), 1, 3000,
     HALF, tuple(range(10))),
    (Graph.cycle(12), 0, 2000, Fraction(1, 18), tuple(range(6))),
])
def test_inseparable_heuristic_pinned(g, seed, budget, mu, witness):
    rep = inseparable_heuristic(g, seed=seed, budget=budget)
    assert (rep.mu_star, rep.witness) == (mu, witness)


def test_random_mask_spans_all_vertices():
    # local-search starts past 64 vertices draw one word per 64 vertices
    rng = SplitMix64(7)
    union = 0
    for _ in range(20):
        mask = _random_mask(rng, 200)
        assert mask >> 200 == 0
        union |= mask
    assert union == (1 << 200) - 1


@pytest.mark.parametrize("n", [1, 2, 24, 63, 64])
def test_random_mask_is_one_masked_word_up_to_64(n):
    a, b = SplitMix64(n), SplitMix64(n)
    for _ in range(5):
        assert _random_mask(a, n) == b.next_u64() & ((1 << n) - 1)


@pytest.mark.parametrize("n, seed", [(130, 0), (200, 3)])
def test_inseparable_heuristic_finds_planted_cut_past_64(n, seed):
    # two shuffled blocks, n/3 and 2n/3 vertices, dense inside, sparse across
    rng = SplitMix64(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    small = set(perm[:n // 3])
    rest = set(range(n)) - small
    edges = [(u, v) for u, v in combinations(range(n), 2)
             if rng.chance(Fraction(3, 4) if (u in small) == (v in small)
                           else Fraction(1, 10))]
    g = Graph.from_edges(n, edges)
    planted = Fraction(oracles.oracle_edges_between(g, small, rest),
                       len(small) * len(rest))
    assert inseparable_heuristic(g, seed=0, budget=2000).mu_star <= planted


# ------------------------------------------------------------ connectable

def test_connectable_complete_graph_all_pass():
    g = Graph.complete(8)
    for k in (1, 2, 3):
        # a k-clique of K_8 sees the other 8 - k >= ceil(8 / 2) vertices
        assert all(is_connectable(g, c, 4)
                   for c in oracles.oracle_cliques(g, k))


def test_connectable_triangle_free_empty():
    g = Graph.cycle(5)
    assert not any(is_connectable(g, c, 1)
                   for c in oracles.oracle_cliques(g, 2))


def test_connectable_matches_bruteforce_filter():
    g = gnp(30, 0.7, 2)
    zeta = Fraction(1, 5)
    threshold = -(-g.n * zeta.numerator // zeta.denominator)  # ceil
    es = oracles.edge_set(g)
    sizes = {c: sum(all(frozenset((u, v)) in es for v in c)
                    for u in range(g.n))
             for c in oracles.oracle_cliques(g, 2)}
    for t in (threshold, 10, 12, 14):   # the larger ones split the edges
        want = [c for c, size in sizes.items() if size >= t]
        got = [c for c in list_cliques(g, 2) if is_connectable(g, c, t)]
        assert got == want


# ------------------------------------------------------- matchability

def test_matchable_dense_graph_passes():
    for seed in range(3):
        g = gnp(12, 0.6, seed)
        rho = denseness_exact(g, HALF).rho_star
        rep = robustly_matchable_exact(g, rho, HALF)
        assert rep.ok, rep.witness


def test_matchable_edgeless_fails_with_witness():
    g = Graph.edgeless(16)
    rep = robustly_matchable_exact(g, Fraction(1, 100), HALF)
    assert not rep.ok
    assert rep.witness  # nonempty failing subset
    # the witness really does violate both disjuncts
    u = rep.witness
    s = len(u)
    assert 0 < HALF * s * s / 2 - Fraction(1, 100) * 256  # fails disjunct 1


def test_matchable_complete_graph():
    g = Graph.complete(10)
    assert robustly_matchable_exact(g, Fraction(1, 20), Fraction(1)).ok


# --------------------------------------------------------- paired check

def test_paired_denseness_two_cliques_witness():
    g, a, b = generators.two_overlapping_cliques_parts(12, Fraction(1, 3))
    rep = bipartite_denseness_exact(g, HALF)
    assert rep.witness_x == tuple(sorted(a - b))
    assert rep.witness_y == tuple(sorted(b - a))
    assert rep.pair_count == 0
    assert rep.rho_star == Fraction(1, 18)  # deficit 8 over n^2 = 144


def test_paired_denseness_small_bruteforce():
    from itertools import combinations
    for seed in (0, 1):
        g = gnp(7, 0.5, seed)
        rep = bipartite_denseness_exact(g, HALF)
        best = Fraction(0)
        for rx in range(g.n + 1):
            for xs in combinations(range(g.n), rx):
                for ry in range(g.n + 1):
                    for ys in combinations(range(g.n), ry):
                        deficit = HALF * rx * ry - oracles.oracle_edges_between(
                            g, xs, ys)
                        best = max(best, Fraction(deficit))
        assert rep.rho_star == best / (g.n * g.n)


def test_paired_denseness_size_cap():
    with pytest.raises(SizeError):
        bipartite_denseness_exact(Graph.edgeless(17), HALF)


# ------------------------------------------------- implication lattice

@settings(max_examples=12, deadline=None)
@given(st.integers(4, 12), st.integers(0, 2 ** 32))
def test_singleton_bound(n, seed):
    g = gnp(n, 0.5, seed)
    mu = inseparable_exact(g).mu_star
    assert mu <= Fraction(min(map(g.degree, range(n))), n - 1)


def test_degree_implication():
    for seed in range(4):
        g = gnp(14, 0.85, seed)
        for mu in (Fraction(1, 20), Fraction(1, 10), Fraction(1, 5)):
            if min(map(g.degree, range(g.n))) >= (HALF + mu) * g.n:
                assert inseparable_exact(g).mu_star >= mu


def test_deletion_stability():
    from powerham.rng import SplitMix64
    for seed in range(4):
        g = gnp(14, 0.7, seed)
        mu = inseparable_exact(g).mu_star
        beta = Fraction(2, 5)
        cap = int(beta * mu * g.n)
        if cap == 0:
            continue
        rng = SplitMix64(seed)
        drop = sorted({rng.below(g.n) for _ in range(cap)})[:cap]
        keep = sorted(set(range(g.n)) - set(drop))
        h = Graph.from_edges(len(keep), [
            (i, j) for (i, u), (j, v) in combinations(enumerate(keep), 2)
            if g.has_edge(u, v)])
        assert inseparable_exact(h).mu_star >= (1 - 2 * beta) * mu


def test_heuristic_soundness_both_directions():
    for seed in range(3):
        g = gnp(14, 0.5, seed)
        assert (denseness_heuristic(g, HALF, seed=seed, budget=3000).rho_star
                <= denseness_exact(g, HALF).rho_star)
        assert (inseparable_heuristic(g, seed=seed, budget=3000).mu_star
                >= inseparable_exact(g).mu_star)


def test_report_json_shapes():
    g = generators.complete_multipartite([4, 4])
    d = denseness_exact(g, HALF).to_json_dict()
    assert d == {"mode": "exact", "d": "1/2", "rho_star": "1/16",
                 "witness": [0, 1, 2, 3]}
    i = inseparable_exact(Graph.complete(4)).to_json_dict()
    assert i == {"mode": "exact", "mu_star": "1", "witness": [0]}

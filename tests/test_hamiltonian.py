import random
import time
from fractions import Fraction
from itertools import combinations, count
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerham.errors import (InfeasibleSetError, InputError, PowerhamError,
                             SizeError)
from powerham.generators import (clique_complement, complete_multipartite,
                                 gnp)
import powerham.generators
from powerham import hamiltonian
from powerham.graph import Graph, is_clique, list_cliques
from powerham.hamiltonian import (STAGES, Certificate, PipelineConfig,
                                  StageReport,
                                  brute_force_oracle, canonicalize,
                                  extract_clique_factor,
                                  find_hamiltonian_power,
                                  find_with_hitting_sets,
                                  screen_obstruction, verify,
                                  verify_obstruction, window_tallies)
from powerham.rng import SplitMix64

import hash_panel
from oracles import (oracle_obstruction, oracle_power_ham_cycle,
                     oracle_screen)


def cycle_power(n, k):
    """C_n^k: every pair at cyclic distance at most k is an edge."""
    return Graph.from_edges(n, [(i, (i + d) % n) for i in range(n)
                                for d in range(1, k + 1)])


def degree_one_gnp(n, seed):
    """gnp(n, 3/4, seed) in which vertex 0 keeps only the edge 01."""
    g = gnp(n, Fraction(3, 4), seed)
    return Graph.from_edges(n, [(u, v) for u, v in combinations(range(n), 2)
                                if u != 0 and g.has_edge(u, v)] + [(0, 1)])


# ---------------------------------------------------------- canonical form

def test_canonicalize_starts_at_zero_and_prefers_smaller_direction():
    # rotated to 0 this reads (0,3,2,1) forward, (0,1,2,3) backward
    c = canonicalize(Certificate(1, (2, 1, 0, 3)))
    assert c.ordering == (0, 1, 2, 3)


def test_canonicalize_requires_vertex_zero():
    with pytest.raises(InputError):
        canonicalize(Certificate(1, (1, 2, 3)))


@settings(deadline=None, max_examples=40)
@given(st.integers(5, 12).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.integers(0, n - 1),
                        st.booleans())))
def test_canonicalize_is_rotation_and_reflection_invariant(case):
    perm, rot, flip = case
    base = tuple(perm)
    turned = base[rot:] + base[:rot]
    if flip:
        turned = tuple(reversed(turned))
    assert canonicalize(Certificate(2, turned)) == \
        canonicalize(Certificate(2, base))


# ------------------------------------------------------------------ verify

def test_verify_cycle_is_its_own_first_power():
    g = Graph.cycle(5)
    ok, viol = verify(g, Certificate(1, (0, 1, 2, 3, 4)))
    assert ok and viol is None


def test_verify_names_the_first_missing_pair():
    g = Graph.cycle(6)
    ok, viol = verify(g, Certificate(2, (0, 1, 2, 3, 4, 5)))
    assert not ok and viol == (0, 2)


def test_verify_complete_graph_accepts_any_ordering():
    g = Graph.complete(5)
    ok, _ = verify(g, Certificate(2, (2, 0, 4, 1, 3)))
    assert ok


def test_verify_rejects_non_permutations():
    g = Graph.complete(4)
    with pytest.raises(InputError):
        verify(g, Certificate(1, (0, 1, 1, 2)))
    with pytest.raises(InputError):
        verify(g, Certificate(1, (0, 1)))


def test_verify_wraparound_distances_skip_self():
    # n = 3 with k = 3: distances reduce mod n, a vertex never needs a loop
    g = Graph.complete(3)
    ok, _ = verify(g, Certificate(3, (0, 1, 2)))
    assert ok


# ---------------------------------------------------------------- oracle

def test_oracle_finds_power_in_complete_graph():
    g = Graph.complete(7)
    cert = brute_force_oracle(g, 3)
    assert cert is not None
    assert oracle_power_ham_cycle(g, cert.ordering, 3)


def test_oracle_c5_has_no_square():
    assert brute_force_oracle(Graph.cycle(5), 2) is None


def test_oracle_c7_has_no_square():
    assert brute_force_oracle(Graph.cycle(7), 2) is None


def test_oracle_unbalanced_bipartite_has_no_hamilton_cycle():
    g = complete_multipartite([3, 4])
    assert brute_force_oracle(g, 1) is None


def test_oracle_large_independent_block_blocks_hamilton_cycle():
    g = clique_complement(10, Fraction(2, 5))
    assert brute_force_oracle(g, 1) is None


def test_oracle_tiny_instances():
    assert brute_force_oracle(Graph.complete(1), 2).ordering == (0,)
    assert brute_force_oracle(Graph.complete(2), 1).ordering == (0, 1)
    assert brute_force_oracle(Graph.from_edges(2, []), 1) is None


def test_oracle_needs_a_complete_graph_once_k_reaches_half_n():
    # every pair lies at cyclic distance <= n // 2 <= k, so exactly the
    # complete graphs qualify, however far k runs past n
    for n in range(1, 9):
        full = Graph.complete(n)
        graphs = [full] + [gnp(n, Fraction(4, 5), s) for s in range(3)]
        if n >= 2:   # one edge short of complete
            graphs.append(Graph.from_edges(n, [
                e for e in combinations(range(n), 2) if e != (0, n - 1)]))
        for g in graphs:
            for k in range(max(1, n // 2), 2 * n + 3):
                cert = brute_force_oracle(g, k)
                assert (cert is not None) == (g == full), (n, k, g.adj)
                if cert is not None:
                    assert oracle_power_ham_cycle(g, cert.ordering, k)


def test_oracle_input_checks():
    with pytest.raises(InputError):
        brute_force_oracle(Graph.complete(3), 0)
    with pytest.raises(SizeError):
        brute_force_oracle(Graph.complete(15), 1)


def test_oracle_results_are_canonical_and_verified():
    for seed in range(6):
        g = gnp(9, Fraction(3, 4), seed)
        cert = brute_force_oracle(g, 2)
        if cert is None:
            continue
        assert cert == canonicalize(cert)
        assert oracle_power_ham_cycle(g, cert.ordering, 2)


# ------------------------------------------------------------- pipeline

def test_pipeline_complete_graph():
    g = Graph.complete(30)
    res = find_hamiltonian_power(g, PipelineConfig(k=2, seed=0))
    assert res.ok
    ok, _ = verify(g, res.certificate)
    assert ok
    assert res.report.failed_stage is None
    assert res.report.attempts >= 1


def test_pipeline_certificate_agrees_with_reference_checker():
    g = gnp(60, Fraction(3, 4), 1)
    res = find_hamiltonian_power(g, PipelineConfig(k=2, seed=1))
    assert res.ok
    assert oracle_power_ham_cycle(g, res.certificate.ordering, 2)


def test_pipeline_reports_stage_failure_on_sparse_cycles():
    # C_9^2 passes both screens (degree 4 = 2k, independence number
    # 3 = floor(9/3)) but holds no 4-clique, so no absorber family can
    # exist for k = 2
    res = find_hamiltonian_power(cycle_power(9, 2),
                                 PipelineConfig(k=2, seed=0))
    assert not res.ok
    assert res.certificate is None
    assert res.report.failed_stage == "absorbing_path"
    assert res.report.attempts == 10      # default retries exhausted


@pytest.mark.parametrize("k", [1, 2, 3])
def test_graphs_below_4k_vertices_make_no_attempt(k):
    # stage 1 needs two disjoint 2k-cliques, so these are the oracle's
    for n in range(2, 4 * k):
        g = Graph.complete(n)
        res = find_hamiltonian_power(g, PipelineConfig(k=k, seed=0))
        assert res.ok and verify(g, res.certificate)[0]
        rep = res.report
        assert (rep.attempts, rep.failed_stage, rep.stages) == (0, None, {})
        assert set(rep.timings) == {"obstruction", "setup"}
        assert "oracle" in rep.notes[0]
    if k == 2:
        # C_7 has no square: the degree screen says so before the oracle
        rep = find_hamiltonian_power(Graph.cycle(7),
                                     PipelineConfig(k=2)).report
        assert (rep.attempts, rep.failed_stage) == (0, "obstruction")


def test_graphs_below_4k_vertices_past_the_oracle_cap_are_refused():
    res = find_hamiltonian_power(Graph.complete(15), PipelineConfig(k=4))
    assert not res.ok
    assert (res.report.attempts, res.report.failed_stage) == \
        (0, "absorbing_path")
    assert set(res.report.timings) == {"obstruction", "setup"}
    assert res.report.notes[0].startswith("refused")


def test_screens_answer_below_4k_vertices_before_the_oracle(monkeypatch):
    # vertex 13 has degree 6 < 2k; the oracle would spend seconds on it
    def no_oracle(g, k):
        raise AssertionError("the oracle ran")
    monkeypatch.setattr(hamiltonian, "brute_force_oracle", no_oracle)
    res = find_hamiltonian_power(gnp(14, Fraction(4, 5), 9),
                                 PipelineConfig(k=4))
    rep = res.report
    assert res.certificate is None
    assert (rep.attempts, rep.failed_stage) == (0, "obstruction")
    assert rep.stages == {
        "obstruction": {"kind": "degree", "vertex": 13, "degree": 6}}
    assert rep.notes == ("vertex 13 has degree 6 < 2k",)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.tuples(
           st.just(k), st.integers(2 * k + 1, 4 * k - 1))),
       st.sampled_from([0.5, 0.7, 0.85, 1.0]), st.integers(0, 2 ** 32))
def test_find_below_4k_vertices_agrees_with_the_oracle(kn, p, seed):
    # between 2k + 1 and 4k vertices the screens answer first and the
    # oracle after them, so find says yes exactly when the oracle does
    (k, n), rnd = kn, random.Random(seed)
    g = Graph.from_edges(n, [e for e in combinations(range(n), 2)
                             if rnd.random() < p])
    res = find_hamiltonian_power(g, PipelineConfig(k=k, seed=0))
    truth = brute_force_oracle(g, k)
    assert res.ok == (truth is not None)
    assert res.report.attempts == 0
    if res.report.failed_stage == "obstruction":
        assert oracle_obstruction(g, k, res.report.stages["obstruction"])
        assert truth is None
    if res.ok:
        assert oracle_power_ham_cycle(g, res.certificate.ordering, k)


def test_hitting_sets_below_4k_vertices_are_refused():
    res = find_with_hitting_sets(Graph.complete(7), PipelineConfig(k=2),
                                 [(0, 1, 2, 3)])
    assert not res.ok
    assert (res.report.attempts, res.report.failed_stage) == \
        (0, "absorbing_path")
    assert res.report.notes == (
        "refused: n < 4k leaves no room for two disjoint 4-clique absorbers",)
    # sets are still validated first
    with pytest.raises(InputError):
        find_with_hitting_sets(Graph.complete(7), PipelineConfig(k=2),
                               [(0, 1, 2)])


# ------------------------------------------------------- obstruction screens

@pytest.mark.parametrize("g, k, witness, note", [
    # the inputs that spent every retry before the screens ran
    (Graph.cycle(9), 2, {"kind": "degree", "vertex": 0, "degree": 2},
     "vertex 0 has degree 2 < 2k"),
    (Graph.cycle(12), 2, {"kind": "degree", "vertex": 0, "degree": 2},
     "vertex 0 has degree 2 < 2k"),
    (degree_one_gnp(20, 1), 1, {"kind": "degree", "vertex": 0, "degree": 1},
     "vertex 0 has degree 1 < 2k"),
    (clique_complement(60, Fraction(1, 2)), 2,
     {"kind": "independent_set", "set": list(range(30))},
     "independent set of 30 > floor(n/(k+1)) = 20"),
])
def test_screens_refute_before_the_first_attempt(g, k, witness, note):
    res = find_hamiltonian_power(g, PipelineConfig(k=k, seed=0))
    rep = res.report
    assert res.certificate is None
    assert (rep.attempts, rep.failed_stage) == (0, "obstruction")
    assert rep.stages == {"obstruction": witness}
    assert set(rep.timings) == {"obstruction"}
    assert rep.notes == (note,)
    assert oracle_obstruction(g, k, witness)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_screens_pass_exact_cycle_powers(k):
    # degree exactly 2k and independence number exactly floor(n/(k+1)) at
    # (k+1) | n: both bounds are tight, so neither screen may fire; on at
    # most 2k + 1 vertices the power is the complete graph
    for n in range(1, 25):
        g = cycle_power(n, k) if n > 2 * k else Graph.complete(n)
        assert screen_obstruction(g, k) is None


@pytest.mark.parametrize("n", [20, 40, 60])
@pytest.mark.parametrize("p", [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
def test_screen_matches_the_full_reference_on_larger_graphs(n, p):
    # beyond the brute-force oracle's reach, the early-stopping greedy
    # must still give the full greedy's witness
    for k in (1, 2, 3):
        for seed in range(3):
            g = gnp(n, p, seed)
            assert screen_obstruction(g, k) == oracle_screen(g, k)


def test_verify_obstruction_rejects_false_witnesses():
    g = Graph.cycle(9)
    assert verify_obstruction(g, 2, {"kind": "degree", "vertex": 4,
                                     "degree": 2})
    for k, witness in [
            (2, {"kind": "degree", "vertex": 4, "degree": 1}),   # wrong
            (1, {"kind": "degree", "vertex": 4, "degree": 2}),   # = 2k
            (2, {"kind": "degree", "vertex": 9, "degree": 2}),   # no vertex
            (1, {"kind": "independent_set", "set": [0, 2, 4, 6, 8]}),  # 08
            (2, {"kind": "independent_set", "set": [0, 3, 6]}),  # too few
            (2, {"kind": "independent_set", "set": [0, 3, 6, 6]}),
            (2, {"kind": "independent_set", "set": [0, 1, 4, 6]}),  # 01
            (2, {"kind": "independent_set", "set": [0, 2, 4, 9]}),
    ]:
        assert not verify_obstruction(g, k, witness), witness
    assert verify_obstruction(g, 2, {"kind": "independent_set",
                                     "set": [0, 2, 5, 7]})
    # below 2k + 1 vertices the power is complete and no witness holds
    assert not verify_obstruction(Graph.cycle(4), 2, {
        "kind": "degree", "vertex": 0, "degree": 2})


def test_find_rechecks_the_screens_witness(monkeypatch):
    monkeypatch.setattr(hamiltonian, "screen_obstruction", lambda g, k: {
        "kind": "degree", "vertex": 0, "degree": 3})
    with pytest.raises(PowerhamError, match="invalid obstruction"):
        find_hamiltonian_power(Graph.complete(20), PipelineConfig(k=2))


@settings(max_examples=400, deadline=None)
@given(st.integers(2, 10), st.integers(1, 3),
       st.sampled_from(["random", "low_degree", "independent", "power"]),
       st.sampled_from([0.0, 0.5, 0.8, 1.0]), st.integers(0, 2 ** 32))
def test_screen_hits_agree_with_the_oracle(n, k, plant, p, seed):
    # soundness differential: the screen gives the full reference's
    # witness, a hit's witness passes the independent checker, and the
    # brute-force oracle finds no power; planted powers (degree 2k,
    # independence number floor(n/(k+1))) probe the bounds
    rnd = random.Random(seed)
    edges = {e for e in combinations(range(n), 2) if rnd.random() < p}
    if plant == "power":
        edges |= {(min(i, j), max(i, j)) for i in range(n)
                  for j in ((i + d) % n for d in range(1, k + 1)) if i != j}
    elif plant == "low_degree":
        v = rnd.randrange(n)
        keep = set(rnd.sample([u for u in range(n) if u != v],
                              min(n - 1, rnd.randrange(2 * k))))
        edges = {e for e in edges if v not in e or set(e) - {v} <= keep}
    elif plant == "independent":
        s = set(rnd.sample(range(n), min(n, n // (k + 1) + 1)))
        edges = {e for e in edges if not set(e) <= s}
    g = Graph.from_edges(n, edges)
    hit = screen_obstruction(g, k)
    assert hit == oracle_screen(g, k)
    if plant == "low_degree" and n >= 2 * k + 1:
        assert hit is not None      # a degree below 2k never slips through
    if hit is not None:
        assert oracle_obstruction(g, k, hit)
        assert verify_obstruction(g, k, hit)
        assert brute_force_oracle(g, k) is None


def test_pipeline_is_deterministic():
    g = gnp(50, Fraction(3, 4), 5)
    runs = [find_hamiltonian_power(g, PipelineConfig(k=2, seed=5))
            for _ in range(2)]
    assert runs[0].certificate == runs[1].certificate
    assert runs[0].report.to_json_dict() == runs[1].report.to_json_dict()


def test_seeded_output_matches_pinned_panel_digests():
    # tests/hash_panel.py but its criterion-5 finds (most of its time); a
    # change of seeded output in any find moves its section's digest
    sections, _, _ = hash_panel.digests(powerham, hash_panel.SECTIONS[1:])
    got = {name: (count, sha.hexdigest())
           for name, (count, sha) in sections.items()}
    assert got == {
        "dense_k3": (4, "66ed07ac9359092cd1759d95a55c9a76"
                        "24e9e644fd5a92e8f639619b56bf7b2a"),
        "large_k1": (2, "a160f16027ff0e90ca6cd00f8919513c"
                        "ceba99ff70fef17bd606052d3779b812"),
        "retry_k3": (48, "c4ab230e1cb537ac743f16fa0f2b24d8"
                         "e692c409a10be1410c365d1d195e1a78"),
        "no_power": (8, "413222db44ca8b5d21df6f633f6d1aa5"
                        "a28b628490caf64f8a8d58528f056e42"),
        "hitting": (2, "b227d90c10d01f63e9c584f4089d450a"
                       "1cb47b21b28ca007031cb4f7e4f7a734"),
    }


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 300, 2000])
@pytest.mark.parametrize("seed", [0, 1, 1729, 2 ** 64 - 1])
def test_reservoir_draw_matches_one_chance_per_vertex(n, seed):
    # every vertex, every third one and a random half
    pools = [(1 << n) - 1, int("001" * n, 2) & (1 << n) - 1,
             random.Random(seed).getrandbits(n)]
    for pool in pools:
        rng, want = SplitMix64(seed), 0
        for v in range(n):
            if pool >> v & 1 and rng.chance(hamiltonian.RESERVOIR_FRACTION):
                want |= 1 << v
        assert hamiltonian._reservoir(pool, seed) == want


def test_pipeline_rejects_empty_graphs():
    with pytest.raises(InputError):
        find_hamiltonian_power(Graph.from_edges(0, []),
                               PipelineConfig(k=1))


def test_pipeline_rejects_single_vertex_graphs():
    g = Graph.from_edges(1, [])
    with pytest.raises(InputError, match="at least 2 vertices"):
        find_hamiltonian_power(g, PipelineConfig(k=1))
    with pytest.raises(InputError, match="at least 2 vertices"):
        find_with_hitting_sets(g, PipelineConfig(k=1), [])


def test_timings_cover_setup_and_every_attempt(monkeypatch):
    # a clock that ticks once per read makes every timed block last one
    # tick, so each timing counts the blocks run under its name
    ticks = count()
    monkeypatch.setattr(hamiltonian, "time",
                        SimpleNamespace(perf_counter=lambda: next(ticks)))
    # two K10s sharing vertex 0 pass both screens, but the cut vertex lies
    # on no Hamilton cycle; every attempt builds the absorbing path, then
    # fails to close the cycle in both reservoir rounds
    g = Graph.from_edges(19, list(combinations(range(10), 2))
                         + list(combinations((0, *range(10, 19)), 2)))
    for retries in (0, 2):
        rep = find_hamiltonian_power(
            g, PipelineConfig(k=1, seed=0, retries=retries)).report
        assert rep.failed_stage == "connect"
        assert rep.attempts == retries + 1
        assert set(rep.timings) <= {"setup", *STAGES}
        assert rep.timings == {"obstruction": 1, "setup": 1,
                               "absorbing_path": rep.attempts,
                               "reservoir": 2 * rep.attempts,
                               "cover": 2 * rep.attempts,
                               "connect": 2 * rep.attempts}


def test_report_json_shape():
    g = Graph.complete(20)
    res = find_hamiltonian_power(g, PipelineConfig(k=1, seed=3))
    d = res.report.to_json_dict()
    assert d["n"] == 20 and d["k"] == 1 and "mode" not in d
    assert set(d["stages"]) >= {"absorbing_path", "reservoir", "cover",
                                "connect", "absorb"}
    assert "timings" not in d
    assert res.certificate.to_json_dict() == \
        {"k": 1, "ordering": list(res.certificate.ordering)}


# ------------------------------------------------------------- clique factor

def test_factor_windows_are_disjoint_cliques():
    g = gnp(40, Fraction(3, 4), 2)
    res = find_hamiltonian_power(g, PipelineConfig(k=2, seed=2))
    assert res.ok
    factor = extract_clique_factor(g, res.certificate)
    assert len(factor) == 40 // 3
    seen = set()
    for cl in factor:
        assert len(cl) == 3 and is_clique(g, cl)
        assert not seen & set(cl)
        seen |= set(cl)


def test_factor_rejects_invalid_certificates():
    g = Graph.cycle(6)
    with pytest.raises(PowerhamError):
        extract_clique_factor(g, Certificate(2, (0, 1, 2, 3, 4, 5)))


# ---------------------------------------------------------- config checks

def test_config_validation():
    with pytest.raises(InputError):
        PipelineConfig(k=0)
    with pytest.raises(InputError):
        PipelineConfig(k=2, retries=-1)


# ------------------------------------------------------------ hitting sets

def test_window_tallies_counts_cyclic_windows():
    cert = Certificate(2, (0, 1, 2, 3, 4, 5))
    tallies = window_tallies(cert, [(0, 1, 2), (3, 4, 5), (0, 3)])
    assert tallies == (2, 2, 0)


def test_hitting_sets_in_complete_graph():
    g = Graph.complete(40)
    sets = [tuple(range(10)), tuple(range(10, 20))]
    res = find_with_hitting_sets(g, PipelineConfig(k=2, seed=0), sets)
    assert res.ok
    ok, _ = verify(g, res.certificate)
    assert ok
    assert len(res.tallies) == 2
    assert all(t >= 1 for t in res.tallies)


def test_hitting_sets_on_random_graph():
    g = gnp(80, Fraction(3, 4), 2)
    sets = [tuple(range(20)), tuple(range(20, 40)), tuple(range(40, 60))]
    res = find_with_hitting_sets(g, PipelineConfig(k=2, seed=2), sets)
    assert res.ok
    assert all(t >= 1 for t in res.tallies)
    assert oracle_power_ham_cycle(g, res.certificate.ordering, 2)


def test_hitting_set_without_usable_clique_is_infeasible():
    g = clique_complement(40, Fraction(3, 4))   # vertices 0..9 independent
    with pytest.raises(InfeasibleSetError, match="set 0"):
        find_with_hitting_sets(g, PipelineConfig(k=2, seed=0),
                               [tuple(range(10))])


def test_hitting_sets_on_an_obstructed_graph_make_no_attempt():
    g = degree_one_gnp(60, 0)
    res = find_with_hitting_sets(g, PipelineConfig(k=1, seed=0),
                                 [(1, 2, 3, 4)])
    assert not res.ok and res.tallies == ()
    assert (res.report.attempts, res.report.failed_stage) == \
        (0, "obstruction")
    assert res.report.stages == {
        "obstruction": {"kind": "degree", "vertex": 0, "degree": 1}}
    # sets are still validated first
    for bad in ([(1, 2, 2)], [(1,)], [(1, 60)]):
        with pytest.raises(InputError):
            find_with_hitting_sets(g, PipelineConfig(k=1), bad)


def test_the_screen_answers_before_an_infeasible_hitting_set():
    # vertices 0..29 are independent (30 > floor(60/3)), so set 0 holds
    # no edge, let alone a connectable 2-clique; the screen speaks first
    g = clique_complement(60, Fraction(1, 2))
    res = find_with_hitting_sets(g, PipelineConfig(k=2, seed=0),
                                 [tuple(range(10))])
    assert (res.report.attempts, res.report.failed_stage) == \
        (0, "obstruction")
    assert "setup" not in res.report.timings


def test_setup_times_the_hitting_set_clique_listing(monkeypatch):
    # listing each set's connectable cliques is setup work: a 50 ms
    # listing must show in timings["setup"]
    def slow_listing(*args, **kwargs):
        time.sleep(0.05)
        return list_cliques(*args, **kwargs)
    monkeypatch.setattr(hamiltonian, "list_cliques", slow_listing)
    res = find_with_hitting_sets(Graph.complete(40), PipelineConfig(k=2),
                                 [tuple(range(10))])
    assert res.ok
    assert res.report.timings["setup"] >= 0.05


def test_hitting_set_validation():
    g = Graph.complete(12)
    cfg = PipelineConfig(k=2, seed=0)
    with pytest.raises(InputError):
        find_with_hitting_sets(g, cfg, [(0, 1, 1, 2)])
    with pytest.raises(InputError):
        find_with_hitting_sets(g, cfg, [(0, 1, 2)])        # below 2k
    with pytest.raises(InputError):
        find_with_hitting_sets(g, cfg, [(5, 6, 7, 99)])
    with pytest.raises(SizeError):
        find_with_hitting_sets(Graph.complete(70), cfg,
                               [tuple(range(i, i + 4)) for i in range(65)])

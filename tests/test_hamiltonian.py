import random
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, count
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerham import absorber, connector
from powerham.absorber import AbsorbingPath, absorb
from powerham.errors import (CapacityError, InfeasibleSetError, InputError,
                             PowerhamError, SizeError)
from powerham.generators import (clique_complement, complete_multipartite,
                                 gnp)
import powerham.generators
from powerham import hamiltonian
from powerham.graph import Graph, is_clique, list_cliques, mask_of
from powerham.hamiltonian import (STAGES, Certificate, PipelineConfig,
                                  StageReport,
                                  brute_force_oracle, canonicalize,
                                  extract_clique_factor,
                                  find_hamiltonian_power,
                                  find_with_hitting_sets,
                                  screen_obstruction, verify,
                                  verify_obstruction, window_tallies)
from powerham.pathcover import KPath, is_valid_kpath
from powerham.rng import SplitMix64

import hash_panel
from oracles import (oracle_obstruction, oracle_power_ham_cycle,
                     oracle_screen, oracle_segment_hosts)


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
        "dense_k3": (4, "c175ea9855667242ef8aac8a998188f6"
                        "3845845d80ca4d84cd941961102547ff"),
        "large_k1": (2, "adc76cf251718a8998496dadace43dad"
                        "c6441147e46da81733a172970c1453c1"),
        "retry_k3": (48, "4c73287a66f4ee99ae32968683161c7f"
                         "f551374fc3351e4bf58f910af3dbac78"),
        "no_power": (8, "413222db44ca8b5d21df6f633f6d1aa5"
                        "a28b628490caf64f8a8d58528f056e42"),
        "hitting": (2, "607b6e1c384183e7c4a19934df9354b8"
                       "4d799b620ba8c5badfaa477cd12fe77b"),
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
    # on no Hamilton cycle; at this seed every attempt builds the absorbing
    # path, then fails to close the cycle in both reservoir rounds (at
    # seed 0 one cover path cannot take both halves' residues)
    g = Graph.from_edges(19, list(combinations(range(10), 2))
                         + list(combinations((0, *range(10, 19)), 2)))
    for retries in (0, 2):
        rep = find_hamiltonian_power(
            g, PipelineConfig(k=1, seed=2, retries=retries)).report
        assert rep.failed_stage == "connect"
        assert rep.attempts == retries + 1
        assert set(rep.timings) <= {"setup", *STAGES}
        assert rep.timings == {"obstruction": 1, "setup": 1,
                               "absorbing_path": rep.attempts,
                               "reservoir": 2 * rep.attempts,
                               "cover": 2 * rep.attempts,
                               "connect": 2 * rep.attempts}


def test_a_failed_round_reports_no_stage_of_the_round_before():
    # two K10s sharing vertex 0: at seed 0 the last attempt's first round
    # fails to close the cycle and its second fails at the cover, so the
    # report must not keep the first round's connect record
    g = Graph.from_edges(19, list(combinations(range(10), 2))
                         + list(combinations((0, *range(10, 19)), 2)))
    rep = find_hamiltonian_power(g, PipelineConfig(k=1, seed=0,
                                                   retries=2)).report
    assert rep.failed_stage == "cover"
    assert rep.stages["reservoir"]["rounds"] == 2
    assert list(rep.stages) == ["absorbing_path", "reservoir", "cover"]


def test_close_cycle_docks_a_cover_path_reversed():
    # on the 6-cycle 0-1-2-5-4-3 only the reversed cover path docks onto
    # the head's end 2, and its far end 3 then closes back to 0
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 5), (5, 4), (4, 3), (3, 0)])
    pa = AbsorbingPath(KPath(1, (0, 1, 2)), (), (), ())
    cover = SimpleNamespace(paths=[KPath(1, (3, 4, 5))], leftover=())
    stage, order = hamiltonian._close_cycle(g, 1, pa, False, cover, 0, 4, 0)
    assert order == (0, 1, 2, 5, 4, 3)
    assert stage["joints"] == 2 and stage["inner_total"] == 0
    assert verify(g, Certificate(1, order)) == (True, None)


def _spy_absorb(monkeypatch):
    """Record (demand, absorbed?) for every ``absorb`` the pipeline calls."""
    calls, absorb = [], hamiltonian.absorb

    def spy(g, pa, xs):
        xs = list(xs)
        try:
            out = absorb(g, pa, xs)
        except CapacityError:
            calls.append((xs, False))
            raise
        calls.append((xs, True))
        return out
    monkeypatch.setattr(hamiltonian, "absorb", spy)
    return calls


def _close_alone(g, pa, pool, seed):
    """Close ``pa.path`` on itself through ``pool``: one closing joint."""
    cover = SimpleNamespace(paths=[], leftover=())
    return hamiltonian._close_cycle(g, pa.path.k, pa, False, cover, pool,
                                    12, seed)


def _split_closure(stage, order, k):
    """The absorbed head and the closing inner of a one-joint order."""
    cut = len(order) - stage["inner_total"]
    return KPath(k, order[:cut]), order[cut:]


def test_closing_joint_moves_past_a_rest_over_capacity(monkeypatch):
    # two k=1 segments host 2 vertices; the ladder starts at half the pool
    # (5 inner of 10), goes down to 0, then up until the rest fits at 8
    calls = _spy_absorb(monkeypatch)
    g = Graph.complete(14)
    pa = AbsorbingPath(KPath(1, (0, 1, 2, 3)), (0, 1), (0, 2),
                       oracle_segment_hosts(g, (0, 1, 2, 3), 1, (0, 2)))
    stage, order = _close_alone(g, pa, mask_of(range(4, 14)), 0)
    absorbed, inner = _split_closure(stage, order, 1)
    assert [(len(xs), ok) for xs, ok in calls] == [
        (5, False), (6, False), (7, False), (8, False), (9, False),
        (10, False), (4, False), (3, False), (2, True)]
    assert stage["inner_total"] == 8 and len(inner) == 8
    assert absorbed.vertices[:1] == (0,)
    assert sorted(absorbed.vertices) == sorted(
        (0, 1, 2, 3, *calls[-1][0]))
    assert is_valid_kpath(g, absorbed)


def test_closing_joint_moves_past_a_closure_that_strands_a_vertex(
        monkeypatch):
    # vertex 12 misses one vertex of every segment, so no segment hosts it;
    # the first closure (4 inner of 8) leaves it behind with a rest of 4,
    # within the 4 segments' capacity, and only the 5-inner one routes it
    calls = _spy_absorb(monkeypatch)
    miss = {1, 3, 5, 6}
    g = Graph.from_edges(16, [e for e in combinations(range(16), 2)
                              if not (12 in e and set(e) & miss)])
    pa = AbsorbingPath(KPath(1, tuple(range(8))), (0, 1, 2, 3),
                       (0, 2, 4, 6),
                       oracle_segment_hosts(g, range(8), 1, (0, 2, 4, 6)))
    assert not pa.hostable >> 12 & 1
    stage, order = _close_alone(g, pa, mask_of(range(8, 16)), 1)
    absorbed, inner = _split_closure(stage, order, 1)
    first, ok = calls[0]
    assert 12 in first and len(first) == 4 and not ok
    assert calls[-1][1] and all(not ok for _, ok in calls[:-1])
    assert 12 in inner and len(inner) == 5
    assert is_valid_kpath(g, absorbed)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([40, 60]), st.integers(1, 3), st.integers(0, 2 ** 32))
def test_every_closed_layout_carries_a_valid_absorbed_head(n, k, seed):
    # every cycle order the pipeline gets back starts with a head into which
    # exactly the pool vertices its joints did not route were absorbed
    layouts = []

    def spy(g, k, pa, reverse, cover, reservoir, *rest):
        stage, order = close(g, k, pa, reverse, cover, reservoir, *rest)
        # the order ends in the joints' inners and the cover path
        tail = (None if order is None else
                stage["inner_total"] + sum(map(len, cover.paths)))
        layouts.append((pa, reservoir | mask_of(cover.leftover),
                        mask_of(v for p in cover.paths for v in p.vertices),
                        order, tail))
        return stage, order
    close = hamiltonian._close_cycle
    g = gnp(n, Fraction(3, 4), seed % 1000)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hamiltonian, "_close_cycle", spy)
        res = find_hamiltonian_power(g, PipelineConfig(k=k, seed=seed))
    assert res.report.failed_stage != "absorb"
    assert res.ok == any(order is not None for *_, order, _ in layouts)
    for pa, pool, covered, order, tail in layouts:
        if order is None:
            continue
        absorbed = KPath(k, order[:len(order) - tail])
        assert is_valid_kpath(g, absorbed)
        routed = mask_of(order[len(order) - tail:]) & ~covered
        assert (mask_of(absorbed.vertices)
                == pa.path.mask | pool & ~routed)


def test_closure_work_over_retry_shaped_finds(monkeypatch):
    # the closing joint no longer threads the whole pool: over 20
    # gnp(60, 3/4) finds at k=3 no connect search runs out of budget and
    # all of them spend 9,119 DFS nodes (326,501 and one exhausted search
    # when the closing ladder started at the full pool)
    spent, exhausted = [], []
    search = connector._search

    def spy(g, req, m, budget, *rest):
        before = budget.left
        got = search(g, req, m, budget, *rest)
        spent.append(before - budget.left)
        exhausted.append(got is None and budget.left <= 0)
        return got
    monkeypatch.setattr(connector, "_search", spy)
    for s in range(20):
        res = find_hamiltonian_power(gnp(60, Fraction(3, 4), s),
                                     PipelineConfig(k=3, seed=s))
        assert res.ok
    assert not any(exhausted)
    assert sum(spent) <= 50_000


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


def test_retries_allocate_nothing_before_the_attempts():
    # found on attempt 1: a million retries must cost nothing up front
    g = gnp(60, Fraction(3, 4), 0)
    tracemalloc.start()
    try:
        res = find_hamiltonian_power(
            g, PipelineConfig(k=1, seed=0, retries=10 ** 6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.ok and res.report.attempts == 1
    assert peak < 1 << 20


def test_an_internal_fault_raises_instead_of_retrying(monkeypatch):
    # the final k-path checks hold by construction; a miss is a bug
    monkeypatch.setattr(absorber, "is_valid_kpath", lambda g, kp: False)
    with pytest.raises(PowerhamError, match="internal"):
        find_hamiltonian_power(gnp(60, Fraction(3, 4), 0),
                               PipelineConfig(k=1, seed=0))


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


def test_hitting_stitch_joins_on_a_word_drawn_after_the_shuffles(
        monkeypatch):
    # the join's key table must not restart the stream the picks consumed
    seeds = []

    def spy(g, k, verts, pieces, seed, *rest):
        seeds.append(seed)
        return join_chain(g, k, verts, pieces, seed, *rest)
    join_chain = hamiltonian.join_chain
    monkeypatch.setattr(hamiltonian, "join_chain", spy)
    g = Graph.complete(20)
    hitting = [[(4, 5), (6, 7), (8, 9)], [(10, 11), (12, 13)]]
    pa = AbsorbingPath(KPath(2, (0, 1, 2, 3)), (0,), (0,),
                       oracle_segment_hosts(g, (0, 1, 2, 3), 2, (0,)))
    hamiltonian._stitch_hitting_cliques(g, 2, pa, hitting, 99, 6)
    rng = SplitMix64(99)
    for cands in hitting:
        rng.shuffle(list(cands))
    assert seeds == [rng.next_u64()] and seeds[0] != 99


def test_hitting_stitch_extends_the_absorbing_path():
    # the cliques follow every segment, so segments keep their positions
    # and host table, and absorb still inserts into them
    g = Graph.complete(20)
    pa = AbsorbingPath(KPath(2, tuple(range(8))), (1, 0), (0, 4),
                       oracle_segment_hosts(g, range(8), 2, (0, 4)))
    out = hamiltonian._stitch_hitting_cliques(
        g, 2, pa, [[(10, 11)], [(14, 15)]], 5, 6)
    assert isinstance(out, AbsorbingPath)
    assert (out.member_ids, out.starts, out.hosts) == \
        (pa.member_ids, pa.starts, pa.hosts)
    assert out.path.vertices[:8] == pa.path.vertices
    assert {10, 11, 14, 15} <= set(out.path.vertices[8:])
    assert is_valid_kpath(g, out.path)
    grown = absorb(g, out, [18, 19])
    assert grown.vertices[-len(out.path) + 8:] == out.path.vertices[8:]
    assert is_valid_kpath(g, grown)


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

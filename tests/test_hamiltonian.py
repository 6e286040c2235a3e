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
from powerham import hamiltonian
from powerham.graph import Graph, is_clique
from powerham.hamiltonian import (STAGES, Certificate, PipelineConfig,
                                  StageReport,
                                  brute_force_oracle, canonicalize,
                                  extract_clique_factor,
                                  find_hamiltonian_power,
                                  find_with_hitting_sets, verify,
                                  window_tallies)

from oracles import oracle_power_ham_cycle


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
    # C_9 holds no 4-clique, so no absorber family can exist for k = 2
    res = find_hamiltonian_power(Graph.cycle(9), PipelineConfig(k=2, seed=0))
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
        assert set(rep.timings) == {"setup"}
        assert "oracle" in rep.notes[0]
    if k == 2:
        # C_7 has no square: the oracle's "no" is reported at stage 1
        rep = find_hamiltonian_power(Graph.cycle(7),
                                     PipelineConfig(k=2)).report
        assert (rep.attempts, rep.failed_stage) == (0, "absorbing_path")


def test_graphs_below_4k_vertices_past_the_oracle_cap_are_refused():
    res = find_hamiltonian_power(Graph.complete(15), PipelineConfig(k=4))
    assert not res.ok
    assert (res.report.attempts, res.report.failed_stage) == \
        (0, "absorbing_path")
    assert set(res.report.timings) == {"setup"}
    assert res.report.notes[0].startswith("refused")


def test_hitting_sets_keep_attempting_below_4k_vertices():
    res = find_with_hitting_sets(Graph.complete(7), PipelineConfig(k=2),
                                 [(0, 1, 2, 3)])
    assert not res.ok
    assert (res.report.attempts, res.report.failed_stage) == \
        (10, "absorbing_path")


def test_pipeline_is_deterministic():
    g = gnp(50, Fraction(3, 4), 5)
    runs = [find_hamiltonian_power(g, PipelineConfig(k=2, seed=5))
            for _ in range(2)]
    assert runs[0].certificate == runs[1].certificate
    assert runs[0].report.to_json_dict() == runs[1].report.to_json_dict()


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
    # a degree-1 vertex lies on no Hamilton cycle; every attempt builds the
    # absorbing path, then fails to close the cycle in both reservoir rounds
    g = gnp(20, Fraction(3, 4), 1)
    g = Graph.from_edges(20, [(u, v) for u, v in combinations(range(20), 2)
                              if u != 0 and g.has_edge(u, v)] + [(0, 1)])
    for retries in (0, 2):
        rep = find_hamiltonian_power(
            g, PipelineConfig(k=1, seed=0, retries=retries)).report
        assert rep.failed_stage == "connect"
        assert rep.attempts == retries + 1
        assert set(rep.timings) <= {"setup", *STAGES}
        assert rep.timings == {"setup": 1,
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


def test_hitting_set_validation():
    g = Graph.complete(12)
    cfg = PipelineConfig(k=2, seed=0)
    with pytest.raises(InputError):
        find_with_hitting_sets(g, cfg, [(0, 1, 1, 2)])
    with pytest.raises(InputError):
        find_with_hitting_sets(g, cfg, [(0, 1, 2)])        # below 2k
    with pytest.raises(InputError):
        find_with_hitting_sets(g, cfg, [(5, 6, 7, 99)])
    with pytest.raises(InputError):
        find_with_hitting_sets(g, cfg, [(0, 1, 2, 3)], per_set_min=0)
    with pytest.raises(SizeError):
        find_with_hitting_sets(Graph.complete(70), cfg,
                               [tuple(range(i, i + 4)) for i in range(65)])

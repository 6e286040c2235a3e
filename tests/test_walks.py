from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerham.errors import InputError
from powerham.generators import gnp
from powerham.graph import Graph
from powerham.walks import count_walks, delta_schedule

from oracles import oracle_walk_matrix_powers


def test_count_walks_triangle():
    g = Graph.complete(3)
    t = count_walks(g, 0, 2)
    # zero inner vertices: just the edge indicator
    assert t.counts[0] == (0, 1, 1)
    # one inner vertex: 0-2-1 is the only (0,1)-walk
    assert t.count(1, 1) == 1
    # 0-1-0 and 0-2-0 come back to the source
    assert t.count(0, 1) == 2


def test_count_walks_square():
    g = Graph.cycle(4)
    t = count_walks(g, 0, 1)
    assert t.count(2, 1) == 2  # 0-1-2 and 0-3-2
    assert t.count(1, 1) == 0  # odd cycle position needs even length


def test_count_walks_path_parity():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    t = count_walks(g, 0, 5)
    # bipartite: walks from 0 to 2 need an odd number of inner vertices
    for i in range(0, 6, 2):
        assert t.count(2, i) == 0
    assert t.count(2, 1) == 1


def test_count_walks_matches_matrix_powers():
    for seed in range(4):
        g = gnp(13, Fraction(1, 2), seed)
        t = count_walks(g, seed % g.n, 10)
        expect = oracle_walk_matrix_powers(g, seed % g.n, 10)
        assert [list(row) for row in t.counts] == expect


def test_count_walks_rejects_bad_args():
    g = Graph.complete(4)
    with pytest.raises(InputError):
        count_walks(g, 4, 2)
    with pytest.raises(InputError):
        count_walks(g, 0, -1)
    with pytest.raises(InputError):
        count_walks(g, 0, 65)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(2, 10))
def test_count_walks_symmetric(seed, n):
    g = gnp(n, Fraction(2, 3), seed)
    tables = [count_walks(g, x, 4) for x in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            for i in range(5):
                assert tables[x].counts[i][y] == tables[y].counts[i][x]


def test_delta_schedule_mu_one():
    s = delta_schedule(Fraction(1))
    assert s.L == 8
    assert s.delta[0] == 1
    assert s.delta[1] == Fraction(1, 6)
    assert s.delta[4] == Fraction(1, 3) ** 4 * Fraction(1, 2) ** 10
    assert s.c == Fraction(1, 48) * s.delta[4] ** 2


def test_delta_schedule_mu_half():
    s = delta_schedule(Fraction(1, 2))
    assert s.L == 16
    assert s.delta[8] == Fraction(1, 12) ** 8 * Fraction(1, 2) ** 36
    assert s.c == Fraction(1, 192) * s.delta[8] ** 2


def test_delta_schedule_monotone_and_positive():
    s = delta_schedule(Fraction(2, 3))
    assert s.L == 12
    for a, b in zip(s.delta, s.delta[1:]):
        assert 0 < b < a
    assert 0 < s.c < 1


def test_delta_schedule_rejects_bad_mu():
    with pytest.raises(InputError):
        delta_schedule(Fraction(0))
    with pytest.raises(InputError):
        delta_schedule(Fraction(3, 2))

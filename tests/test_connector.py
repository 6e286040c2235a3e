from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import powerham.absorber as absorber
import powerham.hamiltonian as hamiltonian
from powerham.connector import (ConnectRequest, _Budget, _masks, _search,
                                connect)
from powerham.errors import InputError
from powerham.generators import gnp
from powerham.graph import Graph, list_cliques, mask_of
from powerham.pathcover import KPath, is_valid_kpath
from powerham.rng import SplitMix64

from oracles import (Budget, eager_connect, oracle_connection_count,
                     oracle_is_kpath, recursive_search)


def two_disjoint_cliques(g, k):
    cliques = list(list_cliques(g, k))
    for i, a in enumerate(cliques):
        for b in cliques[i + 1:]:
            if not set(a) & set(b):
                return a, b
    return None


# ----------------------------------------------------------------- connect

def test_connect_adjacent_ends():
    g = Graph.complete(8)
    req = ConnectRequest((0, 1), (2, 3), k=2, max_inner=0)
    p = connect(g, req)
    assert p is not None and p.vertices == (0, 1, 2, 3)


def test_connect_across_components_fails():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    req = ConnectRequest((0, 1), (3, 4), k=2, max_inner=4)
    assert connect(g, req) is None


def test_connect_gnp_validates():
    g = gnp(40, Fraction(3, 4), 3)
    x, y = two_disjoint_cliques(g, 2)
    req = ConnectRequest(x, y, k=2, max_inner=12, seed=5)
    p = connect(g, req)
    assert p is not None
    assert is_valid_kpath(g, p)
    assert p.vertices[:2] == x and p.vertices[-2:] == y


def test_connect_respects_forbidden_and_allowed():
    g = Graph.complete(10)
    req = ConnectRequest((0, 1), (2, 3), k=2, max_inner=3,
                         allowed_inner=mask_of((7, 8)))
    # force at least one inner vertex by walls: none needed in K10, so m=0 wins
    p = connect(g, req)
    assert p.vertices == (0, 1, 2, 3)
    # now sever the direct dock so an inner vertex is required
    g2 = Graph.from_edges(10, [(u, v) for u in range(10) for v in range(u + 1, 10)
                               if (u, v) != (1, 2)])
    p2 = connect(g2, ConnectRequest((0, 1), (2, 3), k=2, max_inner=3,
                                    allowed_inner=mask_of((7, 8))))
    assert p2 is not None
    inner = set(p2.vertices) - {0, 1, 2, 3}
    assert inner and inner <= {7, 8}
    # a forbidden set is the complement of the allowed one; the ends may
    # lie in the allowed mask, they are never reused as inner vertices
    forbidden = mask_of((4, 5, 6, 7))
    for seed in range(5):
        p3 = connect(g2, ConnectRequest((0, 1), (2, 3), k=2, max_inner=3,
                                        allowed_inner=g2.full_mask()
                                        & ~forbidden, seed=seed))
        inner = set(p3.vertices) - {0, 1, 2, 3}
        assert inner and inner <= {8, 9}
        assert len(p3.vertices) == len(set(p3.vertices))


def test_connect_prefers_marked_inner():
    edges = [(u, v) for u in range(10) for v in range(u + 1, 10)
             if (u, v) != (0, 1)]
    g = Graph.from_edges(10, edges)
    req = ConnectRequest((0,), (1,), k=1, max_inner=2, prefer_inner=1 << 7)
    p = connect(g, req)
    assert p.vertices == (0, 7, 1)


def test_connect_minimality():
    g = gnp(20, Fraction(7, 10), 9)
    got = two_disjoint_cliques(g, 2)
    x, y = got
    p = connect(g, ConnectRequest(x, y, k=2, max_inner=4))
    assert p is not None
    m = len(p) - 4
    for smaller in range(m):
        assert oracle_connection_count(g, x, y, 2, smaller) == 0


def test_connect_budget_exhaustion():
    g = gnp(24, Fraction(3, 5), 4)
    x, y = two_disjoint_cliques(g, 2)
    req = ConnectRequest(x, y, k=2, max_inner=6, node_budget=0)
    full = connect(g, ConnectRequest(x, y, k=2, max_inner=6))
    assert full is not None and len(full) > 4  # needs at least one expansion
    assert connect(g, req) is None  # starved search gives up


def test_connect_input_errors():
    g = Graph.cycle(6)
    with pytest.raises(InputError):
        connect(g, ConnectRequest((0, 2), (3, 4), k=2, max_inner=2))  # not a clique
    with pytest.raises(InputError):
        connect(g, ConnectRequest((0, 1), (1, 2), k=2, max_inner=2))  # overlap
    with pytest.raises(InputError):
        connect(Graph.complete(6),
                ConnectRequest((0, 1), (2, 3), k=2, max_inner=-1))
    with pytest.raises(InputError):
        connect(Graph.complete(6),
                ConnectRequest((0, 1), (2, 3), k=2, max_inner=2,
                               min_inner=3))


def test_connect_determinism():
    g = gnp(30, Fraction(3, 4), 6)
    x, y = two_disjoint_cliques(g, 2)
    req = ConnectRequest(x, y, k=2, max_inner=8, seed=11)
    assert connect(g, req) == connect(g, req)


# --------------------------------------------------------------- counting

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(8, 14), st.integers(1, 3),
       st.sampled_from([Fraction(1, 2), Fraction(3, 4)]), st.data())
def test_connect_complete_up_to_enumeration(seed, n, k, p, data):
    g = gnp(n, p, seed)
    got = two_disjoint_cliques(g, k)
    if got is None:
        return
    x, y = (tuple(data.draw(st.permutations(c))) for c in got)
    counts = [oracle_connection_count(g, x, y, k, m) for m in range(5)]
    path = connect(g, ConnectRequest(x, y, k=k, max_inner=4, seed=seed))
    if path is None:
        assert all(c == 0 for c in counts)
    else:
        assert oracle_is_kpath(g, path.vertices, k)
        m = len(path) - 2 * k
        assert counts[m] > 0 and all(c == 0 for c in counts[:m])
    for m, count in enumerate(counts):
        req = ConnectRequest(x, y, k=k, max_inner=m, min_inner=m, seed=seed)
        path = connect(g, req)
        assert (path is None) == (count == 0), (m, count)
        if path is not None:
            assert len(path) == 2 * k + m
            assert path.vertices[:k] == x and path.vertices[-k:] == y
            assert oracle_is_kpath(g, path.vertices, k)
        # a non-edge among the end pairs within distance k refutes the
        # level before it spends a node
        if any(not g.adj[y[i]] >> x[t] & 1
               for i in range(k) for t in range(m + i, k)):
            budget, keys = _Budget(1), SplitMix64(seed).words(n)
            assert _search(g, req, m, budget, keys, *_masks(g, req)) is None
            assert budget.left == 1


def test_level_longer_than_the_pool_spends_no_budget():
    # two allowed vertices cannot hold three inner ones: refuted at no cost
    g = Graph.complete(8)
    req = ConnectRequest((0, 1), (2, 3), k=2, max_inner=3, min_inner=3,
                         allowed_inner=mask_of((4, 5)), node_budget=5)
    pool, dock = _masks(g, req)
    budget, keys = _Budget(5), SplitMix64(0).words(8)
    assert _search(g, req, 3, budget, keys, pool, dock) is None
    assert budget.left == 5
    assert connect(g, req) is None
    budget = _Budget(5)
    assert _search(g, req, 2, budget, keys, pool, dock) is not None
    assert budget.left < 5


# -------------------------------------------------------------- key table

@settings(max_examples=150, deadline=None)
@given(st.integers(5, 12), st.sampled_from([Fraction(1, 2), Fraction(3, 4)]),
       st.integers(0, 2 ** 32), st.integers(1, 3), st.data())
def test_connect_matches_key_table_oracle(n, p, gseed, k, data):
    g = gnp(n, p, gseed)
    cliques = list(list_cliques(g, k))
    if not cliques:
        return
    x = data.draw(st.sampled_from(cliques))
    rest = [c for c in cliques if not set(c) & set(x)]
    if not rest:
        return
    y = data.draw(st.sampled_from(rest))
    perm = data.draw(st.permutations(range(k)))
    masks = st.integers(0, (1 << n) - 1)
    max_inner = data.draw(st.integers(0, 4))
    req = ConnectRequest(
        tuple(x[i] for i in perm), y, k=k, max_inner=max_inner,
        allowed_inner=data.draw(st.one_of(st.none(), masks)),
        prefer_inner=data.draw(masks),
        seed=data.draw(st.integers(0, 2 ** 64 - 1)),
        node_budget=data.draw(st.one_of(st.none(), st.integers(0, 40))),
        min_inner=data.draw(st.integers(0, max_inner)))
    assert connect(g, req) == eager_connect(g, req)
    # a stage's own table, ties included, overrides req.seed
    keys = data.draw(st.lists(st.integers(0, 3) | st.integers(0, 2 ** 64 - 1),
                              min_size=n, max_size=n))
    assert connect(g, req, keys) == eager_connect(g, req, keys)


def test_each_stage_draws_one_key_table(monkeypatch):
    draws, tables = [], []
    words = SplitMix64.words

    def spy_words(rng, count):
        draws.append(count)
        return words(rng, count)

    def spy_connect(g, req, keys=None):
        tables.append(keys)
        return connect(g, req, keys)

    g = gnp(40, Fraction(3, 4), 1)
    # the closing joint absorbs its rest, so the cycle closes on a real
    # absorbing path; the cliques avoid it
    family, _ = absorber.sample_family(g, 2, hamiltonian.ZETA, Fraction(1),
                                       seed=0, max_members=4)
    pa = absorber.build_absorbing_path(g, 2, family, seed=0)
    cliques, taken = [], pa.path.mask
    for c in list_cliques(g, 4):
        if not mask_of(c) & taken:
            cliques.append(c)
            taken |= mask_of(c)
    head, *pieces = cliques[:4]
    monkeypatch.setattr(SplitMix64, "words", spy_words)
    monkeypatch.setattr(absorber, "connect", spy_connect)
    monkeypatch.setattr(hamiltonian, "connect", spy_connect)
    absorber.join_chain(g, 2, head, pieces, 5, 6, None)
    assert draws == [g.n] and len(tables) == 3
    assert all(t is tables[0] for t in tables)

    draws.clear()
    tables.clear()
    cover = SimpleNamespace(paths=[KPath(2, c) for c in pieces], leftover=())
    reservoir = g.full_mask() & ~taken
    stage, order = hamiltonian._close_cycle(g, 2, pa, False, cover,
                                            reservoir, 8, 7)
    assert order is not None and stage["joints"] == 4
    assert draws == [g.n] and len(tables) >= 4
    assert all(t is tables[0] for t in tables)

    # a call handed no table draws its own from req.seed
    draws.clear()
    connect(g, ConnectRequest(head[:2], pieces[0][:2], k=2, max_inner=4))
    assert draws == [g.n]


# ------------------------------------------------------ recursive search

def _same_search(g, req, m, limit, keys):
    """Run ``_search``, its preferred keys lowered as ``connect`` lowers
    them, and the recursive oracle on the drawn keys; assert the same
    answer and the same nodes spent, return the answer."""
    pool, dock = _masks(g, req)
    lift = req.prefer_inner & pool
    table = [w - ((lift >> v & 1) << 64) for v, w in enumerate(keys)]
    budget, want_budget = _Budget(limit), Budget(limit)
    got = _search(g, req, m, budget, table, pool, dock)
    want = recursive_search(g, req, m, want_budget, keys, pool, dock)
    assert got == want
    assert budget.left == want_budget.left
    return got


@settings(max_examples=300, deadline=None)
@given(st.integers(5, 14), st.sampled_from([Fraction(1, 2), Fraction(3, 4)]),
       st.integers(0, 2 ** 32), st.integers(1, 3), st.integers(0, 5),
       st.sampled_from([None, 0, 1, 2, 7, 50]), st.booleans(), st.data())
def test_search_matches_recursive_search(n, p, gseed, k, m, limit, ties,
                                         data):
    g = gnp(n, p, gseed)
    cliques = list(list_cliques(g, k))
    if not cliques:
        return
    x = data.draw(st.sampled_from(cliques))
    rest = [c for c in cliques if not set(c) & set(x)]
    if not rest:
        return
    y = data.draw(st.permutations(data.draw(st.sampled_from(rest))))
    masks = st.integers(0, (1 << n) - 1)
    req = ConnectRequest(
        tuple(data.draw(st.permutations(x))), tuple(y), k=k, max_inner=5,
        allowed_inner=data.draw(st.one_of(st.none(), masks)),
        prefer_inner=data.draw(masks),
        seed=data.draw(st.integers(0, 2 ** 64 - 1)))
    # a stage's key table: 64-bit words, or few values so keys tie
    top = 3 if ties else 2 ** 64 - 1
    keys = data.draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    _same_search(g, req, m, limit, keys)


def test_search_budget_dies_mid_level():
    # found at the 5th node (the oracle's path and count): 4 nodes cut the
    # level short, 5 just do
    g = gnp(14, Fraction(1, 2), 0)
    req = ConnectRequest((0, 2), (3, 4), k=2, max_inner=5, seed=3)
    keys = SplitMix64(3).words(14)
    path = _same_search(g, req, 5, None, keys)
    assert path == (0, 2, 5, 13, 12, 9, 6, 3, 4)
    for limit in (2, 3, 4):
        assert _same_search(g, req, 5, limit, keys) is None
    assert _same_search(g, req, 5, 5, keys) == path
    assert _same_search(g, req, 5, 6, keys) == path

from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import powerham.absorber as absorber
import powerham.hamiltonian as hamiltonian
from powerham.connector import ConnectRequest, _Budget, _search, connect
from powerham.errors import InputError
from powerham.generators import gnp
from powerham.graph import Graph, list_cliques, mask_of
from powerham.pathcover import KPath, is_valid_kpath
from powerham.rng import SplitMix64

from oracles import (Budget, eager_connect, oracle_connection_count,
                     oracle_is_kpath, recursive_search)


# a node budget that no search in these tests runs out of
AMPLE = 10 ** 6


def request(g, x, y, allowed=None, budget=AMPLE):
    """A request from x to y through ``allowed`` (every vertex if None)."""
    return ConnectRequest(g, x, y, g.full_mask() if allowed is None
                          else allowed, budget)


def table(n, seed=0):
    """A stage's key table, as ``join_chain`` and ``_close_cycle`` draw it."""
    return SplitMix64(seed).words(n)


def lowered(keys, preferred):
    """``keys`` with the ``preferred`` vertices' keys lowered by 2**64, as
    ``_close_cycle`` lowers them."""
    return [w - ((preferred >> v & 1) << 64) for v, w in enumerate(keys)]


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
    p = connect(request(g, (0, 1), (2, 3)), table(8), 0, 0)
    assert p is not None and p.vertices == (0, 1, 2, 3)


def test_connect_across_components_fails():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert connect(request(g, (0, 1), (3, 4)), table(6), 0, 4) is None


def test_connect_gnp_validates():
    g = gnp(40, Fraction(3, 4), 3)
    x, y = two_disjoint_cliques(g, 2)
    p = connect(request(g, x, y), table(40, 5), 0, 12)
    assert p is not None
    assert is_valid_kpath(g, p)
    assert p.vertices[:2] == x and p.vertices[-2:] == y


def test_connect_respects_forbidden_and_allowed():
    g = Graph.complete(10)
    req = request(g, (0, 1), (2, 3), mask_of((7, 8)))
    # force at least one inner vertex by walls: none needed in K10, so m=0 wins
    p = connect(req, table(10), 0, 3)
    assert p.vertices == (0, 1, 2, 3)
    # now sever the direct dock so an inner vertex is required
    g2 = Graph.from_edges(10, [(u, v) for u in range(10) for v in range(u + 1, 10)
                               if (u, v) != (1, 2)])
    p2 = connect(request(g2, (0, 1), (2, 3), mask_of((7, 8))), table(10),
                 0, 3)
    assert p2 is not None
    inner = set(p2.vertices) - {0, 1, 2, 3}
    assert inner and inner <= {7, 8}
    # a forbidden set is the complement of the allowed one; the ends may
    # lie in the allowed mask, they are never reused as inner vertices
    forbidden = mask_of((4, 5, 6, 7))
    for seed in range(5):
        p3 = connect(request(g2, (0, 1), (2, 3), g2.full_mask() & ~forbidden),
                     table(10, seed), 0, 3)
        inner = set(p3.vertices) - {0, 1, 2, 3}
        assert inner and inner <= {8, 9}
        assert len(p3.vertices) == len(set(p3.vertices))


def test_connect_prefers_marked_inner():
    edges = [(u, v) for u in range(10) for v in range(u + 1, 10)
             if (u, v) != (0, 1)]
    g = Graph.from_edges(10, edges)
    # the mark is a lowered key, as ``_close_cycle`` lowers its preferred
    p = connect(request(g, (0,), (1,)), lowered(table(10), 1 << 7), 0, 2)
    assert p.vertices == (0, 7, 1)


def test_connect_minimality():
    g = gnp(20, Fraction(7, 10), 9)
    got = two_disjoint_cliques(g, 2)
    x, y = got
    p = connect(request(g, x, y), table(20), 0, 4)
    assert p is not None
    m = len(p) - 4
    for smaller in range(m):
        assert oracle_connection_count(g, x, y, 2, smaller) == 0


def test_connect_budget_exhaustion():
    g = gnp(24, Fraction(3, 5), 4)
    x, y = two_disjoint_cliques(g, 2)
    full = connect(request(g, x, y), table(24), 0, 6)
    assert full is not None and len(full) > 4  # needs at least one expansion
    # a starved search gives up
    assert connect(request(g, x, y, budget=0), table(24), 0, 6) is None


def test_connect_input_errors():
    # a request is refused when it is built, levels when connect is called
    g, keys = Graph.cycle(6), table(6)
    with pytest.raises(InputError):   # not a clique
        request(g, (0, 2), (3, 4))
    with pytest.raises(InputError):   # overlap
        request(g, (0, 1), (1, 2))
    with pytest.raises(InputError):   # ends of unequal length
        request(g, (0, 1), (3,))
    with pytest.raises(InputError):   # empty ends
        request(g, (), ())
    with pytest.raises(InputError):   # a negative budget
        request(g, (0, 1), (3, 4), budget=-1)
    req = request(Graph.complete(6), (0, 1), (2, 3))
    with pytest.raises(InputError):
        connect(req, keys, 0, -1)
    with pytest.raises(InputError):
        connect(req, keys, 3, 2)


def test_request_derives_its_pool_and_dock_rows():
    # pool: the allowed vertices off both ends; dock[j]: the vertices that
    # see each of the target's first j vertices, computed when built
    g = gnp(12, Fraction(1, 2), 3)
    x, y = two_disjoint_cliques(g, 2)
    req = request(g, x, y, mask_of(range(1, 12, 2)) | mask_of(x))
    assert req.pool == mask_of(v for v in range(1, 12, 2) if v not in x + y)
    assert req.dock == tuple(
        mask_of(v for v in range(12) if all(g.has_edge(v, u) for u in y[:j]))
        for j in range(3))


def test_connect_determinism():
    g = gnp(30, Fraction(3, 4), 6)
    x, y = two_disjoint_cliques(g, 2)
    req = request(g, x, y)
    assert (connect(req, table(30, 11), 0, 8)
            == connect(req, table(30, 11), 0, 8))


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
    keys = table(n, seed)
    req = request(g, x, y)
    path = connect(req, keys, 0, 4)
    if path is None:
        assert all(c == 0 for c in counts)
    else:
        assert oracle_is_kpath(g, path.vertices, k)
        m = len(path) - 2 * k
        assert counts[m] > 0 and all(c == 0 for c in counts[:m])
    for m, count in enumerate(counts):
        path = connect(req, keys, m, m)
        assert (path is None) == (count == 0), (m, count)
        if path is not None:
            assert len(path) == 2 * k + m
            assert path.vertices[:k] == x and path.vertices[-k:] == y
            assert oracle_is_kpath(g, path.vertices, k)
        # a non-edge among the end pairs within distance k refutes the
        # level before it spends a node
        if any(not g.adj[y[i]] >> x[t] & 1
               for i in range(k) for t in range(m + i, k)):
            budget = _Budget(1)
            assert _search(g, req, m, budget, keys) is None
            assert budget.left == 1


def test_level_longer_than_the_pool_spends_no_budget():
    # two allowed vertices cannot hold three inner ones: refuted at no cost
    g = Graph.complete(8)
    req = request(g, (0, 1), (2, 3), mask_of((4, 5)), budget=5)
    budget, keys = _Budget(5), table(8)
    assert _search(g, req, 3, budget, keys) is None
    assert budget.left == 5
    assert connect(req, keys, 3, 3) is None
    budget = _Budget(5)
    assert _search(g, req, 2, budget, keys) is not None
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
    min_inner = data.draw(st.integers(0, max_inner))
    req = ConnectRequest(g, tuple(x[i] for i in perm), y,
                         data.draw(st.just(g.full_mask()) | masks),
                         data.draw(st.integers(0, 40) | st.just(AMPLE)))
    levels = min_inner, max_inner
    preferred = data.draw(masks)
    # a drawn stage table, and one with few values so keys tie; lowered
    # keys must put the preferred vertices first, as the oracle's sort does
    keys = table(n, data.draw(st.integers(0, 2 ** 64 - 1)))
    assert (connect(req, lowered(keys, preferred), *levels)
            == eager_connect(req, keys, *levels, preferred))
    keys = data.draw(st.lists(st.integers(0, 3) | st.integers(0, 2 ** 64 - 1),
                              min_size=n, max_size=n))
    assert (connect(req, lowered(keys, preferred), *levels)
            == eager_connect(req, keys, *levels, preferred))


def _path_and_cliques():
    """gnp(40, 3/4, 1), an absorbing path at k=2 on it and four disjoint
    4-cliques off the path: the closing joint absorbs its rest, so the
    cycle closes on a real absorbing path."""
    g = gnp(40, Fraction(3, 4), 1)
    family, _ = absorber.sample_family(g, 2, Fraction(1), seed=0,
                                       max_members=4)
    pa = absorber.build_absorbing_path(g, 2, family, seed=0)
    cliques, taken = [], pa.path.mask
    for c in list_cliques(g, 4):
        if not mask_of(c) & taken:
            cliques.append(c)
            taken |= mask_of(c)
    return g, pa, cliques[:4]


def test_each_stage_draws_one_key_table(monkeypatch):
    draws, tables = [], []
    words = SplitMix64.words

    def spy_words(rng, count):
        draws.append(count)
        return words(rng, count)

    def spy_connect(req, keys, *levels):
        tables.append(keys)
        return connect(req, keys, *levels)

    g, pa, (head, *pieces) = _path_and_cliques()
    monkeypatch.setattr(SplitMix64, "words", spy_words)
    monkeypatch.setattr(absorber, "connect", spy_connect)
    monkeypatch.setattr(hamiltonian, "connect", spy_connect)
    absorber.join_chain(g, 2, head, pieces, 5, 6)
    assert draws == [g.n] and len(tables) == 3
    assert all(t is tables[0] for t in tables)

    draws.clear()
    tables.clear()
    # one cover piece; the pool is every vertex off the path and the piece
    cover = SimpleNamespace(paths=[KPath(2, pieces[0])], leftover=())
    reservoir = g.full_mask() & ~pa.path.mask & ~mask_of(pieces[0])
    stage, order = hamiltonian._close_cycle(g, 2, pa, False, cover,
                                            reservoir, 8, 7)
    assert order is not None and stage["joints"] == 2
    assert draws == [g.n] and len(tables) >= 2
    assert all(t is tables[0] for t in tables)


def test_close_cycle_lowers_preferred_keys_once(monkeypatch):
    # every connect call gets one table: the stage's draw with exactly the
    # keys of the pool vertices no segment hosts lowered by 2**64; the
    # unhostable vertices off the pool (on the piece here) keep theirs
    tables = []

    def spy_connect(req, keys, *levels):
        tables.append(keys)
        return connect(req, keys, *levels)

    g, pa, (piece, *_) = _path_and_cliques()
    cover = SimpleNamespace(paths=[KPath(2, piece)], leftover=())
    reservoir = g.full_mask() & ~pa.path.mask & ~mask_of(piece)
    stranded = reservoir & ~pa.hostable
    assert stranded and mask_of(piece) & ~pa.hostable
    monkeypatch.setattr(hamiltonian, "connect", spy_connect)
    stage, order = hamiltonian._close_cycle(g, 2, pa, False, cover,
                                            reservoir, 8, 7)
    assert order is not None and len(tables) >= 2
    assert all(t is tables[0] for t in tables)
    assert list(tables[0]) == lowered(table(g.n, 7), stranded)


def test_close_cycle_checks_one_request_per_option_per_joint(monkeypatch):
    # the docking joint has two options (the piece forwards and reversed)
    # and the closing joint one: at most three requests are checked, while
    # at max_inner=4 the closing ladder searches five levels, none of whose
    # closures absorbs its rest
    checks, calls = [], []
    post_init = ConnectRequest.__post_init__

    def spy_post_init(req):
        checks.append(req)
        post_init(req)

    def spy_connect(req, keys, *levels):
        calls.append(levels)
        return connect(req, keys, *levels)

    g, pa, (piece, *_) = _path_and_cliques()
    cover = SimpleNamespace(paths=[KPath(2, piece)], leftover=())
    reservoir = g.full_mask() & ~pa.path.mask & ~mask_of(piece)
    monkeypatch.setattr(ConnectRequest, "__post_init__", spy_post_init)
    monkeypatch.setattr(hamiltonian, "connect", spy_connect)
    stage, order = hamiltonian._close_cycle(g, 2, pa, False, cover,
                                            reservoir, 4, 7)
    assert order is None and stage["joints"] == 2
    assert len(checks) <= 3 < len(calls)
    assert all(lo == hi for lo, hi in calls)


# ------------------------------------------------------ recursive search

def _same_search(g, req, m, limit, keys, preferred=0):
    """Run ``_search`` on the keys with the preferred ones lowered, and the
    recursive oracle on the drawn keys and the preferred mask; assert the
    same answer and the same nodes spent, return the answer."""
    budget, want_budget = _Budget(limit), Budget(limit)
    got = _search(g, req, m, budget, lowered(keys, preferred))
    want = recursive_search(g, req, m, want_budget, keys, req.pool,
                            req.dock, preferred)
    assert got == want
    assert budget.left == want_budget.left
    return got


@settings(max_examples=300, deadline=None)
@given(st.integers(5, 14), st.sampled_from([Fraction(1, 2), Fraction(3, 4)]),
       st.integers(0, 2 ** 32), st.integers(1, 3), st.integers(0, 5),
       st.sampled_from([0, 1, 2, 7, 50, AMPLE]), st.booleans(), st.data())
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
    req = ConnectRequest(g, tuple(data.draw(st.permutations(x))), tuple(y),
                         data.draw(st.just(g.full_mask()) | masks), AMPLE)
    # a stage's key table: 64-bit words, or few values so keys tie
    top = 3 if ties else 2 ** 64 - 1
    keys = data.draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    _same_search(g, req, m, limit, keys, data.draw(masks))


def test_search_budget_dies_mid_level():
    # found at the 5th node (the oracle's path and count): 4 nodes cut the
    # level short, 5 just do
    g = gnp(14, Fraction(1, 2), 0)
    req = request(g, (0, 2), (3, 4))
    keys = table(14, 3)
    path = _same_search(g, req, 5, AMPLE, keys)
    assert path == (0, 2, 5, 13, 12, 9, 6, 3, 4)
    for limit in (2, 3, 4):
        assert _same_search(g, req, 5, limit, keys) is None
    assert _same_search(g, req, 5, 5, keys) == path
    assert _same_search(g, req, 5, 6, keys) == path

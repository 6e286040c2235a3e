from fractions import Fraction
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerham.connector import (ConnectRequest, _Budget, _masks, _search,
                                connect)
from powerham.errors import InputError
from powerham.generators import gnp
from powerham.graph import Graph, list_cliques, mask_of
from powerham.pathcover import is_valid_kpath

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
        # level before it spends a node or draws the tie-break order
        if any(not g.adj[y[i]] >> x[t] & 1
               for i in range(k) for t in range(m + i, k)):
            budget, priority = _Budget(1), []
            assert _search(g, req, m, budget, priority, *_masks(g, req)) is None
            assert budget.left == 1 and priority == []


# ------------------------------------------------------------ lazy order

@settings(max_examples=150, deadline=None)
@given(st.integers(5, 12), st.sampled_from([Fraction(1, 2), Fraction(3, 4)]),
       st.integers(0, 2 ** 32), st.integers(1, 3), st.data())
def test_lazy_order_matches_eager_order(n, p, gseed, k, data):
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


def test_search_with_single_candidates_draws_no_order():
    # the square of a path on 6 vertices: from (0, 1) to (4, 5) every node
    # has one candidate, so the search never ranks and never shuffles
    g = Graph.from_edges(6, [(u, v) for u in range(6)
                             for v in range(u + 1, min(u + 3, 6))])
    req = ConnectRequest((0, 1), (4, 5), k=2, max_inner=2, seed=7)
    budget, priority = _Budget(None), []
    got = _search(g, req, 2, budget, priority, *_masks(g, req))
    assert got == (0, 1, 2, 3, 4, 5) and priority == []
    budget = _Budget(5)
    assert _search(g, req, 2, budget, priority, *_masks(g, req)) == got
    assert budget.left == 3 and priority == []
    assert connect(g, req).vertices == got


# ------------------------------------------------------ recursive search

def _same_search(g, req, m, limit, priority):
    """Run ``_search`` and the recursive oracle on copies of one state;
    assert the same answer and the same nodes spent, return the answer."""
    pool, dock = _masks(g, req)
    budget, want_budget = _Budget(limit), Budget(limit)
    got_order, want_order = list(priority), list(priority)
    got = _search(g, req, m, budget, got_order, pool, dock)
    want = recursive_search(g, req, m, want_budget, want_order, pool, dock)
    assert got == want
    assert budget.left == want_budget.left
    assert got_order in ([], want_order)
    return got


@settings(max_examples=300, deadline=None)
@given(st.integers(5, 14), st.sampled_from([Fraction(1, 2), Fraction(3, 4)]),
       st.integers(0, 2 ** 32), st.integers(1, 3), st.integers(0, 5),
       st.sampled_from([None, 0, 1, 2, 7, 50]), st.booleans(), st.data())
def test_search_matches_recursive_search(n, p, gseed, k, m, limit, eager,
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
    # a bare shuffle-rank table, as eager_connect hands one, or none yet
    priority = data.draw(st.permutations(range(n))) if eager else []
    _same_search(g, req, m, limit, priority)


def test_search_budget_dies_mid_level():
    # found at the 14th node: 13 nodes cut the level short, 14 just do
    g = gnp(14, Fraction(1, 2), 0)
    req = ConnectRequest((0, 2), (3, 4), k=2, max_inner=5, seed=3)
    path = _same_search(g, req, 5, None, [])
    assert path == (0, 2, 5, 13, 12, 9, 11, 3, 4)
    for limit in (2, 7, 13):
        assert _same_search(g, req, 5, limit, []) is None
    assert _same_search(g, req, 5, 14, []) == path
    assert _same_search(g, req, 5, 15, []) == path

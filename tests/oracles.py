"""Independent brute-force reference implementations for the test suite.

Everything here works on plain edge sets and itertools enumeration, with no
bitmask tricks and no calls into the code paths under test, so agreement is
meaningful.
"""

from fractions import Fraction
from itertools import combinations, permutations


def edge_set(g):
    """Set of frozenset edges read straight off the adjacency rows."""
    out = set()
    for v in range(g.n):
        row = g.adj[v]
        for u in range(g.n):
            if row >> u & 1:
                out.add(frozenset((u, v)))
    return out


def oracle_edges_within(g, u):
    u = set(u)
    return sum(1 for e in edge_set(g) if e <= u)


def oracle_edges_between(g, xs, ys):
    es = edge_set(g)
    return sum(1 for x in set(xs) for y in set(ys)
               if x != y and frozenset((x, y)) in es)


def oracle_cliques(g, k, within=None):
    """All k-cliques as sorted tuples, via itertools.combinations."""
    pool = range(g.n) if within is None else sorted(set(within))
    es = edge_set(g)
    out = []
    for combo in combinations(pool, k):
        if all(frozenset(p) in es for p in combinations(combo, 2)):
            out.append(combo)
    return out


def oracle_ordered_clique_count(g, k):
    pool = range(g.n)
    es = edge_set(g)
    count = 0
    for combo in permutations(pool, k):
        if all(frozenset(p) in es for p in combinations(combo, 2)):
            count += 1
    return count


def oracle_denseness(g, d):
    """(rho_star, witness) by scanning every subset with plain loops."""
    d = Fraction(d)
    best = Fraction(0)
    witness = ()
    for r in range(g.n + 1):
        for combo in combinations(range(g.n), r):
            deficit = Fraction(d * r * r, 2) - oracle_edges_within(g, combo)
            if deficit > best:
                best, witness = deficit, combo
    return best / (g.n * g.n), witness


def oracle_inseparability(g):
    """Minimum of e(X, V-X) / (|X| |V-X|) over proper bipartitions."""
    verts = set(range(g.n))
    best = None
    for r in range(1, g.n):
        for combo in combinations(range(g.n), r):
            x = set(combo)
            cut = oracle_edges_between(g, x, verts - x)
            ratio = Fraction(cut, len(x) * (g.n - len(x)))
            if best is None or ratio < best:
                best = ratio
    return best


def oracle_walk_matrix_powers(g, x, l_max):
    """counts[i][v] = number of (x,v)-walks with i inner vertices.

    Computed with numpy int64 matrix powers; entries are bounded by
    n^(i+1) which must stay below 2**63 for the sizes used in tests.
    """
    import numpy as np

    n = g.n
    assert n ** (l_max + 1) < 2 ** 63, "oracle would overflow int64"
    a = np.zeros((n, n), dtype=np.int64)
    for v in range(n):
        for u in range(n):
            if g.adj[v] >> u & 1:
                a[v, u] = 1
    out = []
    vec = a[x].copy()
    out.append(vec.tolist())
    for _ in range(l_max):
        vec = vec @ a
        out.append(vec.tolist())
    return out


def oracle_is_kpath(g, vertices, k):
    """Validity of a k-path checked by the definition, window by window."""
    vs = list(vertices)
    if len(vs) < k or len(set(vs)) != len(vs):
        return False
    for start in range(len(vs) - k):
        window = vs[start:start + k + 1]
        for a, b in combinations(window, 2):
            if not g.adj[a] >> b & 1:
                return False
    return True


def oracle_segment_hosts(g, vertices, k, starts):
    """Per segment start s, the mask of the vertices adjacent to every one
    of vertices[s:s + 2k], tested pair by pair."""
    return tuple(sum(1 << v for v in range(g.n)
                     if all(g.adj[v] >> u & 1 for u in vertices[s:s + 2 * k]))
                 for s in starts)


def oracle_connection_count(g, x, y, k, m):
    """Number of m-tuples w of fresh vertices making x + w + y a k-path."""
    pool = set(range(g.n)) - set(x) - set(y)
    return sum(1 for w in permutations(pool, m)
               if oracle_is_kpath(g, tuple(x) + w + tuple(y), k))


def oracle_power_ham_cycle(g, ordering, k):
    """Is `ordering` a k-th power of a Hamiltonian cycle? By definition."""
    n = g.n
    if sorted(ordering) != list(range(n)):
        return False
    for i in range(n):
        for d in range(1, min(k, n - 1) + 1):
            u, v = ordering[i], ordering[(i + d) % n]
            if u != v and not g.adj[u] >> v & 1:
                return False
    return True


def oracle_obstruction(g, k, witness):
    """Does `witness` prove that g holds no k-th power of a Hamilton cycle?

    Read off plain edge sets against that power on n >= 2k + 1 vertices: a
    vertex there is adjacent to the 2k others within cyclic distance k, and
    consecutive members of an independent set lie more than k apart around
    the cycle, so the set has at most n // (k + 1) members.
    """
    n = g.n
    if n < 2 * k + 1:
        return False
    es = edge_set(g)
    if witness["kind"] == "degree":
        v = witness["vertex"]
        target = len({(v + d) % n for d in range(-k, k + 1)} - {v})
        return sum(1 for e in es if v in e) == witness["degree"] < target
    if witness["kind"] == "independent_set":
        s = witness["set"]
        return (len(set(s)) == len(s) > n // (k + 1)
                and set(s) <= set(range(n))
                and not any(frozenset(p) in es for p in combinations(s, 2)))
    return False


def oracle_screen(g, k):
    """The obstruction screens' witness, recomputed in full from edge sets.

    The lowest (degree, id) vertex if its degree is below 2k, else the
    greedy independent set over every vertex in ascending (degree, id)
    order if it has over n // (k + 1) members, else None; nothing below
    2k + 1 vertices.
    """
    n = g.n
    if n < 2 * k + 1:
        return None
    es = edge_set(g)
    deg = {v: sum(1 for e in es if v in e) for v in range(n)}
    order = sorted(range(n), key=lambda v: (deg[v], v))
    if deg[order[0]] < 2 * k:
        return {"kind": "degree", "vertex": order[0], "degree": deg[order[0]]}
    chosen = []
    for v in order:
        if all(frozenset((u, v)) not in es for u in chosen):
            chosen.append(v)
    if len(chosen) > n // (k + 1):
        return {"kind": "independent_set", "set": sorted(chosen)}
    return None


def per_pair_rows(n, p, seed, bipartite=False):
    """Adjacency rows of ``gnp`` (or ``random_bipartite``) drawn one pair at
    a time with ``SplitMix64.chance``.

    This is the generators' former builder, kept as their reference: one
    ``chance(p)`` per candidate pair in lexicographic order, each kept pair
    ORed into both rows.  ``SplitMix64`` itself is pinned by the reference
    words in ``test_rng.py``.
    """
    from powerham.rng import SplitMix64

    rng, p = SplitMix64(seed), Fraction(p)
    half = n // 2
    rows = [0] * n
    for u in range(half if bipartite else n - 1):
        for v in range(half if bipartite else u + 1, n):
            if rng.chance(p):
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return tuple(rows)


def per_word_shuffle(rng, items):
    """``SplitMix64.shuffle`` drawing one ``below`` word per swap.

    This is the generator's former shuffle, kept as its reference:
    Fisher-Yates from the top index down, partner ``below(i + 1)``.
    """
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]


def first_asymmetric_pair(rows):
    """The first (v, u), v then u ascending, with u in row v but not v in
    row u; None when the rows are symmetric.  Reads one bit per pair."""
    n = len(rows)
    for v in range(n):
        for u in range(n):
            if rows[v] >> u & 1 and not rows[u] >> v & 1:
                return v, u
    return None


def eager_connect(req, keys, min_inner, max_inner, preferred):
    """``connect`` as iterative deepening over ``recursive_search``.

    Same contract: levels ``min_inner`` up to ``max_inner``, one node budget
    shared by all of them, ties by ``(not preferred, keys[v])`` with
    ``keys`` the stage's table as drawn and ``preferred`` a vertex mask.
    It takes a request the code under test has checked and runs
    ``connector._masks`` from it; it checks the levels, the budget and the
    order, not those.
    """
    from powerham.connector import _masks
    from powerham.pathcover import KPath

    budget = Budget(req.node_budget)
    pool, dock = _masks(req.g, req)
    for m in range(min_inner, max_inner + 1):
        got = recursive_search(req.g, req, m, budget, keys, pool, dock,
                               preferred)
        if got is not None:
            return KPath(len(req.x_end), got)
        if budget.left <= 0:
            return None
    return None


class Budget:
    """``connector``'s former node budget: ``spend`` once per DFS node."""

    __slots__ = ("left",)

    def __init__(self, limit):
        self.left = limit

    def spend(self) -> bool:
        if self.left <= 0:
            return False
        self.left -= 1
        return True


def recursive_search(g, req, m, budget, keys, pool, dock, preferred):
    """``connector._search`` as it was before its nodes were made cheap.

    Same contract and arguments, with a ``Budget`` whose ``spend`` each
    node calls, ``keys`` the stage's table as drawn and the ``preferred``
    vertex mask: candidates come from ``verts_of`` and are sorted by a
    ``(not preferred, keys[v])`` tuple per candidate, so the closing
    stage's lowering of the preferred keys is not needed here.  It runs
    ``verts_of`` from the code under test; it checks the DFS, not that.
    """
    from powerham.graph import verts_of

    k = len(req.x_end)
    adj = g.adj
    # x_end[t] and y_end[i] lie within distance k iff t >= m + i; no inner
    # vertex changes these pairs, so one non-edge refutes the whole level
    if any(not adj[req.y_end[i]] >> req.x_end[t] & 1
           for i in range(k - m) for t in range(m + i, k)):
        return None
    if m > pool.bit_count():   # the pool cannot hold m inner vertices
        return None
    seq = list(req.x_end)

    def rec(depth, used):
        if depth == m:
            return tuple(seq) + tuple(req.y_end)
        if not budget.spend():
            return None
        win = pool & ~used
        for v in seq[-k:]:
            win &= adj[v]
        # inner vertices close to the dock must already see its prefix
        j = depth + 1 + k - m
        if j >= 1:
            win &= dock[min(j, k)]
        cands = sorted(verts_of(win),
                       key=lambda v: (not preferred >> v & 1, keys[v]))
        for v in cands:
            seq.append(v)
            got = rec(depth + 1, used | 1 << v)
            seq.pop()
            if got is not None:
                return got
        return None

    return rec(0, 0)


def lowest_first_match(xs, usable):
    """``absorber._match`` before it took free segments first.

    Every root walks an augmenting path from its lowest usable segment,
    ascending, without recursion; ``usable[v]`` is a segment mask.  Same
    spill list and matching size as ``_match``, and the same segments as
    ``recursive_match``.
    """
    matched = {}
    spill = []
    for root in xs:
        unvisited = -1
        todo = [usable[root]]
        taken = []
        while todo:
            free = todo[-1] & unvisited
            if not free:
                todo.pop()
                del taken[-1:]
                continue
            low = free & -free
            unvisited ^= low
            i = low.bit_length() - 1
            taken.append(i)
            if i not in matched:
                break
            todo.append(usable[matched[i]])
        matched.update(zip(taken, [root] + [matched[i] for i in taken[:-1]]))
        if not todo:
            spill.append(root)
    return matched, spill


def recursive_match(xs, usable):
    """``absorber._match`` as a recursive augmenting-path search.

    Same contract: each vertex of xs in turn takes a segment of
    ``usable[v]``, segments tried ascending, one visited set per vertex;
    returns segment -> vertex and the unmatched vertices in xs order.  It
    recurses once per matched segment along the chain, so long chains need
    a deep interpreter stack.
    """
    matched = {}

    def augment(v, visited):
        for i in usable[v]:
            if i in visited:
                continue
            visited.add(i)
            if i not in matched or augment(matched[i], visited):
                matched[i] = v
                return True
        return False

    spill = [v for v in xs if not augment(v, set())]
    return matched, spill


def lambda_greedy_tight_path(h, seed, limit=None):
    """``pathcover.greedy_tight_path`` as it scored candidates before its
    bitset kernels, returning the vertex tuple.

    Every step scores each candidate v with its own lambda: the
    ``_extensions`` of the new end tuple inside the unused window of the
    tuple that stays, ANDed with v's row and popcounted; the largest
    ``(score, -v)`` wins.  Like ``recursive_search`` it runs the code under
    test for the start edge, the windows and the pruned-edge filter
    (``_start_edge``, ``_window``, ``_extensions``, ``verts_of``); it
    checks the scoring and the choice, not those.
    """
    from collections import deque

    from powerham.graph import mask_of, verts_of
    from powerham.pathcover import _extensions, _start_edge, _window
    from powerham.rng import SplitMix64

    k = h.k
    used = _start_edge(h, SplitMix64(seed))
    seq = deque(verts_of(used))
    dead = [False, False]
    right = True
    while not all(dead) and len(seq) != limit:
        if not dead[right]:
            end = [seq[i] for i in (range(-k, 0) if right else range(k))]
            tm = mask_of(end)
            cands = _extensions(h, tm, _window(h, tm) & ~used)
            if cands:
                base = tm ^ (1 << (end[0] if right else end[-1]))
                around, adj = _window(h, base) & ~used, h.g.adj
                best = max(verts_of(cands), key=lambda v: (
                    _extensions(h, base | 1 << v, around & adj[v]).bit_count(), -v))
                if right:
                    seq.append(best)
                else:
                    seq.appendleft(best)
                used |= 1 << best
            else:
                dead[right] = True
        right = not right
    return tuple(seq)

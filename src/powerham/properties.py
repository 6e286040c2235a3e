"""Exact and heuristic checkers for the structural graph properties.

Three properties drive everything else:

* uniform density: every vertex subset U carries at least d|U|^2/2 - rho*n^2
  edges.  ``denseness_exact`` reports the least rho that works for a given d
  (the maximum normalized deficit over all 2^n subsets, clamped at 0);
* inseparability: every bipartition (X, V-X) is crossed by at least
  mu |X| |V-X| edges.  ``inseparable_exact`` reports the best mu (the
  minimum cut ratio);
* robust matchability: every U either meets the density bound or is small
  (|U| <= n/2 + rho*n) with at least |U| - rho*n outside vertices seeing
  >= d|U| - rho*n neighbors inside U.

The exact scanners enumerate subsets in Gray-code order, maintaining the
edge count inside the current subset incrementally (one adjacency-mask
popcount per step) and comparing deficits in integer arithmetic: for
d = p/q the subset deficit d s^2/2 - e equals (p s^2 - 2 q e) / (2 q), so
maximizing the integer numerator avoids all rational arithmetic in the hot
loop.  Reported values are exact Fractions; witnesses break ties toward the
lexicographically least sorted vertex tuple.

Heuristic modes give one-sided bounds only: the density heuristic exhibits a
concrete deficient subset (lower bound on rho), the inseparability heuristic
exhibits a concrete sparse cut (upper bound on mu), so both bounds are
sound certificates even when not tight.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from powerham.errors import InputError, SizeError
from powerham.graph import Graph, common_neighborhood_mask, verts_of
from powerham.rng import SplitMix64

EXACT_SUBSET_CAP = 26       # 2^n subset scans
EXACT_MATCHABLE_CAP = 22    # subset scan with O(n) work per failing subset
EXACT_PAIRED_CAP = 16       # subset scan with O(n) work per subset


@dataclass(frozen=True)
class DensenessReport:
    mode: str                 # "exact" | "heuristic"
    d: Fraction
    rho_star: Fraction        # exact: least valid rho; heuristic: lower bound
    witness: tuple[int, ...]  # subset attaining the reported deficit

    def to_json_dict(self) -> dict:
        return {"mode": self.mode, "d": str(self.d),
                "rho_star": str(self.rho_star),
                "witness": list(self.witness)}


@dataclass(frozen=True)
class InseparabilityReport:
    mode: str
    mu_star: Fraction         # exact: best valid mu; heuristic: upper bound
    witness: tuple[int, ...]  # side of the cut attaining the reported ratio

    def to_json_dict(self) -> dict:
        return {"mode": self.mode, "mu_star": str(self.mu_star),
                "witness": list(self.witness)}


@dataclass(frozen=True)
class MatchabilityReport:
    ok: bool
    rho: Fraction
    d: Fraction
    witness: tuple[int, ...] | None  # failing subset when not ok

    def to_json_dict(self) -> dict:
        return {"mode": "exact", "ok": self.ok, "rho": str(self.rho),
                "d": str(self.d),
                "witness": None if self.witness is None else list(self.witness)}


@dataclass(frozen=True)
class PairedDensenessReport:
    """Worst bipartite-density deficit over ordered subset pairs (X, Y)."""
    d: Fraction
    rho_star: Fraction
    witness_x: tuple[int, ...]
    witness_y: tuple[int, ...]
    pair_count: int  # ordered edge pairs across the witness


def _gray_flip(step: int) -> int:
    """Index of the bit that flips between Gray codes of step-1 and step."""
    return (step & -step).bit_length() - 1


def _random_mask(rng: SplitMix64, n: int) -> int:
    """Uniform random subset of range(n): ceil(n/64) words, lowest first.

    For n <= 64 this is one ``next_u64()`` masked to the n low bits.
    """
    mask = 0
    for i in range(-(-n // 64)):
        mask |= rng.next_u64() << (64 * i)
    return mask & ((1 << n) - 1)


def denseness_exact(g: Graph, d: Fraction) -> DensenessReport:
    """Least rho making g (rho, d)-dense, by full subset enumeration."""
    d = Fraction(d)
    if g.n > EXACT_SUBSET_CAP:
        raise SizeError(f"exact denseness is capped at n <= {EXACT_SUBSET_CAP}")
    p, q = d.numerator, d.denominator
    adj = g.adj
    n = g.n
    cur = 0      # current subset mask
    e = 0        # edges inside cur
    size = 0
    best = 0     # integer deficit numerator: p * size^2 - 2 q e
    best_witness: tuple[int, ...] = ()
    for step in range(1, 1 << n):
        v = _gray_flip(step)
        bit = 1 << v
        if cur & bit:
            cur ^= bit
            e -= (adj[v] & cur).bit_count()
            size -= 1
        else:
            e += (adj[v] & cur).bit_count()
            cur ^= bit
            size += 1
        num = p * size * size - 2 * q * e
        if num > best:
            best = num
            best_witness = verts_of(cur)
        elif num == best and best > 0:
            w = verts_of(cur)
            if w < best_witness:
                best_witness = w
    rho = Fraction(best, 2 * q * n * n) if best > 0 else Fraction(0)
    return DensenessReport("exact", d, rho, best_witness)


def denseness_heuristic(g: Graph, d: Fraction, seed: int = 0,
                        budget: int = 20000) -> DensenessReport:
    """Lower bound on rho_star from randomized local search over subsets.

    Hill-climbs the integer deficit with single-vertex flips, restarting
    from seeded random subsets until the flip-evaluation budget runs out.
    The reported subset's deficit is attained, so rho_star >= reported.
    """
    if budget < 0:
        raise InputError("budget must be >= 0")
    d = Fraction(d)
    p, q = d.numerator, d.denominator
    n = g.n
    adj = g.adj
    rng = SplitMix64(seed)
    full = g.full_mask()

    def deficit_num(mask: int) -> int:
        size = mask.bit_count()
        e = sum((adj[v] & mask).bit_count() for v in verts_of(mask)) // 2
        return p * size * size - 2 * q * e

    best = 0
    best_witness: tuple[int, ...] = ()
    spent = 0
    starts = [0, full]
    while spent < budget:
        mask = starts.pop() if starts else _random_mask(rng, n)
        num = deficit_num(mask)
        improved = True
        while improved and spent < budget:
            improved = False
            for v in range(n):
                bit = 1 << v
                inside = mask & ~bit
                delta_e = (adj[v] & inside).bit_count()
                size = mask.bit_count()
                if mask & bit:
                    cand = num - p * (2 * size - 1) + 2 * q * delta_e
                else:
                    cand = num + p * (2 * size + 1) - 2 * q * delta_e
                spent += 1
                if cand > num:
                    mask ^= bit
                    num = cand
                    improved = True
        if num > best:
            best = num
            best_witness = verts_of(mask)
    rho = Fraction(best, 2 * q * n * n) if best > 0 else Fraction(0)
    return DensenessReport("heuristic", d, rho, best_witness)


def _canonical_side(mask: int, full: int) -> tuple[int, ...]:
    a = verts_of(mask)
    b = verts_of(full & ~mask)
    return min(a, b)


def inseparable_exact(g: Graph) -> InseparabilityReport:
    """Best mu for which g is mu-inseparable: min cut ratio over bipartitions.

    Enumerates each bipartition once by scanning subsets of V minus the top
    vertex in Gray order, tracking cut size incrementally via the degree sum
    and the inside-edge count.  Ratios are compared by cross-multiplication.
    """
    n = g.n
    if n < 2:
        raise InputError("inseparability needs n >= 2")
    if n > EXACT_SUBSET_CAP:
        raise SizeError(f"exact inseparability is capped at n <= {EXACT_SUBSET_CAP}")
    adj = g.adj
    degs = [row.bit_count() for row in g.adj]
    full = g.full_mask()
    cur = 0
    e_in = 0
    degsum = 0
    size = 0
    best_num, best_den = 1, 0  # +infinity
    best_witness: tuple[int, ...] = ()
    for step in range(1, 1 << (n - 1)):
        v = _gray_flip(step)
        bit = 1 << v
        if cur & bit:
            cur ^= bit
            e_in -= (adj[v] & cur).bit_count()
            degsum -= degs[v]
            size -= 1
        else:
            e_in += (adj[v] & cur).bit_count()
            cur ^= bit
            degsum += degs[v]
            size += 1
        cut = degsum - 2 * e_in
        den = size * (n - size)
        # cut/den < best_num/best_den ?
        cmp = cut * best_den - best_num * den
        if cmp < 0:
            best_num, best_den = cut, den
            best_witness = _canonical_side(cur, full)
        elif cmp == 0:
            w = _canonical_side(cur, full)
            if w < best_witness:
                best_witness = w
    return InseparabilityReport("exact", Fraction(best_num, best_den),
                                best_witness)


def inseparable_heuristic(g: Graph, seed: int = 0,
                          budget: int = 20000) -> InseparabilityReport:
    """Upper bound on mu_star from the best cut found by two heuristics.

    Runs a degree-ordered sweep and a seeded local search restarted from
    random subsets of all n vertices; reports the sparsest cut encountered.
    The cut is exhibited, so mu_star <= reported ratio.  Cuts are tracked
    incrementally: moving v across changes the cut by
    +-(deg(v) - 2 |N(v) & side|), and ratios are compared by integer
    cross-multiplication.
    """
    n = g.n
    if n < 2:
        raise InputError("inseparability needs n >= 2")
    if budget < 0:
        raise InputError("budget must be >= 0")
    adj = g.adj
    degs = [row.bit_count() for row in adj]
    full = g.full_mask()
    best_cut, best_den = 1, 0   # +infinity
    best_mask = 1

    def consider(mask: int, cut: int, size: int):
        nonlocal best_cut, best_den, best_mask
        den = size * (n - size)
        if cut * best_den < best_cut * den:
            best_cut, best_den, best_mask = cut, den, mask

    # degree-ordered sweep
    order = sorted(range(n), key=lambda v: (degs[v], v))
    mask = cut = 0
    for size, v in enumerate(order[:-1], start=1):
        cut += degs[v] - 2 * (adj[v] & mask).bit_count()
        mask |= 1 << v
        consider(mask, cut, size)

    # seeded local search on the ratio
    rng = SplitMix64(seed)
    spent = 0
    while spent < budget:
        mask = _random_mask(rng, n)
        if mask in (0, full):
            mask = 1
        size = mask.bit_count()
        cut = sum((adj[v] & ~mask).bit_count() for v in verts_of(mask))
        improved = True
        while improved and spent < budget:
            improved = False
            for v in range(n):
                spent += 1
                step = degs[v] - 2 * (adj[v] & mask).bit_count()
                if (mask >> v) & 1:
                    cand_cut, cand_size = cut - step, size - 1
                else:
                    cand_cut, cand_size = cut + step, size + 1
                if cand_size in (0, n):
                    continue
                # cand_cut / cand_den < cut / den
                if (cand_cut * size * (n - size)
                        < cut * cand_size * (n - cand_size)):
                    mask ^= 1 << v
                    cut, size = cand_cut, cand_size
                    improved = True
        consider(mask, cut, size)

    return InseparabilityReport("heuristic", Fraction(best_cut, best_den),
                                _canonical_side(best_mask, full))


def is_connectable(g: Graph, clique: tuple[int, ...], threshold: int) -> bool:
    """True iff `clique` has at least `threshold` common neighbors."""
    return common_neighborhood_mask(g, clique).bit_count() >= threshold


def robustly_matchable_exact(g: Graph, rho: Fraction, d: Fraction
                             ) -> MatchabilityReport:
    """Check the two-disjunct matchability condition on every subset.

    A subset passes if it meets the density bound, or if it is small enough
    (|U| <= n/2 + rho n) and all but rho*n outside vertices have at least
    d|U| - rho*n neighbors inside U.  Returns the first failing subset (in
    Gray enumeration order) as witness.
    """
    rho, d = Fraction(rho), Fraction(d)
    n = g.n
    if n > EXACT_MATCHABLE_CAP:
        raise SizeError(f"exact matchability is capped at n <= {EXACT_MATCHABLE_CAP}")
    p, q = d.numerator, d.denominator
    a, b = rho.numerator, rho.denominator
    adj = g.adj
    cur = 0
    e = 0
    size = 0
    for step in range(1, 1 << n):
        v = _gray_flip(step)
        bit = 1 << v
        if cur & bit:
            cur ^= bit
            e -= (adj[v] & cur).bit_count()
            size -= 1
        else:
            e += (adj[v] & cur).bit_count()
            cur ^= bit
            size += 1
        # disjunct 1: e >= d size^2 / 2 - rho n^2
        if b * (p * size * size - 2 * q * e) <= 2 * q * a * n * n:
            continue
        # disjunct 2a: size <= n/2 + rho n
        if 2 * b * size > b * n + 2 * a * n:
            return MatchabilityReport(False, rho, d, verts_of(cur))
        # disjunct 2b: enough outside vertices with >= d size - rho n
        # neighbors in U;  q b |N(v) & U| >= p size b - a n q
        need = p * size * b - a * n * q
        good = 0
        outside = g.full_mask() & ~cur
        for u in verts_of(outside):
            if q * b * (adj[u] & cur).bit_count() >= need:
                good += 1
        if b * good < b * size - a * n:
            return MatchabilityReport(False, rho, d, verts_of(cur))
    return MatchabilityReport(True, rho, d, None)


def bipartite_denseness_exact(g: Graph, d: Fraction) -> PairedDensenessReport:
    """Worst deficit of the paired bound e(X,Y) >= d|X||Y| - rho n^2.

    For fixed X the deficit d|X||Y| - e(X,Y) decomposes over the members of
    Y, so the inner maximization keeps exactly the vertices with positive
    contribution; only X is enumerated.  Witness ties prefer the
    lexicographically least (X, then Y).
    """
    d = Fraction(d)
    n = g.n
    if n > EXACT_PAIRED_CAP:
        raise SizeError(f"paired denseness is capped at n <= {EXACT_PAIRED_CAP}")
    p, q = d.numerator, d.denominator
    adj = g.adj
    best = 0             # q-scaled deficit: sum over Y of (p|X| - q|N(y) & X|)
    best_x: tuple[int, ...] = ()
    best_y: tuple[int, ...] = ()
    for x_mask in range(1 << n):
        sx = x_mask.bit_count()
        total = 0
        y_mask = 0
        for y in range(n):
            contrib = p * sx - q * (adj[y] & x_mask).bit_count()
            if contrib > 0:
                total += contrib
                y_mask |= 1 << y
        if total > best:
            best = total
            best_x, best_y = verts_of(x_mask), verts_of(y_mask)
        elif total == best and best > 0:
            cand = (verts_of(x_mask), verts_of(y_mask))
            if cand < (best_x, best_y):
                best_x, best_y = cand
    if best == 0:
        return PairedDensenessReport(d, Fraction(0), (), (), 0)
    from powerham.graph import edges_between
    pairs = edges_between(g, best_x, best_y)
    return PairedDensenessReport(d, Fraction(best, q * n * n),
                                 best_x, best_y, pairs)

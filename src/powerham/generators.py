"""Seeded graph families used as fixtures and stress instances.

All randomness flows through the package RNG with one draw per candidate
pair, taken in lexicographic pair order, so any port that matches the RNG
reference vectors reproduces these graphs bit for bit.  The random families
share one kernel, ``_draw_rows``: one ``SplitMix64.words`` call per row,
and a pair is kept iff its word u < ceil(p_num * 2**64 / q), for integer u
exactly ``chance(p)``'s rule u * q < p_num * 2**64 hoisted out of the pair
loop; so a build costs O(n) big-int work per row plus one compare per pair.

The two named structured families mirror the standard witnesses for the
difference between uniform density and inseparability: two large cliques
sharing a small intersection (dense on every subset, but with a sparse
bipartite corner), and an independent set fully joined to a clique (dense
pairs everywhere, yet no Hamilton cycle once the independent side has the
majority).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor
from typing import Iterable, Sequence

from powerham.errors import InputError
from powerham.graph import Graph
from powerham.rng import SplitMix64


@dataclass(frozen=True)
class GenSpec:
    """Echo of how a graph was generated; serialized next to saved graphs."""
    family: str
    params: dict = field(default_factory=dict)
    seed: int | None = None

    def to_json(self) -> str:
        payload = {"family": self.family, "params": self.params}
        if self.seed is not None:
            payload["seed"] = self.seed
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _draw_rows(n: int, p: Fraction, seed: int,
               spans: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """Rows of the graph that keeps pair (u, v), for each (u, lo) of `spans`
    and each v in [lo, n), iff that pair's draw passes ``chance(p)``.

    One draw per pair in the order given, one ``SplitMix64(seed).words`` call
    per row.  Row u's bits v >= lo fill one ASCII row; the mirror bit u of
    row v goes to a packed ``back`` row, so the build holds n^2 / 8 bytes.
    """
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise InputError("p must lie in [0, 1]")
    keep = -(-(p.numerator << 64) // p.denominator)   # ceil(p_num 2**64 / q)
    rng = SplitMix64(seed)
    ahead = [0] * n
    back = [bytearray((n + 7) >> 3) for _ in range(n)]   # little-endian bits
    for u, lo in spans:
        digits = bytearray(b"0") * n   # digits[v] is bit v
        at, bit = u >> 3, 1 << (u & 7)
        for v, w in zip(range(lo, n), rng.words(n - lo)):
            if w < keep:
                digits[v] = 49   # ord("1")
                back[v][at] |= bit
        ahead[u] = int(digits[::-1], 2)
    return tuple(a | int.from_bytes(b, "little") for a, b in zip(ahead, back))


def gnp(n: int, p: Fraction, seed: int) -> Graph:
    """Binomial random graph; one RNG draw per pair (u < v), lex order."""
    if n < 1:
        raise InputError("n must be >= 1")
    return Graph(n, _draw_rows(n, p, seed, ((u, u + 1) for u in range(n))))


def random_bipartite(n: int, p: Fraction, seed: int) -> Graph:
    """Random bipartite graph with sides of size floor(n/2) and ceil(n/2).

    Side one is [0, n//2); each cross pair gets one draw, lex order.
    """
    if n < 2:
        raise InputError("n must be >= 2")
    half = n // 2
    return Graph(n, _draw_rows(n, p, seed, ((u, half) for u in range(half))))


def _block_graph(sizes: Sequence[int], sees: Sequence[int]) -> Graph:
    """Graph on consecutive id blocks of the given sizes, block 0 first;
    each vertex of block i is joined to every other vertex in mask sees[i]."""
    rows: list[int] = []
    for size, mask in zip(sizes, sees):
        lo = len(rows)
        rows.extend(mask & ~(1 << v) for v in range(lo, lo + size))
    return Graph(len(rows), tuple(rows))


def complete_multipartite(part_sizes: Sequence[int]) -> Graph:
    """Complete multipartite graph; parts occupy consecutive id blocks."""
    if not part_sizes or any(s < 1 for s in part_sizes):
        raise InputError("part sizes must be positive")
    full = (1 << sum(part_sizes)) - 1
    sees = []
    lo = 0
    for s in part_sizes:
        sees.append(full ^ (((1 << s) - 1) << lo))
        lo += s
    return _block_graph(part_sizes, sees)


def two_overlapping_cliques(n: int, mu: Fraction) -> Graph:
    g, _, _ = two_overlapping_cliques_parts(n, mu)
    return g


def two_overlapping_cliques_parts(n: int, mu: Fraction
                                  ) -> tuple[Graph, set[int], set[int]]:
    """Two cliques A, B with |A|=|B|=ceil((1/2+mu/2)n), |A∩B|=floor(mu*n).

    The three blocks sit at consecutive ids: A-only, shared, B-only.  The
    raw block sizes can overshoot n by a ceil/floor sliver; the overshoot
    is trimmed from A-only first, then B-only.  Returns (graph, A, B).
    """
    mu = Fraction(mu)
    if n < 1 or not 0 < mu <= 1:
        raise InputError("need n >= 1 and 0 < mu <= 1")
    clique = ceil((Fraction(1, 2) + mu / 2) * n)
    shared = floor(mu * n)
    a_only = clique - shared
    b_only = clique - shared
    excess = a_only + b_only + shared - n
    if excess < 0:
        raise InputError("block sizes undershoot n; mu out of usable range")
    trim = min(excess, a_only)
    a_only -= trim
    b_only -= excess - trim
    if b_only < 0:
        raise InputError("block sizes infeasible for this (n, mu)")
    full = (1 << n) - 1
    a_mask, b_mask = (1 << (a_only + shared)) - 1, full ^ ((1 << a_only) - 1)
    g = _block_graph((a_only, shared, b_only), (a_mask, full, b_mask))
    return g, set(range(a_only + shared)), set(range(a_only, n))


def clique_complement(n: int, mu: Fraction) -> Graph:
    """Independent set of floor((1-mu)n) fully joined to a clique on the rest.

    Every vertex pair is either inside the clique or meets the join, so the
    graph is uniformly dense, yet an independent majority blocks Hamilton
    cycles.  Independent block first, clique block last.
    """
    mu = Fraction(mu)
    if n < 1 or not 0 < mu <= 1:
        raise InputError("need n >= 1 and 0 < mu <= 1")
    ind = floor((1 - mu) * n)
    full = (1 << n) - 1
    return _block_graph((ind, n - ind), (full ^ ((1 << ind) - 1), full))


def generate(spec: GenSpec) -> Graph:
    """Dispatch a GenSpec to its family; used by the CLI."""
    fam = spec.family
    p = spec.params
    if fam == "gnp":
        return gnp(p["n"], Fraction(p["p"]), spec.seed or 0)
    if fam == "random_bipartite":
        return random_bipartite(p["n"], Fraction(p["p"]), spec.seed or 0)
    if fam == "multipartite":
        return complete_multipartite(p["parts"])
    if fam == "two_cliques":
        return two_overlapping_cliques(p["n"], Fraction(p["mu"]))
    if fam == "clique_complement":
        return clique_complement(p["n"], Fraction(p["mu"]))
    raise InputError(f"unknown family '{fam}'")

"""The benchmark's workloads: which graphs, which k, and what a find must return.

Every workload draws its graphs at p = 3/4 from a contiguous range of graph
seeds whose offset is ``seed * panel``, so seeds 0, 1, 2, ... cover
disjoint ranges and seed 0 starts at graph seed 0.  Find ``i`` of a run
uses panel entry ``i % panel`` with ``PipelineConfig(k, seed=offset + i)``;
the first pass over the panel therefore runs each graph with its own seed.

Positive workloads expect a certificate.  ``no_power`` holds only graphs
with a planted obstruction that the benchmark checks itself before any
find is timed, so the right answer is no certificate and a named failed
stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

P = Fraction(3, 4)


@dataclass(frozen=True)
class Case:
    label: str
    graph: object
    k: int
    positive: bool


@dataclass(frozen=True)
class Workload:
    name: str
    panel: int          # distinct graphs per run
    digest_finds: int   # finds hashed into outcome_digest
    make: Callable      # (powerham modules, graph seed) -> Case


def _gnp(ph, n, k, s) -> Case:
    return Case(f"gnp({n},3/4,{s}) k={k}", ph["generators"].gnp(n, P, s),
                k, True)


def plant_low_degree(ph, g, v: int, degree: int):
    """Copy of g in which v keeps only its `degree` lowest neighbours."""
    rows = list(g.adj)
    keep, rest = 0, rows[v]
    for _ in range(degree):
        low = rest & -rest
        keep |= low
        rest ^= low
    rows[v] = keep
    while rest:
        low = rest & -rest
        rest ^= low
        rows[low.bit_length() - 1] &= ~(1 << v)
    return ph["graph"].Graph(g.n, tuple(rows))


def _no_power(ph, s) -> Case:
    # three graphs with a planted degree-(2k-1) vertex to one
    # clique_complement: the two obstructions fail in different stages
    # (connect and cover); both kinds take 0.5-0.8 s a find
    if s % 4 == 3:
        g = ph["generators"].clique_complement(60, Fraction(1, 2))
        return Case(f"clique_complement(60,1/2) #{s} k=2", g, 2, False)
    g = plant_low_degree(ph, ph["generators"].gnp(60, P, s), 0, 1)
    return Case(f"gnp(60,3/4,{s}) deg(0)=1 k=1", g, 1, False)


WORKLOADS = {w.name: w for w in (
    Workload("dense_k3", 4, 4, lambda ph, s: _gnp(ph, 300, 3, s)),
    Workload("large_k1", 2, 4, lambda ph, s: _gnp(ph, 600, 1, s)),
    Workload("retry_k3", 48, 24, lambda ph, s: _gnp(ph, 60, 3, s)),
    Workload("no_power", 48, 24, _no_power),
)}


def obstruction(case: Case) -> str | None:
    """Why `case` cannot have a k-th power, or None if no reason is found.

    A vertex of the k-th power of a Hamiltonian cycle on n >= 2k + 1
    vertices has degree at least 2k, and an independent set takes at most
    one vertex of every k + 1 consecutive ones, so at most floor(n/(k+1)).
    """
    g, k = case.graph, case.k
    if g.n < 2 * k + 1:
        return None
    low = [v for v in range(g.n) if g.adj[v].bit_count() < 2 * k]
    if low:
        return f"vertex {low[0]} has degree {g.adj[low[0]].bit_count()} < {2 * k}"
    # greedy independent set by ascending degree
    chosen, blocked = [], 0
    for v in sorted(range(g.n), key=lambda v: (g.adj[v].bit_count(), v)):
        if not (blocked >> v) & 1:
            chosen.append(v)
            blocked |= g.adj[v] | (1 << v)
    if len(chosen) > g.n // (k + 1):
        return (f"independent set of {len(chosen)} > "
                f"floor({g.n}/{k + 1}) = {g.n // (k + 1)}")
    return None


def is_power_of_cycle(g, ordering, k: int) -> bool:
    """Independent check: a permutation whose pairs within distance k are edges."""
    n = g.n
    if sorted(ordering) != list(range(n)):
        return False
    for i in range(n):
        row = g.adj[ordering[i]]
        for d in range(1, k + 1):
            if d % n and not (row >> ordering[(i + d) % n]) & 1:
                return False
    return True

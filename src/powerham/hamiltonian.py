"""End-to-end search for the k-th power of a Hamiltonian cycle.

The pipeline runs the absorption argument in proof order: sample and join
an absorber family into one long path, set aside a random reservoir, cover
most of what is left by one tight path, close the two paths into a cycle
through the reservoir, then absorb the stragglers into the absorber
segments.  Every certificate is verified internally before it is
returned, and a bounded brute-force oracle provides independent ground
truth on small graphs.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from fractions import Fraction
from math import ceil
from typing import Optional

from powerham.absorber import (absorb, build_absorbing_path, join_chain,
                               sample_family)
from powerham.connector import ConnectRequest, connect
from powerham.errors import (AssemblyError, CapacityError, InfeasibleSetError,
                             InputError, PowerhamError, SizeError)
from powerham.graph import Graph, is_clique, list_cliques, mask_of, verts_of
from powerham.pathcover import KPath, cover_with_paths
from powerham.properties import inseparable_heuristic, is_connectable
from powerham.rng import DEFAULT_SEED, SplitMix64

STAGES = ("obstruction", "absorbing_path", "reservoir", "cover", "connect",
          "absorb")

ORACLE_CAP = 14
MAX_HITTING_SETS = 64
MAX_INNER_CAP = 24
# keeps each closing search from stalling on an adversarial pool
CONNECT_NODE_BUDGET = 200_000
# a connectable k-tuple has at least ceil(ZETA * n) common neighbours
ZETA = Fraction(1, 25)
# each vertex off the absorbing path joins the reservoir at this rate
RESERVOIR_FRACTION = Fraction(1, 10)


@dataclass(frozen=True)
class PipelineConfig:
    """Power k, retry count and seed of one run; frozen for its report.

    The rest is fixed: ZETA, RESERVOIR_FRACTION, and a cover path capped
    to leave half the absorbing capacity (at least 1 vertex).  The cover is
    skipped when at most min(max_inner, capacity) vertices are left off
    the absorbing path and the reservoir: always in an attempt's first
    reservoir round, and in its second only if none of them is unhostable.
    """
    k: int
    retries: int = 9
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.k < 1:
            raise InputError("k must be >= 1")
        if self.retries < 0:
            raise InputError("retries must be >= 0")


@dataclass(frozen=True)
class Certificate:
    """A cyclic ordering claimed to realize the k-th cycle power."""
    k: int
    ordering: tuple[int, ...]

    def to_json_dict(self):
        return {"k": self.k, "ordering": list(self.ordering)}


def canonicalize(cert: Certificate) -> Certificate:
    """Rotate to start at vertex 0 and keep the lex-smaller direction."""
    o = cert.ordering
    if 0 not in o:
        raise InputError("ordering does not contain vertex 0")
    i = o.index(0)
    fwd = o[i:] + o[:i]
    rev = tuple(reversed(o))
    j = rev.index(0)
    bwd = rev[j:] + rev[:j]
    return Certificate(cert.k, min(fwd, bwd))


def verify(g: Graph, cert: Certificate
           ) -> tuple[bool, Optional[tuple[int, int]]]:
    """Check every pair at cyclic distance <= k; report the first miss.

    The ordering must be a permutation of the vertex set, anything else is
    an input error rather than a verification failure.
    """
    o = cert.ordering
    n = g.n
    if sorted(o) != list(range(n)):
        raise InputError("ordering is not a permutation of the vertices")
    if cert.k < 1:
        raise InputError("k must be >= 1")
    for i in range(n):
        for d in range(1, cert.k + 1):
            if d % n == 0:
                continue    # the pair wraps onto itself
            u, v = o[i], o[(i + d) % n]
            if not g.has_edge(u, v):
                return False, (u, v)
    return True, None


def extract_clique_factor(g: Graph, cert: Certificate
                          ) -> tuple[tuple[int, ...], ...]:
    """Cut floor(n/(k+1)) disjoint (k+1)-cliques out of consecutive windows."""
    o, k = cert.ordering, cert.k
    out = []
    for i in range(len(o) // (k + 1)):
        win = o[i * (k + 1):(i + 1) * (k + 1)]
        if not is_clique(g, win):
            raise PowerhamError(f"window {win} is not a clique")
        out.append(win)
    return tuple(out)


def brute_force_oracle(g: Graph, k: int) -> Optional[Certificate]:
    """Exhaustive search for a certificate, usable as independent truth.

    Backtracking over cyclic orderings anchored at vertex 0; a candidate
    must be adjacent to the last k placed vertices, and near the end also
    to the placed vertices it will wrap onto (all of them once k >= n - 1,
    so only a complete graph passes).  Mirror orderings are cut at the
    leaves, which is safe because the search generates both directions.
    """
    if k < 1:
        raise InputError("k must be >= 1")
    n = g.n
    if n > ORACLE_CAP:
        raise SizeError(f"oracle handles n <= {ORACLE_CAP} only")
    if n == 1:
        return Certificate(k, (0,))
    if n == 2:
        return Certificate(k, (0, 1)) if g.has_edge(0, 1) else None

    order = [0] * n
    found: Optional[tuple[int, ...]] = None

    def place(p: int, used: int) -> bool:
        nonlocal found
        if p == n:
            if order[1] < order[-1]:
                found = tuple(order)
                return True
            return False
        cand = g.full_mask() & ~used
        for i in range(max(0, p - k), p):
            cand &= g.adj[order[i]]
        # wraparound: positions past n-k close pairs with the first ones
        for j in range(min(p, p + k - n + 1)):
            cand &= g.adj[order[j]]
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            order[p] = v
            if place(p + 1, used | (1 << v)):
                return True
        return False

    if not place(1, 1):
        return None
    cert = canonicalize(Certificate(k, found))
    ok, _ = verify(g, cert)
    if not ok:
        raise PowerhamError("oracle produced an invalid certificate")
    return cert


def screen_obstruction(g: Graph, k: int) -> Optional[dict]:
    """A witness that g holds no k-th power of a Hamilton cycle, or None.

    The power on n >= 2k + 1 vertices is 2k-regular and has no independent
    set over floor(n/(k+1)).  The witness is the lowest (degree, id) vertex
    or the greedy independent set taken in that order; the greedy stops as
    soon as its set plus every free vertex is within the bound, at once
    when n - min degree is.
    """
    n, bound = g.n, g.n // (k + 1)
    if n < 2 * k + 1:
        return None
    deg = list(map(int.bit_count, g.adj))
    v = deg.index(min(deg))
    if deg[v] < 2 * k:
        return {"kind": "degree", "vertex": v, "degree": deg[v]}
    chosen, free = [v], g.full_mask() & ~(g.adj[v] | 1 << v)
    while free and len(chosen) + free.bit_count() > bound:
        v = min(verts_of(free), key=deg.__getitem__)
        chosen.append(v)
        free &= ~(g.adj[v] | 1 << v)
    return ({"kind": "independent_set", "set": sorted(chosen)}
            if len(chosen) > bound else None)


def verify_obstruction(g: Graph, k: int, witness: dict) -> bool:
    """Re-check a ``screen_obstruction`` witness against the graph alone."""
    n, s = g.n, witness.get("set", ())
    if n < 2 * k + 1:
        return False
    if witness["kind"] == "degree":
        v = witness["vertex"]
        return 0 <= v < n and g.adj[v].bit_count() == witness["degree"] < 2 * k
    m = mask_of(v for v in s if 0 <= v < n)
    return (m.bit_count() == len(s) > n // (k + 1)
            and not any(g.adj[v] & m for v in s))


@dataclass(frozen=True)
class StageReport:
    """What each stage did, which seeds it used, and where it stopped."""
    n: int
    k: int
    attempts: int
    failed_stage: Optional[str]
    stages: dict
    timings: dict
    notes: tuple[str, ...] = ()

    def to_json_dict(self):
        # timings stay out: reports must be byte-stable across runs
        return {"n": self.n, "k": self.k, "attempts": self.attempts,
                "failed_stage": self.failed_stage,
                "stages": self.stages, "notes": list(self.notes)}


@dataclass(frozen=True)
class PipelineResult:
    certificate: Optional[Certificate]
    report: StageReport
    tallies: tuple[int, ...] = ()   # hitting-set finds: windows per set

    @property
    def ok(self) -> bool:
        return self.certificate is not None


@contextmanager
def _timed(timings: dict, name: str):
    """Add the block's wall time to ``timings[name]``, however it exits."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        timings[name] = timings.get(name, 0.0) + time.perf_counter() - t0


def _reservoir(pool: int, seed: int) -> int:
    """Mask of the `pool` vertices that ``chance(RESERVOIR_FRACTION)`` keeps,
    called once a vertex in ascending order on ``SplitMix64(seed)``."""
    vs, p = verts_of(pool), RESERVOIR_FRACTION
    return mask_of(v for v, u in zip(vs, SplitMix64(seed).words(len(vs)))
                   if u * p.denominator < p.numerator << 64)


def _family_target(n: int, k: int) -> int:
    # absorbing capacity scales with the family; spend about 2n/3 on the
    # path so the stop gate (half capacity) leaves the cover stage slack
    return max(2, round(2 * n / (3 * (2 * k + 1))))


def _practical_max_inner(mu: Fraction, k: int) -> int:
    """Connection length ceiling, scaled to how separable the graph looks."""
    level = MAX_INNER_CAP if mu <= 0 else int(8 / mu) + 2
    return max(k + 2, min(level, MAX_INNER_CAP))


def _close_cycle(g: Graph, k: int, pa, reverse: bool, cover, reservoir: int,
                 max_inner: int, seed: int, prefer: int = 0):
    """Join the absorbing path and the cover path into one cycle, routing
    through the pool: the reservoir plus the cover's leftover.

    The head is ``pa.path``, back to front when ``reverse`` is set.  The
    joints come in a fixed order: with a cover path the first docks it
    onto the head, tried forwards and then reversed, and the last closes
    the cycle back to the head.  Each ladder starts at half the pool left
    to its joint, capped at max_inner: at the closing joint ``absorb`` is
    the only other taker, and a closure counts only if ``absorb`` takes
    every pool vertex it leaves.  A joint builds one request per option,
    with its pool and ``CONNECT_NODE_BUDGET``, and connects one level a
    call.  Every call breaks ties by one key table drawn from seed, in
    which the ``prefer`` vertices' keys are lowered by 2**64 so that they
    are routed first.  Returns the stage record and the cycle's vertex
    order, the absorbed path first (reversed with the head), or None for
    the order when a joint failed.
    """
    head = KPath(k, pa.path.vertices[::-1]) if reverse else pa.path
    pool = reservoir | mask_of(cover.leftover)
    keys = list(SplitMix64(seed).words(g.n))
    for v in verts_of(prefer):
        keys[v] -= 1 << 64
    steps = [(p, KPath(k, p.vertices[::-1])) for p in cover.paths]
    steps.append((head,))
    joints = len(steps)
    tail: list[int] = []
    routed = 0
    cur = head
    for j, options in enumerate(steps):
        closing = j == joints - 1
        target = min(ceil(pool.bit_count() / 2), max_inner)
        ladder = list(range(target, -1, -1))
        ladder += list(range(target + 1, max_inner + 1))
        reqs = [ConnectRequest(g, cur.y_end, cand.x_end, pool,
                               CONNECT_NODE_BUDGET) for cand in options]
        found = None
        for t in ladder:
            for cand, req in zip(options, reqs):
                piece = connect(req, keys, t, t)
                if piece is None:
                    continue
                if closing:
                    # keep a closure only if its rest absorbs
                    try:
                        absorbed = absorb(g, pa, verts_of(
                            pool & ~mask_of(piece.vertices[k:-k])))
                    except CapacityError:
                        continue
                found = (cand, piece)
                break
            if found:
                break
        if found is None:
            return {"joints": joints, "failed_joint": j,
                    "pool": pool.bit_count(),
                    "pieces_left": joints - 1 - j, "seed": seed}, None
        cand, piece = found
        inner = piece.vertices[k:-k]
        routed |= mask_of(inner)
        pool &= ~routed
        tail += inner
        if not closing:
            tail += cand.vertices
            cur = cand
    # insertions into the segment midpoints stay valid under reversal
    order = absorbed.vertices[::-1] if reverse else absorbed.vertices
    reservoir_used = (routed & reservoir).bit_count()
    stage = {"joints": joints,
             "inner_total": routed.bit_count(),
             "reservoir_used": reservoir_used,
             "leftover_routed": routed.bit_count() - reservoir_used,
             "seed": seed}
    return stage, order + tuple(tail)


def _stitch_hitting_cliques(g: Graph, k: int, pa,
                            hitting: list[list[tuple[int, ...]]], seed: int,
                            max_inner: int):
    """Pick one clique per hitting set off the absorbing path and chain them
    onto its y end; returns ``pa`` with the longer path.

    The cliques follow every segment, so ``starts``, ``member_ids`` and
    ``hosts`` hold as they are.  The picks shuffle from
    ``SplitMix64(seed)``; the join's key table is seeded by the next word.
    Raises AssemblyError when every candidate of a set meets the path or an
    earlier pick, or when ``join_chain`` cannot join a clique on.
    """
    hrng = SplitMix64(seed)
    chosen: list[tuple[int, ...]] = []
    taken = pa.path.mask
    for i, cands in enumerate(hitting):
        pool = list(cands)
        hrng.shuffle(pool)
        pick = next((cl for cl in pool if not mask_of(cl) & taken), None)
        if pick is None:
            raise AssemblyError(f"every clique of hitting set {i} is taken")
        chosen.append(pick)
        taken |= mask_of(pick)
    verts, _ = join_chain(g, k, pa.path.vertices, chosen, hrng.next_u64(),
                          max_inner)
    return replace(pa, path=KPath(k, tuple(verts)))


def _certify(g: Graph, k: int, order: tuple[int, ...]) -> Certificate:
    """Canonicalize the cycle's vertex order and check it in full."""
    cert = canonicalize(Certificate(k, order))
    ok, viol = verify(g, cert)
    if not ok:
        raise PowerhamError(f"internal: invalid certificate, pair {viol}")
    extract_clique_factor(g, cert)
    return cert


def _attempt(g: Graph, cfg: PipelineConfig, seed: int, max_inner: int,
             timings: dict,
             hitting: Optional[list[list[tuple[int, ...]]]] = None):
    """One full pass over the five stages: ``(certificate, None, stages)``,
    or ``(None, the stage that gave up, stages)`` to retry.

    Each stage's wall time is added to ``timings`` under its name.
    """
    n, k = g.n, cfg.k
    stages: dict = {}
    srng = SplitMix64(seed)
    s_family = srng.next_u64()
    s_build = srng.next_u64()
    s_stitch = srng.next_u64()
    s_reservoir = srng.next_u64()
    s_cover = srng.next_u64()
    s_connect = srng.next_u64()

    # -- stage 1: absorbing path
    with _timed(timings, "absorbing_path"):
        family, _stats = sample_family(g, k, ZETA, Fraction(1), seed=s_family,
                                       max_members=_family_target(n, k))
        stages["absorbing_path"] = {"members": len(family), "seed": s_family}
        if len(family) < 2:
            return None, "absorbing_path", stages
        try:
            pa = build_absorbing_path(g, k, family, seed=s_build)
            if hitting is not None:
                pa = _stitch_hitting_cliques(g, k, pa, hitting, s_stitch,
                                             max_inner)
                stages["absorbing_path"]["stitched"] = len(hitting)
        except AssemblyError:
            return None, "absorbing_path", stages
        capacity = k * len(family)   # each segment hosts up to a k-clique
        stages["absorbing_path"].update(path_length=len(pa.path),
                                        capacity=capacity)
        # vertices no segment can host must leave the pool by routing,
        # so the connection search is told to spend them first
        incompat = g.full_mask() & ~pa.path.mask & ~pa.hostable

    # -- stages 2-5, with one reservoir resample allowed: when the cycle
    # cannot be closed by a closure whose rest absorbs, a fresh reservoir
    # reshuffles both the cover and the demand set, far cheaper than
    # rebuilding the family
    rseed = SplitMix64(s_reservoir)
    cseed = SplitMix64(s_cover)
    xseed = SplitMix64(s_connect)
    for rnd in range(2):
        # a round reports only its own later stages, never the last round's
        stages = {"absorbing_path": stages["absorbing_path"]}
        with _timed(timings, "reservoir"):
            round_seed = rseed.next_u64()
            reservoir = _reservoir(g.full_mask() & ~pa.path.mask, round_seed)
            stages["reservoir"] = {"size": reservoir.bit_count(),
                                   "rounds": rnd + 1, "seed": round_seed}

        with _timed(timings, "cover"):
            # a residue small enough for one joint closes more reliably as a
            # single rich connection than as covered paths docked through
            # starved pools, so in that regime the cover stands down; on the
            # second round it runs anyway if unhostable vertices are
            # present, since a path can carry them where a route could not
            live = g.full_mask() & ~(pa.path.mask | reservoir)
            round_stop = max(1, capacity // 2)
            if live.bit_count() <= min(max_inner, capacity):
                if rnd == 0 or not live & incompat:
                    round_stop = live.bit_count()
            # the cover path may start on an isolated clique; the cycle
            # closure docks it forwards or, failing that, reversed
            cover_seed = cseed.next_u64()
            cover = cover_with_paths(g, k, excluded=pa.path.mask | reservoir,
                                     stop_size=round_stop, seed=cover_seed)
            stages["cover"] = {"paths": [len(p) for p in cover.paths],
                               "leftover": len(cover.leftover),
                               "stop_size": round_stop, "seed": cover_seed}
            if not cover.reached_stop:
                return None, "cover", stages

        with _timed(timings, "connect"):
            for reverse in (False, True):
                stage, order = _close_cycle(
                    g, k, pa, reverse, cover, reservoir, max_inner,
                    xseed.next_u64(), incompat)
                if order is not None:
                    break
            stages["connect"] = stage
            if order is None:
                continue
            if stage["reservoir_used"] > stage["joints"] * max_inner:
                raise PowerhamError(
                    "internal: reservoir accounting bound violated")

        # -- stage 5: the closure absorbed the rest; certify the cycle
        with _timed(timings, "absorb"):
            # every pool vertex the joints did not route was absorbed
            stages["absorb"] = {"absorbed": reservoir.bit_count()
                                + len(cover.leftover) - stage["inner_total"],
                                "capacity": capacity}
            return _certify(g, k, order), None, stages
    return None, "connect", stages


def _run_pipeline(g: Graph, cfg: PipelineConfig,
                  sets: Optional[list[tuple[int, ...]]] = None
                  ) -> PipelineResult:
    """Screen, size up, set up once, then attempt until success or retries
    run out; every find, with hitting ``sets`` or without, runs here.

    ``timings`` covers the whole run: ``obstruction`` (the screen; a hit is
    re-verified and returned at once), ``setup`` plus every stage of every
    attempt.  Below 4k vertices stage 1 can never hold two disjoint
    2k-clique absorbers, so no attempt is made: under ``setup`` the
    brute-force oracle answers up to ``ORACLE_CAP`` vertices, larger graphs
    and every hitting-set find are refused.  Otherwise ``setup`` is the mu
    estimate that sets the connection length ceiling, from the heuristic's
    degree sweep alone (its local search never moved the ceiling on any
    benchmark or panel graph), and the listing of each set's connectable
    k-cliques.
    """
    n, k = g.n, cfg.k
    if n < 2:
        raise InputError("the pipeline needs a graph on at least 2 vertices")
    timings: dict = {}
    with _timed(timings, "obstruction"):
        hit = screen_obstruction(g, k)
        if hit and not verify_obstruction(g, k, hit):
            raise PowerhamError(f"internal: invalid obstruction {hit}")
    if hit:
        note = (f"vertex {hit['vertex']} has degree {hit['degree']} < 2k"
                if hit["kind"] == "degree" else f"independent set of "
                f"{len(hit['set'])} > floor(n/(k+1)) = {n // (k + 1)}")
        return PipelineResult(None, StageReport(n, k, 0, "obstruction", {
            "obstruction": hit}, timings, (note,)))
    if n < 4 * k:
        oracle = sets is None and n <= ORACLE_CAP
        with _timed(timings, "setup"):
            cert = brute_force_oracle(g, k) if oracle else None
        why = f"n < 4k leaves no room for two disjoint {2 * k}-clique absorbers"
        if oracle:
            note = f"{why}; answered by the brute-force oracle"
        elif sets is not None:
            note = f"refused: {why}"
        else:
            note = f"refused: {why}, and n exceeds the oracle cap {ORACLE_CAP}"
        return PipelineResult(cert, StageReport(
            n, k, 0, None if cert else "absorbing_path", {}, timings, (note,)))
    with _timed(timings, "setup"):
        mu = inseparable_heuristic(g, seed=0, budget=0).mu_star
        max_inner = _practical_max_inner(mu, k)
        hitting: Optional[list[list[tuple[int, ...]]]] = None
        if sets is not None:
            threshold, hitting = ceil(ZETA * n), []
            for i, s in enumerate(sets):
                cands = [cl for cl in list_cliques(g, k, within=mask_of(s))
                         if is_connectable(g, cl, threshold)]
                if not cands:
                    raise InfeasibleSetError(
                        f"set {i} contains no connectable {k}-clique")
                hitting.append(cands)

    # each attempt draws its seed as it starts: retries allocate nothing
    arng = SplitMix64(cfg.seed)
    for attempt in range(1, cfg.retries + 2):
        cert, failed, stages = _attempt(g, cfg, arng.next_u64(), max_inner,
                                        timings, hitting)
        if cert is not None:
            break
    report = StageReport(n, k, attempt, failed, stages, timings)
    return PipelineResult(cert, report)


def find_hamiltonian_power(g: Graph, cfg: PipelineConfig) -> PipelineResult:
    """Run the staged search; the result always carries a stage report."""
    return _run_pipeline(g, cfg)


def window_tallies(cert: Certificate, sets: list[tuple[int, ...]]
                   ) -> tuple[int, ...]:
    """Count, per set, the cyclic k-windows lying entirely inside it."""
    o, k, n = cert.ordering, cert.k, len(cert.ordering)
    windows = [mask_of(o[(i + d) % n] for d in range(k)) for i in range(n)]
    tallies = []
    for s in sets:
        outside = ~mask_of(s)
        tallies.append(sum(1 for w in windows if not w & outside))
    return tuple(tallies)


def find_with_hitting_sets(g: Graph, cfg: PipelineConfig,
                           sets: list[tuple[int, ...]]) -> PipelineResult:
    """Pipeline variant that plants a connectable k-clique in every set.

    Each requested set contributes at least one clique stitched onto the
    absorbing path, so the final cycle carries k-windows inside every set;
    the tallies report how many.  Sets are validated before the screen;
    below 4k vertices, where stage 1 has no room, they are refused with no
    attempt and a note saying why.
    """
    if len(sets) > MAX_HITTING_SETS:
        raise SizeError(f"at most {MAX_HITTING_SETS} sets are supported")
    for i, s in enumerate(sets):
        if len(set(s)) != len(s):
            raise InputError(f"set {i} repeats vertices")
        if any(not 0 <= v < g.n for v in s):
            raise InputError(f"set {i} leaves the vertex range")
        if len(s) < 2 * cfg.k:
            raise InputError(f"set {i} is smaller than 2k")
    result = _run_pipeline(g, cfg, sets)
    if not result.ok:
        return result
    tallies = window_tallies(result.certificate, sets)
    if 0 in tallies:
        raise PowerhamError("a planted clique vanished from the final cycle")
    return replace(result, tallies=tallies)

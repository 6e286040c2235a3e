"""Span tracing from outside the program, and the per-layer metrics it gives.

A :class:`Tracer` replaces a function at the name its caller bound (for
example ``powerham.hamiltonian.sample_family``, not the definition in
``powerham.absorber``) with a wrapper that records one span per call:
span id, parent span id, find id, name, start, end, busy seconds and a
small tuple of counts read off the result.  Nothing under ``src/`` changes
and :meth:`Tracer.restore` puts every original back.

Generator functions (``list_cliques``) get a wrapper that times only the
``next()`` calls, so a consumer's own work between two cliques is not
charged to the clique lister; their busy seconds are less than end minus
start.  A span's self time is its busy time minus the busy time of its
child spans.

Leaves called per candidate or per random draw (``rng``, ``is_clique``,
``is_connectable``, ``mask_of``) are left unwrapped: at millions of calls a
find, wrapping them would distort the run.  Their cost is part of the self
time of whichever traced function called them.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

ROOT = "hamiltonian.find_hamiltonian_power"

# (span name, module whose binding is replaced, attribute, generator?)
# connect is traced twice, once per caller: the absorber's joins assemble
# the absorbing path, the pipeline's own calls close the cycle
BINDINGS = (
    ("properties.inseparable_heuristic", "hamiltonian", "inseparable_heuristic", False),
    ("absorber.sample_family", "hamiltonian", "sample_family", False),
    ("absorber.build_absorbing_path", "hamiltonian", "build_absorbing_path", False),
    ("absorber.absorb", "hamiltonian", "absorb", False),
    ("connector.connect.closure", "hamiltonian", "connect", False),
    ("connector.connect.assembly", "absorber", "connect", False),
    ("pathcover.cover_with_paths", "hamiltonian", "cover_with_paths", False),
    ("pathcover.build_clique_hypergraph", "pathcover", "build_clique_hypergraph", False),
    ("pathcover.prune", "pathcover", "prune", False),
    ("pathcover.greedy_tight_path", "pathcover", "greedy_tight_path", False),
    ("graph.list_cliques", "pathcover", "list_cliques", True),
    ("graph.list_cliques", "absorber", "list_cliques", True),
    ("hamiltonian.verify", "hamiltonian", "verify", False),
    ("generators.gnp", "generators", "gnp", False),
)

# spans that live inside a find, in report order
FIND_SPANS = (ROOT,) + tuple(dict.fromkeys(
    name for name, *_ in BINDINGS if name != "generators.gnp"))
LAYERS = ("hamiltonian", "properties", "absorber", "connector", "pathcover",
          "graph")
COUNTED = ("properties.inseparable_heuristic", "absorber.sample_family",
           "connector.connect.assembly", "connector.connect.closure",
           "pathcover.cover_with_paths", "pathcover.greedy_tight_path")


def _counts(name, result):
    """Counts a span keeps from its function's result."""
    if name.startswith("connector.connect."):
        return (int(result is not None),)
    if name == "absorber.sample_family":
        stats = result[1]
        return (stats.members, stats.sampled)
    if name == "pathcover.cover_with_paths":
        return (len(result.paths),)
    return ()


class Tracer:
    """Records spans in memory; nothing is written until the run ends."""

    def __init__(self):
        # (id, parent, find, name, start, end, busy, counts)
        self.spans: list[tuple] = []
        self.find = None
        self._stack: list[int] = []
        self._next = 0
        self._undo: list[tuple] = []

    def _new_id(self) -> int:
        self._next += 1
        return self._next

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        sid = self._new_id()
        parent = self._stack[-1] if self._stack else None
        find = self.find
        self._stack.append(sid)
        start = perf_counter()
        counts = ()
        try:
            result = fn(*args, **kwargs)
            counts = _counts(name, result)
            return result
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, find, name, start, end,
                               end - start, counts))

    def _consume(self, name, it, sid, parent, find):
        start = perf_counter()
        busy = 0.0
        items = 0
        try:
            while True:
                self._stack.append(sid)
                t = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    busy += perf_counter() - t
                    self._stack.pop()
                items += 1
                yield item
        finally:
            it.close()
            self.spans.append((sid, parent, find, name, start,
                               perf_counter(), busy, (items,)))

    def _wrapper(self, name, fn, generator):
        if generator:
            def traced(*args, **kwargs):
                parent = self._stack[-1] if self._stack else None
                return self._consume(name, fn(*args, **kwargs),
                                     self._new_id(), parent, self.find)
        else:
            def traced(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict) -> None:
        """Wrap every binding in BINDINGS; modules maps short name to module."""
        for name, mod, attr, generator in BINDINGS:
            target = modules[mod]
            fn = getattr(target, attr)
            self._undo.append((target, attr, fn))
            setattr(target, attr, self._wrapper(name, fn, generator))

    def restore(self) -> None:
        while self._undo:
            target, attr, fn = self._undo.pop()
            setattr(target, attr, fn)


def self_times(spans) -> dict:
    """Span id -> busy seconds not covered by its child spans."""
    own = {s[0]: s[6] for s in spans}
    for s in spans:
        if s[1] is not None and s[1] in own:
            own[s[1]] -= s[6]
    return own


def layer_metrics(spans, finds: int, setup_rounds: int) -> dict:
    """Per-layer figures from one traced run, each normalised per find.

    ``finds`` is the number of traced finds, ``setup_rounds`` the number of
    set-up rounds whose ``generators.gnp`` spans are in ``spans``.
    """
    own = self_times(spans)
    busy = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    sums = defaultdict(lambda: [0, 0])
    for s in spans:
        name = s[3]
        if s[2] is None and name in FIND_SPANS:
            continue    # a set-up warm-up find, not a measured one
        busy[name] += s[6]
        self_s[name] += own[s[0]]
        calls[name] += 1
        for i, c in enumerate(s[7]):
            sums[name][i] += c
    f = max(finds, 1)
    wall = busy[ROOT] or 1.0
    out = {}
    for name in FIND_SPANS:
        out[f"{name}.s"] = busy[name] / f
        out[f"{name}.self_s"] = self_s[name] / f
        out[f"{name}.self_share"] = self_s[name] / wall
    for name in COUNTED:
        out[f"{name}.calls"] = calls[name] / f
    for layer in LAYERS:
        total = sum(self_s[k] for k in FIND_SPANS
                    if k.split(".", 1)[0] == layer)
        out[f"layer.{layer}.self_s"] = total / f
        out[f"layer.{layer}.self_share"] = total / wall

    fam = "absorber.sample_family"
    members, sampled = sums[fam]
    out[f"{fam}.members"] = members / max(calls[fam], 1)
    out[f"{fam}.sampled"] = sampled / max(calls[fam], 1)
    out["absorber.members_per_sampled"] = members / sampled if sampled else 0.0
    for role in ("assembly", "closure"):
        name = f"connector.connect.{role}"
        out[f"{name}.hit_rate"] = (sums[name][0] / calls[name]
                                   if calls[name] else 0.0)
    cover = "pathcover.cover_with_paths"
    out["pathcover.paths_per_cover"] = (sums[cover][0] / calls[cover]
                                        if calls[cover] else 0.0)
    out["graph.list_cliques.cliques"] = sums["graph.list_cliques"][0] / f
    out["generators.gnp.s"] = busy["generators.gnp"] / max(setup_rounds, 1)
    return out

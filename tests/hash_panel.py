"""Digest of seeded pipeline output over a fixed panel of finds.

Run it on two source trees to check that a change keeps seeded output
byte-identical:

    python3 tests/hash_panel.py            # this checkout's src/
    python3 tests/hash_panel.py OTHER/src  # for example a git worktree

It prints the number of finds and one SHA-256 over every find's
certificate, ``report.to_json_dict()`` and, for hitting-set finds, the
window tallies.  The panel is the criterion-5 cells, graphs shaped like
each benchmark workload (``dense_k3``, ``large_k1``, ``retry_k3``,
``no_power``) and two hitting-set finds; it takes about 30 s.  The file
name keeps pytest from collecting it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

P = Fraction(3, 4)


def _plant_degree_one(ph, g):
    """Copy of g in which vertex 0 keeps only its lowest neighbour."""
    rows = list(g.adj)
    keep = rows[0] & -rows[0]
    for u in range(1, g.n):
        if not (keep >> u) & 1:
            rows[u] &= ~1
    rows[0] = keep
    return ph.graph.Graph(g.n, tuple(rows))


def panel(ph):
    """Yield (label, graph, k, cfg seed, hitting sets or None).

    ``ph`` is the imported ``powerham`` package of the tree under test.
    """
    gnp = ph.generators.gnp
    for n in (40, 60, 80, 100):
        for k in (1, 2, 3):
            for s in range(20):
                yield f"criterion5 gnp({n},{s}) k={k}", gnp(n, P, s), k, s, None
    for s in range(4):
        yield f"dense_k3 gnp(300,{s})", gnp(300, P, s), 3, s, None
    for s in range(2):
        yield f"large_k1 gnp(600,{s})", gnp(600, P, s), 1, s, None
    for s in range(48):
        yield f"retry_k3 gnp(60,{s})", gnp(60, P, s), 3, s, None
    for s in range(8):
        if s % 4 == 3:
            g = ph.generators.clique_complement(60, Fraction(1, 2))
            yield f"no_power clique_complement(60,1/2) #{s}", g, 2, s, None
        else:
            g = _plant_degree_one(ph, gnp(60, P, s))
            yield f"no_power gnp(60,{s}) deg(0)=1", g, 1, s, None
    yield ("hitting complete(40)", ph.graph.Graph.complete(40), 2, 0,
           [tuple(range(10)), tuple(range(10, 20))])
    yield ("hitting gnp(80,2)", gnp(80, P, 2), 2, 2,
           [tuple(range(20)), tuple(range(20, 40)), tuple(range(40, 60))])


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src"
    src = src.resolve()
    sys.path.insert(0, str(src))
    import powerham.generators
    import powerham.graph
    import powerham.hamiltonian as ham
    if src not in Path(powerham.__file__).resolve().parents:
        sys.exit(f"powerham was imported from {powerham.__file__}, not {src}")

    digest = hashlib.sha256()
    finds = 0
    for label, g, k, seed, sets in panel(powerham):
        cfg = ham.PipelineConfig(k=k, seed=seed)
        row = {"label": label}
        if sets is None:
            res = ham.find_hamiltonian_power(g, cfg)
        else:
            res = ham.find_with_hitting_sets(g, cfg, sets)
            row["tallies"] = list(res.tallies)
        row["certificate"] = (None if res.certificate is None
                              else res.certificate.to_json_dict())
        row["report"] = res.report.to_json_dict()
        digest.update(json.dumps(row, sort_keys=True,
                                 separators=(",", ":")).encode() + b"\n")
        finds += 1
    print(f"finds {finds}")
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

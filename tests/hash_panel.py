"""Digest of seeded pipeline output over a fixed panel of finds.

Run it on two source trees to check that a change keeps seeded output
byte-identical:

    python3 tests/hash_panel.py            # this checkout's src/
    python3 tests/hash_panel.py OTHER/src  # for example a git worktree

It hashes every find's certificate, ``report.to_json_dict()`` and, for
hitting-set finds, the window tallies.  The panel has six sections: the
criterion-5 cells, graphs shaped like each benchmark workload
(``dense_k3``, ``large_k1``, ``retry_k3``, ``no_power``) and two
hitting-set finds; it takes 1-2 s on a 2-CPU machine.  One ``section``
line per section gives its find count and SHA-256, so a mismatch names
where it arose; the last two lines give the total find count and one
SHA-256 over the same bytes in panel order.  ``digests`` runs chosen
sections from Python; ``test_hamiltonian`` pins every section but
criterion 5 with it.  The file name keeps pytest from collecting it.
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


SECTIONS = ("criterion5", "dense_k3", "large_k1", "retry_k3", "no_power",
            "hitting")


def panel(ph, sections=SECTIONS):
    """Yield (label, graph, k, cfg seed, hitting sets or None).

    ``ph`` is the imported ``powerham`` package of the tree under test.
    A label's first word names its section.  Only the named ``sections``
    are yielded, and the others' graphs are never built.
    """
    gnp = ph.generators.gnp
    for n in (40, 60, 80, 100) if "criterion5" in sections else ():
        for k in (1, 2, 3):
            for s in range(20):
                yield f"criterion5 gnp({n},{s}) k={k}", gnp(n, P, s), k, s, None
    for s in range(4) if "dense_k3" in sections else ():
        yield f"dense_k3 gnp(300,{s})", gnp(300, P, s), 3, s, None
    for s in range(2) if "large_k1" in sections else ():
        yield f"large_k1 gnp(600,{s})", gnp(600, P, s), 1, s, None
    for s in range(48) if "retry_k3" in sections else ():
        yield f"retry_k3 gnp(60,{s})", gnp(60, P, s), 3, s, None
    for s in range(8) if "no_power" in sections else ():
        if s % 4 == 3:
            g = ph.generators.clique_complement(60, Fraction(1, 2))
            yield f"no_power clique_complement(60,1/2) #{s}", g, 2, s, None
        else:
            g = _plant_degree_one(ph, gnp(60, P, s))
            yield f"no_power gnp(60,{s}) deg(0)=1", g, 1, s, None
    if "hitting" in sections:
        yield ("hitting complete(40)", ph.graph.Graph.complete(40), 2, 0,
               [tuple(range(10)), tuple(range(10, 20))])
        yield ("hitting gnp(80,2)", gnp(80, P, 2), 2, 2,
               [tuple(range(20)), tuple(range(20, 40)), tuple(range(40, 60))])


def digests(ph, names=SECTIONS):
    """Run the named sections of the panel.

    Returns {section: [finds, sha256]}, the find count and one sha256 over
    every find in panel order.
    """
    ham = ph.hamiltonian
    digest = hashlib.sha256()
    sections: dict[str, list] = {}   # name -> [finds, sha256]
    finds = 0
    for label, g, k, seed, sets in panel(ph, names):
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
        line = json.dumps(row, sort_keys=True,
                          separators=(",", ":")).encode() + b"\n"
        digest.update(line)
        sec = sections.setdefault(label.split()[0], [0, hashlib.sha256()])
        sec[0] += 1
        sec[1].update(line)
        finds += 1
    return sections, finds, digest


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src"
    src = src.resolve()
    sys.path.insert(0, str(src))
    import powerham.generators
    import powerham.graph
    import powerham.hamiltonian
    if src not in Path(powerham.__file__).resolve().parents:
        sys.exit(f"powerham was imported from {powerham.__file__}, not {src}")

    sections, finds, digest = digests(powerham)
    for name, (count, sec_digest) in sections.items():
        print(f"section {name} finds {count} sha256 {sec_digest.hexdigest()}")
    print(f"finds {finds}")
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Success and attempts per cell on seeds that no pinned test runs.

    python3 tests/heldout_panel.py                  # this checkout's src/
    python3 tests/heldout_panel.py OLD/src NEW/src  # two trees, side by side

Criterion 5 runs 20 seeds a cell, too few to tell a change's effect from
seed luck at its hardest cells.  This panel runs, at cfg seed s:

- ``gnp(n, 3/4, s)`` for n = 40, 60, 80, 100, k = 1-3 and s = 20-119,
  held out from criterion 5's seeds 0-19;
- the p = 1/2 sweep, ``gnp(n, 1/2, s)`` for n = 60, 100, 200, k = 2, 3
  and s = 0-9.

One line per cell gives, for each tree, the certificates found over the
finds, the attempts summed over the finds, and the failed stage of each
find that failed, counted by stage.  Each tree runs in its own child
process, two trees side by side; the last lines give each tree's wall
seconds (about 30 s a tree on a 2-CPU machine).  It is a diagnostic, not
a gate.  The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

CELLS = ([(n, Fraction(3, 4), k, range(20, 120))
          for n in (40, 60, 80, 100) for k in (1, 2, 3)]
         + [(n, Fraction(1, 2), k, range(10))
            for n in (60, 100, 200) for k in (2, 3)])


def run_cells(src: Path) -> None:
    """Print one JSON line per cell, in ``CELLS`` order, for ``src``, then
    one with the wall seconds of all of them."""
    sys.path.insert(0, str(src))
    import powerham
    from powerham.generators import gnp
    from powerham.hamiltonian import PipelineConfig, find_hamiltonian_power
    if src not in Path(powerham.__file__).resolve().parents:
        sys.exit(f"powerham was imported from {powerham.__file__}, not {src}")

    t0 = time.perf_counter()
    for n, p, k, seeds in CELLS:
        found = attempts = 0
        failed: Counter = Counter()
        for s in seeds:
            res = find_hamiltonian_power(gnp(n, p, s),
                                         PipelineConfig(k=k, seed=s))
            found += res.ok
            attempts += res.report.attempts
            if not res.ok:
                failed[res.report.failed_stage] += 1
        print(json.dumps({
            "cell": f"gnp({n}, {p}) k={k} seeds {seeds[0]}-{seeds[-1]}",
            "found": found, "finds": len(seeds), "attempts": attempts,
            "failed": dict(sorted(failed.items()))}), flush=True)
    print(json.dumps({"wall_s": time.perf_counter() - t0}))


def _summary(row: dict) -> str:
    failed = " ".join(f"{st}:{c}" for st, c in row["failed"].items())
    return (f"found {row['found']}/{row['finds']} "
            f"attempts {row['attempts']} failed {failed or '-'}")


def main(argv: list[str]) -> int:
    if argv[:1] == ["--cells"]:
        run_cells(Path(argv[1]).resolve())
        return 0
    here = Path(__file__).resolve()
    trees = [Path(a).resolve() for a in argv] or [here.parents[1] / "src"]
    if len(trees) > 2:
        sys.exit("usage: heldout_panel.py [SRC [SRC]]")
    children = [subprocess.Popen([sys.executable, str(here), "--cells",
                                  str(src)], stdout=subprocess.PIPE,
                                 text=True) for src in trees]
    walls, outs = [], []
    for child in children:
        out, _ = child.communicate()
        if child.returncode:
            sys.exit(f"a child exited with status {child.returncode}")
        *rows, last = map(json.loads, out.splitlines())
        walls.append(last["wall_s"])
        outs.append(rows)
    for i, src in enumerate(trees):
        print(f"tree {'AB'[i]}: {src}")
    for rows in zip(*outs):
        print(f"{rows[0]['cell']}: " + " | ".join(
            f"{'AB'[i]} {_summary(row)}" for i, row in enumerate(rows)))
    for i, wall in enumerate(walls):
        print(f"tree {'AB'[i]} wall_s {wall:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Outcome and wall time of the pipeline on three hard inputs.

    python3 tests/hard_panel.py            # this checkout's src/
    python3 tests/hard_panel.py OTHER/src  # another tree, to compare

Each input runs once at seed 0 with the default retries:
``gnp(200, 1/2)`` at k=3, ``two_overlapping_cliques(200, 1/10)`` at k=3
and ``two_overlapping_cliques(200, 1/4)`` at k=2.  One line per input
gives whether a certificate was found, the attempts, the failed stage,
the wall seconds of the find, ``report.timings["connect"]``, the SHA-256
of the certificate's JSON (``null`` when none was found) and the SHA-256
of ``report.to_json_dict()``, so two trees can be compared byte for byte,
failed finds included, as well as by outcome.  The last input dominates:
it takes over a minute on a 2-CPU machine.  The file name keeps pytest
from collecting it; it is not a benchmark workload.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

CASES = (("gnp(200, 1/2)", "gnp", Fraction(1, 2), 3),
         ("two_overlapping_cliques(200, 1/10)", "two_overlapping_cliques",
          Fraction(1, 10), 3),
         ("two_overlapping_cliques(200, 1/4)", "two_overlapping_cliques",
          Fraction(1, 4), 2))


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(
        obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src"
    src = src.resolve()
    sys.path.insert(0, str(src))
    import powerham
    from powerham import generators
    from powerham.hamiltonian import PipelineConfig, find_hamiltonian_power
    if src not in Path(powerham.__file__).resolve().parents:
        sys.exit(f"powerham was imported from {powerham.__file__}, not {src}")

    for label, family, p, k in CASES:
        g = (generators.gnp(200, p, 0) if family == "gnp"
             else generators.two_overlapping_cliques(200, p))
        t0 = time.perf_counter()
        res = find_hamiltonian_power(g, PipelineConfig(k=k, seed=0))
        wall = time.perf_counter() - t0
        rep = res.report
        cert = (None if res.certificate is None
                else res.certificate.to_json_dict())
        print(f"{label} k={k}: found {res.ok} attempts {rep.attempts} "
              f"failed_stage {rep.failed_stage} wall_s {wall:.2f} "
              f"connect_s {rep.timings.get('connect', 0.0):.2f} "
              f"sha256 {_digest(cert)} "
              f"report_sha256 {_digest(rep.to_json_dict())}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

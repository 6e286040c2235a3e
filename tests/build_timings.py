"""Seconds to build and validate graphs, for comparing two source trees.

    python3 tests/build_timings.py            # this checkout's src/
    python3 tests/build_timings.py OTHER/src  # for example a parent copy

The first line gives the peak bytes that ``tracemalloc`` saw while
``gnp(2000, 3/4, 0)`` was built, first thing in the process.  Then each
line gives one case's median wall milliseconds over its repeats (at least
3), and their min..max beside it:
``gnp(600, 3/4, 0)``, ``gnp(2000, 3/4, 0)``, re-validating
the rows of that graph with ``Graph(n, rows)``, ``Graph.complete(5000)``,
``Graph(MAX_VERTICES, (0,) * MAX_VERTICES)``, ``from_text`` on the
16 MB text of ``gnp(2000, 3/4, 0)``, and ``keys(300)``, ``keys(600)`` and
``keys(2000)``: the tie-break key table a stage draws once for all its
``connector.connect`` calls, ``SplitMix64(seed).words(n)``.  The next line
gives the peak bytes that ``tracemalloc`` saw while the n = 2000 rows were
validated, next to the n * n bytes an O(n^2) structure would take.  The
last lines give median microseconds a call of ``verts_of`` and of the
plain clear-the-low-bit loop on masks of 60, 600 and 4000 bits, dense
(about 3/4 set) and sparse (about 1/16), so its scan gate can be checked.
It took 20 s on a 2-CPU machine, most of it the three ``from_text`` runs.
The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

P = Fraction(3, 4)


def seconds(fn, repeats: int) -> list[float]:
    runs = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        runs.append(time.perf_counter() - t)
    return runs


def peak_bytes(fn):
    """(fn(), the peak bytes tracemalloc saw while fn ran)."""
    tracemalloc.start()
    out = fn()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return out, peak


def bit_loop(mask: int) -> tuple[int, ...]:
    """The vertices of a mask by clearing its lowest bit, one at a time."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def scan_cases(verts_of):
    """(name, function, mask) per bit-scan case: 60, 600 and 4000 bits,
    dense and sparse, timed for ``verts_of`` and for ``bit_loop``."""
    for width in (60, 600, 4000):
        bits = random.Random(width).getrandbits
        a, b, c, d = (bits(width - 1) for _ in range(4))
        top = 1 << width - 1
        for kind, mask in (("dense", a | b | top), ("sparse", a & b & c & d | top)):
            for name, fn in (("verts_of", verts_of), ("bit loop", bit_loop)):
                yield f"{name}({width}, {kind})", fn, mask


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src"
    src = src.resolve()
    sys.path.insert(0, str(src))
    from powerham.generators import gnp
    from powerham.graph import MAX_VERTICES, Graph, from_text, to_text, verts_of
    from powerham.rng import SplitMix64
    import powerham
    if src not in Path(powerham.__file__).resolve().parents:
        sys.exit(f"powerham was imported from {powerham.__file__}, not {src}")

    big, peak = peak_bytes(lambda: gnp(2000, P, 0))
    print(f"{'gnp(2000) peak':24s} {peak:10d} B")
    text = to_text(big)
    cases = [
        ("gnp(600)", lambda: gnp(600, P, 0), 3),
        ("gnp(2000)", lambda: gnp(2000, P, 0), 3),
        ("validate(2000)", lambda: Graph(big.n, big.adj), 3),
        ("complete(5000)", lambda: Graph.complete(5000), 3),
        ("edgeless(MAX_VERTICES)",
         lambda: Graph(MAX_VERTICES, (0,) * MAX_VERTICES), 3),
        ("from_text(2000)", lambda: from_text(text), 3),
        ("keys(300)", lambda: SplitMix64(1729).words(300), 301),
        ("keys(600)", lambda: SplitMix64(1729).words(600), 301),
        ("keys(2000)", lambda: SplitMix64(1729).words(2000), 301),
    ]
    for name, fn, repeats in cases:
        ms = [s * 1e3 for s in seconds(fn, repeats)]
        print(f"{name:24s} {statistics.median(ms):10.3f} ms"
              f"  ({min(ms):.3f}..{max(ms):.3f})")
    _, peak = peak_bytes(lambda: Graph(big.n, big.adj))
    print(f"{'validate(2000) peak':24s} {peak:10d} B  (n*n = {big.n ** 2} B)")
    for name, fn, mask in scan_cases(verts_of):
        # a sample is 100 calls, so microseconds a call are 1e4 seconds a sample
        us = [s * 1e4 for s in seconds(lambda: [fn(mask) for _ in range(100)], 21)]
        print(f"{name:24s} {statistics.median(us):10.3f} us"
              f"  ({min(us):.3f}..{max(us):.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

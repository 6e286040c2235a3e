"""Pipeline benchmark: timed finds on one named workload, checked outcomes.

    python3 perfbench/run.py --workload dense_k3 --seed 0 --seconds 25 --trace 0

Runs from the root of a source checkout and imports ``powerham`` from its
``src/``; nothing is installed or built.  Every find runs in this one
process and thread.

Set-up is ``SETUP_ROUNDS`` rounds.  A round imports the program and numpy
in a fresh interpreter that does nothing else, then generates the
workload's graphs, checks each ``no_power`` obstruction and runs one small
fixed warm-up find in this process; ``setup_s`` is the median round.  The
timed phase then calls ``find_hamiltonian_power`` on the workload's inputs
in turn until ``--seconds`` have passed, and checks every outcome outside
the timed call.

A shared machine's speed changes from second to second, so every timed
find and every stretch of set-up sits between two gauges of a fixed
reference workload (see calibrate.py), and the times reported are wall
seconds divided by the slowdown those two show.  The wall seconds are
kept in the record and summed up on stdout.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
input twice, untraced and then traced, and reports per-layer metrics from
the traced calls (see spans.py) plus the tracing overhead, traced wall
time over untraced wall time.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record of the run,
with every find, the outcome digest and (traced) every span, is written
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

# numpy's BLAS would start a thread per CPU; every find runs in one thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True   # every run compiles the same sources
sys.path.insert(0, str(HERE))

from calibrate import Gauges  # noqa: E402
from spans import ROOT as ROOT_SPAN, Tracer, layer_metrics  # noqa: E402
from workloads import (P, WORKLOADS, is_power_of_cycle,  # noqa: E402
                       obstruction)

SETUP_ROUNDS = 3
GAUGE_AFTER_S = 0.25   # set-up takes a gauge once this much work is done
MODULES = ("hamiltonian", "absorber", "pathcover", "generators", "graph")

# run by a fresh interpreter with src/ as argv[1]; prints its import seconds
IMPORT_CHILD = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import numpy; "
    + "; ".join(f"import powerham.{m}" for m in MODULES)
    + "; print(time.perf_counter() - t)")

END_TO_END_UNITS = {"find_s": "s", "finds_per_s": "1/s",
                    "success_rate": "ratio", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def load_program(src: Path):
    """Import powerham from `src`; returns (modules by short name, seconds).

    numpy, the one runtime dependency, is imported on the first find; it is
    imported here so that no timed find pays for it.
    """
    sys.path.insert(0, str(src))
    t = perf_counter()
    mods = {m: importlib.import_module(f"powerham.{m}") for m in MODULES}
    importlib.import_module("numpy")
    import_s = perf_counter() - t
    origin = Path(mods["hamiltonian"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"powerham was found at {origin}, not under {src}")
    return mods, import_s


def child_import_s(src: Path) -> float:
    """Seconds a fresh interpreter takes to import powerham and numpy."""
    proc = subprocess.run([sys.executable, "-B", "-c", IMPORT_CHILD, str(src)],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"import in a fresh interpreter failed: "
                           f"{proc.stderr.strip()[-300:]}")
    return float(proc.stdout)


def setup_round(ph, workload, offset: int, gauges: Gauges):
    """Import in a fresh interpreter, generate the panel, check obstructions
    and run one warm-up find; returns (cases, wall s, nominal-speed s).

    A gauge closes the import and then every stretch of ``GAUGE_AFTER_S``
    seconds or more, so a slow spell is scaled out where it falls.
    """
    wall = imported = child_import_s(ROOT / "src")
    scaled = gauges.lap(imported)[1]
    t = perf_counter()

    def lap(force=False):
        nonlocal wall, scaled, t
        dt = perf_counter() - t
        if force or dt >= GAUGE_AFTER_S:
            wall += dt
            scaled += gauges.lap(dt)[1]
            t = perf_counter()

    cases = []
    for j in range(workload.panel):
        cases.append(workload.make(ph, offset + j))
        lap()
    for case in cases:
        if not case.positive and obstruction(case) is None:
            raise RuntimeError(f"{case.label}: no obstruction to a k-th power")
    ham = ph["hamiltonian"]
    # a small k=1 find runs every stage once before anything is timed; it
    # is the same find for every workload and seed
    warm = ph["generators"].gnp(30, P, 0)
    ham.find_hamiltonian_power(warm, ham.PipelineConfig(1, seed=0))
    lap(force=True)
    return cases, wall, scaled


def timed_find(ph, case, cfg_seed, tracer=None):
    """One find; returns (wall s, CPU s, result or None, error or None)."""
    ham = ph["hamiltonian"]
    cfg = ham.PipelineConfig(case.k, seed=cfg_seed)
    cpu, t = process_time(), perf_counter()
    try:
        if tracer is None:
            res = ham.find_hamiltonian_power(case.graph, cfg)
        else:
            res = tracer.call(ROOT_SPAN, ham.find_hamiltonian_power,
                              case.graph, cfg)
        err = None
    except Exception as exc:   # every exception is a failed find
        res, err = None, f"{type(exc).__name__}: {exc}"
    return perf_counter() - t, process_time() - cpu, res, err


def judge(checks, case, cfg_seed, res, err) -> dict:
    """The outcome record of one find, with its verdict.

    verdict is "expected", "missed" (a positive input that the pipeline
    gave up on) or "wrong" (an exception, an invalid certificate, or any
    certificate for an input with a known obstruction).
    """
    rec = {"input": case.label, "cfg_seed": cfg_seed}
    if err is not None:
        return {**rec, "error": err.split(":", 1)[0], "verdict": "wrong",
                "why": err}
    cert, report = res.certificate, res.report
    rec["certificate"] = cert.to_json_dict() if cert is not None else None
    rec["report"] = report.to_json_dict()
    if not case.positive:
        if cert is not None:
            return {**rec, "verdict": "wrong", "why": "certificate for an "
                    f"input with an obstruction: {obstruction(case)}"}
        if report.failed_stage not in checks["stages"]:
            return {**rec, "verdict": "wrong",
                    "why": f"failed_stage {report.failed_stage!r}"}
        return {**rec, "verdict": "expected"}
    if cert is None:
        return {**rec, "verdict": "missed",
                "why": f"gave up at {report.failed_stage}"}
    g, k = case.graph, case.k
    why = None
    try:
        if cert.k != k or not is_power_of_cycle(g, cert.ordering, k):
            why = "certificate fails the benchmark's own check"
        elif checks["verify"](g, cert) != (True, None):
            why = "certificate fails verify"
        elif len(checks["extract"](g, cert)) != g.n // (k + 1):
            why = "clique factor has the wrong size"
        elif report.failed_stage is not None:
            why = f"certificate with failed_stage {report.failed_stage!r}"
    except Exception as exc:   # a checker rejecting the certificate
        why = f"{type(exc).__name__}: {exc}"
    return {**rec, "verdict": "wrong" if why else "expected",
            **({"why": why} if why else {})}


def canonical(rec: dict) -> str:
    keep = {k: rec[k] for k in ("input", "cfg_seed", "certificate", "report",
                                "error") if k in rec}
    return json.dumps(keep, sort_keys=True, separators=(",", ":"))


def run_workload(ph, import_s, name, seed, seconds, trace,
                 rounds=SETUP_ROUNDS):
    """Set up and run one workload; returns the full run record."""
    workload = WORKLOADS[name]
    offset = seed * workload.panel
    ham = ph["hamiltonian"]
    checks = {"verify": ham.verify, "extract": ham.extract_clique_factor,
              "stages": ham.STAGES}
    tracer = Tracer() if trace else None

    setup, setup_raw = [], []
    gauges = Gauges()
    for _ in range(rounds):
        if tracer is not None:
            tracer.install(ph)
        try:
            cases, wall, scaled = setup_round(ph, workload, offset, gauges)
        finally:
            if tracer is not None:
                tracer.restore()
        setup_raw.append(wall)
        setup.append(scaled)

    finds, traced_s, records = [], [], []
    peak_kb = None
    phase = perf_counter()
    i = 0
    while i == 0 or perf_counter() - phase < seconds:
        case = cases[i % workload.panel]
        cfg_seed = offset + i
        dt, cpu, res, err = timed_find(ph, case, cfg_seed)
        slow, scaled = gauges.lap(dt)
        rec = judge(checks, case, cfg_seed, res, err)
        rec.update(seconds=dt, cpu_s=cpu, slowdown=slow, scaled_s=scaled)
        if res is not None:
            rec["attempts"] = res.report.attempts
            rec["reported_s"] = sum(res.report.timings.values())
        if tracer is not None:
            tracer.find = i
            tracer.install(ph)
            try:
                tdt, _, tres, terr = timed_find(ph, case, cfg_seed, tracer)
            finally:
                tracer.restore()
            traced_s.append(gauges.lap(tdt)[1])
            again = judge(checks, case, cfg_seed, tres, terr)
            if canonical(again) != canonical(rec):
                rec.update(verdict="wrong",
                           why="traced find differs from the untraced one")
        finds.append(rec["scaled_s"])
        records.append(rec)
        i += 1
        if i == workload.digest_finds:
            # peak memory over the same finds in every run with this seed,
            # so a faster program doing more finds does not read as bigger
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    digest_n = min(workload.digest_finds, len(records))
    digest = hashlib.sha256("\n".join(
        canonical(r) for r in records[:digest_n]).encode()).hexdigest()
    verdicts = [r["verdict"] for r in records]
    attempted = len(records)
    expected = verdicts.count("expected")
    result = {"correct": "wrong" not in verdicts, "attempted": attempted,
              "failed": attempted - expected}

    if tracer is None:
        values = {
            "find_s": statistics.median(finds),
            "finds_per_s": attempted / sum(finds),
            "success_rate": expected / attempted,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": (peak_kb or resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss) / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    else:
        metrics = per_layer(tracer, records, finds, traced_s, rounds,
                            ham.STAGES)
    result["metrics"] = metrics

    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "env": {"python": platform.python_version(),
                "nproc": os.cpu_count(), "platform": platform.platform()},
        "import_s": import_s, "setup_rounds_s": setup,
        "setup_rounds_wall_s": setup_raw,
        "cpu_s": sum(r["cpu_s"] for r in records),
        "outcome_digest": digest, "digest_finds": digest_n,
        "finds": records, "result": result,
    }
    if tracer is not None:
        detail["span_fields"] = ["id", "parent", "find", "name", "start",
                                 "end", "busy", "counts"]
        detail["spans"] = tracer.spans
    return detail


def per_layer(tracer, records, finds, traced_s, rounds, stages) -> dict:
    """Per-layer metrics with their units, from a traced run."""
    values = layer_metrics(tracer.spans, len(traced_s), rounds)
    attempts = [r.get("attempts", 0) for r in records]
    values["hamiltonian.attempts_per_find"] = sum(attempts) / len(records)
    failed = [r.get("report", {}).get("failed_stage") for r in records]
    for stage in stages:
        values[f"hamiltonian.failed_stage.{stage}"] = (
            failed.count(stage) / len(records))
    reported = sum(r.get("reported_s", 0.0) for r in records)
    wall = sum(r["seconds"] for r in records)
    values["hamiltonian.unreported_share"] = 1 - reported / wall
    values["trace.overhead"] = sum(traced_s) / sum(finds)
    values["trace.finds"] = len(traced_s)
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}


def layer_unit(name: str) -> str:
    if name.endswith((".self_share", "_share", ".hit_rate",
                      "members_per_sampled", "trace.overhead")):
        return "ratio"
    if name.endswith((".s", ".self_s")):
        return "s" if name.startswith("generators.") else "s/find"
    if name.endswith((".calls", ".cliques")) or \
            name.startswith(("hamiltonian.failed_stage.",
                             "hamiltonian.attempts")):
        return "1/find"
    if name == "pathcover.paths_per_cover":
        return "1/call"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    try:
        ph, import_s = load_program(ROOT / "src")
    except ImportError as exc:
        print(f"perfbench: cannot import powerham from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    try:
        detail = run_workload(ph, import_s, args.workload, args.seed,
                              args.seconds, args.trace)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, separators=(",", ":")) + "\n",
                    encoding="utf-8")
    result = detail["result"]
    for r in detail["finds"]:
        if r["verdict"] != "expected":
            print(f"{r['verdict']}: {r['input']} seed={r['cfg_seed']}: "
                  f"{r.get('why')}")
    times = sorted(r["seconds"] for r in detail["finds"])
    slow = sorted(r["slowdown"] for r in detail["finds"])
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(times)} finds, wall {times[0]:.3f}..{times[-1]:.3f} s "
          f"(median {statistics.median(times):.4g} s), machine slowdown "
          f"{slow[0]:.2f}..{slow[-1]:.2f} (median "
          f"{statistics.median(slow):.3g})")
    print(f"outcome_digest {args.workload} seed={args.seed} "
          f"first={detail['digest_finds']} sha256={detail['outcome_digest']}")
    for k, m in sorted(result["metrics"].items()):
        print(f"  {k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

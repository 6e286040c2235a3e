"""Fast self-test of the benchmark: every workload at minimal length.

    python3 perfbench/selftest.py

Runs each workload of BENCHMARK.json for a single find with one set-up
round, untraced and traced, and checks that the run was correct and that
every metric BENCHMARK.json names is emitted, with its unit and a finite
value.  Then it runs the command line once and checks that the last line of
stdout is the result object, and runs it from a copy holding only
BENCHMARK.json and the benchmark's files, where it must fail without a
result.  Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_result(result: dict, wanted: dict, positive: bool) -> list[str]:
    """Problems with one result object; wanted maps metric name to unit."""
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} "
                        f"failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    for name in sorted(set(wanted) ^ set(metrics)):
        side = "missing" if name in wanted else "not in BENCHMARK.json"
        problems.append(f"{name}: {side}")
    for name in sorted(set(wanted) & set(metrics)):
        m = metrics[name]
        value = m.get("value")
        if m.get("unit") != wanted[name]:
            problems.append(f"{name}: unit {m.get('unit')!r} "
                            f"!= {wanted[name]!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
        elif positive and value <= 0:
            problems.append(f"{name}: value {value!r} is not positive")
    return problems


def command_line(spec: dict, cwd: Path, workload: str):
    return subprocess.run(
        spec["command"] + ["--workload", workload, "--seed", "0",
                           "--seconds", "0.001", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = [w["name"] for w in spec["workloads"]]
    failures = []
    if sorted(names) != sorted(run.WORKLOADS):
        failures.append(f"workloads {names} != {sorted(run.WORKLOADS)}")

    ph, import_s = run.load_program(run.ROOT / "src")
    for name in names:
        for trace, wanted in ((0, end_to_end), (1, per_layer)):
            detail = run.run_workload(ph, import_s, name, 0, 0.001, trace,
                                      rounds=1)
            problems = check_result(detail["result"], wanted, trace == 0)
            status = "ok" if not problems else "FAIL"
            print(f"{status} {name} trace={trace}")
            failures += [f"{name} trace={trace}: {p}" for p in problems]

    proc = command_line(spec, run.ROOT, names[0])
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        problems = check_result(result, end_to_end, True)
    except (IndexError, ValueError):
        problems = [f"exit {proc.returncode}, no result line: "
                    f"{proc.stderr.strip()[-300:]}"]
    print(f"{'ok' if not problems else 'FAIL'} command line")
    failures += [f"command line: {p}" for p in problems]

    bare = run.HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(run.ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = command_line(spec, bare, names[0])
    shutil.rmtree(bare)
    bare_ok = proc.returncode != 0 and '"metrics"' not in proc.stdout
    print(f"{'ok' if bare_ok else 'FAIL'} fails without the program "
          f"(exit {proc.returncode})")
    if not bare_ok:
        failures.append("a copy without src/ printed a result or exited 0")

    for line in failures:
        print("FAIL", line, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

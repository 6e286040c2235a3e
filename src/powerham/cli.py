"""Command line surface binding the library modules into one binary.

Subcommand grammar, no config files: every invocation is reproducible from
its argv alone.  Seeds default to a fixed constant; the environment
variable POWERHAM_SEED overrides that default wherever a seed was not
given explicitly.  Machine output goes to stdout as canonical JSON (sorted
keys, no spaces) under --json, human-readable text otherwise; diagnostics
and progress always go to stderr.

Exit codes: 0 success, 1 a negative answer (a negative oracle, an invalid
certificate, a failed pipeline stage, a separable graph, a failed
matchability check), 2 usage errors and unreadable input.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import nullcontext
from fractions import Fraction
from itertools import product

from .constants import (connector_constants, exact_json, exact_text,
                        main_constants)
from .errors import InputError, PowerhamError, SizeError
from .generators import GenSpec, generate
from .graph import check_vertex_count, from_text, to_text
from .hamiltonian import (STAGES, Certificate, PipelineConfig,
                          brute_force_oracle, find_hamiltonian_power,
                          find_with_hitting_sets, verify)
from .properties import (denseness_exact, denseness_heuristic,
                         inseparable_exact, inseparable_heuristic,
                         robustly_matchable_exact)
from .rng import DEFAULT_SEED
from .walks import delta_schedule

HEURISTIC_BUDGET = 20000
# keys of a report's timings; a find runs obstruction, setup, then the
# other stages, but bench CSVs keep setup as their first timing column
TIMED = ("setup",) + STAGES


def _default_seed() -> int:
    env = os.environ.get("POWERHAM_SEED")
    if env is None or env == "":
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise InputError(f"POWERHAM_SEED is not an integer: '{env}'")


def _rational(text: str) -> Fraction:
    # accepts "3/4" and "0.75" alike, both exactly
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"not a rational number: '{text}'")


def _int(value) -> int:
    # argv fields and JSON values; int() would truncate floats and take bools
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise InputError(f"not an integer: '{value}'")


def _int_list(value, what: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise InputError(f"{what} must be a JSON list of integers")
    return tuple(_int(v) for v in value)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise InputError(f"cannot read '{path}': {e}")


def _open_output(path: str):
    """Open a file to write ("-" is stdout); failing to is a usage error."""
    if path == "-":
        return nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as e:
        raise InputError(f"cannot write '{path}': {e}")


def _read_graph(path: str):
    return from_text(_read_text(path))


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True,
                                separators=(",", ":")) + "\n")


def _parse_certificate(text: str) -> Certificate:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"certificate is not valid JSON: {e}")
    if isinstance(data, dict) and "certificate" in data:
        data = data["certificate"]
    if not isinstance(data, dict) or "k" not in data or "ordering" not in data:
        raise InputError("certificate JSON needs 'k' and 'ordering' fields")
    return Certificate(_int(data["k"]),
                       _int_list(data["ordering"], "certificate ordering"))


# ----------------------------------------------------------------- generate

def _cmd_generate(args) -> int:
    fam = args.family
    seed = args.seed if args.seed is not None else _default_seed()
    if fam in ("gnp", "random_bipartite"):
        if args.n is None or args.p is None:
            raise InputError(f"family '{fam}' needs --n and --p")
        check_vertex_count(args.n)
        spec = GenSpec(fam, {"n": args.n, "p": str(_rational(args.p))}, seed)
    elif fam == "multipartite":
        if not args.parts:
            raise InputError("family 'multipartite' needs --parts")
        parts = [_int(x) for x in args.parts.split(",") if x]
        check_vertex_count(sum(parts))
        spec = GenSpec(fam, {"parts": parts})
    elif fam in ("two_cliques", "clique_complement"):
        if args.n is None or args.mu is None:
            raise InputError(f"family '{fam}' needs --n and --mu")
        check_vertex_count(args.n)
        spec = GenSpec(fam, {"n": args.n, "mu": str(_rational(args.mu))})
    else:
        raise InputError(f"unknown family '{fam}'")

    g = generate(spec)
    text = to_text(g)
    if args.output == "-":
        sys.stdout.write(text)
        print(spec.to_json(), file=sys.stderr)
    else:
        with _open_output(args.output) as fh:
            fh.write(text)
        with _open_output(args.output + ".json") as fh:
            fh.write(spec.to_json() + "\n")
    return 0


# -------------------------------------------------------------------- check

def _cmd_check(args) -> int:
    if args.dense is None and not args.insep and args.robust is None:
        raise InputError("nothing to check: pass --dense, --insep, "
                         "or --robust")
    g = _read_graph(args.input)
    exact = args.exact
    seed = _default_seed()
    out: dict = {}
    failed = False

    if args.dense is not None:
        d = _rational(args.dense)
        rep = (denseness_exact(g, d) if exact
               else denseness_heuristic(g, d, seed=seed,
                                        budget=args.budget))
        out["dense"] = rep.to_json_dict()
    if args.insep:
        rep = (inseparable_exact(g) if exact
               else inseparable_heuristic(g, seed=seed, budget=args.budget))
        out["insep"] = rep.to_json_dict()
        if rep.mu_star == 0:
            failed = True
    if args.robust is not None:
        try:
            rho_txt, d_txt = args.robust.split(",")
        except ValueError:
            raise InputError("--robust expects 'RHO,D'")
        # subset scan only; there is no sampling shortcut for this one
        rep = robustly_matchable_exact(g, _rational(rho_txt),
                                       _rational(d_txt))
        out["robust"] = rep.to_json_dict()
        if not rep.ok:
            failed = True

    if args.json:
        _emit_json(out)
    else:
        for name, rep in out.items():
            fields = ", ".join(f"{key} = {val}" for key, val in rep.items()
                               if not key.startswith("witness"))
            print(f"{name}: {fields}")
    return 1 if failed else 0


# --------------------------------------------------------------------- find

def _cmd_find(args) -> int:
    g = _read_graph(args.input)
    seed = args.seed if args.seed is not None else _default_seed()
    cfg = PipelineConfig(k=args.k, retries=args.retries, seed=seed)

    tallies = None
    if args.hitting_sets is not None:
        try:
            raw = json.loads(_read_text(args.hitting_sets))
        except json.JSONDecodeError as e:
            raise InputError(f"hitting sets file is not valid JSON: {e}")
        if not isinstance(raw, list):
            raise InputError("hitting sets file must hold a JSON list "
                             "of vertex lists")
        sets = [_int_list(s, f"hitting set {i}") for i, s in enumerate(raw)]
        res = find_with_hitting_sets(g, cfg, sets)
        tallies = list(res.tallies) if res.ok else None
    else:
        res = find_hamiltonian_power(g, cfg)

    payload = {
        "ok": res.ok,
        "certificate": (None if res.certificate is None
                        else res.certificate.to_json_dict()),
        "report": res.report.to_json_dict(),
    }
    if args.hitting_sets is not None:
        payload["tallies"] = tallies
    if args.json:
        _emit_json(payload)
    else:
        rep = res.report
        if res.ok:
            print(f"found: k={rep.k} power of a Hamilton cycle on {rep.n} "
                  f"vertices after {rep.attempts} attempt(s)")
            print("cycle:", " ".join(map(str, res.certificate.ordering)))
            if tallies is not None:
                print("window tallies:", " ".join(map(str, tallies)))
        else:
            print(f"failed: stage '{rep.failed_stage}' after "
                  f"{rep.attempts} attempt(s)")
            for note in rep.notes:
                print("note:", note, file=sys.stderr)
    return 0 if res.ok else 1


# ------------------------------------------------------------------- verify

def _cmd_verify(args) -> int:
    if args.input == "-" and args.certificate == "-":
        raise InputError("graph and certificate cannot both come from stdin")
    g = _read_graph(args.input)
    cert = _parse_certificate(_read_text(args.certificate))
    if args.k is not None and args.k != cert.k:
        raise InputError(f"-k {args.k} disagrees with certificate k={cert.k}")
    ok, violation = verify(g, cert)
    if args.json:
        _emit_json({"ok": ok,
                    "violation": None if violation is None
                    else list(violation)})
    else:
        if ok:
            print(f"valid: k={cert.k} power Hamilton cycle on {g.n} vertices")
        else:
            u, v = violation
            print(f"invalid: vertices {u} and {v} are at cyclic distance "
                  f"<= {cert.k} but share no edge")
    return 0 if ok else 1


# ------------------------------------------------------------------- oracle

def _cmd_oracle(args) -> int:
    g = _read_graph(args.input)
    cert = brute_force_oracle(g, args.k)
    if cert is None:
        if args.json:
            _emit_json({"certificate": None})
        else:
            print("none")
        return 1
    if args.json:
        _emit_json({"certificate": cert.to_json_dict()})
    else:
        print(" ".join(map(str, cert.ordering)))
    return 0


# ---------------------------------------------------------------- constants

def _fmt_rational(q: Fraction) -> str:
    text = exact_text(q)   # ~10^x past the digit limit: no float either
    approx = q.denominator != 1 and not text.startswith("~")
    return text + (f" (~{float(q):.6g})" if approx else "")


def _cmd_constants(args) -> int:
    d = _rational(args.d)
    mu = _rational(args.mu)
    mc = main_constants(d, mu, args.k)
    sched = delta_schedule(mu)
    out = {
        "main": mc.to_json_dict(),
        "delta_schedule": {"mu": exact_json(sched.mu), "L": sched.L,
                           "c": exact_json(sched.c),
                           "delta": [exact_json(x) for x in sched.delta]},
    }
    if args.zeta is not None:
        cc = connector_constants(d, mu, _rational(args.zeta), args.k)
        out["connector_at_zeta"] = cc.to_json_dict()
    if args.json:
        _emit_json(out)
        return 0

    print(f"inputs: d = {exact_text(d)}, mu = {exact_text(mu)}, "
          f"k = {args.k}")
    print(f"long-path threshold zeta = {_fmt_rational(mc.path.zeta)}")
    print(f"long-path density slack rho = {_fmt_rational(mc.path.rho)}")
    ab = mc.absorber
    print(f"absorber zeta = {_fmt_rational(ab.zeta)}")
    print(f"absorber capacity alpha = {_fmt_rational(ab.alpha)}")
    print(f"connection length cap M = {mc.connector.M}")
    print(f"connection count floor xi = {mc.connector.xi}")
    print(f"composed zeta = {_fmt_rational(mc.zeta)}")
    print(f"composed rho = {mc.rho}")
    print(f"reservoir rate = {_fmt_rational(mc.reservoir_rate)}")
    print(f"walk schedule: L = {sched.L}, c = {_fmt_rational(sched.c)}")
    print("walk deltas:",
          ", ".join(_fmt_rational(x) for x in sched.delta))
    return 0


# -------------------------------------------------------------------- bench

def _parse_sweep(spec: str) -> tuple[list[int], list[Fraction], list[int], int]:
    fields = {}
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise InputError(f"bad sweep field '{part}'")
        key, _, val = part.partition("=")
        fields[key.strip()] = val.strip()
    missing = {"n", "k", "seeds"} - set(fields)
    if missing:
        raise InputError(f"sweep spec is missing {sorted(missing)}; "
                         "expected 'n=..;p=..;k=..;seeds=N'")
    ns = [_int(x) for x in fields["n"].split(",")]
    check_vertex_count(max(ns))
    ks = [_int(x) for x in fields["k"].split(",")]
    ps = [_rational(x) for x in fields.get("p", "3/4").split(",")]
    if min(ns) < 2 or min(ks) < 1 or not all(0 <= p <= 1 for p in ps):
        raise InputError("sweep needs n >= 2, k >= 1 and p in [0, 1]")
    seeds = _int(fields["seeds"])
    if seeds < 1:
        raise InputError("sweep needs at least one seed")
    return ns, ps, ks, seeds


def _cmd_bench(args) -> int:
    from .generators import gnp
    ns, ps, ks, seeds = _parse_sweep(args.sweep)
    header = ["n", "p", "k", "seed", "success", "stage", "attempts"]
    header += [f"t_{name}" for name in TIMED] + ["t_total"]
    # opened before the first find, so a bad path costs no sweep
    with _open_output(args.out) as out:
        writer = csv.DictWriter(out, fieldnames=header)
        writer.writeheader()
        for n, p, k in product(ns, ps, ks):
            wins = 0
            for seed in range(seeds):
                g = gnp(n, p, seed)
                res = find_hamiltonian_power(g, PipelineConfig(k=k, seed=seed))
                timings = res.report.timings
                row = {"n": n, "p": str(p), "k": k, "seed": seed,
                       "success": int(res.ok),
                       "stage": res.report.failed_stage or "",
                       "attempts": res.report.attempts}
                for name in TIMED:
                    row[f"t_{name}"] = f"{timings.get(name, 0.0):.6f}"
                row["t_total"] = f"{sum(timings.values()):.6f}"
                writer.writerow(row)
                wins += res.ok
            print(f"cell n={n} p={p} k={k}: {wins}/{seeds}", file=sys.stderr)
    return 0


# ------------------------------------------------------------------ parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powerham",
        description="Search dense inseparable graphs for k-th powers of "
                    "Hamiltonian cycles, and check the structural "
                    "properties that make the search work.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("generate", help="emit a graph from a named family")
    p.add_argument("--family", required=True,
                   choices=["gnp", "random_bipartite", "multipartite",
                            "two_cliques", "clique_complement"])
    p.add_argument("--n", type=int)
    p.add_argument("--mu")
    p.add_argument("--p")
    p.add_argument("--parts")
    p.add_argument("--seed", type=int)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("check", help="measure structural properties")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--dense", metavar="D")
    p.add_argument("--insep", action="store_true")
    p.add_argument("--robust", metavar="RHO,D")
    p.add_argument("--exact", action="store_true")
    p.add_argument("--budget", type=int, default=HEURISTIC_BUDGET)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("find", help="run the staged pipeline search")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--retries", type=int, default=PipelineConfig.retries)
    p.add_argument("--seed", type=int)
    p.add_argument("--hitting-sets", metavar="FILE")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_find)

    p = sub.add_parser("verify", help="check a certificate against a graph")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("-k", type=int)
    p.add_argument("--certificate", metavar="FILE", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive search on tiny graphs")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("constants",
                       help="evaluate the proof-grade constant schedule")
    p.add_argument("--mu", required=True)
    p.add_argument("--d", required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--zeta")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_constants)

    p = sub.add_parser("bench", help="pipeline sweep over seeded gnp cells")
    p.add_argument("--sweep", metavar="SPEC", required=True,
                   help="e.g. 'n=40,60;p=3/4;k=1,2;seeds=20'")
    p.add_argument("--out", metavar="CSV", required=True)
    p.set_defaults(handler=_cmd_bench)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 0 for --help, 2 for grammar violations
        return 0 if e.code == 0 else 2
    try:
        return args.handler(args)
    except BrokenPipeError:
        return 0
    except (InputError, SizeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except PowerhamError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))

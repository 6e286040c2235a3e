import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import pytest

import powerham
from powerham.cli import run
from powerham.constants import MAX_K, MIN_MU
from powerham.generators import gnp, two_overlapping_cliques
from powerham.graph import MAX_VERTICES, Graph, to_text

from oracles import oracle_power_ham_cycle


def graph_file(tmp_path, g, name="g.txt"):
    path = tmp_path / name
    path.write_text(to_text(g))
    return str(path)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------- generate

def test_generate_writes_graph_and_sidecar(tmp_path):
    out = tmp_path / "g.txt"
    assert run(["generate", "--family", "gnp", "--n", "24", "--p", "0.5",
                "--seed", "3", "-o", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("p 24 ")
    sidecar = json.loads((tmp_path / "g.txt.json").read_text())
    assert sidecar == {"family": "gnp", "params": {"n": 24, "p": "1/2"},
                       "seed": 3}


def test_generate_stdout_echoes_spec_to_stderr(capsys):
    assert run(["generate", "--family", "multipartite",
                "--parts", "3,3"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("p 6 9")
    assert json.loads(captured.err)["family"] == "multipartite"


def test_generate_missing_params_is_usage_error(capsys):
    assert run(["generate", "--family", "gnp", "--n", "10"]) == 2
    assert run(["generate", "--family", "two_cliques", "--n", "12"]) == 2
    assert run(["generate", "--family", "multipartite"]) == 2
    assert run(["generate", "--family", "multipartite",
                "--parts", "3,x"]) == 2
    assert run(["generate", "--family", "gnp", "--n", "5", "--p", "2"]) == 2
    assert run(["generate", "--family", "random_bipartite", "--n", "5",
                "--p=-1/2"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 6 and all(line.startswith("error: ") for line in err)


def test_generate_seed_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("POWERHAM_SEED", "99")
    assert run(["generate", "--family", "gnp", "--n", "16",
                "--p", "1/2"]) == 0
    with_env = capsys.readouterr().out
    monkeypatch.delenv("POWERHAM_SEED")
    assert run(["generate", "--family", "gnp", "--n", "16", "--p", "1/2",
                "--seed", "99"]) == 0
    explicit = capsys.readouterr().out
    assert with_env == explicit


def test_generate_bad_env_seed(monkeypatch, capsys):
    monkeypatch.setenv("POWERHAM_SEED", "soon")
    assert run(["generate", "--family", "gnp", "--n", "8",
                "--p", "1/2"]) == 2


# ------------------------------------------------------------------- check

def test_check_dense_exact_on_balanced_bipartite(tmp_path, capsys):
    path = graph_file(tmp_path, Graph.from_edges(
        8, [(u, v + 4) for u in range(4) for v in range(4)]))
    code, out = run_json(capsys, ["check", path, "--dense", "1/2",
                                  "--exact", "--json"])
    assert code == 0
    assert out["dense"]["rho_star"] == "1/16"


def test_check_insep_flags_separable_graphs(tmp_path, capsys):
    edges = [(a, b) for a, b in combinations(range(4), 2)]
    edges += [(a + 4, b + 4) for a, b in combinations(range(4), 2)]
    path = graph_file(tmp_path, Graph.from_edges(8, edges))
    code, out = run_json(capsys, ["check", path, "--insep", "--exact",
                                  "--json"])
    assert code == 1
    assert out["insep"]["mu_star"] == "0"


def test_check_insep_connected_clique_pair(tmp_path, capsys):
    path = graph_file(tmp_path, two_overlapping_cliques(12, Fraction(1, 3)))
    code, out = run_json(capsys, ["check", path, "--insep", "--exact",
                                  "--json"])
    assert code == 0
    assert Fraction(out["insep"]["mu_star"]) > 0


def test_check_robust_verdict_drives_exit_code(tmp_path, capsys):
    dense = graph_file(tmp_path, Graph.complete(10), "dense.txt")
    code, out = run_json(capsys, ["check", dense, "--robust", "1/4,1/2",
                                  "--json"])
    assert code == 0 and out["robust"]["ok"] is True
    sparse = graph_file(tmp_path, Graph.cycle(10), "sparse.txt")
    code, out = run_json(capsys, ["check", sparse, "--robust", "1/100,9/10",
                                  "--json"])
    assert code == 1 and out["robust"]["ok"] is False


def test_check_requires_a_property(tmp_path, capsys):
    path = graph_file(tmp_path, Graph.complete(5))
    assert run(["check", path]) == 2
    # a negative budget must not print a report of a search that never ran
    for prop in (["--dense", "1/2"], ["--insep"]):
        assert run(["check", path, *prop, "--budget", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "budget" in captured.err


def test_check_heuristic_budget_runs(tmp_path, capsys):
    path = graph_file(tmp_path, gnp(30, Fraction(3, 4), 0))
    code, out = run_json(capsys, ["check", path, "--dense", "3/4",
                                  "--insep", "--budget", "500", "--json"])
    assert code == 0
    assert out["dense"]["mode"] == "heuristic"
    assert out["insep"]["mode"] == "heuristic"


# -------------------------------------------------------------------- find

def test_find_emits_verified_certificate(tmp_path, capsys):
    g = gnp(40, Fraction(3, 4), 1)
    path = graph_file(tmp_path, g)
    code, out = run_json(capsys, ["find", path, "-k", "2", "--seed", "1",
                                  "--json"])
    assert code == 0 and out["ok"] is True
    assert oracle_power_ham_cycle(g, out["certificate"]["ordering"], 2)
    assert out["report"]["failed_stage"] is None


def test_find_failure_exit_code_and_stage(tmp_path, capsys):
    path = graph_file(tmp_path, Graph.cycle(7))
    code, out = run_json(capsys, ["find", path, "-k", "2", "--json"])
    assert code == 1 and out["ok"] is False
    assert out["certificate"] is None
    assert out["report"]["failed_stage"] == "obstruction"


def test_find_obstructed_graph_names_the_witness(tmp_path, capsys):
    # C_12 at k=2: vertex 0 has degree 2 < 2k, so no attempt is made
    path = graph_file(tmp_path, Graph.cycle(12))
    assert run(["find", path, "-k", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "failed: stage 'obstruction' after 0 attempt(s)\n"
    assert captured.err == "note: vertex 0 has degree 2 < 2k\n"
    code, out = run_json(capsys, ["find", path, "-k", "2", "--json"])
    assert code == 1 and out["ok"] is False and out["certificate"] is None
    rep = out["report"]
    assert (rep["attempts"], rep["failed_stage"]) == (0, "obstruction")
    assert rep["stages"]["obstruction"] == {"kind": "degree", "vertex": 0,
                                            "degree": 2}
    assert rep["notes"] == ["vertex 0 has degree 2 < 2k"]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_find_below_4k_vertices_answers_without_attempts(tmp_path, capsys, k):
    for n in range(2, 4 * k):
        path = graph_file(tmp_path, Graph.complete(n))
        code, out = run_json(capsys, ["find", path, "-k", str(k), "--json"])
        assert code == 0 and out["ok"] is True
        assert oracle_power_ham_cycle(Graph.complete(n),
                                      out["certificate"]["ordering"], k)
        assert out["report"]["attempts"] == 0
        assert out["report"]["failed_stage"] is None
    path = graph_file(tmp_path, Graph.cycle(3 * k + 1))   # too sparse
    assert run(["find", path, "-k", str(k + 1)]) == 1
    captured = capsys.readouterr()
    if k == 1:
        # 4 < 2k + 1 vertices: no screen applies, the oracle says no
        assert "stage 'absorbing_path' after 0 attempt(s)" in captured.out
        assert "oracle" in captured.err
    else:
        # degree 2 < 2k: the screen answers before the oracle
        assert "stage 'obstruction' after 0 attempt(s)" in captured.out
        assert "vertex 0 has degree 2 < 2k" in captured.err


def test_find_single_vertex_graph_exits_two(tmp_path, capsys):
    path = tmp_path / "one.txt"
    path.write_text("p 1 0\n")
    assert run(["find", str(path), "-k", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "at least 2 vertices" in err


def test_find_loads_no_numpy(tmp_path):
    # numpy serves only the test oracles; a fresh interpreter shows what
    # `find` itself imports
    path = graph_file(tmp_path, gnp(60, Fraction(3, 4), 11))
    script = ("import sys\n"
              "from powerham.cli import run\n"
              f"code = run(['find', '-k', '1', {path!r}])\n"
              "assert 'numpy' not in sys.modules, 'find imported numpy'\n"
              "sys.exit(code)\n")
    src = os.path.dirname(os.path.dirname(powerham.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_find_json_output_is_byte_stable(tmp_path, capsys):
    path = graph_file(tmp_path, gnp(36, Fraction(3, 4), 4))
    run(["find", path, "-k", "2", "--seed", "4", "--json"])
    first = capsys.readouterr().out
    run(["find", path, "-k", "2", "--seed", "4", "--json"])
    assert capsys.readouterr().out == first


def test_find_flag_overrides_reach_the_config(tmp_path, capsys):
    # C_12^2 passes the obstruction screens, then fails every attempt
    path = graph_file(tmp_path, Graph.from_edges(
        12, [(i, (i + d) % 12) for i in range(12) for d in (1, 2)]))
    for retries in (0, 2):
        code, out = run_json(capsys, ["find", path, "-k", "2", "--seed", "2",
                                      "--retries", str(retries), "--json"])
        assert code == 1
        assert out["report"]["attempts"] == retries + 1
    # the connectability threshold, reservoir rate and stop size are
    # constants of the pipeline, not flags
    for flag in ("--zeta", "--reservoir", "--stop"):
        assert run(["find", path, "-k", "2", flag, "1/10"]) == 2


def test_find_with_hitting_sets_reports_tallies(tmp_path, capsys):
    path = graph_file(tmp_path, Graph.complete(40))
    sets_file = tmp_path / "sets.json"
    sets_file.write_text(json.dumps([list(range(10)),
                                     list(range(10, 20))]))
    code, out = run_json(capsys, ["find", path, "-k", "2",
                                  "--hitting-sets", str(sets_file),
                                  "--json"])
    assert code == 0
    assert len(out["tallies"]) == 2
    assert all(t >= 1 for t in out["tallies"])


# ------------------------------------------------------------------ verify

def test_verify_round_trip(tmp_path, capsys):
    g = gnp(30, Fraction(3, 4), 7)
    gpath = graph_file(tmp_path, g)
    run(["find", gpath, "-k", "2", "--seed", "7", "--json"])
    found = tmp_path / "cert.json"
    found.write_text(capsys.readouterr().out)
    code, out = run_json(capsys, ["verify", gpath, "-k", "2",
                                  "--certificate", str(found), "--json"])
    assert code == 0 and out == {"ok": True, "violation": None}


def test_verify_rejects_and_names_the_pair(tmp_path, capsys):
    gpath = graph_file(tmp_path, Graph.cycle(6))
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"k": 2, "ordering": [0, 1, 2, 3, 4, 5]}))
    code, out = run_json(capsys, ["verify", gpath,
                                  "--certificate", str(cert), "--json"])
    assert code == 1 and out == {"ok": False, "violation": [0, 2]}


def test_verify_k_mismatch_is_usage_error(tmp_path):
    gpath = graph_file(tmp_path, Graph.complete(5))
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"k": 2, "ordering": [0, 1, 2, 3, 4]}))
    assert run(["verify", gpath, "-k", "3",
                "--certificate", str(cert)]) == 2


def test_verify_rejects_double_stdin():
    assert run(["verify", "-", "--certificate", "-"]) == 2


def test_verify_rejects_malformed_certificate(tmp_path):
    gpath = graph_file(tmp_path, Graph.complete(5))
    cert = tmp_path / "cert.json"
    cert.write_text("{\"ordering\": [0, 1]}")
    assert run(["verify", gpath, "--certificate", str(cert)]) == 2
    cert.write_text("not json")
    assert run(["verify", gpath, "--certificate", str(cert)]) == 2
    cert.write_text(json.dumps({"k": "a", "ordering": [0, 1, 2, 3, 4]}))
    assert run(["verify", gpath, "--certificate", str(cert)]) == 2
    cert.write_text(json.dumps({"k": 2, "ordering": 5}))
    assert run(["verify", gpath, "--certificate", str(cert)]) == 2
    cert.write_text(json.dumps({"k": 2.5, "ordering": [0, 1, 2, 3, 4]}))
    assert run(["verify", gpath, "--certificate", str(cert)]) == 2


def test_malformed_graph_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "g.txt"
    for text in ("p x 1\n", "p 3 1\ne 0 y\n"):
        path.write_text(text)
        assert run(["find", str(path), "-k", "1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: ") for line in err)


def test_malformed_hitting_sets_are_usage_errors(tmp_path, capsys):
    path = graph_file(tmp_path, Graph.complete(8))
    sets_file = tmp_path / "sets.json"
    for text in ("not json", "[5]", "[[0, \"z\"]]", "[[0.5, 1, true]]"):
        sets_file.write_text(text)
        assert run(["find", path, "-k", "1",
                    "--hitting-sets", str(sets_file)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 4 and all(line.startswith("error: ") for line in err)


# ------------------------------------------------------------------ oracle

def test_oracle_positive_and_negative(tmp_path, capsys):
    kpath = graph_file(tmp_path, Graph.complete(6), "k6.txt")
    assert run(["oracle", kpath, "-k", "2"]) == 0
    ordering = [int(x) for x in capsys.readouterr().out.split()]
    assert sorted(ordering) == list(range(6))

    bipath = graph_file(tmp_path, Graph.from_edges(
        7, [(u, v + 3) for u in range(3) for v in range(4)]), "b.txt")
    assert run(["oracle", bipath, "-k", "1"]) == 1
    assert capsys.readouterr().out.strip() == "none"


def test_oracle_json_shapes(tmp_path, capsys):
    kpath = graph_file(tmp_path, Graph.complete(5))
    code, out = run_json(capsys, ["oracle", kpath, "-k", "2", "--json"])
    assert code == 0 and out["certificate"]["k"] == 2
    cpath = graph_file(tmp_path, Graph.cycle(5), "c5.txt")
    code, out = run_json(capsys, ["oracle", cpath, "-k", "2", "--json"])
    assert code == 1 and out == {"certificate": None}


def test_find_and_oracle_accept_k_above_n(tmp_path, capsys):
    gpath = graph_file(tmp_path, Graph.complete(3))
    assert run(["find", gpath, "-k", "5", "--json"]) == 0
    found = tmp_path / "cert.json"
    found.write_text(capsys.readouterr().out)
    code, out = run_json(capsys, ["verify", gpath, "-k", "5",
                                  "--certificate", str(found), "--json"])
    assert code == 0 and out == {"ok": True, "violation": None}
    code, out = run_json(capsys, ["oracle", gpath, "-k", "5", "--json"])
    assert code == 0 and out == {"certificate": {"k": 5,
                                                 "ordering": [0, 1, 2]}}


def test_oracle_size_cap_is_usage_error(tmp_path):
    path = graph_file(tmp_path, Graph.complete(15))
    assert run(["oracle", path, "-k", "1"]) == 2


# --------------------------------------------------------------- constants

def test_constants_exact_values(capsys):
    code, out = run_json(capsys, ["constants", "--mu", "1/2", "--d", "1/2",
                                  "-k", "2", "--json"])
    assert code == 0
    main = out["main"]
    assert main["path"]["zeta"] == "1/72"
    assert main["path"]["rho"] == "1/96"
    assert main["connector"]["M"] == 68
    sched = out["delta_schedule"]
    assert sched["L"] == 16
    assert len(sched["delta"]) == 17


def test_constants_connector_at_explicit_zeta(capsys):
    code, out = run_json(capsys, ["constants", "--mu", "1/2", "--d", "1/2",
                                  "-k", "2", "--zeta", "1/4", "--json"])
    assert code == 0
    cc = out["connector_at_zeta"]
    assert cc["L"] == 16 and cc["M"] == 36
    assert cc["zeta"] == "1/4"


def test_constants_human_output_mentions_exact_rationals(capsys):
    assert run(["constants", "--mu", "1/2", "--d", "1/2", "-k", "2"]) == 0
    text = capsys.readouterr().out
    assert "zeta = 1/72" in text and "rho = 1/96" in text


def test_constants_past_the_print_limit(capsys):
    # at mu = 1/16 the connector's xi0 and the schedule's later deltas have
    # more digits than Python prints; they fall back to the factored form
    assert run(["constants", "--mu", "1/16", "--d", "1/2", "-k", "1"]) == 0
    assert "xi = ~10^" in capsys.readouterr().out
    code, out = run_json(capsys, ["constants", "--mu", "1/16", "--d", "1/2",
                                  "-k", "1", "--json"])
    assert code == 0
    xi0 = out["main"]["connector"]["xi0"]
    assert xi0["sign"] == 1 and xi0["log10"] < -4300
    assert out["main"]["path"]["zeta"] == "1/12"


@pytest.mark.parametrize("mu,k,code", [
    (str(MIN_MU), "1", 0), (str(MIN_MU * Fraction(99, 100)), "1", 2),
    ("1/2", str(MAX_K), 0), ("1/2", str(MAX_K + 1), 2)])
def test_constants_input_limits(capsys, mu, k, code):
    assert run(["constants", "--mu", mu, "--d", "1/2", "-k", k]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("error: ") and len(err.splitlines()) == 1


# ------------------------------------------------------------------- bench

def test_bench_csv_layout(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run(["bench", "--sweep", "n=20;p=3/4;k=1;seeds=3",
                "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:7] == ["n", "p", "k", "seed", "success", "stage",
                          "attempts"]
    assert header[7:] == ["t_setup", "t_obstruction", "t_absorbing_path",
                          "t_reservoir", "t_cover", "t_connect", "t_absorb",
                          "t_total"]
    assert len(lines) == 4
    for line in lines[1:]:
        row = line.split(",")
        assert row[4] == "1" and row[5] == "" and int(row[6]) >= 1
        # each column is rounded to 1e-6 on its own
        times = [float(x) for x in row[7:]]
        assert abs(sum(times[:-1]) - times[-1]) <= 1e-5
        assert times[0] > 0
    assert "cell n=20" in capsys.readouterr().err


def test_bench_sweep_grammar_errors():
    assert run(["bench", "--sweep", "n=20;k=1", "--out", "-"]) == 2
    assert run(["bench", "--sweep", "garbage", "--out", "-"]) == 2
    assert run(["bench", "--sweep", "n=20;k=1;seeds=0", "--out", "-"]) == 2
    assert run(["bench", "--sweep", "n=a;k=1;seeds=1", "--out", "-"]) == 2


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir"
    assert run(["bench", "--sweep", "n=12;k=1;seeds=1",
                "--out", str(missing / "x.csv")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write")
    assert not any(line.startswith("cell") for line in err)
    assert run(["generate", "--family", "gnp", "--n", "12", "--p", "1/2",
                "-o", str(missing / "g.txt")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write")


# ------------------------------------------------------------ vertex cap

def test_graph_file_above_vertex_cap_is_usage_error(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text(f"p {MAX_VERTICES + 1} 0\n")
    assert run(["find", str(path), "-k", "1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_generate_above_vertex_cap_is_usage_error(capsys):
    too_many = str(MAX_VERTICES + 1)
    half = str(MAX_VERTICES // 2 + 1)
    for argv in (["--family", "gnp", "--n", too_many, "--p", "1/2"],
                 ["--family", "clique_complement", "--n", too_many,
                  "--mu", "1/2"],
                 ["--family", "multipartite", "--parts", f"{half},{half}"]):
        assert run(["generate"] + argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "exceed the cap" in err[0]


@pytest.mark.parametrize("cells", [f"n=12,{MAX_VERTICES + 1};k=1",
                                   "n=1;k=1", "n=12;k=0", "n=12;p=3/2;k=1"])
def test_bench_refuses_bad_cells_before_opening_out(tmp_path, capsys, cells):
    out = tmp_path / "sweep.csv"
    assert run(["bench", "--sweep", f"{cells};seeds=1",
                "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()


# ------------------------------------------------------------------- misc

def test_usage_errors_exit_two():
    assert run([]) == 2
    assert run(["frobnicate"]) == 2
    assert run(["find"]) == 2          # -k is required
    assert run(["--help"]) == 0

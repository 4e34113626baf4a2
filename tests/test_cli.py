import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, env_extra=None, stdin=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "domsat", *args],
        capture_output=True,
        text=True,
        env=env,
        input=stdin,
    )


def test_check_true_false_and_parse_error():
    ok = run_cli("check", "--pattern", "Bw", "--graph", "C^", "--predicate", "dom-sat")
    assert ok.returncode == 0
    assert "verdict: true" in ok.stdout

    no = run_cli("check", "--pattern", "Bw", "--graph", "DUW", "--predicate", "dominated")
    assert no.returncode == 1
    assert "uncovered-edge" in no.stdout

    bad = run_cli("check", "--pattern", "??", "--graph", "Bw", "--predicate", "free")
    assert bad.returncode == 2
    assert "error:" in bad.stderr


def test_check_json_round_trips():
    out = run_cli(
        "check", "--pattern", "Bw", "--graph", "DUW", "--predicate", "dominated", "--json"
    )
    data = json.loads(out.stdout)
    assert data["schema"] == "domsat/1"
    assert data["verdict"] is False
    assert data["certificate_kind"] == "uncovered-edge"

    from domsat import complete_graph, graph6_decode, is_dominated

    assert data == is_dominated(graph6_decode("DUW"), complete_graph(3)).to_json_dict()


def test_graph_argument_from_stdin():
    out = run_cli(
        "check", "--pattern", "Bw", "--graph", "-", "--predicate", "dominated",
        stdin="C~\n",
    )
    assert out.returncode == 0
    assert "verdict: true" in out.stdout


def test_compute_values_and_cap():
    out = run_cli("compute", "--pattern", "Bw", "--n", "4", "--predicate", "dom-sat")
    assert out.returncode == 0
    assert "min-edges: 5" in out.stdout
    assert "elapsed" in out.stderr and "elapsed" not in out.stdout

    out = run_cli("compute", "--pattern", "Bw", "--n", "5", "--predicate", "saturated")
    assert "min-edges: 4" in out.stdout

    capped = run_cli("compute", "--pattern", "Bw", "--n", "30", "--predicate", "dom-sat")
    assert capped.returncode == 2
    assert "cap" in capped.stderr


def test_compute_is_byte_identical_across_fresh_processes():
    args = ("compute", "--pattern", "Bw", "--n", "6", "--predicate", "semi-saturated")
    for fmt in ((), ("--json",)):
        first, second = run_cli(*args, *fmt), run_cli(*args, *fmt)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


def test_compute_json_parses_to_library_result():
    from domsat import complete_graph, min_edges

    out = run_cli("compute", "--pattern", "Bw", "--n", "5", "--predicate", "dom-sat", "--json")
    assert json.loads(out.stdout) == min_edges(complete_graph(3), 5, "dom-sat").to_json_dict()


def test_construct_certify_paths():
    ok = run_cli("construct", "--family", "dom-turan", "--n", "12", "--r", "4", "--certify")
    assert ok.returncode == 0
    assert ok.stdout.strip()

    ok = run_cli("construct", "--family", "cycle-gadget", "--r", "6", "--n", "9", "--certify")
    assert ok.returncode == 0

    neg = run_cli("construct", "--family", "cycle-gadget", "--r", "6", "--loop-len", "4", "--certify")
    assert neg.returncode == 1
    assert "fail" in neg.stderr

    infeasible = run_cli("construct", "--family", "path", "--n", "10", "--r", "5")
    assert infeasible.returncode == 2
    padded = run_cli("construct", "--family", "path", "--n", "10", "--r", "5", "--pad", "--certify")
    assert padded.returncode == 0


def test_construct_star_plus_prints_both_graphs():
    out = run_cli("construct", "--family", "star-plus", "--s", "4")
    lines = out.stdout.strip().splitlines()
    assert len(lines) == 2


def test_bounds_json():
    out = run_cli("bounds", "--pattern", "Cs", "--json")
    data = json.loads(out.stdout)
    assert data["best_upper"] == {"num": 6, "den": 5}
    assert any(b["source"] == "bridge-pairs" for b in data["upper"])


def test_profile_table():
    out = run_cli("profile", "--pattern", "Bw", "--n-max", "5")
    assert out.returncode == 0
    assert "n=4 min-edges=5 density=5/4" in out.stdout


def test_profile_rejects_orders_it_cannot_sweep():
    # below the pattern's order, above the default cap, above the enumeration limit
    for extra in (("--n-max", "2"), ("--n-max", "10"), ("--n-max", "11", "--max-n", "20")):
        out = run_cli("profile", "--pattern", "Bw", *extra)
        assert out.returncode == 2
        assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr
        assert out.stdout == ""


def test_forged_cache_file_is_ignored(tmp_path):
    # a valid witness under a false minimum: the dom-sat minimum for K3
    # on 6 vertices is 8, not 9
    forged = tmp_path / "cache.jsonl"
    forged.write_text(
        '{"schema":"domsat/1","pattern":"Bw","n":6,"predicate":"dom-sat",'
        '"min_edges":9,"witnesses":["E?~w"],"graphs_examined":1}\n'
    )
    args = ("compute", "--pattern", "Bw", "--n", "6", "--predicate", "dom-sat")
    plain = run_cli(*args)
    with_env = run_cli(*args, env_extra={"DOMSAT_CACHE": str(forged)})
    assert plain.returncode == with_env.returncode == 0
    assert "min-edges: 8" in with_env.stdout
    assert with_env.stdout == plain.stdout
    assert run_cli(*args, "--cache", str(forged)).returncode == 2


def test_verify_suite_lemma_trees():
    out = run_cli("verify", "--suite", "lemma-trees")
    assert out.returncode == 0
    assert "result: pass" in out.stdout


def test_usage_errors_exit_two():
    out = run_cli("frobnicate")
    assert out.returncode == 2
    out = run_cli("check", "--pattern", "Bw", "--predicate", "free")
    assert out.returncode == 2

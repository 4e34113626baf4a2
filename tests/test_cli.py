import json

import pytest

from conftest import run_python
from domsat.cli import SUITE_NAMES


def run_cli(*args, env_extra=None, stdin=None):
    return run_python("-m", "domsat", *args, env_extra=env_extra, stdin=stdin)


def _assert_input_error(out):
    assert out.returncode == 2
    assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr
    assert out.stdout == ""


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


@pytest.mark.parametrize(
    "family",
    [
        "near-matching --k 100",
        "path --n 100 --r 3 --pad",
        "dom-turan --n 100 --r 4",
        "cycle-gadget --r 40 --n 100",
        "star --n 100 --r 3 --pad",
        "turan --n 70 --r 3",
        "star-plus --s 40",
        "bridge --pattern A_ --n 70",
        "neighborhood --pattern A_ --n 70",
    ],
)
def test_construct_above_64_vertices_is_an_input_error(family):
    _assert_input_error(run_cli("construct", "--family", *family.split()))


def test_construct_builds_the_claim_pattern_only_to_certify():
    # Turan(64, 64) is K64; its claim pattern K65 exceeds the vertex limit
    out = run_cli("construct", "--family", "turan", "--n", "64", "--r", "64")
    assert out.returncode == 0
    assert len(out.stdout.splitlines()) == 1
    certify = run_cli("construct", "--family", "turan", "--n", "64", "--r", "64", "--certify")
    _assert_input_error(certify)


@pytest.mark.parametrize(
    "family, given, flag",
    [
        ("near-matching", (), "k"),
        ("dom-turan", (), "n"),
        ("dom-turan", ("--n", "8"), "r"),
        ("turan", ("--n", "8"), "r"),
        ("path", ("--r", "3"), "n"),
        ("cycle-gadget", ("--n", "9"), "r"),
        ("star", ("--n", "9"), "r"),
        ("star-plus", (), "s"),
        ("bridge", ("--n", "9"), "pattern"),
        ("bridge", ("--pattern", "Cs"), "n"),
        ("neighborhood", ("--pattern", "Bw"), "n"),
    ],
)
def test_construct_names_the_missing_flag(family, given, flag):
    out = run_cli("construct", "--family", family, *given)
    _assert_input_error(out)
    assert out.stderr == f"error: family '{family}' needs --{flag}\n"


def test_help_lists_families_in_order_and_exits_zero():
    out = run_cli("construct", "--help")
    assert out.returncode == 0
    assert (
        "{near-matching,dom-turan,turan,path,cycle-gadget,star,star-plus,bridge,neighborhood}"
        in out.stdout
    )
    for command in ((), ("check",), ("compute",), ("bounds",), ("profile",), ("verify",)):
        assert run_cli(*command, "--help").returncode == 0


def test_suite_names_match_verify_and_help():
    from domsat import cli, verify

    assert cli.SUITE_NAMES == tuple(sorted(verify.SUITES))
    out = run_cli("verify", "--help")
    assert out.returncode == 0
    assert "{" + ",".join(sorted(verify.SUITES)) + "}" in out.stdout


def test_construct_star_plus_prints_both_graphs():
    out = run_cli("construct", "--family", "star-plus", "--s", "4")
    lines = out.stdout.strip().splitlines()
    assert len(lines) == 2


def test_bounds_json():
    out = run_cli("bounds", "--pattern", "Cs", "--json")
    data = json.loads(out.stdout)
    assert data["best_upper"] == {"num": 6, "den": 5}
    assert any(b["source"] == "bridge-pairs" for b in data["upper"])


BOUNDS_CS_TEXT = """\
lower: 1/2 (min-degree-half)
upper: 5/2 (clique-upper)
upper: 3/2 (bridge-blocks)
upper: 13/8 (bridge-pairs)
upper: 2 (neighborhood)
upper: 3/2 (cut-pair)
upper: 6/5 (star-family-construction)
upper: 29/20 (star-family-stated)
best-lower: 1/2
best-upper: 6/5
note: bridge-pairs witness with clique order 3 fails its predicate for this pattern; smallest certifying order is 4
note: star-family upper candidates disagree: the stated constant exceeds the witness density; both are recorded
"""


@pytest.mark.parametrize(
    "argv, stdout, stderr",
    [
        ("bounds --pattern Cs", BOUNDS_CS_TEXT, ""),
        (
            "construct --family near-matching --k 5 --json",
            '{"certified": null, "claim": null, "family": "near-matching", '
            '"graphs": ["DwC"], "schema": "domsat/1"}\n',
            "",
        ),
        (
            "construct --family near-matching --k 4 --certify",
            "C`\n",
            "nothing to certify for this family\n",
        ),
        (
            "profile --pattern Bw --n-max 5 --json",
            '{"pattern": "Bw", "predicate": "dom-sat", "rows": ['
            '{"density": {"den": 1, "num": 1}, "min_edges": 3, "n": 3}, '
            '{"density": {"den": 4, "num": 5}, "min_edges": 5, "n": 4}, '
            '{"density": {"den": 5, "num": 6}, "min_edges": 6, "n": 5}], '
            '"schema": "domsat/1", "trend": {"density_non_decreasing": false, '
            '"first_density": {"den": 1, "num": 1}, "last_density": {"den": 5, "num": 6}, '
            '"min_edges_non_decreasing": true}}\n',
            "",
        ),
        (
            "verify --suite lemma-trees --json",
            '{"checks": [{"detail": "6 trees, 3 stars", "label": "tree-lemma-j2", "passed": true}, '
            '{"detail": "46 trees, 6 stars", "label": "tree-lemma-j3", "passed": true}], '
            '"passed": true, "schema": "domsat/1", "suite": "lemma-trees"}\n',
            "",
        ),
    ],
    ids=["bounds-text", "construct-json", "certify-no-claim", "profile-json", "verify-json"],
)
def test_output_paths_are_pinned(argv, stdout, stderr, capsys):
    from domsat import cli

    assert cli.main(argv.split()) == 0
    assert capsys.readouterr() == (stdout, stderr)


def test_profile_table():
    out = run_cli("profile", "--pattern", "Bw", "--n-max", "5")
    assert out.returncode == 0
    assert "n=4 min-edges=5 density=5/4" in out.stdout


def test_profile_rejects_orders_it_cannot_sweep():
    # below the pattern's order, above the default cap, above the enumeration limit
    for extra in (("--n-max", "2"), ("--n-max", "10"), ("--n-max", "11", "--max-n", "20")):
        _assert_input_error(run_cli("profile", "--pattern", "Bw", *extra))


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


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_verify_suite_passes(suite):
    out = run_cli("verify", "--suite", suite)
    assert out.returncode == 0
    assert "result: pass" in out.stdout


def test_failing_verify_checks_count_and_name_the_first(monkeypatch, capsys):
    from domsat import PredicateReport, cli, verify

    monkeypatch.setattr(verify, "is_dom_sat", lambda g, f: PredicateReport("dom-sat", False))
    details = {c.label: c.detail for c in verify.suite_constructions().checks}
    assert details == {
        "dom-turan-certified": "66 counterexamples, first: not dom-sat at (n=3, r=3)",
        "path-family-certified": "10 counterexamples, first: failed at (r=3, blocks=1)",
        "cycle-gadget-certified": "4 counterexamples, first: failed at r=4",
        "cycle-negative-control": "",
        "star-family-certified": "8 counterexamples, first: failed at (r=2, blocks=1)",
        "star-plus-certified": "5 counterexamples, first: blocks not dom-sat at s=4",
        "turan-saturated": "",
        "bridge-family-certified": "45 counterexamples, first: not dom-sat for A_ at n=2",
        "neighborhood-family-certified": "94 counterexamples, first: not dom-sat for A_ at n=4",
    }
    assert cli.main(["verify", "--suite", "constructions"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] cycle-gadget-certified (4 counterexamples, first: failed at r=4)\n" in out
    assert "[pass] cycle-negative-control\n" in out
    assert out.endswith("result: fail\n")


def test_record_writes_each_value_in_its_json_form():
    from fractions import Fraction

    from domsat import complete_graph
    from domsat._json import record

    fields = {
        "pairs": ((0, 1), [2, (3, 4)]),
        "empty": (),
        "density": Fraction(6, 5),
        "whole": Fraction(2),
        "kept": [None, True, False, 0, "x"],
        "nested": {"trend": (Fraction(1, 2),)},
    }
    assert json.dumps(record(fields), sort_keys=True) == json.dumps(
        {
            "schema": "domsat/1",
            "pairs": [[0, 1], [2, [3, 4]]],
            "empty": [],
            "density": {"num": 6, "den": 5},
            "whole": {"num": 2, "den": 1},
            "kept": [None, True, False, 0, "x"],
            "nested": {"trend": [{"num": 1, "den": 2}]},
        },
        sort_keys=True,
    )
    for unsupported in (complete_graph(3), 0.5, {1, 2}):
        with pytest.raises(TypeError):
            record({"value": unsupported})


def test_usage_errors_exit_two():
    out = run_cli("frobnicate")
    assert out.returncode == 2
    out = run_cli("check", "--pattern", "Bw", "--predicate", "free")
    assert out.returncode == 2


BATTERY_FAST_DIGEST = "22d9c4520a55b54d5ba49b72a45ccbe8a3ca24c97763d3da056a9dbfe284443d"


def test_battery_fast_subset_digest():
    # stdout, stderr and exit codes of the battery's fast subset, in one
    # process; the full battery is `python tests/battery.py`
    import battery

    assert battery.digest(battery.FAST) == BATTERY_FAST_DIGEST

"""CLI surface: subcommands, JSON shapes, exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from balanced_cycles import (BadSize, BadSpec, Labelling, cyclic_group, extremal_cyclic,
                             labelling_from_json)
from balanced_cycles import cli, harness, reach
from balanced_cycles.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


@pytest.fixture()
def z3_file(tmp_path):
    path = tmp_path / "z3.json"
    path.write_text(json.dumps({"kind": "cyclic", "q": 3}))
    return str(path)


@pytest.fixture()
def labelling_file(tmp_path):
    def write(L, name="labelling.json"):
        path = tmp_path / name
        path.write_text(json.dumps(L.to_json()))
        return str(path)
    return write


def test_gen_extremal(capsys):
    code, data = run_cli(capsys, "gen", "--extremal", "3", "4")
    assert code == 0
    assert labelling_from_json(data) == extremal_cyclic(3, 4)


def test_gen_arc_critical(capsys):
    code, data = run_cli(capsys, "gen", "--arc-critical", "3", "1")
    assert code == 0
    assert data["mask"][1][2] is False


def test_gen_random(capsys, z3_file):
    code, data = run_cli(capsys, "gen", "--random", z3_file, "5", "9")
    assert code == 0
    assert data["n"] == 5 and data["group"] == {"kind": "cyclic", "q": 3}
    code2, data2 = run_cli(capsys, "gen", "--random", z3_file, "5", "9")
    assert data2 == data


def test_check_verdicts(capsys, labelling_file):
    code, data = run_cli(capsys, "check", labelling_file(extremal_cyclic(3, 4)))
    assert code == 0 and data["balanced_cycle"] == [0, 1, 2, 3] and data["mode"] == "exact"
    code, data = run_cli(capsys, "check", labelling_file(extremal_cyclic(3, 3)))
    assert code == 3 and data["balanced_cycle"] is None and data["mode"] == "exact"
    # beyond the DP cap the scan runs and a miss is inconclusive
    code, data = run_cli(capsys, "check", labelling_file(extremal_cyclic(9, 26)))
    assert code == 4 and data["mode"] == "heuristic"
    # --max-dp-vertices can only lower the cap
    code, data = run_cli(capsys, "check", labelling_file(extremal_cyclic(9, 26)),
                         "--max-dp-vertices", "40")
    assert code == 4 and data["mode"] == "heuristic"
    code, data = run_cli(capsys, "find-cycle", labelling_file(extremal_cyclic(3, 4)))
    assert code == 0


@pytest.mark.parametrize("q, n, code", [(3, 3, 3), (3, 4, 0)], ids=["cycle_free", "cycle"])
def test_find_cycle_is_check(capsys, labelling_file, q, n, code):
    path = labelling_file(extremal_cyclic(q, n))
    outcomes = []
    for name in ("check", "find-cycle"):
        outcomes.append((main([name, path]), capsys.readouterr().out))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == code


def test_main_builds_the_parser_once(capsys, labelling_file):
    cli.build_parser.cache_clear()
    path = labelling_file(extremal_cyclic(3, 4))
    assert run_cli(capsys, "check", path)[0] == 0
    assert run_cli(capsys, "find-cycle", path)[0] == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    with pytest.raises(SystemExit):
        main(["--help"])
    assert "check (find-cycle)" in capsys.readouterr().out


def test_check_max_dp_vertices_zero_is_scan_only(capsys, labelling_file):
    two_cycle = Labelling(cyclic_group(3), [[0, 1], [2, 0]])
    code, data = run_cli(capsys, "check", labelling_file(two_cycle), "--max-dp-vertices", "0")
    assert code == 0 and data == {"balanced_cycle": [0, 1], "mode": "heuristic"}
    # the exact search would find the 4-cycle (test_check_verdicts); the scan misses it
    code, data = run_cli(capsys, "check", labelling_file(extremal_cyclic(3, 4)),
                         "--max-dp-vertices", "0")
    assert code == 4 and data == {"balanced_cycle": None, "mode": "heuristic"}


def test_check_rejects_a_negative_dp_limit(capsys, labelling_file):
    # extremal_cyclic(3, 4) has a balanced 4-cycle, which the exact search finds
    assert main(["check", labelling_file(extremal_cyclic(3, 4)), "--max-dp-vertices", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "max_dp_vertices -3" in captured.err


def test_enumerate(capsys, labelling_file):
    code, data = run_cli(capsys, "enumerate", labelling_file(extremal_cyclic(3, 4)))
    assert code == 0
    assert data == {"balanced_cycles": [[0, 1, 2, 3]], "count": 1}


def test_key_lemma_golden(capsys, labelling_file):
    code, data = run_cli(capsys, "key-lemma", labelling_file(extremal_cyclic(3, 3)))
    assert code == 0
    assert data == {
        "within_hypothesis": True,
        "branch": "certificate",
        "certificate": {"X": [0, 1, 2], "x": 2, "R": [0, 1, 2], "stab_r": [0, 1, 2]},
    }


def test_prime_find(capsys, labelling_file):
    code, data = run_cli(capsys, "prime-find", labelling_file(extremal_cyclic(3, 4)))
    assert code == 0
    assert data == {"balanced_cycle": [0, 1, 2, 3]}


def test_verify_exhaustive(capsys, z3_file):
    code, data = run_cli(capsys, "verify", "--group", z3_file, "--n", "3",
                         "--mode", "exhaustive-normalized")
    assert code == 1  # counterexamples exist at n = 3
    assert data["counterexample_count"] > 0
    code, data = run_cli(capsys, "verify", "--group", z3_file, "--n", "4",
                         "--mode", "exhaustive-normalized")
    assert code == 0
    assert data["counterexample_count"] == 0


def test_verify_random(capsys, z3_file):
    code, data = run_cli(capsys, "verify", "--group", z3_file, "--random",
                         "--n", "6", "--trials", "20", "--seed", "4")
    assert code == 0
    assert data["trials"] == 20


def test_verify_too_large(capsys, tmp_path):
    path = tmp_path / "z5.json"
    path.write_text(json.dumps({"kind": "cyclic", "q": 5}))
    code, data = run_cli(capsys, "verify", "--group", str(path), "--n", "8")
    assert code == 5
    assert data["error"] == "search_space_too_large"


@pytest.mark.parametrize("argv, message", [
    (["--random", "--n", "4", "--trials", "-3"], "trial count -3"),
    (["--random", "--n", "4", "--trials", "3", "--seed", "-1"], "seed -1"),
    (["--random", "--n", "4", "--trials", "3", "--seed", str(2 ** 64)], "seed 1844"),
    (["--n", "0"], "vertex count 0"),
    (["--random", "--n", "0", "--trials", "0"], "vertex count 0 outside 2..64"),
    (["--random", "--n", "1", "--trials", "0"], "vertex count 1 outside 2..64"),
    (["--n", "2", "--workers", "0"], "worker count 0"),
    (["--random", "--n", "4", "--trials", "3", "--max-dp-vertices", "-1"], "max_dp_vertices -1"),
    (["--n", "2", "--max-dp-vertices", "-1"], "--max-dp-vertices does not apply"),
    (["--n", "2", "--seed", "-1"], "--seed does not apply"),
    (["--n", "2", "--seed", "3"], "--seed does not apply"),
    (["--n", "2", "--trials", "-3"], "--trials does not apply"),
    (["--random", "--n", "4", "--trials", "3", "--workers", "0"], "--workers does not apply"),
    (["--random", "--n", "4", "--trials", "3", "--mode", "exhaustive-normalized"],
     "--mode does not apply"),
], ids=["negative_trials", "negative_seed", "seed_past_64_bits", "no_vertices",
        "random_no_vertices_no_trials", "random_one_vertex_no_trials", "no_workers",
        "negative_dp_limit", "exhaustive_dp_limit", "exhaustive_negative_seed", "exhaustive_seed",
        "exhaustive_trials", "random_workers", "random_mode"])
def test_verify_rejects_bad_campaign_arguments(capsys, z3_file, argv, message):
    assert main(["verify", "--group", z3_file, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_gen_rejects_seed_outside_64_bits(capsys, z3_file):
    assert main(["gen", "--random", z3_file, "4", "-1"]) == 2
    assert main(["gen", "--random", z3_file, "4", str(2 ** 64)]) == 2
    assert capsys.readouterr().out == ""


def _out_of_memory(*args, **kwargs):
    raise MemoryError


def test_memory_error_exits_too_large(capsys, monkeypatch, z3_file, labelling_file):
    monkeypatch.setattr(cli, "enumerate_balanced_cycles", _out_of_memory)
    code, data = run_cli(capsys, "enumerate", labelling_file(extremal_cyclic(3, 4)))
    assert code == 5 and data["error"] == "too_large"
    monkeypatch.setattr(cli, "verify_all", _out_of_memory)
    code, data = run_cli(capsys, "verify", "--group", z3_file, "--n", "3")
    assert code == 5 and data == {"error": "too_large", "message": "out of memory"}


def test_kept_counterexamples_are_capped(capsys, monkeypatch, tmp_path):
    path = tmp_path / "z4.json"
    path.write_text(json.dumps({"kind": "cyclic", "q": 4}))
    argv = ("verify", "--group", str(path), "--n", "4", "--mode", "exhaustive-normalized")
    monkeypatch.setattr(harness, "COUNTEREXAMPLE_CAP", 714)
    code, data = run_cli(capsys, *argv)
    assert code == 1 and data["counterexample_count"] == 714
    monkeypatch.setattr(harness, "COUNTEREXAMPLE_CAP", 713)
    code, data = run_cli(capsys, *argv)
    assert code == 5 and data["error"] == "search_space_too_large"
    assert "COUNTEREXAMPLE_CAP" in data["message"]


def test_random_counterexamples_are_capped(capsys, monkeypatch, tmp_path):
    path = tmp_path / "z64.json"
    path.write_text(json.dumps({"kind": "cyclic", "q": 64}))
    argv = ("verify", "--group", str(path), "--random", "--n", "4", "--trials", "40",
            "--seed", "1")
    monkeypatch.setattr(harness, "COUNTEREXAMPLE_CAP", 29)
    code, data = run_cli(capsys, *argv)
    assert code == 1 and data["counterexample_count"] == 29
    monkeypatch.setattr(harness, "COUNTEREXAMPLE_CAP", 28)
    code, data = run_cli(capsys, *argv)
    assert code == 5 and data["error"] == "search_space_too_large"
    assert "COUNTEREXAMPLE_CAP" in data["message"]


def test_kept_cycles_are_capped(capsys, monkeypatch, labelling_file):
    path = labelling_file(Labelling(cyclic_group(2), [[0] * 6 for _ in range(6)]))
    monkeypatch.setattr(reach, "CYCLE_LIST_CAP", 409)
    code, data = run_cli(capsys, "enumerate", path)
    assert code == 0 and data["count"] == 409
    monkeypatch.setattr(reach, "CYCLE_LIST_CAP", 408)
    code, data = run_cli(capsys, "enumerate", path)
    assert code == 5 and data["error"] == "too_large"
    assert "CYCLE_LIST_CAP" in data["message"]


def test_compute_n(capsys, z3_file):
    code, data = run_cli(capsys, "compute-n", "--group", z3_file)
    assert code == 0
    assert data["n"] == 4
    assert data["witness"]["n"] == 3


def test_compute_n_node_budget(capsys, z3_file):
    # Z3 takes 62 label trials in all, 56 of them refuting n = 4
    code, data = run_cli(capsys, "compute-n", "--group", z3_file, "--node-budget", "62")
    assert code == 0
    assert data["n"] == 4 and data["search_nodes"] == 62
    code, data = run_cli(capsys, "compute-n", "--group", z3_file, "--node-budget", "20")
    assert code == 5
    assert data["error"] == "search_space_too_large" and data["lower_bound"] == 4
    assert data["witness"]["n"] == 3


def test_compute_n_rejects_a_negative_node_budget(capsys, z3_file):
    assert main(["compute-n", "--group", z3_file, "--node-budget", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "node_budget -1 is not an integer >= 0" in captured.err


@pytest.mark.parametrize("entry", [2 ** 70, -2 ** 70], ids=["above", "below"])
def test_a_table_entry_beyond_int64_is_a_usage_error(capsys, tmp_path, entry):
    # it used to exit 6 with numpy's OverflowError
    group = {"kind": "table", "mul": [[0, entry], [entry, 0]]}
    group_file = tmp_path / "group.json"
    group_file.write_text(json.dumps(group))
    labelling_file = tmp_path / "labelling.json"
    labelling_file.write_text(json.dumps({"group": group, "n": 2, "labels": [[0, 1], [1, 0]]}))
    assert main(["compute-n", "--group", str(group_file)]) == 2
    assert main(["check", str(labelling_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: table spec 'mul' must be rows of integers in the int64 range\n" * 2


@pytest.mark.parametrize("max_n", ["0", "-2"])
def test_compute_n_rejects_max_n_below_one(capsys, z3_file, max_n):
    assert main(["compute-n", "--group", z3_file, "--max-n", max_n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"max_n {max_n} is below 1" in captured.err


def test_usage_errors(capsys, z3_file, tmp_path):
    assert main(["check", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "nope"}')
    assert main(["compute-n", "--group", str(bad)]) == 2
    assert main(["verify", "--group", z3_file, "--random", "--trials", "5"]) == 2


Z2 = {"kind": "cyclic", "q": 2}
MALFORMED = {
    "float_and_bool_labels": {"group": Z2, "n": 2, "labels": [[0, 1.7], [True, 0]]},
    "bool_label": {"group": Z2, "n": 2, "labels": [[0, True], [1, 0]]},
    "string_label": {"group": Z2, "n": 2, "labels": [[0, "1"], [1, 0]]},
    "float_n": {"group": Z2, "n": 2.9, "labels": [[0, 1], [1, 0]]},
    "float_group_order": {"group": {"kind": "cyclic", "q": 3.5}, "n": 2,
                          "labels": [[0, 1], [1, 0]]},
    "top_level_list": [[0, 1], [1, 0]],
    "ragged_labels": {"group": Z2, "labels": [[0, 1], [1]]},
    "int_mask": {"group": Z2, "n": 2, "labels": [[0, 1], [1, 0]],
                 "mask": [[0, 1], [1, 0]]},
    "ragged_mask": {"group": Z2, "labels": [[0, 1], [1, 0]], "mask": [[False, True], [True]]},
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_labelling_is_rejected(capsys, tmp_path, case):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(MALFORMED[case]))
    with pytest.raises((BadSpec, BadSize)):
        labelling_from_json(MALFORMED[case])
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().out == ""


def test_missing_group_field_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"kind": "product", "left": {"kind": "cyclic", "q": 2}}))
    assert main(["compute-n", "--group", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: group spec is missing the field 'right'\n"


@pytest.mark.parametrize("exc", [AssertionError, RuntimeError, KeyError])
@pytest.mark.parametrize("argv", [["compute-n"], ["verify", "--n", "3"]])
def test_crash_exits_internal_error(capsys, monkeypatch, z3_file, argv, exc):
    def crash(*args, **kwargs):
        raise exc("counterexample failed re-verification")
    monkeypatch.setattr(cli, "compute_n", crash)
    monkeypatch.setattr(cli, "verify_all", crash)
    assert main(argv[:1] + ["--group", z3_file] + argv[1:]) == cli.EXIT_INTERNAL == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" in captured.err and "re-verification" in captured.err


def test_deeply_nested_input_is_a_usage_error(capsys, tmp_path):
    depth = 5000  # past the interpreter's recursion limit
    group = ('{"kind": "product", "left": ' * depth + '{"kind": "cyclic", "q": 1}'
             + ', "right": {"kind": "cyclic", "q": 1}}' * depth)
    group_file = tmp_path / "group.json"
    group_file.write_text(group)
    labelling_file = tmp_path / "labelling.json"
    labelling_file.write_text('{"group": ' + group + ', "n": 2, "labels": [[0, 0], [0, 0]]}')
    assert main(["compute-n", "--group", str(group_file)]) == 2
    assert main(["check", str(labelling_file)]) == 2
    assert capsys.readouterr().out == ""


# The reports below as the CLI printed them with json.dump(..., indent=2),
# parsed, ``elapsed_seconds`` aside.  ``_emit`` now prints one line through
# the C encoder; only whitespace may differ.
REPORT_GOLDEN = Path(__file__).parent / "golden" / "cli_reports.json"

# (id, argv, (q, n) of the extremal_cyclic labelling written to {labelling})
REPORT_CASES = [
    ("check/extremal-3-4", ["check", "{labelling}"], (3, 4)),
    ("check/extremal-5-5", ["check", "{labelling}"], (5, 5)),
    ("key-lemma/extremal-5-5", ["key-lemma", "{labelling}"], (5, 5)),
    ("enumerate/extremal-3-6", ["enumerate", "{labelling}"], (3, 6)),
    ("enumerate/extremal-5-5", ["enumerate", "{labelling}"], (5, 5)),
    ("verify/Z3/n3/normalized",
     ["verify", "--group", "{group}", "--n", "3", "--mode", "exhaustive-normalized"], None),
    ("verify/Z3/n3/random",
     ["verify", "--group", "{group}", "--n", "3", "--random", "--trials", "20", "--seed", "3"],
     None),
    ("compute-n/Z3", ["compute-n", "--group", "{group}"], None),
]


@pytest.mark.parametrize("case, argv, extremal", REPORT_CASES, ids=[c[0] for c in REPORT_CASES])
def test_reports_parse_to_their_golden_values(case, argv, extremal, capsys, z3_file,
                                              labelling_file):
    files = {"group": z3_file,
             "labelling": labelling_file(extremal_cyclic(*extremal)) if extremal else None}
    code = main([arg.format(**files) for arg in argv])
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1  # one line
    report = json.loads(out)
    report.pop("elapsed_seconds", None)
    golden = json.loads(REPORT_GOLDEN.read_text())[case]
    assert (code, report) == (golden["exit"], golden["report"])


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "balanced_cycles.cli", "gen", "--extremal", "3", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 3


def test_a_launch_leaves_the_process_pool_unloaded():
    # only verify_all's workers > 1 branch imports the pool, and with it multiprocessing
    code = ("import json, sys, balanced_cycles.cli; print(json.dumps("
            "[m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []

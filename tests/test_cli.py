"""CLI surface: subcommands, JSON shapes, exit codes."""

import json
import subprocess
import sys

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
], ids=["negative_trials", "negative_seed", "seed_past_64_bits", "no_vertices"])
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
    "int_mask": {"group": Z2, "n": 2, "labels": [[0, 1], [1, 0]],
                 "mask": [[0, 1], [1, 0]]},
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_labelling_is_rejected(capsys, tmp_path, case):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(MALFORMED[case]))
    with pytest.raises((BadSpec, BadSize)):
        labelling_from_json(MALFORMED[case])
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().out == ""


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


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "balanced_cycles.cli", "gen", "--extremal", "3", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 3

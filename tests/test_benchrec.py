"""The runner and the record writer the ``tools/bench_*.py`` scripts share.

A benchmark file holds one entry per measured tree.  Measuring a case
again under the same label must replace only that case's row, and a new
label must add an entry next to the others, each with the fields that
say what was measured where.  A run whose child fails must say why.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

BENCHREC = Path(__file__).resolve().parent.parent / "tools" / "benchrec.py"
ENTRY_FIELDS = {"label", "commit", "modified", "date", "machine", "python", "numpy", "results"}


def load_benchrec():
    spec = importlib.util.spec_from_file_location("benchrec", BENCHREC)
    benchrec = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(benchrec)
    return benchrec


@pytest.fixture
def write(monkeypatch, tmp_path):
    """``benchrec.write`` into tmp_path/bench.json, under a label (None: the commit)."""
    benchrec = load_benchrec()
    # git and the platform's processor query start processes; the writer is tested without them
    monkeypatch.setattr(benchrec, "git", lambda root, *args: "abc123" if "rev-parse" in args else "")
    monkeypatch.setattr(benchrec, "machine", lambda: {"cpu_model": "test", "nproc": 1})
    monkeypatch.setattr(subprocess, "Popen", None)
    parser = benchrec.parser("A test.\n\nMore.", "unused.json")

    def write(label, rows):
        argv = ["--root", str(tmp_path), "--out", str(tmp_path / "bench.json")]
        benchrec.write(parser.parse_args(argv + (["--label", label] if label else [])),
                       "what", "group", rows)
        return json.loads((tmp_path / "bench.json").read_text())["runs"]

    return write


def test_a_row_measured_again_replaces_only_its_key(write):
    write("a", [{"group": "Z3", "wall_s": 1.0}, {"group": "Z4", "wall_s": 2.0}])
    runs = write("a", [{"group": "Z4", "wall_s": 3.0}, {"group": "Z5", "wall_s": 4.0}])
    assert [run["label"] for run in runs] == ["a"]
    assert runs[0]["results"] == [{"group": "Z3", "wall_s": 1.0}, {"group": "Z4", "wall_s": 3.0},
                                  {"group": "Z5", "wall_s": 4.0}]


def test_a_new_label_appends_an_entry(write):
    first = write("a", [{"group": "Z3", "wall_s": 1.0}])
    runs = write(None, [{"group": "Z3", "wall_s": 2.0}])
    assert [run["label"] for run in runs] == ["a", "abc123"]  # the commit by default
    assert runs[0] == first[0]
    assert runs[1]["results"] == [{"group": "Z3", "wall_s": 2.0}]


def test_a_key_of_several_fields_replaces_only_its_row(monkeypatch, tmp_path):
    # the frontier script keys its rows by (case, n): a cycle-free and a
    # late-cycle row of one size stay apart
    benchrec = load_benchrec()
    monkeypatch.setattr(benchrec, "git", lambda root, *args: None)
    monkeypatch.setattr(benchrec, "machine", lambda: {"cpu_model": "test", "nproc": 1})
    monkeypatch.setattr(subprocess, "Popen", None)
    out = tmp_path / "bench.json"
    args = benchrec.parser("A test.", "unused.json").parse_args(
        ["--root", str(tmp_path), "--out", str(out), "--label", "a"])
    benchrec.write(args, "what", ("case", "n"), [{"case": "free", "n": 12, "wall_s": 1.0},
                                                 {"case": "late", "n": 12, "wall_s": 2.0}])
    benchrec.write(args, "what", ("case", "n"), [{"case": "late", "n": 12, "wall_s": 3.0}])
    assert json.loads(out.read_text())["runs"][0]["results"] == [
        {"case": "free", "n": 12, "wall_s": 1.0}, {"case": "late", "n": 12, "wall_s": 3.0}]


def test_every_frontier_entry_can_be_measured_again(monkeypatch, tmp_path):
    # the frontier rows are keyed by (case, n), so a row of any entry,
    # the oldest included, must carry both for a new row to replace it
    benchrec = load_benchrec()
    monkeypatch.setattr(benchrec, "git", lambda root, *args: None)
    monkeypatch.setattr(benchrec, "machine", lambda: {"cpu_model": "test", "nproc": 1})
    monkeypatch.setattr(subprocess, "Popen", None)
    out = tmp_path / "bench.json"
    out.write_text((BENCHREC.parents[1] / "BENCH_frontier.json").read_text())
    parser = benchrec.parser("A test.", "unused.json")
    for entry in json.loads(out.read_text())["runs"]:
        args = parser.parse_args(["--root", str(tmp_path), "--out", str(out),
                                  "--label", entry["label"]])
        benchrec.write(args, "what", ("case", "n"), [{"case": "cycle-free", "n": 16}])
        results = next(run["results"] for run in json.loads(out.read_text())["runs"]
                       if run["label"] == entry["label"])
        assert results[-1] == {"case": "cycle-free", "n": 16}
        assert len(results) == len(entry["results"])


def test_every_entry_keeps_the_tree_fields(write):
    write("a", [{"group": "Z3", "wall_s": 1.0}])
    write("a", [{"group": "Z4", "wall_s": 1.0}])
    for run in write("b", [{"group": "Z3", "wall_s": 2.0}]):
        assert run.keys() == ENTRY_FIELDS
        assert run["commit"] == "abc123" and run["modified"] is False
        assert run["python"] and run["numpy"] and run["date"].endswith("Z")


def test_an_archive_export_names_its_commit(tmp_path):
    # git archive fills ARCHIVED_COMMIT in the export's copy of benchrec.py
    # (export-subst in .gitattributes); a checkout keeps the placeholder
    benchrec = load_benchrec()
    tools = tmp_path / "tools"
    tools.mkdir()
    (tools / "benchrec.py").write_text('ARCHIVED_COMMIT = "$Format:%H$"\n')
    assert benchrec.archived_commit(tmp_path) is None
    commit = "0123456789abcdef0123456789abcdef01234567"
    (tools / "benchrec.py").write_text(f'ARCHIVED_COMMIT = "{commit}"\n')
    assert benchrec.archived_commit(tmp_path) == commit
    assert benchrec.archived_commit(tmp_path / "missing") is None
    assert "tools/benchrec.py export-subst" in (BENCHREC.parents[1] / ".gitattributes").read_text()


def test_a_failing_child_names_its_error(tmp_path):
    child = "raise ValueError('the child broke at step 7')"
    with pytest.raises(SystemExit, match="exited with status 1") as info:
        load_benchrec().run(tmp_path, child)
    assert "ValueError: the child broke at step 7" in str(info.value)

"""tests/compare_trees.py: the repository against itself, and its verdicts
on planted differences."""

import importlib.util
import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("compare_trees", ROOT / "tests" / "compare_trees.py")
compare_trees = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_trees)


def test_the_repository_against_itself_is_identical():
    # a small train and an eval of its params.bin, each tree in fresh
    # subprocesses: every file is identical, the manifests up to their times
    report = compare_trees.compare(ROOT, ROOT, compare_trees.SMALL)
    assert not compare_trees.differs(report), report
    assert set(report) == {"train-small", "eval-small"}
    for r in report.values():
        assert r["exit_codes"] == [0, 0] and r["stdout"] == compare_trees.IDENTICAL
        for path, f in r["files"].items():
            want = (compare_trees.WITHOUT_TIMES if path == "manifest.json"
                    else compare_trees.IDENTICAL)
            assert f["status"] == want, (path, f)
    assert {"metrics.csv", "params.bin", "v_final.csv"} <= set(report["train-small"]["files"])
    assert "eval.json" in report["eval-small"]["files"]


def test_a_planted_change_to_the_step_is_named(tmp_path):
    # a copy of src whose V step is off by 1e-7 relative: the small set
    # names every trained file that the change moves
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    trainer = tmp_path / "src" / "circlewalk" / "trainer.py"
    code = trainer.read_text()
    planted = code.replace("V=fp.V - eta * bg.gV,", "V=(fp.V - eta * bg.gV) * (1 + 1e-7),")
    assert planted != code
    trainer.write_text(planted)
    report = compare_trees.compare(ROOT, tmp_path, compare_trees.SMALL)
    assert compare_trees.differs(report)
    files = report["train-small"]["files"]
    for path in ("metrics.csv", "params.bin", "v_final.csv"):
        assert files[path]["status"] == compare_trees.DIFFERING, (path, files[path])
    assert "loss" in files["metrics.csv"]["max_relative_move"]


def test_planted_differences_are_named():
    a = b"iter,loss,kl\n1,0.5,nan\n2,0.25,nan\n"
    b = b"iter,loss,kl\n1,0.5,nan\n2,0.2500001,nan\n"
    moved = compare_trees.compare_file("metrics.csv", a, b)
    assert moved["status"] == compare_trees.DIFFERING
    assert list(moved["max_relative_move"]) == ["loss"]
    assert abs(moved["max_relative_move"]["loss"] - 1e-7 / 0.2500001) < 1e-15
    raw = b"CWPARAMS3\n" + bytes(range(40))
    bumped = raw[:20] + b"\xff" + raw[21:]
    assert compare_trees.compare_file("params.bin", raw, bumped) == {
        "status": compare_trees.DIFFERING, "first_differing_byte": 20, "sizes": [50, 50]}
    manifest = {"command": "train", "started_unix": 1.0, "wall_clock_seconds": 2.0}
    later = {**manifest, "started_unix": 5.0, "wall_clock_seconds": 0.5}
    assert compare_trees.compare_file(
        "manifest.json", json.dumps(manifest).encode(), json.dumps(later).encode()
    ) == {"status": compare_trees.WITHOUT_TIMES}
    assert compare_trees.compare_file(
        "manifest.json", json.dumps(manifest).encode(),
        json.dumps({**later, "command": "check"}).encode()) == {
        "status": compare_trees.DIFFERING, "moved_values": 1, "first_moved": "command"}
    records = {"decay": [{"max_violation": 0.0}, {"max_violation": 1e-16}]}
    moved = {"decay": [{"max_violation": -0.2}, {"max_violation": 1e-16}]}
    assert compare_trees.compare_file(
        "spectra.json", json.dumps(records).encode(), json.dumps(moved).encode()) == {
        "status": compare_trees.DIFFERING, "moved_values": 1,
        "first_moved": "decay[0].max_violation"}

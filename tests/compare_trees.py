"""Compare the outputs of two source trees, file by file.

    python tests/compare_trees.py TREE_A TREE_B [--set full|small] [--json OUT]

Each tree is a checkout with the package under `src/`.  Every invocation
of the chosen list runs in a fresh subprocess with that tree's `src` on
PYTHONPATH, in a work directory of its own, so the two trees' stdout
agree where their outputs do.  For each file an invocation writes the
report says one of:

- identical;
- identical without manifest times: a JSON file that matches once its
  `started_unix` and `wall_clock_seconds` keys are dropped;
- differing: for a CSV, the largest relative move of each numeric column
  that moved; for a JSON file of the same keys, how many values moved and
  the first one's path; for any other file, the first differing byte.

It also compares exit codes and stdout, prints one line per item and
writes the whole result as JSON with `--json`.  The exit code is 0 when
nothing differs, 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

IDENTICAL = "identical"
WITHOUT_TIMES = "identical without manifest times"
DIFFERING = "differing"
MANIFEST_TIMES = ("started_unix", "wall_clock_seconds")

# (name, argv, config): each invocation writes its artifacts to --out NAME,
# "{out:NAME}" in an argument is that directory, and a config other than
# None goes to NAME.json and is passed as --config
FULL = (
    [(f"check-fig4-rate-t200-seed{s}",
      ["check", "--recipe", "fig4-rate-t200", "--seed", str(s)], None) for s in range(10)]
    + [
        ("train-fig6", ["train", "--recipe", "fig6-random-init-p05"], None),
        ("eval-fig6", ["eval", "--recipe", "fig6-random-init-p05",
                       "--params", "{out:train-fig6}/params.bin"], None),
        ("qa-fig7-task1", ["qa", "--recipe", "fig7-task1"], None),
        ("train-fig4-resample", ["train", "--recipe", "fig4-zero-init-p05"],
         {"resample": True}),
        # from t = 2 every iterate is outside token_masses' usual form
        ("train-fig4-rare", ["train", "--recipe", "fig4-zero-init-p05"],
         {"eta": 1e300, "iterations": 12}),
        ("check-fig5-t1000", ["check", "--recipe", "fig5-zero-init-p1"], {"iterations": 1000}),
        ("spectra", ["spectra"], None),
    ])
_SMALL_CFG = {"K": 4, "p": 0.5, "N": 9, "M": 40, "iterations": 3, "train_size": 16,
              "test_size": 16}
SMALL = [
    ("train-small", ["train"], _SMALL_CFG),
    ("eval-small", ["eval", "--params", "{out:train-small}/params.bin"], _SMALL_CFG),
]
SETS = {"full": FULL, "small": SMALL}


def run_tree(tree: Path, invocations, work: Path) -> dict:
    """Run every invocation against `tree`'s src in `work`; returns
    {name: (exit code, stdout, {relative path: bytes})}."""
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src")}
    results = {}
    for name, argv, config in invocations:
        argv = [re.sub(r"\{out:([^}]+)\}", r"\1", a) for a in argv] + ["--out", name]
        if config is not None:
            (work / f"{name}.json").write_text(json.dumps(config))
            argv += ["--config", f"{name}.json"]
        proc = subprocess.run([sys.executable, "-m", "circlewalk.cli", *argv], cwd=work,
                              env=env, capture_output=True, text=True, timeout=600)
        out = work / name
        files = {str(p.relative_to(out)): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file()} if out.is_dir() else {}
        results[name] = (proc.returncode, proc.stdout, files)
    return results


def _without_times(raw: bytes):
    try:
        record = json.loads(raw)
    except ValueError:
        return None
    if not isinstance(record, dict):
        return None
    return {k: v for k, v in record.items() if k not in MANIFEST_TIMES}


def _csv_moves(a: bytes, b: bytes) -> dict | None:
    """Largest relative move per numeric column of two CSVs of one header
    and row count; None where they do not line up."""
    ra = list(csv.reader(io.StringIO(a.decode())))
    rb = list(csv.reader(io.StringIO(b.decode())))
    if not ra or len(ra) != len(rb) or ra[0] != rb[0]:
        return None
    moves = {}
    for col, name in enumerate(ra[0]):
        worst = 0.0
        for x, y in zip(ra[1:], rb[1:]):
            if x[col] == y[col]:
                continue
            try:
                fx, fy = float(x[col]), float(y[col])
            except ValueError:
                worst = math.inf
                continue
            if math.isnan(fx) and math.isnan(fy):
                continue
            scale = max(abs(fx), abs(fy))
            worst = max(worst, abs(fx - fy) / scale if scale else 0.0)
        if worst:
            moves[name] = worst
    return moves


def _leaves(x, path=""):
    """(path, value) of every scalar in a parsed JSON value, in key order."""
    if isinstance(x, dict):
        for k in sorted(x):
            yield from _leaves(x[k], f"{path}.{k}" if path else k)
    elif isinstance(x, list):
        for i, v in enumerate(x):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, x


def compare_file(path: str, a: bytes, b: bytes) -> dict:
    if a == b:
        return {"status": IDENTICAL}
    if path.endswith(".json"):
        ta, tb = _without_times(a), _without_times(b)
        if ta is not None and ta == tb:
            return {"status": WITHOUT_TIMES}
        la, lb = list(_leaves(ta)), list(_leaves(tb))
        if ta is not None and tb is not None and [p for p, _ in la] == [p for p, _ in lb]:
            moved = [p for (p, x), (_, y) in zip(la, lb) if x != y]
            return {"status": DIFFERING, "moved_values": len(moved), "first_moved": moved[0]}
    if path.endswith(".csv"):
        moves = _csv_moves(a, b)
        if moves is not None:
            return {"status": DIFFERING, "max_relative_move": moves}
    first = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return {"status": DIFFERING, "first_differing_byte": first, "sizes": [len(a), len(b)]}


def compare(tree_a: Path, tree_b: Path, invocations) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        work_a, work_b = Path(tmp, "a"), Path(tmp, "b")
        work_a.mkdir()
        work_b.mkdir()
        with ThreadPoolExecutor(2) as pool:
            futures = [pool.submit(run_tree, tree, invocations, work)
                       for tree, work in ((tree_a, work_a), (tree_b, work_b))]
            runs_a, runs_b = (f.result() for f in futures)
    report = {}
    for name, _, _ in invocations:
        (code_a, out_a, files_a), (code_b, out_b, files_b) = runs_a[name], runs_b[name]
        files = {}
        for path in sorted(set(files_a) | set(files_b)):
            if path not in files_a or path not in files_b:
                files[path] = {"status": DIFFERING,
                               "only_in": "a" if path in files_a else "b"}
            else:
                files[path] = compare_file(path, files_a[path], files_b[path])
        report[name] = {"exit_codes": [code_a, code_b],
                        "stdout": IDENTICAL if out_a == out_b else DIFFERING,
                        "files": files}
    return report


def differs(report: dict) -> bool:
    return any(r["exit_codes"][0] != r["exit_codes"][1] or r["stdout"] != IDENTICAL
               or any(f["status"] == DIFFERING for f in r["files"].values())
               for r in report.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--set", choices=sorted(SETS), default="full")
    parser.add_argument("--json", type=Path, default=None, help="write the report here")
    args = parser.parse_args(argv)
    report = compare(args.tree_a, args.tree_b, SETS[args.set])
    for name, r in report.items():
        codes = "exit {}/{}".format(*r["exit_codes"])
        print(f"{name}: {codes}, stdout {r['stdout']}")
        for path, f in r["files"].items():
            detail = {k: v for k, v in f.items() if k != "status"}
            print(f"  {path}: {f['status']}" + (f" {json.dumps(detail)}" if detail else ""))
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 1 if differs(report) else 0


if __name__ == "__main__":
    sys.exit(main())

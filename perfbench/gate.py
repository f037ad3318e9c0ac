"""Per-invocation correctness gate and its self-test.

An invocation passes when its exit code is the expected one, every
verdict in `report.json` is the expected one, `metrics.csv` has one row
per iteration, and the final metrics row and `v_final.csv` match the
reference within these tolerances:

* V: max |dV| <= 1e-9 * max |V_ref|;
* every float field of the final row: |d| <= 1e-9 * |ref| + 1e-12;
* accuracy: at most one test episode in 1000 (1e-3).

Float reassociation moves these outputs by ~1e-13 relative (measured:
the low-rank reference and the dense trainer differ by at most 3e-13), so
the bounds admit it with four orders to spare; a wrong gradient, step or
metric formula moves them by far more.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from reference import ROW_FIELDS

V_RTOL = 1e-9
ROW_RTOL = 1e-9
ROW_ATOL = 1e-12
ACC_TOL = 1e-3


@dataclass(frozen=True)
class Expected:
    exit_code: int
    iterations: int
    row: dict
    V: np.ndarray
    verdicts: dict | None = None  # report.json items, when the command writes one
    report_fields: dict | None = None  # exact report.json values


def _close(got: float, want: float, rtol: float, atol: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= rtol * abs(want) + atol


def compare(row: dict, V: np.ndarray, ref_row: dict, ref_V: np.ndarray) -> list[str]:
    """Differences of a final metrics row and V from the reference beyond
    the stated tolerances."""
    found = []
    for name in ROW_FIELDS:
        got, want = row[name], ref_row[name]
        ok = (abs(got - want) <= ACC_TOL if name == "accuracy"
              else _close(got, want, ROW_RTOL, ROW_ATOL))
        if not ok:
            found.append(f"final {name}={got!r}, reference {want!r}")
    if V.shape != ref_V.shape:
        found.append(f"V shape {V.shape}, expected {ref_V.shape}")
    else:
        dv = float(np.max(np.abs(V - ref_V)))
        if dv > V_RTOL * float(np.max(np.abs(ref_V))):
            found.append(f"V off the reference by {dv:.3g}")
    return found


def problems(out: Path, exit_code: int, exp: Expected) -> list[str]:
    """Everything wrong with one invocation's outputs; empty when it passes."""
    found = []
    if exit_code != exp.exit_code:
        found.append(f"exit code {exit_code}, expected {exp.exit_code}")
    if exp.verdicts is not None:
        try:
            report = json.loads((out / "report.json").read_text())
        except (OSError, ValueError) as exc:
            return found + [f"report.json unreadable: {exc}"]
        if report.get("items") != exp.verdicts:
            found.append(f"verdicts {report.get('items')}, expected {exp.verdicts}")
        for key, want in (exp.report_fields or {}).items():
            if report.get(key) != want:
                found.append(f"report {key}={report.get(key)!r}, expected {want!r}")
    try:
        with open(out / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        V = np.loadtxt(out / "v_final.csv", delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        return found + [f"outputs unreadable: {exc}"]
    if len(rows) != exp.iterations:
        found.append(f"metrics.csv has {len(rows)} rows, expected {exp.iterations}")
    if rows:
        found += compare({n: float(rows[-1][n]) for n in ROW_FIELDS}, V, exp.row, exp.V)
    return found


def self_test(out: Path, exit_code: int, exp: Expected, scratch: Path) -> list[str]:
    """Show that the gate passes `out` and rejects corrupted copies of it.
    Returns the corruptions it missed (empty when the gate is sound)."""
    missed = []
    if problems(out, exit_code, exp):
        missed.append("clean outputs were rejected")

    def corrupted(label, mutate, code=exit_code):
        if scratch.exists():
            shutil.rmtree(scratch)
        shutil.copytree(out, scratch)
        mutate(scratch)
        if not problems(scratch, code, exp):
            missed.append(label)

    def nudge_v(d):
        V = np.loadtxt(d / "v_final.csv", delimiter=",", ndmin=2)
        i = np.unravel_index(np.argmax(np.abs(V)), V.shape)
        V[i] *= 1 + 1e-6
        np.savetxt(d / "v_final.csv", V, delimiter=",", fmt="%.17g")

    def edit_last_row(field, factor):
        def mutate(d):
            lines = (d / "metrics.csv").read_text().splitlines()
            header, cells = lines[0].split(","), lines[-1].split(",")
            k = header.index(field)
            cells[k] = repr(float(cells[k]) * factor)
            lines[-1] = ",".join(cells)
            (d / "metrics.csv").write_text("\n".join(lines) + "\n")
        return mutate

    def drop_last_row(d):
        lines = (d / "metrics.csv").read_text().splitlines()
        (d / "metrics.csv").write_text("\n".join(lines[:-1]) + "\n")

    corrupted("V off by 1e-6 relative", nudge_v)
    corrupted("final loss off by 1e-6 relative", edit_last_row("loss", 1 + 1e-6))
    corrupted("final accuracy off by 1%", edit_last_row("accuracy", 1.01))
    corrupted("missing iteration row", drop_last_row)
    corrupted("wrong exit code", lambda d: None, code=exit_code + 1)
    if exp.verdicts is not None:
        def flip(d):
            report = json.loads((d / "report.json").read_text())
            first = next(iter(report["items"]))
            report["items"][first] = "pass" if report["items"][first] != "pass" else "fail"
            (d / "report.json").write_text(json.dumps(report))
        corrupted("a flipped verdict", flip)
    shutil.rmtree(scratch, ignore_errors=True)
    return missed

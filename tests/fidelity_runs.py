"""Short study-scale runs whose traces `test_fidelity.py` pins.

Each run is a CLI recipe with a few overrides: every metrics row and the
final V at 17 significant digits, the `check` verdicts of the population
run, and the `eval` record of the Gaussian run's saved parameters.

Regenerate the pins (only when a change is meant to move them, and say
which values moved, by how much and why):

    PYTHONPATH=src python tests/fidelity_runs.py
"""

import json
import tempfile
from pathlib import Path

from circlewalk import cli, theorycheck
from circlewalk.artifacts import save_params
from circlewalk.trainer import TrainConfig, train

PINS = Path(__file__).resolve().parent / "data" / "fidelity.json"

RUNS = {
    "fig4-t20": ("fig4-zero-init-p05", dict(iterations=20)),
    "fig4-resample-t10": ("fig4-zero-init-p05", dict(iterations=10, resample=True)),
    "fig5-t50": ("fig5-zero-init-p1", dict(iterations=50)),
    "fig6-t20": ("fig6-random-init-p05", dict(iterations=20)),
    "fig7-task1-t10": ("fig7-task1", dict(iterations=10)),
}
CHECKED = "fig5-t50"  # its report's verdicts are pinned
EVALUATED = "fig6-t20"  # `eval` of its params.bin is pinned


def _fmt(values) -> str:
    return ",".join(format(float(x), ".17g") for x in values)


def config(name: str) -> TrainConfig:
    recipe, overrides = RUNS[name]
    return TrainConfig(**{**cli.RECIPES[recipe], **overrides})


def record(name: str) -> dict:
    """The pinned values of one run, numbers as strings of 17 digits."""
    cfg = config(name)
    trace = train(cfg)
    rec = {"rows": [_fmt(row.as_tuple()) for row in trace.rows],
           "V": [_fmt(row) for row in trace.final_snapshot.V]}
    if name == CHECKED:
        report = theorycheck.report_for(cfg)(trace)
        rec["verdicts"] = {**report.items, "passed": report.passed}
    if name == EVALUATED:
        rec["eval"] = _eval_record(cfg, trace)
    return rec


def _eval_record(cfg: TrainConfig, trace) -> dict:
    """`circlewalk eval` of the run's params.bin under its own config."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_params(trace.final_snapshot, tmp / "params.bin", cfg)
        (tmp / "cfg.json").write_text(json.dumps(
            {k: getattr(cfg, k) for k in RUNS[EVALUATED][1]}))
        rc = cli.main(["eval", "--recipe", RUNS[EVALUATED][0], "--config",
                       str(tmp / "cfg.json"), "--params", str(tmp / "params.bin"),
                       "--out", str(tmp / "eval")])
        if rc != 0:
            raise RuntimeError(f"eval exited {rc}")
        rec = json.loads((tmp / "eval" / "eval.json").read_text())
    return {k: format(v, ".17g") for k, v in rec.items()}


if __name__ == "__main__":
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text(json.dumps({name: record(name) for name in RUNS}, indent=1,
                               sort_keys=True) + "\n")
    print(f"wrote {PINS}")

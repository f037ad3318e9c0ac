"""Minor page faults of repeated training runs across heap layouts.

    python tests/fault_layouts.py [TREE] [--calls 8] [--iterations 50]

TREE is a checkout with the package under `src/` (default: this one).
Each layout is a fresh subprocess that first holds an `np.empty` of
SHIFT x 16 KiB, SHIFT = 0, 3, ..., 60, which moves where the run's arrays
land in the heap, and then calls `train` of the recipe
fig4-zero-init-p05 at T = 50 `--calls` times, reading `ru_minflt` of the
process around each call.  Both modes run, with and without `resample`:
42 layouts.  A loop that frees a large temporary every iteration can
make glibc trim the top of its heap and fault it back in on the next
iteration; the calls after the first show it, at hundreds of faults per
iteration.  No `mallopt` and no `MALLOC_*` setting is used.

Prints one JSON object: for each mode and shift, the faults of every
call, and over all layouts the largest count of a call after the first.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SHIFTS = range(0, 61, 3)  # x 16 KiB
MODES = {"plain": False, "resample": True}

_CHILD = """
import resource, sys
import numpy as np
from circlewalk.cli import RECIPES
from circlewalk.trainer import TrainConfig, train
shift, resample, calls, iterations = sys.argv[1:]
cfg = TrainConfig(**{**RECIPES["fig4-zero-init-p05"], "iterations": int(iterations),
                     "resample": resample == "1"})
pad = np.empty(int(shift) * 16384, np.uint8)
faults = []
for _ in range(int(calls)):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train(cfg)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(faults)
"""


def layout(tree: Path, shift: int, resample: bool, calls: int, iterations: int) -> list[int]:
    """Minor faults of each `train` call in one fresh process."""
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src")}
    out = subprocess.run([sys.executable, "-c", _CHILD, str(shift), str(int(resample)),
                          str(calls), str(iterations)], env=env, capture_output=True,
                         text=True, check=True, timeout=600).stdout
    return json.loads(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", type=Path, nargs="?", default=ROOT)
    parser.add_argument("--calls", type=int, default=8)
    parser.add_argument("--iterations", type=int, default=50)
    args = parser.parse_args(argv)
    faults = {mode: {shift: layout(args.tree, shift, resample, args.calls, args.iterations)
                     for shift in SHIFTS}
              for mode, resample in MODES.items()}
    worst = max(max(calls[1:]) for runs in faults.values() for calls in runs.values())
    print(json.dumps({"tree": str(args.tree), "calls": args.calls,
                      "iterations": args.iterations, "shift_bytes": 16384,
                      "max_after_first": worst, "faults": faults}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans around calls into circlewalk's modules, recorded from outside.

The tracer wraps the names that `circlewalk.cli` and `circlewalk.trainer`
look up at call time (module attributes), so the package source stays as
it is.  A span is (id, parent id, name, start ns, end ns, run id).  Spans
are kept in memory; `write_jsonl` saves them when the benchmark ends.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import time
from contextlib import contextmanager

import numpy as np

# (module that looks the name up, attribute, span name)
TARGETS = (
    ("circlewalk.cli", "train", "trainer.train"),
    ("circlewalk.trainer", "build_positional", "posembed.build_positional"),
    ("circlewalk.trainer", "init_params", "trainer.init_params"),
    ("circlewalk.trainer", "make_dataset", "walkgen.make_dataset"),
    ("circlewalk.trainer", "states_matrix", "walkgen.states_matrix"),
    ("circlewalk.trainer", "grad_batch", "gradients.grad_batch"),
    ("circlewalk.trainer", "step", "trainer.step"),
    ("circlewalk.trainer", "evaluate", "trainer.evaluate"),
    ("circlewalk.theorycheck", "check_random_theorem", "theorycheck.check_random_theorem"),
    ("circlewalk.theorycheck", "check_deterministic_theorem",
     "theorycheck.check_deterministic_theorem"),
    ("circlewalk.artifacts", "save_params", "artifacts.save_params"),
    ("circlewalk.artifacts", "emit_metrics_csv", "artifacts.emit_metrics_csv"),
    ("circlewalk.artifacts", "emit_matrix_csv", "artifacts.emit_matrix_csv"),
    ("circlewalk.artifacts", "svg_line_chart", "artifacts.svg_line_chart"),
    ("circlewalk.artifacts", "write_manifest", "artifacts.write_manifest"),
)
ROOT = "cli.main"
# spans whose self time is code between the named calls, not a layer's work
CONTAINERS = (ROOT, "trainer.train")


def array_bytes(obj) -> int:
    """Sum of `nbytes` over every numpy array reachable through dataclass
    fields, dict values, lists and tuples: bytes computed, not measured."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(array_bytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, dict):
        return sum(array_bytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(array_bytes(v) for v in obj)
    return 0


def _extras(name: str, args, kwargs, result) -> dict:
    """Work counts taken at the call boundary."""
    if name in ("gradients.grad_batch", "trainer.step"):
        return {"bytes_computed": array_bytes(result)}
    if name == "trainer.train":
        return {"snapshot_bytes": array_bytes(getattr(result, "snapshots", {}))}
    if name == "walkgen.make_dataset":
        return {"episodes": len(result)}
    if name == "artifacts.save_params":
        path = kwargs.get("path", args[1] if len(args) > 1 else None)
        return {"bytes_written": os.path.getsize(path)}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start_ns, end_ns, run)
        self.extras: dict[int, dict] = {}
        self._stack: list[int] = []
        self.run = 0

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield sid
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, start, end, self.run)

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            with self.span(name) as sid:
                result = fn(*args, **kwargs)
            extra = _extras(name, args, kwargs, result)
            if extra:
                self.extras[sid] = extra
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target that exists; restore the originals on exit."""
        saved = []
        try:
            for mod_name, attr, name in TARGETS:
                mod = importlib.import_module(mod_name)
                if hasattr(mod, attr):
                    original = getattr(mod, attr)
                    saved.append((mod, attr, original))
                    setattr(mod, attr, self._wrap(original, name))
            yield
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def invocation(self, run: int) -> dict:
        """Per-span-name totals of one traced invocation: calls, busy and
        self ns, call durations, summed extras."""
        spans = [s for s in self.spans if s[5] == run]
        child_ns: dict[int, int] = {}
        for sid, parent, _, start, end, _ in spans:
            if parent is not None:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        out: dict[str, dict] = {}
        for sid, _, name, start, end, _ in spans:
            agg = out.setdefault(name, {"calls": 0, "busy_ns": 0, "self_ns": 0,
                                        "durations_ns": []})
            agg["calls"] += 1
            agg["busy_ns"] += end - start
            agg["self_ns"] += end - start - child_ns.get(sid, 0)
            agg["durations_ns"].append(end - start)
            for key, value in self.extras.get(sid, {}).items():
                agg[key] = agg.get(key, 0) + value
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end, run in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end,
                                     "run": run}) + "\n")

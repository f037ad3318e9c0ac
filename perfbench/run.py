"""circlewalk benchmark: real CLI invocations, timed in-process.

    python3 perfbench/run.py --workload walk-empirical --seed 0 --seconds 35 --trace 0

Run from the repository root; the package is imported from `src/`.  Each
workload is one `circlewalk.cli.main` invocation at the study scale
(K=6, N=97, M=1000, 1000 train and 1000 test episodes).  After one
discarded warm-up invocation the benchmark repeats the invocation for
`--seconds` and checks every one against the reference (gate.py).

--trace 0 reports the end-to-end metrics, with tracing off:
  run_s        median wall time of the full invocation
  setup_s      median wall time of the same invocation as `train` with
               iterations: 2 (config, positional matrix, datasets, init,
               two iterations, artifacts; the CLI's chart writer rejects
               fewer than two rows, so 2 is the smallest run it accepts)
  iters_per_s  (iterations - 2) / (run_s - setup_s)
  peak_rss_mb  peak RSS of this process, which runs only this workload
--trace 1 alternates untraced and traced invocations and reports the
per-layer metrics (tracer.py).  `--workload all` runs every workload in
a process of its own with both settings and prints all metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Failed invocations are counted
in attempted/failed; fail_rate = failed / attempted is printed above it.
Records (environment, samples, spans) go to `.perfbench/`.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gate
import reference
import tracer as tracing

HERE = Path(__file__).resolve().parent

ROOT = Path.cwd()
SRC = ROOT / "src"
RECORDS = ROOT / ".perfbench"
SETUP_ITERATIONS = 2
SETUPS_PER_ROUND = 3
MIN_ROUNDS = 3
DET_ITEMS = ("chance_accuracy", "v_uniformity", "attention_uniformity",
             "w12_structure", "t2_closed_form")

# Why each workload is here is recorded in BENCHMARK.json.  `reference`
# gives (metrics rows, final V) for (seed, iterations); `verdicts` gives the
# report.json items the correct trajectory earns, None for `train`.
WORKLOADS = {
    "walk-empirical": dict(
        argv=["check", "--recipe", "fig4-rate-t200"], config={}, iterations=200,
        reference=lambda seed, T: reference.train_empirical(6, 0.5, 97, 1000, 1.0, 0.1, T,
                                                            seed),
        verdicts=lambda rows, V: reference.random_walk_verdicts(rows, V, 0.5),
        report_fields={}),
    "walk-population": dict(
        argv=["check", "--recipe", "fig5-zero-init-p1"], config={"iterations": 1000},
        iterations=1000,
        reference=lambda seed, T: reference.train_population(6, 1.0, 97, 1000, 1.0, 0.1, T),
        verdicts=lambda rows, V: dict.fromkeys(DET_ITEMS, "pass"),
        report_fields={"max_accuracy_error": 0.0}),
    "walk-resample": dict(
        argv=["train", "--recipe", "fig4-zero-init-p05"], config={"resample": True},
        iterations=50,
        reference=lambda seed, T: reference.train_empirical(6, 0.5, 97, 1000, 1.0, 0.1, T,
                                                            seed, resample=True),
        verdicts=None, report_fields=None),
}

E2E_UNITS = {"run_s": "s", "setup_s": "s", "iters_per_s": "1/s", "peak_rss_mb": "MB"}
MODULES = ("walkgen", "posembed", "gradients", "trainer", "theorycheck", "artifacts", "cli")


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(dll, sym):
                fn = getattr(dll, sym)
                fn.restype = ctypes.c_int
                threads = fn()
                break
    sha = None
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "circlewalk").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": threads, "seed": seed}


class Bench:
    """One workload in this process: reference, invocations, gate."""

    def __init__(self, name: str, seed: int, work: Path):
        from circlewalk import cli

        self.cli = cli
        self.spec = spec = WORKLOADS[name]
        self.work = work
        self.attempted, self.failures = 0, []
        run_cfg, setup_cfg = work / "run.json", work / "setup.json"
        run_cfg.write_text(json.dumps(spec["config"]))
        setup_cfg.write_text(json.dumps({**spec["config"], "iterations": SETUP_ITERATIONS}))
        self.run_argv = spec["argv"] + ["--config", str(run_cfg), "--seed", str(seed)]
        self.setup_argv = (["train"] + spec["argv"][1:]
                           + ["--config", str(setup_cfg), "--seed", str(seed)])

        rows, V = spec["reference"](seed, spec["iterations"])
        verdicts = spec["verdicts"] and spec["verdicts"](rows, V)
        code = 0 if not verdicts or set(verdicts.values()) == {"pass"} else 1
        fields = None if verdicts is None else {**spec["report_fields"], "passed": code == 0}
        self.run_exp = gate.Expected(exit_code=code, iterations=spec["iterations"],
                                     row=rows[-1], V=V, verdicts=verdicts,
                                     report_fields=fields)
        rows, V = spec["reference"](seed, SETUP_ITERATIONS)
        self.setup_exp = gate.Expected(exit_code=0, iterations=SETUP_ITERATIONS,
                                       row=rows[-1], V=V)
        self.pin = self._pin_reference(name)

    def _pin_reference(self, name) -> list[str]:
        """Compare the reference with outputs recorded from the original
        implementation, so the reference itself cannot drift."""
        rec = json.loads((HERE / "seed_reference.json").read_text())["workloads"][name]
        rows, V = self.spec["reference"](rec["seed"], rec["iterations"])
        return [f"reference vs recorded seed-{rec['seed']} output: {p}"
                for p in gate.compare(rows[-1], V, rec["row"], np.array(rec["V"]))]

    def invoke(self, argv, out: Path, exp, tracer=None, run_id=0) -> float | None:
        """Run the CLI once; return its wall time, or None when it failed."""
        self.attempted += 1
        code, error = None, None
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                if tracer is None:
                    code = self.cli.main(argv + ["--out", str(out)])
                else:
                    tracer.run = run_id
                    with tracer.installed(), tracer.span(tracing.ROOT):
                        code = self.cli.main(argv + ["--out", str(out)])
            except Exception as exc:  # a raising invocation is a counted failure
                error = f"raised {exc!r}"
            elapsed = time.perf_counter() - start
        found = [error] if error else gate.problems(out, code, exp)
        if found:
            self.failures.append("; ".join(found))
            return None
        return elapsed

    def run(self, tracer=None, run_id=0):
        return self.invoke(self.run_argv, self.work / "run", self.run_exp, tracer, run_id)

    def setup(self):
        return self.invoke(self.setup_argv, self.work / "setup", self.setup_exp)


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def _another_round(start: float, rounds: int, seconds: float) -> bool:
    """At least MIN_ROUNDS; after that, only rounds expected to end in time."""
    elapsed = time.perf_counter() - start
    return rounds < MIN_ROUNDS or elapsed + elapsed / rounds <= seconds


def measure_e2e(b: Bench, seconds: float) -> tuple[dict, dict]:
    runs, setups = [], []
    start, rounds = time.perf_counter(), 0
    while _another_round(start, rounds, seconds):
        for _ in range(SETUPS_PER_ROUND):
            setups.append(b.setup())
        runs.append(b.run())
        rounds += 1
    runs = [x for x in runs if x is not None]
    setups = [x for x in setups if x is not None]
    if not runs or not setups:
        return {}, {"run_s": runs, "setup_s": setups}
    run_s, setup_s = statistics.median(runs), statistics.median(setups)
    metrics = {
        "run_s": run_s,
        "setup_s": setup_s,
        "iters_per_s": (b.spec["iterations"] - SETUP_ITERATIONS) / (run_s - setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, {"run_s": runs, "setup_s": setups}


def _per_layer_table():
    """(metric name, unit, span name, field) for every per-span metric."""
    rows = []

    def add(span, fields):
        for field in fields:
            unit = {"calls": "count", "busy_ms": "ms", "self_ms": "ms", "ms_p50": "ms",
                    "ms_p99": "ms", "bytes_computed": "computed_bytes",
                    "snapshot_bytes": "computed_bytes", "bytes_written": "bytes",
                    "episodes_per_s": "1/s"}[field]
            rows.append((f"{span}.{field}", unit, span, field))

    add("gradients.grad_batch", ("calls", "busy_ms", "ms_p50", "ms_p99", "bytes_computed"))
    add("trainer.step", ("calls", "busy_ms", "ms_p50", "bytes_computed"))
    add("trainer.evaluate", ("calls", "busy_ms", "ms_p50", "ms_p99"))
    add("trainer.train", ("self_ms", "snapshot_bytes"))
    add("walkgen.make_dataset", ("calls", "busy_ms", "episodes_per_s"))
    add("walkgen.states_matrix", ("busy_ms",))
    add("posembed.build_positional", ("busy_ms",))
    add("trainer.init_params", ("busy_ms",))
    add("theorycheck.check_random_theorem", ("busy_ms",))
    add("theorycheck.check_deterministic_theorem", ("busy_ms",))
    add("artifacts.save_params", ("busy_ms", "bytes_written"))
    for fn in ("emit_metrics_csv", "emit_matrix_csv", "svg_line_chart", "write_manifest"):
        add(f"artifacts.{fn}", ("busy_ms",))
    add("cli.main", ("self_ms",))
    return rows


PER_LAYER = _per_layer_table()
EXACT_FIELDS = ("calls", "bytes_computed", "snapshot_bytes", "bytes_written", "episodes")


def measure_layers(b: Bench, seconds: float, tracer) -> tuple[dict, dict]:
    untraced, traced, invocations = [], [], []
    start, rounds = time.perf_counter(), 0
    while _another_round(start, rounds, seconds):
        order = (False, True) if rounds % 2 == 0 else (True, False)
        for with_trace in order:
            if with_trace:
                elapsed = b.run(tracer, run_id=rounds)
                traced.append(elapsed)
                if elapsed is not None:
                    invocations.append(tracer.invocation(rounds))
            else:
                untraced.append(b.run())
        rounds += 1
    untraced = [x for x in untraced if x is not None]
    traced = [x for x in traced if x is not None]
    if not invocations:
        return {}, {}

    # counts and computed bytes are deterministic: they must repeat exactly
    def exact(inv):
        return {(n, k): agg.get(k) for n, agg in inv.items() for k in EXACT_FIELDS}
    for i, inv in enumerate(invocations[1:], 1):
        if exact(inv) != exact(invocations[0]):
            b.failures.append(f"traced invocation {i}: counts or computed bytes differ "
                              "from the first traced invocation")

    def per_inv(span, fn):
        return _median([fn(inv.get(span, {})) for inv in invocations])

    def pooled_ms(span, q):
        d = [x for inv in invocations for x in inv.get(span, {}).get("durations_ns", [])]
        return float(np.percentile(d, q)) / 1e6 if d else 0.0

    metrics = {}
    for name, _, span, field in PER_LAYER:
        if field == "busy_ms":
            value = per_inv(span, lambda a: a.get("busy_ns", 0) / 1e6)
        elif field == "self_ms":
            value = per_inv(span, lambda a: a.get("self_ns", 0) / 1e6)
        elif field == "ms_p50":
            value = pooled_ms(span, 50)
        elif field == "ms_p99":
            value = pooled_ms(span, 99)
        elif field == "episodes_per_s":
            value = per_inv(span, lambda a: a["episodes"] / (a["busy_ns"] / 1e9)
                            if a.get("calls") else 0.0)
        else:
            value = invocations[0].get(span, {}).get(field, 0)
        metrics[name] = value
    for mod in MODULES:
        metrics[f"layer.{mod}.self_ms"] = _median(
            [sum(a["self_ns"] for n, a in inv.items() if n.split(".")[0] == mod) / 1e6
             for inv in invocations])
    metrics["trace.span_coverage_pct"] = _median(
        [100.0 * (1 - sum(inv.get(c, {}).get("self_ns", 0) for c in tracing.CONTAINERS)
                  / inv[tracing.ROOT]["busy_ns"]) for inv in invocations])
    metrics["trace.run_s"] = _median(traced)
    metrics["trace.untraced_run_s"] = _median(untraced)
    metrics["trace.overhead_pct"] = 100.0 * (_median(traced) / _median(untraced) - 1.0)
    return metrics, {"traced_run_s": traced, "untraced_run_s": untraced}


LAYER_UNITS = {name: unit for name, unit, _, _ in PER_LAYER}
LAYER_UNITS.update({f"layer.{m}.self_ms": "ms" for m in MODULES})
LAYER_UNITS.update({"trace.span_coverage_pct": "%", "trace.run_s": "s",
                    "trace.untraced_run_s": "s", "trace.overhead_pct": "%"})


def run_one(args) -> int:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = LAYER_UNITS if args.trace else E2E_UNITS
    section = declared["per_layer" if args.trace else "end_to_end"]
    if {m["name"]: m["unit"] for m in section} != units:
        print("error: BENCHMARK.json and run.py disagree on the metric set", file=sys.stderr)
        return 2

    RECORDS.mkdir(exist_ok=True)
    work = RECORDS / f"work-{os.getpid()}"
    work.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        b = Bench(args.workload, args.seed, work)
        self_test = list(b.pin)
        # warm-up: first calls run up to 3x slower; discarded, then reused
        # as the input of the gate's self-test
        warm = b.run()
        b.setup()
        if warm is not None:
            self_test += [f"gate missed: {m}" for m in
                          gate.self_test(work / "run", b.run_exp.exit_code, b.run_exp,
                                         work / "corrupt")]
        if args.trace:
            tr = tracing.Tracer()
            metrics, samples = measure_layers(b, args.seconds, tr)
            tr.write_jsonl(RECORDS / f"spans-{tag}.jsonl")
        else:
            metrics, samples = measure_e2e(b, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(b.failures)
    correct = failed == 0 and not self_test and bool(metrics)
    env = environment(args.seed)
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "environment": env, "correct": correct, "attempted": b.attempted,
              "failed": failed, "failures": b.failures[:20], "self_test": self_test,
              "samples": samples, "metrics": metrics}
    (RECORDS / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("env: " + json.dumps(env, sort_keys=True))
    for label, xs in samples.items():
        print(f"{label}: median of n={len(xs)} samples")
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value!r} {units[name]}")
    print(f"{args.workload} fail_rate = {failed / b.attempted!r} ({failed}/{b.attempted})")
    for problem in self_test + b.failures[:5]:
        print("problem: " + problem, file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": b.attempted, "failed": failed,
                      "metrics": {n: {"value": v, "unit": units[n]}
                                  for n, v in metrics.items()}}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in a process of its own, both trace settings."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", workload, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            sys.stderr.write(proc.stderr)
            for line in lines[:-1]:
                print(line)
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            total["correct"] &= result["correct"] and proc.returncode == 0
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            total["metrics"].update({f"{workload}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "circlewalk" / "cli.py").is_file():
        print(f"error: no circlewalk source under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import circlewalk
    if Path(circlewalk.__file__).resolve().parent != (SRC / "circlewalk").resolve():
        print(f"error: imported circlewalk from {circlewalk.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: gen (datasets), train (GD runs with artifacts), eval (stored
params on a fresh test set), check (run + theory report), qa (question
tasks), spectra (matrix-structure suite).  Exit codes: 0 success, 1 a
theory check failed, 2 a config, IO or any other error.

Configs are JSON files whose keys mirror TrainConfig; named recipes
preset the experiment configurations from the accompanying study.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import artifacts, theorycheck, walkgen
from .markov import (decay_bound_report, eigen_action_check, gamma_dominance_report,
                     shift_identities_check, transition_matrix)
from .gradients import factor, geometry
from .posembed import build_positional
from .trainer import TrainConfig, config_dict, eval_set, evaluate, train
from .walkgen import WalkConfig, export_dataset, make_dataset

RECIPES: dict[str, dict] = {
    # zero init, fair coin: learns the optimal predictor
    "fig4-zero-init-p05": dict(K=6, p=0.5, N=97, M=1000, eta=1.0, eps=0.1,
                               iterations=50),
    # same run extended for rate fitting
    "fig4-rate-t200": dict(K=6, p=0.5, N=97, M=1000, eta=1.0, eps=0.1,
                           iterations=200),
    # deterministic walk, exact population gradient: stuck at chance forever
    "fig5-zero-init-p1": dict(K=6, p=1.0, N=97, M=1000, eta=1.0, eps=0.1,
                              iterations=50, grad_mode="population"),
    # Gaussian init with normalized attention columns
    "fig6-random-init-p05": dict(K=6, p=0.5, N=97, M=1000, eta=0.01, eps=0.1,
                                 iterations=600, init="gaussian", sigma=0.01,
                                 normalize_attention=True),
    "fig6-random-init-p1": dict(K=6, p=1.0, N=97, M=1000, eta=0.01, eps=0.1,
                                iterations=600, init="gaussian", sigma=0.01,
                                normalize_attention=True),
    # question-answering tasks
    "fig7-task1": dict(qa_task="task1", M=1000, eta=0.1, eps=0.1, iterations=100,
                       init="gaussian", sigma=0.01, normalize_attention=True),
    "fig7-task2": dict(qa_task="task2", M=1000, eta=0.1, eps=0.1, iterations=100,
                       init="gaussian", sigma=0.01, normalize_attention=True),
}


class ConfigError(Exception):
    pass


@contextlib.contextmanager
def _config_errors():
    """Turn a rejected argument or config value into a ConfigError."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _load_train_config(args) -> TrainConfig:
    fields = {}
    if getattr(args, "recipe", None):
        if args.recipe not in RECIPES:
            raise ConfigError(f"unknown recipe {args.recipe!r}; "
                              f"known: {', '.join(sorted(RECIPES))}")
        fields.update(RECIPES[args.recipe])
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError("config must be a JSON object")
        fields.update(loaded)
    if getattr(args, "seed", None) is not None:
        fields["seed"] = args.seed
    if "snapshot_iters" in fields and fields["snapshot_iters"] is not None:
        fields["snapshot_iters"] = tuple(fields["snapshot_iters"])
    known = {f.name for f in dataclasses.fields(TrainConfig)}
    unknown = set(fields) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    with _config_errors():
        return TrainConfig(**fields)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gen(args) -> int:
    started = time.time()
    with _config_errors():
        cfg = WalkConfig(K=args.K, p=args.p, N=args.N, M=args.M)
        states = make_dataset(cfg, args.count, seed=args.seed)
    out = _outdir(args)
    export_dataset(states, out / "dataset.txt", cfg, args.seed)
    artifacts.write_manifest(out / "manifest.json", "gen",
                             dict(K=args.K, p=args.p, N=args.N, M=args.M,
                                  count=args.count),
                             {"data": args.seed}, started)
    print(f"wrote {args.count} episodes to {out / 'dataset.txt'}")
    return 0


def _emit_run_artifacts(out: Path, cfg: TrainConfig, trace, started, command: str):
    artifacts.emit_metrics_csv(trace, out / "metrics.csv")
    artifacts.save_params(trace.final_params, out / "params.bin")
    artifacts.emit_matrix_csv(trace.final_snapshot.V, out / "v_final.csv")
    if cfg.qa_task is None:
        wc = cfg.walk_config()
        artifacts.emit_matrix_csv(transition_matrix(wc.K, wc.p).Pi, out / "pi.csv")
    t = trace.series("iter")
    artifacts.svg_line_chart(
        {"loss": (t, trace.series("loss")),
         "accuracy": (t, trace.series("accuracy"))},
        out / "curves.svg", title="training loss / test accuracy")
    artifacts.write_manifest(out / "manifest.json", command, config_dict(cfg),
                             trace.seeds, started)


def cmd_train(args) -> int:
    started = time.time()
    cfg = _load_train_config(args)
    out = _outdir(args)
    trace = train(cfg)
    _emit_run_artifacts(out, cfg, trace, started, "train")
    last = trace.rows[-1]
    print(f"finished {cfg.iterations} iterations: "
          f"accuracy={last.accuracy:.4f} loss={last.loss:.6g}")
    return 0


def cmd_eval(args) -> int:
    started = time.time()
    cfg = _load_train_config(args)
    with _config_errors():
        params = artifacts.load_params(args.params)
    wc = cfg.walk_config()
    if params.K != wc.K or params.M < wc.N:
        raise ConfigError(f"params have K={params.K}, M={params.M}; the config "
                          f"needs K={wc.K} and M >= N={wc.N}")
    geo = geometry(build_positional(params.M, wc.N), cfg.normalize_attention)
    if cfg.qa_task is not None:
        states = walkgen.qa_dataset(cfg.qa_task, cfg.test_size, seed=cfg.seed + 1)
        tm = None
    else:
        states = make_dataset(wc, cfg.test_size, seed=cfg.seed + 1)
        tm = transition_matrix(wc.K, wc.p)
    row = evaluate(factor(params, geo), eval_set(states, geo, tm, wc.K))
    record = {name: getattr(row, name) for name in
              ("accuracy", "kl", "v_dist", "f_dist", "attn_parent",
               "attn_other_max", "beta", "gamma")}
    out = _outdir(args)
    artifacts.write_json(out / "eval.json", record)
    artifacts.write_manifest(out / "manifest.json", "eval", config_dict(cfg),
                             {"test": cfg.seed + 1}, started)
    print(json.dumps(record, sort_keys=True))
    return 0


def _report_record(report) -> dict:
    rec = {"items": report.items, "passed": report.passed}
    for f in dataclasses.fields(report):
        if f.name == "items":
            continue
        v = getattr(report, f.name)
        if dataclasses.is_dataclass(v):
            v = dataclasses.asdict(v)
        rec[f.name] = v
    return rec


def cmd_check(args) -> int:
    started = time.time()
    cfg = _load_train_config(args)
    with _config_errors():
        check = theorycheck.report_for(cfg)
    out = _outdir(args)
    trace = train(cfg)
    _emit_run_artifacts(out, cfg, trace, started, "check")
    report = check(trace)
    artifacts.write_json(out / "report.json", _report_record(report))
    for name, status in report.items.items():
        print(f"{name}: {status}")
    return 0 if report.passed else 1


def cmd_qa(args) -> int:
    started = time.time()
    cfg = _load_train_config(args)
    if cfg.qa_task is None:
        raise ConfigError("qa command needs a QA recipe or a config with qa_task")
    out = _outdir(args)
    trace = train(cfg)
    _emit_run_artifacts(out, cfg, trace, started, "qa")
    final_acc = trace.rows[-1].accuracy
    sym = walkgen.qa_symmetry_statistic(cfg.qa_task)
    record = {"task": cfg.qa_task, "final_accuracy": final_acc,
              "symmetry_statistic": sym,
              "best_accuracy": float(max(r.accuracy for r in trace.rows))}
    artifacts.write_json(out / "qa_report.json", record)
    print(json.dumps(record, sort_keys=True))
    return 0


def cmd_spectra(args) -> int:
    started = time.time()
    with _config_errors():  # --M, --N and the power range --R
        pos = build_positional(args.M, args.N)
        decay_reports = [decay_bound_report(K, float(p), args.R) for K in range(3, 13)
                         for p in np.round(np.arange(0.1, 0.95, 0.1), 10)]
    decay = [dict(K=rep.K, p=rep.p, max_violation=rep.max_violation,
                  parity_zero_exact=rep.parity_zero_exact, passed=rep.passed)
             for rep in decay_reports]
    failures = [f"decay K={rec['K']} p={rec['p']}" for rec in decay if not rec["passed"]]

    shift = [dataclasses.asdict(shift_identities_check(K)) for K in range(2, 13)]
    for rec in shift:
        if not rec["passed"]:
            failures.append(f"shift identities K={rec['K']}")

    eig = max(eigen_action_check(transition_matrix(K, p), k)
              for K in (3, 4, 6, 9) for p in (0.1, 0.5, 0.7) for k in range(K))
    if eig > 1e-12:
        failures.append("eigen action")

    dom = []
    for K in range(3, 9):
        for p in (0.3, 0.5, 0.7):
            rep = gamma_dominance_report(K, p, 2 * K + 1)
            dom.append(dataclasses.asdict(rep))
            if not rep.passed:
                failures.append(f"dominance K={K} p={p}")

    G = pos.gram()
    diag_err = float(np.max(np.abs(np.diag(G) / ((args.M + 1) / 2) - 1.0)))
    off = G - np.diag(np.diag(G))
    off_max = float(np.max(np.abs(off)))
    if diag_err > 1e-10 or off_max > 1e-8 * (args.M + 1):
        failures.append("positional gram")

    toep = theorycheck.first_step_toeplitz_grid()
    if toep > 1e-14:
        failures.append("one-step toeplitz")

    record = {
        "decay": decay, "shift_identities": shift, "dominance": dom,
        "max_eigen_residual": float(eig),
        "gram": {"M": args.M, "N": args.N, "diag_rel_error": diag_err,
                 "offdiag_max": off_max},
        "one_step_toeplitz_residual": toep,
        "failures": failures, "passed": not failures,
    }
    out = _outdir(args)
    artifacts.write_json(out / "spectra.json", record)
    artifacts.write_manifest(out / "manifest.json", "spectra",
                             dict(R=args.R, M=args.M, N=args.N), {}, started)
    print("spectra: " + ("all checks passed" if not failures
                         else "FAILED: " + "; ".join(failures)))
    return 0 if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="circlewalk",
                                     description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, recipe=True):
        sp.add_argument("--out", default="out", help="artifact directory")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--config", default=None, help="JSON config file")
        if recipe:
            sp.add_argument("--recipe", default=None,
                            help=f"one of: {', '.join(sorted(RECIPES))}")

    g = sub.add_parser("gen", help="sample a walk dataset to a text file")
    g.add_argument("--out", default="out")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--K", type=int, default=6)
    g.add_argument("--p", type=float, default=0.5)
    g.add_argument("--N", type=int, default=97)
    g.add_argument("--M", type=int, default=1000)
    g.add_argument("--count", type=int, default=1000)
    g.set_defaults(fn=cmd_gen)

    t = sub.add_parser("train", help="run gradient descent, emit artifacts")
    common(t)
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="evaluate stored parameters on fresh data")
    common(e)
    e.add_argument("--params", required=True)
    e.set_defaults(fn=cmd_eval)

    c = sub.add_parser("check", help="train and verify the theory predictions")
    common(c)
    c.set_defaults(fn=cmd_check)

    q = sub.add_parser("qa", help="run a question-answering task")
    common(q)
    q.set_defaults(fn=cmd_qa)

    s = sub.add_parser("spectra", help="matrix-structure and mixing-bound suite")
    s.add_argument("--out", default="out")
    s.add_argument("--R", type=int, default=200, help="max matrix power")
    s.add_argument("--M", type=int, default=1000)
    s.add_argument("--N", type=int, default=97)
    s.set_defaults(fn=cmd_spectra)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 is reserved for a failed theory check
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

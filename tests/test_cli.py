"""End-to-end command-line runs against temporary artifact directories."""

import dataclasses
import importlib
import json
import pkgutil
import tracemalloc

import numpy as np
import pytest

import circlewalk
from circlewalk import cli, theorycheck, trainer
from circlewalk.artifacts import PARAMS_MAGIC, save_params
from circlewalk.cli import RECIPES, main
from circlewalk.posembed import build_positional
from circlewalk.trainer import TrainConfig, train

SMALL_CFG = dict(K=4, p=0.5, N=9, M=40, eta=1.0, eps=0.1, iterations=4,
                 train_size=32, test_size=32)
POP_CFG = dict(K=4, p=1.0, N=13, M=50, eta=1.0, eps=0.1, iterations=6,
               grad_mode="population")


def _write_cfg(tmp_path, fields, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(fields))
    return str(path)


def test_recipes_cover_the_study_runs():
    assert {"fig4-zero-init-p05", "fig5-zero-init-p1", "fig6-random-init-p05",
            "fig7-task1", "fig7-task2"} <= set(RECIPES)


def test_gen_writes_a_dataset(tmp_path):
    out = tmp_path / "gen"
    rc = main(["gen", "--out", str(out), "--K", "5", "--p", "0.7", "--N", "12",
               "--M", "50", "--count", "20", "--seed", "3"])
    assert rc == 0
    lines = (out / "dataset.txt").read_text().splitlines()
    assert len(lines) == 21
    assert (out / "manifest.json").exists()


def test_train_emits_artifacts(tmp_path):
    out = tmp_path / "run"
    cfg = _write_cfg(tmp_path, SMALL_CFG)
    rc = main(["train", "--out", str(out), "--config", cfg])
    assert rc == 0
    for name in ("metrics.csv", "params.bin", "v_final.csv", "pi.csv",
                 "curves.svg", "manifest.json"):
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["config"]["K"] == 4


def test_eval_round_trips_saved_params(tmp_path):
    # eval of the saved params under the same config reproduces the final
    # metrics.csv row exactly: params.bin is the trainer's last snapshot,
    # evaluated as loaded.  A QA task has no transition matrix, so its
    # walk-only fields are NaN in metrics.csv and null in eval.json
    normalized = dict(SMALL_CFG, init="gaussian", sigma=0.05,
                      normalize_attention=True)
    qa = dict(qa_task="task1", M=80, eta=0.1, eps=0.1, iterations=4, init="gaussian",
              sigma=0.01, normalize_attention=True, train_size=20, test_size=20)
    for i, fields in enumerate((SMALL_CFG, normalized, qa)):
        out, out2 = tmp_path / f"run{i}", tmp_path / f"eval{i}"
        cfg = _write_cfg(tmp_path, fields, name=f"cfg{i}.json")
        assert main(["train", "--out", str(out), "--config", cfg]) == 0
        rc = main(["eval", "--out", str(out2), "--config", cfg,
                   "--params", str(out / "params.bin")])
        assert rc == 0
        rec = json.loads((out2 / "eval.json").read_text())
        header, *rows = (out / "metrics.csv").read_text().splitlines()
        final = dict(zip(header.split(","), map(float, rows[-1].split(","))))
        assert set(rec) == set(final) - {"iter", "loss"}, fields
        walk_only = ("kl", "v_dist", "f_dist", "beta", "gamma")
        for name, value in rec.items():
            if "qa_task" in fields and name in walk_only:
                assert value is None and np.isnan(final[name]), (fields, name)
            else:
                assert value == final[name], (fields, name, value, final[name])


def test_check_population_run_passes(tmp_path):
    out = tmp_path / "check"
    cfg = _write_cfg(tmp_path, POP_CFG)
    rc = main(["check", "--out", str(out), "--config", cfg])
    assert rc == 0
    rec = json.loads((out / "report.json").read_text())
    assert rec["passed"] is True
    assert rec["items"]["chance_accuracy"] == "pass"
    # the bounds the items were judged against
    assert rec["tol"] == 1e-12 and rec["t2_bound"] == 1e-10


def test_qa_command(tmp_path):
    out = tmp_path / "qa"
    cfg = _write_cfg(tmp_path, dict(qa_task="task2", M=100, eta=0.1, eps=0.1,
                                    iterations=3, init="gaussian", sigma=0.01,
                                    normalize_attention=True,
                                    train_size=50, test_size=50))
    rc = main(["qa", "--out", str(out), "--config", cfg])
    assert rc == 0
    rec = json.loads((out / "qa_report.json").read_text())
    assert rec["task"] == "task2"
    assert rec["symmetry_statistic"] == 0.0


def _accuracies(out):
    """Every accuracy a run wrote into `out`: the metrics column and the
    fields of its JSON reports."""
    header, *rows = (out / "metrics.csv").read_text().splitlines()
    col = header.split(",").index("accuracy")
    values = [float(row.split(",")[col]) for row in rows]
    for name, keys in (("qa_report.json", ("final_accuracy", "best_accuracy")),
                       ("eval.json", ("accuracy",))):
        if (out / name).exists():
            rec = json.loads((out / name).read_text())
            values += [rec[k] for k in keys]
    return values


@pytest.mark.parametrize("command, recipe, iterations", [
    ("qa", "fig7-task1", 100), ("train", "fig4-zero-init-p05", 10),
    ("train", "fig6-random-init-p05", 10), ("check", "fig5-zero-init-p1", 10)])
def test_every_accuracy_a_run_writes_is_a_count(tmp_path, command, recipe, iterations):
    # accuracy is k/B for a whole number k of correct test episodes, so it
    # lies in [0, 1], and an all-correct test set reads exactly 1
    out = tmp_path / "run"
    fields = {"iterations": iterations}
    cfg = _write_cfg(tmp_path, fields)
    assert main([command, "--recipe", recipe, "--config", cfg, "--out", str(out)]) == 0
    if command == "train":
        assert main(["eval", "--recipe", recipe, "--config", cfg, "--params",
                     str(out / "params.bin"), "--out", str(out)]) == 0
    B = len(trainer.make_test_batch(TrainConfig(**{**RECIPES[recipe], **fields})).y)
    for acc in _accuracies(out):
        k = round(acc * B)
        assert 0 <= k <= B and acc == k / B, (acc, B)
    if recipe == "fig7-task1":
        assert json.loads((out / "qa_report.json").read_text())["final_accuracy"] == 1.0


def test_qa_requires_a_qa_config(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, SMALL_CFG)
    rc = main(["qa", "--out", str(tmp_path / "x"), "--config", cfg])
    assert rc == 2
    assert "qa_task" in capsys.readouterr().err


def test_spectra_small(tmp_path):
    out = tmp_path / "spectra"
    rc = main(["spectra", "--out", str(out), "--R", "30", "--M", "200",
               "--N", "29"])
    assert rc == 0
    rec = json.loads((out / "spectra.json").read_text())
    assert rec["passed"] is True
    assert rec["failures"] == []
    # every residual is recorded next to its bound, and meets it
    assert rec["max_eigen_residual"] <= rec["eigen_bound"]
    assert rec["one_step_toeplitz_residual"] <= rec["one_step_toeplitz_bound"]
    gram = rec["gram"]
    assert gram["diag_rel_error"] <= gram["diag_bound"]
    assert gram["offdiag_max"] <= gram["offdiag_bound"]
    for d in rec["decay"]:
        assert d["max_violation"] <= d["tol"] and d["max_row_sum_error"] <= d["row_sum_tol"], d
    for d in rec["dominance"]:
        assert d["min_margin"] >= d["required_margin"] and d["min_trace_gap"] >= 0.0, d


def test_spectra_failure_names_the_check_and_records_its_bound(tmp_path, monkeypatch, capsys):
    # no residual is negative, so a negative bound fails its check alone
    monkeypatch.setattr(theorycheck, "ONE_STEP_TOEPLITZ_TOL", -1.0)
    out = tmp_path / "spectra"
    assert main(["spectra", "--out", str(out), "--R", "30", "--M", "200", "--N", "29"]) == 1
    rec = json.loads((out / "spectra.json").read_text())
    assert rec["passed"] is False
    assert rec["failures"] == ["one-step toeplitz"]
    assert rec["one_step_toeplitz_bound"] == -1.0
    assert capsys.readouterr().out == "spectra: FAILED: one-step toeplitz\n"


def test_every_json_artifact_is_strict_json(tmp_path, capsys):
    # undefined values are null, never NaN or Infinity: a check shorter than
    # the burn-in has no attention floor or ceiling, and a QA task no
    # transition matrix to compare V and f against.  The records eval and qa
    # print on stdout are the strict JSON of their files
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    qa = dict(qa_task="task1", M=80, eta=0.1, eps=0.1, iterations=2, init="gaussian",
              sigma=0.01, normalize_attention=True, train_size=20, test_size=20)
    small, qa_cfg = _write_cfg(tmp_path, SMALL_CFG), _write_cfg(tmp_path, qa, "qa.json")
    check_cfg = _write_cfg(tmp_path, {**SMALL_CFG, "iterations": 2}, "check.json")
    runs = (["gen", "--K", "4", "--N", "9", "--M", "40", "--count", "5"],
            ["train", "--config", small], ["check", "--config", check_cfg],
            ["qa", "--config", qa_cfg],
            ["eval", "--config", qa_cfg, "--params", str(tmp_path / "qa" / "params.bin")],
            ["spectra", "--R", "30", "--M", "200", "--N", "29"])
    stdout = {}
    for argv in runs:
        assert main(argv + ["--out", str(tmp_path / argv[0])]) in (0, 1), argv
        stdout[argv[0]] = capsys.readouterr().out
    written = sorted(tmp_path.glob("*/*.json"))
    assert {p.parent.name for p in written} == {argv[0] for argv in runs}
    for path in written:
        json.loads(path.read_text(), parse_constant=reject)
    report = json.loads((tmp_path / "check" / "report.json").read_text())
    assert report["attn_floor"] is None and report["items"]["attention"] == "insufficient"
    assert json.loads((tmp_path / "eval" / "eval.json").read_text())["kl"] is None
    for command, name in (("eval", "eval.json"), ("qa", "qa_report.json")):
        printed = json.loads(stdout[command], parse_constant=reject)
        assert printed == json.loads((tmp_path / command / name).read_text()), command


def test_config_errors_exit_2(tmp_path, capsys):
    assert main(["train", "--out", str(tmp_path / "a"),
                 "--recipe", "no-such-recipe"]) == 2
    assert "unknown recipe" in capsys.readouterr().err
    bad = _write_cfg(tmp_path, {"K": 4, "p": 0.5, "N": 9, "M": 40,
                                "learning_rate": 1.0})
    assert main(["train", "--out", str(tmp_path / "b"), "--config", bad]) == 2
    assert "unknown config keys" in capsys.readouterr().err
    bad = _write_cfg(tmp_path, {**SMALL_CFG, "snapshot_iters": 5})
    assert main(["train", "--out", str(tmp_path / "b"), "--config", bad]) == 2
    assert capsys.readouterr().err == "config error: unknown config keys: snapshot_iters\n"
    for key in ("train_size", "test_size"):
        empty = _write_cfg(tmp_path, {**SMALL_CFG, key: 0})
        assert main(["train", "--out", str(tmp_path / "c"), "--config", empty]) == 2
        assert "config error:" in capsys.readouterr().err
    for fields in ({"resample": "no"}, {"normalize_attention": 1},
                   {"iterations": 2.5}, {"K": 4.5}, {"train_size": 8.5},
                   {"eta": "1.0"}, {"snapshot_iters": [1.5]},
                   {"p": 1.5}, {"K": 1}, {"N": 1}, {"M": 8}):
        bad = _write_cfg(tmp_path, {**SMALL_CFG, **fields})
        assert main(["train", "--out", str(tmp_path / "d"), "--config", bad]) == 2, fields
        assert "config error:" in capsys.readouterr().err, fields
    for fields in ({**POP_CFG, "resample": True},
                   {"qa_task": "task1", "M": 80, "resample": True}):
        bad = _write_cfg(tmp_path, fields)
        assert main(["train", "--out", str(tmp_path / "e"), "--config", bad]) == 2, fields
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "resample" in err, fields
    # configs no theorem covers are rejected before training
    for fields in ({"K": 4, "p": 1.0, "N": 13, "M": 60, "iterations": 20,
                    "grad_mode": "population", "init": "gaussian", "sigma": 0.01},
                   {"qa_task": "task1", "M": 80, "iterations": 2},
                   {**SMALL_CFG, "p": 1.0}):
        out = tmp_path / "f"
        bad = _write_cfg(tmp_path, fields)
        assert main(["check", "--out", str(out), "--config", bad]) == 2, fields
        assert capsys.readouterr().err.startswith("config error:"), fields
        assert not (out / "metrics.csv").exists(), fields
    # non-finite step sizes or init scale, and a negative sigma, are rejected
    # before --out is created, not met as non-finite parameters mid-run
    for fields in ({"eta": float("nan")}, {"eta": float("inf")}, {"eps": float("nan")},
                   {"sigma": float("inf")}, {"sigma": -1.0},
                   {"init": "gaussian", "sigma": float("nan")}):
        out = tmp_path / "n"
        bad = _write_cfg(tmp_path, {**SMALL_CFG, **fields})
        assert main(["train", "--out", str(out), "--config", bad]) == 2, fields
        assert capsys.readouterr().err.startswith("config error:"), fields
        assert not out.exists(), fields
    # a score outside the log loss's domain stops training before any artifact
    out = tmp_path / "h"
    bad = _write_cfg(tmp_path, {"K": 2, "p": 0.5, "N": 6, "M": 15, "eta": 0.1,
                                "init": "gaussian", "sigma": 0.05, "train_size": 3,
                                "test_size": 1, "seed": 24, "iterations": 1})
    assert main(["train", "--out", str(out), "--config", bad]) == 2
    assert "log-loss argument must be positive" in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()
    # a negative seed is rejected before --out is created
    for argv in (["train", "--recipe", "fig4-zero-init-p05", "--seed", "-3"],
                 ["check", "--config", _write_cfg(tmp_path, {**SMALL_CFG, "seed": -1})]):
        out = tmp_path / "s"
        assert main(argv + ["--out", str(out)]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "seed" in err, argv
        assert not out.exists(), argv
    for argv in (["gen", "--count", "0"], ["gen", "--K", "1"], ["gen", "--p", "1.5"],
                 ["gen", "--N", "20", "--M", "10"], ["spectra", "--N", "0"],
                 ["spectra", "--N", "20", "--M", "10"], ["spectra", "--R", "-1"]):
        out = tmp_path / "g"
        assert main(argv + ["--out", str(out)]) == 2, argv
        assert capsys.readouterr().err.startswith("config error:"), argv
        assert not out.exists(), argv


RUN_FILES = ("metrics.csv", "params.bin", "v_final.csv", "curves.svg",
             "manifest.json")


@pytest.mark.parametrize("iterations", [0, 1])
def test_short_runs_write_all_artifacts(tmp_path, iterations):
    qa_cfg = dict(qa_task="task1", M=80, eta=0.1, eps=0.1, init="gaussian",
                  sigma=0.01, normalize_attention=True, train_size=20,
                  test_size=20)
    for command, fields, extra in (("train", SMALL_CFG, "pi.csv"),
                                   ("check", POP_CFG, "pi.csv"),
                                   ("qa", qa_cfg, "qa_report.json")):
        out = tmp_path / command
        cfg = _write_cfg(tmp_path, {**fields, "iterations": iterations})
        assert main([command, "--out", str(out), "--config", cfg]) == 0, command
        for name in RUN_FILES + (extra,):
            assert (out / name).exists(), (command, name)


def _saved_params(tmp_path, **fields):
    """The params.bin bytes of a 0-iteration run of SMALL_CFG with `fields`
    changed."""
    path = tmp_path / "saved.bin"
    cfg = TrainConfig(**{**SMALL_CFG, **fields, "iterations": 0})
    save_params(train(cfg).final_snapshot, path, cfg)
    return path.read_bytes()


def test_eval_rejects_mismatched_or_malformed_params(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, SMALL_CFG)  # K=4, M=40, N=9, not normalized
    raw = _saved_params(tmp_path)
    # the dense format this one replaces: five blocks under the old magic
    dense = b"".join(np.zeros(size).tobytes() for size in (16, 16, 160, 160, 1600))
    bad = {
        "k6": _saved_params(tmp_path, K=6), "m50": _saved_params(tmp_path, M=50),
        "n10": _saved_params(tmp_path, N=10),
        "normalized": _saved_params(tmp_path, normalize_attention=True),
        "v1": b'CWPARAMS1\n{"K": 4, "M": 40, "init": "zero", "sigma": 0.0}\n' + dense,
        # the five-field format: V, wtok, zpos, alpha (K) and gamma (N)
        "v2": b'CWPARAMS2\n{"K": 4, "M": 40, "N": 9, "normalize_attention": false}\n'
              + np.zeros(16 + 4 + 9 + 4 + 9).tobytes(),
        "trailing": raw + b"\x00" * 4, "truncated": raw[:-8],
        "k_string": raw.replace(b'"K": 4', b'"K": "4"', 1),
        "norm_int": raw.replace(b'"normalize_attention": false',
                                b'"normalize_attention": 0', 1),
        "no_newline": PARAMS_MAGIC + b"x" * 65536,
    }
    assert raw not in (bad["k_string"], bad["norm_int"])
    good = tmp_path / "good.bin"
    good.write_bytes(raw)
    assert main(["eval", "--out", str(tmp_path / "ok"), "--config", cfg,
                 "--params", str(good)]) == 0
    capsys.readouterr()
    for name, content in bad.items():
        path, out = tmp_path / f"{name}.bin", tmp_path / "e"
        path.write_bytes(content)
        rc = main(["eval", "--out", str(out), "--config", cfg, "--params", str(path)])
        assert rc == 2, name
        assert capsys.readouterr().err.startswith("config error:"), name
        assert not out.exists(), name


def test_unexpected_errors_exit_2(tmp_path, monkeypatch, capsys):
    def boom(cfg):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "train", boom)
    cfg = _write_cfg(tmp_path, SMALL_CFG)
    assert main(["train", "--out", str(tmp_path / "a"), "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "boom" in err
    assert len(err.strip().splitlines()) == 1


def test_non_finite_w12_factor_exits_2(tmp_path, monkeypatch, capsys):
    real = trainer.grad_batch

    def poisoned(*args, **kwargs):
        bg = real(*args, **kwargs)
        return dataclasses.replace(bg, a=np.full_like(bg.a, np.nan))

    monkeypatch.setattr(trainer, "grad_batch", poisoned)
    cfg = _write_cfg(tmp_path, SMALL_CFG)
    assert main(["train", "--out", str(tmp_path / "a"), "--config", cfg]) == 2
    assert "FloatingPointError: non-finite parameters" in capsys.readouterr().err


def test_seed_flag_overrides_config(tmp_path):
    cfg = _write_cfg(tmp_path, SMALL_CFG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--out", str(out_a), "--config", cfg,
                 "--seed", "5"]) == 0
    assert main(["train", "--out", str(out_b), "--config", cfg,
                 "--seed", "6"]) == 0
    a = (out_a / "metrics.csv").read_text()
    b = (out_b / "metrics.csv").read_text()
    assert a != b
    seeds = json.loads((out_a / "manifest.json").read_text())["seeds"]
    assert seeds["train"] == 5


def test_manifests_name_the_seeds_a_run_draws(tmp_path):
    # a resample run draws every training set from seed + 3 and none from
    # seed; every other run keeps its training seed, and eval draws only
    # its test set
    def seeds(command, fields, *extra):
        out = tmp_path / f"{command}{len(list(tmp_path.iterdir()))}"
        cfg = _write_cfg(tmp_path, fields, name=f"{out.name}.json")
        assert main([command, "--out", str(out), "--config", cfg, *extra]) == 0
        return json.loads((out / "manifest.json").read_text())["seeds"]

    assert seeds("train", dict(SMALL_CFG, resample=True)) == {"resample": 3, "test": 1, "init": 2}
    assert seeds("train", SMALL_CFG) == {"train": 0, "test": 1, "init": 2}
    assert seeds("check", POP_CFG) == {"train": 0, "test": 1, "init": 2}
    params = str(next(tmp_path.glob("train*/params.bin")))
    assert seeds("eval", SMALL_CFG, "--params", params) == {"test": 1}


def test_qa_manifest_records_the_task_geometry(tmp_path):
    # a QA task overrides K, p and N; the manifest records the ones the run
    # used, as the params.bin header does
    fields = dict(qa_task="task1", M=80, eta=0.1, eps=0.1, iterations=2,
                  train_size=20, test_size=20)
    out = tmp_path / "qa"
    assert main(["qa", "--out", str(out), "--config", _write_cfg(tmp_path, fields)]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    header = json.loads((out / "params.bin").read_bytes().split(b"\n")[1])
    assert (config["K"], config["N"]) == (header["K"], header["N"]) == (19, 17)
    assert config["p"] == 0.5 and config["qa_task"] == "task1"


def test_runs_never_build_the_positional_matrix(tmp_path, monkeypatch):
    # the geometry needs p_N alone and the initial factors take P^T by a
    # sine transform, so train (zero or Gaussian init), check (its t=2
    # check included) and eval never form the (M, N) P
    calls = []

    def counted(*args):
        calls.append(args)
        return build_positional(*args)

    for info in pkgutil.iter_modules(circlewalk.__path__):
        module = importlib.import_module(f"circlewalk.{info.name}")
        if hasattr(module, "build_positional"):
            monkeypatch.setattr(module, "build_positional", counted)
    train_cfg = _write_cfg(tmp_path, SMALL_CFG, "train.json")
    check_cfg = _write_cfg(tmp_path, POP_CFG, "check.json")
    gaussian = _write_cfg(tmp_path, dict(SMALL_CFG, init="gaussian", sigma=0.1), "g.json")
    for argv in (["train", "--config", train_cfg, "--out", str(tmp_path / "t")],
                 ["check", "--config", check_cfg, "--out", str(tmp_path / "c")],
                 ["eval", "--config", train_cfg, "--out", str(tmp_path / "e"),
                  "--params", str(tmp_path / "t" / "params.bin")],
                 ["train", "--config", gaussian, "--out", str(tmp_path / "g")]):
        assert main(argv) == 0, argv
    assert calls == []


@pytest.mark.parametrize("recipe", ["fig4-zero-init-p05", "fig6-random-init-p05"])
def test_two_iteration_train_peaks_below_one_m_by_m_block(tmp_path, recipe):
    # at M = 1000 one M x M float64 block is 8,000,000 bytes (7.6 MiB); a
    # run holds no such block, not even as its init
    cfg = _write_cfg(tmp_path, {"iterations": 2})
    argv = ["train", "--recipe", recipe, "--config", cfg, "--out", str(tmp_path / "run")]
    tracemalloc.start()
    try:
        rc = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 1000 * 1000 * 8, peak

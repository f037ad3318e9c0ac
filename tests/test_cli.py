"""End-to-end command-line runs against temporary artifact directories."""

import dataclasses
import json

import numpy as np
import pytest

from circlewalk import cli, trainer
from circlewalk.artifacts import save_params
from circlewalk.cli import RECIPES, main
from circlewalk.model import Params

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
    # metrics.csv row: accuracy exactly, the rest up to the rounding of the
    # dense W12 p^_N, W22 p^_N against the trainer's factored vectors; a QA
    # task has no transition matrix, so its walk-only fields are NaN
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
        assert rec["accuracy"] == final["accuracy"], fields
        compared = ("attn_parent", "attn_other_max")
        walk_only = ("kl", "v_dist", "f_dist", "beta", "gamma")
        if "qa_task" in fields:
            assert all(np.isnan(rec[n]) and np.isnan(final[n]) for n in walk_only), fields
        else:
            compared += walk_only
        for name in compared:
            assert np.isfinite(rec[name]), (fields, name)
            np.testing.assert_allclose(rec[name], final[name], rtol=1e-9, atol=0,
                                       err_msg=f"{name} of {fields}")


def test_check_population_run_passes(tmp_path):
    out = tmp_path / "check"
    cfg = _write_cfg(tmp_path, POP_CFG)
    rc = main(["check", "--out", str(out), "--config", cfg])
    assert rc == 0
    rec = json.loads((out / "report.json").read_text())
    assert rec["passed"] is True
    assert rec["items"]["chance_accuracy"] == "pass"


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


def test_config_errors_exit_2(tmp_path, capsys):
    assert main(["train", "--out", str(tmp_path / "a"),
                 "--recipe", "no-such-recipe"]) == 2
    assert "unknown recipe" in capsys.readouterr().err
    bad = _write_cfg(tmp_path, {"K": 4, "p": 0.5, "N": 9, "M": 40,
                                "learning_rate": 1.0})
    assert main(["train", "--out", str(tmp_path / "b"), "--config", bad]) == 2
    assert "unknown config keys" in capsys.readouterr().err
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


def test_eval_rejects_mismatched_or_malformed_params(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, SMALL_CFG)  # K=4, N=9
    good = tmp_path / "good.bin"
    save_params(Params.zeros(4, 40), good)
    wrong_k = tmp_path / "k6.bin"
    save_params(Params.zeros(6, 40), wrong_k)
    thin = tmp_path / "m5.bin"
    save_params(Params.zeros(4, 5), thin)  # M below N
    trailing = tmp_path / "trailing.bin"
    trailing.write_bytes(good.read_bytes() + b"\x00" * 4)
    bad_header = tmp_path / "header.bin"
    bad_header.write_bytes(good.read_bytes().replace(b'"K": 4', b'"K": "4"', 1))
    assert main(["eval", "--out", str(tmp_path / "ok"), "--config", cfg,
                 "--params", str(good)]) == 0
    for path in (wrong_k, thin, trailing, bad_header):
        rc = main(["eval", "--out", str(tmp_path / "e"), "--config", cfg,
                   "--params", str(path)])
        assert rc == 2, path.name
        assert "config error:" in capsys.readouterr().err


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

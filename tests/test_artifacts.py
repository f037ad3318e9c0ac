"""Parameter files, CSV emission, manifests, and the SVG chart."""

import json

import numpy as np
import pytest

from circlewalk.artifacts import (PARAMS_MAGIC, emit_matrix_csv,
                                  emit_metrics_csv, load_params, save_params,
                                  svg_line_chart, write_manifest)
from circlewalk.model import Params
from circlewalk.trainer import METRIC_FIELDS, TrainConfig, train

SMALL = dict(K=4, p=0.5, N=9, M=40, train_size=32, test_size=32)


def test_params_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    params = Params.gaussian(4, 12, 0.5, rng)
    path = tmp_path / "params.bin"
    save_params(params, path)
    loaded = load_params(path)
    for name in ("V", "W11", "W12", "W21", "W22"):
        np.testing.assert_array_equal(getattr(loaded, name),
                                      getattr(params, name))
    assert loaded.init == "gaussian"
    assert loaded.sigma == 0.5


def test_params_file_layout(tmp_path):
    params = Params.zeros(3, 5)
    path = tmp_path / "p.bin"
    save_params(params, path)
    raw = path.read_bytes()
    assert raw.startswith(PARAMS_MAGIC)
    header_end = raw.index(b"\n", len(PARAMS_MAGIC)) + 1
    header = json.loads(raw[len(PARAMS_MAGIC):header_end])
    assert header["K"] == 3 and header["M"] == 5
    n_payload = 8 * (9 + 9 + 15 + 15 + 25)  # five float64 blocks
    assert len(raw) == header_end + n_payload


def test_params_payload_is_the_blocks_bytes(tmp_path):
    rng = np.random.default_rng(1)
    K, M = 3, 7
    # a transposed (Fortran-ordered) W21 and a big-endian W22 are written
    # as row-major little-endian like the rest
    params = Params.gaussian(K, M, 1.0, rng).with_updates(
        W21=np.asfortranarray(rng.standard_normal((M, K))),
        W22=rng.standard_normal((M, M)).astype(">f8"))
    path = tmp_path / "params.bin"
    save_params(params, path)
    raw = path.read_bytes()
    header_end = raw.index(b"\n", len(PARAMS_MAGIC)) + 1
    expected = b"".join(np.ascontiguousarray(getattr(params, name), dtype="<f8").tobytes()
                        for name in ("V", "W11", "W12", "W21", "W22"))
    assert raw[header_end:] == expected
    loaded = load_params(path)
    for name in ("V", "W11", "W12", "W21", "W22"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(params, name))


def test_load_rejects_bad_magic_and_truncation(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOTAPARAMS" + b"\x00" * 100)
    with pytest.raises(ValueError, match="magic"):
        load_params(bad)
    good = tmp_path / "good.bin"
    save_params(Params.zeros(3, 5), good)
    cut = tmp_path / "cut.bin"
    cut.write_bytes(good.read_bytes()[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_params(cut)
    extra = tmp_path / "extra.bin"
    extra.write_bytes(good.read_bytes() + b"\x00" * 4)
    with pytest.raises(ValueError, match="trailing"):
        load_params(extra)
    raw = good.read_bytes()
    header_end = raw.index(b"\n", len(PARAMS_MAGIC)) + 1
    for header in ({"K": 0, "M": 5}, {"K": 3.0, "M": 5}, {"K": 3, "M": True},
                   {"K": 3}, [3, 5]):
        bad_header = tmp_path / "header.bin"
        bad_header.write_bytes(PARAMS_MAGIC + json.dumps(header).encode() + b"\n"
                               + raw[header_end:])
        with pytest.raises(ValueError, match="header"):
            load_params(bad_header)


def test_metrics_csv_header_and_precision(tmp_path):
    tr = train(TrainConfig(iterations=3, **SMALL))
    path = tmp_path / "metrics.csv"
    emit_metrics_csv(tr, path)
    text = path.read_text()
    assert "\r" not in text
    lines = text.splitlines()
    assert lines[0] == ",".join(METRIC_FIELDS)
    assert len(lines) == 4
    # values round-trip through the text representation
    vals = lines[1].split(",")
    assert int(vals[0]) == 1
    assert float(vals[1]) == tr.rows[0].loss


def test_matrix_csv(tmp_path):
    m = np.array([[1.0, 1.0 / 3.0], [0.1, 2.0]])
    path = tmp_path / "m.csv"
    emit_matrix_csv(m, path)
    back = np.array([[float(v) for v in ln.split(",")]
                     for ln in path.read_text().splitlines()])
    np.testing.assert_array_equal(back, m)  # 17 digits round-trip exactly


def test_manifest_records_run_metadata(tmp_path):
    import time
    path = tmp_path / "manifest.json"
    write_manifest(path, "train", {"K": 6}, {"train": 0}, time.time() - 1.0)
    rec = json.loads(path.read_text())
    assert rec["command"] == "train"
    assert rec["config"] == {"K": 6}
    assert rec["seeds"] == {"train": 0}
    assert rec["wall_clock_seconds"] >= 1.0
    assert "version" in rec


def test_svg_chart(tmp_path):
    t = np.arange(1, 21, dtype=float)
    path = tmp_path / "c.svg"
    svg_line_chart({"loss": (t, 1.0 / t), "acc": (t, t / 20.0)}, path,
                   title="demo")
    text = path.read_text()
    assert text.count("<polyline") == 2
    assert "demo" in text
    # NaN series are dropped rather than drawn
    svg_line_chart({"ok": (t, 1.0 / t),
                    "bad": (t, np.full(20, np.nan))}, tmp_path / "c2.svg")
    assert (tmp_path / "c2.svg").read_text().count("<polyline") == 1
    # a single finite point is a dot; no finite point leaves the bare axes
    svg_line_chart({"one": (t[:1], t[:1]), "bad": (t[:1], [np.nan])},
                   tmp_path / "c3.svg")
    text = (tmp_path / "c3.svg").read_text()
    assert text.count("<circle") == 1 and "<polyline" not in text
    svg_line_chart({"bad": (t, np.full(20, np.nan))}, tmp_path / "c4.svg")
    text = (tmp_path / "c4.svg").read_text()
    assert text.count("<line") == 2
    assert "<polyline" not in text and "<circle" not in text

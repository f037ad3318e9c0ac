"""Parameter files, CSV emission, manifests, and the SVG chart."""

import dataclasses
import json

import numpy as np
import pytest

from circlewalk.artifacts import (PARAMS_MAGIC, emit_matrix_csv,
                                  emit_metrics_csv, load_params, save_params,
                                  svg_line_chart, write_manifest)
from circlewalk.gradients import FactoredParams
from circlewalk.trainer import METRIC_FIELDS, TrainConfig, train

SMALL = dict(K=4, p=0.5, N=9, M=40, train_size=32, test_size=32)


def _random_fp(rng, K, N):
    return FactoredParams(V=rng.standard_normal((K, K)), wtok=rng.standard_normal(K),
                          zpos=rng.standard_normal(N))


def _header_end(raw):
    return raw.index(b"\n", len(PARAMS_MAGIC)) + 1


def test_params_round_trip_bit_exact(tmp_path):
    cfg = TrainConfig(init="gaussian", sigma=0.05, **SMALL)
    path = tmp_path / "params.bin"
    for fp in (_random_fp(np.random.default_rng(0), 4, 9),
               train(dataclasses.replace(cfg, iterations=3)).final_snapshot):
        save_params(fp, path, cfg)
        loaded = load_params(path, cfg)
        for f in dataclasses.fields(FactoredParams):
            np.testing.assert_array_equal(getattr(loaded, f.name), getattr(fp, f.name))


def test_params_file_layout(tmp_path):
    K, N = 3, 5
    cfg = TrainConfig(K=K, p=0.5, N=N, M=12, normalize_attention=True)
    path = tmp_path / "p.bin"
    save_params(_random_fp(np.random.default_rng(2), K, N), path, cfg)
    raw = path.read_bytes()
    assert raw.startswith(b"CWPARAMS3\n") and PARAMS_MAGIC == b"CWPARAMS3\n"
    header = json.loads(raw[len(PARAMS_MAGIC):_header_end(raw)])
    assert header == {"K": 3, "M": 12, "N": 5, "normalize_attention": True}
    # V, wtok, zpos as float64
    assert len(raw) == _header_end(raw) + 8 * (K * K + K + N)


def test_params_payload_is_the_blocks_bytes(tmp_path):
    rng = np.random.default_rng(1)
    K, N = 4, 9
    cfg = TrainConfig(**SMALL)
    # a transposed (Fortran-ordered) V and a big-endian zpos are written
    # as row-major little-endian like the rest
    fp = dataclasses.replace(_random_fp(rng, K, N),
                             V=np.asfortranarray(rng.standard_normal((K, K))),
                             zpos=rng.standard_normal(N).astype(">f8"))
    assert not fp.V.flags.c_contiguous
    path = tmp_path / "params.bin"
    save_params(fp, path, cfg)
    raw = path.read_bytes()
    expected = b"".join(np.ascontiguousarray(getattr(fp, name), dtype="<f8").tobytes()
                        for name in ("V", "wtok", "zpos"))
    assert raw[_header_end(raw):] == expected
    loaded = load_params(path, cfg)
    for f in dataclasses.fields(FactoredParams):
        np.testing.assert_array_equal(getattr(loaded, f.name), getattr(fp, f.name))


def test_load_rejects_bad_magic_and_truncation(tmp_path):
    cfg = TrainConfig(**SMALL)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOTAPARAMS" + b"\x00" * 100)
    with pytest.raises(ValueError, match="magic"):
        load_params(bad, cfg)
    good = tmp_path / "good.bin"
    save_params(_random_fp(np.random.default_rng(3), 4, 9), good, cfg)
    raw = good.read_bytes()
    # the dense format and the five-field one (V, wtok, zpos, then the
    # factors alpha and gamma) are not read
    for old in (b"CWPARAMS1\n" + raw[len(PARAMS_MAGIC):],
                b'CWPARAMS2\n{"K": 4, "M": 40, "N": 9, "normalize_attention": false}\n'
                + np.random.default_rng(4).standard_normal(16 + 4 + 9 + 4 + 9).tobytes()):
        bad.write_bytes(old)
        with pytest.raises(ValueError, match="magic"):
            load_params(bad, cfg)
    cut = tmp_path / "cut.bin"
    cut.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_params(cut, cfg)
    extra = tmp_path / "extra.bin"
    extra.write_bytes(raw + b"\x00" * 4)
    with pytest.raises(ValueError, match="trailing"):
        load_params(extra, cfg)
    want = {"K": 4, "M": 40, "N": 9, "normalize_attention": False}
    for header in ({**want, "K": 4.0}, {**want, "M": True}, {**want, "N": "9"},
                   {**want, "normalize_attention": 0}, {**want, "init": "zero"},
                   {k: v for k, v in want.items() if k != "N"}, list(want.values()),
                   {**want, "K": 3}, {**want, "M": 41}, {**want, "N": 10},
                   {**want, "normalize_attention": True}):
        bad_header = tmp_path / "header.bin"
        bad_header.write_bytes(PARAMS_MAGIC + json.dumps(header).encode() + b"\n"
                               + raw[_header_end(raw):])
        with pytest.raises(ValueError, match="header"):
            load_params(bad_header, cfg)
    # a header line is read with a small fixed limit, not to the next newline
    for body in (b"x" * 65536, b"\xff\xfe" + b"{" * 65536, b"\n" + raw[_header_end(raw):]):
        bad.write_bytes(PARAMS_MAGIC + body)
        with pytest.raises(ValueError, match="header"):
            load_params(bad, cfg)


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


def test_metrics_csv_rows_are_the_per_value_format(tmp_path):
    # one %-format per row writes the bytes of the per-value formatter it
    # replaced, on the values whose text is easiest to get wrong
    specials = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.0000000000000007, 0.1, -2.5e300]
    tr = train(TrainConfig(iterations=2, **SMALL))
    tr.rows[:0] = [dataclasses.replace(tr.rows[0], iter=i, **{
        name: specials[(i + j) % len(specials)] for j, name in enumerate(METRIC_FIELDS[1:])})
        for i in range(len(specials))]
    path = tmp_path / "metrics.csv"
    emit_metrics_csv(tr, path)
    want = ",".join(METRIC_FIELDS) + "\n" + "".join(
        str(v[0]) + "," + ",".join(format(float(x), ".17g") for x in v[1:]) + "\n"
        for v in (row.as_tuple() for row in tr.rows))
    assert path.read_bytes() == want.encode()


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


def test_svg_points_are_the_per_point_scaling(tmp_path):
    # each series is scaled as one array; every point must have the bytes
    # of the per-point scalar formula, NaN points dropped first
    rng = np.random.default_rng(0)
    t = np.arange(1000, dtype=float)
    loss = rng.standard_normal(1000).cumsum()
    loss[[3, 500]] = np.nan
    series = {"loss": (t, loss), "acc": (t, rng.random(1000)), "dot": (t[:1] + 0.5, [0.25])}
    path = tmp_path / "c.svg"
    svg_line_chart(series, path)
    text = path.read_text()
    width, height, pad = 640, 400, 50
    xmin, xmax = 0.0, 999.0
    ymin = min(np.nanmin(y) for _, y in series.values())
    ymax = max(np.nanmax(y) for _, y in series.values())

    def sx(v):
        return pad + (v - xmin) / (xmax - xmin) * (width - 2 * pad)

    def sy(v):
        return height - pad - (v - ymin) / (ymax - ymin) * (height - 2 * pad)

    for name in ("loss", "acc"):
        x, y = series[name]
        keep = np.isfinite(y)
        pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x[keep], y[keep]))
        assert f'<polyline points="{pts}" ' in text, name
    assert f'<circle cx="{sx(t[0] + 0.5):.2f}" cy="{sy(0.25):.2f}" r="3"' in text

"""On-disk formats: parameter files, metrics/matrix CSVs, run manifests,
and a dependency-free SVG line chart for quick looks at training curves.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time

import numpy as np

from .gradients import FactoredParams
from .trainer import METRIC_FIELDS, TrainConfig, TrainTrace

__all__ = [
    "save_params", "load_params", "emit_metrics_csv", "emit_matrix_csv",
    "write_manifest", "write_json", "strict_json", "svg_line_chart", "PARAMS_MAGIC",
]

PARAMS_MAGIC = b"CWPARAMS3\n"


def _params_header(cfg: TrainConfig) -> dict:
    wc = cfg.walk_config()
    return {"K": int(wc.K), "M": int(cfg.M), "N": int(wc.N),
            "normalize_attention": cfg.normalize_attention}


def save_params(fp: FactoredParams, path, cfg: TrainConfig) -> None:
    """Magic, one JSON header line (K, M, N and normalize_attention of the
    run `cfg`), then every field of `fp` in declaration order (V, wtok,
    zpos) as row-major little-endian float64: 8 (K^2 + K + N) bytes."""
    with open(path, "wb") as fh:
        fh.write(PARAMS_MAGIC)
        fh.write((json.dumps(_params_header(cfg), sort_keys=True) + "\n").encode())
        for f in dataclasses.fields(fp):
            block = np.ascontiguousarray(getattr(fp, f.name), dtype="<f8")
            fh.write(block.data)  # the buffer itself, no bytes copy


def load_params(path, cfg: TrainConfig) -> FactoredParams:
    """The factored parameters `save_params` wrote for a run with the
    header of `cfg`; a ValueError for any other file."""
    want = _params_header(cfg)
    K, N = want["K"], want["N"]
    shapes = {"V": (K, K), "wtok": (K,), "zpos": (N,)}
    with open(path, "rb") as fh:
        if fh.read(len(PARAMS_MAGIC)) != PARAMS_MAGIC:
            raise ValueError(f"{path}: not a parameter file (bad magic)")
        line = fh.readline(256)  # bounded, whatever the file holds
        try:
            header = json.loads(line)
        except ValueError:  # not JSON, or not UTF-8
            header = None
        if not (header == want and all(type(header[k]) is type(v) for k, v in want.items())):
            raise ValueError(f"{path}: header {line[:100]!r} is not the config's "
                             f"{json.dumps(want, sort_keys=True)}")
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        expected = 8 * sum(math.prod(shape) for shape in shapes.values())
        if payload != expected:
            raise ValueError(f"{path}: {'truncated' if payload < expected else 'trailing bytes'}"
                             f" ({payload} payload bytes, the header needs {expected})")
        return FactoredParams(**{name: np.fromfile(fh, "<f8", math.prod(shape)).reshape(shape)
                                 for name, shape in shapes.items()})


def emit_metrics_csv(trace: TrainTrace, path) -> None:
    """One row per trace row, LF endings, round-trip float precision (17
    significant digits), one %-format per row."""
    if not trace.rows:
        raise ValueError("trace has no metric rows")
    row_format = "%d," + ",".join(["%.17g"] * (len(METRIC_FIELDS) - 1)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(METRIC_FIELDS) + "\n")
        fh.writelines(row_format % row.as_tuple() for row in trace.rows)


def emit_matrix_csv(matrix: np.ndarray, path) -> None:
    """Plain row-major CSV, no header, at the metrics' precision."""
    matrix = np.atleast_2d(matrix)
    with open(path, "w", newline="\n") as fh:
        for row in matrix:
            fh.write(",".join(["%.17g"] * len(row)) % tuple(row) + "\n")


def write_manifest(path, command: str, config: dict, seeds: dict,
                   started: float) -> None:
    from . import __version__

    record = {
        "command": command,
        "config": config,
        "seeds": seeds,
        "version": __version__,
        "started_unix": started,
        "wall_clock_seconds": time.time() - started,
    }
    write_json(path, record)


def write_json(path, record: dict) -> None:
    """Indented, key-sorted strict JSON with a trailing newline (every JSON
    artifact); an undefined value (NaN or an infinity) is written as null."""
    record = strict_json(record)
    with open(path, "w", newline="\n") as fh:
        json.dump(record, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def strict_json(record: dict) -> dict:
    """`record` with every NaN or infinity as None: strict JSON."""
    return json.loads(json.dumps(record), parse_constant=lambda _: None)


def svg_line_chart(series: dict[str, tuple[np.ndarray, np.ndarray]], path,
                   title: str = "") -> None:
    """Static polyline chart; finite points only, one color per series.
    A series with a single finite point is drawn as a dot; with no finite
    points at all the chart is the bare axes."""
    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")
    width, height, pad = 640, 400, 50
    clean: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for name, (x, y) in series.items():
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        keep = np.isfinite(x) & np.isfinite(y)
        if keep.any():
            clean[name] = (x[keep], y[keep])
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
    ]
    if clean:
        xmin = min(float(x.min()) for x, _ in clean.values())
        xmax = max(float(x.max()) for x, _ in clean.values())
        ymin = min(float(y.min()) for _, y in clean.values())
        ymax = max(float(y.max()) for _, y in clean.values())
        xspan = (xmax - xmin) or 1.0
        yspan = (ymax - ymin) or 1.0
        parts += [
            f'<text x="{pad}" y="{height - pad + 16}" font-size="10">{xmin:g}</text>',
            f'<text x="{width - pad}" y="{height - pad + 16}" text-anchor="end" font-size="10">{xmax:g}</text>',
            f'<text x="{pad - 4}" y="{height - pad}" text-anchor="end" font-size="10">{ymin:g}</text>',
            f'<text x="{pad - 4}" y="{pad + 4}" text-anchor="end" font-size="10">{ymax:g}</text>',
        ]
    for idx, (name, (x, y)) in enumerate(clean.items()):
        color = colors[idx % len(colors)]
        px = (pad + (x - xmin) / xspan * (width - 2 * pad)).tolist()
        py = (height - pad - (y - ymin) / yspan * (height - 2 * pad)).tolist()
        if len(px) == 1:
            parts.append(f'<circle cx="{px[0]:.2f}" cy="{py[0]:.2f}" r="3" fill="{color}"/>')
        else:
            pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{width - pad}" y="{pad + 14 * (idx + 1)}" '
                     f'text-anchor="end" font-size="11" fill="{color}">{name}</text>')
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")

"""On-disk formats: parameter files, metrics/matrix CSVs, run manifests,
and a dependency-free SVG line chart for quick looks at training curves.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from .model import Params
from .trainer import METRIC_FIELDS, TrainTrace

__all__ = [
    "save_params", "load_params", "emit_metrics_csv", "emit_matrix_csv",
    "write_manifest", "write_json", "svg_line_chart", "PARAMS_MAGIC",
]

PARAMS_MAGIC = b"CWPARAMS1\n"
_BLOCK_ORDER = ("V", "W11", "W12", "W21", "W22")


def save_params(params: Params, path) -> None:
    """Single flat file: magic, one JSON header line (K, M, init metadata),
    then the five blocks as row-major little-endian float64 in fixed order."""
    header = {"K": params.K, "M": params.M, "init": params.init,
              "sigma": params.sigma}
    with open(path, "wb") as fh:
        fh.write(PARAMS_MAGIC)
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
        for name in _BLOCK_ORDER:
            block = np.ascontiguousarray(getattr(params, name), dtype="<f8")
            fh.write(block.data)  # the buffer itself, no bytes copy


def load_params(path) -> Params:
    with open(path, "rb") as fh:
        magic = fh.read(len(PARAMS_MAGIC))
        if magic != PARAMS_MAGIC:
            raise ValueError(f"{path}: not a parameter file (bad magic)")
        header = json.loads(fh.readline().decode())
        if not (isinstance(header, dict)
                and all(type(header.get(k)) is int and header[k] > 0 for k in ("K", "M"))):
            raise ValueError(f"{path}: header needs positive integer K and M")
        K, M = header["K"], header["M"]
        shapes = {"V": (K, K), "W11": (K, K), "W12": (K, M),
                  "W21": (M, K), "W22": (M, M)}
        # size check first, so a bad header cannot request a huge read
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        expected = 8 * sum(r * c for r, c in shapes.values())
        if payload < expected:
            raise ValueError(f"{path}: truncated ({payload} payload bytes, "
                             f"the header needs {expected})")
        if payload > expected:
            raise ValueError(f"{path}: {payload - expected} trailing bytes "
                             "after the last block")
        blocks = {}
        for name in _BLOCK_ORDER:
            r, c = shapes[name]
            blocks[name] = np.frombuffer(fh.read(8 * r * c), dtype="<f8").reshape(r, c).copy()
    return Params(init=header.get("init", "zero"), sigma=header.get("sigma", 0.0),
                  **blocks)


def _fmt(x: float) -> str:
    """Round-trip float formatting (17 significant digits)."""
    return format(float(x), ".17g")


def emit_metrics_csv(trace: TrainTrace, path) -> None:
    """One row per trace row, LF endings, round-trip float precision."""
    if not trace.rows:
        raise ValueError("trace has no metric rows")
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(METRIC_FIELDS) + "\n")
        for row in trace.rows:
            vals = row.as_tuple()
            fh.write(str(vals[0]) + "," + ",".join(_fmt(v) for v in vals[1:]) + "\n")


def emit_matrix_csv(matrix: np.ndarray, path) -> None:
    """Plain row-major CSV, no header."""
    matrix = np.atleast_2d(matrix)
    with open(path, "w", newline="\n") as fh:
        for row in matrix:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_manifest(path, command: str, config: dict, seeds: dict,
                   started: float, extra: dict | None = None) -> None:
    from . import __version__

    record = {
        "command": command,
        "config": config,
        "seeds": seeds,
        "version": __version__,
        "started_unix": started,
        "wall_clock_seconds": time.time() - started,
    }
    if extra:
        record.update(extra)
    write_json(path, record)


def write_json(path, record: dict) -> None:
    """Indented, key-sorted JSON with a trailing newline (every JSON artifact)."""
    with open(path, "w", newline="\n") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def svg_line_chart(series: dict[str, tuple[np.ndarray, np.ndarray]], path,
                   title: str = "", width: int = 640, height: int = 400) -> None:
    """Static polyline chart; finite points only, one color per series.
    A series with a single finite point is drawn as a dot; with no finite
    points at all the chart is the bare axes."""
    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")
    pad = 50
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

        def sx(v):
            return pad + (v - xmin) / xspan * (width - 2 * pad)

        def sy(v):
            return height - pad - (v - ymin) / yspan * (height - 2 * pad)

        parts += [
            f'<text x="{pad}" y="{height - pad + 16}" font-size="10">{xmin:g}</text>',
            f'<text x="{width - pad}" y="{height - pad + 16}" text-anchor="end" font-size="10">{xmax:g}</text>',
            f'<text x="{pad - 4}" y="{height - pad}" text-anchor="end" font-size="10">{ymin:g}</text>',
            f'<text x="{pad - 4}" y="{pad + 4}" text-anchor="end" font-size="10">{ymax:g}</text>',
        ]
    for idx, (name, (x, y)) in enumerate(clean.items()):
        color = colors[idx % len(colors)]
        if len(x) == 1:
            parts.append(f'<circle cx="{sx(x[0]):.2f}" cy="{sy(y[0]):.2f}" r="3" fill="{color}"/>')
        else:
            pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, y))
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{width - pad}" y="{pad + 14 * (idx + 1)}" '
                     f'text-anchor="end" font-size="11" fill="{color}">{name}</text>')
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")

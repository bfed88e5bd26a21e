"""Flat text serialization for fields and reports.

Field layout: a CSV header naming (dimension, points_per_axis, box_length),
one row with their values, then one grid value per line in row-major order.
All floats are written with 17 significant digits so files round-trip
bit-exactly and identical runs produce identical bytes.  The field writer
formats 256 values per % call: the call's cost is per value, and a smaller
chunk keeps the format string and its text from raising the peak RSS.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

from .grids import Field, make_grid

FLOAT_FMT = ".17g"
# values per write in save_field, which formats a chunk of plain floats with
# one % call; 256 formats as fast as 1,024, whose larger format string and
# text raised a 2-D lab round's peak RSS by 3.2 MB against 0.7 MB
_WRITE_CHUNK = 1 << 8
_LINE = f"%{FLOAT_FMT}\n"  # fmt's text of one value, for the % operator


def fmt(x):
    """Render a number with 17 significant digits (stable across runs)."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), FLOAT_FMT)


def save_field(u, path):
    g = u.grid
    values = u.values.ravel(order="C")
    with open(path, "w") as handle:
        handle.write("dimension,points_per_axis,box_length\n")
        handle.write(f"{g.dimension},{g.points_per_axis},{fmt(g.box_length)}\n")
        for start in range(0, values.size, _WRITE_CHUNK):
            chunk = tuple(values[start : start + _WRITE_CHUNK].tolist())
            handle.write(_LINE * len(chunk) % chunk)


def load_field(path):
    with open(path) as handle:
        header = handle.readline().rstrip("\n").split(",")
        sizes = handle.readline().split(",")
        if header != ["dimension", "points_per_axis", "box_length"] or len(sizes) != 3:
            raise ValueError(f"not a field file: {path}")
        grid = make_grid(int(sizes[0]), int(sizes[1]), float(sizes[2]))
        # numpy's parser, not one Python float per value; blank lines are
        # skipped, and an empty body is reported as a wrong count below
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            try:
                values = np.loadtxt(handle, dtype=float, comments=None, ndmin=1)
            except ValueError as exc:
                raise ValueError(f"bad value in {path}: {exc}") from exc
    if values.size != grid.num_points:
        raise ValueError(f"expected {grid.num_points} values, got {values.size}")
    return Field(grid, values.reshape(grid.shape))


def dump_json(obj, path):
    """Write JSON with every number formatted by fmt and non-finite floats
    as null."""

    def encode(o, indent=0):
        pad = "  " * indent
        if isinstance(o, dict):
            if not o:
                return "{}"
            items = [
                f'{pad}  "{k}": {encode(v, indent + 1)}' for k, v in o.items()
            ]
            return "{\n" + ",\n".join(items) + "\n" + pad + "}"
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            items = [f"{pad}  {encode(v, indent + 1)}" for v in o]
            return "[\n" + ",\n".join(items) + "\n" + pad + "]"
        if o is None:
            return "null"
        if isinstance(o, str):
            return json.dumps(o)
        if isinstance(o, (float, np.floating)):
            return fmt(o) if np.isfinite(o) else "null"
        if isinstance(o, (int, np.integer, np.bool_)):
            return fmt(o)
        raise TypeError(f"cannot encode {type(o)}")

    text = encode(obj) + "\n"
    Path(path).write_text(text)
    return text


def write_csv(path, header, rows):
    """One header line plus formatted rows, deterministic bytes."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) if not isinstance(v, str) else v for v in row))
    Path(path).write_text("\n".join(lines) + "\n")

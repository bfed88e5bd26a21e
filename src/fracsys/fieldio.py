"""Flat text serialization for fields and reports.

Field layout: a CSV header naming (dimension, points_per_axis, box_length),
one row with their values, then one grid value per line in row-major order.
All floats are written with 17 significant digits so files round-trip
bit-exactly and identical runs produce identical bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .grids import Field, make_grid

FLOAT_FMT = ".17g"
# values per write in save_field, which formats plain floats a chunk at a
# time (no fmt call or numpy scalar per value); a chunk this small leaves no
# lasting growth of the heap
_WRITE_CHUNK = 1 << 10


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
    # fmt's text for every value, formatted a chunk at a time
    line = f"{{:{FLOAT_FMT}}}\n".format
    with open(path, "w") as handle:
        handle.write("dimension,points_per_axis,box_length\n")
        handle.write(f"{g.dimension},{g.points_per_axis},{fmt(g.box_length)}\n")
        for start in range(0, values.size, _WRITE_CHUNK):
            handle.write("".join(map(line, values[start : start + _WRITE_CHUNK].tolist())))


def load_field(path):
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].split(",") != ["dimension", "points_per_axis", "box_length"]:
        raise ValueError(f"not a field file: {path}")
    dim_s, ppa_s, L_s = lines[1].split(",")
    grid = make_grid(int(dim_s), int(ppa_s), float(L_s))
    values = np.array([float(t) for t in lines[2:] if t], dtype=float)
    if values.size != grid.num_points:
        raise ValueError(f"expected {grid.num_points} values, got {values.size}")
    return Field(grid, values.reshape(grid.shape))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        # JSON has no nan or inf: those become null.  Wrap the rest so the
        # encoder below can format them deterministically.
        return _Float(obj) if np.isfinite(obj) else None
    return obj


class _Float(float):
    pass


def dump_json(obj, path):
    """Write JSON with all floats at 17 significant digits and non-finite
    floats as null."""

    def encode(o, indent=0):
        pad = "  " * indent
        if isinstance(o, dict):
            if not o:
                return "{}"
            items = [
                f'{pad}  "{k}": {encode(v, indent + 1)}' for k, v in o.items()
            ]
            return "{\n" + ",\n".join(items) + "\n" + pad + "}"
        if isinstance(o, list):
            if not o:
                return "[]"
            items = [f"{pad}  {encode(v, indent + 1)}" for v in o]
            return "[\n" + ",\n".join(items) + "\n" + pad + "]"
        if isinstance(o, bool):
            return "true" if o else "false"
        if o is None:
            return "null"
        if isinstance(o, _Float):
            return fmt(o)
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, str):
            return json.dumps(o)
        raise TypeError(f"cannot encode {type(o)}")

    text = encode(_jsonable(obj)) + "\n"
    Path(path).write_text(text)
    return text


def write_csv(path, header, rows):
    """One header line plus formatted rows, deterministic bytes."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) if not isinstance(v, str) else v for v in row))
    Path(path).write_text("\n".join(lines) + "\n")

#!/usr/bin/env python3
"""Run the four reference configs, or compare two trees of their outputs.

    python scripts/reference_outputs.py run DIR
    python scripts/reference_outputs.py compare A B
    python scripts/reference_outputs.py digest DIR

The reference configs are L=40, seed 7, Gaussian f and g of widths 2 and
1.5 scaled to half of d, tol 1e-8, and a 50-pair coercivity sweep (written
by `constants`):

  critical-3d   N=3, P=64, s=0.5, alpha=1.8, beta=1.2: solve
  lab-2d        N=2, P=256, s=0.5, alpha=2.2, beta=1.4: constants, solve,
                ground-state, verify
  sub-1d        N=1, P=256, s=0.25, alpha=beta=1.5: constants, solve,
                ground-state, verify
  crit-1d       N=1, P=256, s=0.25, alpha=beta=2: verify, constants,
                solve, bubble

Each config's commands run in this order in one output directory, so
`solve` and `verify` reuse the constants.json of an earlier `constants`
where there is one (lab-2d, sub-1d, and crit-1d's `solve`) and measure
afresh where there is none (critical-3d's `solve`, crit-1d's `verify`).

`run` writes each config with a relative output path and runs its commands
through `fracsys.cli.main` with DIR as the working directory, so the config
embedded in every report reads the same on any checkout.  Each command's
stdout and stderr go to `<config>/<command>.log`, ending with its exit code.

`compare` lists every file of either tree: `identical`, or the largest
relative change of a float token and each changed integer token (iteration
counts, exit codes).  A `.json` file first lists the keys found in only
one tree, then compares the values of the shared keys.  A field file
(`u_bar.csv` and the like) is decoded and its values compared bit for bit:
`values identical` when every value parses to the same double, whatever
its text, else the count of moved values and their largest relative
change.  It exits 0 when every file is identical or values identical,
else 1.

`digest` prints, as JSON, the numpy version, platform and machine that
ran it, and per file of the tree its SHA-256, the SHA-256 of its layout
and its float values.  A field file's SHA-256 is that of its decoded
float64 values, so a re-encoding of the same doubles keeps it; its layout
is its size line and its values are the minimum, the maximum, the sum of
magnitudes and the sum of squares.  Any other file's SHA-256 is that of
its bytes; its layout is its text with each float token replaced by `#`,
and its values are those float tokens.  `tests/golden/reference_digests.json`
holds the digest of a `run` and `tests/test_reference_outputs.py` checks
the outputs of a fresh `run` against it.  A change that moves reported
digits on purpose regenerates it:

    python scripts/reference_outputs.py run DIR
    python scripts/reference_outputs.py digest DIR > tests/golden/reference_digests.json
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import sys
from pathlib import Path

import numpy as np

COMMON = {
    "box_length": 40.0,
    "tol": 1e-8,
    "seed": 7,
    "f_kind": "gaussian",
    "f_width": 2.0,
    "f_fraction_of_d": 0.5,
    "g_kind": "gaussian",
    "g_width": 1.5,
    "g_fraction_of_d": 0.5,
    "sweep_pairs": 50,
}

CONFIGS = {
    "critical-3d": (
        {"dimension": 3, "grid_size": 64, "s": 0.5, "alpha": 1.8, "beta": 1.2},
        ("solve",),
    ),
    "lab-2d": (
        {"dimension": 2, "grid_size": 256, "s": 0.5, "alpha": 2.2, "beta": 1.4},
        ("constants", "solve", "ground-state", "verify"),
    ),
    "sub-1d": (
        {"dimension": 1, "grid_size": 256, "s": 0.25, "alpha": 1.5, "beta": 1.5},
        ("constants", "solve", "ground-state", "verify"),
    ),
    "crit-1d": (
        {"dimension": 1, "grid_size": 256, "s": 0.25, "alpha": 2.0, "beta": 2.0},
        ("verify", "constants", "solve", "bubble"),
    ),
}

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
INTEGER = re.compile(r"[-+]?\d+")
FIELD_HEADER = "dimension,points_per_axis,box_length"


def run(root):
    from fracsys.cli import main

    root = Path(root).resolve()
    root.mkdir(parents=True, exist_ok=True)
    home = os.getcwd()
    os.chdir(root)
    try:
        for name, (keys, commands) in CONFIGS.items():
            cfg = {**COMMON, **keys, "output": name}
            Path(f"{name}.cfg").write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
            for command in commands:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([command, "--config", f"{name}.cfg"])
                log = f"{out.getvalue()}--- stderr\n{err.getvalue()}--- exit {code}\n"
                Path(name, f"{command}.log").write_text(log)
                print(f"{name} {command}: exit {code}")
    finally:
        os.chdir(home)


def _tokens(text):
    """Numeric tokens of text, and the text between them."""
    return NUMBER.findall(text), NUMBER.split(text)


def _leaves(obj, prefix=""):
    """The values of a parsed JSON object by dotted key path."""
    if not isinstance(obj, dict):
        return {prefix: obj}
    out = {}
    for key, value in obj.items():
        out.update(_leaves(value, f"{prefix}.{key}" if prefix else key))
    return out


def _field(path):
    """The size line and the values of a field file, or None for any other
    file."""
    head, _, rest = path.read_text().partition("\n")
    if head != FIELD_HEADER:
        return None
    sizes, _, body = rest.partition("\n")
    try:
        return sizes, np.array(body.split(), dtype=float)
    except ValueError:
        return None


def compare_fields(a, b):
    """One line saying how the values of field b differ from field a's."""
    (sizes_a, va), (sizes_b, vb) = a, b
    if sizes_a != sizes_b or va.shape != vb.shape:
        return "field sizes differ"
    moved = va.view(np.uint64) != vb.view(np.uint64)
    if not moved.any():
        return "values identical"
    x, y = va[moved], vb[moved]
    scale = np.maximum(np.abs(x), np.abs(y))
    relative = np.divide(np.abs(x - y), scale, out=np.zeros_like(scale), where=scale > 0)
    return f"{moved.sum()} values moved, max relative change {np.nanmax(relative):.2g}"


def compare_file(a, b):
    """One line saying how file b differs from file a."""
    if a.read_bytes() == b.read_bytes():
        return "identical"
    fields = _field(a), _field(b)
    if None not in fields:
        return compare_fields(*fields)
    parts = []
    if a.suffix == ".json":
        la, lb = _leaves(json.loads(a.read_text())), _leaves(json.loads(b.read_text()))
        for side, mine, other in (("A", la, lb), ("B", lb, la)):
            only = [k for k in mine if k not in other]
            if only:
                parts.append(f"keys only in {side}: " + ", ".join(only))
        shared = [k for k in la if k in lb]
        text_a, text_b = (json.dumps([leaves[k] for k in shared]) for leaves in (la, lb))
    else:
        text_a, text_b = a.read_text(), b.read_text()
    (na, sa), (nb, sb) = _tokens(text_a), _tokens(text_b)
    if sa != sb or len(na) != len(nb):
        return "; ".join([*parts, "text differs"])
    worst, moved, changed_ints = 0.0, 0, []
    for ta, tb in zip(na, nb):
        if ta == tb:
            continue
        if INTEGER.fullmatch(ta) and INTEGER.fullmatch(tb):
            changed_ints.append(f"{ta} -> {tb}")
            continue
        x, y = float(ta), float(tb)
        moved += 1
        scale = max(abs(x), abs(y))
        worst = max(worst, abs(x - y) / scale if scale > 0 else 0.0)
    if moved:
        parts.append(f"{moved} floats moved, max relative change {worst:.2g}")
    if changed_ints:
        parts.append("integers changed: " + ", ".join(changed_ints))
    return "; ".join(parts) or "text differs"


def compare(a, b):
    a, b = Path(a), Path(b)
    names = sorted(
        {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
        | {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    )
    same = True
    for name in names:
        if not (a / name).is_file() or not (b / name).is_file():
            line = f"only in {a if (a / name).is_file() else b}"
        else:
            line = compare_file(a / name, b / name)
        same = same and line in ("identical", "values identical")
        print(f"{name}: {line}")
    return 0 if same else 1


def environment():
    """What fixes the last bits of the outputs besides the code."""
    return {"numpy": np.__version__, "platform": sys.platform, "machine": platform.machine()}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def digest_file(path):
    """The SHA-256, layout SHA-256 and float values of one output file."""
    field = _field(path)
    if field is not None:
        sizes, values = field
        values = values.astype("<f8")
        summary = [values.min(), values.max(), np.abs(values).sum(), np.square(values).sum()]
        return {
            "sha256": _sha256(values.tobytes()),
            "layout": _sha256(sizes.encode()),
            "values": [float(x) for x in summary],
        }
    text = path.read_text()
    floats = [t for t in NUMBER.findall(text) if not INTEGER.fullmatch(t)]
    layout = NUMBER.sub(lambda m: m[0] if INTEGER.fullmatch(m[0]) else "#", text)
    return {
        "sha256": _sha256(path.read_bytes()),
        "layout": _sha256(layout.encode()),
        "values": [float(t) for t in floats],
    }


def digest(root):
    root = Path(root)
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return {
        "environment": environment(),
        "files": {p.relative_to(root).as_posix(): digest_file(p) for p in files},
    }


def moved_files(current, golden, rtol=None, atol=0.0):
    """One line per file whose digest differs from golden's: exact SHA-256
    equality, or with rtol the same layout and values within
    ``|a - b| <= atol + rtol |b|``."""
    lines = []
    mine, theirs = current["files"], golden["files"]
    for name in sorted(mine.keys() | theirs.keys()):
        if name not in mine or name not in theirs:
            lines.append(f"{name}: only in {'the run' if name in mine else 'the golden digests'}")
            continue
        a, b = mine[name], theirs[name]
        if rtol is None:
            if (a["sha256"], a["layout"]) != (b["sha256"], b["layout"]):
                lines.append(f"{name}: SHA-256 differs")
        elif a["layout"] != b["layout"] or len(a["values"]) != len(b["values"]):
            lines.append(f"{name}: layout differs")
        else:
            far = ~np.isclose(a["values"], b["values"], rtol=rtol, atol=atol, equal_nan=True)
            if far.any():
                lines.append(f"{name}: {far.sum()} of {far.size} values outside the tolerance")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run").add_argument("dir")
    cmp_parser = sub.add_parser("compare")
    cmp_parser.add_argument("a")
    cmp_parser.add_argument("b")
    sub.add_parser("digest").add_argument("dir")
    args = parser.parse_args(argv)
    if args.command == "run":
        run(args.dir)
        return 0
    if args.command == "digest":
        print(json.dumps(digest(args.dir), indent=1))
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the four reference configs, or compare two trees of their outputs.

    python scripts/reference_outputs.py run DIR
    python scripts/reference_outputs.py compare A B

The reference configs are L=40, seed 7, Gaussian f and g of widths 2 and
1.5 scaled to half of d, tol 1e-8, and a 50-pair coercivity sweep (written
by `constants`):

  critical-3d   N=3, P=64, s=0.5, alpha=1.8, beta=1.2: solve
  lab-2d        N=2, P=256, s=0.5, alpha=2.2, beta=1.4: constants, solve,
                ground-state, verify
  sub-1d        N=1, P=256, s=0.25, alpha=beta=1.5: constants, solve,
                ground-state, verify
  crit-1d       N=1, P=256, s=0.25, alpha=beta=2: constants, solve,
                bubble, verify

`run` writes each config with a relative output path and runs its commands
through `fracsys.cli.main` with DIR as the working directory, so the config
embedded in every report reads the same on any checkout.  Each command's
stdout and stderr go to `<config>/<command>.log`, ending with its exit code.

`compare` lists every file of either tree: `identical`, or the largest
relative change of a float token and each changed integer token (iteration
counts, exit codes).  A `.json` file first lists the keys found in only
one tree, then compares the values of the shared keys.  It exits 0 when
every file is identical, else 1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

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
        ("constants", "solve", "bubble", "verify"),
    ),
}

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


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


def compare_file(a, b):
    """One line saying how file b differs from file a."""
    if a.read_bytes() == b.read_bytes():
        return "identical"
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
        if re.fullmatch(r"[-+]?\d+", ta) and re.fullmatch(r"[-+]?\d+", tb):
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
        same = same and line == "identical"
        print(f"{name}: {line}")
    return 0 if same else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run").add_argument("dir")
    cmp_parser = sub.add_parser("compare")
    cmp_parser.add_argument("a")
    cmp_parser.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "run":
        run(args.dir)
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())

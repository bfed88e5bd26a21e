#!/usr/bin/env python3
"""Box-convergence study for the measured constants.

    python scripts/box_convergence.py CONFIG [--levels 4]

Everything lives on a truncated periodic box, so every constant carries a
truncation error.  Starting from CONFIG's grid, doubling box length and
resolution together (fixed grid spacing) shows how the scalar constant,
the measured ratio, and the derived radius/threshold settle.  The rows go
to `<output>/box_convergence.csv`.

`measure_constants` runs no vector descent: its S_vector is the coupled
quotient of the paired scalar minimizer, so the ratio column equals the
closed form `ratio_formula` by construction.  `constants_sweep.py` keeps
the cold ratio, two independent minimizations from the default seed.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

from fracsys import measure_constants
from fracsys.cli import parse_config_file
from fracsys.fieldio import write_csv


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config", help="KEY = VALUE config file")
    ap.add_argument("--levels", type=int, default=4)
    args = ap.parse_args(argv)
    cfg = parse_config_file(args.config)
    params = cfg.params()
    rows = []
    for level in range(args.levels):
        points = cfg.grid_size * 2**level
        length = cfg.box_length * 2**level
        grid = dataclasses.replace(cfg, grid_size=points, box_length=length).grid()
        rep = measure_constants(grid, params, opts=cfg.constants_opts())
        rows.append(
            (points, length, rep.s_scalar, rep.s_vector, rep.ratio_measured,
             rep.radius, rep.threshold)
        )
        print(
            f"P={points:5d} L={length:7.1f}: S={rep.s_scalar:.6f} "
            f"ratio={rep.ratio_measured:.6f} r={rep.radius:.6f} d={rep.threshold:.6f}"
        )
    out = Path(cfg.output)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(
        out / "box_convergence.csv",
        ["points", "box_length", "s_scalar", "s_vector", "ratio_measured", "radius",
         "threshold"],
        rows,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

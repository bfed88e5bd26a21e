#!/usr/bin/env python3
"""Box-convergence study for the measured constants.

Everything lives on a truncated periodic box, so every constant carries a
truncation error.  Doubling box length and resolution together (fixed grid
spacing) shows how the scalar constant, the measured ratio, and the derived
radius/threshold settle.

`measure_constants` runs no vector descent: its S_vector is the coupled
quotient of the paired scalar minimizer, so the ratio column equals the
closed form `ratio_formula` by construction.  `constants_sweep.py` keeps
the cold ratio, two independent minimizations from the default seed.
"""

import argparse

from fracsys import MinimizeOpts, SystemParams, make_grid, measure_constants
from fracsys.fieldio import write_csv


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--alpha", type=float, default=1.5)
    ap.add_argument("--beta", type=float, default=1.5)
    ap.add_argument("--s", type=float, default=0.25)
    ap.add_argument("--levels", type=int, default=4)
    ap.add_argument("--base-points", type=int, default=64)
    ap.add_argument("--base-length", type=float, default=20.0)
    ap.add_argument("--output", type=str, default="box_convergence.csv")
    args = ap.parse_args()

    params = SystemParams(1, args.s, args.alpha, args.beta, 1)
    opts = MinimizeOpts(tol=1e-10, max_iter=5000)
    rows = []
    for level in range(args.levels):
        points = args.base_points * 2**level
        length = args.base_length * 2**level
        grid = make_grid(1, points, length)
        rep = measure_constants(grid, params, opts=opts)
        rows.append(
            (points, length, rep.s_scalar, rep.s_vector, rep.ratio_measured,
             rep.radius, rep.threshold)
        )
        print(
            f"P={points:5d} L={length:7.1f}: S={rep.s_scalar:.6f} "
            f"ratio={rep.ratio_measured:.6f} r={rep.radius:.6f} d={rep.threshold:.6f}"
        )
    write_csv(
        args.output,
        ["points", "box_length", "s_scalar", "s_vector", "ratio_measured", "radius",
         "threshold"],
        rows,
    )


if __name__ == "__main__":
    main()

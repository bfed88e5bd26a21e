#!/usr/bin/env python3
"""Coercivity sweep plus measured-ratio spot checks.

Writes sweep_closed_form.csv (50 pairs per regime, closed-form margins) and
sweep_measured.csv (a few pairs with the ratio measured by minimization) to
the output directory.  Both minimizations start cold from the default seed,
so the measured ratio is independent of the closed form.
"""

import argparse
from pathlib import Path

from fracsys import (
    MinimizeOpts,
    SystemParams,
    coercivity_sweep,
    make_grid,
    minimize_quotient,
    ratio_formula,
)
from fracsys.fieldio import write_csv


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--grid-size", type=int, default=256)
    ap.add_argument("--box-length", type=float, default=40.0)
    ap.add_argument("--output", type=str, default="out_sweep")
    args = ap.parse_args()
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    for gamma, p in ((0, 4.0), (1, 3.0)):
        for a, b, ratio, margin in coercivity_sweep(
            lambda x, y, g=gamma: SystemParams(1, 0.25, x, y, g), p, n_pairs=50
        ):
            rows.append((gamma, a, b, ratio, margin))
    write_csv(
        out / "sweep_closed_form.csv",
        ["gamma", "alpha", "beta", "ratio_formula", "coercivity_lhs"],
        rows,
    )
    worst = min(r[4] for r in rows)
    print(f"closed-form sweep: {len(rows)} pairs, min margin {worst:.4f} (must be > 2)")

    grid = make_grid(1, args.grid_size, args.box_length)
    opts = MinimizeOpts(tol=1e-10, max_iter=5000)
    spot_rows = []
    for a, b in ((2.0, 2.0), (2.5, 1.5), (3.0, 1.0), (1.5, 1.5), (1.2, 1.6)):
        params = SystemParams(1, 0.25, a, b, 1)
        scalar = minimize_quotient(grid, params, mode="scalar", opts=opts)
        vector = minimize_quotient(grid, params, mode="vector", opts=opts)
        measured = vector.value / scalar.value
        target = ratio_formula(a, b)
        spot_rows.append((a, b, scalar.value, vector.value, measured, target,
                          abs(measured - target) / target))
        print(f"({a},{b}): measured ratio {measured:.6f} vs {target:.6f}")
    write_csv(
        out / "sweep_measured.csv",
        ["alpha", "beta", "s_scalar", "s_vector", "ratio_measured", "ratio_formula",
         "relative_error"],
        spot_rows,
    )


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""End-to-end forced solve with all diagnostics, from the library API.

Measures the constants, builds matching Gaussian forcings at a chosen
fraction of the smallness threshold, solves, and prints the certificate
quantities together with the sign scan and the small-data sanity curve.
"""

import argparse
from pathlib import Path

from fracsys import (
    Field,
    MinimizeOpts,
    SystemParams,
    gaussian_density,
    make_forcing,
    make_grid,
    measure_constants,
    neumann_series_sanity,
    positivity_check,
    residual,
    save_field,
    scale_to_norm,
    small_t_sign_scan,
    solve_system,
)
from fracsys.fieldio import dump_json, write_csv


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--alpha", type=float, default=2.5)
    ap.add_argument("--beta", type=float, default=1.5)
    ap.add_argument("--s", type=float, default=0.25)
    ap.add_argument("--grid-size", type=int, default=256)
    ap.add_argument("--box-length", type=float, default=40.0)
    ap.add_argument("--fraction-of-d", type=float, default=0.5)
    ap.add_argument("--output", type=str, default="out_solve")
    args = ap.parse_args()
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)

    grid = make_grid(1, args.grid_size, args.box_length)
    params = SystemParams(1, args.s, args.alpha, args.beta, 1)
    constants = measure_constants(grid, params, opts=MinimizeOpts(tol=1e-10, max_iter=5000))
    print(
        f"constants: S_scalar={constants.s_scalar:.6f} S_vector={constants.s_vector:.6f} "
        f"r={constants.radius:.6f} d={constants.threshold:.6f}"
    )

    f = make_forcing(gaussian_density(grid, width=2.0), params)
    f = scale_to_norm(f, args.fraction_of_d * constants.threshold)
    rep = solve_system(f, f, constants)
    print(
        f"solve: converged={rep.converged} iters={rep.iterations} "
        f"energy={rep.energy:.8f} grad={rep.grad_norm:.2e} "
        f"ball_fraction={rep.ball_fraction:.4f} distinctness={rep.distinctness:.3e}"
    )
    print("positivity:", positivity_check(rep))
    print("strong residual:", residual(rep.u_bar, rep.v_bar, f, f, params))

    save_field(rep.u_bar, out / "u_bar.csv")
    save_field(rep.v_bar, out / "v_bar.csv")
    dump_json({"report": rep.scalars(), "constants": constants.as_dict()}, out / "report.json")
    write_csv(out / "trace.csv", ["iter", "energy", "grad_norm", "ball_fraction"], rep.trace)

    bump = Field(grid, gaussian_density(grid, width=2.0).values + 1e-9)
    scan = small_t_sign_scan(bump, bump, f, f, params, [-1e-3, -1e-4, 1e-4, 1e-3])
    write_csv(out / "sign_scan.csv", ["t", "energy"], scan.rows())
    print("sign scan ok:", scan.ok)

    d = constants.threshold
    curve = neumann_series_sanity(
        [1e-1 * d, 1e-2 * d, 1e-3 * d], f, f, constants,
        opts=MinimizeOpts(tol=1e-12, max_iter=10000),
    )
    write_csv(
        out / "small_data_curve.csv",
        ["t", "pair_norm", "norm_over_t", "ratio_to_linear"],
        curve["rows"],
    )
    print(
        f"small-data: monotone={curve['monotone_in_t']} "
        f"linear ratio={curve['small_t_linear_ratio']:.6f}"
    )


if __name__ == "__main__":
    main()

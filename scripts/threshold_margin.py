#!/usr/bin/env python3
"""Empirical margin of the data-smallness threshold.

The sufficient threshold d guarantees an interior minimizer but is not
claimed sharp.  This probe scales the forcing upward by bisection until the
interior certificate fails (projection active at termination or the ball
fraction reaches the projection radius), and reports the failure point as a
multiple of d.  No sharpness claim: just the observed margin on this grid.
"""

import argparse

from fracsys import (
    MinimizeOpts,
    SystemParams,
    gaussian_density,
    make_forcing,
    make_grid,
    measure_constants,
    scale_to_norm,
    solve_system,
)


def interior_solve(mult, f0, constants):
    f = scale_to_norm(f0, mult * constants.threshold)
    try:
        rep = solve_system(f, f, constants, opts=MinimizeOpts(max_iter=4000))
    except Exception:
        return False, None
    return rep.converged and not rep.boundary_active, rep


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--alpha", type=float, default=2.0)
    ap.add_argument("--beta", type=float, default=2.0)
    ap.add_argument("--s", type=float, default=0.25)
    ap.add_argument("--grid-size", type=int, default=256)
    ap.add_argument("--box-length", type=float, default=40.0)
    ap.add_argument("--bisection-steps", type=int, default=12)
    args = ap.parse_args()

    grid = make_grid(1, args.grid_size, args.box_length)
    params = SystemParams(1, args.s, args.alpha, args.beta, 1)
    constants = measure_constants(grid, params, opts=MinimizeOpts(tol=1e-10, max_iter=5000))
    f0 = make_forcing(gaussian_density(grid, width=2.0), params)
    print(f"threshold d = {constants.threshold:.6f}, radius r = {constants.radius:.6f}")

    lo, hi = 1.0, 2.0
    ok, rep = interior_solve(lo, f0, constants)
    if not ok:
        print("interior certificate already fails at d itself (unexpected)")
        return
    while True:
        ok, rep = interior_solve(hi, f0, constants)
        if not ok:
            break
        lo = hi
        hi *= 2.0
        if hi > 64:
            print(f"still interior at {lo} * d; stopping the doubling")
            return
    for _ in range(args.bisection_steps):
        mid = 0.5 * (lo + hi)
        ok, rep = interior_solve(mid, f0, constants)
        if ok:
            lo = mid
        else:
            hi = mid
    print(
        f"interior minimizer holds up to ~{lo:.3f} * d and fails by {hi:.3f} * d "
        f"(empirical margin on this grid, no sharpness claim)"
    )


if __name__ == "__main__":
    main()

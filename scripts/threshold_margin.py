#!/usr/bin/env python3
"""Empirical margin of the data-smallness threshold.

    python scripts/threshold_margin.py CONFIG [--bisection-steps 12]

The sufficient threshold d guarantees an interior minimizer but is not
claimed sharp.  This probe scales CONFIG's forcings f and g, both to the
same multiple of d in place of their fractions of d, upward by bisection
until the interior certificate fails (projection active at termination or
the ball fraction reaches the projection radius), and reports the failure
point as a multiple of d.  No sharpness claim: just the observed margin on
this grid.
"""

import argparse
import dataclasses
import sys

from fracsys import ConvergenceError, measure_constants, solve_system
from fracsys.cli import parse_config_file


def interior_solve(cfg, mult, constants):
    """Whether the solve with both forcings at mult * d converges with the
    projection inactive.  A numerical failure, which `fracsys` maps to
    exit 1, counts as a failed certificate; any other error propagates."""
    scaled = dataclasses.replace(cfg, f_fraction_of_d=mult, g_fraction_of_d=mult)
    f, g = scaled.forcings(constants.grid, constants.params, constants)
    try:
        rep = solve_system(f, g, constants, opts=cfg.opts())
    except (ConvergenceError, FloatingPointError, ValueError):
        return False
    return rep.converged and not rep.boundary_active


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config", help="KEY = VALUE config file")
    ap.add_argument("--bisection-steps", type=int, default=12)
    args = ap.parse_args(argv)
    cfg = parse_config_file(args.config)
    constants = measure_constants(cfg.grid(), cfg.params(), opts=cfg.constants_opts())
    print(f"threshold d = {constants.threshold:.6f}, radius r = {constants.radius:.6f}")

    lo, hi = 1.0, 2.0
    if not interior_solve(cfg, lo, constants):
        print("interior certificate already fails at d itself (unexpected)")
        return 0
    while interior_solve(cfg, hi, constants):
        lo, hi = hi, 2.0 * hi
        if hi > 64:
            print(f"still interior at {lo} * d; stopping the doubling")
            return 0
    for _ in range(args.bisection_steps):
        mid = 0.5 * (lo + hi)
        if interior_solve(cfg, mid, constants):
            lo = mid
        else:
            hi = mid
    print(
        f"interior minimizer holds up to ~{lo:.3f} * d and fails by {hi:.3f} * d "
        f"(empirical margin on this grid, no sharpness claim)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

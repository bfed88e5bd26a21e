#!/usr/bin/env python3
"""The forced problem's small-data diagnostics, from the library API.

    python scripts/solve_demo.py CONFIG

Measures the constants of CONFIG's problem and builds its forcings f and g
as `fracsys solve --config CONFIG` does; that command writes the solve's
fields, report and trace.  Then it runs two diagnostics of its own and
writes them to the config's output directory:

  sign_scan.csv         the energy along t (f + 1e-9, g + 1e-9), the
                        densities as given, for small t of either sign
  small_data_curve.csv  the solves at 1e-1, 1e-2 and 1e-3 of d against
                        the linear response
"""

import argparse
import sys
from pathlib import Path

from fracsys import Field, measure_constants, neumann_series_sanity, small_t_sign_scan
from fracsys.cli import parse_config_file
from fracsys.fieldio import write_csv


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config", help="KEY = VALUE config file")
    args = ap.parse_args(argv)
    cfg = parse_config_file(args.config)
    params, grid = cfg.params(), cfg.grid()
    out = Path(cfg.output)
    out.mkdir(parents=True, exist_ok=True)

    constants = measure_constants(grid, params, opts=cfg.constants_opts())
    print(
        f"constants: S_scalar={constants.s_scalar:.6f} S_vector={constants.s_vector:.6f} "
        f"r={constants.radius:.6f} d={constants.threshold:.6f}"
    )
    f, g = cfg.forcings(grid, params, constants)

    u, v = (Field(grid, cfg.density(which, grid).values + 1e-9) for which in "fg")
    scan = small_t_sign_scan(u, v, f, g, params, [-1e-3, -1e-4, 1e-4, 1e-3])
    write_csv(out / "sign_scan.csv", ["t", "energy"], scan.rows())
    print("sign scan ok:", scan.ok)

    d = constants.threshold
    curve = neumann_series_sanity([1e-1 * d, 1e-2 * d, 1e-3 * d], f, g, constants, opts=cfg.opts())
    write_csv(
        out / "small_data_curve.csv",
        ["t", "pair_norm", "norm_over_t", "ratio_to_linear"],
        curve["rows"],
    )
    print(
        f"small-data: monotone={curve['monotone_in_t']} "
        f"linear ratio={curve['small_t_linear_ratio']:.6f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run verify's checks on one config for a range of probe seeds.

    python scripts/verify_seed_scan.py CONFIG FIRST COUNT

Reads CONFIG, a KEY = VALUE file as the `verify` command reads it (its
seed and output are not used), measures the constants once, and runs
`run_all_checks` in this process for each seed FIRST .. FIRST+COUNT-1.
It prints one row per check, in the suite's order: the number of seeds at
which the check failed, and its worst detail with that detail's seed: the
first failing one, or else the first, of the largest figure named in
FIGURES.  The checks not named there read the same at every seed.  Exits 1
when any check failed at any seed, else 0.

The cold vector descent of `run_all_checks` does not depend on the seed,
and its fields are read-only, so the scan runs it once: it rebinds
`fracsys.verify.minimize_quotient` to a cache for the scan and puts it
back.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

from fracsys import verify
from fracsys.cli import parse_config_file
from fracsys.constants import measure_constants
from fracsys.verify import run_all_checks

# the number in each randomized check's detail that grows toward failure
FIGURES = {
    "gradient_consistency": "max scaled error",
    "hessian_positivity": "extremal slack",
    "ratio_identity": "relative error",
}


def badness(result):
    """Sort key of a result: a failure ranks above a pass, then the larger
    figure above the smaller."""
    label = FIGURES.get(result.name)
    match = label and re.search(re.escape(label) + r" ([-+.0-9eE]+)", result.detail)
    return (not result.passed, float(match.group(1)) if match else 0.0)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config")
    ap.add_argument("first", type=int)
    ap.add_argument("count", type=int)
    args = ap.parse_args(argv)
    cfg = parse_config_file(args.config)
    constants = measure_constants(cfg.grid(), cfg.params(), opts=cfg.constants_opts())
    failures, worst = {}, {}
    descent = verify.minimize_quotient
    verify.minimize_quotient = functools.cache(descent)
    try:
        for seed in range(args.first, args.first + args.count):
            for result in run_all_checks(constants, seed=seed):
                name, key = result.name, badness(result)
                failures[name] = failures.get(name, 0) + (not result.passed)
                if name not in worst or key > worst[name][0]:
                    worst[name] = (key, seed, result.detail)
    finally:
        verify.minimize_quotient = descent
    for name, count in failures.items():
        _, seed, detail = worst[name]
        print(f"{name}: {count} of {args.count} failed; worst at seed {seed}: {detail}")
    return 1 if any(failures.values()) else 0


if __name__ == "__main__":
    sys.exit(main())

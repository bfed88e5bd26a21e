#!/usr/bin/env python3
"""Wall time, page faults and traced memory of one command, phase by phase.

    python scripts/alloc_report.py CONFIG COMMAND

Runs `fracsys.cli.main([COMMAND, "--config", CONFIG])` in this process and
prints one row per phase:

  constants  measure_constants
  forcing    build_density, make_forcing, scale_to_norm
  solve      solve_system
  io         save_field, dump_json, write_csv

and a row for the whole command.  Each row gives the calls, the wall time,
the minor page faults (`getrusage`) and the `tracemalloc` peak above the
memory traced when the phase began, in MB.  A minor fault is the kernel
handing the process a fresh zeroed page, so an array that is allocated and
freed again on every iteration shows up here, while one that is written in
place does not.  The wall times include tracemalloc's own cost.

The script only observes: it rebinds the phase functions in `fracsys.cli`
for the one run and puts them back.
"""

from __future__ import annotations

import argparse
import functools
import resource
import sys
import time
import tracemalloc

PHASES = {
    "constants": ("measure_constants",),
    "forcing": ("build_density", "make_forcing", "scale_to_norm"),
    "solve": ("solve_system",),
    "io": ("save_field", "dump_json", "write_csv"),
}


def _faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Meter:
    """Per-phase totals; a call made inside another phase's call counts
    for the outer phase only."""

    def __init__(self):
        self.rows = {name: [0, 0.0, 0, 0] for name in [*PHASES, "command"]}
        self._active = False
        self._top = 0  # the highest traced memory seen, across peak resets

    def measure(self, phase, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._active:
                return fn(*args, **kwargs)
            self._active = True
            try:
                return self.run(phase, fn, *args, **kwargs)
            finally:
                self._active = False

        return wrapper

    def run(self, phase, fn, *args, **kwargs):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        faults, start = _faults(), time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            row = self.rows[phase]
            row[0] += 1
            row[1] += time.perf_counter() - start
            row[2] += _faults() - faults
            peak = tracemalloc.get_traced_memory()[1]
            self._top = max(self._top, peak)
            # the command spans the phases, whose resets hid its earlier peaks
            row[3] = max(row[3], (self._top if phase == "command" else peak) - base)

    def table(self):
        lines = [f"{'phase':<10} {'calls':>5} {'wall_s':>9} {'minflt':>9} {'peak_mb':>9}"]
        for name, (calls, wall, faults, peak) in self.rows.items():
            lines.append(f"{name:<10} {calls:>5} {wall:>9.3f} {faults:>9} {peak / 2**20:>9.1f}")
        return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config", help="KEY = VALUE config file")
    ap.add_argument("command", help="a fracsys command, e.g. solve")
    args = ap.parse_args(argv)

    from fracsys import cli

    meter = Meter()
    saved = {}
    for phase, names in PHASES.items():
        for name in names:
            saved[name] = getattr(cli, name)
            setattr(cli, name, meter.measure(phase, saved[name]))
    tracemalloc.start()
    try:
        code = meter.run("command", cli.main, [args.command, "--config", args.config])
    finally:
        tracemalloc.stop()
        for name, fn in saved.items():
            setattr(cli, name, fn)
    print(meter.table())
    print(f"exit {code}")
    return code


if __name__ == "__main__":
    sys.exit(main())

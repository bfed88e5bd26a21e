"""Print the baseline tables (markdown) from saved benchmark results.

    python3 perfbench/table.py

Every run of perfbench/run.py saves its result line to
perfbench/_work/results/<workload>-seed<n>-trace<0|1>.json.  This prints the
median over the saved runs of each workload: one table of end-to-end metrics
(--trace 0 runs) and one of the per-layer counts and times (--trace 1 runs).
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from collections import defaultdict
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "_work" / "results"
NAME = re.compile(r"(?P<workload>.+)-seed(?P<seed>-?\d+)-trace(?P<trace>[01])\.json$")

END_TO_END = (
    "setup_s", "run_s", "solve_s", "op_p50_s", "op_p90_s", "configs_per_s", "peak_rss_mb",
)
LAYERS = (
    ("constants.quotient_iters.scalar", "quotient iters (scalar)"),
    ("constants.quotient_iters.vector", "quotient iters (vector)"),
    ("constants.minimize_quotient.per_problem", "quotient runs per problem"),
    ("solve.iterations", "solver iters"),
    ("fft.per_solver_iter", "FFTs per solver iter"),
    ("fft.per_quotient_iter", "FFTs per quotient iter"),
    ("constants.minimize_quotient.vector_s", "vector quotient s"),
    ("solve.solve_system_s", "solve loop s"),
    ("fieldio.save_field_s", "save_field s"),
    ("cli.overhead_s", "CLI overhead per command s"),
    ("trace.overhead_s", "tracing overhead per round s"),
)


def load():
    runs = defaultdict(list)
    for path in sorted(RESULTS.glob("*.json")):
        m = NAME.match(path.name)
        if m:
            runs[(m["workload"], int(m["trace"]))].append(json.loads(path.read_text()))
    return runs


def median(runs, key):
    values = [r["metrics"][key]["value"] for r in runs if r["metrics"].get(key, {}).get("value") is not None]
    return statistics.median(values) if values else float("nan")


def main():
    runs = load()
    workloads = sorted({w for w, _ in runs})
    print("| workload | runs | " + " | ".join(END_TO_END) + " |")
    print("|---" * (len(END_TO_END) + 2) + "|")
    for w in workloads:
        rs = runs.get((w, 0), [])
        if rs:
            cells = [f"{median(rs, k):.4g}" for k in END_TO_END]
            print(f"| {w} | {len(rs)} | " + " | ".join(cells) + " |")
    print()
    print("| workload | traced runs | " + " | ".join(label for _, label in LAYERS) + " |")
    print("|---" * (len(LAYERS) + 2) + "|")
    for w in workloads:
        rs = runs.get((w, 1), [])
        if rs:
            cells = [f"{median(rs, k):.4g}" for k, _ in LAYERS]
            print(f"| {w} | {len(rs)} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())

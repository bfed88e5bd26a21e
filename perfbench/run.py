"""fracsys benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/`.  With --trace 0 the workload's rounds repeat until they have taken
S seconds, and the last stdout line is the end-to-end result.  With --trace 1 a
fixed number of rounds runs once untraced and once traced, and the result
holds the per-layer metrics and the tracing overhead.  Every output is then
checked by perfbench/checks.py; a failed check is reported on stderr,
`correct` is false and the exit code is 1.  A metric that has no sample
(every operation it times failed) is reported as null, and the exit code is 1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# one thread for any BLAS/OpenMP pool, set before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"
# set-up samples per run, spread over the run so that a few slow seconds of
# the machine weigh on a few samples, not on all of them
SETUP_SAMPLES = 15

SETUP_CODE = """\
import time
t0 = time.perf_counter()
import fracsys
grid = fracsys.make_grid({0}, {1}, {2!r})
grid.coord_mesh, grid.freq_sq_mesh
print(time.perf_counter() - t0)
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here: no fracsys package in this checkout."""


def import_fracsys():
    if not (SRC / "fracsys" / "__init__.py").is_file():
        raise BenchError(f"no fracsys package under {SRC}")
    sys.path.insert(0, str(SRC))
    import fracsys
    import fracsys.cli

    if Path(fracsys.__file__).resolve().parent != (SRC / "fracsys").resolve():
        raise BenchError(f"imported fracsys from {fracsys.__file__}, not from {SRC}")
    return fracsys


def sample_setup(first_grid, times, until):
    """Append set-up times until there are `until`; each is one fresh process
    that imports fracsys and builds the first grid."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = SETUP_CODE.format(*first_grid)
    while len(times) < until:
        out = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))


# ---------------------------------------------------------------------------
# operations


def run_step(fracsys, step, outdir, cfg_path):
    """Run one operation; returns a record with its wall time and outcome."""
    rec = {"step": step, "ok": False}
    if step.startswith("load:"):
        path = outdir / f"{step[5:]}.csv"
        t0 = time.perf_counter()
        try:
            field = fracsys.load_field(path)
            rec["ok"] = True
        except (OSError, ValueError) as exc:
            print(f"operation failed: load_field({path}): {exc}", file=sys.stderr)
        rec["s"] = time.perf_counter() - t0
        if rec["ok"]:
            g = field.grid
            rec["grid"] = (g.dimension, g.points_per_axis, g.box_length)
            rec["digest"] = checks.field_digest(field.values)
        return rec
    captured = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            code = fracsys.cli.main([step, "--config", str(cfg_path)])
    except Exception:  # a crash is a failed operation; the run goes on
        traceback.print_exc()
        code = None
    rec["s"] = time.perf_counter() - t0
    rec["ok"] = code == 0
    if not rec["ok"]:
        print(f"operation failed: {step} {cfg_path} exit {code}\n{captured.getvalue()}", file=sys.stderr)
    return rec


def run_round(fracsys, units, rdir):
    """Write the round's configs, then run every step; returns the units with
    their op records."""
    prepared = []
    for i, (cfg, steps) in enumerate(units):
        outdir = rdir / f"c{i}"
        outdir.mkdir(parents=True)
        cfg_path = outdir / "run.cfg"
        cfg_path.write_text(config_text(cfg, outdir))
        prepared.append((cfg, steps, outdir, cfg_path))
    done = []
    for cfg, steps, outdir, cfg_path in prepared:
        ops = [run_step(fracsys, step, outdir, cfg_path) for step in steps]
        done.append((cfg, outdir, ops))
    return done


def check_unit(cfg, outdir, ops):
    """Independent checks of every successful operation of one config."""
    by_step = {op["step"]: op for op in ops if op["ok"]}
    s_scalar = None
    if "constants" in by_step:
        s_scalar = checks.check_constants(cfg, outdir)["s_scalar"]
    if "solve" in by_step:
        fields = {n: checks.read_field(outdir / f"{n}.csv") for n in ("u_bar", "v_bar")}
        checks.check_solve(cfg, outdir, [fields["u_bar"], fields["v_bar"]])
        if s_scalar is None:
            s_scalar = checks.read_json(outdir / "solve_report.json")["constants"]["s_scalar"]
        for step, op in by_step.items():
            if step.startswith("load:"):
                checks.check_load(fields[step[5:]], op["digest"], op["grid"])
    if "ground-state" in by_step:
        checks.check_ground_state(cfg, outdir, s_scalar)
    if "bubble" in by_step:
        checks.check_bubble(cfg, outdir)
    if "verify" in by_step:
        checks.check_verify(outdir)


# ---------------------------------------------------------------------------
# metrics


def _median(values):
    """Median, or None when there is no sample."""
    return statistics.median(values) if values else None


def end_to_end(rounds, setup_times):
    ops = [op for units in rounds for _, _, unit_ops in units for op in unit_ops]
    ok = [op for op in ops if op["ok"]]
    commands = [op["s"] for op in ok if not op["step"].startswith("load:")]
    solves = [op["s"] for op in ok if op["step"] == "solve"]
    round_s = [sum(op["s"] for _, _, u in units for op in u) for units in rounds]
    # the typical command of a round: on the 2-D lab a run-wide median would
    # fall in the gap between the constants and the solve times
    round_p50 = [
        _median([op["s"] for _, _, u in units for op in u if op["ok"] and not op["step"].startswith("load:")])
        for units in rounds
    ]
    n_configs = sum(len(units) for units in rounds)
    samples = {
        "rounds": len(round_s), "commands": len(commands), "solves": len(solves),
        "setups": len(setup_times),
    }
    metrics = {
        "setup_s": (_median(setup_times), "s"),
        "run_s": (_median(round_s), "s"),
        "solve_s": (_median(solves), "s"),
        "op_p50_s": (_median([p for p in round_p50 if p is not None]), "s"),
        "op_p90_s": (float(np.percentile(commands, 90)) if commands else None, "s"),
        "configs_per_s": (n_configs / sum(round_s), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, samples


def run_workload(fracsys, name, seed, seconds, trace, workdir):
    build_round, first_grid, trace_rounds = WORKLOADS[name]
    rounds = []
    if not trace:
        # the clock counts operation rounds only; set-up samples are taken
        # between rounds, as many as are due at that point of the run
        setup_times = []
        measured = 0.0
        while not rounds or measured < seconds:
            due = min(SETUP_SAMPLES, 1 + int(SETUP_SAMPLES * measured / seconds))
            sample_setup(first_grid, setup_times, due)
            i = len(rounds)
            start = time.perf_counter()
            rounds.append(run_round(fracsys, build_round(seed, i), workdir / f"r{i}"))
            measured += time.perf_counter() - start
        sample_setup(first_grid, setup_times, SETUP_SAMPLES)
        metrics, samples = end_to_end(rounds, setup_times)
        tracer = None
    else:
        for i in range(trace_rounds):
            rounds.append(run_round(fracsys, build_round(seed, i), workdir / f"u{i}"))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for i in range(trace_rounds):
                rounds.append(run_round(fracsys, build_round(seed, i), workdir / f"t{i}"))
        finally:
            tracer.uninstall()
        per_round = [sum(op["s"] for _, _, u in units for op in u) for units in rounds]
        metrics = tracing.layer_metrics(tracer.spans, sum(per_round[trace_rounds:]))
        metrics["trace.run_s_untraced"] = (sum(per_round[:trace_rounds]) / trace_rounds, "s")
        metrics["trace.run_s_traced"] = (sum(per_round[trace_rounds:]) / trace_rounds, "s")
        # per round; the difference of the two times above is mostly machine
        # noise at these round lengths, so the cost is measured per span
        span_s, fft_span_s = tracing.span_costs()
        n_fft = sum(1 for sp in tracer.spans if sp[0].startswith("fft."))
        overhead = ((len(tracer.spans) - n_fft) * span_s + n_fft * fft_span_s) / trace_rounds
        metrics["trace.overhead_s"] = (overhead, "s")
        samples = {
            "rounds": trace_rounds, "spans": len(tracer.spans),
            "span_us": round(span_s * 1e6, 3), "fft_span_us": round(fft_span_s * 1e6, 3),
        }

    failures = []
    for units in rounds:
        for cfg, outdir, ops in units:
            try:
                check_unit(cfg, outdir, ops)
            except (checks.CheckFailure, KeyError, TypeError, ValueError, OSError) as exc:
                failures.append(f"{outdir}: {type(exc).__name__}: {exc}")
    ops = [op for units in rounds for _, _, unit_ops in units for op in unit_ops]
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if not op["ok"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, failures, samples, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        fracsys = import_fracsys()
    except (BenchError, ImportError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result, failures, samples, tracer = run_workload(
            fracsys, args.workload, args.seed, args.seconds, args.trace, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in failures:
        print(f"CHECK FAILED {msg}", file=sys.stderr)
    missing = [k for k, m in result["metrics"].items() if m["value"] is None]
    if missing:
        print(f"no sample for {', '.join(missing)}: every operation they time failed", file=sys.stderr)
    print(f"{tag}: {result['attempted']} operations, {result['failed']} failed, samples {samples}", file=sys.stderr)
    for key, m in result["metrics"].items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {key} = {value} {m['unit']}", file=sys.stderr)
    for sub in ("results", "traces"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{tag}.json").write_text(json.dumps(result) + "\n")
    if tracer is not None:
        tracer.dump(WORK / "traces" / f"{tag}.jsonl")
    print(json.dumps(result))
    return 0 if result["correct"] and not missing else 1


if __name__ == "__main__":
    sys.exit(main())

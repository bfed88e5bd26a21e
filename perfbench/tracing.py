"""Span tracing of fracsys from outside the package, and the per-layer metrics.

`Tracer.install` wraps every public function of every fracsys module, at each
name it is bound to (a function imported by name into another module, or
held in a dispatch table such as `cli._COMMANDS`, is rebound too), and the
`numpy.fft` transforms.  A wrapped call appends one span
`[name, start, end, parent, info]` to an in-memory list; `uninstall` puts the
originals back.  Nothing is wrapped unless a traced run asks for it.

`fieldio.fmt` is left unwrapped: it formats one number and runs once per grid
value, so a span per call would swamp the trace.  Its time is part of the
self time of `fieldio.save_field`, `dump_json` and `write_csv`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import time
from collections import defaultdict

import numpy as np

from checks import VERIFY_ROWS

LAYERS = (
    "grids",
    "forcing",
    "energy",
    "constants",
    "profiles",
    "solve",
    "verify",
    "cli",
    "fieldio",
    "options",
)
UNWRAPPED = {"fieldio.fmt"}
FFT_FUNCS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _fft_info(args, kwargs, out):
    a = np.asarray(args[0])
    return {"points": int(a.size), "bytes": int(a.nbytes + np.asarray(out).nbytes)}


def _quotient_info(args, kwargs, out):
    grid, params = _arg(args, kwargs, 0, "grid"), _arg(args, kwargs, 1, "params")
    return {
        "mode": _arg(args, kwargs, 2, "mode", "scalar"),
        "iterations": int(out.iterations),
        "problem": repr((grid, params)),
    }


def _solve_info(args, kwargs, out):
    return {"iterations": int(out.iterations)}


def _file_size(index, name):
    def info(args, kwargs, out):
        return {"bytes": os.path.getsize(_arg(args, kwargs, index, name))}

    return info


INFO = {
    "constants.minimize_quotient": _quotient_info,
    "solve.solve_system": _solve_info,
    "fieldio.save_field": _file_size(1, "path"),
    "fieldio.load_field": _file_size(0, "path"),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, out)
            return out

        return wrapper

    def install(self):
        modules = [importlib.import_module(f"fracsys.{m}") for m in LAYERS]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or name in UNWRAPPED
                ):
                    continue
                wrappers[id(obj)] = self._wrap(name, obj, INFO.get(name))
        for attr in FFT_FUNCS:
            fn = getattr(np.fft, attr)
            wrappers[id(fn)] = self._wrap(f"fft.{attr}", fn, _fft_info)
        for owner in [importlib.import_module("fracsys"), *modules, np.fft]:
            for attr, obj in list(vars(owner).items()):
                if id(obj) in wrappers:
                    self._patches.append((owner, attr, obj))
                    setattr(owner, attr, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in wrappers:
                            self._patches.append((obj, key, value))
                            obj[key] = wrappers[id(value)]

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent, info."""
        with open(path, "w") as fh:
            for name, start, end, parent, info in self.spans:
                fh.write(json.dumps([name, start, end, parent, info]) + "\n")


def span_costs(calls=10000, repeats=5):
    """Seconds one traced call adds, for a plain span and for an FFT span.

    Times `calls` calls of a no-op through a tracer's wrapper against the
    bare no-op, and an FFT wrapper (which also reads array sizes) on a
    one-point array against the bare transform; the median over `repeats`.
    """

    def noop(*args):
        return None

    def per_call(fn, arg):
        start = time.perf_counter()
        for _ in range(calls):
            fn(arg)
        return (time.perf_counter() - start) / calls

    tiny = np.zeros(1)
    costs = {"plain": [], "fft": []}
    for _ in range(repeats):
        tracer = Tracer()
        costs["plain"].append(per_call(tracer._wrap("noop", noop), tiny) - per_call(noop, tiny))
        tracer = Tracer()
        fft = tracer._wrap("fft.fft", np.fft.fft, _fft_info)
        costs["fft"].append(per_call(fft, tiny) - per_call(np.fft.fft, tiny))
    return statistics.median(costs["plain"]), statistics.median(costs["fft"])


# ---------------------------------------------------------------------------
# aggregation

_SOLVE, _QUOTIENT, _PROFILES = 1, 2, 4


def _scope(name):
    if name == "solve.solve_system":
        return _SOLVE
    if name == "constants.minimize_quotient":
        return _QUOTIENT
    if name.startswith("profiles."):
        return _PROFILES
    return 0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, traced_s):
    """Per-layer counts and times from one traced pass, as {name: (value, unit)}.

    A layer that some workloads never reach (profiles, verify, the Hessian,
    load_field) is reported as its share of the traced operation time
    ``traced_s``, so that it reads 0 there as a share, not as a time."""
    n = len(spans)
    # info is None on a call that raised; count it, but it has no result
    done = [sp for sp in spans if sp[4] is not None]
    covered = [0.0] * n
    scope = [0] * n
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            covered[parent] += end - start
            scope[i] = scope[parent] | _scope(spans[parent][0])
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start - covered[i]

    fft = [i for i, sp in enumerate(spans) if sp[0].startswith("fft.") and sp[4] is not None]
    in_solve = defaultdict(int)
    for i, sp in enumerate(spans):
        if scope[i] & _SOLVE:
            in_solve[sp[0]] += 1
    solve_iters = sum(sp[4]["iterations"] for sp in done if sp[0] == "solve.solve_system")
    quotients = [sp for sp in done if sp[0] == "constants.minimize_quotient"]
    q_iters = {"scalar": 0, "vector": 0}
    q_time = {"scalar": 0.0, "vector": 0.0}
    for sp in quotients:
        q_iters[sp[4]["mode"]] += sp[4]["iterations"]
        q_time[sp[4]["mode"]] += sp[2] - sp[1]
    problems = {sp[4]["problem"] for sp in quotients}

    m = {}
    m["fft.calls"] = (len(fft), "count")
    m["fft.per_solver_iter"] = (_ratio(sum(1 for i in fft if scope[i] & _SOLVE), solve_iters), "count/iter")
    m["fft.per_quotient_iter"] = (
        _ratio(sum(1 for i in fft if scope[i] & _QUOTIENT), sum(q_iters.values())),
        "count/iter",
    )
    m["fft.points"] = (sum(spans[i][4]["points"] for i in fft), "count")
    m["fft.bytes_computed"] = (sum(spans[i][4]["bytes"] for i in fft), "bytes")
    m["fft.self_s"] = (sum(self_s[f"fft.{f}"] for f in FFT_FUNCS), "s")
    for fn in ("regime_multiplier", "multiplier_quad", "apply_multiplier", "pair_norm"):
        m[f"grids.{fn}.calls"] = (calls[f"grids.{fn}"], "count")
        m[f"grids.{fn}.self_s"] = (self_s[f"grids.{fn}"], "s")

    m["constants.minimize_quotient.calls"] = (len(quotients), "count")
    m["constants.minimize_quotient.per_problem"] = (_ratio(len(quotients), len(problems)), "count")
    m["constants.quotient_iters.scalar"] = (q_iters["scalar"], "count")
    m["constants.quotient_iters.vector"] = (q_iters["vector"], "count")
    m["constants.minimize_quotient.scalar_s"] = (q_time["scalar"], "s")
    m["constants.minimize_quotient.vector_s"] = (q_time["vector"], "s")
    m["constants.s_per_quotient_iter"] = (
        _ratio(total["constants.minimize_quotient"], sum(q_iters.values())),
        "s/iter",
    )

    m["solve.solve_system_s"] = (total["solve.solve_system"], "s")
    m["solve.iterations"] = (solve_iters, "count")
    m["solve.s_per_iter"] = (_ratio(total["solve.solve_system"], solve_iters), "s/iter")
    for fn, key in (("energy", "energy.energy"), ("gradient", "energy.gradient"), ("pair_norm", "grids.pair_norm")):
        m[f"solve.{fn}_calls_per_iter"] = (_ratio(in_solve[key], solve_iters), "count/iter")

    for key in (
        "energy.energy",
        "energy.gradient",
        "forcing.make_forcing",
        "forcing.scale_to_norm",
    ):
        m[f"{key}.calls"] = (calls[key], "count")
        m[f"{key}.self_s"] = (self_s[key], "s")
    m["energy.hessian_quadform.calls"] = (calls["energy.hessian_quadform"], "count")
    m["energy.hessian_quadform.share"] = (_ratio(self_s["energy.hessian_quadform"], traced_s), "share")

    for fn in ("subcritical_ground_state", "talenti_bubble"):
        m[f"profiles.{fn}.share"] = (_ratio(total[f"profiles.{fn}"], traced_s), "share")
    m["profiles.fft_calls"] = (sum(1 for i in fft if scope[i] & _PROFILES), "count")

    for check in VERIFY_ROWS:
        m[f"verify.{check}.share"] = (_ratio(total[f"verify.check_{check}"], traced_s), "share")

    m["fieldio.save_field_s"] = (total["fieldio.save_field"], "s")
    m["fieldio.load_field.share"] = (_ratio(total["fieldio.load_field"], traced_s), "share")
    for fn in ("save_field", "load_field"):
        m[f"fieldio.{fn}_bytes"] = (
            sum(sp[4]["bytes"] for sp in done if sp[0] == f"fieldio.{fn}"),
            "bytes",
        )
    m["fieldio.dump_json_s"] = (total["fieldio.dump_json"], "s")
    m["fieldio.write_csv_s"] = (total["fieldio.write_csv"], "s")

    cli_self = sum(v for k, v in self_s.items() if k.startswith("cli."))
    m["cli.overhead_s"] = (_ratio(cli_self, calls["cli.main"]), "s")
    return m

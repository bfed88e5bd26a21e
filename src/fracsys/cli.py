"""Config-driven command line: constants | bubble | ground-state | solve | verify.

Configs are flat KEY = VALUE text files; command-line flags override file
values, and every report embeds the fully resolved configuration.  Exit
status: 0 all good, 1 numerical failure, 2 bad configuration.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .constants import ConstantsReport, coercivity_sweep, measure_constants
from .fieldio import dump_json, fmt, save_field, write_csv
from .forcing import build_density, make_forcing, scale_to_norm
from .grids import SystemParams, make_grid, from_powers
from .options import ConfigError, ConvergenceError, MinimizeOpts
from .profiles import (
    BubbleParams,
    decay_exponent_fit,
    ground_state_residual,
    subcritical_ground_state,
    talenti_bubble,
)
from .solve import positivity_check, residual, solve_system
from .verify import run_all_checks

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2


@dataclass
class ExperimentConfig:
    dimension: int = 1
    s: float = 0.25
    alpha: float = 2.0
    beta: float = 2.0
    gamma: int = -1  # -1 = infer from alpha+beta against the critical exponent
    grid_size: int = 64
    box_length: float = 40.0
    tol: float = 1e-8
    max_iter: int = 10000
    seed: int = 0
    output: str = "out"
    # forcing constructors; fraction_of_d scales to that fraction of the
    # measured smallness threshold
    f_kind: str = "gaussian"
    f_center: float = 0.0
    f_width: float = 2.0
    f_radius: float = 1.0
    f_mode: int = 1
    f_amplitude: float = 1.0
    f_fraction_of_d: float = 0.5
    g_kind: str = "gaussian"
    g_center: float = 0.0
    g_width: float = 2.0
    g_radius: float = 1.0
    g_mode: int = 1
    g_amplitude: float = 1.0
    g_fraction_of_d: float = 0.5
    # bubble profile
    bubble_lambda: float = 1.0
    bubble_normalization: float = 1.0
    # sweep
    sweep_pairs: int = 0

    _MINIMUM = {
        "tol": 0.0, "max_iter": 1, "seed": 0,
        "f_fraction_of_d": 0.0, "g_fraction_of_d": 0.0, "sweep_pairs": 0,
    }

    def set(self, key, raw):
        """Convert raw to the type of key's default and check it."""
        field = self.__dataclass_fields__.get(key)
        if field is None:
            raise ConfigError(f"unknown config key {key!r}")
        value = type(field.default)(raw)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {raw!r}")
        if key in self._MINIMUM and value < self._MINIMUM[key]:
            raise ConfigError(f"{key} must be at least {self._MINIMUM[key]}, got {raw!r}")
        if key == "gamma" and value not in (-1, 0, 1):
            raise ConfigError(f"gamma must be -1 (infer), 0 or 1, got {raw!r}")
        setattr(self, key, value)

    def as_dict(self):
        """The fully resolved config: an inferred gamma appears as the
        regime it resolves to."""
        out = {k: getattr(self, k) for k in self.__dataclass_fields__}
        out["gamma"] = self.params().gamma
        return out

    def params(self):
        if self.alpha <= 1.0 or self.beta <= 1.0:
            raise ConfigError(
                f"violated invariant alpha > 1 and beta > 1: got alpha={self.alpha}, beta={self.beta}"
            )
        if self.gamma == -1:
            return from_powers(self.dimension, self.s, self.alpha, self.beta)
        return SystemParams(self.dimension, self.s, self.alpha, self.beta, self.gamma)

    def grid(self):
        return make_grid(self.dimension, self.grid_size, self.box_length)

    def opts(self):
        return MinimizeOpts(tol=self.tol, max_iter=self.max_iter)

    def constants_opts(self):
        """Quotient options of every command that measures constants: the
        quotient tolerance is never looser than 1e-8."""
        return MinimizeOpts(tol=min(self.tol, 1e-8), max_iter=self.max_iter)

    def density(self, which, grid):
        kind = getattr(self, f"{which}_kind")
        kw = {"amplitude": getattr(self, f"{which}_amplitude")}
        center = [getattr(self, f"{which}_center")] * grid.dimension
        if kind == "gaussian":
            kw.update(center=center, width=getattr(self, f"{which}_width"))
        elif kind == "indicator":
            kw.update(center=center, radius=getattr(self, f"{which}_radius"))
        elif kind == "mode":
            kw.update(k=getattr(self, f"{which}_mode"))
        return build_density(grid, kind, **kw)

    def forcings(self, grid, params, constants):
        """f and g made forcings for params, each scaled to its fraction of d when positive."""
        f = make_forcing(self.density("f", grid), params)
        g = make_forcing(self.density("g", grid), params)
        if self.f_fraction_of_d > 0:
            f = scale_to_norm(f, self.f_fraction_of_d * constants.threshold)
        if self.g_fraction_of_d > 0:
            g = scale_to_norm(g, self.g_fraction_of_d * constants.threshold)
        return f, g


def _set(cfg, where, key, raw):
    try:
        cfg.set(key, raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_config_file(path):
    cfg = ExperimentConfig()
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected KEY = VALUE, got {line!r}")
        key, _, raw = stripped.partition("=")
        _set(cfg, f"{path}:{lineno}", key.strip(), raw.strip())
    return cfg


# config keys that a command-line flag, the key with dashes for underscores,
# can override; the flag's value is parsed and checked like a file line
_FLAG_KEYS = (
    "dimension", "s", "alpha", "beta", "grid_size", "box_length",
    "tol", "max_iter", "output", "seed",
)


def _flag(key):
    return "--" + key.replace("_", "-")


def build_config(args):
    cfg = parse_config_file(args.config) if args.config else ExperimentConfig()
    for key in _FLAG_KEYS:
        raw = getattr(args, key)
        if raw is not None:
            _set(cfg, _flag(key), key, raw)
    return cfg


def _outdir(cfg):
    out = Path(cfg.output)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"output = {cfg.output}: cannot create the directory ({exc.strerror})"
        ) from exc
    return out


# the config keys a constants measurement reads besides its options; gamma
# is compared as the regime it resolves to
_MEASURED_KEYS = ("dimension", "s", "alpha", "beta", "gamma", "grid_size", "box_length")


def _stored_constants(cfg, grid, params):
    """The report of ``<output>/constants.json`` if that file was measured
    for cfg's problem with cfg's quotient options and rebuilds to the report
    it stores, else None."""
    try:
        payload = json.loads((Path(cfg.output) / "constants.json").read_text())
        stored, row = payload["config"], payload["report"]
        current = cfg.as_dict()
        if any(stored[key] != current[key] for key in _MEASURED_KEYS):
            return None
        measured_with = ExperimentConfig(tol=stored["tol"], max_iter=stored["max_iter"])
        if measured_with.constants_opts() != cfg.constants_opts():
            return None
        report = ConstantsReport(
            float(row["s_scalar"]), float(row["s_vector"]), grid, params,
            int(row["scalar_iterations"]),
        )
    except (OSError, ValueError, TypeError, KeyError):
        return None
    # a 17-digit parse restores the measured floats, so the program's own
    # file rebuilds to every stored key, and an edited r or d does not
    return report if report.as_dict() == row else None


def _constants(cfg, grid, params):
    """The constants of cfg's problem: reused from the output directory's
    constants.json when it holds this measurement, else measured."""
    report = _stored_constants(cfg, grid, params)
    if report is None:
        report = measure_constants(grid, params, opts=cfg.constants_opts())
    return report


# ---------------------------------------------------------------------------
# subcommands


def cmd_constants(cfg):
    params = cfg.params()
    grid = cfg.grid()
    out = _outdir(cfg)
    report = measure_constants(grid, params, opts=cfg.constants_opts())
    row = report.as_dict()
    dump_json({"config": cfg.as_dict(), "report": row}, out / "constants.json")
    write_csv(out / "constants.csv", list(row), [list(row.values())])
    if cfg.sweep_pairs > 0:
        rows = coercivity_sweep(params, cfg.sweep_pairs)
        write_csv(
            out / "coercivity_sweep.csv",
            ["alpha", "beta", "ratio_formula", "coercivity_lhs"],
            rows,
        )
        if min(r[3] for r in rows) <= 2.0:
            print("sweep: coercivity margin dipped to 2 or below", file=sys.stderr)
            return EXIT_NUMERICAL
    print(
        f"constants: S_scalar={fmt(report.s_scalar)} S_vector={fmt(report.s_vector)} "
        f"ratio={fmt(report.ratio_measured)} (formula {fmt(report.ratio_formula)}) "
        f"r={fmt(report.radius)} d={fmt(report.threshold)}"
    )
    return EXIT_OK


def cmd_bubble(cfg):
    params = cfg.params()
    grid = cfg.grid()
    bubble = BubbleParams(lam=cfg.bubble_lambda, normalization=cfg.bubble_normalization)
    w = talenti_bubble(grid, params, bubble)
    out = _outdir(cfg)
    save_field(w, out / "bubble.csv")
    decay = decay_exponent_fit(w)
    meta = {
        "config": cfg.as_dict(),
        "lambda": cfg.bubble_lambda,
        "normalization": cfg.bubble_normalization,
        "decay_exponent_fit": decay,
        "expected_tail_exponent": params.dimension - 2.0 * params.s,
        "core_height": float(w.values.max()),
    }
    dump_json(meta, out / "bubble_meta.json")
    print(f"bubble: decay fit {fmt(decay)} (tail exponent N-2s = "
          f"{fmt(params.dimension - 2.0 * params.s)})")
    return EXIT_OK


def cmd_ground_state(cfg):
    params = cfg.params()
    grid = cfg.grid()
    opts = MinimizeOpts(tol=min(cfg.tol, 1e-6), max_iter=cfg.max_iter)
    w = subcritical_ground_state(grid, params, opts=opts)
    out = _outdir(cfg)
    save_field(w, out / "ground_state.csv")
    res = ground_state_residual(w, params)
    decay = decay_exponent_fit(w)
    meta = {
        "config": cfg.as_dict(),
        "residual": res,
        "decay_exponent_fit": decay,
        "expected_tail_exponent": params.dimension + 2.0 * params.s,
        "min_value": float(w.values.min()),
        "max_value": float(w.values.max()),
    }
    dump_json(meta, out / "ground_state_meta.json")
    print(
        f"ground-state: residual {fmt(res)}, decay fit {fmt(decay)} "
        f"(tail exponent N+2s = {fmt(params.dimension + 2.0 * params.s)})"
    )
    return EXIT_OK


def cmd_solve(cfg):
    params = cfg.params()
    grid = cfg.grid()
    out = _outdir(cfg)
    constants = _constants(cfg, grid, params)
    f, g = cfg.forcings(grid, params, constants)
    report = solve_system(f, g, constants, opts=cfg.opts())
    save_field(report.u_bar, out / "u_bar.csv")
    save_field(report.v_bar, out / "v_bar.csv")
    payload = {
        "config": cfg.as_dict(),
        "constants": constants.as_dict(),
        "report": report.scalars(),
        "positivity": positivity_check(report),
        "strong_residual": residual(report.u_bar, report.v_bar, f, g, params),
    }
    dump_json(payload, out / "solve_report.json")
    write_csv(
        out / "trace.csv",
        ["iter", "energy", "grad_norm", "ball_fraction"],
        report.trace,
    )
    print(
        f"solve: converged={report.converged} iters={report.iterations} "
        f"energy={fmt(report.energy)} grad={fmt(report.grad_norm)} "
        f"ball_fraction={fmt(report.ball_fraction)} distinctness={fmt(report.distinctness)}"
    )
    return EXIT_OK if report.converged else EXIT_NUMERICAL


def cmd_verify(cfg):
    params = cfg.params()
    grid = cfg.grid()
    constants = _constants(cfg, grid, params)
    results = run_all_checks(constants, seed=cfg.seed)
    out = _outdir(cfg)
    rows = [(r.name, "pass" if r.passed else "FAIL", r.detail) for r in results]
    write_csv(out / "verify.csv", ["check", "status", "detail"], rows)
    all_ok = True
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
        all_ok = all_ok and r.passed
    return EXIT_OK if all_ok else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ConfigError, which main maps to EXIT_CONFIG."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def make_parser():
    """The one parser of the process: parse_args keeps no state between
    calls, and building it costs more than a small command's parse."""
    parser = _Parser(
        prog="fracsys",
        description="Coupled fractional-system lab: constants, profiles, solves, checks.",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="KEY = VALUE config file")
    for key in _FLAG_KEYS:
        parser.add_argument(_flag(key), help=f"config key {key}")
    return parser


_COMMANDS = {
    "constants": cmd_constants,
    "bubble": cmd_bubble,
    "ground-state": cmd_ground_state,
    "solve": cmd_solve,
    "verify": cmd_verify,
}


def main(argv=None):
    try:
        args = make_parser().parse_args(argv)
        cfg = build_config(args)
        return _COMMANDS[args.command](cfg)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, FloatingPointError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

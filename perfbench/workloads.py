"""The benchmark's workloads: configs drawn from a seed, grouped into rounds.

A round is the unit a run repeats: a list of (config, steps).  A step is a
CLI command run in-process through `fracsys.cli.main`, or `load:<name>`, one
`fracsys.load_field` call on a field the config's `solve` wrote.  Every
round of a workload holds the same steps, so a fault that makes one step
fail fails the same share of every run.

Configs reach the program only as generated `KEY = VALUE` files.  `gamma` is
never written: fracsys infers the regime from alpha + beta, and the
benchmark keeps the regime it meant in its own record of the config.
"""

from __future__ import annotations

import numpy as np

SWEEP_S = (0.25, 0.35, 0.45)
SWEEP_CONFIGS_PER_ROUND = 8
# powers stay this far above 1 so u_+^(alpha-1) is no sharper than a
# square-root cusp at the edge of the support
POWER_MARGIN = 0.1
# gamma=1 draws alpha + beta from (SUBCRITICAL_MIN_TOTAL, critical).  On this
# box the ground state turns from the constant function into a localized
# profile at alpha + beta = 2.395 (s=0.25) and 2.274 (s=0.35), and the
# ground-state iteration stalls there (1 config in 4000 exited 1 after 10000
# passes); 2.5 keeps every draw clear of that band.
SUBCRITICAL_MIN_TOTAL = 2.5


def make_config(dimension, s, alpha, beta, gamma, grid_size, box_length, f_width, g_width, seed):
    return {
        "dimension": dimension,
        "s": s,
        "alpha": alpha,
        "beta": beta,
        "gamma": gamma,
        "grid_size": grid_size,
        "box_length": box_length,
        "f_width": f_width,
        "g_width": g_width,
        "fraction_of_d": 0.5,
        "tol": 1e-8,
        "seed": seed,
    }


def config_text(cfg, output):
    """The config file the program reads."""
    lines = [
        f"dimension = {cfg['dimension']}",
        f"s = {cfg['s']!r}",
        f"alpha = {cfg['alpha']!r}",
        f"beta = {cfg['beta']!r}",
        f"grid_size = {cfg['grid_size']}",
        f"box_length = {cfg['box_length']!r}",
        f"tol = {cfg['tol']!r}",
        f"seed = {cfg['seed']}",
        f"output = {output}",
    ]
    for which in ("f", "g"):
        lines += [
            f"{which}_kind = gaussian",
            f"{which}_center = 0.0",
            f"{which}_width = {cfg[which + '_width']!r}",
            f"{which}_fraction_of_d = {cfg['fraction_of_d']!r}",
        ]
    return "\n".join(lines) + "\n"


def critical_3d_round(seed, index):
    cfg = make_config(3, 0.5, 1.8, 1.2, 0, 64, 40.0, 2.0, 1.5, seed)
    return [(cfg, ("solve", "load:u_bar", "load:v_bar"))]


def subcritical_2d_round(seed, index):
    cfg = make_config(2, 0.5, 2.2, 1.4, 1, 256, 40.0, 2.0, 1.5, seed)
    return [(cfg, ("constants", "solve", "ground-state", "verify"))]


def sweep_round(seed, index):
    """Fresh 1-D configs for every round, half in each regime.

    s from SWEEP_S; gamma=0 puts alpha + beta at the critical exponent,
    gamma=1 draws it from (SUBCRITICAL_MIN_TOTAL, critical); alpha is uniform over the powers
    that keep both above 1 + POWER_MARGIN; forcing widths from [1, 3].
    """
    rng = np.random.default_rng([seed, index])
    units = []
    for i in range(SWEEP_CONFIGS_PER_ROUND):
        gamma = i % 2
        s = float(SWEEP_S[rng.integers(len(SWEEP_S))])
        crit = 2.0 / (1.0 - 2.0 * s)
        total = crit if gamma == 0 else float(rng.uniform(SUBCRITICAL_MIN_TOTAL, crit))
        alpha = float(rng.uniform(1.0 + POWER_MARGIN, total - 1.0 - POWER_MARGIN))
        beta = total - alpha
        f_width, g_width = (float(w) for w in rng.uniform(1.0, 3.0, 2))
        cfg = make_config(1, s, alpha, beta, gamma, 256, 40.0, f_width, g_width, seed)
        profile = "bubble" if gamma == 0 else "ground-state"
        units.append((cfg, ("constants", "solve", profile)))
    return units


# name -> (round builder, (dimension, points, box_length) of the first grid,
#          rounds of a traced run)
WORKLOADS = {
    "critical-3d-solve": (critical_3d_round, (3, 64, 40.0), 1),
    "subcritical-2d-lab": (subcritical_2d_round, (2, 256, 40.0), 1),
    "small-1d-sweep": (sweep_round, (1, 256, 40.0), 6),
}

"""Each benchmark output check must pass real output and reject a wrong one.

Run with:  python3 -m pytest -q perfbench/tests
(The repository's own test run collects only tests/, so these stay out of it.)
"""

import contextlib
import csv
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
from checks import CheckFailure  # noqa: E402
from workloads import config_text, make_config  # noqa: E402

SUB = make_config(1, 0.25, 1.6, 1.4, 1, 256, 40.0, 2.0, 1.5, 0)
CRIT = make_config(1, 0.25, 2.5, 1.5, 0, 256, 40.0, 2.0, 1.5, 0)


def run_commands(cfg, outdir, commands, **overrides):
    from fracsys.cli import main

    outdir.mkdir(parents=True, exist_ok=True)
    text = config_text(cfg, outdir)
    for key, value in overrides.items():
        text += f"{key} = {value}\n"
    (outdir / "run.cfg").write_text(text)
    for cmd in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([cmd, "--config", str(outdir / "run.cfg")]) == 0, cmd
    return outdir


@pytest.fixture(scope="module")
def sub_out(tmp_path_factory):
    return run_commands(SUB, tmp_path_factory.mktemp("sub"), ["constants", "solve", "ground-state", "verify"])


@pytest.fixture(scope="module")
def crit_out(tmp_path_factory):
    return run_commands(CRIT, tmp_path_factory.mktemp("crit"), ["constants", "solve", "bubble"])


@pytest.fixture
def sub_copy(sub_out, tmp_path):
    return Path(shutil.copytree(sub_out, tmp_path / "out"))


@pytest.fixture
def crit_copy(crit_out, tmp_path):
    return Path(shutil.copytree(crit_out, tmp_path / "out"))


def edit_json(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def edit_field(path, edit):
    lines = path.read_text().splitlines()
    values = np.array([float(t) for t in lines[2:]])
    edit(values)
    path.write_text("\n".join(lines[:2] + [format(x, ".17g") for x in values]) + "\n")


# ---------------------------------------------------------------------------
# real output passes


def test_real_output_passes(sub_out, crit_out):
    s_sub = checks.check_constants(SUB, sub_out)["s_scalar"]
    checks.check_solve(SUB, sub_out)
    checks.check_ground_state(SUB, sub_out, s_sub)
    checks.check_verify(sub_out)
    checks.check_constants(CRIT, crit_out)
    checks.check_solve(CRIT, crit_out)
    checks.check_bubble(CRIT, crit_out)


def test_own_parser_matches_load_field(sub_out):
    from fracsys import load_field

    field = load_field(sub_out / "u_bar.csv")
    g = field.grid
    grid = (g.dimension, g.points_per_axis, g.box_length)
    checks.check_load(checks.read_field(sub_out / "u_bar.csv"), checks.field_digest(field.values), grid)


# ---------------------------------------------------------------------------
# constants


@pytest.mark.parametrize("key", ["s_vector", "s_scalar"])
def test_tampered_constant_caught(sub_copy, key):
    edit_json(sub_copy / "constants.json", lambda p: p["report"].__setitem__(key, p["report"][key] * 1.05))
    with pytest.raises(CheckFailure, match="ratio"):
        checks.check_constants(SUB, sub_copy)


@pytest.mark.parametrize("key", ["radius", "threshold", "coercivity_lhs", "ratio_formula"])
def test_misreported_derived_constant_caught(sub_copy, key):
    edit_json(sub_copy / "constants.json", lambda p: p["report"].__setitem__(key, p["report"][key] * (1 + 1e-9)))
    with pytest.raises(CheckFailure):
        checks.check_constants(SUB, sub_copy)


def test_constant_above_trial_quotient_caught(sub_copy):
    # both constants scaled together keep the ratio, but exceed the trial quotient
    def inflate(p):
        rep = p["report"]
        rep["s_scalar"] *= 10.0
        rep["s_vector"] *= 10.0
        rep["radius"], rep["threshold"], rep["coercivity_lhs"] = checks.derived_constants(
            SUB, rep["s_scalar"], rep["s_vector"]
        )

    edit_json(sub_copy / "constants.json", inflate)
    with pytest.raises(CheckFailure, match="trial quotient"):
        checks.check_constants(SUB, sub_copy)


def test_wrong_regime_caught(sub_copy):
    edit_json(sub_copy / "constants.json", lambda p: p["report"].__setitem__("regime", 0))
    with pytest.raises(CheckFailure, match="regime"):
        checks.check_constants(SUB, sub_copy)


# ---------------------------------------------------------------------------
# solve


def test_perturbed_u_bar_caught(sub_copy):
    edit_field(sub_copy / "u_bar.csv", lambda v: v.__setitem__(128, v[128] * (1 + 1e-4)))
    with pytest.raises(CheckFailure, match="residual"):
        checks.check_solve(SUB, sub_copy)


def test_forcing_scaled_off_d_caught(tmp_path):
    # the program is asked for 0.55 d while the benchmark expects 0.5 d
    out = run_commands(SUB, tmp_path / "off", ["solve"], f_fraction_of_d=0.55)
    with pytest.raises(CheckFailure, match="forcing_norm_f"):
        checks.check_solve(SUB, out)


def test_forcing_residual_catches_wrong_forcing(sub_copy):
    # same fields, but judged against a wider forcing than the one solved for
    cfg = dict(SUB, f_width=SUB["f_width"] * 1.01)
    with pytest.raises(CheckFailure, match="residual"):
        checks.check_solve(cfg, sub_copy)


@pytest.mark.parametrize("key", ["energy", "ball_fraction"])
def test_misreported_solve_scalar_caught(sub_copy, key):
    edit_json(sub_copy / "solve_report.json", lambda p: p["report"].__setitem__(key, p["report"][key] * (1 + 1e-6)))
    with pytest.raises(CheckFailure, match=key.replace("_", " ")):
        checks.check_solve(SUB, sub_copy)


@pytest.mark.parametrize("key,value", [("converged", False), ("boundary_active", True)])
def test_unconverged_or_boundary_caught(sub_copy, key, value):
    edit_json(sub_copy / "solve_report.json", lambda p: p["report"].__setitem__(key, value))
    with pytest.raises(CheckFailure):
        checks.check_solve(SUB, sub_copy)


def test_nonpositive_component_caught_at_gamma_1(sub_copy):
    # a dip just below zero at the box edge barely moves the residual but
    # breaks positivity of the subcritical solution
    edit_field(sub_copy / "u_bar.csv", lambda v: v.__setitem__(0, -1e-12))
    with pytest.raises(CheckFailure, match="nonpositive component"):
        checks.check_solve(SUB, sub_copy)


def test_sign_flip_in_u_bar_caught(sub_copy):
    edit_field(sub_copy / "u_bar.csv", lambda v: v.__setitem__(0, -v[0]))
    with pytest.raises(CheckFailure, match="nonpositive component|residual"):
        checks.check_solve(SUB, sub_copy)


def test_nonzero_mean_caught_at_gamma_0(crit_copy):
    edit_field(crit_copy / "u_bar.csv", lambda v: v.__iadd__(1e-9))
    with pytest.raises(CheckFailure, match="mean|residual"):
        checks.check_solve(CRIT, crit_copy)


def test_positive_energy_caught(sub_copy):
    edit_field(sub_copy / "u_bar.csv", lambda v: v.__imul__(-3.0))
    with pytest.raises(CheckFailure):
        checks.check_solve(SUB, sub_copy)


# ---------------------------------------------------------------------------
# profiles, verify, load


def test_ground_state_sign_flip_caught(sub_copy):
    s_scalar = checks.check_constants(SUB, sub_copy)["s_scalar"]
    edit_field(sub_copy / "ground_state.csv", lambda v: v.__setitem__(0, -v[0]))
    with pytest.raises(CheckFailure, match="not positive"):
        checks.check_ground_state(SUB, sub_copy, s_scalar)


def test_ground_state_perturbation_caught(sub_copy):
    s_scalar = checks.check_constants(SUB, sub_copy)["s_scalar"]
    edit_field(sub_copy / "ground_state.csv", lambda v: v.__setitem__(128, v[128] * (1 + 1e-4)))
    with pytest.raises(CheckFailure, match="residual"):
        checks.check_ground_state(SUB, sub_copy, s_scalar)


@pytest.mark.parametrize("factor", [0.999, 1.05])
def test_ground_state_wrong_constant_caught(sub_copy, factor):
    # the ground state's quotient may not exceed S_scalar, nor undercut it by 1e-3
    s_scalar = checks.check_constants(SUB, sub_copy)["s_scalar"]
    with pytest.raises(CheckFailure, match="quotient"):
        checks.check_ground_state(SUB, sub_copy, s_scalar * factor)


def test_bubble_perturbation_caught(crit_copy):
    edit_field(crit_copy / "bubble.csv", lambda v: v.__setitem__(7, v[7] * (1 + 1e-9)))
    with pytest.raises(CheckFailure, match="closed form"):
        checks.check_bubble(CRIT, crit_copy)


def test_verify_failed_row_caught(sub_copy):
    path = sub_copy / "verify.csv"
    rows = list(csv.reader(path.open(newline="")))
    rows[3][1] = "FAIL"
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    with pytest.raises(CheckFailure, match="failed"):
        checks.check_verify(sub_copy)


def test_verify_missing_row_caught(sub_copy):
    path = sub_copy / "verify.csv"
    rows = list(csv.reader(path.open(newline="")))
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows[:-1])
    with pytest.raises(CheckFailure, match="rows"):
        checks.check_verify(sub_copy)


def test_load_mismatch_caught(sub_out):
    from fracsys import load_field

    field = load_field(sub_out / "u_bar.csv")
    values = field.values.copy()
    values[5] = np.nextafter(values[5], np.inf)  # one ulp off
    grid = (1, 256, 40.0)
    with pytest.raises(CheckFailure, match="differ"):
        checks.check_load(checks.read_field(sub_out / "u_bar.csv"), checks.field_digest(values), grid)

"""Smoke runs of the experiment scripts at small sizes.

The scripts read ConstantsReport fields and build forcings through the
public API, so each one is run end to end and must exit 0 with its
closing line printed.  The converted scripts pose their problem from a
config file; each runs on a config equivalent to its former defaults at a
small size (gamma=1, f and g Gaussians of width 2, tol 1e-10, the
constants' former tolerance), on a gamma=0 config and on a 2-D config.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

GAMMA0 = "dimension = 1\ns = 0.25\nalpha = 2\nbeta = 2\ngamma = 0\ngrid_size = 64\nbox_length = 40\n"
LAB2D = "dimension = 2\ns = 0.5\nalpha = 2.2\nbeta = 1.4\ngrid_size = 32\nbox_length = 40\n"


def _one_d(alpha, beta, points, length):
    return (f"dimension = 1\ns = 0.25\nalpha = {alpha}\nbeta = {beta}\ngamma = 1\n"
            f"grid_size = {points}\nbox_length = {length}\ntol = 1e-10\n")


def _run_script(script, args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def _import_script(name):
    sys.path.insert(0, str(REPO / "scripts"))
    try:
        return __import__(name)
    finally:
        sys.path.remove(str(REPO / "scripts"))


DEMO = ["sign_scan.csv", "small_data_curve.csv"]
MARGIN = ["--bisection-steps", "3"]
HOLDS = "interior minimizer holds up to"
BOX = ["box_convergence.csv"]

# (script, config or None, arguments, closing text, files it writes); the
# cases named by their script alone pose its former defaults
CASES = {
    "solve_demo": ("solve_demo.py", _one_d(2.5, 1.5, 64, 40), [], "small-data: monotone=True", DEMO),
    "solve_demo-gamma0": ("solve_demo.py", GAMMA0, [], "small-data: monotone=True", DEMO),
    "solve_demo-2d": ("solve_demo.py", LAB2D, [], "small-data: monotone=True", DEMO),
    "threshold_margin": ("threshold_margin.py", _one_d(2, 2, 64, 40), MARGIN, HOLDS, []),
    "threshold_margin-gamma0": ("threshold_margin.py", GAMMA0, MARGIN, HOLDS, []),
    "threshold_margin-2d": ("threshold_margin.py", LAB2D, MARGIN, HOLDS, []),
    "constants_sweep": ("constants_sweep.py", None, ["--grid-size", "64", "--output", "out"],
                        "measured ratio", ["sweep_closed_form.csv", "sweep_measured.csv"]),
    "box_convergence": ("box_convergence.py", _one_d(1.5, 1.5, 32, 20), ["--levels", "2"],
                        "P=   64", BOX),
    "box_convergence-gamma0": ("box_convergence.py", GAMMA0, ["--levels", "2"], "P=   64", BOX),
    "box_convergence-2d": ("box_convergence.py", LAB2D, ["--levels", "2"], "P=   64", BOX),
}


@pytest.mark.parametrize("script,config,args,expect,files", CASES.values(), ids=list(CASES))
def test_script_runs(tmp_path, script, config, args, expect, files):
    if config is not None:
        (tmp_path / "run.cfg").write_text(config + "output = out\n")
        args = ["run.cfg", *args]
    proc = _run_script(script, args, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert expect in proc.stdout
    assert all((tmp_path / "out" / name).is_file() for name in files)


def test_threshold_margin_lets_a_non_numerical_error_propagate(tmp_path, monkeypatch, capsys):
    # only what fracsys maps to a numerical failure counts as a failed
    # certificate; a defect in the script or library is no margin
    threshold_margin = _import_script("threshold_margin")
    (tmp_path / "run.cfg").write_text(_one_d(2, 2, 64, 40))

    def broken(*args, **kwargs):
        raise TypeError("unexpected keyword")

    monkeypatch.setattr(threshold_margin, "solve_system", broken)
    with pytest.raises(TypeError, match="unexpected keyword"):
        threshold_margin.main([str(tmp_path / "run.cfg"), "--bisection-steps", "1"])

    def diverges(*args, **kwargs):
        raise threshold_margin.ConvergenceError("stalled")

    monkeypatch.setattr(threshold_margin, "solve_system", diverges)
    assert threshold_margin.main([str(tmp_path / "run.cfg")]) == 0
    assert "interior certificate already fails at d itself" in capsys.readouterr().out


def test_reference_outputs_compare(tmp_path, capsys):
    reference_outputs = _import_script("reference_outputs")
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "cfg").mkdir(parents=True)
        (root / "cfg" / "same.csv").write_text("x,1.5\n")
    (a / "cfg" / "report.json").write_text('{"r": 2.0, "iterations": 48, "e": -1e-08}\n')
    (b / "cfg" / "report.json").write_text('{"r": 2.0000000000000004, "iterations": 1, "e": -1e-08}\n')
    # a key dropped and a key appended: the shared values are still compared
    (a / "cfg" / "keys.json").write_text('{"report": {"s": 1.5, "dropped": 1, "n": 14}}\n')
    (b / "cfg" / "keys.json").write_text('{"report": {"s": 1.5000000000000002, "n": 14, "added": null}}\n')
    (a / "cfg" / "words.txt").write_text("converged=True\n")
    (b / "cfg" / "words.txt").write_text("converged=False\n")
    (a / "cfg" / "solve.log").write_text("--- exit 0\n")
    assert reference_outputs.main(["compare", str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "cfg/keys.json: keys only in A: report.dropped; keys only in B: report.added; "
        "1 floats moved, max relative change 1.5e-16",
        "cfg/report.json: 1 floats moved, max relative change 2.2e-16; integers changed: 48 -> 1",
        "cfg/same.csv: identical",
        f"cfg/solve.log: only in {a}",
        "cfg/words.txt: text differs",
    ]
    assert reference_outputs.main(["compare", str(a), str(a)]) == 0


def test_reference_outputs_compare_fields(tmp_path, capsys):
    # field files are compared by value: the %.17g and fixed-width layouts
    # of the same doubles match, and a moved value does not
    reference_outputs = _import_script("reference_outputs")
    head = "dimension,points_per_axis,box_length\n1,16,10\n"
    values = [-0.0, 5e-324, 1e300, -1.0 / 3.0] + [0.1 * k for k in range(12)]
    old = head + "".join(f"{v:.17g}\n" for v in values)
    new = head + "".join(
        f"{m}e{x[0]}{int(x[1:]):03d}\n" for m, x in (f"{v:+.16e}".split("e") for v in values)
    )
    moved = new.replace("-3.3333333333333331e-001", "-3.3333333333333337e-001").replace(
        "-0.0000000000000000e+000", "+0.0000000000000000e+000"
    )
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for root, text in ((a, old), (b, new), (c, moved)):
        root.mkdir()
        (root / "u_bar.csv").write_text(text)
    assert reference_outputs.main(["compare", str(a), str(b)]) == 0
    assert reference_outputs.main(["compare", str(a), str(c)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "u_bar.csv: values identical",
        "u_bar.csv: 2 values moved, max relative change 1.7e-16",
    ]


def test_alloc_report_prints_every_phase(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    (tmp_path / "run.cfg").write_text(
        "dimension = 1\ns = 0.25\nalpha = 1.5\nbeta = 1.5\ngrid_size = 64\n"
        "box_length = 40.0\noutput = out\n"
    )
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "alloc_report.py"), "run.cfg", "solve"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = {line.split()[0]: line.split()[1:] for line in proc.stdout.splitlines()}
    assert rows["phase"] == ["calls", "wall_s", "minflt", "peak_mb"]
    # one measurement, two forcings built, scaled and solved with, and the
    # two fields, the report and the trace written
    calls = {phase: int(rows[phase][0]) for phase in ("constants", "forcing", "solve", "io", "command")}
    assert calls == {"constants": 1, "forcing": 6, "solve": 1, "io": 4, "command": 1}
    assert all(float(v) >= 0 for phase in calls for v in rows[phase][1:])
    assert rows["exit"] == ["0"]
    assert (tmp_path / "out" / "u_bar.csv").exists()


def test_verify_seed_scan_reports_every_check(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    (tmp_path / "run.cfg").write_text(
        "dimension = 1\ns = 0.25\nalpha = 1.5\nbeta = 1.5\ngrid_size = 64\nbox_length = 40.0\n"
    )
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "verify_seed_scan.py"), "run.cfg", "7000", "3"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()
    assert [row.split(":")[0] for row in rows] == [
        "multiplier_exactness", "gradient_consistency", "hessian_positivity",
        "ratio_identity", "ratio_measured", "coercivity_sweep", "sign_scan",
    ]
    assert all(": 0 of 3 failed; worst at seed 70" in row for row in rows)
    assert "extremal slack" in rows[2]


def test_verify_seed_scan_shows_the_worst_failure(tmp_path, monkeypatch, capsys):
    from fracsys.verify import CheckResult

    verify_seed_scan = _import_script("verify_seed_scan")
    errors = {7000: 1e-11, 7001: 2e-8, 7002: 1e-7, 7003: 3e-11}

    def checks(constants, seed):
        err = errors[seed]
        return [CheckResult("gradient_consistency", err <= 5e-9, f"max scaled error {err:.3e}"),
                CheckResult("sign_scan", True, "fixed")]

    monkeypatch.setattr(verify_seed_scan, "run_all_checks", checks)
    (tmp_path / "run.cfg").write_text("dimension = 1\ngrid_size = 64\nalpha = 1.5\nbeta = 1.5\n")
    assert verify_seed_scan.main([str(tmp_path / "run.cfg"), "7000", "4"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "gradient_consistency: 2 of 4 failed; worst at seed 7002: max scaled error 1.000e-07",
        "sign_scan: 0 of 4 failed; worst at seed 7000: fixed",
    ]


def test_verify_seed_scan_runs_one_vector_descent(tmp_path, monkeypatch, capsys):
    # the cold vector descent does not depend on the seed: one per scan
    from fracsys import verify

    verify_seed_scan = _import_script("verify_seed_scan")
    modes = []
    descent = verify.minimize_quotient

    def counted(grid, params, mode="scalar", **kwargs):
        modes.append(mode)
        return descent(grid, params, mode=mode, **kwargs)

    monkeypatch.setattr(verify, "minimize_quotient", counted)
    (tmp_path / "run.cfg").write_text("dimension = 1\ngrid_size = 64\nalpha = 1.5\nbeta = 1.5\n")
    assert verify_seed_scan.main([str(tmp_path / "run.cfg"), "7000", "3"]) == 0
    assert modes == ["vector"]
    assert verify.minimize_quotient is counted
    assert len(capsys.readouterr().out.splitlines()) == 7

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fracsys import Field, load_field, make_grid, save_field
from fracsys.fieldio import dump_json, fmt
from fracsys.cli import (
    _FLAG_KEYS,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    build_config,
    main,
    make_parser,
    parse_config_file,
)
from fracsys.verify import run_all_checks
from fracsys import SystemParams, measure_constants


def run_cli(args):
    return main(args)


class TestFieldIO:
    def test_round_trip_bit_exact(self, tmp_path):
        grid = make_grid(1, 32, 17.5)
        rng = np.random.default_rng(0)
        u = Field(grid, rng.standard_normal(grid.shape))
        path = tmp_path / "field.csv"
        save_field(u, path)
        back = load_field(path)
        assert back.grid == grid
        np.testing.assert_array_equal(back.values, u.values)

    def test_round_trip_2d(self, tmp_path):
        grid = make_grid(2, 16, 8.0)
        rng = np.random.default_rng(1)
        u = Field(grid, rng.standard_normal(grid.shape))
        path = tmp_path / "field2d.csv"
        save_field(u, path)
        back = load_field(path)
        np.testing.assert_array_equal(back.values, u.values)

    def test_round_trip_extreme_values(self, tmp_path):
        grid = make_grid(1, 32, 10.0)
        vals = np.random.default_rng(3).standard_normal(grid.shape)
        vals[:5] = [-0.0, 5e-324, 2.2250738585072014e-308, 1e300, -1.0 / 3.0]
        path = tmp_path / "f.csv"
        save_field(Field(grid, vals), path)
        back = load_field(path).values
        assert back.tobytes() == vals.tobytes()

    @pytest.mark.parametrize(
        "text,message",
        [
            ("", "not a field file"),
            ("dimension,points,box_length\n1,32,10\n" + "1\n" * 32, "not a field file"),
            ("dimension,points_per_axis,box_length\n", "not a field file"),
            ("dimension,points_per_axis,box_length\n1,32,10\n" + "1\n" * 31, "expected 32 values, got 31"),
            ("dimension,points_per_axis,box_length\n1,32,10\n", "expected 32 values, got 0"),
            ("dimension,points_per_axis,box_length\n1,32,10\n1\nabc\n" + "1\n" * 30, "bad value"),
            ("dimension,points_per_axis,box_length\n1,16,inf\n" + "1\n" * 16, "finite"),
        ],
        ids=["empty", "bad-header", "no-sizes", "short-body", "no-body", "unparsable-value",
             "infinite-box"],
    )
    def test_malformed_file_rejected(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_field(path)

    def test_header_layout(self, tmp_path):
        grid = make_grid(1, 32, 10.0)
        u = Field(grid, np.ones(grid.shape))
        path = tmp_path / "f.csv"
        save_field(u, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "dimension,points_per_axis,box_length"
        assert lines[1] == "1,32,10"
        assert len(lines) == 2 + grid.num_points

    def test_writer_bytes_match_fmt(self, tmp_path):
        # the writer formats values in chunks; over several chunks it must
        # give fmt's text
        grid = make_grid(2, 64, 8.0)
        vals = np.random.default_rng(2).standard_normal(grid.shape)
        vals[0, :4] = [-0.0, 5e-324, 1e300, -1.0 / 3.0]
        path = tmp_path / "f.csv"
        save_field(Field(grid, vals), path)
        lines = path.read_text().splitlines()[2:]
        assert lines[:3] == ["-0", "4.9406564584124654e-324", "1.0000000000000001e+300"]
        assert lines == [fmt(v) for v in vals.ravel()]

    def test_dump_json_writes_nonfinite_as_null(self, tmp_path):
        def reject(token):
            raise ValueError(f"invalid JSON constant {token}")

        payload = {"a": float("nan"), "b": [np.inf, -np.inf], "c": np.float64(0.5)}
        text = dump_json(payload, tmp_path / "r.json")
        assert json.loads(text, parse_constant=reject) == {"a": None, "b": [None, None], "c": 0.5}

    @pytest.mark.parametrize(
        "value,text",
        [
            (np.True_, "true"),
            (False, "false"),
            (np.int64(-7), "-7"),
            (np.float32(0.5), "0.5"),
            (-0.0, "-0"),
            (1e300, "1.0000000000000001e+300"),
            (np.float64(np.nan), "null"),
            (None, "null"),
            ("a\"b", '"a\\"b"'),
            ((1, 2.5), "[\n  1,\n  2.5\n]"),
            ({}, "{}"),
            ([], "[]"),
            ((), "[]"),
            ({"x": [{}, ()]}, '{\n  "x": [\n    {},\n    []\n  ]\n}'),
        ],
        ids=["np-bool", "bool", "np-int", "np-float32", "negative-zero", "huge", "np-nan",
             "none", "string", "tuple", "empty-dict", "empty-list", "empty-tuple", "nested"],
    )
    def test_dump_json_values(self, tmp_path, value, text):
        assert dump_json(value, tmp_path / "r.json") == text + "\n"


class TestConfigParsing:
    def test_key_value_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# experiment\ns = 0.25\nalpha = 1.5\nbeta = 1.5\ngrid_size = 64\n"
            "box_length = 40.0\nseed = 7\n"
        )
        cfg = parse_config_file(cfg_file)
        assert cfg.s == 0.25
        assert cfg.grid_size == 64
        assert cfg.seed == 7

    def test_unknown_key_rejected(self, tmp_path):
        from fracsys.cli import ConfigError

        cfg_file = tmp_path / "run.cfg"
        # a method or class constant of the config is not a key either
        for key in ("does_not_exist", "params", "_MINIMUM"):
            cfg_file.write_text(f"{key} = 3\n")
            with pytest.raises(ConfigError, match="unknown config key"):
                parse_config_file(cfg_file)

    def test_flag_overrides_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("alpha = 1.5\nbeta = 1.5\ngrid_size = 64\n")
        out = tmp_path / "out"
        code = run_cli(
            [
                "constants",
                "--config",
                str(cfg_file),
                "--alpha",
                "2.0",
                "--beta",
                "2.0",
                "--output",
                str(out),
            ]
        )
        assert code == EXIT_OK
        payload = json.loads((out / "constants.json").read_text())
        assert payload["config"]["alpha"] == 2.0
        # every flag is parsed and checked like the file line of its key
        base = "dimension = 2\ns = 0.3\nalpha = 1.2\nbeta = 1.3\n"
        values = {
            "dimension": "1", "s": "0.35", "alpha": "1.25", "beta": "1.4",
            "grid_size": "32", "box_length": "12.5", "tol": "1e-9",
            "max_iter": "77", "output": str(out), "seed": "5",
        }
        assert set(values) == set(_FLAG_KEYS)
        cfg_file.write_text(base)
        default = parse_config_file(cfg_file).as_dict()
        for key, raw in values.items():
            flag = "--" + key.replace("_", "-")
            args = make_parser().parse_args(["solve", "--config", str(cfg_file), flag, raw])
            by_flag = build_config(args).as_dict()
            line_file = tmp_path / f"{key}.cfg"
            line_file.write_text(f"{base}{key} = {raw}\n")
            assert by_flag == parse_config_file(line_file).as_dict(), key
            assert by_flag != default, key

    @pytest.mark.parametrize("flag,raw", [("--grid-size", "abc"), ("--s", "x")])
    def test_malformed_flag_is_config_error(self, tmp_path, capsys, flag, raw):
        assert run_cli(["constants", flag, raw, "--output", str(tmp_path / "o")]) == EXIT_CONFIG
        assert f"config error: {flag}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["constants", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
            ([], "required: command"),
            (["nosuch"], "invalid choice: 'nosuch'"),
        ],
        ids=["unknown-flag", "no-command", "unknown-command"],
    )
    def test_usage_error_returns_config_exit_in_process(self, capsys, argv, message):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert "usage: fracsys" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags,cfg_text,message",
        [
            (["--tol", "nan"], "alpha = 1.5\nbeta = 1.5\ngrid_size = 64\n", "must be finite"),
            (
                [],
                "alpha = 1.5\nbeta = 1.5\ngrid_size = 64\nf_fraction_of_d = inf\n",
                "must be finite",
            ),
            (["--tol", "-1"], "alpha = 1.5\nbeta = 1.5\ngrid_size = 64\n", "at least 0"),
            (["--max-iter", "-5"], "alpha = 1.5\nbeta = 1.5\ngrid_size = 64\n", "at least 1"),
            ([], "alpha = 1.5\nbeta = 1.5\ngrid_size = 64\ntol = -1\n", "at least 0"),
            ([], "alpha = 1.5\nbeta = 1.5\ngrid_size = 64\nmax_iter = 0\n", "at least 1"),
            (["--seed", "-1"], "alpha = 1.5\nbeta = 1.5\ngrid_size = 64\n", "at least 0"),
            ([], "alpha = 1.5\nbeta = 1.5\ngrid_size = 64\ngamma = 7\n", "gamma must be"),
            ([], "alpha = 1.5\nbeta = 1.5\ngrid_size = 64\nf_fraction_of_d = -0.5\n", "at least 0"),
            ([], "alpha = 1.5\nbeta = 1.5\ngrid_size = 64\ng_fraction_of_d = -0.5\n", "at least 0"),
            ([], "alpha = 1.5\nbeta = 1.5\ngrid_size = 64\nsweep_pairs = -4\n", "at least 0"),
        ],
        ids=[
            "tol-nan-flag",
            "fraction-inf-in-file",
            "tol-negative-flag",
            "max-iter-negative-flag",
            "tol-negative-in-file",
            "max-iter-zero-in-file",
            "seed-negative-flag",
            "gamma-out-of-range-in-file",
            "f-fraction-negative-in-file",
            "g-fraction-negative-in-file",
            "sweep-pairs-negative-in-file",
        ],
    )
    def test_nonfinite_value_is_config_error(self, tmp_path, capsys, flags, cfg_text, message):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(cfg_text)
        args = ["solve", "--config", str(cfg_file), *flags, "--output", str(tmp_path / "o")]
        assert run_cli(args) == EXIT_CONFIG
        assert message in capsys.readouterr().err


class TestSubcommands:
    def test_constants_writes_reports(self, tmp_path):
        out = tmp_path / "c"
        code = run_cli(
            ["constants", "--alpha", "1.5", "--beta", "1.5", "--grid-size", "64",
             "--output", str(out)]
        )
        assert code == EXIT_OK
        assert (out / "constants.json").exists()
        assert (out / "constants.csv").exists()
        payload = json.loads((out / "constants.json").read_text())
        assert payload["report"]["coercivity_lhs"] > 2.0

    @pytest.mark.parametrize(
        "key,value", [("bubble_lambda", "0"), ("bubble_normalization", "-1")]
    )
    def test_bad_bubble_value_is_config_error(self, tmp_path, capsys, key, value):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"alpha = 2.0\nbeta = 2.0\ngrid_size = 64\n{key} = {value}\n")
        code = run_cli(["bubble", "--config", str(cfg_file), "--output", str(tmp_path / "b")])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_underflowing_quotient_is_numerical_failure(self, tmp_path, capsys):
        # on a box this long the regime form underflows to a zero quotient
        code = run_cli(["constants", "--grid-size", "64", "--box-length", "1e308",
                        "--output", str(tmp_path / "c")])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure"), err

    def test_constants_rejects_power_at_one(self, tmp_path, capsys):
        code = run_cli(
            ["constants", "--alpha", "1.0", "--beta", "3.0", "--output", str(tmp_path / "x")]
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "alpha > 1" in err

    def test_bubble_critical_only(self, tmp_path, capsys):
        out = tmp_path / "b"
        code = run_cli(
            ["bubble", "--alpha", "2.0", "--beta", "2.0", "--grid-size", "256",
             "--box-length", "200", "--output", str(out)]
        )
        assert code == EXIT_OK
        meta = json.loads((out / "bubble_meta.json").read_text())
        assert abs(meta["decay_exponent_fit"] - 0.5) / 0.5 <= 0.05
        assert meta["config"]["gamma"] == 0
        # subcritical powers cannot build the critical profile
        code2 = run_cli(
            ["bubble", "--alpha", "1.5", "--beta", "1.5", "--output", str(tmp_path / "b2")]
        )
        assert code2 == EXIT_CONFIG

    def test_ground_state_subcritical_only(self, tmp_path):
        out = tmp_path / "g"
        code = run_cli(
            ["ground-state", "--alpha", "1.5", "--beta", "1.5", "--grid-size", "256",
             "--box-length", "80", "--output", str(out)]
        )
        assert code == EXIT_OK
        meta = json.loads((out / "ground_state_meta.json").read_text())
        assert meta["residual"] <= 1e-6
        assert meta["min_value"] > 0
        # critical powers are rejected
        code2 = run_cli(
            ["ground-state", "--alpha", "2.0", "--beta", "2.0",
             "--output", str(tmp_path / "g2")]
        )
        assert code2 == EXIT_CONFIG

    def test_solve_writes_report_and_fields(self, tmp_path):
        out = tmp_path / "s"
        code = run_cli(
            ["solve", "--alpha", "1.5", "--beta", "1.5", "--grid-size", "128",
             "--output", str(out)]
        )
        assert code == EXIT_OK
        report = json.loads((out / "solve_report.json").read_text())
        assert report["report"]["converged"] is True
        assert report["config"]["gamma"] == 1
        assert report["report"]["energy"] < 0
        assert report["positivity"]["all_positive"] is True
        assert (out / "u_bar.csv").exists()
        assert (out / "v_bar.csv").exists()
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "iter,energy,grad_norm,ball_fraction"

    def test_constants_and_solve_measure_alike(self, tmp_path):
        # below the quotient's 1e-8 cap, the solver tolerance sets both
        # commands' quotient tolerance
        common = ["--alpha", "1.5", "--beta", "1.5", "--grid-size", "256", "--tol", "1e-10"]
        assert run_cli(["constants", *common, "--output", str(tmp_path / "c")]) == EXIT_OK
        assert run_cli(["solve", *common, "--output", str(tmp_path / "s")]) == EXIT_OK
        measured = json.loads((tmp_path / "c" / "constants.json").read_text())["report"]
        used = json.loads((tmp_path / "s" / "solve_report.json").read_text())["constants"]
        assert used["s_scalar"] == measured["s_scalar"]
        assert used["radius"] == measured["radius"]

    def test_verify_all_pass(self, tmp_path, capsys):
        code = run_cli(["verify", "--grid-size", "64", "--output", str(tmp_path / "v")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") == 7
        assert "FAIL" not in out


class TestDeterminism:
    def test_identical_config_identical_bytes(self, tmp_path):
        out = tmp_path / "r"
        args = ["constants", "--alpha", "1.5", "--beta", "1.5", "--grid-size", "64",
                "--seed", "3", "--output", str(out)]
        assert run_cli(args) == EXIT_OK
        first_json = (out / "constants.json").read_bytes()
        first_csv = (out / "constants.csv").read_bytes()
        assert run_cli(args) == EXIT_OK
        assert (out / "constants.json").read_bytes() == first_json
        assert (out / "constants.csv").read_bytes() == first_csv

    def test_seed_change_keeps_verify_verdicts(self, tmp_path):
        constants = measure_constants(make_grid(1, 64, 40.0), SystemParams(1, 0.25, 2.0, 2.0, 1))
        verdicts = []
        for seed in (0, 1):
            results = run_all_checks(constants, seed=seed)
            verdicts.append([r.passed for r in results])
        assert verdicts[0] == verdicts[1]


class TestVerifyDetectsCorruption:
    def test_corrupted_multiplier_fails_named_check(self, monkeypatch):
        import fracsys.grids

        grid = make_grid(1, 64, 40.0)
        params = SystemParams(1, 0.25, 2.0, 2.0, 1)
        original = fracsys.grids.frac_laplacian

        def corrupted(u, s):
            out = original(u, s)
            return Field(u.grid, out.values * (1.0 + 1e-6))

        constants = measure_constants(grid, params)
        monkeypatch.setattr("fracsys.grids.frac_laplacian", corrupted)
        results = run_all_checks(constants, seed=0)
        by_name = {r.name: r for r in results}
        assert not by_name["multiplier_exactness"].passed
        # the corruption is injected only into that check's operator
        assert by_name["ratio_identity"].passed

    def test_cli_verify_exits_nonzero_on_corruption(self, tmp_path, monkeypatch):
        import fracsys.grids

        original = fracsys.grids.frac_laplacian

        def corrupted(u, s):
            out = original(u, s)
            return Field(u.grid, out.values * (1.0 + 1e-6))

        monkeypatch.setattr("fracsys.grids.frac_laplacian", corrupted)
        code = run_cli(["verify", "--grid-size", "64", "--output", str(tmp_path / "v")])
        assert code == EXIT_NUMERICAL


class TestRatioMeasuredCheck:
    def test_fails_when_cold_descent_is_worse(self, monkeypatch):
        import dataclasses

        import fracsys.verify as verify

        grid = make_grid(1, 64, 40.0)
        params = SystemParams(1, 0.25, 2.5, 1.5, 1)
        constants = measure_constants(grid, params)
        assert verify.check_ratio_measured(constants).passed
        original = verify.minimize_quotient

        def worse(*args, **kwargs):
            res = original(*args, **kwargs)
            return dataclasses.replace(res, value=res.value * 1.05)

        monkeypatch.setattr(verify, "minimize_quotient", worse)
        result = verify.check_ratio_measured(constants)
        assert not result.passed
        assert "(5.00%)" in result.detail


class TestVerifyConstants:
    """verify certifies with the constants the other commands report."""

    def test_verify_and_constants_certify_with_one_radius(self, tmp_path, monkeypatch):
        import fracsys.verify as verify

        radii = []
        original = verify.check_hessian_positivity

        def spy(constants, *args, **kwargs):
            radii.append(constants.radius)
            return original(constants, *args, **kwargs)

        monkeypatch.setattr(verify, "check_hessian_positivity", spy)
        # critical powers, where quotient tolerances 1e-8 and 1e-10 give two r
        args = ["--alpha", "2.0", "--beta", "2.0", "--grid-size", "64"]
        assert run_cli(["constants", *args, "--output", str(tmp_path / "c")]) == EXIT_OK
        assert run_cli(["verify", *args, "--output", str(tmp_path / "v")]) == EXIT_OK
        payload = json.loads((tmp_path / "c" / "constants.json").read_text())
        assert radii == [payload["report"]["radius"]]


class TestConstantsExamples:
    def test_gamma_override_and_ratio_window(self, tmp_path):
        # powers (2,2) sum to the critical exponent at N=1, s=0.25; the
        # config can still request the full-norm machinery explicitly
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "alpha = 2.0\nbeta = 2.0\ngamma = 1\ngrid_size = 256\nbox_length = 40.0\n"
        )
        out = tmp_path / "out"
        code = run_cli(["constants", "--config", str(cfg_file), "--output", str(out)])
        assert code == EXIT_OK
        payload = json.loads((out / "constants.json").read_text())
        assert payload["report"]["regime"] == 1
        assert 1.96 <= payload["report"]["ratio_measured"] <= 2.04

    def test_sweep_mode_writes_rows(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "alpha = 1.5\nbeta = 1.5\ngrid_size = 64\nsweep_pairs = 50\n"
        )
        out = tmp_path / "out"
        code = run_cli(["constants", "--config", str(cfg_file), "--output", str(out)])
        assert code == EXIT_OK
        lines = (out / "coercivity_sweep.csv").read_text().splitlines()
        assert lines[0] == "alpha,beta,ratio_formula,coercivity_lhs"
        assert len(lines) == 51
        assert all(float(line.split(",")[3]) > 2.0 for line in lines[1:])


class TestVerifySubcritical:
    def test_all_checks_pass_in_full_norm_regime(self):
        grid = make_grid(1, 64, 40.0)
        params = SystemParams(1, 0.25, 1.5, 1.5, 1)
        results = run_all_checks(measure_constants(grid, params), seed=0)
        assert all(r.passed for r in results), [
            (r.name, r.detail) for r in results if not r.passed
        ]
        assert [type(r.passed) for r in results] == [bool] * 7


class TestSolveDeterminism:
    def test_solve_reports_reproduce_bytes(self, tmp_path):
        out = tmp_path / "s"
        args = ["solve", "--alpha", "1.5", "--beta", "1.5", "--grid-size", "64",
                "--seed", "11", "--output", str(out)]
        assert run_cli(args) == EXIT_OK
        first = (out / "solve_report.json").read_bytes()
        first_trace = (out / "trace.csv").read_bytes()
        assert run_cli(args) == EXIT_OK
        assert (out / "solve_report.json").read_bytes() == first
        assert (out / "trace.csv").read_bytes() == first_trace


class TestSolveDistinctness:
    def test_asymmetric_powers_separate_components(self, tmp_path):
        # the forcing fraction is a config knob; a solidly nonlinear (still
        # converged) regime shows the component split through the CLI
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "alpha = 2.5\nbeta = 1.5\ngamma = 1\ngrid_size = 128\nbox_length = 40.0\n"
            "f_fraction_of_d = 2.0\ng_fraction_of_d = 2.0\n"
        )
        out = tmp_path / "out"
        code = run_cli(["solve", "--config", str(cfg_file), "--output", str(out)])
        assert code == EXIT_OK
        payload = json.loads((out / "solve_report.json").read_text())
        assert payload["report"]["converged"] is True
        assert payload["report"]["distinctness"] > 1e-3
        assert payload["positivity"]["all_positive"] is True


class TestVerifyParameterMatrix:
    @pytest.mark.parametrize(
        "N,s,alpha,beta,gamma,points,length",
        [
            (1, 0.4, 2.0, 2.0, 1, 64, 40.0),
            (1, 0.1, 1.2, 1.2, 1, 64, 40.0),
            (2, 0.5, 1.5, 1.5, 1, 32, 20.0),
            (2, 0.5, 2.0, 2.0, 0, 32, 20.0),
            (3, 0.75, 2.0, 2.0, 0, 16, 12.0),
        ],
    )
    def test_checks_pass_across_orders_and_dimensions(
        self, N, s, alpha, beta, gamma, points, length
    ):
        grid = make_grid(N, points, length)
        params = SystemParams(N, s, alpha, beta, gamma)
        results = run_all_checks(measure_constants(grid, params), seed=0)
        assert all(r.passed for r in results), [
            (r.name, r.detail) for r in results if not r.passed
        ]


class TestEntryPoint:
    """`python -m fracsys` in a fresh interpreter."""

    @pytest.mark.parametrize(
        "args,code,stderr",
        [
            (["constants", "--grid-size", "16"], EXIT_OK, None),
            (["constants", "--grid-size", "abc"], EXIT_CONFIG, "config error"),
            ([], EXIT_CONFIG, "required: command"),
        ],
        ids=["constants", "malformed-flag", "no-command"],
    )
    def test_module_exit_codes(self, tmp_path, args, code, stderr):
        path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run(
            [sys.executable, "-m", "fracsys", *args],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == code, proc.stderr
        assert proc.stderr == "" if stderr is None else stderr in proc.stderr

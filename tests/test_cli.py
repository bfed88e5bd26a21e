import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracsys import Field, load_field, make_grid, save_field
from fracsys import cli
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
        # the writer encodes values in chunks; over several chunks each line
        # must be '%+.16e' with a three-digit exponent, byte for byte
        grid = make_grid(2, 128, 8.0)
        vals = np.random.default_rng(2).standard_normal(grid.shape)
        vals[0, :4] = [-0.0, 5e-324, 1e300, -1.0 / 3.0]
        path = tmp_path / "f.csv"
        save_field(Field(grid, vals), path)
        lines = path.read_text().splitlines()[2:]
        assert lines[:4] == [
            "-0.0000000000000000e+000",
            "+4.9406564584124654e-324",
            "+1.0000000000000001e+300",
            "-3.3333333333333331e-001",
        ]
        expected = "dimension,points_per_axis,box_length\n2,128,8\n"
        for v in vals.ravel():
            mantissa, exponent = ("%+.16e" % v).split("e")
            expected += f"{mantissa}e{exponent[0]}{int(exponent[1:]):03d}\n"
        assert path.read_bytes() == expected.encode()

    def test_reads_17g_layout_bit_exact(self, tmp_path):
        # files written before the fixed-width layout hold one %.17g value a line
        grid = make_grid(1, 64, 10.0)
        vals = np.random.default_rng(4).standard_normal(grid.shape) * 10.0 ** np.arange(-32, 32)
        vals[:4] = [-0.0, 5e-324, 1e300, -1.0 / 3.0]
        path = tmp_path / "old.csv"
        body = "".join(f"{fmt(v)}\n" for v in vals)
        path.write_text("dimension,points_per_axis,box_length\n1,64,10\n" + body)
        assert load_field(path).values.tobytes() == vals.tobytes()

    @pytest.mark.parametrize(
        "body,message",
        [
            ("+1.0000000000000000e+000\n" * 15 + "+1.00000000000x0000e+000\n", "bad value"),
            ("+1.0000000000000000e+000\n" * 15, "expected 16 values, got 15"),
            ("+1.0000000000000000e+000\n" * 17, "expected 16 values, got 17"),
        ],
        ids=["bad-digit", "one-line-short", "one-line-long"],
    )
    def test_fixed_width_body_errors(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text("dimension,points_per_axis,box_length\n1,16,10\n" + body)
        with pytest.raises(ValueError, match=message):
            load_field(path)

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

    def test_one_parser_per_process(self, capsys):
        # main parses with one cached parser: --help prints what a fresh
        # parser prints, every time, and a usage error still exits 2 after it
        assert make_parser() is make_parser()
        fresh = make_parser.__wrapped__().format_help()
        for _ in range(2):
            with pytest.raises(SystemExit) as info:
                main(["--help"])
            assert info.value.code == 0
            assert capsys.readouterr().out == fresh
            assert main(["constants", "--bogus", "1"]) == EXIT_CONFIG
            assert "unrecognized arguments: --bogus 1" in capsys.readouterr().err

    def test_successive_calls_are_independent(self, tmp_path, monkeypatch):
        # a flag of one call does not carry into the next call's config
        seen = []
        monkeypatch.setitem(cli._COMMANDS, "constants", lambda cfg: seen.append(cfg) or EXIT_OK)
        out = ["--output", str(tmp_path / "o")]
        assert main(["constants", "--alpha", "1.25", "--seed", "5", *out]) == EXIT_OK
        assert main(["constants", *out]) == EXIT_OK
        assert main(["constants", "--grid-size", "abc", *out]) == EXIT_CONFIG
        assert main(["constants", "--beta", "1.5", *out]) == EXIT_OK
        assert [(c.alpha, c.beta, c.seed, c.grid_size) for c in seen] == [
            (1.25, 2.0, 5, 64), (2.0, 2.0, 0, 64), (2.0, 1.5, 0, 64),
        ]

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

    def test_box_whose_quotient_underflowed_is_refused(self, tmp_path, capsys):
        # on a box this long the regime form would underflow to a zero
        # quotient; make_grid refuses it, since its squared radius overflows
        code = run_cli(["constants", "--grid-size", "64", "--box-length", "1e308",
                        "--output", str(tmp_path / "c")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: box_length = 1e+308"), err
        assert not (tmp_path / "c").exists()

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
        # so are they with the full-norm regime named explicitly
        cfg_file = tmp_path / "gamma1.cfg"
        cfg_file.write_text("alpha = 2.0\nbeta = 2.0\ngamma = 1\ngrid_size = 64\n")
        code3 = run_cli(
            ["ground-state", "--config", str(cfg_file), "--output", str(tmp_path / "g3")]
        )
        assert code3 == EXIT_CONFIG

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


class TestForcings:
    @pytest.mark.parametrize("name", ["critical-3d", "lab-2d", "sub-1d", "crit-1d"])
    def test_match_the_solve_sequence_bit_for_bit(self, name):
        # the sequence cmd_solve ran before ExperimentConfig.forcings took it
        from fracsys import ConstantsReport, make_forcing, ratio_formula, scale_to_norm

        scripts = str(Path(__file__).resolve().parents[1] / "scripts")
        sys.path.insert(0, scripts)
        try:
            import reference_outputs
        finally:
            sys.path.remove(scripts)
        keys, _ = reference_outputs.CONFIGS[name]
        cfg = cli.ExperimentConfig()
        for key, value in {**reference_outputs.COMMON, **keys}.items():
            cfg.set(key, str(value))
        params, grid = cfg.params(), cfg.grid()
        constants = ConstantsReport(2.0, 2.0 * ratio_formula(params.alpha, params.beta),
                                    grid, params, 0)
        f = make_forcing(cfg.density("f", grid), params)
        g = make_forcing(cfg.density("g", grid), params)
        if cfg.f_fraction_of_d > 0:
            f = scale_to_norm(f, cfg.f_fraction_of_d * constants.threshold)
        if cfg.g_fraction_of_d > 0:
            g = scale_to_norm(g, cfg.g_fraction_of_d * constants.threshold)
        for new, old in zip(cfg.forcings(grid, params, constants), (f, g)):
            assert new.density.values.tobytes() == old.density.values.tobytes()
            assert (new.norm, new.s, new.gamma) == (old.norm, old.s, old.gamma)

    @pytest.mark.parametrize("f_kind,g_kind", [("indicator", "mode"), ("mode", "indicator")])
    def test_indicator_and_mode_densities_drive_a_solve(self, tmp_path, f_kind, g_kind):
        # the *_radius and *_mode keys reach their constructors
        from fracsys import indicator_density, mode_density

        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "dimension = 2\ns = 0.5\nalpha = 2.2\nbeta = 1.4\ngrid_size = 64\n"
            f"box_length = 20\nf_kind = {f_kind}\ng_kind = {g_kind}\n"
            "f_radius = 2.5\ng_radius = 3.0\nf_mode = 2\ng_mode = 3\n"
        )
        cfg = parse_config_file(cfg_file)
        grid = cfg.grid()
        expect = {
            "indicator": lambda which: indicator_density(
                grid, center=[0.0, 0.0], radius=getattr(cfg, f"{which}_radius")),
            "mode": lambda which: mode_density(grid, k=getattr(cfg, f"{which}_mode")),
        }
        for which, kind in (("f", f_kind), ("g", g_kind)):
            got = cfg.density(which, grid).values
            assert got.tobytes() == expect[kind](which).values.tobytes()
        out = tmp_path / "s"
        assert run_cli(["solve", "--config", str(cfg_file), "--output", str(out)]) == EXIT_OK
        report = json.loads((out / "solve_report.json").read_text())
        assert report["report"]["converged"] is True


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

        def ratio_row():
            return {r.name: r for r in verify.run_all_checks(constants)}["ratio_measured"]

        assert ratio_row().passed
        original = verify.minimize_quotient

        def worse(*args, **kwargs):
            res = original(*args, **kwargs)
            return dataclasses.replace(res, value=res.value * 1.05)

        monkeypatch.setattr(verify, "minimize_quotient", worse)
        result = ratio_row()
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


def _edit_report(key, value):
    """An edit of constants.json text that maps one report value."""

    def edit(text):
        payload = json.loads(text)
        payload["report"][key] = value(payload["report"][key])
        return json.dumps(payload)

    return edit


class TestConstantsReuse:
    """solve and verify rebuild their constants from the output directory's
    constants.json when it was measured for the same problem, and measure
    them afresh in every other case."""

    BASE = {"alpha": 1.5, "beta": 1.5, "grid_size": 64, "box_length": 40.0, "seed": 3}

    @staticmethod
    def _write_cfg(path, keys):
        path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
        return str(path)

    @staticmethod
    def _count_measurements(monkeypatch):
        import fracsys.cli as cli

        calls = []
        original = cli.measure_constants

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "measure_constants", counted)
        return calls

    def test_solve_and_verify_reuse_constants(self, tmp_path, monkeypatch):
        import fracsys.cli as cli

        # one relative output path in two directories, so the reports match byte for byte
        for side in ("fresh", "lab"):
            (tmp_path / side).mkdir()
        cfg = self._write_cfg(tmp_path / "run.cfg", {**self.BASE, "output": "out"})
        monkeypatch.chdir(tmp_path / "fresh")
        assert run_cli(["solve", "--config", cfg]) == EXIT_OK
        assert run_cli(["verify", "--config", cfg]) == EXIT_OK
        monkeypatch.chdir(tmp_path / "lab")
        assert run_cli(["constants", "--config", cfg]) == EXIT_OK

        def refuse(*args, **kwargs):
            raise AssertionError("constants measured again")

        monkeypatch.setattr(cli, "measure_constants", refuse)
        assert run_cli(["solve", "--config", cfg]) == EXIT_OK
        assert run_cli(["verify", "--config", cfg]) == EXIT_OK
        for name in ("solve_report.json", "verify.csv", "u_bar.csv", "trace.csv"):
            fresh = (tmp_path / "fresh" / "out" / name).read_bytes()
            assert (tmp_path / "lab" / "out" / name).read_bytes() == fresh, name

    @pytest.mark.parametrize(
        "base,change",
        [
            ({}, {"alpha": 1.6}),
            ({}, {"s": 0.3}),
            ({}, {"grid_size": 32}),
            ({}, {"box_length": 30.0}),
            ({}, {"max_iter": 5000}),
            # powers at the critical exponent, the regime set explicitly
            ({"alpha": 2.0, "beta": 2.0}, {"gamma": 1}),
            # quotient tolerances min(tol, 1e-8) of 1e-8 and 1e-9
            ({}, {"tol": 1e-9}),
        ],
        ids=["alpha", "s", "grid_size", "box_length", "max_iter", "gamma", "tol"],
    )
    def test_mismatched_file_is_measured_again(self, tmp_path, monkeypatch, base, change):
        out = str(tmp_path / "out")
        first = self._write_cfg(tmp_path / "a.cfg", {**self.BASE, **base, "output": out})
        second = self._write_cfg(
            tmp_path / "b.cfg", {**self.BASE, **base, **change, "output": out}
        )
        assert run_cli(["constants", "--config", first]) == EXIT_OK
        calls = self._count_measurements(monkeypatch)
        assert run_cli(["solve", "--config", second]) == EXIT_OK
        assert len(calls) == 1
        used = json.loads((tmp_path / "out" / "solve_report.json").read_text())
        assert used["config"] == {**used["config"], **change}

    def test_tolerances_capped_alike_reuse(self, tmp_path, monkeypatch):
        out = str(tmp_path / "out")
        # tol 1e-6 and 1e-7 both measure at quotient tolerance 1e-8
        first = self._write_cfg(tmp_path / "a.cfg", {**self.BASE, "tol": 1e-6, "output": out})
        second = self._write_cfg(tmp_path / "b.cfg", {**self.BASE, "tol": 1e-7, "output": out})
        assert run_cli(["constants", "--config", first]) == EXIT_OK
        calls = self._count_measurements(monkeypatch)
        assert run_cli(["solve", "--config", second]) == EXIT_OK
        assert run_cli(["verify", "--config", second]) == EXIT_OK
        assert calls == []

    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: text[: len(text) // 2],
            lambda text: text.replace('"max_iter"', '"max_iterations"'),
            _edit_report("s_vector", lambda _: None),
            _edit_report("s_vector", lambda _: -1),
            # the last bit of r: the rebuilt report derives the measured one
            _edit_report("radius", lambda r: float(np.nextafter(r, np.inf))),
        ],
        ids=["invalid-json", "missing-key", "null-vector", "negative-vector", "edited-radius"],
    )
    def test_unusable_file_is_measured_again(self, tmp_path, monkeypatch, edit):
        out = tmp_path / "out"
        cfg = self._write_cfg(tmp_path / "run.cfg", {**self.BASE, "output": str(out)})
        assert run_cli(["constants", "--config", cfg]) == EXIT_OK
        path = out / "constants.json"
        measured = json.loads(path.read_text())["report"]
        path.write_text(edit(path.read_text()))
        calls = self._count_measurements(monkeypatch)
        assert run_cli(["solve", "--config", cfg]) == EXIT_OK
        assert run_cli(["verify", "--config", cfg]) == EXIT_OK
        assert len(calls) == 2
        used = json.loads((out / "solve_report.json").read_text())["constants"]
        assert used == measured


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


class TestExitContract:
    """The exit code of every command on a table of edge configs, each one
    edit of a 1-D config in either regime, run through main in process: no
    exception leaves main, and a refused config prints ``config error:``."""

    COMMANDS = ("constants", "bubble", "ground-state", "solve", "verify")
    REGIMES = {"critical": "alpha = 2.0\nbeta = 2.0\n", "subcritical": "alpha = 1.5\nbeta = 1.5\n"}
    # each profile command refuses the other regime
    REFUSED = {"critical": "ground-state", "subcritical": "bubble"}
    ALL = dict.fromkeys(COMMANDS, EXIT_CONFIG)
    EDITS = {
        # refused as at the parent commit
        "s=0": ("s = 0", ALL),
        "s=1.5": ("s = 1.5", ALL),
        "dimension=4": ("dimension = 4", ALL),
        "grid_size=48": ("grid_size = 48", ALL),
        "box_length=0": ("box_length = 0", ALL),
        "alpha=1": ("alpha = 1", ALL),
        "gamma=0-subcritical": ("alpha = 1.5\nbeta = 1.5\ngamma = 0", ALL),
        "f_kind=weird": ("f_kind = weird", {"solve": EXIT_CONFIG}),
        "f_mode=32": ("f_kind = mode\nf_mode = 32", {"solve": EXIT_CONFIG}),
        "f_radius=0": ("f_kind = indicator\nf_radius = 0", {"solve": EXIT_CONFIG}),
        "f_center=20": ("f_center = 20", {"solve": EXIT_CONFIG}),
        "bubble_lambda=0": ("bubble_lambda = 0", {"bubble": EXIT_CONFIG}),
        "no-equals": ("alpha 2.0", ALL),
        # N = 2s has no critical exponent to infer gamma from
        "N=2,s=1": ("dimension = 2\ns = 1", ALL),
        "N=1,s=0.5": ("dimension = 1\ns = 0.5", ALL),
        # squares outside the double range
        "f_width=1e300": ("f_width = 1e300", {"solve": EXIT_CONFIG}),
        "f_width=1e-300": ("f_width = 1e-300", {"solve": EXIT_CONFIG}),
        "g_width=1e300": ("g_width = 1e300", {"solve": EXIT_CONFIG}),
        "g_width=1e-300": ("g_width = 1e-300", {"solve": EXIT_CONFIG}),
        "bubble_lambda=1e300": ("bubble_lambda = 1e300", {"bubble": EXIT_CONFIG}),
        "bubble_lambda=1e-300": ("bubble_lambda = 1e-300", {"bubble": EXIT_CONFIG}),
        # an output directory blocked by a regular file
        "output=file": ("output = {blocker}", ALL),
        "output=file/sub": ("output = {blocker}/sub", ALL),
        # box lengths whose spacing, squared frequency or squared radius
        # leaves the normal double range
        "box_length=5e-324": ("box_length = 5e-324", ALL),
        "box_length=1e-300": ("box_length = 1e-300", ALL),
        "box_length=1e-160": ("box_length = 1e-160", ALL),
        "box_length=1e155": ("box_length = 1e155", ALL),
        "box_length=1e300": ("box_length = 1e300", ALL),
        # widths whose r^2 / (2 w^2) overflows though their square is normal
        "f_width=2e-154": ("f_width = 2e-154", {"solve": EXIT_CONFIG}),
        "g_width=2e-154": ("g_width = 2e-154", {"solve": EXIT_CONFIG}),
        # densities, or forcings scaled to a fraction of d, whose dual norm
        # or peak overflows
        "f_amplitude=1e300": ("f_amplitude = 1e300", {"solve": EXIT_CONFIG}),
        "g_amplitude=1e300": ("g_amplitude = 1e300", {"solve": EXIT_CONFIG}),
        "f_mode-amplitude=1e308": ("f_kind = mode\nf_amplitude = 1e308", {"solve": EXIT_CONFIG}),
        "g_fraction_of_d=1e300": ("g_fraction_of_d = 1e300", {"solve": EXIT_CONFIG}),
        # numerical failures: one iteration cannot meet a zero tolerance
        "tol=0,max_iter=1": (
            "tol = 0\nmax_iter = 1",
            {"constants": EXIT_NUMERICAL, "ground-state": EXIT_NUMERICAL,
             "solve": EXIT_NUMERICAL, "verify": EXIT_NUMERICAL},
        ),
    }

    # the first report file each command writes
    FIRST_REPORT = {
        "constants": "constants.json", "bubble": "bubble.csv",
        "ground-state": "ground_state.csv", "solve": "u_bar.csv", "verify": "verify.csv",
    }

    def _run(self, tmp_path, regime, command, text):
        cfg_file = tmp_path / f"{command}.cfg"
        cfg_file.write_text(
            f"grid_size = 64\nbox_length = 40\n{self.REGIMES[regime]}"
            f"output = {tmp_path / command}\n{text}\n"
        )
        return main([command, "--config", str(cfg_file)])

    @pytest.mark.parametrize("edit", list(EDITS))
    @pytest.mark.parametrize("regime", list(REGIMES))
    def test_exit_codes(self, tmp_path, capsys, regime, edit):
        text, codes = self.EDITS[edit]
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file\n")
        got, want = {}, {}
        for command in self.COMMANDS:
            got[command] = self._run(tmp_path, regime, command, text.format(blocker=blocker))
            refused = command == self.REFUSED[regime]
            want[command] = EXIT_CONFIG if refused else codes.get(command, EXIT_OK)
            err = capsys.readouterr().err
            if got[command] == EXIT_CONFIG:
                assert err.startswith("config error: "), (command, err)
        assert got == want

    @pytest.mark.parametrize("regime", list(REGIMES))
    def test_report_path_a_directory(self, tmp_path, capsys, regime):
        # a report that cannot be written is refused with the file's name
        for command, name in self.FIRST_REPORT.items():
            (tmp_path / command / name).mkdir(parents=True)
            assert self._run(tmp_path, regime, command, "") == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("config error: "), (command, err)
            if command != self.REFUSED[regime]:
                assert name in err, (command, err)

    @pytest.mark.parametrize("length", ["1e-150", "1e153"])
    @pytest.mark.parametrize("regime", list(REGIMES))
    def test_extreme_admitted_box(self, tmp_path, capsys, regime, length):
        # the smallest and largest boxes of the table are posed: every
        # command succeeds or fails numerically, and none warns
        for command in self.COMMANDS:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = self._run(tmp_path, regime, command, f"box_length = {length}")
            want = (EXIT_CONFIG,) if command == self.REFUSED[regime] else (EXIT_OK, EXIT_NUMERICAL)
            assert code in want and caught == [], (command, code, capsys.readouterr().err)


# values an edit may set any key to: edge numbers, non-numbers and strings
# that no key parses.  No pool value makes a grid above 64 points per axis,
# a 3-D grid above 16 (the draw is refused below) or max_iter above 50
EDIT_VALUES = (
    "0", "1", "-1", "2", "3", "16", "0.5", "5e-324", "1e-300", "2e-154", "1e300",
    repr(sys.float_info.max), "nan", "inf", "-inf", "abc",
)
EDIT_KEYS = tuple(k for k in cli.ExperimentConfig.__dataclass_fields__ if k != "output")


@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(
    command=st.sampled_from(TestExitContract.COMMANDS),
    regime=st.sampled_from(list(TestExitContract.REGIMES)),
    edits=st.lists(st.tuples(st.sampled_from(EDIT_KEYS), st.sampled_from(EDIT_VALUES)),
                   min_size=1, max_size=2),
)
def test_exit_contract_holds_for_drawn_edits(command, regime, edits):
    # one or two edits of a 1-D P=64 config: main returns 0, 1 or 2, lets
    # no exception out, raises no warning, and explains a refusal
    values = dict(edits)
    dimension, points = values.get("dimension", "1"), values.get("grid_size", "64")
    assume(not (dimension == "3" and points == "64"))
    with tempfile.TemporaryDirectory() as tmp:
        cfg_file = Path(tmp) / "run.cfg"
        lines = [f"{key} = {value}" for key, value in edits]
        cfg_file.write_text(
            f"grid_size = 64\nbox_length = 40\nmax_iter = 50\n{TestExitContract.REGIMES[regime]}"
            f"output = {Path(tmp) / 'out'}\n" + "\n".join(lines) + "\n"
        )
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main([command, "--config", str(cfg_file)])
    assert code in (EXIT_OK, EXIT_NUMERICAL, EXIT_CONFIG)
    assert caught == [], [str(w.message) for w in caught]
    if code == EXIT_CONFIG:
        assert err.getvalue().startswith("config error: "), err.getvalue()


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


@pytest.mark.parametrize(
    "module", ["constants", "energy", "forcing", "grids", "profiles", "solve", "verify"]
)
def test_all_lists_match_definitions(module):
    # each name a module lists in __all__ is defined in it, and each public
    # name the package re-exports is listed by the module that defines it
    import fracsys

    mod = importlib.import_module(f"fracsys.{module}")
    foreign = [
        name for name in mod.__all__
        if not hasattr(mod, name)
        or getattr(getattr(mod, name), "__module__", mod.__name__) != mod.__name__
    ]
    assert foreign == []
    unlisted = [
        name for name, obj in vars(fracsys).items()
        if not name.startswith("_")
        and getattr(obj, "__module__", None) == mod.__name__
        and name not in mod.__all__
    ]
    assert unlisted == []

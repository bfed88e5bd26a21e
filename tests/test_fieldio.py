"""The fixed-width field codec against Python's own formatter and parser.

Each field line must be ``'%+.16e' % v`` with a three-digit exponent, and
each decoded line must be ``float()`` of its text, bit for bit.
"""

from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsys import Field, load_field, make_grid, save_field
from fracsys import fieldio
from fracsys.cli import EXIT_OK, main
from fracsys.fieldio import decode_values, encode_values


def reference_line(v):
    """A finite value's field line, from Python's formatter alone."""
    mantissa, exponent = ("%+.16e" % v).split("e")
    return f"{mantissa}e{exponent[0]}{int(exponent[1:]):03d}\n"


def decimal_line(x):
    """A Decimal rounded to 17 significant digits, in the field layout."""
    mantissa, exponent = f"{x:+.16e}".split("e")
    return f"{mantissa}e{exponent[0]}{int(exponent[1:]):03d}\n"


def block_of(lines):
    return np.frombuffer("".join(lines).encode(), np.uint8).reshape(len(lines), 25)


def assert_encodes_like_python(values):
    values = np.asarray(values, dtype=float)
    assert encode_values(values).tobytes() == "".join(map(reference_line, values)).encode()


def assert_decodes_like_float(lines):
    expected = np.array([float(line) for line in lines])
    assert decode_values(block_of(lines)).tobytes() == expected.tobytes()


EDGE_VALUES = [
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    -1.7976931348623157e308, 1e16, 1e17, 9.999999999999999e-5, 2.0**53, 1e15 + 0.25,
    1e-280, -1e-280, 1e280, -1e280, np.nextafter(1e-280, 0.0), np.nextafter(1e280, np.inf),
    1.0, 0.5, 0.1, -1.0 / 3.0,
]


class TestWriter:
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_lines_match_python(self, values):
        assert_encodes_like_python(values)

    def test_random_bit_patterns_match_python(self):
        bits = np.random.default_rng(11).integers(0, 2**64, 50_000, dtype=np.uint64)
        values = bits.view(np.float64)
        assert_encodes_like_python(values[np.isfinite(values)])

    def test_edge_values_match_python(self):
        assert_encodes_like_python(EDGE_VALUES)

    def test_powers_of_ten_and_neighbours_match_python(self):
        # log10 misses the exponent by one next to a power of ten, and some
        # doubles just below one carry to 1.0000000000000000e+m (1e-79, 1e-243)
        values = []
        for m in range(-300, 301):
            below = above = float(f"1e{m}")
            values.append(below)
            for _ in range(3):
                below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
                values += [below, above]
        assert_encodes_like_python(values)

    def test_reference_field_formats_no_row_in_python(self, tmp_path, monkeypatch):
        # the critical-3d reference solve: every written value is coded in numpy
        calls = []

        def counted(v):
            calls.append(v)
            return python_line(v)

        python_line = fieldio._python_line
        monkeypatch.setattr(fieldio, "_python_line", counted)
        cfg = tmp_path / "critical-3d.cfg"
        cfg.write_text(
            "dimension = 3\ngrid_size = 64\ns = 0.5\nalpha = 1.8\nbeta = 1.2\n"
            "box_length = 40\ntol = 1e-8\nseed = 7\nf_width = 2\ng_width = 1.5\n"
            f"output = {tmp_path / 'out'}\n"
        )
        assert main(["solve", "--config", str(cfg)]) == EXIT_OK
        assert calls == []
        for name in ("u_bar", "v_bar"):
            field = load_field(tmp_path / "out" / f"{name}.csv")
            assert field.values.size == 64**3
            assert encode_values(field.values.ravel()).tobytes() == (
                (tmp_path / "out" / f"{name}.csv").read_bytes().split(b"\n", 2)[2]
            )


class TestReader:
    def test_random_17_digit_tokens(self):
        rng = np.random.default_rng(12)
        digits = rng.integers(10**16, 10**17, 20_000).tolist()
        exponents = rng.integers(-280, 281, 20_000).tolist()
        lines = [
            f"{'+-'[i % 2]}{str(d)[0]}.{str(d)[1:]}e{'-' if e < 0 else '+'}{abs(e):03d}\n"
            for i, (d, e) in enumerate(zip(digits, exponents))
        ]
        assert_decodes_like_float(lines)

    def test_near_midpoint_tokens(self):
        rng = np.random.default_rng(13)
        lines = []
        # 17-digit integers between 1e16 and 2**54 that are exact midpoints
        # between doubles (spacing 2), and their neighbours
        for d in rng.integers(5 * 10**15, 9 * 10**15, 2_000).tolist():
            for k in (2 * d - 1, 2 * d, 2 * d + 1):
                text = str(k)
                lines.append(f"+{text[0]}.{text[1:]}e+016\n")
        # the 17-digit roundings of midpoints at random scales
        values = rng.standard_normal(3_000) * 10.0 ** rng.integers(-270, 270, 3_000)
        for v in values.tolist():
            midpoint = (Decimal(v) + Decimal(float(np.nextafter(v, np.inf)))) / 2
            lines.append(decimal_line(midpoint))
        assert_decodes_like_float(lines)

    def test_edge_values_round_trip(self, tmp_path):
        grid = make_grid(1, 32, 10.0)
        values = np.resize(np.array(EDGE_VALUES), 32)
        path = tmp_path / "f.csv"
        save_field(Field(grid, values), path)
        assert load_field(path).values.tobytes() == values.tobytes()

    def test_fields_over_several_chunks(self, tmp_path, monkeypatch):
        # 4,096 values in chunks of 1,000: four full chunks and a partial one
        monkeypatch.setattr(fieldio, "_CHUNK", 1000)
        grid = make_grid(2, 64, 8.0)
        values = np.random.default_rng(14).standard_normal(grid.shape)
        path = tmp_path / "f.csv"
        save_field(Field(grid, values), path)
        lines = path.read_text().splitlines(keepends=True)[2:]
        assert lines == [reference_line(v) for v in values.ravel()]
        assert load_field(path).values.tobytes() == values.tobytes()

    @pytest.mark.parametrize(
        "line",
        ["+1.0000000000000000e+000\n", "-0.0000000000000000e-000\n", "+9.9999999999999999e+999\n",
         "+0.0000000000000001e-320\n", "+1.0000000000000000e-310\n"],
        ids=["one", "negative-zero", "overflow", "leading-zero-subnormal", "subnormal"],
    )
    def test_tokens_outside_the_fast_range(self, line):
        assert_decodes_like_float([line] * 3)

    @pytest.mark.parametrize(
        "line",
        ["+1.0000000000000000e+00\n ", ",1.0000000000000000e+000\n", "+1.0000000000000000e,000\n",
         "+1,0000000000000000e+000\n", "+1.000000000000000:e+000\n", "+1.0000000000000000E+000\n"],
        ids=["short-exponent", "comma-sign", "comma-exponent-sign", "comma-point", "colon-digit",
             "capital-e"],
    )
    def test_off_layout_block_is_refused(self, line):
        lines = ["+1.0000000000000000e+000\n"] * 3
        lines[1] = line
        assert decode_values(block_of(lines)) is None


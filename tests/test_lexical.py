"""Unit tests for the lexical (value ↔ ASCII) layer."""

import math

import numpy as np
import pytest

from repro.errors import LexicalError, SchemaError
from repro.lexical.booleans import BOOL_MAX_WIDTH, format_bool, parse_bool
from repro.lexical.floats import (
    DOUBLE_MAX_WIDTH,
    FloatFormat,
    format_double,
    format_double_array,
    gather_rows,
    parse_double,
)
from repro.lexical.integers import (
    INT_MAX_WIDTH,
    LONG_MAX_WIDTH,
    format_int,
    format_int_array,
    parse_int,
)
from repro.lexical.strings import format_string, parse_string
from repro.lexical.widths import (
    MIO_MAX_WIDTH,
    MIO_MIN_WIDTH,
    WidthSpec,
    width_spec_for,
)


class TestIntegers:
    def test_simple(self):
        assert format_int(13902) == b"13902"
        assert format_int(-1) == b"-1"
        assert format_int(0) == b"0"

    def test_paper_width_claims(self):
        # "encoding the integer 1 requires only one character, whereas
        # 13902 requires five" (§3)
        assert len(format_int(1)) == 1
        assert len(format_int(13902)) == 5
        # 11-char xsd:int maximum (§4.4)
        assert len(format_int(-(2**31))) == INT_MAX_WIDTH
        assert len(format_int(-(2**63))) == LONG_MAX_WIDTH

    def test_out_of_range(self):
        with pytest.raises(LexicalError):
            format_int(2**63)

    def test_parse_round_trip(self):
        for v in (0, 1, -1, 2**31 - 1, -(2**31), 123456789):
            assert parse_int(format_int(v)) == v

    def test_parse_whitespace_collapse(self):
        assert parse_int(b"  42 \n") == 42

    def test_parse_plus_sign(self):
        assert parse_int(b"+7") == 7

    @pytest.mark.parametrize("bad", [b"", b"  ", b"1.5", b"1e3", b"abc", b"-"])
    def test_parse_rejects(self, bad):
        with pytest.raises(LexicalError):
            parse_int(bad)

    def test_array_formatting(self):
        out = format_int_array(np.array([1, -20, 300]))
        assert out == [b"1", b"-20", b"300"]

    def test_array_formatting_list(self):
        assert format_int_array([5, 6]) == [b"5", b"6"]

    def test_array_wrong_dtype(self):
        with pytest.raises(LexicalError):
            format_int_array(np.array([1.5]))


class TestDoubles:
    def test_minimal_drops_point_zero(self):
        assert format_double(5.0) == b"5"
        assert format_double(0.0) == b"0"
        assert format_double(-3.0) == b"-3"

    def test_shortest_keeps_point_zero(self):
        assert format_double(5.0, FloatFormat.SHORTEST) == b"5.0"

    def test_g17_fixed_precision(self):
        text = format_double(0.1, FloatFormat.G17)
        assert text == b"0.10000000000000001"

    def test_specials(self):
        assert format_double(math.inf) == b"INF"
        assert format_double(-math.inf) == b"-INF"
        assert format_double(math.nan) == b"NaN"

    def test_max_width_claim(self):
        # Paper §4.4: doubles need at most 24 characters.
        worst = -2.2250738585072014e-308
        for fmt in FloatFormat:
            assert len(format_double(worst, fmt)) <= DOUBLE_MAX_WIDTH
        assert len(format_double(worst)) == 24

    def test_parse_round_trip_exact(self):
        rng = np.random.default_rng(7)
        for v in rng.random(200).tolist():
            for fmt in FloatFormat:
                assert parse_double(format_double(v, fmt)) == v

    def test_parse_specials(self):
        assert parse_double(b"INF") == math.inf
        assert parse_double(b"-INF") == -math.inf
        assert math.isnan(parse_double(b"NaN"))

    def test_parse_whitespace(self):
        assert parse_double(b"  1.5\t") == 1.5

    @pytest.mark.parametrize("bad", [b"", b"1.5x", b"inf", b"nan", b"0x10"])
    def test_parse_rejects(self, bad):
        with pytest.raises(LexicalError):
            parse_double(bad)

    def test_array_round_trip(self):
        values = np.array([0.5, 1e300, -2.25, 5.0, 1e-300])
        for fmt in FloatFormat:
            texts = format_double_array(values, fmt)
            back = np.array([parse_double(t) for t in texts])
            assert (back == values).all()

    def test_array_with_specials(self):
        values = np.array([1.0, math.inf, math.nan])
        texts = format_double_array(values)
        assert texts[1] == b"INF" and texts[2] == b"NaN"

    def test_array_wrong_dtype(self):
        with pytest.raises(LexicalError):
            format_double_array(np.array([1, 2]))

    def test_sequence_input(self):
        assert format_double_array([0.5, 2.0]) == [b"0.5", b"2"]

    @pytest.mark.parametrize(
        "size,rows", [(300, 40), (300, 9000), (10, 9000), (300, 0)]
    )
    def test_gather_rows_window_and_clamped_tail(self, size, rows):
        """In-bounds rows come from the buffer's row window and past-end
        rows repeat its last byte: together the matrix that clamping
        every byte index to the buffer gives (the old block path)."""
        width = 24
        rng = np.random.default_rng(size + rows)
        buf = rng.integers(0, 256, size, dtype=np.uint8)
        starts = rng.integers(0, size, rows)
        # First row, the last whole row, rows one byte and all but one
        # byte short, and rows starting at and beyond the end.
        edges = [0, size - width, size - width + 1, size - 1, size, size + 7]
        starts[: len(edges)] = edges[: min(rows, len(edges))]
        starts = np.maximum(starts, 0)
        clamped = buf[np.minimum(starts[:, None] + np.arange(width), size - 1)]
        got = gather_rows(buf, starts, width)
        assert got.dtype == np.uint8 and got.shape == (rows, width)
        assert np.array_equal(got, clamped)
        inside = starts <= size - width
        assert np.array_equal(gather_rows(buf, starts[inside], width), clamped[inside])


class TestBooleans:
    def test_format(self):
        assert format_bool(True) == b"true"
        assert format_bool(False) == b"false"
        assert len(b"false") == BOOL_MAX_WIDTH

    @pytest.mark.parametrize(
        "text,expected",
        [(b"true", True), (b"1", True), (b"false", False), (b"0", False)],
    )
    def test_parse(self, text, expected):
        assert parse_bool(text) is expected

    def test_parse_rejects(self):
        with pytest.raises(LexicalError):
            parse_bool(b"TRUE")


class TestStrings:
    def test_escape_round_trip(self):
        s = 'a<b>&"c" λ'
        assert parse_string(format_string(s)) == s

    def test_whitespace_preserved(self):
        assert parse_string(b"  padded  ") == "  padded  "


class TestWidthSpecs:
    def test_known_specs(self):
        assert width_spec_for("double").max_width == 24
        assert width_spec_for("int").max_width == 11
        assert width_spec_for("string").max_width is None

    def test_stuffable(self):
        assert width_spec_for("double").stuffable
        assert not width_spec_for("string").stuffable

    def test_clamp(self):
        spec = width_spec_for("double")
        assert spec.clamp(100) == 24
        assert spec.clamp(0) == spec.min_width
        assert spec.clamp(18) == 18

    def test_unknown_raises(self):
        with pytest.raises(SchemaError):
            width_spec_for("quaternion")

    def test_mio_widths_match_paper(self):
        # Fig. 6 caption: smallest MIO 3 chars, largest 46 chars.
        assert MIO_MIN_WIDTH == 3
        assert MIO_MAX_WIDTH == 46

    def test_widthspec_dataclass(self):
        spec = WidthSpec(1, 10)
        assert spec.clamp(5) == 5

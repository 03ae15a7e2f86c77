"""Property tests: lexical round trips and width bounds."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import doubles_of_width
from repro.lexical.floats import (
    DOUBLE_MAX_WIDTH,
    FloatFormat,
    format_double,
    minimal_fits,
    parse_double,
)
from repro.lexical.integers import (
    INT_MAX_WIDTH,
    LONG_MAX_WIDTH,
    format_int,
    parse_int,
)
from repro.lexical.strings import format_string, parse_string
from repro.xmlkit.escape import escape_attr, escape_text, unescape

finite_doubles = st.floats(allow_nan=False, allow_infinity=False)
int32s = st.integers(min_value=-(2**31), max_value=2**31 - 1)
int64s = st.integers(min_value=-(2**63), max_value=2**63 - 1)


class TestFloatProperties:
    @given(finite_doubles, st.sampled_from(list(FloatFormat)))
    def test_round_trip_exact(self, value, fmt):
        assert parse_double(format_double(value, fmt)) == value

    @given(finite_doubles, st.sampled_from(list(FloatFormat)))
    def test_width_bound(self, value, fmt):
        assert len(format_double(value, fmt)) <= DOUBLE_MAX_WIDTH

    @given(st.floats(allow_nan=True, allow_infinity=True))
    def test_specials_round_trip(self, value):
        text = format_double(value)
        back = parse_double(text)
        assert back == value or (math.isnan(back) and math.isnan(value))

    @given(finite_doubles)
    def test_ascii_only(self, value):
        text = format_double(value)
        assert all(b < 128 for b in text)


def _unsound(values: np.ndarray, rooms: np.ndarray) -> list:
    """The values :func:`minimal_fits` proves fit a room their MINIMAL
    text does not; any at all is a bug.  NumPy warnings are errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fits = minimal_fits(values, rooms)
    assert fits.dtype == bool and fits.shape == values.shape
    return [
        (float(v), int(room), format_double(float(v)))
        for v, room, ok in zip(values, rooms, fits)
        if ok and len(format_double(float(v))) > room
    ]


def _targeted() -> np.ndarray:
    """Values where a room proof can slip: both neighbours of every
    power of ten in and around the proof's band, its edges, signed
    zeros, subnormals, the extremes, NaN and the infinities."""
    powers = np.array([10.0**k for k in range(-5, 18)])
    edges = np.array(
        [1e-3, 1e14, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    )
    with np.errstate(over="ignore"):  # the largest double steps to INF
        near = np.concatenate(
            (powers, edges, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
             np.nextafter(edges, 0), np.nextafter(edges, np.inf))
        )
    specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf])
    return np.concatenate((near, -near, specials))


class TestMinimalFits:
    """``minimal_fits`` never proves a room its value's text overflows,
    and proves every value the ledger's unstuffed widths make."""

    @given(
        st.lists(
            st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 30)),
            min_size=1,
            max_size=64,
        )
    )
    def test_bit_patterns_never_overclaim(self, cells):
        bits, rooms = zip(*cells)
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        assert _unsound(values, np.array(rooms)) == []

    @given(
        st.lists(
            st.tuples(
                st.floats(-1e15, 1e15), st.integers(0, 17), st.integers(0, 30)
            ),
            min_size=1,
            max_size=64,
        )
    )
    def test_short_decimals_never_overclaim(self, cells):
        """Values with few digits, the ones the digit proof takes."""
        values = np.array([round(v, places) for v, places, _ in cells])
        assert _unsound(values, np.array([room for _, _, room in cells])) == []

    @pytest.mark.parametrize("room", range(31))
    def test_targeted_values_never_overclaim(self, room):
        values = _targeted()
        assert _unsound(values, np.full(values.size, room)) == []

    def test_specials_are_left_unproven_below_the_full_width(self):
        values = np.array([0.0, -0.0, 5e-324, 1e-300, 1e20, np.nan, np.inf, -np.inf])
        assert not minimal_fits(values, np.full(values.size, DOUBLE_MAX_WIDTH - 1)).any()
        assert minimal_fits(values, np.full(values.size, DOUBLE_MAX_WIDTH)).all()

    @pytest.mark.parametrize("width", range(10, 18))
    def test_every_unstuffed_width_is_proven_at_its_own_room(self, width):
        values = doubles_of_width(256, width, seed=width)
        assert minimal_fits(values, np.full(256, width)).all()
        assert minimal_fits(-values, np.full(256, width + 1)).all()


class TestIntProperties:
    @given(int64s)
    def test_round_trip(self, value):
        assert parse_int(format_int(value)) == value

    @given(int32s)
    def test_int32_width_bound(self, value):
        assert len(format_int(value)) <= INT_MAX_WIDTH

    @given(int64s)
    def test_int64_width_bound(self, value):
        assert len(format_int(value)) <= LONG_MAX_WIDTH

    @given(int64s, st.text(alphabet=" \t\r\n", max_size=4))
    def test_whitespace_collapse(self, value, pad):
        assert parse_int(pad.encode() + format_int(value) + pad.encode()) == value


class TestStringProperties:
    @given(st.text())
    def test_round_trip(self, value):
        assert parse_string(format_string(value)) == value

    @given(st.binary())
    def test_text_escape_round_trip(self, data):
        assert unescape(escape_text(data)) == data

    @given(st.binary())
    def test_attr_escape_round_trip(self, data):
        assert unescape(escape_attr(data)) == data

    @given(st.binary())
    def test_escaped_text_has_no_raw_specials(self, data):
        escaped = escape_text(data)
        assert b"<" not in escaped and b">" not in escaped
        # every remaining '&' must start an entity
        i = escaped.find(b"&")
        while i >= 0:
            assert escaped.find(b";", i) > i
            i = escaped.find(b"&", i + 1)

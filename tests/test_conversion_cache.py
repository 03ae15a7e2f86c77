"""Table-driven and fixed-width formatting (repro.lexical.cache) and
the buffer layout epoch.

Each fast form may only change *how fast* bytes are produced, never
the bytes: every test here checks output against the per-value
conversion.
"""

import numpy as np
import pytest

from repro.buffers.config import ChunkPolicy
from repro.core.policy import DiffPolicy
from repro.core.serializer import build_template
from repro.lexical.cache import (
    DOUBLE_FIXED_WIDTH,
    SMALL_INT_MAX,
    SMALL_INT_MIN,
    format_double_fixed,
    format_double_fixed_blob,
    small_int_bytes,
)
from repro.lexical.floats import FloatFormat, format_double, format_double_array, parse_double
from repro.lexical.integers import format_int_array
from repro.schema.composite import ArrayType
from repro.schema.types import DOUBLE
from repro.soap.message import Parameter, SOAPMessage


def msg(*params):
    return SOAPMessage("op", "urn:test", list(params))


class TestFixedFormat:
    @pytest.mark.parametrize(
        "value",
        [
            0.0,
            -0.0,
            1.0,
            -1.0,
            1.5e-300,
            -9.99999999999999909e-309,  # widest negative 3-digit exponent
            1.7976931348623157e308,
            5e-324,  # smallest subnormal
            0.1 + 0.2,
        ],
    )
    def test_exactly_24_chars_and_roundtrip(self, value):
        text = format_double_fixed(value)
        assert len(text) == DOUBLE_FIXED_WIDTH
        assert parse_double(text) == value

    def test_random_values_all_24_chars(self):
        rng = np.random.default_rng(0)
        vals = rng.random(500) * 10.0 ** rng.integers(-300, 300, 500).astype(float)
        for t in format_double_array(vals, FloatFormat.FIXED):
            assert len(t) == DOUBLE_FIXED_WIDTH

    def test_non_finite_uses_xsd_forms(self):
        assert format_double(float("inf"), FloatFormat.FIXED) == b"INF"
        assert format_double(float("-inf"), FloatFormat.FIXED) == b"-INF"
        assert format_double(float("nan"), FloatFormat.FIXED) == b"NaN"

    def test_blob_matches_per_value_and_rejects_non_finite(self):
        vals = np.array([1.5, -2.25, 0.0, -0.0])
        blob = format_double_fixed_blob(vals)
        assert blob == b"".join(format_double_fixed(v) for v in vals.tolist())
        assert format_double_fixed_blob(np.array([1.0, float("nan")])) is None
        assert format_double_fixed_blob([1.0, float("inf")]) is None


class TestSmallIntTable:
    def test_bounds(self):
        assert small_int_bytes(SMALL_INT_MIN) == b"%d" % SMALL_INT_MIN
        assert small_int_bytes(SMALL_INT_MAX - 1) == b"%d" % (SMALL_INT_MAX - 1)
        assert small_int_bytes(SMALL_INT_MIN - 1) is None
        assert small_int_bytes(SMALL_INT_MAX) is None

    def test_batch_matches_plain_formatting(self):
        vals = np.arange(SMALL_INT_MIN - 50, SMALL_INT_MAX + 50, 997)
        assert format_int_array(vals) == [b"%d" % v for v in vals.tolist()]
        assert format_int_array(vals.tolist()) == [
            b"%d" % v for v in vals.tolist()
        ]


class TestLayoutEpoch:
    """The delta encoder sends a frame only while the epoch it recorded
    with its baseline is unchanged (``repro.wire.client``)."""

    def test_buffer_ops_bump_epoch(self):
        t = build_template(
            msg(Parameter("a", ArrayType(DOUBLE), [1.5] * 8)),
            DiffPolicy(chunk=ChunkPolicy(chunk_size=128, reserve=16, split_threshold=48)),
        )
        buf = t.buffer
        e0 = buf.layout_epoch
        cids = buf.chunk_ids
        tail = buf.chunk(cids[0]).tobytes()[10:]
        buf.rebuild([(cids[0], 10, tail, [])])  # inplace
        assert buf.layout_epoch == e0 + 1
        # One rebuild call is one layout change, however many chunks.
        buf.rebuild([(cid, 0, buf.chunk(cid).tobytes(), []) for cid in cids])
        assert buf.layout_epoch == e0 + 2
        # A call with no edits is a no-op: no epoch change.
        buf.rebuild([])
        assert buf.layout_epoch == e0 + 2

"""Conversion caches (repro.lexical.cache) and the buffer layout epoch.

A cached conversion may only change *how fast* bytes are produced,
never the bytes: every test here checks output against an uncached
conversion or a fresh serialization.
"""

import numpy as np
import pytest

from repro.buffers.config import ChunkPolicy
from repro.core.differential import rewrite_dirty
from repro.core.policy import DiffPolicy, StuffingPolicy, StuffMode
from repro.core.serializer import build_template
from repro.lexical.cache import (
    DOUBLE_FIXED_WIDTH,
    ConversionMemo,
    SMALL_INT_MAX,
    SMALL_INT_MIN,
    clear_memos,
    format_double_fixed,
    format_double_fixed_blob,
    format_int_array_cached,
    memo_for,
    memo_stats,
    small_int_bytes,
)
from repro.lexical.floats import FloatFormat, format_double, format_double_array, parse_double
from repro.schema.composite import ArrayType
from repro.schema.types import DOUBLE
from repro.soap.message import Parameter, SOAPMessage


def msg(*params):
    return SOAPMessage("op", "urn:test", list(params))


FIXED_MAX = DiffPolicy(
    float_format=FloatFormat.FIXED, stuffing=StuffingPolicy(StuffMode.MAX)
)


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


class TestConversionMemo:
    def setup_method(self):
        clear_memos()

    def test_cached_output_byte_identical(self):
        vals = [1.5, 0.1234567890123456, 1.5, -7.25, 1.5]
        for fmt in FloatFormat:
            assert format_double_array(vals, fmt, cached=True) == format_double_array(
                vals, fmt
            )

    def test_negative_zero_never_cached_wrong(self):
        # -0.0 == 0.0 share a dict key but differ lexically; prime the
        # memo with one sign, then convert the other.
        for first, second in [(0.0, -0.0), (-0.0, 0.0)]:
            clear_memos()
            for fmt in FloatFormat:
                a = format_double_array([first] * 3, fmt, cached=True)
                b = format_double_array([second] * 3, fmt, cached=True)
                assert a == [format_double(first, fmt)] * 3
                assert b == [format_double(second, fmt)] * 3

    def test_hits_accumulate(self):
        clear_memos()
        format_double_array([3.25] * 100, FloatFormat.MINIMAL, cached=True)
        stats = memo_stats()["minimal"]
        assert stats["hits"] == 99 and stats["misses"] == 1

    def test_adaptive_bypass_on_full_entropy_stream(self):
        from repro.lexical.cache import BYPASS_BATCHES, BYPASS_WINDOW

        memo = memo_for("minimal")
        rng = np.random.default_rng(5)
        # Miss-only traffic past the window triggers the bypass...
        for _ in range(3):
            vals = rng.random(BYPASS_WINDOW).tolist()
            out = format_double_array(vals, FloatFormat.MINIMAL, cached=True)
            assert out == format_double_array(vals, FloatFormat.MINIMAL)
        assert memo.bypass_remaining > 0
        # ...bypassed batches still produce correct bytes and stop
        # touching the memo.
        size_before = len(memo)
        vals = rng.random(64).tolist()
        assert format_double_array(vals, FloatFormat.MINIMAL, cached=True) == (
            format_double_array(vals, FloatFormat.MINIMAL)
        )
        assert len(memo) == size_before
        # Probing resumes after the bypass window is consumed.
        for _ in range(BYPASS_BATCHES):
            format_double_array([1.5], FloatFormat.MINIMAL, cached=True)
        assert memo.bypass_remaining == 0
        assert memo.bypassed_batches >= BYPASS_BATCHES

    def test_fixed_blob_bypass_still_byte_identical(self):
        from repro.lexical.cache import BYPASS_WINDOW

        memo = memo_for("fixed")
        rng = np.random.default_rng(6)
        for _ in range(3):
            vals = rng.random(BYPASS_WINDOW)
            blob = format_double_fixed_blob(vals, cached=True)
            assert blob == format_double_fixed_blob(vals)
        assert memo.bypass_remaining > 0
        vals = rng.random(32)
        assert format_double_fixed_blob(vals, cached=True) == (
            format_double_fixed_blob(vals)
        )

    def test_template_build_does_not_poison_memo(self):
        # First-time serialization converts thousands of distinct
        # values; it must not trip the memo's bypass and starve the
        # differential path that follows.
        clear_memos()
        pol = FIXED_MAX
        t = build_template(
            msg(
                Parameter(
                    "a",
                    ArrayType(DOUBLE),
                    (np.arange(8192) * 0.731 + 0.125).tolist(),
                )
            ),
            pol,
        )
        memo = memo_for("fixed")
        assert memo.bypass_remaining == 0 and len(memo) == 0
        tr = t.tracked("a")
        idx = np.arange(0, 8192, 2)
        for _ in range(3):
            tr.update(idx, np.full(len(idx), 2.5))
            rewrite_dirty(t, pol)
        assert memo.hits > 0

    def test_rotation_bounds_residency(self):
        memo = memo_for("minimal")
        memo.capacity = 8
        vals = [float(i) + 0.5 for i in range(40)]
        for v in vals:
            format_double_array([v], FloatFormat.MINIMAL, cached=True)
        assert len(memo) <= 2 * memo.capacity + 1
        assert memo.rotations > 0
        clear_memos()
        memo.capacity = ConversionMemo().capacity


class TestSmallIntTable:
    def test_bounds(self):
        assert small_int_bytes(SMALL_INT_MIN) == b"%d" % SMALL_INT_MIN
        assert small_int_bytes(SMALL_INT_MAX - 1) == b"%d" % (SMALL_INT_MAX - 1)
        assert small_int_bytes(SMALL_INT_MIN - 1) is None
        assert small_int_bytes(SMALL_INT_MAX) is None

    def test_batch_matches_plain_formatting(self):
        vals = np.arange(SMALL_INT_MIN - 50, SMALL_INT_MAX + 50, 997)
        assert format_int_array_cached(vals) == [b"%d" % v for v in vals.tolist()]
        assert format_int_array_cached(vals.tolist()) == [
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
        cid = buf.chunk_ids[0]
        buf.insert_gap(cid, 10, 4, 5)  # inplace
        assert buf.layout_epoch == e0 + 1
        buf.steal_move(cid, 12, 10, 2)
        assert buf.layout_epoch == e0 + 2
        # Zero-delta gap is a no-op: no epoch change.
        buf.insert_gap(cid, 10, 0, 5)
        assert buf.layout_epoch == e0 + 2

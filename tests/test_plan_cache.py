"""Compiled rewrite plans + conversion caches (repro.core.plan / repro.lexical.cache).

Plans may only change *how fast* bytes are produced, never the bytes:
every test here ultimately checks wire output against the generic
path or a fresh full serialization.
"""

import dataclasses

import numpy as np
import pytest

from repro.buffers.config import ChunkPolicy
from repro.core.client import BSoapClient
from repro.core.differential import rewrite_dirty
from repro.core.plan import PlanCache, compile_plan
from repro.core.policy import (
    DiffPolicy,
    Expansion,
    PlanPolicy,
    StuffingPolicy,
    StuffMode,
)
from repro.core.serializer import build_template
from repro.core.stats import RewriteStats
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
from repro.schema.mio import make_mio_array_type
from repro.schema.types import DOUBLE, INT, STRING
from repro.soap.message import Parameter, SOAPMessage
from repro.transport.loopback import CollectSink
from repro.xmlkit.canonical import diff_documents, documents_equivalent


def msg(*params):
    return SOAPMessage("op", "urn:test", list(params))


def oracle(template, message, policy=None):
    fresh = build_template(message, policy).tobytes()
    got = template.tobytes()
    assert documents_equivalent(got, fresh), diff_documents(got, fresh)


FIXED_MAX = DiffPolicy(
    float_format=FloatFormat.FIXED, stuffing=StuffingPolicy(StuffMode.MAX)
)


# ----------------------------------------------------------------------
# conversion cache layer (repro.lexical.cache)
# ----------------------------------------------------------------------
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


# ----------------------------------------------------------------------
# plan cache mechanics
# ----------------------------------------------------------------------
class TestPlanLifecycle:
    def test_hit_on_repeated_signature(self):
        t = build_template(msg(Parameter("a", ArrayType(DOUBLE), [1.5] * 50)))
        pol = DiffPolicy()
        tr = t.tracked("a")
        idx = np.arange(0, 50, 5)
        tr.update(idx, np.full(len(idx), 2.5))
        s1 = rewrite_dirty(t, pol)
        assert (s1.plan_hits, s1.plan_misses) == (0, 1)
        tr.update(idx, np.full(len(idx), 3.5))
        s2 = rewrite_dirty(t, pol)
        assert (s2.plan_hits, s2.plan_misses) == (1, 0)
        oracle(t, msg(Parameter("a", ArrayType(DOUBLE), [1.5 if i % 5 else 3.5 for i in range(50)])))

    def test_different_signature_misses_then_both_hit(self):
        t = build_template(msg(Parameter("a", ArrayType(DOUBLE), [1.5] * 50)))
        pol = DiffPolicy()
        tr = t.tracked("a")
        a = np.arange(0, 50, 5)
        b = np.arange(1, 50, 5)
        for idx, expect in [(a, (0, 1)), (b, (0, 1)), (a, (1, 0)), (b, (1, 0))]:
            tr.update(idx, np.full(len(idx), 2.5))
            s = rewrite_dirty(t, pol)
            assert (s.plan_hits, s.plan_misses) == expect

    def test_disabled_never_compiles(self):
        t = build_template(msg(Parameter("a", ArrayType(DOUBLE), [1.5] * 20)))
        pol = DiffPolicy(plan=PlanPolicy(enabled=False))
        tr = t.tracked("a")
        for _ in range(3):
            tr[3] = 2.5
            s = rewrite_dirty(t, pol)
            assert (s.plan_hits, s.plan_misses) == (0, 0)
        assert len(t.plan_cache) == 0

    def test_eviction_fifo(self):
        t = build_template(msg(Parameter("a", ArrayType(DOUBLE), [1.5] * 40)))
        pol = DiffPolicy(plan=PlanPolicy(max_plans_per_segment=2))
        tr = t.tracked("a")
        sigs = [np.arange(0, 40, k) for k in (2, 3, 5)]
        for idx in sigs:
            tr.update(idx, np.full(len(idx), 2.5))
            rewrite_dirty(t, pol)
        assert len(t.plan_cache) == 2
        # The first signature was evicted: resending it misses.
        tr.update(sigs[0], np.full(len(sigs[0]), 3.5))
        s = rewrite_dirty(t, pol)
        assert (s.plan_hits, s.plan_misses) == (0, 1)

    def test_compile_bypass_after_miss_streak(self):
        from repro.core.plan import COMPILE_BYPASS_STREAK

        t = build_template(msg(Parameter("a", ArrayType(DOUBLE), [1.5] * 256)), FIXED_MAX)
        pol = dataclasses.replace(FIXED_MAX, plan=PlanPolicy(max_plans_per_segment=2))
        tr = t.tracked("a")
        # A never-repeating signature stream: each send misses; after
        # the streak threshold the cache stops compiling (so the two
        # stored plans stop churning).
        for k in range(COMPILE_BYPASS_STREAK + 4):
            idx = np.arange(k % 64, 256, 64 + k)
            tr.update(idx, np.full(len(idx), 2.5 + k))
            rewrite_dirty(t, pol)
        assert len(t.plan_cache) == 2
        stored_masks = [
            p.mask.copy()
            for plans in t.plan_cache.segments.values()
            for p in plans
        ]
        idx = np.arange(5, 256, 64 + COMPILE_BYPASS_STREAK + 4)
        tr.update(idx, np.full(len(idx), 9.5))
        rewrite_dirty(t, pol)
        after = [
            p.mask
            for plans in t.plan_cache.segments.values()
            for p in plans
        ]
        assert all(np.array_equal(a, b) for a, b in zip(stored_masks, after))
        # Stored plans still hit during the bypass.
        first = np.arange(0, 256, 64)
        tr.update(first, np.full(len(first), 1.25))
        s = rewrite_dirty(t, pol)
        assert s.plan_hits == 0 or s.plan_hits == 1  # evicted or retained
        oracle_vals = list(map(float, tr.data))
        oracle(t, msg(Parameter("a", ArrayType(DOUBLE), oracle_vals)), FIXED_MAX)

    def test_hit_resets_compile_streak(self):
        t = build_template(msg(Parameter("a", ArrayType(DOUBLE), [1.5] * 40)))
        pol = DiffPolicy()
        tr = t.tracked("a")
        idx = np.arange(0, 40, 4)
        tr.update(idx, np.full(len(idx), 2.5))
        rewrite_dirty(t, pol)  # miss + compile
        key = next(iter(t.plan_cache.segments))
        tr.update(idx, np.full(len(idx), 3.5))
        s = rewrite_dirty(t, pol)  # hit
        assert s.plan_hits == 1
        assert t.plan_cache._streaks[key] == [0, 0]

    def test_min_dirty_skips_tiny_segments(self):
        t = build_template(msg(Parameter("a", ArrayType(DOUBLE), [1.5] * 20)))
        pol = DiffPolicy(plan=PlanPolicy(min_dirty=4))
        tr = t.tracked("a")
        tr[7] = 2.5
        rewrite_dirty(t, pol)
        assert len(t.plan_cache) == 0


class TestLayoutEpochInvalidation:
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

    def test_shift_invalidates_plan(self):
        t = build_template(msg(Parameter("a", ArrayType(DOUBLE), [1.5] * 30)))
        pol = DiffPolicy()
        tr = t.tracked("a")
        idx = np.arange(0, 30, 3)
        tr.update(idx, np.full(len(idx), 2.5))
        rewrite_dirty(t, pol)
        # Outgrow a field: expansion bumps the layout epoch.
        tr[1] = -1.2345678901234567e-300
        rewrite_dirty(t, pol)
        tr.update(idx, np.full(len(idx), 3.5))
        s = rewrite_dirty(t, pol)
        assert s.plan_invalidations >= 1
        assert s.plan_hits == 0
        oracle(
            t,
            msg(
                Parameter(
                    "a",
                    ArrayType(DOUBLE),
                    [
                        -1.2345678901234567e-300
                        if i == 1
                        else (3.5 if i % 3 == 0 else 1.5)
                        for i in range(30)
                    ],
                )
            ),
        )

    def test_steal_invalidates_plan(self):
        pol = DiffPolicy(
            stuffing=StuffingPolicy(StuffMode.FIXED, {"double": 12}),
            expansion=Expansion.STEAL,
        )
        t = build_template(msg(Parameter("a", ArrayType(DOUBLE), [1.5] * 30)), pol)
        tr = t.tracked("a")
        idx = np.arange(0, 30, 3)
        tr.update(idx, np.full(len(idx), 2.5))
        rewrite_dirty(t, pol)
        tr[4] = 0.12345678901234  # 16 chars > 12: forces steal or shift
        s = rewrite_dirty(t, pol)
        assert s.expansions == 1
        tr.update(idx, np.full(len(idx), 3.5))
        s = rewrite_dirty(t, pol)
        assert s.plan_invalidations >= 1 and s.plan_hits == 0

    def test_rebuild_in_place_clears_cache(self):
        t = build_template(msg(Parameter("a", ArrayType(DOUBLE), [1.5] * 20)))
        pol = DiffPolicy()
        tr = t.tracked("a")
        tr.update(np.arange(0, 20, 2), np.full(10, 2.5))
        rewrite_dirty(t, pol)
        assert len(t.plan_cache) == 1
        t.rebuild_in_place(pol)
        assert len(t.plan_cache) == 0

    def test_stale_plan_never_matches_after_rebuild(self):
        # The fresh buffer restarts epochs at 0; without the explicit
        # clear, a plan from old epoch 0 would pass the epoch check
        # and write through dangling chunk references.
        t = build_template(msg(Parameter("a", ArrayType(DOUBLE), [1.5] * 20)))
        pol = DiffPolicy()
        tr = t.tracked("a")
        idx = np.arange(0, 20, 2)
        assert t.buffer.layout_epoch == 0
        tr.update(idx, np.full(10, 2.5))
        rewrite_dirty(t, pol)
        t.rebuild_in_place(pol)
        assert t.buffer.layout_epoch == 0
        tr.update(idx, np.full(10, 3.5))
        s = rewrite_dirty(t, pol)
        assert (s.plan_hits, s.plan_misses) == (0, 1)
        oracle(
            t,
            msg(
                Parameter(
                    "a",
                    ArrayType(DOUBLE),
                    [3.5 if i % 2 == 0 else 1.5 for i in range(20)],
                )
            ),
        )


# ----------------------------------------------------------------------
# splice path
# ----------------------------------------------------------------------
class TestSplicePath:
    def test_spliced_values_byte_exact(self):
        vals = [1.5] * 64
        t = build_template(msg(Parameter("a", ArrayType(DOUBLE), vals)), FIXED_MAX)
        tr = t.tracked("a")
        idx = np.arange(0, 64, 4)
        rng = np.random.default_rng(3)
        tr.update(idx, rng.random(len(idx)))
        s1 = rewrite_dirty(t, FIXED_MAX)
        assert s1.plan_spliced == 0  # first send compiles
        new = rng.random(len(idx)) * 1e100
        tr.update(idx, new)
        s2 = rewrite_dirty(t, FIXED_MAX)
        assert s2.plan_spliced == len(idx)
        expected = list(map(float, t.tracked("a").data))
        oracle(t, msg(Parameter("a", ArrayType(DOUBLE), expected)), FIXED_MAX)
        t.validate()

    def test_non_finite_falls_back_and_recovers(self):
        t = build_template(msg(Parameter("a", ArrayType(DOUBLE), [1.5] * 16)), FIXED_MAX)
        tr = t.tracked("a")
        idx = np.arange(16)
        tr.update(idx, np.full(16, 2.5))
        rewrite_dirty(t, FIXED_MAX)
        # INF is 3 chars in a 24-char field: generic path, ser_len drifts.
        tr.update(idx, np.full(16, np.inf))
        s = rewrite_dirty(t, FIXED_MAX)
        assert s.plan_spliced == 0 and s.plan_hits == 1
        oracle(t, msg(Parameter("a", ArrayType(DOUBLE), [float("inf")] * 16)), FIXED_MAX)
        # Back to finite: ser_len != 24 so splice must re-verify and
        # take the generic path once, restoring the 24-char forms.
        tr.update(idx, np.full(16, 3.5))
        s = rewrite_dirty(t, FIXED_MAX)
        assert s.plan_spliced == 0
        oracle(t, msg(Parameter("a", ArrayType(DOUBLE), [3.5] * 16)), FIXED_MAX)
        # And once uniform again, splicing resumes.
        tr.update(idx, np.full(16, 4.5))
        s = rewrite_dirty(t, FIXED_MAX)
        assert s.plan_spliced == 16
        oracle(t, msg(Parameter("a", ArrayType(DOUBLE), [4.5] * 16)), FIXED_MAX)
        t.validate()

    def test_struct_arrays_never_splice(self):
        cols = {"x": [1, 2, 3], "y": [4, 5, 6], "v": [0.5, 1.5, 2.5]}
        pol = FIXED_MAX
        t = build_template(msg(Parameter("m", make_mio_array_type(), dict(cols))), pol)
        tr = t.tracked("m")
        for v in (7.5, 8.5, 9.5):
            tr.set_column("v", [v, v, v])
            s = rewrite_dirty(t, pol)
            assert s.plan_spliced == 0
        cols["v"] = [9.5, 9.5, 9.5]
        oracle(t, msg(Parameter("m", make_mio_array_type(), cols)), pol)

    def test_uneven_spacing_uses_generic_plan(self):
        t = build_template(msg(Parameter("a", ArrayType(DOUBLE), [1.5] * 32)), FIXED_MAX)
        tr = t.tracked("a")
        idx = np.array([0, 1, 5, 6, 30])  # not an arithmetic progression
        for v in (2.5, 3.5):
            tr.update(idx, np.full(len(idx), v))
            s = rewrite_dirty(t, FIXED_MAX)
            assert s.plan_spliced == 0
        assert s.plan_hits == 1
        expected = [3.5 if i in idx.tolist() else 1.5 for i in range(32)]
        oracle(t, msg(Parameter("a", ArrayType(DOUBLE), expected)), FIXED_MAX)


# ----------------------------------------------------------------------
# client-level byte identity (plans on vs off) + pipelined driver
# ----------------------------------------------------------------------
def _drive(policy, ops, n=64):
    sink = CollectSink()
    client = BSoapClient(sink, policy)
    call = client.prepare(
        msg(Parameter("a", ArrayType(DOUBLE), [1.5] * n))
    )
    call.send()
    tr = call.tracked("a")
    rng = np.random.default_rng(11)
    for op in ops:
        if op == "repeat":
            idx = np.arange(0, n, 3)
            tr.update(idx, rng.random(len(idx)))
        elif op == "other":
            idx = np.arange(1, n, 7)
            tr.update(idx, rng.random(len(idx)))
        elif op == "grow":
            tr[int(rng.integers(n))] = -1.2345678901234567e-300
        elif op == "all":
            tr.update(np.arange(n), rng.random(n))
        elif op == "special":
            tr[int(rng.integers(n))] = float(rng.choice([np.inf, -np.inf, np.nan, 0.0, -0.0]))
        call.send()
    return sink.messages, client


OPS = ["repeat", "repeat", "grow", "repeat", "other", "special", "repeat", "all", "repeat", "repeat"]


@pytest.mark.parametrize(
    "base",
    [
        DiffPolicy(),
        FIXED_MAX,
        DiffPolicy(chunk=ChunkPolicy(chunk_size=256, reserve=16, split_threshold=128)),
        DiffPolicy(pipelined_send=True),
        dataclasses.replace(FIXED_MAX, pipelined_send=True),
    ],
    ids=["default", "fixed-max", "small-chunks", "pipelined", "pipelined-fixed-max"],
)
def test_plans_on_off_wire_identical(base):
    on, client_on = _drive(dataclasses.replace(base, plan=PlanPolicy(enabled=True)), OPS)
    off, _ = _drive(dataclasses.replace(base, plan=PlanPolicy(enabled=False)), OPS)
    assert on == off
    assert client_on.stats.plan_hits > 0


def test_pipelined_driver_reports_plan_stats():
    pol = dataclasses.replace(FIXED_MAX, pipelined_send=True)
    sink = CollectSink()
    client = BSoapClient(sink, pol)
    call = client.prepare(msg(Parameter("a", ArrayType(DOUBLE), [1.5] * 32)))
    call.send()
    tr = call.tracked("a")
    idx = np.arange(0, 32, 2)
    tr.update(idx, np.full(len(idx), 2.5))
    r1 = call.send()
    tr.update(idx, np.full(len(idx), 3.5))
    r2 = call.send()
    assert (r1.rewrite.plan_hits, r1.rewrite.plan_misses) == (0, 1)
    assert r2.rewrite.plan_hits == 1 and r2.rewrite.plan_spliced == len(idx)


def test_client_stats_accumulate_plan_counters():
    _, client = _drive(FIXED_MAX, ["repeat", "repeat", "repeat"])
    st = client.stats
    assert st.plan_hits >= 1
    assert st.plan_misses >= 1
    assert "plan_hits=" in st.summary()


def test_multi_param_segments_are_independent():
    pol = DiffPolicy()
    t = build_template(
        msg(
            Parameter("a", ArrayType(DOUBLE), [1.5] * 16),
            Parameter("b", ArrayType(INT), list(range(16))),
        )
    )
    ta, tb = t.tracked("a"), t.tracked("b")
    for v in (2.5, 3.5):
        ta.update(np.arange(0, 16, 2), np.full(8, v))
        tb.update(np.arange(0, 16, 4), np.arange(4) + int(v))
        rewrite_dirty(t, pol)
    s = RewriteStats()
    ta.update(np.arange(0, 16, 2), np.full(8, 4.5))
    tb.update(np.arange(0, 16, 4), np.arange(4) + 9)
    s = rewrite_dirty(t, pol)
    assert s.plan_hits == 2  # one per param segment
    oracle(
        t,
        msg(
            Parameter("a", ArrayType(DOUBLE), [4.5 if i % 2 == 0 else 1.5 for i in range(16)]),
            Parameter("b", ArrayType(INT), [i // 4 + 9 if i % 4 == 0 else i for i in range(16)]),
        ),
    )

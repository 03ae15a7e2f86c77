"""Unit tests for policies and statistics containers."""

import pytest

from repro.core.policy import (
    DiffPolicy,
    OverlayPolicy,
    StuffMode,
    StuffingPolicy,
)
from repro.core.stats import ClientStats, MatchKind, RewriteStats, SendReport
from repro.errors import SchemaError
from repro.schema.types import DOUBLE, INT, STRING


class TestStuffingPolicy:
    def test_none_mode(self):
        policy = StuffingPolicy()
        assert policy.width_for(DOUBLE, 7) == 7

    def test_max_mode(self):
        policy = StuffingPolicy(StuffMode.MAX)
        assert policy.width_for(DOUBLE, 1) == 24
        assert policy.width_for(INT, 3) == 11
        # A value already at max keeps its length.
        assert policy.width_for(DOUBLE, 24) == 24

    def test_fixed_mode(self):
        policy = StuffingPolicy(StuffMode.FIXED, {"double": 18})
        assert policy.width_for(DOUBLE, 5) == 18
        assert policy.width_for(DOUBLE, 20) == 20  # longer value wins
        assert policy.width_for(INT, 3) == 3  # no fixed width for int

    def test_fixed_clamped_to_type_max(self):
        policy = StuffingPolicy(StuffMode.FIXED, {"double": 99})
        assert policy.width_for(DOUBLE, 1) == 24

    def test_fixed_below_min_rejected(self):
        policy = StuffingPolicy(StuffMode.FIXED, {"double": 0})
        with pytest.raises(SchemaError):
            policy.width_for(DOUBLE, 1)

    def test_strings_never_stuffed(self):
        for mode in StuffMode:
            policy = StuffingPolicy(mode, {"string": 50})
            assert policy.width_for(STRING, 4) == 4

    def test_fixed_layout_guarantee(self):
        assert StuffingPolicy(StuffMode.MAX).guarantees_fixed_layout
        assert not StuffingPolicy(StuffMode.FIXED, {"double": 18}).guarantees_fixed_layout
        assert not StuffingPolicy().guarantees_fixed_layout


class TestDiffPolicy:
    def test_defaults(self):
        policy = DiffPolicy()
        assert policy.differential_enabled
        assert policy.template_variants == 1
        assert not policy.overlay.enabled

    def test_derived_portion_items(self):
        policy = DiffPolicy(overlay=OverlayPolicy(enabled=True, portion_items=77))
        assert policy.derived_portion_items(item_bytes=10) == 77
        policy = DiffPolicy()
        per = policy.derived_portion_items(item_bytes=32)
        assert per == policy.chunk.soft_limit // 32
        assert policy.derived_portion_items(item_bytes=10**9) == 1

    def test_frozen(self):
        with pytest.raises(AttributeError):
            DiffPolicy().template_variants = 5  # type: ignore[misc]


class TestRewriteStats:
    def test_expansions_sum(self):
        stats = RewriteStats(shifts_inplace=1, reallocs=2, splits=3)
        assert stats.expansions == 6

    def test_merge(self):
        a = RewriteStats(values_rewritten=3, tag_shifts=1, pad_bytes=5)
        b = RewriteStats(values_rewritten=2, splits=1)
        a.merge(b)
        assert a.values_rewritten == 5
        assert a.splits == 1
        assert a.pad_bytes == 5


class TestClientStats:
    def test_record_and_summary(self):
        stats = ClientStats()
        stats.record(SendReport(MatchKind.FIRST_TIME, 100))
        stats.record(SendReport(MatchKind.CONTENT_MATCH, 100))
        stats.record(SendReport(MatchKind.CONTENT_MATCH, 100))
        assert stats.sends == 3
        assert stats.bytes_sent == 300
        assert stats.by_kind[MatchKind.CONTENT_MATCH] == 2
        text = stats.summary()
        assert "sends=3" in text and "content=2" in text

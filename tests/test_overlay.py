"""Unit tests for the chunk-overlaying baseline (paper §3.3)."""

import numpy as np
import pytest

from repro.baselines.paper_overlay import OverlaySender, build_overlay_template
from repro.buffers.config import ChunkPolicy
from repro.core.policy import DiffPolicy, StuffingPolicy, StuffMode
from repro.core.serializer import build_template
from repro.core.stats import MatchKind, RewriteStats
from repro.errors import OverlayError
from repro.schema.composite import ArrayType
from repro.schema.mio import make_mio_array_type
from repro.schema.types import DOUBLE, STRING
from repro.soap.message import Parameter, SOAPMessage
from repro.transport.loopback import CollectSink
from repro.xmlkit.canonical import documents_equivalent
from repro.xmlkit.scanner import parse_document


def dmsg(values):
    return SOAPMessage(
        "putBig", "urn:test", [Parameter("a", ArrayType(DOUBLE), values)]
    )


MAX = StuffingPolicy(StuffMode.MAX)
STUFFED = DiffPolicy(stuffing=MAX)


def sized(portion, item_bytes=37, stuffing=MAX):
    """A policy whose chunk soft limit holds *portion* items of
    *item_bytes* each (a MAX-stuffed double: 24 chars + <item></item>)."""
    chunk = ChunkPolicy(chunk_size=portion * item_bytes, reserve=0)
    return DiffPolicy(chunk=chunk, stuffing=stuffing)


def build(message, policy=None):
    return build_overlay_template(message, policy or sized(8))


def collect(overlay):
    stats = RewriteStats()
    parts = [bytes(v) for v in overlay.iter_send_views(stats)]
    return b"".join(parts), stats


class TestEligibility:
    """A message qualifies when it is one array of stuffable items,
    serialized under a stuffing policy."""

    def test_eligible(self):
        assert build(dmsg(np.arange(100.0))).n_items == 100

    def test_needs_stuffing(self):
        with pytest.raises(OverlayError, match="stuffing"):
            build(dmsg(np.arange(100.0)), policy=DiffPolicy())

    def test_multi_param_not_eligible(self):
        m = SOAPMessage(
            "op", "urn:t",
            [
                Parameter("a", ArrayType(DOUBLE), np.arange(50.0)),
                Parameter("b", DOUBLE, 1.0),
            ],
        )
        with pytest.raises(OverlayError, match="one array"):
            build(m)

    def test_string_arrays_not_eligible(self):
        m = SOAPMessage(
            "op", "urn:t", [Parameter("s", ArrayType(STRING), ["a"] * 50)]
        )
        with pytest.raises(OverlayError):
            build(m)

    def test_empty_array_not_eligible(self):
        with pytest.raises(OverlayError):
            build(dmsg(np.arange(0.0)))


class TestBuildAndSend:
    def test_divisible_portions(self):
        values = np.arange(32.0)
        overlay = build(dmsg(values))
        assert overlay.portion_items == 8
        assert overlay.full_portions == 4
        assert overlay.tail is None
        data, stats = collect(overlay)
        parse_document(data)
        fresh = build_template(dmsg(values), STUFFED).tobytes()
        assert documents_equivalent(data, fresh)
        assert stats.values_rewritten == 32

    def test_remainder_tail(self):
        values = np.arange(29.0)
        overlay = build(dmsg(values))
        assert overlay.full_portions == 3
        assert overlay.tail is not None and overlay.tail.items == 5
        data, _ = collect(overlay)
        fresh = build_template(dmsg(values), STUFFED).tobytes()
        assert documents_equivalent(data, fresh)

    def test_total_bytes_exact(self):
        overlay = build(dmsg(np.arange(29.0)))
        data, _ = collect(overlay)
        assert overlay.total_bytes == len(data)

    def test_resident_memory_bounded(self):
        big = np.arange(1000.0)
        overlay = build(dmsg(big), sized(10))
        assert overlay.portion_items == 10
        plain = build_template(dmsg(big), STUFFED)
        # The whole point: resident bytes ≪ full serialized form.
        assert overlay.resident_bytes < plain.total_bytes / 10

    def test_values_update_between_sends(self):
        values = np.arange(32.0)
        overlay = build(dmsg(values))
        collect(overlay)
        overlay.tracked.update(np.array([0, 31]), [111.5, 222.5])
        data, _ = collect(overlay)
        assert b"111.5" in data and b"222.5" in data

    def test_mio_overlay(self):
        cols = {
            "x": np.arange(20),
            "y": np.arange(20) * 2,
            "v": np.arange(20) * 0.5,
        }
        m = SOAPMessage(
            "putMesh", "urn:t", [Parameter("mesh", make_mio_array_type(), cols)]
        )
        overlay = build(m, sized(6, item_bytes=78))
        assert overlay.portion_items == 6
        data, stats = collect(overlay)
        fresh = build_template(m, STUFFED).tobytes()
        assert documents_equivalent(data, fresh)
        assert stats.values_rewritten == 60

    def test_derived_portion_from_chunk_size(self):
        p = DiffPolicy(
            chunk=ChunkPolicy(chunk_size=2048, reserve=64),
            stuffing=StuffingPolicy(StuffMode.MAX),
        )
        overlay = build_overlay_template(dmsg(np.arange(500.0)), p)
        # 24-char doubles + <item></item> = 37 bytes → ~53 items/portion.
        assert 20 < overlay.portion_items < 120

    def test_sends_counter(self):
        overlay = build(dmsg(np.arange(16.0)))
        collect(overlay)
        collect(overlay)
        assert overlay.sends == 2


class TestOverlayErrors:
    def test_multi_param_rejected(self):
        m = SOAPMessage(
            "op", "urn:t",
            [
                Parameter("a", ArrayType(DOUBLE), np.arange(10.0)),
                Parameter("b", DOUBLE, 1.0),
            ],
        )
        with pytest.raises(OverlayError):
            build(m)

    def test_no_stuffing_rejected(self):
        with pytest.raises(OverlayError):
            build(dmsg(np.arange(10.0)), policy=DiffPolicy())

    def test_value_exceeding_width_rejected_on_rewrite(self):
        five = StuffingPolicy(StuffMode.FIXED, {"double": 5})
        overlay = build(dmsg(np.array([1.0] * 8)), sized(4, 18, five))
        assert overlay.portion_items == 4
        overlay.tracked.update(np.array([5]), [0.123456789012])  # 14 chars > 5
        with pytest.raises(OverlayError):
            collect(overlay)


class TestSender:
    def test_sends_whole_array_every_time(self):
        sink = CollectSink()
        sender = OverlaySender(sink, sized(8))
        values = np.arange(32.0)
        first = sender.send(dmsg(values))
        assert first.match_kind is MatchKind.FIRST_TIME
        values = values.copy()
        values[[3, 30]] = [0.25, -7.5]
        again = sender.send(dmsg(values))
        assert again.match_kind is MatchKind.PERFECT_STRUCTURAL
        # Overlaying rewrites every value on every send.
        assert again.rewrite.values_rewritten == 32
        assert again.bytes_sent == len(sink.last)
        fresh = build_template(dmsg(values), STUFFED).tobytes()
        assert documents_equivalent(sink.last, fresh)
        assert len(sender.templates) == 1

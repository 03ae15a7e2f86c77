"""Hostile frames at the frame entry.

A frame is peer-controlled: its splices may cross region edges,
rewrite skeleton bytes, damage a closing tag or carry a value that
faults.  The mirror is patched before any of that is known, so the
rule under test is: whatever the frame lane answers — values, or an
error class — is what a full parse of the patched document answers,
and the decode kept afterwards is either consistent with the buffer
or gone.  Every case is followed by a clean frame that must decode
the right values.
"""

from __future__ import annotations

import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.core.client import BSoapClient
from repro.core.policy import DiffPolicy, StuffingPolicy, StuffMode
from repro.errors import DeltaFrameError, LexicalError, XMLError
from repro.hardening.fuzz import DeltaFrameFuzzer
from repro.hardening.limits import DEFAULT_LIMITS, ResourceLimits
from repro.lexical.floats import format_double
from repro.runtime import loadgen
from repro.schema.composite import ArrayType
from repro.schema.types import DOUBLE, STRING
from repro.server.diffdeser import DeserKind, DifferentialDeserializer
from repro.server.parser import SOAPRequestParser
from repro.soap.message import Parameter, SOAPMessage
from repro.transport.loopback import CollectSink
from repro.wire.frame import INSERT_FLAG, encode_frame
from repro.wire.server import DeltaSession, DocumentEntry
from tests.test_skipscan_property import _assert_decoded_equal

CLOSE = b"</item>"
FRAME = {"x-repro-delta": "1", "x-repro-delta-frame": "1"}
ANNOUNCE = {
    "x-repro-delta": "1",
    "x-repro-delta-template": "1",
    "x-repro-delta-epoch": "1",
}


def _body(values, stuffing: StuffMode = StuffMode.MAX) -> bytes:
    sink = CollectSink()
    client = BSoapClient(sink, DiffPolicy(stuffing=StuffingPolicy(stuffing)))
    client.send(
        SOAPMessage(
            loadgen.OPERATION,
            loadgen.SERVICE_NS,
            [Parameter("data", ArrayType(DOUBLE), np.asarray(values, dtype=float))],
        )
    )
    return sink.last


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - compared by class below
        return type(exc)


class Peer:
    """A mirror entry and the deserializer decoding it, fed hand-made
    frames."""

    def __init__(self, body: bytes) -> None:
        self.deser = DifferentialDeserializer()
        self.delta = self.deser.store
        self.decoded, _report = self.deser.deserialize(self.delta.store(1, 1, body))
        assert self.deser.has_seek_table
        self.regions = SOAPRequestParser().parse(body).regions
        self.doc_len = len(body)
        self.seq = 0

    @property
    def entry(self) -> DocumentEntry:
        return self.delta.mirrors[1]

    @property
    def buffer(self) -> bytearray:
        return self.entry.data

    def frame(self, *splices) -> bytes:
        """The next frame in sequence, from ``(offset, bytes)`` pairs."""
        self.seq += 1
        splices = sorted(splices)
        return encode_frame(
            1, 1, self.seq, self.doc_len,
            [offset for offset, _ in splices],
            [len(data) for _, data in splices],
            b"".join(data for _, data in splices),
        )

    def grown(self, inserts, *splices) -> bytes:
        """The next frame in sequence with pad *inserts* ``(new offset,
        bytes)`` leading its directory; *splices* in new coordinates."""
        self.seq += 1
        self.doc_len += sum(count for _at, count in inserts)
        splices = sorted(splices)
        return encode_frame(
            1, 1, self.seq, self.doc_len,
            [at for at, _ in inserts] + [offset for offset, _ in splices],
            [INSERT_FLAG | count for _, count in inserts]
            + [len(data) for _, data in splices],
            b"".join(data for _, data in splices),
        )

    def send(self, *splices):
        """Apply a frame and decode it; the outcome must be the full
        parse's of the patched document.  Returns the report, or the
        exception class both raised."""
        return self.send_frame(self.frame(*splices))

    def send_frame(self, frame: bytes):
        """:meth:`send` for a frame already encoded."""
        document = self.delta.apply(frame, DEFAULT_LIMITS)
        self.declined = document.declined
        got = _outcome(lambda: self.deser.deserialize(document))
        want = _outcome(lambda: SOAPRequestParser().parse(document.tobytes()))
        if isinstance(want, type):
            assert got is want, f"frame lane {got}, full parse raised {want}"
            return got
        assert not isinstance(got, type), f"frame lane raised {got}"
        self.decoded, report = got
        _assert_decoded_equal(self.decoded, want.message)
        return report

    def field(self, j: int, text: bytes):
        """A whole-region splice: *text*, then the closing tag and pad."""
        start, end = (int(x) for x in self.regions[j])
        return start, (text + CLOSE).ljust(end - start)

    def value(self, j: int) -> float:
        return float(self.decoded.value("data")[j])

    def clean_follow_up(self, j: int, expect: DeserKind) -> None:
        """One clean frame after the hostile one: right value, and the
        lane the survivor state implies."""
        report = self.send(self.field(j, b"0.5"))
        assert report.kind is expect, report
        assert self.value(j) == 0.5


@pytest.fixture
def peer() -> Peer:
    return Peer(_body(np.linspace(1.0, 2.0, 16)))


# ----------------------------------------------------------------------
# splices that are not one region each
# ----------------------------------------------------------------------
def test_whole_region_splices_take_the_payload_lane(peer):
    report = peer.send(peer.field(3, b"42.25"), peer.field(9, b"-7e-3"))
    assert (report.kind, report.leaves_parsed) == (DeserKind.DIFFERENTIAL, 2)
    assert peer.deser.skipscan_stats["hit-vector"] == 1
    assert (peer.value(3), peer.value(9)) == (42.25, -0.007)
    assert peer.entry.decoded == peer.entry.seq


def test_splice_spanning_two_regions_is_skeleton_drift(peer):
    start, _ = (int(x) for x in peer.regions[4])
    _, end = (int(x) for x in peer.regions[5])
    span = bytearray(peer.buffer[start:end])
    span[0:3] = b"9.5"  # leaf 4 changes; the <item> between stays as it was
    report = peer.send((start, bytes(span)))
    assert report.kind is DeserKind.FULL
    assert peer.deser.skipscan_stats["skeleton-drift"] == 1
    assert peer.deser.stats[DeserKind.FULL] == 2  # announce + this
    peer.clean_follow_up(4, DeserKind.DIFFERENTIAL)  # recompiled


def test_splice_rewriting_skeleton_to_the_same_bytes(peer):
    at = peer.buffer.index(b"<item>")
    report = peer.send((at, b"<item>"))
    assert report.kind is DeserKind.FULL
    assert peer.deser.skipscan_stats["skeleton-drift"] == 1
    peer.clean_follow_up(0, DeserKind.DIFFERENTIAL)


def test_partial_region_splices_gather_from_the_buffer(peer):
    start, _ = (int(x) for x in peer.regions[2])
    # Two splices inside one region: one leaf, parsed once.
    report = peer.send((start, b"3"), (start + 2, b"75"))
    assert (report.kind, report.leaves_parsed) == (DeserKind.DIFFERENTIAL, 1)
    assert peer.deser.skipscan_stats["hit-vector"] == 1
    assert str(peer.value(2)).startswith("3.75")
    peer.clean_follow_up(2, DeserKind.DIFFERENTIAL)


# ----------------------------------------------------------------------
# splices inside a region that break it
# ----------------------------------------------------------------------
def test_damaged_closing_tag_raises_like_the_full_parse(peer):
    start, end = (int(x) for x in peer.regions[6])
    raised = peer.send((start, b"2.5</jtem>".ljust(end - start)))
    assert issubclass(raised, XMLError)
    assert peer.deser.skipscan_stats["fallback-tag-drift"] == 1
    # The buffer holds the damaged document; no decode survived it.
    assert not peer.deser.has_template
    before = dict(peer.deser.skipscan_stats)
    peer.clean_follow_up(6, DeserKind.FULL)  # repairs the region
    assert peer.deser.skipscan_stats["compiled"] == before["compiled"] + 1
    peer.clean_follow_up(7, DeserKind.DIFFERENTIAL)


@pytest.mark.parametrize("junk", (b"&", b"x"))
def test_junk_in_the_pad_answers_like_the_full_parse(peer, junk):
    start, end = (int(x) for x in peer.regions[1])
    assert end - start > len(b"1.5" + CLOSE) + 1
    outcome = peer.send((start, (b"1.5" + CLOSE + b" " + junk).ljust(end - start)))
    assert peer.deser.skipscan_stats["fallback-pad-drift"] == 1
    # "&" is not well-formed and leaves no template; "x" is stray text
    # the full parse tolerates, in a template whose leaf 1 now ends
    # before it.  Either way the repair is beyond the seek table ...
    assert peer.deser.has_template == (not isinstance(outcome, type))
    peer.clean_follow_up(1, DeserKind.FULL)
    # ... and compiles the one the next frame rides.
    peer.clean_follow_up(1, DeserKind.DIFFERENTIAL)


@pytest.mark.parametrize("text", (b"INF", b"-INF", b"NaN"))
def test_special_values_take_the_per_leaf_lane(peer, text):
    report = peer.send(peer.field(8, text))
    assert (report.kind, report.leaves_parsed) == (DeserKind.DIFFERENTIAL, 1)
    assert peer.deser.skipscan_stats == {"compiled": 1, "hit": 1}
    expected = float(text.decode().lower())
    assert np.array_equal([peer.value(8)], [expected], equal_nan=True)
    peer.clean_follow_up(8, DeserKind.DIFFERENTIAL)


def test_non_uniform_regions_use_the_per_leaf_lane():
    values = [1.5, 22.25, 333.125, 4444.0625, 5.0]
    peer = Peer(_body(values, StuffMode.NONE))
    assert peer.entry.table.region_len is None
    start, end = (int(x) for x in peer.regions[2])
    report = peer.send((start, b"987.625" + CLOSE))  # as wide as 333.125
    assert (report.kind, report.leaves_parsed) == (DeserKind.DIFFERENTIAL, 1)
    assert peer.deser.skipscan_stats["hit"] == 1
    assert peer.value(2) == 987.625
    # A shorter value moves the closing tag; nothing may follow it
    # but pad, and there is none to spare: tag drift, full parse.
    raised = peer.send((start, b"1.5" + CLOSE + b"ZZZZ"))
    assert isinstance(raised, type) or raised.kind is DeserKind.FULL
    peer.send((start, b"111.125" + CLOSE))
    assert peer.value(2) == 111.125


# ----------------------------------------------------------------------
# faults: decode state is dropped, never left stale
# ----------------------------------------------------------------------
def test_value_fault_drops_decode_state_then_recovers(peer):
    raised = peer.send(peer.field(5, b"7.25"), peer.field(10, b"abc"))
    assert issubclass(raised, LexicalError)
    assert not peer.deser.has_template and not peer.deser.has_seek_table
    assert peer.entry.base is None
    before = dict(peer.deser.stats), dict(peer.deser.skipscan_stats)
    # The clean frame repairs leaf 10; leaf 5 must read 7.25, the
    # value the faulting frame wrote next to the bad one.
    report = peer.send(peer.field(10, b"0.5"))
    assert report.kind is DeserKind.FULL and report.leaves_parsed == 16
    assert peer.deser.stats[DeserKind.FULL] == before[0][DeserKind.FULL] + 1
    assert peer.deser.skipscan_stats["compiled"] == before[1]["compiled"] + 1
    assert (peer.value(5), peer.value(10)) == (7.25, 0.5)
    assert peer.entry.decoded == peer.entry.seq
    peer.clean_follow_up(11, DeserKind.DIFFERENTIAL)


def test_value_fault_then_full_xml_is_not_compared_with_a_stale_decode(peer):
    """The stale-decode case proper.  The faulting frame also wrote a
    good value (leaf 5).  A same-length full-XML message that agrees
    with the patched buffer there would, compared against a template
    that kept the old decode, be answered with the old leaf 5."""
    raised = peer.send(peer.field(5, b"7.25"), peer.field(10, b"abc"))
    assert issubclass(raised, LexicalError)
    document = bytearray(peer.buffer)
    start, data = peer.field(10, b"0.5")
    document[start : start + len(data)] = data
    decoded, report = peer.deser.deserialize(bytes(document))
    assert report.kind is DeserKind.FULL
    assert (decoded.value("data")[5], decoded.value("data")[10]) == (7.25, 0.5)


def test_service_answers_a_client_fault_and_the_next_frame_full_parses():
    service = loadgen.build_service()
    body = _body(np.linspace(1.0, 2.0, 16))
    assert service.handle_wire(body, ANNOUNCE, "s")[0] == 200
    (session,) = [s for s in service.sessions.sessions() if s.key == "s"]
    peer = Peer(body)  # frames for the same document, same ids
    status, _extra, response = service.handle_wire(
        peer.frame(peer.field(5, b"7.25"), peer.field(10, b"abc")), FRAME, "s"
    )
    assert status == 200 and b"Client" in response and b"Fault" in response
    assert session.rejected == {"LexicalError": 1}
    assert not session.deserializer.has_template
    stats = service.deserializer
    before = stats.stats[DeserKind.FULL], stats.skipscan_stats["compiled"]
    status, _extra, response = service.handle_wire(
        peer.frame(peer.field(10, b"0.5")), FRAME, "s"
    )
    assert status == 200 and b"Fault" not in response
    assert (stats.stats[DeserKind.FULL], stats.skipscan_stats["compiled"]) == (
        before[0] + 1, before[1] + 1,
    )
    entry = session.delta.mirrors[1]
    expected = float(np.sum(SOAPRequestParser().parse(bytes(entry.data)).message.value("data")))
    assert format_double(expected) in response
    assert entry.decoded == entry.seq


def test_frame_decoded_without_its_predecessor_full_parses(peer):
    """The directory only says what *this* frame changed; a frame
    applied before it that the deserializer never decoded (whatever
    ran between ``apply`` and ``deserialize`` raised) shows as a gap
    in the sequence it follows, and the full parse takes over."""
    peer.delta.apply(peer.frame(peer.field(3, b"64.0")), DEFAULT_LIMITS)
    report = peer.send(peer.field(4, b"0.25"))
    assert report.kind is DeserKind.FULL
    assert (peer.value(3), peer.value(4)) == (64.0, 0.25)
    peer.clean_follow_up(5, DeserKind.DIFFERENTIAL)


def test_frame_the_deserializer_never_saw_is_not_trusted():
    """A frame that rewrites the operation tag faults at the dispatch
    peek, before the deserializer runs: the mirror moved, the decode
    did not.  The next frame — even a header-only one — must not be
    answered from that decode."""
    service = loadgen.build_service()
    body = _body(np.linspace(1.0, 2.0, 16))
    service.handle_wire(body, ANNOUNCE, "s")
    peer = Peer(body)
    tag = b"ns:" + loadgen.OPERATION.encode()
    at = body.index(b"<" + tag) + 1
    bogus = tag[:-1] + b"X"
    value = peer.field(3, b"64.0")
    status, _x, response = service.handle_wire(
        peer.frame((at, bogus), value), FRAME, "s"
    )
    assert status == 200 and b"unknown operation" in response
    # Header only: the patched document still names no operation.
    status, _x, response = service.handle_wire(peer.frame(), FRAME, "s")
    assert status == 200 and b"Fault" in response
    # Repaired: leaf 3 reads what the unseen frame wrote.
    close_at = body.index(b"</" + tag) + 2
    status, _x, response = service.handle_wire(
        peer.frame((at, tag), (close_at, tag)), FRAME, "s"
    )
    assert status == 200 and b"Fault" not in response
    expected = np.linspace(1.0, 2.0, 16)
    expected[3] = 64.0
    assert format_double(float(np.sum(expected))) in response


# ----------------------------------------------------------------------
# header-only frames, sheds
# ----------------------------------------------------------------------
def test_header_only_frame_is_the_cached_decode(peer, monkeypatch):
    cached = peer.decoded
    events = dict(peer.deser.skipscan_stats)
    # Zero work: not one byte of the document may be read.
    monkeypatch.setattr(peer.entry, "base", None)
    monkeypatch.setattr(peer.deser.parser, "parse", None)
    document = peer.delta.apply(peer.frame(), DEFAULT_LIMITS)
    decoded, report = peer.deser.deserialize(document)
    assert decoded is cached
    assert (report.kind, report.leaves_parsed, report.total_leaves) == (
        DeserKind.CONTENT_MATCH, 0, 16,
    )
    assert peer.deser.skipscan_stats == events
    assert peer.deser.stats[DeserKind.CONTENT_MATCH] == 1


def test_frame_after_seek_table_shed_full_parses_once(peer):
    assert peer.deser.drop_seek_table() > 0
    report = peer.send(peer.field(4, b"8.125"))
    assert report.kind is DeserKind.FULL and peer.deser.has_seek_table
    assert peer.value(4) == 8.125
    peer.clean_follow_up(4, DeserKind.DIFFERENTIAL)


def test_frame_after_mirror_shed_resyncs_and_reannounce_full_parses():
    service = loadgen.build_service()
    body = _body(np.linspace(1.0, 2.0, 16))
    service.handle_wire(body, ANNOUNCE, "s")
    (session,) = [s for s in service.sessions.sessions() if s.key == "s"]
    assert session.delta.mirrors[1].decoded == 0
    assert session.shed_mirror()
    # The document had one holder left; it let go too.
    assert not session.deserializer.has_template
    assert not session.shed_mirror()
    peer = Peer(body)
    status, extra, _r = service.handle_wire(
        peer.frame(peer.field(2, b"6.5")), FRAME, "s"
    )
    assert (status, extra) == (409, ["X-Repro-Delta-Resync: 1"])
    headers = dict(ANNOUNCE, **{"x-repro-delta-epoch": "2"})
    status, _x, response = service.handle_wire(body, headers, "s")
    assert status == 200 and b"Fault" not in response
    assert session.delta.mirrors[1].decoded == 0
    frame = encode_frame(1, 2, 1, len(body), [], [], b"")
    assert service.handle_wire(frame, FRAME, "s")[0] == 200
    assert service.deserializer.stats[DeserKind.CONTENT_MATCH] == 1


def test_fuzzer_region_mutators_reach_every_frame_lane_branch(peer, rng_seed):
    """The fuzz corpus's region-aimed frames (``DeltaFrameFuzzer``)
    land where they aim: hits on whole and partial regions, skeleton
    drift on straddles, seek-table refusals on garbage — each decoded
    as the full parse decodes it."""
    fuzzer = DeltaFrameFuzzer()
    rng = random.Random(rng_seed)
    body = bytes(peer.buffer)
    for case in range(120):
        mutate = fuzzer._region_splices if case % 2 else fuzzer._region_garbage
        # A fresh baseline per case, as the fuzz drivers announce one.
        epoch = case + 2
        peer.deser.deserialize(peer.delta.store(1, epoch, body))
        ctx = {"template_id": 1, "epoch": epoch, "seq": 1, "body": body}
        document = peer.delta.apply(mutate(rng, b"", ctx), DEFAULT_LIMITS)
        got = _outcome(lambda: peer.deser.deserialize(document))
        want = _outcome(lambda: SOAPRequestParser().parse(document.tobytes()))
        if isinstance(want, type):
            assert got is want
        else:
            _assert_decoded_equal(got[0], want.message)
    stats = peer.deser.skipscan_stats
    assert stats.get("hit-vector", 0) + stats.get("hit", 0) > 10
    assert stats.get("skeleton-drift", 0) > 0
    assert any(event.startswith("fallback-") for event in stats)


# ----------------------------------------------------------------------
# counted: no whole-document operation on a frame call
# ----------------------------------------------------------------------
def test_frame_call_allocates_nothing_document_sized():
    n = 64 * 1024
    body = _body(np.random.default_rng(5).random(n))
    assert len(body) > 2_300_000
    limits = ResourceLimits()
    delta = DeltaSession(limits)
    deser = DifferentialDeserializer(limits=limits)
    deser.deserialize(delta.store(1, 1, body))
    regions = SOAPRequestParser().parse(body).regions
    width = int(regions[0, 1] - regions[0, 0])
    fresh = np.random.default_rng(6).random(16 * 3)

    def frame(seq: int) -> bytes:
        picks = range(seq * 100, n, n // 16)
        texts = [
            (format_double(float(v)) + CLOSE).ljust(width)
            for v in fresh[seq * 16 : seq * 16 + 16]
        ]
        return encode_frame(
            1, 1, seq, len(body),
            [int(regions[j, 0]) for j in picks][:16], [width] * 16, b"".join(texts),
        )

    frames = [frame(seq) for seq in (1, 2)]
    deser.deserialize(delta.apply(frames[0], limits))  # warm every lazy path
    tracemalloc.start()
    try:
        _decoded, report = deser.deserialize(delta.apply(frames[1], limits))
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (report.kind, report.leaves_parsed) == (DeserKind.DIFFERENTIAL, 16)
    assert peak < 64 * 1024, f"frame call allocated {peak} bytes at peak"
    assert delta.mirrors[1].decoded == 2


# ----------------------------------------------------------------------
# pad insertions
# ----------------------------------------------------------------------
def test_insertion_in_a_trailing_pad_rebases_the_table(peer):
    """A widened field: pad inserted at its region's end, its new region
    spliced.  The table follows (no full parse) and so does every leaf
    after it."""
    start, end = (int(x) for x in peer.regions[3])
    text = b"-1.2345678901234567e-300"
    grow = start + len(text) + len(CLOSE) - end + 2
    region = (text + CLOSE).ljust(end + grow - start)
    report = peer.send_frame(peer.grown([(end, grow)], (start, region)))
    assert peer.declined is None
    assert (report.kind, report.leaves_parsed) == (DeserKind.DIFFERENTIAL, 1)
    entry = peer.entry
    assert entry.base is entry.data and len(entry.data) == peer.doc_len
    assert int(entry.table.ends[3]) == end + grow
    assert int(entry.table.starts[4]) == int(peer.regions[4][0]) + grow
    assert peer.value(3) == float(text)
    assert "insertion-drift" not in peer.deser.skipscan_stats
    peer.regions = SOAPRequestParser().parse(bytes(entry.data)).regions
    peer.clean_follow_up(9, DeserKind.DIFFERENTIAL)


@pytest.mark.parametrize("where", ["value", "markup", "region start"])
def test_insertion_the_table_cannot_follow_is_a_counted_decline(peer, where):
    """Pad inserted inside a value, inside the markup after a region, or
    before a value: not in a trailing pad, so the table declines — the
    frame applies (no resync) and the full parse judges."""
    start, end = (int(x) for x in peer.regions[5])
    at = {"value": start + 1, "markup": end + 1, "region start": start}[where]
    peer.send_frame(peer.grown([(at, 2)]))
    assert peer.declined == "insertion-drift"
    assert peer.deser.skipscan_stats["insertion-drift"] == 1
    assert peer.delta.resyncs == 0 and peer.entry.seq == 1
    if where == "region start":
        # Whitespace before a double still parses: the full parse's
        # table follows the next frame.
        peer.regions = SOAPRequestParser().parse(bytes(peer.entry.data)).regions
        peer.clean_follow_up(9, DeserKind.DIFFERENTIAL)


def test_insertion_in_a_typed_leaf_value_is_declined_and_written_as_text(peer):
    """A typed splice on a leaf whose value also takes pad: the table
    declines, the value is written as text, the full parse decodes it."""
    start, _end = (int(x) for x in peer.regions[2])
    frame = encode_frame(
        1, 1, 1, peer.doc_len + 3, [start + 1, start], [INSERT_FLAG | 3, 0],
        np.float64(2.5).tobytes(),
    )
    peer.seq, peer.doc_len = 1, peer.doc_len + 3
    report = peer.send_frame(frame)
    assert peer.declined == "insertion-drift"
    assert report.kind is DeserKind.FULL and peer.value(2) == 2.5


def test_no_second_copy_of_the_document_is_named_in_the_source():
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    for path in src.rglob("*.py"):
        text = path.read_text()
        assert "last_reconstructed" not in text, path
        assert "_reconstructed_id" not in text, path


def test_typed_offsets_with_no_table_cost_no_frame_wide_matrix():
    """With no seek table to check them (shed, or never compiled), a
    typed splice's text is placed by searching at most ``_TEXT_REACH``
    bytes past its offset for a closing tag.  A peer aiming the most
    typed splices a frame may carry into one long tag-free run gets the
    same clean refusal, and the search costs memory in proportion to
    the frame, not to splices times reach."""
    n = DEFAULT_LIMITS.max_delta_splices
    sink = CollectSink()
    BSoapClient(sink, DiffPolicy(stuffing=StuffingPolicy(StuffMode.MAX))).send(
        SOAPMessage(
            loadgen.OPERATION,
            loadgen.SERVICE_NS,
            [
                Parameter("note", STRING, "a" * (n + 4096)),
                Parameter("data", ArrayType(DOUBLE), np.linspace(1.0, 2.0, 16)),
            ],
        )
    )
    body = sink.last
    deser = DifferentialDeserializer()
    deser.deserialize(deser.store.store(1, 1, body))
    assert deser.drop_seek_table() > 0
    run = body.index(b"a" * 64)
    frame = encode_frame(
        1, 1, 1, len(body),
        list(range(run, run + n)), [0] * n,
        np.linspace(1.0, 2.0, n).astype("<f8").tobytes(),
    )
    tracemalloc.start()
    try:
        with pytest.raises(DeltaFrameError) as refused:
            deser.store.apply(frame, DEFAULT_LIMITS)
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert refused.value.reason == "bad-splice"
    assert str(refused.value) == f"typed value at {run} has no field to take it"
    assert bytes(deser.store.mirrors[1].data) == body
    assert peak < 16 * len(frame), f"{peak} bytes at peak for a {len(frame)}-byte frame"

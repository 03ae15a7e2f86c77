"""Typed splices: dirty doubles cross a frame as binary64.

A MINIMAL-format sender ships every dirty ``xsd:double`` leaf as a
width-0 directory entry carrying the value's eight bytes; the receiver
commits it into its decode through the seek table and leaves the text
stale until something reads the document.  Covered here:

* bit-exactness — decoded values equal, as ``uint64``, what the text
  path (MINIMAL format, then the text parse) decodes, in both
  directions, ``-0.0``, infinities, subnormals and every NaN included;
* every reader of a document with stale leaves gets the full parse's
  values and the sender's bytes: an announce taking over the entry, a
  seek-table shed, a sequence gap, ``last_response_body``;
* hostile typed splices end in a clean ``DeltaFrameError`` with the
  document and the decode untouched, or decode to the canonical NaN.
"""

from __future__ import annotations

import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import RPCChannel
from repro.core.client import BSoapClient
from repro.core.policy import DeltaPolicy, DiffPolicy, StuffingPolicy, StuffMode
from repro.errors import DeltaFrameError, ReproError
from repro.hardening.fuzz import DeltaFrameFuzzer
from repro.hardening.limits import DEFAULT_LIMITS
from repro.lexical.floats import FloatFormat, format_double, parse_double
from repro.schema.composite import ArrayType
from repro.schema.types import DOUBLE, INT
from repro.server.async_server import make_server
from repro.server.diffdeser import DeserKind, DifferentialDeserializer
from repro.server.parser import SOAPRequestParser
from repro.server.service import SOAPService
from repro.soap.message import Parameter, SOAPMessage
from repro.transport.loopback import CollectSink
from repro.wire.frame import decode_frame, encode_frame

NS = "urn:typed"
MAX = StuffingPolicy(StuffMode.MAX)
OFFERING = DiffPolicy(stuffing=MAX, delta=DeltaPolicy(offer=True))
CANONICAL_NAN_BITS = struct.unpack("<Q", struct.pack("<d", parse_double(b"NaN")))[0]

#: Bit patterns the text path collapses or distinguishes: signed zeros,
#: infinities, quiet/signalling/negative NaNs, subnormals, the extremes.
SPECIAL_BITS = (
    0x0000000000000000, 0x8000000000000000, 0x7FF0000000000000,
    0xFFF0000000000000, 0x7FF8000000000000, 0x7FF0000000000001,
    0xFFF8000000000000, 0x7FF4000000000000, 0x0000000000000001,
    0x800FFFFFFFFFFFFF, 0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF,
)
N = 8


def _doubles(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def _message(values, op="take") -> SOAPMessage:
    return SOAPMessage(op, NS, [Parameter("data", ArrayType(DOUBLE), values)])


def _text_path(values: np.ndarray) -> np.ndarray:
    """What a text sender's MINIMAL form of each value parses back to."""
    return np.array([parse_double(format_double(float(v))) for v in values])


def _bits(values) -> list:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


class Peer:
    """A delta transport whose far end is a document store and its
    deserializer — what ``SOAPService.handle_wire`` does, minus HTTP.
    ``skip`` frames are applied but never decoded."""

    def __init__(self) -> None:
        self.deser = DifferentialDeserializer()
        self.delta = self.deser.store
        self.frames = []
        self.skip = False
        self.decoded = self.report = None
        self._announce = None

    def set_delta_announce(self, template_id: int, epoch: int) -> None:
        self._announce = (template_id, epoch)

    def send_message(self, views, total_bytes=None) -> int:
        body = b"".join(bytes(v) for v in views)
        document = self.delta.store(*self._announce, body)
        self._announce = None
        self.decoded, self.report = self.deser.deserialize(document)
        return len(body)

    def send_delta_frame(self, frame: bytes) -> int:
        self.frames.append(decode_frame(frame))
        document = self.delta.apply(frame, DEFAULT_LIMITS)
        if not self.skip:
            self.decoded, self.report = self.deser.deserialize(document)
        return len(frame)

    def close(self) -> None:
        pass


class Pair:
    """A typed-sending client on a :class:`Peer`, and a plain client
    whose wire is the reference bytes."""

    def __init__(self) -> None:
        self.peer = Peer()
        self.client = BSoapClient(self.peer, OFFERING)
        self.client.wire.negotiated = True
        self.sink = CollectSink()
        self.plain = BSoapClient(self.sink, DiffPolicy(stuffing=MAX))

    def send(self, values) -> None:
        self.client.send(_message(values))
        self.plain.send(_message(values))

    @property
    def entry(self):
        (entry,) = self.peer.delta.mirrors.values()
        return entry

    def assert_full_parse(self, values) -> None:
        """The decode is the full parse of the plain wire; the entry's
        document, rendered, is that wire."""
        wire = self.sink.last
        reference = SOAPRequestParser().parse(wire).message.value("data")
        assert _bits(self.peer.decoded.value("data")) == _bits(reference)
        assert _bits(reference) == _bits(_text_path(values))
        entry = self.entry
        entry.render()
        assert bytes(entry.data) == wire


# ----------------------------------------------------------------------
# the frames are typed, and typed commits are seek-table hits
# ----------------------------------------------------------------------
def test_dirty_doubles_travel_typed_and_commit_as_hits():
    pair = Pair()
    values = np.linspace(1.0, 2.0, 64)
    pair.send(values)
    values = values.copy()
    values[[3, 40]] = [2.5, -7.25e-3]
    pair.send(values)
    (frame,) = pair.peer.frames
    assert frame.offsets.size == 0 and frame.typed_offsets.size == 2
    assert (pair.peer.report.kind, pair.peer.report.leaves_parsed) == (
        DeserKind.DIFFERENTIAL, 2,
    )
    assert pair.peer.deser.skipscan_stats.get("hit-vector") == 1
    assert pair.entry.stale.nonzero()[0].tolist() == [3, 40]
    pair.assert_full_parse(values)


def test_fixed_format_doubles_stay_byte_splices():
    peer = Peer()
    client = BSoapClient(
        peer,
        DiffPolicy(
            stuffing=MAX, float_format=FloatFormat.FIXED, delta=DeltaPolicy(offer=True)
        ),
    )
    client.wire.negotiated = True
    values = np.linspace(1.0, 2.0, 32)
    client.send(_message(values))
    values = values.copy()
    values[5] = 9.5
    client.send(_message(values))
    (frame,) = peer.frames
    assert frame.typed_offsets.size == 0 and frame.offsets.size == 1


# ----------------------------------------------------------------------
# bit-exact against the text path, both directions
# ----------------------------------------------------------------------
_VALUES = st.lists(
    st.sampled_from(SPECIAL_BITS)
    | st.floats(allow_nan=False).map(lambda v: _bits([v])[0]),
    min_size=N,
    max_size=N,
)


@pytest.fixture(scope="module")
def echo_server():
    service = SOAPService(NS, response_policy=DiffPolicy(stuffing=MAX))
    received = []

    @service.operation("take", result_type=ArrayType(DOUBLE))
    def take(data):
        received.append(np.array(data, copy=True))
        return data

    with make_server(service, "threaded") as server:
        yield server, service, received


@settings(max_examples=40, deadline=None)
@given(bits=_VALUES)
def test_typed_decodes_bit_equal_the_text_path_both_ways(echo_server, bits):
    server, service, received = echo_server
    values = _doubles(bits)
    with RPCChannel("127.0.0.1", server.port, policy=OFFERING) as channel:
        channel.call(_message(np.full(N, 0.5)))
        reply = channel.call(_message(values)).result()
        # Request direction: the handler saw what the text parse gives.
        assert _bits(received[-1]) == _bits(_text_path(values))
        # Reply direction: the channel decoded what the text parse gives.
        assert _bits(reply) == _bits(_text_path(values))
        assert channel.last_send_report.delta
        replies = channel.replies.mirrors
        if not np.array_equal(_bits(_text_path(values)), _bits(np.full(N, 0.5))):
            # Both frames carried typed splices (something changed).
            assert any(e.stale is not None for e in replies.values())
            session = next(
                s for s in service.sessions.sessions() if s.delta.frames_applied
            )
            assert session.delta.outcomes.get("applied")


# ----------------------------------------------------------------------
# every reader of stale text
# ----------------------------------------------------------------------
def test_announce_takeover_compares_against_rendered_text():
    """A typed frame sets leaf j to 2.0; a full-XML announce then brings
    j back at its old text.  The takeover keeps the decode as the
    comparison base, so without rendering it would keep 2.0."""
    pair = Pair()
    values = np.linspace(1.0, 2.0, 16)
    pair.send(values)
    changed = values.copy()
    changed[7] = 2.0
    pair.send(changed)
    assert pair.entry.stale[7]
    # The client forgets its baseline: the next send is full XML.
    template_id = next(iter(pair.peer.delta.mirrors))
    pair.client.wire.invalidate(template_id)
    pair.send(values)
    assert not pair.peer.frames[1:]
    assert pair.peer.report.kind is DeserKind.DIFFERENTIAL  # compared, re-parsed j
    assert pair.peer.decoded.value("data")[7] == values[7]
    pair.assert_full_parse(values)


def test_shed_renders_then_the_next_frame_full_parses():
    pair = Pair()
    values = np.linspace(1.0, 2.0, 16)
    pair.send(values)
    values = values.copy()
    values[2] = -0.0
    pair.send(values)
    assert pair.peer.deser.drop_seek_table() > 0
    entry = pair.entry
    assert entry.stale is None and entry.table is None
    assert bytes(entry.data) == pair.sink.last  # rendered before the shed
    # No table names the typed leaf: its text is written at once and
    # the full parse follows — a frame, not a resync.
    values = values.copy()
    values[9] = float("inf")
    pair.send(values)
    assert pair.peer.report.kind is DeserKind.FULL
    assert len(pair.peer.frames) == 2 and entry.stale is None
    pair.assert_full_parse(values)
    values = values.copy()
    values[4] = 5e-324
    pair.send(values)
    assert pair.peer.report.kind is DeserKind.DIFFERENTIAL
    pair.assert_full_parse(values)


def test_sequence_gap_renders_before_the_full_parse():
    pair = Pair()
    values = np.linspace(1.0, 2.0, 16)
    pair.send(values)
    values = values.copy()
    values[1] = 3.5
    pair.send(values)
    # A frame the deserializer never sees: the decode lags the document.
    pair.peer.skip = True
    values = values.copy()
    values[[1, 11]] = [-4.0, 1e300]
    pair.send(values)
    pair.peer.skip = False
    values = values.copy()
    values[6] = 0.125
    pair.send(values)
    assert pair.peer.report.kind is DeserKind.FULL
    pair.assert_full_parse(values)


@pytest.mark.parametrize("front", ("threaded", "async"))
def test_last_response_body_renders_typed_reply_frames(front):
    service = SOAPService(NS, response_policy=DiffPolicy(stuffing=MAX))

    @service.operation("take", result_type=ArrayType(DOUBLE))
    def take(data):
        return data

    rng = np.random.default_rng(5)
    values = rng.random(64)
    with make_server(service, front) as server, RPCChannel(
        "127.0.0.1", server.port, policy=OFFERING
    ) as offering, RPCChannel(
        "127.0.0.1", server.port, policy=DiffPolicy(stuffing=MAX)
    ) as plain:
        for call in range(4):
            values = values.copy()
            values[rng.choice(64, 5, replace=False)] = rng.random(5)
            got = offering.call(_message(values)).result()
            plain.call(_message(values))
            assert np.array_equal(got, values)
            if call:
                assert offering.replies.outcomes.get("reply-applied") == call
            assert offering.last_response_body == plain.last_response_body


# ----------------------------------------------------------------------
# hostile typed splices
# ----------------------------------------------------------------------
MIXED = SOAPMessage(
    "mixed",
    NS,
    [
        Parameter("n", INT, 42),
        Parameter("data", ArrayType(DOUBLE), np.linspace(1.0, 2.0, 12)),
        Parameter("scale", DOUBLE, 0.25),
    ],
)


#: An array alone in its message: leaf starts one stride apart, so a
#: typed offset's leaf is computed, not searched.
ARRAY = _message(np.linspace(1.0, 2.0, 12), op="array")


def _hostile_peer(message=MIXED):
    peer = Peer()
    sink = CollectSink()
    BSoapClient(sink, DiffPolicy(stuffing=MAX)).send(message)
    body = sink.last
    peer.set_delta_announce(1, 1)
    peer.send_message([body])
    return peer, body


def _decoded(peer):
    message = peer.delta.mirrors[1].result.message
    return [np.array(p.value, copy=True) for p in message.params]


REJECTED = (
    "typed_off_start", "typed_in_skeleton", "typed_other_leaf",
    "typed_payload_lie", "typed_byte_overlap",
)


@pytest.mark.parametrize("message", (MIXED, ARRAY), ids=("mixed", "array"))
@pytest.mark.parametrize("mutator", REJECTED)
def test_hostile_typed_splices_leave_everything_untouched(mutator, message, rng_seed):
    fuzzer = DeltaFrameFuzzer()
    rng = random.Random(rng_seed)
    for case in range(20):
        peer, body = _hostile_peer(message)
        entry = peer.delta.mirrors[1]
        before = _decoded(peer)
        ctx = {"template_id": 1, "epoch": 1, "seq": 1, "body": body}
        frame = getattr(fuzzer, "_" + mutator)(rng, b"", ctx)
        with pytest.raises(DeltaFrameError):
            peer.delta.apply(frame, DEFAULT_LIMITS)
        assert bytes(entry.data) == body and entry.seq == 0 and entry.stale is None
        for was, now in zip(before, _decoded(peer)):
            assert _bits(np.atleast_1d(was)) == _bits(np.atleast_1d(now))


@pytest.mark.parametrize("message", (MIXED, ARRAY), ids=("mixed", "array"))
def test_odd_nans_decode_to_the_canonical_nan(message, rng_seed):
    fuzzer = DeltaFrameFuzzer()
    rng = random.Random(rng_seed)
    for case in range(20):
        peer, body = _hostile_peer(message)
        ctx = {"template_id": 1, "epoch": 1, "seq": 1, "body": body}
        frame = fuzzer._typed_nan(rng, b"", ctx)
        document = peer.delta.apply(frame, DEFAULT_LIMITS)
        decoded, report = peer.deser.deserialize(document)
        assert report.kind is DeserKind.DIFFERENTIAL
        reference = SOAPRequestParser().parse(document.tobytes()).message
        nans = 0
        for mine, theirs in zip(decoded.params, reference.params):
            got = np.atleast_1d(np.asarray(mine.value, dtype=float))
            assert _bits(got) == _bits(np.atleast_1d(np.asarray(theirs.value, dtype=float)))
            nans += int(np.isnan(got).sum())
            assert all(b == CANONICAL_NAN_BITS for b in _bits(got[np.isnan(got)]))
        assert nans == decode_frame(frame).typed_offsets.size


def test_render_leaves_a_garbled_region_to_the_full_parse():
    """A byte splice the decode never saw garbles leaf j's closing tag,
    then a typed splice sets j: rendering cannot place the value, so it
    leaves the bytes, and the full parse judges the document."""
    peer, body = _hostile_peer()
    table = peer.delta.mirrors[1].table
    j = 3 + int(np.flatnonzero(table.starts > body.index(b"<item>"))[0])
    tag = body.index(b"</item>", int(table.starts[j]))
    garble = encode_frame(1, 1, 1, len(body), [tag], [7], b"X" * 7)
    peer.delta.apply(garble, DEFAULT_LIMITS)  # never decoded
    typed = encode_frame(
        1, 1, 2, len(body), [int(table.starts[j])], [0], struct.pack("<d", 9.5)
    )
    document = peer.delta.apply(typed, DEFAULT_LIMITS)
    with pytest.raises(ReproError) as got:
        peer.deser.deserialize(document)
    with pytest.raises(ReproError) as want:
        SOAPRequestParser().parse(document.tobytes())
    assert type(got.value) is type(want.value)
    assert b"X" * 7 in document.tobytes()

"""Tests for the negotiated delta-frame wire protocol (``repro.wire``).

Layers covered:

* frame codec — roundtrip, layout stability, every decode rejection;
* ``DeltaSession`` — mirror store, epoch/sequence matching, LRU cap;
* ``DeltaEncoder`` — eligibility gates and splice harvest, through the
  in-process :class:`DeltaLoopback`;
* end-to-end — ``RPCChannel`` against a live ``HTTPSoapServer`` with
  negotiation, steady-state frames, fallback on structural change,
  and resync recovery after the server loses its mirrors;
* accounting — tx/rx byte counters and delta metrics reconcile across
  client and server.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest

from repro.channel import RPCChannel
from repro.core.client import BSoapClient
from repro.core.policy import (
    DeltaPolicy,
    DiffPolicy,
    Expansion,
    StuffingPolicy,
    StuffMode,
)
from repro.core.stats import MatchKind
from repro.errors import DeltaFrameError, DeltaResyncError
from repro.hardening.limits import ResourceLimits
from repro.obs import Observability
from repro.schema.composite import ArrayType
from repro.schema.registry import TypeRegistry
from repro.schema.types import DOUBLE
from repro.server.parser import SOAPRequestParser
from repro.server.service import SOAPService
from repro.server.threaded_server import HTTPSoapServer
from repro.soap.message import Parameter, SOAPMessage
from repro.transport.loopback import CollectSink
from repro.wire.frame import INSERT_FLAG, insert_pad
from repro.wire import (
    DIR_ENTRY,
    HEADER,
    MAGIC,
    DeltaLoopback,
    DeltaSession,
    apply_frame,
    decode_frame,
    encode_frame,
)

DELTA_POLICY = DiffPolicy(
    stuffing=StuffingPolicy(StuffMode.MAX), delta=DeltaPolicy(offer=True)
)


def _msg(values, op="total", name="a"):
    return SOAPMessage(
        op, "urn:calc", [Parameter(name, ArrayType(DOUBLE), np.asarray(values, dtype=float))]
    )


# ----------------------------------------------------------------------
# frame codec
# ----------------------------------------------------------------------
class TestFrameCodec:
    def test_roundtrip(self):
        frame = encode_frame(7, 3, 2, 100, [5, 40], [4, 8], b"abcdWXYZ0123"[:12])
        decoded = decode_frame(frame)
        assert decoded.template_id == 7
        assert decoded.epoch == 3
        assert decoded.seq == 2
        assert decoded.doc_len == 100
        assert decoded.offsets.tolist() == [5, 40]
        assert decoded.widths.tolist() == [4, 8]
        assert decoded.payload == b"abcdWXYZ0123"[:12]

    def test_zero_splice_frame_is_header_only(self):
        frame = encode_frame(1, 1, 1, 1 << 20, [], [], b"")
        assert len(frame) == HEADER.size == 36
        decoded = decode_frame(frame)
        assert decoded.splice_count == 0
        assert decoded.doc_len == 1 << 20

    def test_wire_layout_is_pinned(self):
        """The on-wire layout is a protocol contract: header 36 bytes,
        directory entries 12, little-endian, magic RDF2; a width-0 entry
        is a typed splice whose binary64 follows the byte splices'
        bytes."""
        assert MAGIC == b"RDF2"
        assert HEADER.size == 36
        assert DIR_ENTRY.size == 12
        frame = encode_frame(0x1122334455667788, 9, 10, 11, [2], [1], b"Z")
        assert frame[:4] == b"RDF2"
        assert struct.unpack_from("<Q", frame, 4)[0] == 0x1122334455667788
        assert struct.unpack_from("<I", frame, 12)[0] == 9
        assert struct.unpack_from("<I", frame, 16)[0] == 10
        assert struct.unpack_from("<Q", frame, 20)[0] == 11
        assert struct.unpack_from("<I", frame, 28)[0] == 1
        typed = encode_frame(1, 1, 1, 50, [2, 9], [1, 0], b"Z" + struct.pack("<d", 2.5))
        assert struct.unpack_from("<QI", typed, 36 + 12) == (9, 0)
        assert typed[-8:] == struct.pack("<d", 2.5)
        assert len(typed) == 36 + 2 * 12 + 1 + 8

    def test_apply_patches_in_place(self):
        mirror = bytearray(b"0123456789")
        frame = decode_frame(encode_frame(1, 1, 1, 10, [2, 7], [3, 2], b"ABCxy"))
        apply_frame(frame, mirror)
        assert bytes(mirror) == b"01ABC56xy9"

    @pytest.mark.parametrize(
        "mutate,reason",
        [
            (lambda f: f[:10], "truncated"),
            (lambda f: b"XXXX" + f[4:], "bad-magic"),
            (lambda f: f[:-1], "crc-mismatch"),
            (
                lambda f: f[:28] + struct.pack("<I", 99) + f[32:],
                "truncated",  # directory for 99 splices overruns
            ),
        ],
    )
    def test_decode_rejections(self, mutate, reason):
        frame = encode_frame(1, 1, 1, 50, [5], [4], b"abcd")
        with pytest.raises(DeltaFrameError) as err:
            decode_frame(mutate(frame))
        assert err.value.reason == reason

    @pytest.mark.parametrize(
        "mutate,reason",
        [
            (lambda f: f[:10], "truncated"),
            (lambda f: f[:-1], "truncated"),
            (lambda f: b"XXXX" + f[4:], "bad-magic"),
            (lambda f: f[:32] + struct.pack("<I", 1) + f[36:], "crc-mismatch"),
            (
                lambda f: f[:28] + struct.pack("<I", 1) + f[32:],
                "truncated",  # directory for 1 splice overruns
            ),
            # One payload byte with count 0, under an honest CRC.
            (
                lambda f: f[:32] + struct.pack("<I", zlib.crc32(b"x")) + b"x",
                "payload-mismatch",
            ),
        ],
    )
    def test_header_only_decode_rejections(self, mutate, reason):
        """A content match's frame skips no check: the zero-splice path
        is as hostile-proof as any other."""
        frame = encode_frame(1, 1, 1, 50, [], [], b"")
        with pytest.raises(DeltaFrameError) as err:
            decode_frame(mutate(frame))
        assert err.value.reason == reason

    def test_payload_length_mismatch(self):
        with pytest.raises(DeltaFrameError) as err:
            decode_frame(encode_frame(1, 1, 1, 50, [5], [4], b"ab"))
        assert err.value.reason == "payload-mismatch"

    def test_zero_width_splice_rejected(self):
        """Width 0 is a typed splice: without its 8 payload bytes the
        directory and the payload disagree."""
        with pytest.raises(DeltaFrameError) as err:
            decode_frame(encode_frame(1, 1, 1, 50, [5], [0], b""))
        assert err.value.reason == "payload-mismatch"

    def test_typed_splice_roundtrip(self):
        payload = b"abcd" + struct.pack("<dd", -0.0, 1e300)
        decoded = decode_frame(encode_frame(1, 1, 1, 50, [3, 10, 20], [0, 4, 0], payload))
        assert decoded.offsets.tolist() == [10] and decoded.widths.tolist() == [4]
        assert decoded.payload == b"abcd"
        assert decoded.typed_offsets.tolist() == [3, 20]
        assert decoded.typed_values.view(np.uint64).tolist() == [
            struct.unpack("<Q", struct.pack("<d", v))[0] for v in (-0.0, 1e300)
        ]
        assert decoded.splice_count == 3

    @pytest.mark.parametrize("bits", (0x7FF0000000000001, 0xFFF8000000000000, 0x7FFFFFFFFFFFFFFF))
    def test_typed_nan_is_canonical(self, bits):
        """Any NaN payload or sign decodes to the text parse's NaN."""
        from repro.lexical.floats import parse_double

        frame = encode_frame(1, 1, 1, 50, [3], [0], struct.pack("<Q", bits))
        (value,) = decode_frame(frame).typed_values.view(np.uint64).tolist()
        assert value == struct.unpack("<Q", struct.pack("<d", parse_double(b"NaN")))[0]

    @pytest.mark.parametrize(
        "offsets,widths,payload",
        [
            ([5, 5], [0, 0], b"\0" * 16),  # two typed splices at one offset
            ([5, 5], [0, 2], b"ab" + b"\0" * 8),  # a byte splice over one
            ([4, 5], [2, 0], b"ab" + b"\0" * 8),  # reaching over one
        ],
    )
    def test_typed_splice_overlap_rejected(self, offsets, widths, payload):
        with pytest.raises(DeltaFrameError) as err:
            decode_frame(encode_frame(1, 1, 1, 50, offsets, widths, payload))
        assert err.value.reason == "bad-splice"

    @pytest.mark.parametrize("extra", (-1, 1))
    def test_typed_payload_length_lie(self, extra):
        """7 or 9 payload bytes for one typed splice."""
        with pytest.raises(DeltaFrameError) as err:
            decode_frame(encode_frame(1, 1, 1, 50, [5], [0], b"\0" * (8 + extra)))
        assert err.value.reason == "payload-mismatch"

    def test_typed_splice_at_doc_end_rejected(self):
        with pytest.raises(DeltaFrameError) as err:
            decode_frame(encode_frame(1, 1, 1, 50, [50], [0], b"\0" * 8))
        assert err.value.reason == "out-of-bounds"

    def test_out_of_bounds_splice_rejected(self):
        with pytest.raises(DeltaFrameError) as err:
            decode_frame(encode_frame(1, 1, 1, 50, [48], [4], b"abcd"))
        assert err.value.reason == "out-of-bounds"

    def test_wrapped_u64_offset_rejected(self):
        """Offsets past 2**63 must not reach the (signed) slice math."""
        with pytest.raises(DeltaFrameError) as err:
            decode_frame(encode_frame(1, 1, 1, 50, [(1 << 64) - 2], [4], b"abcd"))
        assert err.value.reason == "out-of-bounds"

    def test_offset_near_two_to_63_rejected(self):
        """An offset whose end would wrap around 2**63 is out of bounds,
        not a splice that appends to the mirror."""
        with pytest.raises(DeltaFrameError) as err:
            decode_frame(encode_frame(1, 1, 1, 50, [(1 << 63) - 2], [4], b"abcd"))
        assert err.value.reason == "out-of-bounds"

    def test_pad_insertion_roundtrip(self):
        """Insertions lead the directory, carry no payload and name
        new-document offsets; the mirror is rebuilt, then spliced."""
        directory = [4, 10, 30], [INSERT_FLAG | 2, 3, INSERT_FLAG | 4]
        frame = decode_frame(encode_frame(1, 1, 1, 56, *directory, b"abc"))
        assert frame.insert_offsets.tolist() == [4, 30]
        assert frame.insert_counts.tolist() == [2, 4] and frame.growth == 6
        assert frame.insert_positions().tolist() == [4, 28]
        assert frame.offsets.tolist() == [10] and frame.widths.tolist() == [3]
        assert frame.splice_count == 3
        old = bytes(range(65, 115))
        grown = insert_pad(frame, bytearray(old))
        apply_frame(frame, grown)
        expected = bytearray(old[:4] + b"  " + old[4:28] + b"    " + old[28:])
        expected[10:13] = b"abc"
        assert bytes(grown) == bytes(expected)
        with pytest.raises(DeltaFrameError) as err:
            insert_pad(frame, bytearray(51))
        assert err.value.reason == "doc-len-mismatch"

    @pytest.mark.parametrize(
        "inserts,reason",
        [
            ([(5, 0)], "bad-splice"),  # inserts nothing
            ([(48, 4)], "out-of-bounds"),  # past doc_len
            ([((1 << 63) - 2, 4)], "out-of-bounds"),  # would wrap
            ([(10, 4), (12, 2)], "bad-splice"),  # overlapping
            ([(20, 2), (10, 2)], "bad-splice"),  # unsorted
        ],
    )
    def test_pad_insertion_rejections(self, inserts, reason):
        offsets = [at for at, _count in inserts]
        widths = [INSERT_FLAG | count for _at, count in inserts]
        with pytest.raises(DeltaFrameError) as err:
            decode_frame(encode_frame(1, 1, 1, 50, offsets, widths, b""))
        assert err.value.reason == reason

    def test_overlapping_splices_rejected(self):
        with pytest.raises(DeltaFrameError) as err:
            decode_frame(encode_frame(1, 1, 1, 50, [5, 7], [4, 2], b"abcdef"))
        assert err.value.reason == "bad-splice"

    def test_limits_cap_splice_count_and_frame_size(self):
        limits = ResourceLimits(max_delta_splices=1, max_delta_frame_bytes=256)
        ok = encode_frame(1, 1, 1, 50, [5], [4], b"abcd")
        assert decode_frame(ok, limits=limits).splice_count == 1
        two = encode_frame(1, 1, 1, 50, [5, 20], [4, 4], b"abcdefgh")
        with pytest.raises(DeltaFrameError) as err:
            decode_frame(two, limits=limits)
        assert err.value.reason == "too-many-splices"
        tight = ResourceLimits(max_delta_frame_bytes=64)
        big = encode_frame(1, 1, 1, 100, [0], [40], b"x" * 40)
        with pytest.raises(DeltaFrameError) as err:
            decode_frame(big, limits=tight)
        assert err.value.reason == "frame-too-large"

    def test_doc_len_capped_by_body_limit(self):
        limits = ResourceLimits(max_body_bytes=100)
        frame = encode_frame(1, 1, 1, 200, [], [], b"")
        with pytest.raises(DeltaFrameError) as err:
            decode_frame(frame, limits=limits)
        assert err.value.reason == "doc-too-large"

    def test_apply_requires_matching_mirror_length(self):
        frame = decode_frame(encode_frame(1, 1, 1, 10, [], [], b""))
        with pytest.raises(DeltaFrameError):
            apply_frame(frame, bytearray(b"short"))

    @pytest.mark.parametrize("count", (1, 15, 16, 300))
    @pytest.mark.parametrize("uniform", (True, False))
    def test_apply_equals_splice_by_splice_reference(self, count, uniform):
        """Many same-width splices go down in one scatter; the result
        is what assigning the slices one by one gives."""
        rng = np.random.default_rng(count)
        document = bytes(rng.integers(0, 256, 40 * count + 7, dtype=np.uint8))
        offsets = [40 * i + int(rng.integers(0, 8)) for i in range(count)]
        widths = [24 if uniform else int(rng.integers(1, 30)) for _ in offsets]
        if not uniform:
            widths[-1] = widths[0] + 1  # never all equal by chance
        pieces = [bytes(rng.integers(0, 256, w, dtype=np.uint8)) for w in widths]
        frame = decode_frame(
            encode_frame(1, 1, 1, len(document), offsets, widths, b"".join(pieces))
        )
        expected = bytearray(document)
        for offset, piece in zip(offsets, pieces):
            expected[offset : offset + len(piece)] = piece
        mirror = bytearray(document)
        apply_frame(frame, mirror)
        assert mirror == expected


# ----------------------------------------------------------------------
# server-side mirror session
# ----------------------------------------------------------------------
class TestDeltaSession:
    def _frame(self, tid=1, epoch=1, seq=1, body=b"0123456789", splices=()):
        offsets = [s[0] for s in splices]
        widths = [s[1] for s in splices]
        payload = b"".join(s[2] for s in splices)
        return encode_frame(tid, epoch, seq, len(body), offsets, widths, payload)

    def test_store_and_apply(self):
        session = DeltaSession()
        session.store(1, 1, b"0123456789")
        doc = session.apply(self._frame(splices=[(3, 2, b"XY")]), None)
        # The patched mirror itself, with the frame that patched it.
        assert doc.buffer is session.mirrors[1].data
        assert doc.tobytes() == b"012XY56789" and len(doc) == 10
        assert (doc.frame.seq, doc.frame.splice_count) == (1, 1)
        assert session.frames_applied == 1
        # sequence advances: the same seq replayed is now a gap
        with pytest.raises(DeltaResyncError) as err:
            session.apply(self._frame(splices=[(3, 2, b"XY")]), None)
        assert err.value.reason == "sequence-gap"

    def test_bytes_saved_accounting(self):
        session = DeltaSession()
        body = b"v" * 500
        session.store(1, 1, body)
        session.apply(self._frame(body=body), None)  # 36B frame, 500B doc
        assert session.bytes_saved == len(body) - HEADER.size

    def test_consecutive_sequences_accepted(self):
        session = DeltaSession()
        session.store(1, 1, b"0123456789")
        assert session.apply(self._frame(seq=1, splices=[(0, 1, b"A")]), None).buffer[0:1] == b"A"
        assert session.apply(self._frame(seq=2, splices=[(1, 1, b"B")]), None).buffer[1:2] == b"B"

    @pytest.mark.parametrize(
        "tid,epoch,seq,reason",
        [
            (9, 1, 1, "unknown-template"),
            (1, 2, 1, "stale-epoch"),
            (1, 1, 5, "sequence-gap"),
        ],
    )
    def test_state_mismatches_resync(self, tid, epoch, seq, reason):
        session = DeltaSession()
        session.store(1, 1, b"0123456789")
        with pytest.raises(DeltaResyncError) as err:
            session.apply(self._frame(tid=tid, epoch=epoch, seq=seq), None)
        assert err.value.reason == reason
        assert session.resyncs == 1
        # every mismatch except unknown-template drops the mirror
        if tid == 1:
            assert 1 not in session.mirrors

    def test_doc_len_mismatch_resyncs(self):
        session = DeltaSession()
        session.store(1, 1, b"0123456789")
        frame = encode_frame(1, 1, 1, 99, [], [], b"")
        with pytest.raises(DeltaResyncError) as err:
            session.apply(frame, None)
        assert err.value.reason == "doc-len-mismatch"

    def test_mirror_lru_eviction(self):
        limits = ResourceLimits(max_delta_mirrors=2)
        session = DeltaSession(limits)
        for tid in (1, 2, 3):
            session.store(tid, 1, b"0123456789")
        assert list(session.mirrors) == [2, 3]
        with pytest.raises(DeltaResyncError) as err:
            session.apply(self._frame(tid=1), None)
        assert err.value.reason == "unknown-template"


# ----------------------------------------------------------------------
# client-side encoder through the in-process loopback
# ----------------------------------------------------------------------
class TestEncoderLoopback:
    def _client(self, policy=DELTA_POLICY, **kw):
        loop = DeltaLoopback(keep_documents=True, **kw)
        client = BSoapClient(loop, policy)
        assert client.wire is not None and client.wire.active
        client.wire.negotiated = True  # the loopback "server" accepts
        return client, loop

    def test_steady_state_sends_frames(self):
        client, loop = self._client()
        values = np.linspace(0.0, 1.0, 64)
        client.send(_msg(values))
        assert loop.full_sends == 1 and loop.delta_sends == 0
        mutated = values.copy()
        mutated[5] = 42.0
        report = client.send(_msg(mutated))
        assert report.delta
        assert report.match_kind is MatchKind.PERFECT_STRUCTURAL
        assert loop.delta_sends == 1
        # content match: a header-only frame
        report = client.send(_msg(mutated))
        assert report.delta
        assert report.match_kind is MatchKind.CONTENT_MATCH
        assert report.bytes_sent == HEADER.size

    def test_reconstruction_byte_identical_to_plain_client(self):
        plain_sink = CollectSink()
        plain = BSoapClient(plain_sink, DELTA_POLICY)
        client, loop = self._client()
        values = np.linspace(0.0, 10.0, 48)
        for k in (None, 3, 17, 17, 40):
            if k is not None:
                values = values.copy()
                values[k] += 1.0
            message = _msg(values)
            client.send(message)
            plain.send(message)
            assert loop.last_document == plain_sink.last

    def test_structural_change_falls_back_to_full(self):
        client, loop = self._client()
        client.send(_msg(np.linspace(0.0, 1.0, 16)))
        report = client.send(_msg(np.linspace(0.0, 1.0, 32)))
        assert not report.delta
        assert loop.full_sends == 2
        # and delta resumes against the new baseline
        values = np.linspace(0.0, 1.0, 32)
        values[3] = 5.0
        assert client.send(_msg(values)).delta

    def test_expansion_frames_with_insertions(self):
        """A value outgrowing its unstuffed field is a partial match; its
        frame carries the widening as one pad insertion, and the mirror
        ends byte for byte the plain client's wire."""
        unstuffed = StuffingPolicy(StuffMode.NONE)
        policy = DiffPolicy(stuffing=unstuffed, delta=DeltaPolicy(offer=True))
        plain_sink = CollectSink()
        plain = BSoapClient(plain_sink, DiffPolicy(stuffing=unstuffed))
        client, loop = self._client(policy=policy)
        for values in ([1.0, 2.0, 3.0], [1.0, 123456.789012345, 3.0]):
            report = client.send(_msg(values))
            plain.send(_msg(values))
        assert report.rewrite.expansions > 0
        assert report.match_kind is MatchKind.PARTIAL_STRUCTURAL
        assert report.delta and loop.delta_sends == 1 and loop.insertions == 1
        assert client.wire.fallbacks == {}
        assert loop.last_document == plain_sink.last
        decoded = SOAPRequestParser().parse(loop.last_document).message
        assert decoded.value("a").tolist() == [1.0, 123456.789012345, 3.0]

    def test_steal_falls_back_counted(self):
        """Under ``Expansion.STEAL`` a send that stole pad from a
        neighbour goes out as full XML, counted as ``steal``."""
        unstuffed = StuffingPolicy(StuffMode.NONE)
        policy = DiffPolicy(
            stuffing=unstuffed, expansion=Expansion.STEAL, delta=DeltaPolicy(offer=True)
        )
        plain_sink = CollectSink()
        plain = BSoapClient(
            plain_sink, DiffPolicy(stuffing=unstuffed, expansion=Expansion.STEAL)
        )
        client, loop = self._client(policy=policy)
        # The third field shrinks and keeps its slack; the second then
        # outgrows its own field and steals that slack.
        for values in ([1.0, 2.0, 123.456789], [1.0, 2.0, 3.0], [1.0, 2.125, 3.0]):
            report = client.send(_msg(values))
            plain.send(_msg(values))
            assert loop.last_document == plain_sink.last
        assert report.rewrite.steals == 1
        assert report.match_kind is MatchKind.PARTIAL_STRUCTURAL
        assert not report.delta
        assert client.wire.fallbacks == {"steal": 1}
        assert client.metric_samples()[
            "repro_delta_frames_total", "fallback-steal"
        ] == 1
        assert client.send(_msg([1.0, 2.125, 4.0])).delta

    def test_steal_policy_send_that_only_shifted_frames(self):
        """Under ``Expansion.STEAL`` an expansion no neighbour's slack
        covers shifts (``write_entry``): that send frames its widening."""
        unstuffed = StuffingPolicy(StuffMode.NONE)
        policy = DiffPolicy(
            stuffing=unstuffed, expansion=Expansion.STEAL, delta=DeltaPolicy(offer=True)
        )
        plain_sink = CollectSink()
        plain = BSoapClient(
            plain_sink, DiffPolicy(stuffing=unstuffed, expansion=Expansion.STEAL)
        )
        client, loop = self._client(policy=policy)
        for values in ([1.0, 2.0, 3.0], [1.0, 123456.789012345, 3.0]):
            report = client.send(_msg(values))
            plain.send(_msg(values))
        assert report.rewrite.steals == 0 and report.rewrite.expansions == 1
        assert report.delta and loop.insertions == 1
        assert client.wire.fallbacks == {}
        assert loop.last_document == plain_sink.last

    def test_splice_cap_falls_back(self):
        policy = DiffPolicy(
            stuffing=StuffingPolicy(StuffMode.MAX),
            delta=DeltaPolicy(offer=True, max_splices=1),
        )
        client, loop = self._client(policy=policy)
        values = np.linspace(0.0, 1.0, 64)
        client.send(_msg(values))
        mutated = values.copy()
        mutated[::2] += 1.0  # many scattered splices
        report = client.send(_msg(mutated))
        assert not report.delta
        assert client.wire.fallbacks.get("too-many-splices", 0) == 1

    def test_frame_fraction_cap_falls_back(self):
        policy = DiffPolicy(
            stuffing=StuffingPolicy(StuffMode.MAX),
            delta=DeltaPolicy(offer=True, max_frame_fraction=0.01),
        )
        client, loop = self._client(policy=policy)
        values = np.linspace(0.0, 1.0, 8)
        client.send(_msg(values))
        mutated = values + 1.0  # everything dirty: frame ~ document
        report = client.send(_msg(mutated))
        assert not report.delta
        assert client.wire.fallbacks.get("frame-too-large", 0) == 1

    def test_unnegotiated_client_never_frames(self):
        loop = DeltaLoopback()
        client = BSoapClient(loop, DELTA_POLICY)  # negotiated stays False
        values = np.linspace(0.0, 1.0, 16)
        client.send(_msg(values))
        values = values.copy()
        values[2] = 9.0
        assert not client.send(_msg(values)).delta
        assert loop.delta_sends == 0

    def test_offer_off_means_no_encoder(self):
        client = BSoapClient(DeltaLoopback(), DiffPolicy())
        assert client.wire is None

    def test_resync_error_recovers_with_full_send(self):
        client, loop = self._client()
        values = np.linspace(0.0, 1.0, 32)
        client.send(_msg(values))
        values = values.copy()
        values[1] = 7.0
        assert client.send(_msg(values)).delta
        loop.delta.clear()  # the "server" lost its mirrors
        values = values.copy()
        values[2] = 8.0
        with pytest.raises(DeltaResyncError):
            client.send(_msg(values))
        # rollback + baseline invalidation: the retry is a full send
        report = client.send(_msg(values))
        assert not report.delta
        values = values.copy()
        values[3] = 9.0
        assert client.send(_msg(values)).delta  # steady state again


# ----------------------------------------------------------------------
# end-to-end over live HTTP
# ----------------------------------------------------------------------
@pytest.fixture()
def live():
    svc = SOAPService("urn:calc", TypeRegistry())

    @svc.operation("total", result_type=DOUBLE)
    def total(a):
        return float(np.sum(a))

    with HTTPSoapServer(svc) as httpd:
        yield svc, httpd


class TestLiveHTTP:
    def test_negotiation_and_steady_state(self, live):
        svc, httpd = live
        obs = Observability.metrics_only()
        with RPCChannel(
            "127.0.0.1", httpd.port, policy=DELTA_POLICY, obs=obs
        ) as channel:
            values = np.linspace(0.0, 1.0, 128)
            assert channel.call(_msg(values)).result() == pytest.approx(values.sum())
            assert channel.client.wire.negotiated
            full_bytes = channel.last_send_report.bytes_sent
            for k in (3, 60, 100):
                values = values.copy()
                values[k] = float(k)
                response = channel.call(_msg(values))
                assert response.result() == pytest.approx(values.sum())
                assert channel.last_send_report.delta
                assert channel.last_send_report.bytes_sent < full_bytes / 10
            stats = channel.client.stats
            assert stats.delta_sends == 3
            assert stats.bytes_received > 0
            # client metrics reconcile with the stats counters
            frames = obs.metrics.get("repro_delta_frames_total")
            assert frames.value(outcome="encoded") == 3
            assert (
                obs.metrics.get("repro_bytes_received_total").value()
                == stats.bytes_received
            )
            # server side counted the mirror deposits and applies
            counters = svc.sessions.merged_counters()
            assert counters["delta_frames_applied"] == 3
            assert counters["bytes_received"] > 0
            assert counters["delta_bytes_saved"] > 0

    def test_all_match_levels_round_trip(self, live):
        svc, httpd = live
        with RPCChannel(
            "127.0.0.1", httpd.port, policy=DELTA_POLICY
        ) as channel:
            values = np.linspace(0.0, 1.0, 32)
            channel.call(_msg(values))  # first-time
            assert channel.last_send_report.match_kind is MatchKind.FIRST_TIME
            channel.call(_msg(values))  # content match → 36B frame
            assert channel.last_send_report.match_kind is MatchKind.CONTENT_MATCH
            assert channel.last_send_report.delta
            mutated = values.copy()
            mutated[4] = 9.0
            channel.call(_msg(mutated))  # perfect structural → frame
            assert (
                channel.last_send_report.match_kind
                is MatchKind.PERFECT_STRUCTURAL
            )
            assert channel.last_send_report.delta
            grown = np.linspace(0.0, 1.0, 64)
            response = channel.call(_msg(grown))  # structural → full XML
            assert not channel.last_send_report.delta
            assert response.result() == pytest.approx(grown.sum())

    def test_server_mirror_loss_resyncs(self, live):
        svc, httpd = live
        with RPCChannel(
            "127.0.0.1", httpd.port, policy=DELTA_POLICY
        ) as channel:
            values = np.linspace(0.0, 1.0, 32)
            channel.call(_msg(values))
            values = values.copy()
            values[0] = 1.5
            channel.call(_msg(values))
            assert channel.last_send_report.delta
            for session in svc.sessions.sessions():
                session.delta.clear()
            values = values.copy()
            values[1] = 2.5
            response = channel.call(_msg(values))  # 409 → retry full
            assert response.result() == pytest.approx(values.sum())
            assert not channel.last_send_report.delta
            assert channel.last_send_report.retries == 1
            values = values.copy()
            values[2] = 3.5
            channel.call(_msg(values))
            assert channel.last_send_report.delta  # recovered

    def test_delta_disabled_server_keeps_full_xml(self, live):
        svc, httpd = live
        svc.delta_enabled = False
        try:
            with RPCChannel(
                "127.0.0.1", httpd.port, policy=DELTA_POLICY
            ) as channel:
                values = np.linspace(0.0, 1.0, 16)
                channel.call(_msg(values))
                assert not channel.client.wire.negotiated
                values = values.copy()
                values[3] = 4.0
                response = channel.call(_msg(values))
                assert not channel.last_send_report.delta
                assert response.result() == pytest.approx(values.sum())
        finally:
            svc.delta_enabled = True

    def test_plain_client_against_delta_server(self, live):
        """No offer → the server behaves exactly as before."""
        svc, httpd = live
        with RPCChannel("127.0.0.1", httpd.port) as channel:
            assert channel.client.wire is None
            assert channel.call(_msg([1.0, 2.0])).result() == 3.0

"""One document store per session direction.

Each template a peer uses has one entry in its direction's
:class:`~repro.wire.server.DeltaSession`: document, epoch, frame seq,
the seq its decode followed, ``ParseResult`` and ``SeekTable``.  These
tests pin what that buys — alternating operations keep their own
decodes, in plain and framed traffic, both ways — and drive one server
session through interleaved announces, frames, faults and sheds over
more template ids than the store holds, checking after every step that
decodes, ledger and store agree.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import RPCChannel
from repro.core.client import BSoapClient
from repro.core.policy import DeltaPolicy, DiffPolicy, StuffingPolicy, StuffMode
from repro.hardening.limits import DEFAULT_LIMITS
from repro.lexical.floats import format_double
from repro.schema.composite import ArrayType
from repro.schema.registry import TypeRegistry
from repro.schema.types import DOUBLE
from repro.server.async_server import make_server
from repro.server.diffdeser import DeserKind
from repro.server.parser import SOAPRequestParser
from repro.server.service import SOAPService
from repro.soap.message import Parameter, SOAPMessage
from repro.transport.loopback import CollectSink
from repro.wire.frame import encode_frame

NS = "urn:store"
MAX = DiffPolicy(stuffing=StuffingPolicy(StuffMode.MAX))
CLOSE = b"</item>"
FRAME = {"x-repro-delta": "1", "x-repro-delta-frame": "1"}


def _service(*operations: str):
    """A service echoing ``data`` for each operation; returns it and the
    list every handler appends what it decoded to."""
    service = SOAPService(NS, TypeRegistry())
    seen = []
    for name in operations:

        def handler(data):
            seen.append(data.copy())
            return data

        service.operation(name, result_type=ArrayType(DOUBLE))(handler)
    return service, seen


def _msg(operation: str, values) -> SOAPMessage:
    return SOAPMessage(operation, NS, [Parameter("data", ArrayType(DOUBLE), values)])


def _kind(service, before: dict) -> DeserKind:
    """The one deserializer outcome counted since *before*."""
    after = service.deserializer.stats
    (kind,) = [k for k in DeserKind if after[k] != before[k]]
    return kind


def test_plain_alternating_operations_keep_their_decodes():
    """No delta: plain full XML is held per operation, so after each
    operation's first call its resend compares with its own previous
    document and rides the seek table."""
    service, seen = _service("aaa", "bbb")
    sink = CollectSink()
    client = BSoapClient(sink, MAX)
    state = {op: np.linspace(1.0, 2.0, 12) + i for i, op in enumerate(("aaa", "bbb"))}
    lengths = set()
    for step, op in enumerate("aaa bbb aaa bbb bbb aaa aaa bbb".split()):
        values = state[op] = state[op].copy()
        values[step % 12] = 100.0 + step
        client.send(_msg(op, values))
        lengths.add(len(sink.last))
        before = dict(service.deserializer.stats)
        assert b"Fault" not in service.handle(sink.last)
        expected = DeserKind.FULL if step < 2 else DeserKind.DIFFERENTIAL
        assert _kind(service, before) is expected, f"step {step} ({op})"
        assert np.array_equal(seen[-1], values)
    assert len(lengths) == 1  # same length, other skeleton
    (session,) = service.sessions.sessions()
    assert list(session.delta.entries) == ["aaa", "bbb"]  # LRU first
    assert not session.delta.mirrors
    assert "skeleton-drift" not in service.deserializer.skipscan_stats


def test_alternating_operations_stay_on_the_frame_lane_both_ways():
    """Requests and replies of two operations interleave on one
    connection: after each operation's first call, both directions
    decode its frames by their splice directories."""
    service, _seen = _service("aaa", "bbb")
    offer = DiffPolicy(
        stuffing=StuffingPolicy(StuffMode.MAX), delta=DeltaPolicy(offer=True)
    )
    state = {op: np.linspace(1.0, 2.0, 16) + i for i, op in enumerate(("aaa", "bbb"))}
    with make_server(service, "threaded") as server:
        with RPCChannel("127.0.0.1", server.port, policy=offer) as channel:
            for step, op in enumerate("aaa bbb aaa bbb bbb aaa bbb aaa".split()):
                values = state[op] = state[op].copy()
                values[step % 16] = 100.0 + step
                before = dict(service.deserializer.stats)
                reply = channel.call(_msg(op, values))
                assert np.array_equal(reply.result(), values)
                request = _kind(service, before)
                response = channel.last_deser_report
                if step < 2:
                    assert request is response.kind is DeserKind.FULL
                else:
                    assert request is DeserKind.DIFFERENTIAL, f"step {step}"
                    assert (response.kind, response.leaves_parsed) == (
                        DeserKind.DIFFERENTIAL, 1,
                    ), f"step {step}"
            assert len(channel.replies.mirrors) == 2
            assert set(channel.replies.outcomes) == {"reply-applied"}
        assert service.sessions.merged_counters()["delta_frames_applied"] == 6


# ----------------------------------------------------------------------
# interleaving: max_delta_mirrors + 1 template ids through handle_wire
# ----------------------------------------------------------------------
IDS = DEFAULT_LIMITS.max_delta_mirrors + 1
TAG = b"ns:take"
BOGUS = b"<ns:takX"  # what a dispatch-peek fault rewrites the tag to
#: The plain entry's key: unannounced full XML is held under its operation.
PLAIN = "take"
STEPS = (
    "announce", "plain", "frame", "header", "corrupt", "gap", "shed1", "shed2", "peek",
)


def _body(values) -> bytes:
    sink = CollectSink()
    BSoapClient(sink, MAX).send(
        SOAPMessage("take", NS, [Parameter("data", ArrayType(DOUBLE), values)])
    )
    return sink.last


def _values(document) -> np.ndarray:
    return SOAPRequestParser().parse(bytes(document)).message.value("data")


class _Model:
    """What the client knows per template id, and what the server's
    store must therefore hold (the LRU order of deposit and frame
    touches, bounded like the store; :data:`PLAIN` for the plain
    entry)."""

    def __init__(self) -> None:
        self.docs = {}  # id -> bytearray: the server's document
        self.epoch = {}
        self.seq = {}
        self.lagging = set()  # the decode did not follow the last frame
        self.broken = set()  # operation tag rewritten by a peek fault
        self.tables = set()  # ids whose entry holds a seek table
        self.held: "OrderedDict[int, None]" = OrderedDict()
        self.epochs = 0

    def touch(self, tid: int) -> None:
        self.held[tid] = None
        self.held.move_to_end(tid)
        while len(self.held) > DEFAULT_LIMITS.max_delta_mirrors:
            self.held.popitem(last=False)

    def frame(self, tid: int, splices, seq=None) -> bytes:
        splices = sorted(splices)
        return encode_frame(
            tid, self.epoch.get(tid, 1),
            self.seq.get(tid, 0) + 1 if seq is None else seq,
            len(self.docs.get(tid, b"")),
            [at for at, _ in splices], [len(data) for _, data in splices],
            b"".join(data for _, data in splices),
        )

    def repaired(self, tid: int) -> bytes:
        """*tid*'s document with its operation tag as announced."""
        return bytes(self.docs[tid]).replace(BOGUS, b"<" + TAG)

    def value_splice(self, tid: int, j: int, value: float):
        regions = SOAPRequestParser().parse(self.repaired(tid)).regions
        start, end = (int(x) for x in regions[j])
        text = format_double(value) + CLOSE
        assert len(text) <= end - start
        return start, text.ljust(end - start)


def _check_store(service, session) -> None:
    """Every decode kept agrees with the document it describes, and the
    ledger is the bytes counted from the entries."""
    counted = {"deser": 0, "seektable": 0, "mirror": 0}
    for entry in session.delta.entries.values():
        counted["deser" if entry.epoch is None else "mirror"] += len(entry.data)
        if entry.result is not None:
            counted["deser"] += len(entry.base)
            if entry.decoded == entry.seq:
                assert entry.base == entry.data  # the decode follows the document
            if entry.decoded in (-1, entry.seq):
                described = entry.base if entry.decoded < 0 else entry.data
                assert np.array_equal(
                    entry.result.message.value("data"), _values(described)
                )
        if entry.table is not None:
            counted["seektable"] += entry.table.approx_bytes()
    components = session.state_components()
    assert components == dict(
        counted,
        response=session.responder.store.approx_bytes() + session.sink.last_bytes(),
    )
    service.sessions.note_usage(session)
    assert service.accountant.usage_bytes == sum(components.values())


@given(
    steps=st.lists(
        st.tuples(
            st.sampled_from(STEPS),
            st.integers(0, IDS - 1),
            st.integers(0, 1 << 20),
        ),
        min_size=1,
        max_size=28,
    )
)
@settings(max_examples=100, deadline=None)
def test_store_interleaving_matches_the_model(steps):
    service, seen = _service("take")
    session = service.sessions.acquire("h")
    service.sessions.release(session)
    model = _Model()
    for kind, index, seed in steps:
        tid = 40 + index
        rng = np.random.default_rng(seed)
        before = dict(service.deserializer.stats)
        held = tid in model.held
        if kind == "plain":
            body = _body(rng.random(6 + index) * 10)
            status, _x, response = service.handle_wire(body, {}, "h")
            assert status == 200 and b"Fault" not in response
            assert np.array_equal(seen[-1], _values(body))
            if PLAIN not in model.held or body != model.docs[PLAIN]:
                model.tables.add(PLAIN)  # not a content match
            model.docs[PLAIN] = body
            model.touch(PLAIN)
        elif kind == "announce":
            # A resend of what the id last held with one value changed
            # (same length: the document lane), or a first body.
            if tid in model.docs:
                values = _values(model.repaired(tid))
            else:
                values = np.zeros(6 + index)
            values[seed % len(values)] = rng.random()
            body = _body(values)
            model.epochs += 1
            headers = {
                "x-repro-delta": "1",
                "x-repro-delta-template": str(tid),
                "x-repro-delta-epoch": str(model.epochs),
            }
            status, _x, response = service.handle_wire(body, headers, "h")
            assert status == 200 and b"Fault" not in response
            assert np.array_equal(seen[-1], _values(body))
            if not held and PLAIN in model.held:  # taken over by the announce
                del model.held[PLAIN]
                model.tables.discard(PLAIN)
            # Only a content match (same bytes again) compiles no table.
            if not held or tid in model.lagging or body != model.docs[tid]:
                model.tables.add(tid)
            model.docs[tid] = bytearray(body)
            model.epoch[tid], model.seq[tid] = model.epochs, 0
            model.lagging.discard(tid)
            model.broken.discard(tid)
            model.touch(tid)
        elif kind in ("shed1", "shed2"):
            if kind == "shed1":
                victim = next((t for t in model.held if t != PLAIN), None)
                assert session.shed_mirror() == (victim is not None)
                model.held.pop(victim, None)
            else:
                victim = next((t for t in model.held if t in model.tables), None)
                assert (session.deserializer.drop_seek_table() > 0) == (
                    victim is not None
                )
                model.tables.discard(victim)
        elif not held:
            # Never announced, dropped by a resync, evicted or shed.
            status, _x, _r = service.handle_wire(model.frame(tid, []), FRAME, "h")
            assert status == 409
            model.held.pop(tid, None)
        elif kind == "corrupt":
            frame = bytearray(model.frame(tid, []))
            frame[-1] ^= 0xFF  # the CRC: the frame never reaches the entry
            assert service.handle_wire(bytes(frame), FRAME, "h")[0] == 409
        elif kind == "gap":
            frame = model.frame(tid, [], seq=model.seq[tid] + 2)
            assert service.handle_wire(frame, FRAME, "h")[0] == 409
            del model.held[tid]
        elif kind == "peek" and tid not in model.broken:
            at = bytes(model.docs[tid]).index(b"<" + TAG) + 1
            splice = (at, BOGUS[1:])
            status, _x, response = service.handle_wire(
                model.frame(tid, [splice]), FRAME, "h"
            )
            assert status == 200 and b"unknown operation" in response
            assert service.deserializer.stats == before  # never decoded
            model.docs[tid][at : at + len(TAG)] = splice[1]
            model.seq[tid] += 1
            model.broken.add(tid)
            model.lagging.add(tid)
            model.touch(tid)
        else:  # a valid frame; a "header" one carries no value splice
            # (A "peek" on an id already broken just repairs its tag.)
            splices = []
            if kind == "frame":
                splices.append(model.value_splice(tid, seed % (6 + index), rng.random()))
            if tid in model.broken:
                at = bytes(model.docs[tid]).index(BOGUS) + 1
                splices.append((at, TAG))
            status, _x, response = service.handle_wire(
                model.frame(tid, splices), FRAME, "h"
            )
            assert status == 200 and b"Fault" not in response, response
            for at, data in splices:
                model.docs[tid][at : at + len(data)] = data
            assert np.array_equal(seen[-1], _values(model.docs[tid]))
            # A frame whose predecessor the decode never followed — or
            # one with no table to follow it through — full-parses.
            if tid in model.lagging or (kind == "frame" and tid not in model.tables):
                expected = DeserKind.FULL
            elif len(splices):
                expected = DeserKind.DIFFERENTIAL
            else:
                expected = DeserKind.CONTENT_MATCH
            assert _kind(service, before) is expected
            model.seq[tid] += 1
            model.lagging.discard(tid)
            model.broken.discard(tid)
            if expected is DeserKind.FULL:
                model.tables.add(tid)
            model.touch(tid)
        assert list(session.delta.entries) == list(model.held)
        for held_id in model.held:
            if held_id != PLAIN:
                assert session.delta.mirrors[held_id].data == model.docs[held_id]
        _check_store(service, session)

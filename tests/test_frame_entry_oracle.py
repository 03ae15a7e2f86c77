"""Lockstep frame-entry oracle: frame lane ≡ document lane ≡ full parse.

A delta frame reaches the deserializer as a
:class:`~repro.wire.server.MirroredDocument` — the patched mirror plus
the validated frame — and the splice directory names the changed
leaves.  On the 200-call streams of ``test_skipscan_oracle`` (4 levels
x 50 calls, ``--rng-seed`` reseeds them) three decoders run in
lockstep on every call:

* **frame entry**: ``DeltaSession.apply`` → ``deserialize`` of the
  store entry whose document the frame patched,
* **document entry**: a second deserializer fed the same document as
  plain full XML (a plain client's wire), keyed by its operation,
* **full parse**: a fresh ``SOAPRequestParser`` on those bytes.

They must agree on the values, on the :class:`DeserKind` and on the
leaves parsed, and the entry's document, its stale leaves rendered,
must equal the plain differential client's bytes (and parse-equal the
naive client's) after every call.  A partial structural match (a value
outgrew its unstuffed field) frames too: its pad insertions resize the
mirror and rebase the seek table, so the frame entry re-parses the
dirty leaves (``DIFFERENTIAL``) where the document entry, seeing a new
length, full-parses.  The same is checked in both directions over live
servers on both front ends, on a ``StuffMode.NONE`` stream whose
regions are non-uniform (the per-leaf lane), on width-churning streams
whose values alternately outgrow and fit their fields (in process and
echoed over live servers), and on a two-operation stream whose frames
alternate between entries.  A Hypothesis property drives random
grow/shrink sequences of doubles, ints, strings and MIO structs across
chunk sizes that grow in place, split and reallocate, with a seek
table, one shed between calls, and none.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.naive import NaiveClient
from repro.bench.workloads import doubles_of_width
from repro.buffers.config import ChunkPolicy
from repro.channel import RPCChannel
from repro.core.client import BSoapClient
from repro.core.policy import DeltaPolicy, DiffPolicy, StuffingPolicy, StuffMode
from repro.hardening.limits import DEFAULT_LIMITS
from repro.schema.composite import ArrayType
from repro.schema.mio import make_mio_array_type
from repro.schema.types import DOUBLE, INT, STRING
from repro.server.async_server import make_server
from repro.server.diffdeser import DeserKind, DifferentialDeserializer
from repro.server.parser import SOAPRequestParser
from repro.server.service import SOAPService
from repro.soap.message import Parameter, SOAPMessage
from repro.transport.loopback import CollectSink
from repro.wire.server import DocumentEntry
from repro.xmlkit.canonical import diff_documents, documents_equivalent
from tests.test_oracle_wire import CALLS_PER_LEVEL, LEVELS, _level_policy, _sequence
from tests.test_shift_rebuild import _mutate
from tests.test_skipscan_oracle import SEQ_LEN, _expected_kind, _registry
from tests.test_skipscan_property import _assert_decoded_equal

NS = "urn:oracle"


def _offering(policy: DiffPolicy) -> DiffPolicy:
    return DiffPolicy(stuffing=policy.stuffing, delta=DeltaPolicy(offer=True))


def rendered(entry: DocumentEntry) -> bytes:
    """render(mirror): the entry's document with its stale leaves'
    text written — into a copy, so the entry keeps its stale leaves and
    the stream goes on exercising them."""
    shadow = DocumentEntry()
    shadow.base = bytearray(entry.data)
    shadow.table = entry.table
    shadow.stale = None if entry.stale is None else entry.stale.copy()
    shadow.render()
    return bytes(shadow.base)


class FramePeer:
    """A delta transport whose far end is the frame entry itself.

    Announced bodies are deposited in a :class:`DeltaSession` and
    decoded where they lie; frames are applied and the patched mirror
    handed to the deserializer with its frame — what
    ``SOAPService.handle_wire`` does, minus HTTP.
    """

    def __init__(self) -> None:
        self.deser = DifferentialDeserializer(_registry())
        self.delta = self.deser.store
        self.frames = 0
        #: Frames that carried pad insertions.
        self.resized = 0
        self.decoded = self.report = None
        self._announce = None

    def set_delta_announce(self, template_id: int, epoch: int) -> None:
        self._announce = (template_id, epoch)

    def send_message(self, views, total_bytes=None) -> int:
        body = b"".join(bytes(v) for v in views)
        document = body
        if self._announce is not None:
            document = self.delta.store(*self._announce, body)
            self._announce = None
        self.decoded, self.report = self.deser.deserialize(document)
        return len(body)

    def send_delta_frame(self, frame: bytes) -> int:
        document = self.delta.apply(frame, DEFAULT_LIMITS)
        self.frames += 1
        self.resized += bool(document.frame.growth)
        self.decoded, self.report = self.deser.deserialize(document)
        return len(frame)

    def close(self) -> None:
        pass

    def check_one_buffer(self) -> bytes:
        """The last-used entry's document, rendered; it must be a live
        mirror whose decode followed every frame applied to it."""
        entry = next(reversed(self.delta.entries.values()))
        assert entry.epoch is not None and entry.decoded == entry.seq
        return rendered(entry)


class Lockstep:
    """One frame-entry client and its two references (module docstring)."""

    def __init__(self, policy: DiffPolicy) -> None:
        self.peer = FramePeer()
        self.client = BSoapClient(self.peer, _offering(policy))
        self.client.wire.negotiated = True  # the peer accepts frames
        self.plain_sink = CollectSink()
        self.plain = BSoapClient(self.plain_sink, policy)
        self.by_document = DifferentialDeserializer(_registry())
        self.naive_sink = CollectSink()
        self.naive = NaiveClient(self.naive_sink)

    def send(self, message: SOAPMessage, where: str):
        """Send through all three; returns the frame entry's report."""
        resized = self.peer.resized
        self.client.send(message)
        resized = self.peer.resized > resized
        self.plain.send(message)
        self.naive.send(message)
        wire = self.plain_sink.last
        assert self.peer.check_one_buffer() == wire, f"{where}: buffer != plain wire"
        assert documents_equivalent(wire, self.naive_sink.last), (
            f"{where} diverged from the naive oracle: "
            + diff_documents(wire, self.naive_sink.last)
        )
        # Keyed by operation, as a server keys plain full XML.
        decoded, report = self.by_document.deserialize(
            self.by_document.store.deposit(wire, message.operation)
        )
        reference = SOAPRequestParser(_registry()).parse(wire).message
        _assert_decoded_equal(self.peer.decoded, reference)
        _assert_decoded_equal(decoded, reference)
        got = self.peer.report
        if resized:
            # A new length: the document entry full-parses, the frame
            # entry follows the insertions and re-parses the dirty leaves.
            assert got.kind is DeserKind.DIFFERENTIAL, f"{where}: {got}"
            assert report.kind is DeserKind.FULL, f"{where}: {report}"
            assert got.total_leaves == report.total_leaves, where
            assert "insertion-drift" not in self.peer.deser.skipscan_stats, where
            return got
        assert (got.kind, got.leaves_parsed, got.total_leaves) == (
            report.kind,
            report.leaves_parsed,
            report.total_leaves,
        ), f"{where}: frame entry {got}, document entry {report}"
        return got


def _frame_kind(level: str, call_index: int) -> DeserKind:
    """The frame entry's lane: a partial match frames and re-parses its
    dirty leaves through the rebased seek table."""
    if level == "partial-structural" and call_index:
        return DeserKind.DIFFERENTIAL
    return _expected_kind(level, call_index)


@pytest.mark.parametrize("level", LEVELS)
def test_frame_entry_lockstep_oracle(level, rng_seed):
    rng = np.random.default_rng(rng_seed + 61 * LEVELS.index(level))
    seq_len = SEQ_LEN.get(level, 5)
    checked = frames = hits = resized = 0
    while checked < CALLS_PER_LEVEL:
        run = Lockstep(_level_policy(level))
        for i, message in enumerate(_sequence(level, rng, seq_len)):
            report = run.send(message, f"call {i} at {level}")
            assert report.kind is _frame_kind(level, i), (
                f"call {i} at {level}: {report.kind}"
            )
            checked += 1
            if checked >= CALLS_PER_LEVEL:
                break
        frames += run.peer.frames
        resized += run.peer.resized
        stats = run.peer.deser.skipscan_stats
        hits += stats.get("hit", 0) + stats.get("hit-vector", 0)
    if level == "first-time":
        assert frames == 0  # full XML with a fresh announce every call
    else:
        # Steady-state calls must arrive as frames and (when anything
        # changed) ride the seek table, or the oracle proves nothing.
        assert frames >= CALLS_PER_LEVEL * 3 // 5
        assert (hits > 0) == (level != "content")
        # Every partial call widened a field: its frame resized.
        assert (resized == frames) == (level == "partial-structural")


def _mixed_width_pools(rng: np.random.Generator, n: int):
    """Two value pools whose entries differ at every index but share
    its lexical width, the widths varying along the array: unstuffed,
    every rewrite fits its field and no two regions need be as long."""
    widths = rng.integers(8, 17, n)
    seed = int(rng.integers(1 << 30))
    pools = np.empty((2, n))
    for j, width in enumerate(widths.tolist()):
        pools[:, j] = doubles_of_width(2, width, seed=seed + j)
    assert len(set(widths.tolist())) > 1 and bool(np.all(pools[0] != pools[1]))
    return pools


def test_frame_entry_per_leaf_lane_oracle(rng_seed):
    """``StuffMode.NONE`` with per-index widths: frames flow (nothing
    expands), regions are non-uniform, so every hit is the per-leaf
    lane's."""
    rng = np.random.default_rng(rng_seed + 67)
    policy = DiffPolicy(stuffing=StuffingPolicy(StuffMode.NONE))
    checked = 0
    while checked < CALLS_PER_LEVEL:
        run = Lockstep(policy)
        n = int(rng.integers(6, 24))
        pools = _mixed_width_pools(rng, n)
        side = np.zeros(n, dtype=int)
        for i in range(6):
            if i:
                side[rng.choice(n, max(1, n // 4), replace=False)] ^= 1
            values = pools[side, np.arange(n)]
            message = SOAPMessage(
                "mixed", NS, [Parameter("data", ArrayType(DOUBLE), values)]
            )
            report = run.send(message, f"per-leaf call {i}")
            assert report.kind is (DeserKind.DIFFERENTIAL if i else DeserKind.FULL)
            checked += 1
        stats = run.peer.deser.skipscan_stats
        assert run.peer.frames == 5
        assert stats.get("hit") == 5 and "hit-vector" not in stats


def test_two_operations_alternate_mirrors(rng_seed):
    """Frames for three operations interleave: each has its own store
    entry, mirror and decode together, so every repeat of an operation
    follows its frame's directory, whichever operation spoke last."""
    rng = np.random.default_rng(rng_seed + 71)
    run = Lockstep(DiffPolicy(stuffing=StuffingPolicy(StuffMode.MAX)))
    # opA/opB: same length, other skeleton; opC: another length.
    state = {
        "opA": doubles_of_width(12, 14, seed=1),
        "opB": doubles_of_width(12, 14, seed=2),
        "opC": doubles_of_width(9, 14, seed=3),
    }
    fresh = iter(doubles_of_width(64, 14, seed=int(rng.integers(1 << 30))))
    order = "A B A B C A A A B B C B A".split()
    seen = set()
    for step, letter in enumerate(order):
        op = "op" + letter
        values = state[op] = state[op].copy()
        values[int(rng.integers(len(values)))] = next(fresh)
        message = SOAPMessage(op, NS, [Parameter("data", ArrayType(DOUBLE), values)])
        report = run.send(message, f"step {step} ({op})")
        if op not in seen:
            assert report.kind is DeserKind.FULL  # first-time announce
        else:
            # The entry's decode followed its last frame: the directory lane.
            assert (report.kind, report.leaves_parsed) == (DeserKind.DIFFERENTIAL, 1)
        seen.add(op)
    assert len(run.peer.delta.mirrors) == 3
    assert run.peer.frames == len(order) - 3
    stats = run.peer.deser.skipscan_stats
    assert "skeleton-drift" not in stats and "length-drift" not in stats
    # Every mirror still equals what its operation sent last.
    for mirror in run.peer.delta.mirrors.values():
        decoded = SOAPRequestParser(_registry()).parse(rendered(mirror)).message
        assert np.array_equal(decoded.value("data"), state[decoded.operation])


# ----------------------------------------------------------------------
# both directions, over live servers
# ----------------------------------------------------------------------
def _as_take(message: SOAPMessage) -> SOAPMessage:
    return SOAPMessage("take", NS, message.params)


@pytest.mark.parametrize("front", ("threaded", "async"))
@pytest.mark.parametrize("level", LEVELS)
def test_frame_entry_live_lockstep(level, front, rng_seed):
    """An offering channel (frames both ways) and a plain one (full XML
    both ways) call the same service in lockstep: the two server
    sessions and the two channels must decode alike, call for call."""
    rng = np.random.default_rng(rng_seed + 73 * LEVELS.index(level))
    service = SOAPService(NS, _registry())
    received = []

    @service.operation("take", result_type=ArrayType(DOUBLE))
    def take(**params):
        received.append(
            {k: (v.copy() if hasattr(v, "copy") else v) for k, v in params.items()}
        )
        return params["data"]

    base = _level_policy(level)
    seq_len = SEQ_LEN.get(level, 5)
    checked = request_frames = 0
    with make_server(service, front) as server:
        while checked < CALLS_PER_LEVEL:
            known = set(service.sessions.sessions())
            with RPCChannel(
                "127.0.0.1", server.port, policy=_offering(base), registry=_registry()
            ) as offering, RPCChannel(
                "127.0.0.1", server.port, policy=base, registry=_registry()
            ) as plain:
                framed = whole = None
                for i, message in enumerate(_sequence(level, rng, seq_len)):
                    message = _as_take(message)
                    where = f"call {i} at {level}"
                    got = offering.call(message)
                    want = plain.call(message)
                    if framed is None:
                        framed, whole = sorted(
                            (s for s in service.sessions.sessions() if s not in known),
                            key=lambda s: not s.delta.mirrors,
                        )
                        assert framed.delta.mirrors and not whole.delta.mirrors

                    # Request direction: one buffer, equal documents,
                    # equal decodes, equal lanes.
                    wire = next(reversed(whole.delta.entries.values())).data
                    assert isinstance(wire, bytes)
                    entry = next(reversed(framed.delta.entries.values()))
                    assert entry.decoded == entry.seq, where
                    assert rendered(entry) == wire, where
                    reference = SOAPRequestParser(_registry()).parse(wire).message
                    for seen in received[-2:]:
                        assert list(seen) == [p.name for p in reference.params]
                        for param in reference.params:
                            value = seen[param.name]
                            if isinstance(value, dict):
                                for name, column in value.items():
                                    assert np.array_equal(column, param.value[name])
                            else:
                                assert np.array_equal(value, param.value), where
                    framed_stats = framed.deserializer.stats
                    if level == "partial-structural":
                        # Each widening frame rode the rebased table.
                        assert framed_stats[DeserKind.FULL] == 1, where
                        assert framed_stats[DeserKind.DIFFERENTIAL] == i, where
                    else:
                        assert framed_stats == whole.deserializer.stats, where
                    assert framed_stats[_frame_kind(level, i)] > 0

                    # Reply direction: the same, on the channels.
                    mirror = next(reversed(offering.replies.entries.values()))
                    assert mirror.epoch is not None and mirror.decoded == mirror.seq
                    assert offering.last_response_body == plain.last_response_body
                    reply = SOAPRequestParser(_registry()).parse(
                        plain.last_response_body
                    ).message
                    for response in (got, want):
                        assert np.array_equal(response.result(), reply.params[0].value)
                    a, b = offering.last_deser_report, plain.last_deser_report
                    if level == "partial-structural":
                        assert a.kind is _frame_kind(level, i), where
                        assert a.total_leaves == b.total_leaves, where
                    else:
                        assert (a.kind, a.leaves_parsed, a.total_leaves) == (
                            b.kind, b.leaves_parsed, b.total_leaves,
                        ), f"{where}: reply frame entry {a}, document entry {b}"
                    checked += 1
                    if checked >= CALLS_PER_LEVEL:
                        break
                request_frames += framed.delta.frames_applied
    if level == "first-time":
        assert request_frames == 0
    else:
        assert request_frames >= CALLS_PER_LEVEL * 3 // 5


# ----------------------------------------------------------------------
# resized frames: fields that outgrow their width
# ----------------------------------------------------------------------
def _churn(rng: np.random.Generator, n: int, calls: int, seed: int):
    """*calls* arrays of *n* unstuffed doubles: each call after the
    first rewrites a quarter of them, alternately wider than any field
    so far (odd calls: 11, 13, ... characters) and narrow enough to fit
    (even calls: 6 characters)."""
    values = doubles_of_width(n, 10, seed=seed)
    out = [values]
    for i in range(1, calls):
        values = values.copy()
        idx = rng.choice(n, n // 4, replace=False)
        width = 10 + i if i % 2 else 6
        values[idx] = doubles_of_width(idx.size, width, seed=seed + i)
        out.append(values)
    return out


def test_width_churn_frames_in_process(rng_seed):
    """Every widening call frames with insertions, the mirror stays the
    plain client's bytes and the decode the values sent."""
    rng = np.random.default_rng(rng_seed + 79)
    run = Lockstep(DiffPolicy(stuffing=StuffingPolicy(StuffMode.NONE)))
    calls = 12
    for i, values in enumerate(_churn(rng, 64, calls, int(rng.integers(1 << 30)))):
        message = SOAPMessage("churn", NS, [Parameter("data", ArrayType(DOUBLE), values)])
        report = run.send(message, f"churn call {i}")
        assert report.kind is (DeserKind.DIFFERENTIAL if i else DeserKind.FULL)
        assert np.array_equal(run.peer.decoded.value("data"), values)
    assert run.peer.frames == calls - 1
    assert run.peer.resized == calls // 2  # every odd call widened
    assert run.client.wire.fallbacks == {}
    assert run.peer.delta.resyncs == 0


@pytest.mark.parametrize("front", ("threaded", "async"))
def test_width_churn_live_echo(front, rng_seed):
    """The churning array echoed over a live server: requests and
    replies both frame their widenings, and each direction's mirror
    equals the plain channel's bytes after every call."""
    rng = np.random.default_rng(rng_seed + 83)
    service = SOAPService(NS, _registry())

    @service.operation("echo", result_type=ArrayType(DOUBLE))
    def echo(data):
        return data

    policy = DiffPolicy(stuffing=StuffingPolicy(StuffMode.NONE))
    calls = 10
    with make_server(service, front) as server:
        with RPCChannel(
            "127.0.0.1", server.port, policy=_offering(policy), registry=_registry()
        ) as offering, RPCChannel(
            "127.0.0.1", server.port, policy=policy, registry=_registry()
        ) as plain:
            framed = whole = None
            for i, values in enumerate(_churn(rng, 48, calls, int(rng.integers(1 << 30)))):
                message = SOAPMessage(
                    "echo", NS, [Parameter("data", ArrayType(DOUBLE), values)]
                )
                where = f"echo call {i}"
                assert np.array_equal(offering.call(message).result(), values), where
                assert np.array_equal(plain.call(message).result(), values), where
                if framed is None:
                    framed, whole = sorted(
                        service.sessions.sessions(), key=lambda s: not s.delta.mirrors
                    )
                wire = next(reversed(whole.delta.entries.values())).data
                entry = next(reversed(framed.delta.entries.values()))
                assert entry.decoded == entry.seq and entry.base is entry.data, where
                assert rendered(entry) == wire, where
                mirror = next(reversed(offering.replies.entries.values()))
                assert mirror.decoded == mirror.seq and mirror.base is mirror.data
                assert rendered(mirror) == plain.last_response_body, where
                kind = DeserKind.DIFFERENTIAL if i else DeserKind.FULL
                assert offering.last_deser_report.kind is kind, where
            assert framed.delta.frames_applied == calls - 1
            assert framed.responder.wire.frames_sent == calls - 1
            assert framed.responder.wire.fallbacks == {}
            assert offering.client.wire.fallbacks == {}
            assert set(offering.replies.outcomes) == {"reply-applied"}
            for stats in (framed.deserializer.skipscan_stats,
                          offering.deserializer.skipscan_stats):
                assert "insertion-drift" not in stats and "length-drift" not in stats
            assert offering.channel_stats()["retries"] == 0


class _ApplyOnly(FramePeer):
    """A frame peer with no decode: the mirror is patched, never parsed
    (no seek table at all), so typed values are written as text."""

    def send_message(self, views, total_bytes=None) -> int:
        body = b"".join(bytes(v) for v in views)
        self.delta.store(*self._announce, body)
        self._announce = None
        return len(body)

    def send_delta_frame(self, frame: bytes) -> int:
        document = self.delta.apply(frame, DEFAULT_LIMITS)
        self.frames += 1
        self.resized += bool(document.frame.growth)
        return len(frame)

    def check_one_buffer(self) -> bytes:
        return next(reversed(self.delta.entries.values())).data


#: ``(chunk KiB, reserve, split threshold)``: growth in place (roomy
#: chunks), a split (small chunks past the threshold), a realloc (a
#: threshold no chunk reaches).
CHUNKINGS = ((32, 512, 4096), (1, 16, 512), (1, 16, 1 << 20))


def _resize_run(chunking, stuffing, table, message, mutations):
    """Send *message*, then one send per mutation (each applied alike to
    the framing client's and a plain client's templates); after each,
    the peer's mirror must be the plain bytes, the decode (when there is
    one) the full parse of them, and no send may resync or fall back
    but for a frame larger than the document.  Returns the rebuild
    modes the sends took."""
    kib, reserve, split = chunking
    policy = DiffPolicy(
        chunk=ChunkPolicy(chunk_size=kib * 1024, reserve=reserve, split_threshold=split),
        stuffing=StuffingPolicy(stuffing),
    )
    peer = FramePeer() if table != "none" else _ApplyOnly()
    client = BSoapClient(
        peer, replace(policy, delta=DeltaPolicy(offer=True, max_frame_fraction=1.0))
    )
    client.wire.negotiated = True
    plain_sink = CollectSink()
    plain = BSoapClient(plain_sink, policy)
    call, plain_call = client.prepare(message), plain.prepare(message)
    call.send()
    plain_call.send()
    modes = set()
    for step, mutate in enumerate(mutations):
        if table == "shed":
            peer.deser.drop_seek_table()
        mutate((call.template, plain_call.template))
        dut = call.template.dut
        dirty_doubles = int(np.count_nonzero(dut.dirty & (dut.type_id == DOUBLE.type_id)))
        report = call.send()
        plain_call.send()
        where = f"send {step} ({table}, {stuffing.value}, {chunking})"
        # A frame may outgrow the document (every field dirty and
        # unstuffed); nothing else may keep a send off the frame lane.
        assert report.delta or set(client.wire.fallbacks) == {"frame-too-large"}
        if stuffing is StuffMode.MAX and report.delta:
            # MAX fields hold any double: every dirty one stays deferred,
            # whatever else widened.
            assert report.rewrite.values_deferred == dirty_doubles, where
        for mode, count in (
            ("inplace", report.rewrite.shifts_inplace),
            ("split", report.rewrite.splits),
            ("realloc", report.rewrite.reallocs),
        ):
            if count:
                modes.add(mode)
        entry = next(reversed(peer.delta.entries.values()))
        if table == "none":
            assert bytes(entry.data) == plain_sink.last, where
        else:
            assert entry.base is entry.data and entry.decoded == entry.seq, where
            assert rendered(entry) == plain_sink.last, where
            reference = SOAPRequestParser(_registry()).parse(plain_sink.last).message
            _assert_decoded_equal(peer.decoded, reference)
    assert peer.delta.resyncs == 0
    assert set(client.wire.fallbacks) <= {"frame-too-large"}
    if table != "none":
        assert "insertion-drift" not in peer.deser.skipscan_stats
    return modes


def _mixed_message(sizes):
    nd, ni, ns, nm = (sizes[k] for k in "dism")
    return SOAPMessage(
        "op",
        NS,
        [
            Parameter("d", ArrayType(DOUBLE), [1.0] * nd),
            Parameter("i", ArrayType(INT), [7] * ni),
            Parameter("s", ArrayType(STRING), ["ab"] * ns),
            Parameter(
                "m", make_mio_array_type(), {"x": [1] * nm, "y": [2] * nm, "v": [0.5] * nm}
            ),
        ],
    )


@settings(max_examples=40, deadline=None)
@given(
    chunking=st.sampled_from(CHUNKINGS),
    stuffing=st.sampled_from([StuffMode.NONE, StuffMode.MAX]),
    table=st.sampled_from(["table", "shed", "none"]),
    nd=st.sampled_from([1, 40, 300]),
    ni=st.sampled_from([1, 40]),
    ns=st.sampled_from([1, 20]),
    nm=st.sampled_from([1, 40, 200]),
    sends=st.integers(2, 4),
    data=st.data(),
)
def test_resized_frames_keep_the_mirror(
    chunking, stuffing, table, nd, ni, ns, nm, sends, data
):
    """Random grow/shrink sequences of doubles (typed), ints, strings and
    MIO structs (byte splices) frame without a resync, and the mirror is
    the plain client's bytes after every frame (:func:`_resize_run`)."""
    sizes = {"d": nd, "i": ni, "s": ns, "m": nm}
    _resize_run(
        chunking,
        stuffing,
        table,
        _mixed_message(sizes),
        [lambda templates: _mutate(data, templates, sizes)] * sends,
    )


@pytest.mark.parametrize("table", ["table", "shed", "none"])
@pytest.mark.parametrize("chunking", CHUNKINGS)
def test_every_rebuild_mode_frames(chunking, table):
    """Every double outgrows its field at once: the chunk grows in place,
    splits or reallocates, and the frame carries each widening."""
    sizes = {"d": 600, "i": 1, "s": 1, "m": 1}
    wide = -1.2345678901234567e-300

    def widen(templates):
        for t in templates:
            t.tracked("d").update(np.arange(600), np.full(600, wide))

    def narrow(templates):
        for t in templates:
            t.tracked("d").update(np.arange(0, 600, 7), np.full(86, 0.5))

    modes = _resize_run(
        chunking, StuffMode.NONE, table, _mixed_message(sizes), [widen, narrow]
    )
    assert modes == {CHUNKINGS[mode]: {name} for mode, name in enumerate(
        ("inplace", "split", "realloc")
    )}[chunking]

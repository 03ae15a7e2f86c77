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
naive client's) after every call.  The same is checked in both directions over live servers
on both front ends, on a ``StuffMode.NONE`` stream whose regions are
non-uniform (the per-leaf lane), and on a two-operation stream whose
frames alternate between entries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.naive import NaiveClient
from repro.bench.workloads import doubles_of_width
from repro.channel import RPCChannel
from repro.core.client import BSoapClient
from repro.core.policy import DeltaPolicy, DiffPolicy, StuffingPolicy, StuffMode
from repro.hardening.limits import DEFAULT_LIMITS
from repro.schema.composite import ArrayType
from repro.schema.types import DOUBLE
from repro.server.async_server import make_server
from repro.server.diffdeser import DeserKind, DifferentialDeserializer
from repro.server.parser import SOAPRequestParser
from repro.server.service import SOAPService
from repro.soap.message import Parameter, SOAPMessage
from repro.transport.loopback import CollectSink
from repro.wire.server import DocumentEntry
from repro.xmlkit.canonical import diff_documents, documents_equivalent
from tests.test_oracle_wire import CALLS_PER_LEVEL, LEVELS, _level_policy, _sequence
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
        self.client.send(message)
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
        assert (got.kind, got.leaves_parsed, got.total_leaves) == (
            report.kind,
            report.leaves_parsed,
            report.total_leaves,
        ), f"{where}: frame entry {got}, document entry {report}"
        return got


@pytest.mark.parametrize("level", LEVELS)
def test_frame_entry_lockstep_oracle(level, rng_seed):
    rng = np.random.default_rng(rng_seed + 61 * LEVELS.index(level))
    seq_len = SEQ_LEN.get(level, 5)
    checked = frames = hits = 0
    while checked < CALLS_PER_LEVEL:
        run = Lockstep(_level_policy(level))
        for i, message in enumerate(_sequence(level, rng, seq_len)):
            report = run.send(message, f"call {i} at {level}")
            assert report.kind is _expected_kind(level, i), (
                f"call {i} at {level}: {report.kind}"
            )
            checked += 1
            if checked >= CALLS_PER_LEVEL:
                break
        frames += run.peer.frames
        stats = run.peer.deser.skipscan_stats
        hits += stats.get("hit", 0) + stats.get("hit-vector", 0)
    if level in ("content", "perfect-structural"):
        # Steady-state calls must arrive as frames and (when anything
        # changed) ride the seek table, or the oracle proves nothing.
        assert frames >= CALLS_PER_LEVEL * 3 // 5
        assert (hits > 0) == (level == "perfect-structural")
    else:
        assert frames == 0  # full XML with a fresh announce every call


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
                    assert framed.deserializer.stats == whole.deserializer.stats, where
                    assert framed.deserializer.stats[_expected_kind(level, i)] > 0

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
                    assert (a.kind, a.leaves_parsed, a.total_leaves) == (
                        b.kind, b.leaves_parsed, b.total_leaves,
                    ), f"{where}: reply frame entry {a}, document entry {b}"
                    checked += 1
                    if checked >= CALLS_PER_LEVEL:
                        break
                request_frames += framed.delta.frames_applied
    if level in ("content", "perfect-structural"):
        assert request_frames >= CALLS_PER_LEVEL * 3 // 5
    else:
        assert request_frames == 0

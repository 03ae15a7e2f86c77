"""The reply direction of the delta protocol, fallback by fallback.

Requests have had RDF1 frames, a mirror and a resync since the wire
protocol landed; replies now run through the same classes with the
roles swapped (``docs/wire_protocol.md``, "Reply direction"): the
session responder's :class:`~repro.wire.client.DeltaEncoder` frames
steady-state replies, the channel's
:class:`~repro.wire.server.DeltaSession` mirrors them.  Every way a
reply can leave the framed path is reached here deterministically, and
each must end in the right value — through a full reply with a fresh
announce, or through exactly one retry on a fresh connection — never
in a wrong one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.workloads import doubles_of_width
from repro.channel import RPCChannel
from repro.core.policy import (
    DeltaPolicy,
    DiffPolicy,
    Expansion,
    StuffingPolicy,
    StuffMode,
)
from repro.core.stats import MatchKind
from repro.errors import DeltaFrameError, SOAPFaultError, TransportError
from repro.hardening.limits import DEFAULT_LIMITS, ResourceLimits
from repro.obs import Observability
from repro.resilience.faults import FaultInjectingTransport, FaultSpec
from repro.resilience.reconnect import ReconnectingTCPTransport
from repro.resilience.retry import RetryPolicy
from repro.runtime.pipeline import PipelinedChannel
from repro.schema.composite import ArrayType
from repro.schema.registry import TypeRegistry
from repro.schema.types import DOUBLE, INT
from repro.server.async_server import make_server
from repro.server.diffdeser import DeserKind
from repro.server.service import SOAPService
from repro.soap.message import Parameter, SOAPMessage
from repro.wire.frame import decode_frame, encode_frame
from repro.wire.server import DeltaSession

NS = "urn:reply"
OFFER = DiffPolicy(
    stuffing=StuffingPolicy(StuffMode.MAX), delta=DeltaPolicy(offer=True)
)
PLAIN = DiffPolicy(stuffing=StuffingPolicy(StuffMode.MAX))
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)
FRONT_ENDS = ("threaded", "async")


def _service(**kw) -> SOAPService:
    service = SOAPService(NS, TypeRegistry(), **kw)

    # Same-length names: ``aaaResponse`` / ``bbbResponse`` differ only
    # in skeleton bytes.
    @service.operation("aaa", result_type=ArrayType(DOUBLE))
    def aaa(data):
        return data

    @service.operation("bbb", result_type=ArrayType(DOUBLE))
    def bbb(data):
        return data

    @service.operation("boom", result_type=INT)
    def boom():
        raise RuntimeError("nope")

    return service


def _msg(values, operation: str = "aaa") -> SOAPMessage:
    return SOAPMessage(
        operation, NS, [Parameter("data", ArrayType(DOUBLE), np.asarray(values))]
    )


class _Recorder:
    """``raw_transport=`` wrapper keeping every response as received."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.responses = []

    def send_message(self, views, total_bytes=None) -> int:
        return self.inner.send_message(views, total_bytes)

    def recv_http_response(self, limit=None):
        response = self.inner.recv_http_response(limit)
        self.responses.append(response)
        return response

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def frames(self):
        """Every reply frame received that still decodes."""
        out = []
        for _status, headers, body in self.responses:
            if headers.get("x-repro-delta-frame") == "1":
                try:
                    out.append(decode_frame(body))
                except DeltaFrameError:  # the one a test corrupted
                    pass
        return out


def _open(port: int, policy: DiffPolicy = OFFER, script=None, **kw):
    """A channel over recorder → fault injector → reconnecting TCP."""
    raw = ReconnectingTCPTransport("127.0.0.1", port)
    raw.connect()
    recorder = _Recorder(FaultInjectingTransport(raw, script=script))
    channel = RPCChannel(
        "127.0.0.1", port, policy=policy, retry=FAST_RETRY,
        raw_transport=recorder, **kw,
    )
    return channel, recorder


def _steps(n: int, calls: int, seed: int = 1):
    """*calls* same-width arrays, each differing from the last in one
    leaf: perfect-structural requests and perfect-structural replies."""
    values = doubles_of_width(n, 14, seed=seed)
    fresh = doubles_of_width(calls, 14, seed=seed + 1)
    out = [values]
    for i in range(1, calls):
        values = values.copy()
        values[i % n] = fresh[i]
        out.append(values)
    return out


# ----------------------------------------------------------------------
# negotiation and the steady state
# ----------------------------------------------------------------------
@pytest.mark.parametrize("front", FRONT_ENDS)
def test_first_reply_announces_then_frames_flow(front):
    with make_server(_service(), front) as server:
        channel, recorder = _open(server.port)
        plain, _ = _open(server.port, PLAIN)
        with channel, plain:
            for values in _steps(32, 6):
                got = channel.call(_msg(values))
                want = plain.call(_msg(values))
                assert np.array_equal(got.result(), values)
                assert np.array_equal(want.result(), values)
                assert channel.last_response_body == plain.last_response_body
                assert channel.last_send_report.retries == 0
            _status, first, body = recorder.responses[0]
            assert first["x-repro-delta"] == "1"
            assert first["content-type"].startswith("text/xml")
            assert int(first["x-repro-delta-epoch"]) == 1
            template_id = int(first["x-repro-delta-template"])
            frames = recorder.frames()
            assert [f.seq for f in frames] == [1, 2, 3, 4, 5]
            assert {(f.template_id, f.epoch) for f in frames} == {(template_id, 1)}
            assert all(f.doc_len == len(body) for f in frames)
            for _status, headers, _body in recorder.responses[1:]:
                assert headers["content-type"] == "application/x-repro-delta"
                assert "x-repro-delta-template" not in headers
            assert channel.replies.frames_applied == 5
            assert channel.last_deser_report.kind is DeserKind.DIFFERENTIAL
            assert channel.last_deser_report.leaves_parsed == 1
            # The reply frames are what crossed the wire and were counted.
            framed = sum(len(body) for _s, _h, body in recorder.responses)
            assert channel.client.stats.bytes_received == framed
        assert server.service.response_stats.delta_sends == 5


def test_non_declaring_clients_get_plain_xml():
    """No declaration, or a server with delta off: replies as before."""
    with make_server(_service(), "async") as server:
        plain, recorder = _open(server.port, PLAIN)
        with plain:
            for values in _steps(16, 3):
                plain.call(_msg(values))
        for _status, headers, body in recorder.responses:
            assert not any(key.startswith("x-repro-delta") for key in headers)
            assert body.startswith(b"<?xml")
        assert plain.replies is None
    with make_server(_service(delta_enabled=False), "async") as server:
        channel, recorder = _open(server.port)
        with channel:
            for values in _steps(16, 3):
                assert np.array_equal(channel.call(_msg(values)).result(), values)
        assert not recorder.frames()
        assert not any(
            "x-repro-delta-template" in headers
            for _status, headers, _body in recorder.responses
        )
        assert server.service.response_stats.delta_sends == 0


def test_header_only_frame_returns_the_cached_decode():
    with make_server(_service(), "async") as server:
        channel, recorder = _open(server.port)
        with channel:
            values = doubles_of_width(1024, 14, seed=3)
            first = channel.call(_msg(values)).result()
            channel.call(_msg(values))  # frame 1: a fresh reconstruction
            body = channel.last_response_body
            decoded_before = dict(channel.deserializer.stats)
            again = channel.call(_msg(values)).result()  # frame 2: header only
            assert len(recorder.responses[-1][2]) == 36
            # Nothing was reconstructed: the reply mirror's decode
            # followed its frames, and the body is copied out of it on
            # request.
            (mirror,) = channel.replies.mirrors.values()
            assert mirror.decoded == mirror.seq == 2
            assert channel.last_response_body == body
            decoded_before[DeserKind.CONTENT_MATCH] += 1
            assert channel.deserializer.stats == decoded_before
            report = channel.last_deser_report
            assert (report.kind, report.leaves_parsed) == (DeserKind.CONTENT_MATCH, 0)
            assert report.total_leaves == 1024
            assert np.array_equal(again, values) and again is not first
            assert [f.seq for f in recorder.frames()] == [1, 2]


@pytest.mark.parametrize("front", FRONT_ENDS)
def test_content_match_frames_are_header_only_at_both_ends(front):
    """A resent request and its repeated reply each cross the wire as
    exactly ``encode_frame(tid, epoch, seq, doc_len, (), (), b"")``."""
    with make_server(_service(), front) as server:
        channel, recorder = _open(server.port)
        requests = []
        send = recorder.send_message

        def keep(views, total_bytes=None):
            message = b"".join(bytes(v) for v in views)
            requests.append(message)
            return send([message], total_bytes)

        recorder.send_message = keep
        with channel:
            values = doubles_of_width(64, 14, seed=5)
            for _ in range(4):
                assert np.array_equal(channel.call(_msg(values)).result(), values)
    request_frames = [
        message.split(b"\r\n\r\n", 1)[1]
        for message in requests
        if b"X-Repro-Delta-Frame: 1\r\n" in message
    ]
    reply_frames = [
        body
        for _status, headers, body in recorder.responses
        if headers.get("x-repro-delta-frame") == "1"
    ]
    assert len(request_frames) == 3 and len(reply_frames) == 3
    for body in request_frames + reply_frames:
        frame = decode_frame(body)
        assert body == encode_frame(
            frame.template_id, frame.epoch, frame.seq, frame.doc_len, (), (), b""
        )


# ----------------------------------------------------------------------
# faults never enter differential state
# ----------------------------------------------------------------------
@pytest.mark.parametrize("front", FRONT_ENDS)
def test_fault_in_the_middle_of_a_framed_stream(front):
    with make_server(_service(), front) as server:
        channel, recorder = _open(server.port)
        with channel:
            steps = _steps(32, 4)
            for values in steps[:2]:
                channel.call(_msg(values))
            mirror = bytes(next(iter(channel.replies.mirrors.values())).data)
            with pytest.raises(SOAPFaultError, match="nope"):
                channel.call(SOAPMessage("boom", NS, []))
            _status, headers, body = recorder.responses[-1]
            assert b"Fault" in body
            assert not any(key.startswith("x-repro-delta-") for key in headers)
            # Neither the mirror nor the decode template moved ...
            assert bytes(next(iter(channel.replies.mirrors.values())).data) == mirror
            assert channel.deserializer.has_template
            for values in steps[2:]:
                assert np.array_equal(channel.call(_msg(values)).result(), values)
                assert channel.last_deser_report.kind is DeserKind.DIFFERENTIAL
            # ... so the stream continues where it was: no resync.
            assert [f.seq for f in recorder.frames()] == [1, 2, 3]
            assert channel.channel_stats()["retries"] == 0
            assert recorder.reconnects == 0


# ----------------------------------------------------------------------
# encoder fallbacks: a full reply with a fresh announce
# ----------------------------------------------------------------------
def test_partial_reply_frames_and_skeleton_drift_reannounces():
    with make_server(_service(), "async") as server:
        channel, recorder = _open(server.port)
        with channel:
            values = doubles_of_width(16, 10, seed=5)
            channel.call(_msg(values))
            wider = values.copy()
            wider[3] = doubles_of_width(1, 20, seed=6)[0]
            # The reply value outgrows its unstuffed field: a partial
            # match on the responder, framed with one pad insertion that
            # the channel's seek table follows.
            assert np.array_equal(channel.call(_msg(wider)).result(), wider)
            _status, headers, body = recorder.responses[-1]
            assert headers.get("x-repro-delta-frame") == "1"
            frame = decode_frame(body)
            assert frame.insert_offsets.size == 1 and frame.growth == 10
            assert channel.last_deser_report.kind is DeserKind.DIFFERENTIAL
            stats = channel.deserializer.skipscan_stats
            assert "length-drift" not in stats and "insertion-drift" not in stats
            again = wider.copy()
            again[5] = doubles_of_width(1, 10, seed=7)[0]
            assert np.array_equal(channel.call(_msg(again)).result(), again)
            assert [(f.epoch, f.seq) for f in recorder.frames()] == [(1, 1), (1, 2)]
            assert set(channel.replies.outcomes) == {"reply-applied"}

            # Same length, other skeleton: each operation's reply has
            # its own responder template and its own store entry, so
            # the first ``bbb`` reply is a fresh decode, not a drift.
            other = channel.call(_msg(again, "bbb"))
            assert other.operation == "bbbResponse"
            assert np.array_equal(other.result(), again)
            _status, headers, body = recorder.responses[-1]
            assert "x-repro-delta-template" in headers
            assert len(body) == recorder.frames()[-1].doc_len  # aaa's document
            assert channel.last_deser_report.kind is DeserKind.FULL
            assert "skeleton-drift" not in channel.deserializer.skipscan_stats
            assert len(channel.replies.mirrors) == 2
            assert channel.channel_stats()["retries"] == 0
        kinds = server.service.response_stats.by_kind
        assert kinds[MatchKind.PARTIAL_STRUCTURAL] == 1
        assert kinds[MatchKind.FIRST_TIME] == 2


def test_partial_reply_that_steals_falls_back_counted():
    """A responder under ``Expansion.STEAL`` whose reply steals a
    neighbour's slack sends that reply as full XML with a fresh
    announce, counted as ``reply-fallback-steal``; frames resume."""
    policy = DiffPolicy(expansion=Expansion.STEAL)
    with make_server(_service(response_policy=policy), "async") as server:
        channel, recorder = _open(server.port)
        with channel:
            values = doubles_of_width(16, 10, seed=5)
            values[4] = doubles_of_width(1, 20, seed=8)[0]
            channel.call(_msg(values))
            # Leaf 4 narrows and keeps 10 bytes of slack ...
            narrow = values.copy()
            narrow[4] = doubles_of_width(1, 10, seed=9)[0]
            assert np.array_equal(channel.call(_msg(narrow)).result(), narrow)
            # ... which leaf 3 steals when it outgrows its field.
            wider = narrow.copy()
            wider[3] = doubles_of_width(1, 16, seed=6)[0]
            assert np.array_equal(channel.call(_msg(wider)).result(), wider)
            _status, headers, _body = recorder.responses[-1]
            assert headers["x-repro-delta-epoch"] == "2"
            (session,) = server.service.sessions.sessions()
            wire = session.responder.wire
            assert wire.fallbacks == {"steal": 1}
            assert wire.metric_samples()[
                "repro_delta_frames_total", "reply-fallback-steal"
            ] == 1
            again = wider.copy()
            again[5] = doubles_of_width(1, 10, seed=7)[0]
            assert np.array_equal(channel.call(_msg(again)).result(), again)
            assert [(f.epoch, f.seq) for f in recorder.frames()] == [(1, 1), (2, 1)]
            assert channel.channel_stats()["retries"] == 0
        kinds = server.service.response_stats.by_kind
        assert kinds[MatchKind.PARTIAL_STRUCTURAL] == 1


def test_more_reply_structures_than_mirrors_never_resyncs():
    """The encoder forgets baselines in the order the mirror store
    evicts them, so cycling through more reply shapes than
    ``max_delta_mirrors`` costs full replies, not resync retries."""
    lengths = range(8, 8 + DEFAULT_LIMITS.max_delta_mirrors + 2)
    with make_server(_service(), "async") as server:
        channel, recorder = _open(server.port)
        with channel:
            for _round in range(3):
                for n in lengths:
                    values = doubles_of_width(n, 14, seed=n)
                    assert np.array_equal(channel.call(_msg(values)).result(), values)
            assert channel.channel_stats()["retries"] == 0
            assert set(channel.replies.outcomes) <= {"reply-applied"}
            assert len(channel.replies.mirrors) == DEFAULT_LIMITS.max_delta_mirrors


def test_session_eviction_and_pressure_shed_reannounce():
    # One session slot: every call on one connection evicts the other's
    # session, responder templates and baselines included.
    with make_server(_service(max_sessions=1), "async") as server:
        one, rec_one = _open(server.port)
        two, rec_two = _open(server.port)
        with one, two:
            for values in _steps(16, 4):
                for channel in (one, two):
                    # Requests go out full so only the reply side is on
                    # the hook (a lost request mirror is the 409 path).
                    channel.client.store.clear()
                    assert np.array_equal(channel.call(_msg(values)).result(), values)
        for recorder in (rec_one, rec_two):
            assert not recorder.frames()
            assert all("x-repro-delta-template" in h for _s, h, _b in recorder.responses)
            assert recorder.reconnects == 0
        assert server.service.sessions.merged_counters()["evictions"] >= 7

    # A state budget below one session's footprint: the idle session is
    # shed after every request (tier 3 of the pressure ladder).
    limits = ResourceLimits(max_state_bytes=2048)
    with make_server(_service(limits=limits), "async") as server:
        channel, recorder = _open(server.port)
        with channel:
            for values in _steps(16, 4):
                channel.client.store.clear()
                assert np.array_equal(channel.call(_msg(values)).result(), values)
            assert set(channel.replies.outcomes) <= {"reply-applied"}
            assert channel.channel_stats()["retries"] == 0
        assert sum(server.service.accountant.sheds.values()) > 0


# ----------------------------------------------------------------------
# mirror mismatches: DeltaResyncError, one retry, the right value
# ----------------------------------------------------------------------
#: (reason, byte of the reply frame to flip, XOR mask).  Header fields
#: are outside the CRC, so one flipped byte reaches each semantic check.
CORRUPTIONS = [
    ("truncated", 28, 0x40),  # splice count 1 -> 65: directory overruns
    ("crc-mismatch", -1, 0xFF),  # last payload byte
    ("stale-epoch", 12, 0x02),
    ("sequence-gap", 16, 0x04),
    ("doc-too-large", 27, 0x01),  # doc_len + 2**56: past max_body_bytes
    ("doc-len-mismatch", 20, 0x01),
    ("unknown-template", 4, 0x80),
    ("bad-magic", 0, 0x20),
]


@pytest.mark.parametrize("front", FRONT_ENDS)
@pytest.mark.parametrize("reason,corrupt_at,mask", CORRUPTIONS)
def test_bad_reply_frame_costs_one_retry_never_a_wrong_value(
    front, reason, corrupt_at, mask
):
    script = {2: FaultSpec("corrupt-response", corrupt_at=corrupt_at, xor_mask=mask)}
    with make_server(_service(), front) as server:
        channel, recorder = _open(server.port, script=script)
        with channel:
            for i, values in enumerate(_steps(32, 5)):
                assert np.array_equal(channel.call(_msg(values)).result(), values)
                assert channel.last_send_report.retries == (1 if i == 2 else 0)
            assert channel.replies.outcomes == {
                "reply-applied": 3,
                f"reply-resync-{reason}": 1,
            }
            assert recorder.reconnects == 1
            # The retry was answered in full on the fresh connection,
            # and framing resumed from its announce.
            _status, headers, _body = recorder.responses[3]
            assert headers["x-repro-delta-epoch"] == "1"
            assert [f.seq for f in recorder.frames()[-2:]] == [1, 2]
        # Not the server's resync: it never saw a bad request frame.
        assert server.service.sessions.merged_counters()["delta_resyncs"] == 0


def test_reconnect_clears_the_mirror(monkeypatch):
    script = {2: FaultSpec("reset-before-recv")}
    cleared = []
    clear = DeltaSession.clear
    monkeypatch.setattr(
        DeltaSession, "clear", lambda self: (cleared.append(self), clear(self))[1]
    )
    with make_server(_service(), "async") as server:
        channel, recorder = _open(server.port, script=script)
        with channel:
            steps = _steps(32, 4)
            for values in steps[:2]:
                channel.call(_msg(values))
            assert len(channel.replies.mirrors) == 1
            assert np.array_equal(channel.call(_msg(steps[2])).result(), steps[2])
            assert cleared == [channel.replies]
            assert channel.last_send_report.retries == 1
            # The new connection's first reply is full, announcing anew.
            assert "x-repro-delta-template" in recorder.responses[-1][1]
            assert channel.replies.frames_applied == 1
            channel.call(_msg(steps[3]))
            assert channel.replies.frames_applied == 2


@pytest.mark.parametrize("front", FRONT_ENDS)
def test_pipelined_depth_8_keeps_frames_in_sequence(front):
    with make_server(_service(), front) as server:
        channel, recorder = _open(server.port)
        steps = _steps(64, 40)
        with channel:
            with PipelinedChannel(channel, depth=8) as pipe:
                futures = pipe.map([_msg(values) for values in steps])
                results = [f.result(timeout=30).response.result() for f in futures]
            assert pipe.failed == 0
            for got, values in zip(results, steps):
                assert np.array_equal(got, values)
            frames = recorder.frames()
            assert len(frames) == len(steps) - 1
            assert [f.seq for f in frames] == list(range(1, len(steps)))
            assert set(channel.replies.outcomes) == {"reply-applied"}


@pytest.mark.parametrize("front", FRONT_ENDS)
def test_pipelined_lost_reply_resyncs_every_structure(front):
    """A reply lost under pipelining takes the channel's one failure
    rule: the new connection starts from no baseline and no mirror, so
    another structure's content match goes out as full XML, not as a
    frame against a session that never saw its baseline."""
    a = doubles_of_width(32, 14, seed=5)
    b = doubles_of_width(48, 14, seed=6)
    with make_server(_service(), front) as server:
        # Sends: A, B, A again (its reply lost), B again.
        channel, _recorder = _open(
            server.port, script={2: FaultSpec("reset-before-recv")}
        )
        with channel, PipelinedChannel(channel, depth=1) as pipe:
            for values, op in ((a, "aaa"), (b, "bbb")):
                got = pipe.submit(_msg(values, op)).result(timeout=10)
                assert np.array_equal(got.response.result(), values)
            with pytest.raises(TransportError):
                pipe.submit(_msg(a, "aaa")).result(timeout=10)
            assert not channel.replies.entries
            got = pipe.submit(_msg(b, "bbb")).result(timeout=10)
            assert np.array_equal(got.response.result(), b)
            assert got.send_report.match_kind is MatchKind.CONTENT_MATCH
            assert not got.send_report.delta
            assert pipe.failed == 1
            stats = channel.channel_stats()
            assert stats["reconnects"] == 1
            assert stats["calls"] == 3
        assert server.service.sessions.merged_counters()["delta_resyncs"] == 0


# ----------------------------------------------------------------------
# observability and accounting
# ----------------------------------------------------------------------
def test_reply_counters_have_one_home_each():
    client_obs = Observability.metrics_only()
    service = _service()
    with make_server(service, "async") as server:
        channel, recorder = _open(server.port, obs=client_obs)
        with channel:
            for values in _steps(32, 4):
                channel.call(_msg(values))
            session = service.sessions.sessions()[0]
            components = session.state_components()
            frame_len = len(recorder.responses[-1][2])
            assert session.sink.is_frame and session.sink.last_bytes() == frame_len
            assert components["response"] == (
                session.responder.store.approx_bytes() + frame_len
            )
            saved = channel.replies.bytes_saved
            assert saved > 0
        # Read after close: the registry kept the retired counts.
        frames = client_obs.metrics.get("repro_delta_frames_total")
        assert frames.value(outcome="reply-applied") == 3
        assert frames.value(outcome="encoded") == 3  # the request direction
        events = client_obs.metrics.get("repro_skipscan_events_total")
        assert events.value(event="reply-compiled") == 1
        assert events.value(event="reply-hit-vector") + events.value(event="reply-hit") == 3
        assert events.value(event="compiled") == 0
        assert client_obs.metrics.get("repro_delta_bytes_saved_total").value() == (
            saved + channel.client.wire.bytes_saved
        )
        served = service.obs.metrics.get("repro_delta_frames_total")
        assert served.value(outcome="reply-encoded") == 3
        assert served.value(outcome="applied") == 3
        merged = service.sessions.merged_counters()
        assert service.obs.metrics.get("repro_delta_bytes_saved_total").value() == (
            merged["delta_bytes_saved"]
        )
        assert service.response_stats.delta_sends == 3


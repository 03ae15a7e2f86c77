"""Async event-loop server: state machine, vectored writes, parity.

Covers the C10K front end (``repro.server.async_server``) and its
building blocks:

* :class:`TimerWheel` — lazy-cancel deadline semantics under a frozen
  clock (never early, re-arm wins, cancel is final);
* :class:`IovecCursor` — partial-send resume across iovec boundaries,
  including pathological one-byte sends;
* end-to-end RPC across all four match levels, large multi-chunk echo
  responses, and HTTP pipelining order;
* accept-failure handling on *both* front ends: fd exhaustion
  (EMFILE) is backed off and counted, a per-connection failure
  (ECONNABORTED) is retried (the rejection taxonomy itself is pinned
  over both front ends in ``tests/test_http_core.py``);
* the open-connections gauge / per-state census and its
  ``merged_counters`` reconciliation;
* the oracle: byte-identical response bodies from the threaded and
  async servers over identical request sequences with delta,
  skip-scan, admission, and memory shedding all enabled.
"""

from __future__ import annotations

import errno
import socket
import time

import numpy as np
import pytest

from repro.buffers.iovec import IovecCursor
from repro.bench.workloads import SERVICE_NS
from repro.channel import RPCChannel
from repro.core.policy import DiffPolicy
from repro.errors import IncompleteHTTPError
from repro.hardening.limits import ResourceLimits
from repro.hardening.overload import AdmissionController, OverloadPolicy
from repro.obs import Observability
from repro.runtime.loadgen import (
    ECHO_OPERATION,
    MATCH_LEVELS,
    build_service,
    level_policy,
    message_sequence,
)
from repro.schema.composite import ArrayType
from repro.schema.registry import TypeRegistry
from repro.schema.types import DOUBLE
from repro.server import AsyncHTTPSoapServer, HTTPSoapServer, make_server
from repro.server.timerwheel import TimerWheel
from repro.soap.message import Parameter, SOAPMessage
from repro.transport.http import parse_http_response

# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------


def _channel(port: int, level: str = "content") -> RPCChannel:
    return RPCChannel(
        "127.0.0.1", port, registry=TypeRegistry(), policy=level_policy(level)
    )


def _echo_message(n: int, seed: int = 0) -> SOAPMessage:
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1e6, 1e6, n)
    return SOAPMessage(
        ECHO_OPERATION, SERVICE_NS, [Parameter("data", ArrayType(DOUBLE), values)]
    )


def _http_exchange(port: int, payload: bytes, timeout: float = 5.0):
    """One raw request → ``(status, headers, body)``."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(payload)
        buf = b""
        while True:
            data = sock.recv(1 << 16)
            if not data:
                break
            buf += data
            try:
                status, headers, body, _ = parse_http_response(buf)
                return status, headers, body
            except IncompleteHTTPError:
                continue
    status, headers, body, _ = parse_http_response(buf)
    return status, headers, body


def _wait_until(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


# ----------------------------------------------------------------------
# TimerWheel
# ----------------------------------------------------------------------
class TestTimerWheel:
    def _wheel(self):
        now = [100.0]
        wheel = TimerWheel(tick=0.1, clock=lambda: now[0])
        return wheel, now

    def test_fires_after_delay_never_early(self):
        wheel, now = self._wheel()
        wheel.arm("a", 0.5)
        now[0] = 100.49
        assert wheel.expire() == []
        now[0] = 100.61  # one tick of slack is allowed, early is not
        assert wheel.expire() == ["a"]
        assert len(wheel) == 0

    def test_cancel_prevents_firing(self):
        wheel, now = self._wheel()
        wheel.arm("a", 0.2)
        wheel.cancel("a")
        now[0] = 101.0
        assert wheel.expire() == []

    def test_rearm_moves_deadline(self):
        wheel, now = self._wheel()
        wheel.arm("a", 0.2)
        now[0] = 100.15
        wheel.arm("a", 0.5)  # progress: push the deadline out
        now[0] = 100.35  # past the original deadline
        assert wheel.expire() == []
        now[0] = 100.80
        assert wheel.expire() == ["a"]

    def test_many_keys_fire_in_one_sweep(self):
        wheel, now = self._wheel()
        for i in range(50):
            wheel.arm(i, 0.1 + (i % 5) * 0.1)
        now[0] = 101.0
        assert sorted(wheel.expire()) == list(range(50))

    def test_timeout_until_next_bounds_select(self):
        wheel, now = self._wheel()
        assert wheel.timeout_until_next(0.7) == 0.7  # nothing armed
        wheel.arm("a", 0.3)
        timeout = wheel.timeout_until_next(0.7)
        assert 0.0 <= timeout <= 0.5
        now[0] = 105.0
        assert wheel.timeout_until_next(0.7) == 0.0

    def test_rejects_bad_tick(self):
        with pytest.raises(ValueError):
            TimerWheel(tick=0.0)


# ----------------------------------------------------------------------
# IovecCursor
# ----------------------------------------------------------------------
class TestIovecCursor:
    def test_short_writes_resume_mid_view(self):
        views = [b"hello ", memoryview(b"vectored "), b"world"]
        cursor = IovecCursor(views)
        out = bytearray()

        def send_k(k):
            def send(batch):
                taken = 0
                for view in batch:
                    chunk = bytes(view)[: k - taken]
                    out.extend(chunk)
                    taken += len(chunk)
                    if taken >= k:
                        break
                return taken
            return send

        # 4 bytes per call lands mid-view and exactly on boundaries.
        cursor.drain(send_k(4))
        assert cursor.done
        assert bytes(out) == b"hello vectored world"
        assert cursor.sent == cursor.total == len(out)

    def test_one_byte_sends(self):
        payload = [bytes([i]) * (i + 1) for i in range(7)]
        cursor = IovecCursor(payload)
        out = bytearray()
        cursor.drain(lambda batch: (out.extend(bytes(batch[0])[:1]), 1)[1])
        assert bytes(out) == b"".join(payload)

    def test_batch_limit_respected(self):
        cursor = IovecCursor([b"x"] * 10)
        batch = cursor.next_batch(limit=3)
        assert len(batch) == 3
        cursor.advance(2)
        batch = cursor.next_batch(limit=3)
        assert bytes(batch[0]) == b"x"  # resumed at third view

    def test_would_block_pauses_drain(self):
        cursor = IovecCursor([b"abcdef"])
        calls = []

        def send(batch):
            calls.append(len(batch))
            return 2 if len(calls) < 3 else 0  # then would-block

        written = cursor.drain(send)
        assert written == 4
        assert not cursor.done
        # Resumes exactly where it stopped.
        assert bytes(cursor.next_batch()[0]) == b"ef"

    def test_skips_empty_views(self):
        cursor = IovecCursor([b"", b"ab", b"", memoryview(b"cd"), b""])
        assert cursor.total == 4
        sent = bytearray()
        cursor.drain(lambda batch: (sent.extend(bytes(batch[0])), len(batch[0]))[1])
        assert bytes(sent) == b"abcd"

    def test_negative_advance_rejected(self):
        cursor = IovecCursor([b"ab"])
        with pytest.raises(ValueError):
            cursor.advance(-1)


# ----------------------------------------------------------------------
# make_server switch
# ----------------------------------------------------------------------
class TestMakeServer:
    def test_modes(self):
        service = build_service()
        assert isinstance(make_server(service, "threaded"), HTTPSoapServer)
        assert isinstance(make_server(service, "async"), AsyncHTTPSoapServer)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown server mode"):
            make_server(build_service(), "forked")

    def test_threaded_rejects_async_options(self):
        with pytest.raises(ValueError, match="no extra options"):
            make_server(build_service(), "threaded", handler_threads=0)

    def test_async_validates_handler_threads(self):
        with pytest.raises(ValueError):
            AsyncHTTPSoapServer(build_service(), handler_threads=-1)


# ----------------------------------------------------------------------
# async end-to-end
# ----------------------------------------------------------------------
class TestAsyncEndToEnd:
    @pytest.mark.parametrize("level", MATCH_LEVELS)
    def test_all_match_levels_round_trip(self, level):
        with make_server(build_service(), server="async") as server:
            messages = message_sequence(level, 48, 6, seed=3)
            with _channel(server.port, level) as channel:
                for message in messages:
                    response = channel.call(message)
                    assert "return" in response.values
            report = channel.last_send_report
            assert report is not None
        if level == "first-time":
            # Every call grows the array: a fresh structure signature.
            assert report.match_kind.value in ("none", "first-time")
        else:
            assert report.match_kind.value == level

    def test_multi_chunk_echo_intact(self):
        # 12k doubles ≈ several 32 KiB serializer chunks, sent as
        # separate iovec entries: the bytes on the wire must decode to
        # the same values.
        service = build_service()
        with AsyncHTTPSoapServer(service) as server:
            message = _echo_message(12_000, seed=11)
            with _channel(server.port) as channel:
                response = channel.call(message)
        got = np.asarray(response.values["return"], dtype=float)
        want = np.asarray(message.params[0].value, dtype=float)
        assert got.shape == want.shape
        # Doubles took a text round trip through repr-style formatting.
        assert np.allclose(got, want, rtol=1e-12)

    def test_forced_short_writes_still_deliver(self, monkeypatch):
        # Cap every sendmsg at 173 bytes: a multi-chunk response is
        # forced through hundreds of mid-iovec resumes in the live
        # server and must still arrive intact.
        service = build_service()
        server = AsyncHTTPSoapServer(service)

        def tiny_send(conn, batch):
            head = memoryview(batch[0])[:173]
            try:
                return conn.sock.send(head)
            except (BlockingIOError, InterruptedError):
                return 0

        monkeypatch.setattr(server, "_send_batch", tiny_send)
        with server:
            message = _echo_message(4_000, seed=5)
            with _channel(server.port) as channel:
                response = channel.call(message)
        got = np.asarray(response.values["return"], dtype=float)
        assert np.allclose(got, np.asarray(message.params[0].value), rtol=1e-12)

    def test_pipelined_gets_answered_in_order(self):
        with make_server(build_service(), server="async") as server:
            request = b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=5.0
            ) as sock:
                sock.sendall(request * 3)  # pipelined
                buf = b""
                seen = 0
                while seen < 3:
                    data = sock.recv(1 << 16)
                    assert data, "server closed before all responses"
                    buf += data
                    while True:
                        try:
                            status, _, _, consumed = parse_http_response(buf)
                        except IncompleteHTTPError:
                            break
                        assert status == 200
                        buf = buf[consumed:]
                        seen += 1
        assert seen == 3

    def test_wsdl_answers_match_threaded(self):
        # The loadgen service has no WSDL definition attached, so both
        # front ends must answer the same clean 404.
        for mode in ("threaded", "async"):
            with make_server(build_service(), mode) as server:
                status, _, _ = _http_exchange(
                    server.port, b"GET /soap?wsdl HTTP/1.1\r\nHost: x\r\n\r\n"
                )
            assert status == 404, mode


# ----------------------------------------------------------------------
# accept() failures — both front ends
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["threaded", "async"])
class TestAcceptExhaustion:
    def test_emfile_is_survived_and_counted(self, mode, monkeypatch):
        service = build_service(obs=Observability.metrics_only())
        server = make_server(service, mode)
        original = server._accept_raw
        failures = [2]

        def flaky_accept():
            if failures[0] > 0:
                failures[0] -= 1
                raise OSError(errno.EMFILE, "Too many open files")
            return original()

        monkeypatch.setattr(server, "_accept_raw", flaky_accept)
        with server:
            # The accept loop eats both EMFILEs, backs off, and then
            # serves this call normally.
            with _channel(server.port) as channel:
                response = channel.call(message_sequence("content", 16, 1)[0])
                assert "return" in response.values
            assert server.accept_errors == 2
            merged = service.sessions.merged_counters()
            assert merged["accept_errors"] == 2
            # Counted under the 503 "turned away" series too.
            status, _, body = _http_exchange(
                server.port, b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"
            )
        assert status == 200
        text = body.decode()
        assert 'repro_accept_errors_total{errno="EMFILE"} 2' in text
        assert 'repro_http_rejects_total{status="503"} 2' in text

    def test_econnaborted_does_not_deafen_the_listener(self, mode, monkeypatch):
        # A peer that resets before accept(2) returns fails that one
        # accept, not the listener: the server must keep accepting.
        service = build_service()
        server = make_server(service, mode)
        original = server._accept_raw
        aborted = []

        def flaky_accept():
            if not aborted:
                aborted.append(True)
                raise OSError(errno.ECONNABORTED, "Software caused connection abort")
            return original()

        monkeypatch.setattr(server, "_accept_raw", flaky_accept)
        with server:
            with _channel(server.port) as channel:
                response = channel.call(message_sequence("content", 16, 1)[0])
                assert "return" in response.values
            assert aborted
            assert server.accept_errors == 0  # not resource exhaustion


# ----------------------------------------------------------------------
# gauges + census
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["threaded", "async"])
class TestFrontendCensus:
    def test_open_connections_gauge_tracks_lifecycle(self, mode):
        service = build_service(obs=Observability.metrics_only())
        with make_server(service, mode) as server:
            assert server.open_connections() == 0
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=5.0
            ):
                assert _wait_until(lambda: server.open_connections() == 1)
                merged = service.sessions.merged_counters()
                assert merged["open_connections"] == 1
                status, _, body = _http_exchange(
                    server.port, b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                assert status == 200
                # The idle connection plus the /metrics one itself.
                assert b"repro_http_open_connections 2" in body
            assert _wait_until(lambda: server.open_connections() == 0)
        # Detached on stop: merged_counters no longer reports the census.
        assert "open_connections" not in service.sessions.merged_counters()

    def test_census_reports_per_state_counts(self, mode):
        service = build_service(obs=Observability.metrics_only())
        with make_server(service, mode) as server:
            census = server.frontend_census()
            assert census["open_connections"] == 0
            assert census["accept_errors"] == 0
            if mode == "async":
                assert census["connections_reading"] == 0
                assert census["connections_handling"] == 0
                assert census["connections_writing"] == 0
                with socket.create_connection(
                    ("127.0.0.1", server.port), timeout=5.0
                ):
                    assert _wait_until(
                        lambda: server.frontend_census()["connections_reading"]
                        == 1
                    )


# ----------------------------------------------------------------------
# the oracle: threaded and async answer byte-identically
# ----------------------------------------------------------------------
class TestServerParityOracle:
    def _build(self):
        # Everything on: tight-ish state budget (sheds occur), delta +
        # skip-scan (service defaults), admission control.
        limits = ResourceLimits(max_state_bytes=512 * 1024)
        admission = AdmissionController(
            OverloadPolicy(max_concurrent_requests=8, max_queue_depth=8)
        )
        return build_service(limits=limits, admission=admission)

    @pytest.mark.parametrize("level", MATCH_LEVELS)
    def test_byte_identical_bodies_across_levels(self, level):
        bodies = {}
        for mode in ("threaded", "async"):
            with make_server(self._build(), mode) as server:
                collected = []
                messages = message_sequence(level, 40, 8, seed=17)
                with _channel(server.port, level) as channel:
                    for message in messages:
                        channel.call(message)
                        collected.append(channel.last_response_body)
            bodies[mode] = collected
        assert bodies["threaded"] == bodies["async"]
        assert all(body for body in bodies["async"])

    @pytest.mark.parametrize("level", MATCH_LEVELS)
    def test_byte_identical_reply_frames_across_levels(self, level):
        """An offering client sees the same reply stream from both
        drivers: the same announces on the same full bodies, then
        byte-identical RDF1 frames (bar the template id, which is a
        process-wide counter)."""
        from repro.core.policy import DeltaPolicy
        from tests.test_reply_delta import _open

        base = level_policy(level)
        policy = DiffPolicy(stuffing=base.stuffing, delta=DeltaPolicy(offer=True))
        streams = {}
        for mode in ("threaded", "async"):
            with make_server(self._build(), mode) as server:
                channel, recorder = _open(server.port, policy)
                with channel:
                    for message in message_sequence(level, 40, 8, seed=17):
                        echo = SOAPMessage(ECHO_OPERATION, SERVICE_NS, message.params)
                        channel.call(echo)
                        assert channel.last_send_report.retries == 0
            stream = []
            for status, headers, body in recorder.responses:
                framed = headers.get("x-repro-delta-frame") == "1"
                if framed:
                    body = body[:4] + body[12:]  # mask the template id
                stream.append(
                    (
                        status,
                        headers["content-type"],
                        framed,
                        headers.get("x-repro-delta-epoch"),
                        body,
                    )
                )
            streams[mode] = stream
        assert streams["threaded"] == streams["async"]
        framed = [entry[2] for entry in streams["async"]]
        if level == "first-time":
            assert not any(framed)
        else:
            # A partial match frames too: its widenings are insertions.
            assert framed == [False] + [True] * 7

    def test_byte_identical_multi_chunk_echo(self):
        bodies = {}
        for mode in ("threaded", "async"):
            with make_server(self._build(), mode) as server:
                with _channel(server.port) as channel:
                    channel.call(_echo_message(6_000, seed=23))
                    bodies[mode] = channel.last_response_body
        assert bodies["threaded"] == bodies["async"]
        assert len(bodies["async"]) > 64 * 1024  # genuinely multi-chunk


# ----------------------------------------------------------------------
# connection soak driver (scaled down for CI; the full 2k+ run is
# archived in BENCH_async_server.json and pinned by tests/test_bench.py)
# ----------------------------------------------------------------------
class TestConnectionSoak:
    def test_soak_holds_connections_and_serves_all(self):
        from repro.runtime.soak import build_request_bytes, run_connection_soak

        limits = ResourceLimits(max_concurrent_connections=256)
        service = build_service(limits=limits, max_sessions=256)
        with make_server(service, "async", handler_threads=0) as server:
            result = run_connection_soak(
                "127.0.0.1",
                server.port,
                server_label="async",
                connections=64,
                window=8,
                rounds=2,
                warmup=1,
                request=build_request_bytes(n=16),
            )
        assert result.connect_errors == 0
        assert result.errors == 0
        assert result.calls == 64 * 2  # timed rounds only
        row = result.to_row()
        assert row["server"] == "async"
        assert row["warmup"] == 1
        assert row["calls_per_sec"] > 0
        assert row["p99_ms"] >= row["p50_ms"] > 0

    def test_expand_operation_amplifies_response(self):
        from repro.runtime.loadgen import EXPAND_OPERATION, EXPAND_REPS
        from repro.runtime.soak import _exchange, build_request_bytes

        service = build_service()
        with make_server(service, "async", handler_threads=0) as server:
            request = build_request_bytes(n=4, operation=EXPAND_OPERATION)
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=5.0
            ) as sock:
                sock.settimeout(5.0)
                assert _exchange(sock, request) == 200
                # Steady state: the second call is a content-match
                # resend of the same 4 * EXPAND_REPS-double response.
                assert _exchange(sock, request) == 200
        assert EXPAND_REPS * 4 == 1024

"""The sans-IO HTTP core, then the same taxonomy over both drivers.

Two layers of the same contract:

* **socket-free** — :class:`HttpConnection` (bytes in → request /
  reject / need-more) and :class:`HttpFrontEnd` (heads, GET routes,
  500 boundary, accept-error classifier) driven with plain bytes;
  every framing bound is crossed by one unit, at it and past it;
* **live** — the rejection taxonomy observed through real sockets on
  the threaded and the async driver alike (``SERVER_MODES``), counted
  in ``repro_http_rejects_total``.
"""

from __future__ import annotations

import errno
import random
import socket
import threading
import time

import numpy as np
import pytest

from repro.channel import RPCChannel
from repro.chaos.faults import inject_slowloris
from repro.core.client import BSoapClient
from repro.errors import HTTPStatusError
from repro.hardening import DEFAULT_LIMITS, ResourceLimits
from repro.hardening.fuzz import build_fuzz_service, raw_exchange
from repro.hardening.overload import AdmissionController, OverloadPolicy
from repro.obs import NULL_OBS
from repro.runtime.loadgen import build_service, level_policy, message_sequence
from repro.schema.composite import ArrayType
from repro.schema.registry import TypeRegistry
from repro.schema.types import DOUBLE, INT
from repro.server import SERVER_MODES, Operation, SOAPService, make_server
from repro.server.http_core import (
    HttpConnection,
    HttpFrontEnd,
    Reject,
    reject_head,
    response_head,
)
from repro.soap.message import Parameter, SOAPMessage
from repro.transport.http import HTTPRequest, parse_http_response
from repro.transport.loopback import CollectSink

GET = b"GET /soap HTTP/1.1\r\nHost: x\r\n\r\n"
GET_METRICS = b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"


def post(body: bytes) -> bytes:
    return b"POST /soap HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body) + body


def doubles_wire(values) -> bytes:
    """A serialized ``putDoubles`` request the fuzz service dispatches."""
    sink = CollectSink()
    data = Parameter("data", ArrayType(DOUBLE), np.asarray(values, dtype=float))
    BSoapClient(sink).send(SOAPMessage("putDoubles", "urn:golden", [data]))
    return sink.last


def header_block(head_len: int) -> bytes:
    """A GET whose header block (before the blank line) is *head_len* bytes."""
    stem = b"GET / HTTP/1.1\r\nX-Pad: "
    return stem + b"p" * (head_len - len(stem)) + b"\r\n\r\n"


def events(conn: HttpConnection):
    out = []
    while (event := conn.next_event()) is not None:
        out.append(event)
    return out


# ----------------------------------------------------------------------
# per-connection half: bytes in → events
# ----------------------------------------------------------------------
class TestHttpConnection:
    LIMITS = ResourceLimits(
        max_header_bytes=128, max_body_bytes=64, max_requests_per_connection=2
    )

    def conn(self, **overrides) -> HttpConnection:
        return HttpConnection(self.LIMITS.replace(**overrides))

    def test_complete_request_is_framed(self):
        conn = self.conn()
        conn.receive(post(b"hello"))
        [request] = events(conn)
        assert isinstance(request, HTTPRequest)
        assert (request.method, request.path, request.body) == (
            "POST", "/soap", b"hello"
        )
        assert conn.served == 1 and not conn.closed

    def test_byte_at_a_time_needs_more_until_complete(self):
        conn = self.conn()
        raw = post(b"abc")
        for i in range(len(raw) - 1):
            conn.receive(raw[i : i + 1])
            assert conn.next_event() is None
        conn.receive(raw[-1:])
        assert conn.next_event().body == b"abc"

    def test_header_bytes_at_and_past_bound(self):
        conn = self.conn()
        conn.receive(header_block(128))
        assert isinstance(conn.next_event(), HTTPRequest)
        conn = self.conn()
        conn.receive(header_block(129))
        assert conn.next_event() == Reject(413)
        assert conn.closed

    def test_unterminated_header_at_and_past_bound(self):
        conn = self.conn()
        conn.receive(b"GET / HTTP/1.1\r\nX: " + b"x" * (128 - 19))
        assert conn.next_event() is None  # exactly max_header_bytes: wait
        conn.receive(b"x")
        assert conn.next_event() == Reject(413)

    def test_declared_body_at_and_past_bound(self):
        conn = self.conn()
        conn.receive(post(b"b" * 64))
        assert len(conn.next_event().body) == 64
        conn = self.conn()
        # Rejected on the declaration alone, before any body arrives.
        conn.receive(b"POST / HTTP/1.1\r\nContent-Length: 65\r\n\r\n")
        assert conn.next_event() == Reject(413)

    def test_accumulated_chunked_body_at_and_past_bound(self):
        head = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        chunk = b"20\r\n" + b"c" * 32 + b"\r\n"
        conn = self.conn()
        conn.receive(head + chunk * 2 + b"0\r\n\r\n")
        assert len(conn.next_event().body) == 64
        conn = self.conn()
        conn.receive(head + chunk * 2 + b"1\r\nc\r\n0\r\n\r\n")
        assert conn.next_event() == Reject(413)

    def test_recv_cap_at_and_past_bound(self):
        # A legal request plus a legal partial follower: only the total
        # buffered size can trip — the recv_cap backstop, not the parser.
        first = post(b"a" * 64)
        follower = b"GET / HTTP/1.1\r\nX: "
        room = self.LIMITS.recv_cap - len(first) - len(follower)
        conn = self.conn()
        conn.receive(first + follower + b"x" * room)
        assert isinstance(conn.next_event(), HTTPRequest)
        assert conn.next_event() is None
        conn = self.conn()
        conn.receive(first + follower + b"x" * (room + 1))
        assert conn.next_event() == Reject(413)
        assert conn.served == 0

    def test_request_cap_at_and_past_bound(self):
        conn = self.conn()
        conn.receive(GET * 3)
        first, second, third = events(conn)
        assert isinstance(first, HTTPRequest) and isinstance(second, HTTPRequest)
        assert third == Reject(503)
        assert conn.served == 2 and conn.closed

    def test_unparseable_framing_is_400(self):
        conn = self.conn()
        conn.receive(b"NONSENSE\r\n\r\n")
        assert conn.next_event() == Reject(400)

    def test_eof_with_partial_request_is_400(self):
        conn = self.conn()
        conn.receive(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
        assert conn.next_event() is None
        assert conn.eof() == Reject(400)
        assert conn.closed

    def test_eof_between_requests_is_clean(self):
        conn = self.conn()
        conn.receive(GET)
        assert len(events(conn)) == 1
        assert conn.eof() is None
        assert conn.closed

    def test_pipelined_followers_wait_their_turn(self):
        conn = self.conn(max_requests_per_connection=10)
        second = post(b"two")
        conn.receive(post(b"one") + second[:-1])
        assert conn.next_event().body == b"one"
        assert conn.next_event() is None  # follower still one byte short
        conn.receive(second[-1:] + post(b"three"))
        assert [e.body for e in events(conn)] == [b"two", b"three"]

    def test_nothing_follows_a_reject(self):
        conn = self.conn()
        conn.receive(b"NONSENSE\r\n\r\n" + GET)
        assert events(conn) == [Reject(400)]
        conn.receive(GET)
        assert conn.next_event() is None
        assert conn.eof() is None


# ----------------------------------------------------------------------
# per-server half: heads, routes, 500 boundary, accept classifier
# ----------------------------------------------------------------------
def _request(raw: bytes) -> HTTPRequest:
    conn = HttpConnection(DEFAULT_LIMITS)
    conn.receive(raw)
    return conn.next_event()


def _rejects(service, status: int) -> float:
    counter = service.obs.metrics.get("repro_http_rejects_total")
    return 0.0 if counter is None else counter.value(status=str(status))


class CrashingService(SOAPService):
    """A service whose request pipeline itself has a bug."""

    crash = True

    def handle_wire_vectored(self, body, headers, session_id=None):
        if self.crash:
            raise RuntimeError("pipeline bug")
        return super().handle_wire_vectored(body, headers, session_id)


def crashing_service() -> CrashingService:
    service = CrashingService("urn:golden", TypeRegistry())
    service.register(
        Operation("putDoubles", len, result_type=INT, result_name="count")
    )
    return service


class TestHeads:
    def test_reject_head_bytes(self):
        assert reject_head(400) == (
            b"HTTP/1.1 400 Bad Request\r\n"
            b"Content-Length: 0\r\nConnection: close\r\n\r\n"
        )
        assert reject_head(503, retry_after=7) == (
            b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 7\r\n"
            b"Content-Length: 0\r\nConnection: close\r\n\r\n"
        )
        for status, phrase in [
            (408, b"Request Timeout"),
            (413, b"Payload Too Large"),
            (500, b"Internal Server Error"),
        ]:
            assert reject_head(status).startswith(
                b"HTTP/1.1 %d %s\r\n" % (status, phrase)
            )

    def test_response_head_bytes(self):
        assert response_head(
            200, 'text/xml; charset="utf-8"', 5, ["X-Repro-Delta: 1"]
        ) == (
            b'HTTP/1.1 200 OK\r\nContent-Type: text/xml; charset="utf-8"\r\n'
            b"X-Repro-Delta: 1\r\nContent-Length: 5\r\n\r\n"
        )
        assert response_head(409, "text/xml", 0).startswith(
            b"HTTP/1.1 409 Conflict\r\n"
        )


class TestHttpFrontEnd:
    def test_reject_counts_and_hints(self):
        service = build_fuzz_service()
        front = HttpFrontEnd(service)
        assert front.reject(413) == reject_head(413)
        assert front.reject(503) == reject_head(503, retry_after=1)
        assert _rejects(service, 413) == 1 and _rejects(service, 503) == 1

    def test_503_hint_follows_admission_policy(self):
        admission = AdmissionController(OverloadPolicy(retry_after_min=4))
        front = HttpFrontEnd(build_service(admission=admission))
        assert front.reject(503) == reject_head(503, retry_after=4)

    def test_metrics_registered_once_per_service(self):
        service = build_fuzz_service()
        HttpFrontEnd(service).reject(400)
        HttpFrontEnd(service).reject(400)
        assert _rejects(service, 400) == 2

    def test_route_leaves_posts_to_the_service(self):
        front = HttpFrontEnd(build_fuzz_service())
        assert front.route(_request(post(b"<x/>"))) is None
        assert front.route(_request(GET)) is None

    def test_metrics_route(self):
        service = build_fuzz_service()
        front = HttpFrontEnd(service)
        front.reject(400)
        status, headers, body, _ = parse_http_response(
            front.route(_request(GET_METRICS))
        )
        assert status == 200
        assert headers["content-type"].startswith("text/plain; version=0.0.4")
        assert b'repro_http_rejects_total{status="400"} 1' in body

    def test_metrics_route_404_without_registry(self):
        front = HttpFrontEnd(build_fuzz_service(obs=NULL_OBS))
        assert front.route(_request(GET_METRICS)).startswith(b"HTTP/1.1 404 ")

    def test_wsdl_route_404_without_definition(self):
        front = HttpFrontEnd(build_fuzz_service())
        answer = front.route(_request(b"GET /soap?wsdl HTTP/1.1\r\n\r\n"))
        assert answer.startswith(b"HTTP/1.1 404 ")

    def test_handle_frames_head_plus_views(self):
        service = build_fuzz_service()
        views, close = HttpFrontEnd(service).handle(
            _request(post(doubles_wire([1.0, 2.0]))), "conn-1"
        )
        assert not close
        status, headers, body, consumed = parse_http_response(
            b"".join(bytes(v) for v in views)
        )
        assert status == 200
        assert headers["content-type"] == 'text/xml; charset="utf-8"'
        assert int(headers["content-length"]) == len(body) > 0
        assert consumed == sum(len(v) for v in views)

    def test_handle_answers_pipeline_crash_with_counted_500(self):
        service = crashing_service()
        views, close = HttpFrontEnd(service).handle(
            _request(post(doubles_wire([1.0]))), "conn-1"
        )
        assert close
        assert views == [reject_head(500)]
        assert _rejects(service, 500) == 1

    def test_accept_error_classifier(self):
        service = build_fuzz_service()
        front = HttpFrontEnd(service)
        exhausted = OSError(errno.EMFILE, "Too many open files")
        aborted = OSError(errno.ECONNABORTED, "aborted")
        assert front.on_accept_error(exhausted, True) == "backoff"
        assert front.accept_errors == 1 and _rejects(service, 503) == 1
        assert front.on_accept_error(aborted, True) == "retry"
        assert front.on_accept_error(aborted, False) == "stop"
        assert front.on_accept_error(exhausted, False) == "stop"
        assert front.accept_errors == 1
        assert front.census(3) == {"open_connections": 3, "accept_errors": 1}


# ----------------------------------------------------------------------
# the taxonomy over live sockets, both drivers
# ----------------------------------------------------------------------
def exchange(port: int, raw: bytes, timeout: float = 5.0):
    """(status, payload) for one half-closed exchange read to EOF."""
    disposition, payload = raw_exchange("127.0.0.1", port, raw, timeout)
    assert disposition == "closed", "server hung"
    status = int(payload.split(None, 2)[1]) if payload.startswith(b"HTTP/") else None
    return status, payload


def split_responses(payload: bytes):
    out = []
    while payload:
        status, headers, _body, consumed = parse_http_response(payload)
        out.append((status, headers))
        payload = payload[consumed:]
    return out


def read_to_eof(sock: socket.socket) -> bytes:
    chunks = []
    while True:
        try:
            data = sock.recv(65536)
        except OSError:
            break
        if not data:
            break
        chunks.append(data)
    return b"".join(chunks)


def wait_until(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and not predicate():
        time.sleep(0.01)
    return predicate()


@pytest.mark.parametrize("mode", SERVER_MODES)
class TestFrontEndTaxonomy:
    def _server(self, mode, **overrides):
        service = build_fuzz_service(limits=DEFAULT_LIMITS.replace(**overrides))
        return service, make_server(service, mode)

    def test_oversized_content_length_gets_413(self, mode):
        service, server = self._server(mode, max_body_bytes=1024)
        with server:
            raw = b"POST / HTTP/1.1\r\nContent-Length: 1025\r\n\r\n" + b"x" * 64
            status, _ = exchange(server.port, raw)
            assert status == 413
        assert _rejects(service, 413) == 1

    def test_at_limit_content_length_is_served(self, mode):
        wire = doubles_wire([1.0, 2.0])
        service, server = self._server(mode, max_body_bytes=len(wire))
        with server:
            status, _ = exchange(server.port, post(wire))
            assert status == 200

    def test_unparseable_framing_gets_400(self, mode):
        service, server = self._server(mode)
        with server:
            status, _ = exchange(server.port, b"NONSENSE\r\n\r\n")
            assert status == 400
        assert _rejects(service, 400) == 1

    def test_eof_mid_request_gets_400(self, mode):
        service, server = self._server(mode)
        with server:
            # Declares 100 body bytes, sends 3, then half-closes.
            raw = b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\nabc"
            status, _ = exchange(server.port, raw)
            assert status == 400
        assert _rejects(service, 400) == 1

    def test_read_deadline_gets_408(self, mode):
        service, server = self._server(mode, read_deadline=0.3)
        with server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
                sock.settimeout(5.0)
                sock.sendall(b"POST / HTTP/1.1\r\n")  # never completes
                start = time.monotonic()
                payload = read_to_eof(sock)
                elapsed = time.monotonic() - start
            assert payload.startswith(b"HTTP/1.1 408"), payload[:40]
            assert elapsed < 4.0
        assert _rejects(service, 408) == 1

    def test_slowloris_drip_still_gets_408(self, mode):
        # A byte drip is not request-level progress: the deadline
        # does not re-arm.
        service, server = self._server(mode, read_deadline=0.6)
        with server:
            started = time.monotonic()
            status = inject_slowloris(
                "127.0.0.1", server.port, read_deadline=0.6, rng=random.Random(2)
            )
            elapsed = time.monotonic() - started
        assert status == 408
        assert elapsed < 3.0  # resolved near the deadline, not hung

    def test_request_cap_closes_connection_with_503(self, mode):
        # Served and routed requests count alike toward the cap.
        wire = doubles_wire([1.0])
        service, server = self._server(mode, max_requests_per_connection=2)
        with server:
            raw = post(wire) + GET_METRICS + post(wire)
            _status, payload = exchange(server.port, raw)
            answers = split_responses(payload)
            assert [status for status, _ in answers] == [200, 200, 503]
            assert "retry-after" in answers[-1][1]
        assert _rejects(service, 503) == 1

    def test_deep_pipelining_is_answered_in_full(self, mode):
        # Pipelining depth is the peer's choice: answering must not
        # recurse per follower (500 deep once killed the event loop).
        service, server = self._server(mode)
        with server:
            _status, payload = exchange(
                server.port, b"GET /soap?wsdl HTTP/1.1\r\n\r\n" * 500
            )
            assert [status for status, _ in split_responses(payload)] == [404] * 500
            status, _ = exchange(server.port, GET_METRICS)  # still serving
            assert status == 200

    def test_connection_cap_rejects_extra_connection(self, mode):
        service, server = self._server(mode, max_concurrent_connections=2)
        with server:
            keep = [
                socket.create_connection(("127.0.0.1", server.port), timeout=5.0)
                for _ in range(2)
            ]
            try:
                assert wait_until(lambda: server.open_connections() >= 2)
                with socket.create_connection(
                    ("127.0.0.1", server.port), timeout=5.0
                ) as extra:
                    extra.settimeout(5.0)
                    [(status, headers)] = split_responses(read_to_eof(extra))
            finally:
                for sock in keep:
                    sock.close()
        assert status == 503
        assert "retry-after" in headers
        assert _rejects(service, 503) == 1

    def test_rejections_visible_in_metrics_endpoint(self, mode):
        service, server = self._server(mode)
        with server:
            exchange(server.port, b"NONSENSE\r\n\r\n")
            status, payload = exchange(
                server.port, b"GET /metrics HTTP/1.1\r\nContent-Length: 0\r\n\r\n"
            )
            assert status == 200
            assert b'repro_http_rejects_total{status="400"} 1' in payload

    def test_admission_503_reaches_clients(self, mode):
        admission = AdmissionController(
            OverloadPolicy(
                max_concurrent_requests=1, max_queue_depth=0, queue_timeout=0.01
            )
        )
        service = build_service(delay_ms=120.0, admission=admission)
        with make_server(service, mode) as server:
            statuses = []
            lock = threading.Lock()

            def one_call(seed):
                try:
                    with RPCChannel(
                        "127.0.0.1",
                        server.port,
                        registry=TypeRegistry(),
                        policy=level_policy("content"),
                    ) as channel:
                        channel.retry.max_attempts = 1
                        channel.call(message_sequence("content", 16, 1, seed)[0])
                    outcome = 200
                except HTTPStatusError as exc:
                    outcome = exc.status
                except Exception:  # noqa: BLE001 - any other failure kind
                    outcome = -1
                with lock:
                    statuses.append(outcome)

            threads = [
                threading.Thread(target=one_call, args=(i,)) for i in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in threads)
        assert 200 in statuses  # someone won admission
        assert 503 in statuses  # someone was shed at the gate
        assert -1 not in statuses

    def test_pipeline_crash_answers_500_and_closes(self, mode):
        # Fault-not-crash: a bug *in the request pipeline* still owes
        # the peer an answer, and must not take the server with it.
        service = crashing_service()
        request = post(doubles_wire([1.0]))
        with make_server(service, mode) as server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
                sock.settimeout(5.0)
                sock.sendall(request)  # no half-close: the server must hang up
                [(status, headers)] = split_responses(read_to_eof(sock))
            assert status == 500
            assert headers["connection"] == "close"
            assert headers["content-length"] == "0"
            service.crash = False
            status, _ = exchange(server.port, request)
            assert status == 200
        assert _rejects(service, 500) == 1

"""Unit tests for sinks, TCP, HTTP framing, dummy server, timing."""

import socket
import threading
import time

import pytest

from repro.bench.runner import TransportRig

from repro.errors import HTTPFramingError, TransportError
from repro.transport.dummy_server import DummyServer
from repro.transport.http import (
    HTTPTransport,
    decode_chunked,
    parse_http_request,
    parse_http_response,
)
from repro.transport.loopback import CollectSink, MemcpySink, NullSink
from repro.transport.tcp import PAPER_SOCKET_OPTIONS, TCPTransport
from repro.transport.timing import SendTimer


class TestSinks:
    def test_null_counts(self):
        sink = NullSink()
        assert sink.send_message([b"abc", b"de"]) == 5
        assert sink.messages == 1 and sink.bytes_total == 5

    def test_memcpy_keeps_last(self):
        sink = MemcpySink(initial_capacity=4)
        sink.send_message([b"hello ", b"world"])
        assert sink.last_message() == b"hello world"
        sink.send_message([b"x"])
        assert sink.last_message() == b"x"
        assert sink.bytes_total == 12

    def test_memcpy_grows(self):
        sink = MemcpySink(initial_capacity=2)
        sink.send_message([b"a" * 1000])
        assert sink.last_size == 1000

    def test_collect(self):
        sink = CollectSink()
        sink.send_message([b"a", b"b"])
        sink.send_message([b"c"])
        assert sink.messages == [b"ab", b"c"]
        assert sink.last == b"c"

    def test_generator_consumed(self):
        sink = CollectSink()

        def gen():
            yield b"1"
            yield b"2"

        assert sink.send_message(gen()) == 2


class TestSendTimer:
    def test_context_manager(self):
        timer = SendTimer()
        with timer:
            time.sleep(0.001)
        assert timer.count == 1
        assert timer.mean_ms >= 1.0
        assert timer.min_ms <= timer.max_ms

    def test_time_call(self):
        timer = SendTimer()
        assert timer.time_call(lambda: 42) == 42
        assert timer.count == 1

    def test_reset(self):
        timer = SendTimer()
        timer.time_call(lambda: None)
        timer.reset()
        assert timer.count == 0 and timer.mean_ms == 0.0


class TestHTTPFraming:
    def test_content_length_round_trip(self):
        sink = CollectSink()
        http = HTTPTransport(sink, mode="content-length", path="/svc")
        http.send_message([b"<a>", b"1</a>"], total_bytes=8)
        request, consumed = parse_http_request(sink.last)
        assert request.method == "POST" and request.path == "/svc"
        assert request.body == b"<a>1</a>"
        assert consumed == len(sink.last)
        assert request.headers["content-length"] == "8"

    def test_content_length_computed_when_missing(self):
        sink = CollectSink()
        http = HTTPTransport(sink, mode="content-length")
        http.send_message([b"abc"])
        request, _ = parse_http_request(sink.last)
        assert request.body == b"abc"

    def test_chunked_round_trip(self):
        sink = CollectSink()
        http = HTTPTransport(sink, mode="chunked")
        http.send_message([b"<a>", b"", b"1</a>"])
        request, consumed = parse_http_request(sink.last)
        assert request.body == b"<a>1</a>"
        assert request.headers["transfer-encoding"] == "chunked"
        assert consumed == len(sink.last)

    def test_chunked_streams_generators(self):
        sink = CollectSink()
        http = HTTPTransport(sink, mode="chunked")

        def gen():
            yield b"part1"
            yield b"part2"

        http.send_message(gen())
        request, _ = parse_http_request(sink.last)
        assert request.body == b"part1part2"

    def test_bad_mode(self):
        with pytest.raises(HTTPFramingError):
            HTTPTransport(CollectSink(), mode="quic")

    def test_length_mismatch_detected(self):
        sink = CollectSink()
        http = HTTPTransport(sink, mode="content-length")
        with pytest.raises(HTTPFramingError):
            http.send_message([b"abc"], total_bytes=99)

    def test_decode_chunked_errors(self):
        with pytest.raises(HTTPFramingError):
            decode_chunked(b"zz\r\nxx\r\n")
        with pytest.raises(HTTPFramingError):
            decode_chunked(b"5\r\nab")

    def test_parse_request_incomplete(self):
        with pytest.raises(HTTPFramingError):
            parse_http_request(b"POST / HTTP/1.1\r\nHost: x")

    def test_parse_response(self):
        raw = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabc"
        status, headers, body, consumed = parse_http_response(raw)
        assert status == 200 and body == b"abc" and consumed == len(raw)

    def test_parse_response_truncated(self):
        with pytest.raises(HTTPFramingError):
            parse_http_response(b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nabc")


class TestTCPAndDummyServer:
    def test_drain_and_count(self):
        with DummyServer() as server:
            tcp = TCPTransport("127.0.0.1", server.port)
            payload = [b"x" * 10000, b"y" * 5000]
            assert tcp.send_message(payload) == 15000
            tcp.close()
            deadline = time.time() + 3
            while server.bytes_drained < 15000 and time.time() < deadline:
                time.sleep(0.02)
            assert server.bytes_drained == 15000
            assert server.connections == 1

    def test_gather_vs_sendall_same_bytes(self):
        with DummyServer() as server:
            for gather in (True, False):
                tcp = TCPTransport("127.0.0.1", server.port, gather=gather)
                sent = tcp.send_message([b"abc", b"defg"])
                assert sent == 7
                tcp.close()

    def test_many_segments_batched(self):
        with DummyServer() as server:
            tcp = TCPTransport("127.0.0.1", server.port)
            views = [b"ab"] * 3000  # exceeds IOV_MAX
            assert tcp.send_message(views) == 6000
            tcp.close()

    def test_connect_failure(self):
        with pytest.raises(TransportError):
            TCPTransport("127.0.0.1", 1, connect_timeout=0.2)

    def test_respond_mode(self):
        with DummyServer(respond=True) as server:
            tcp = TCPTransport("127.0.0.1", server.port)
            http = HTTPTransport(tcp, mode="content-length")
            http.send_message([b"<a/>"])
            status, _headers, body = tcp.recv_http_response()
            assert status == 200 and body == b""
            tcp.close()

    def test_paper_socket_options_present(self):
        levels = {(lvl, opt) for lvl, opt, _ in PAPER_SOCKET_OPTIONS}
        assert (socket.IPPROTO_TCP, socket.TCP_NODELAY) in levels
        assert (socket.SOL_SOCKET, socket.SO_SNDBUF) in levels


class _CountingSocket:
    """Stands in for a transport's socket: records each ``sendmsg``."""

    def __init__(self, accept_at_most=None):
        self.batches = []
        self.wire = bytearray()
        self.accept_at_most = accept_at_most

    def sendmsg(self, batch):
        data = b"".join(bytes(view) for view in batch)
        if self.accept_at_most is not None:
            data = data[: self.accept_at_most]
        self.batches.append(len(batch))
        self.wire += data
        return len(data)

    def close(self):
        pass


def _with_socket(server, sock) -> TCPTransport:
    tcp = TCPTransport("127.0.0.1", server.port)
    tcp.close()
    tcp._sock = sock
    return tcp


class TestGatherSends:
    def test_lazy_chunked_stream_flushes_once_per_payload_view(self):
        # k payload views cost k + 1 sendmsg calls, not 3k + 2: framing
        # bytes ride with the view they frame.
        segments = [bytearray(b"a" * 10), bytearray(b"b" * 20), bytearray(b"c" * 5)]
        with DummyServer() as server:
            eager, lazy = _CountingSocket(), _CountingSocket()
            views = [memoryview(segment) for segment in segments]
            reference = CollectSink()
            HTTPTransport(reference, mode="chunked").send_message(views)
            HTTPTransport(_with_socket(server, lazy), mode="chunked").send_message(
                iter(views)
            )
            _with_socket(server, eager).send_message(list(views))
        assert bytes(lazy.wire) == reference.last
        # head+size+view, crlf+size+view, crlf+size+view, crlf+terminator
        assert lazy.batches == [3, 3, 3, 2]
        assert eager.batches == [3]

    def test_short_writes_resume_and_report_bytes_sent(self):
        with DummyServer() as server:
            sock = _CountingSocket(accept_at_most=7)
            tcp = _with_socket(server, sock)
            payload = [b"0123456789", memoryview(b"abcdefghij"), b"", b"XYZ"]
            assert tcp.send_message(payload) == 23
        assert bytes(sock.wire) == b"0123456789abcdefghijXYZ"
        assert len(sock.batches) == 4  # 7 + 7 + 7 + 2


def _sndbuf(sock: socket.socket) -> int:
    return sock.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)


class TestSocketProfiles:
    def test_runtime_transport_leaves_buffers_to_the_kernel(self):
        with DummyServer() as server:
            tcp = TCPTransport("127.0.0.1", server.port)
            plain = socket.create_connection(("127.0.0.1", server.port))
            try:
                assert _sndbuf(tcp._sock) == _sndbuf(plain)
                assert tcp._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
                assert tcp._sock.getsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE)
            finally:
                plain.close()
                tcp.close()

    def test_paper_rig_keeps_the_papers_buffers(self):
        clamped = socket.socket()
        clamped.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 32768)
        try:
            with TransportRig("tcp") as tcp:
                assert _sndbuf(tcp._sock) == _sndbuf(clamped)
                assert tcp._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        finally:
            clamped.close()

    def test_mid_size_frame_does_not_wait_on_delayed_acks(self):
        """176 KB to a peer with kernel-sized buffers goes out at once.

        Under the paper's 32 KiB ``SO_SNDBUF`` each sub-segment send
        waited ~40 ms for the receiver's delayed ACK (~86 ms per
        frame).  The peer is a plain draining socket, not
        :class:`DummyServer`: the dummy server's accepted sockets carry
        the paper's ``SO_RCVBUF``, whose window updates mask the stall.
        """
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def drain():
            conn, _ = listener.accept()
            with conn:
                while conn.recv(1 << 16):
                    pass

        thread = threading.Thread(target=drain, daemon=True)
        thread.start()
        frame = [b"head", memoryview(bytes(176 * 1024))]
        samples = []
        try:
            with TCPTransport("127.0.0.1", listener.getsockname()[1]) as tcp:
                for _ in range(3):  # leave the connection's quick-ACK phase
                    tcp.send_message(frame)
                    time.sleep(0.002)
                for _ in range(5):
                    started = time.perf_counter()
                    tcp.send_message(frame)
                    samples.append(time.perf_counter() - started)
                    time.sleep(0.002)
        finally:
            thread.join(timeout=5.0)
            listener.close()
        assert min(samples) < 0.020, samples

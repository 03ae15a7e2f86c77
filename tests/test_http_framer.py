"""The incremental HTTP framer: split-invariance and linear time.

``tests/test_http_core.py`` pins the framing taxonomy one bound at a
time; this file pins the two properties that make the framer
*incremental*: however a byte stream is cut into reads, the events are
the ones the whole stream yields, and framing a body costs time linear
in its size however small the reads are.
"""

from __future__ import annotations

import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardening import DEFAULT_LIMITS, UNLIMITED
from repro.server.http_core import HttpConnection, Reject
from repro.transport.http import HTTPRequest, HttpFramer

bodies = st.binary(max_size=200)
token = st.text("abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=8)
trailers = st.lists(st.tuples(token, token), max_size=2)


@st.composite
def chunked_body(draw):
    """(wire bytes, decoded payload) of one chunked body with trailers."""
    pieces = draw(st.lists(st.binary(min_size=1, max_size=60), max_size=4))
    extension = draw(st.sampled_from([b"", b";ext=1"]))
    wire = b"".join(
        b"%x%s\r\n%s\r\n" % (len(piece), extension, piece) for piece in pieces
    )
    trailer = b"".join(
        f"{key}: {value}\r\n".encode("ascii") for key, value in draw(trailers)
    )
    return wire + b"0\r\n" + trailer + b"\r\n", b"".join(pieces)


@st.composite
def framed_body(draw):
    """(header lines, body wire bytes, payload) in either framing."""
    if draw(st.booleans()):
        wire, payload = draw(chunked_body())
        return b"Transfer-Encoding: chunked\r\n", wire, payload
    payload = draw(bodies)
    if not payload and draw(st.booleans()):
        return b"", b"", b""  # no Content-Length at all: a zero-length body
    return b"Content-Length: %d\r\n" % len(payload), payload, payload


#: Tails that end a stream with a rejection (400, 400, 400, 413).
BAD_TAILS = (
    b"NONSENSE\r\n\r\n",
    b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
    b"POST / HTTP/1.1\r\nContent-Length: many\r\n\r\n",
    b"POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
    % (DEFAULT_LIMITS.max_body_bytes + 1),
)


@st.composite
def request_stream(draw):
    """(wire bytes, expected events) of pipelined requests, maybe rejected."""
    wire, expected = b"", []
    for _ in range(draw(st.integers(0, 4))):
        path = "/" + draw(token)
        headers, body_wire, payload = draw(framed_body())
        wire += f"POST {path} HTTP/1.1\r\n".encode("ascii") + headers + b"\r\n"
        wire += body_wire
        expected.append(("POST", path, payload))
    tail = draw(st.sampled_from((b"",) + BAD_TAILS))
    return wire + tail, expected, bool(tail)


@st.composite
def response_stream(draw):
    """(wire bytes, expected ``(status, body)`` list) of pipelined responses."""
    wire, expected = b"", []
    for _ in range(draw(st.integers(0, 4))):
        status = draw(st.sampled_from([200, 409, 503]))
        headers, body_wire, payload = draw(framed_body())
        wire += b"HTTP/1.1 %d Phrase\r\n%s\r\n%s" % (status, headers, body_wire)
        expected.append((status, payload))
    return wire, expected


@st.composite
def cuts(draw, wire_strategy):
    """A stream and the reads it arrives in."""
    stream = draw(wire_strategy)
    wire = stream[0]
    points = sorted(draw(st.sets(st.integers(0, len(wire)), max_size=12)))
    reads = [wire[a:b] for a, b in zip([0] + points, points + [len(wire)])]
    return stream, reads


def request_events(reads):
    conn = HttpConnection(DEFAULT_LIMITS)
    out = []
    for read in reads:
        conn.receive(read)
        while (event := conn.next_event()) is not None:
            out.append(event)
    return out


class TestSplitInvariance:
    @settings(max_examples=300, deadline=None)
    @given(cuts(request_stream()))
    def test_requests(self, case):
        (wire, expected, rejected), reads = case
        whole = request_events([wire])
        assert request_events(reads) == whole
        requests = [e for e in whole if isinstance(e, HTTPRequest)]
        assert [(r.method, r.path, r.body) for r in requests] == expected
        assert isinstance(whole[-1] if whole else None, Reject) == rejected

    @settings(max_examples=300, deadline=None)
    @given(cuts(response_stream()))
    def test_responses(self, case):
        (wire, expected), reads = case

        def messages(pieces):
            framer = HttpFramer.for_responses()
            out = []
            for piece in pieces:
                framer.feed(piece)
                while (message := framer.next_message()) is not None:
                    out.append(message)
            assert framer.buffered == 0
            return out

        whole = messages([wire])
        assert messages(reads) == whole
        assert [(status, body) for status, _h, body, _n in whole] == expected
        assert sum(consumed for *_rest, consumed in whole) == len(wire)


class TestLinearFraming:
    """A body trickling in 4 KiB reads is framed in linear time.

    The old accumulate-and-reparse loop measured ~64x for 8x the bytes;
    linear is ~8x.
    """

    PIECE = 4096

    @staticmethod
    def identity(size: int) -> bytes:
        return b"POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % size + bytes(size)

    @staticmethod
    def chunked(size: int) -> bytes:
        chunk = b"8000\r\n" + bytes(0x8000) + b"\r\n"
        return (
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            + chunk * (size // 0x8000)
            + b"0\r\n\r\n"
        )

    def cpu_seconds(self, wire: bytes, size: int) -> float:
        view = memoryview(wire)
        best = float("inf")
        for _ in range(3):
            conn = HttpConnection(UNLIMITED)
            event = None
            started = time.process_time()
            for offset in range(0, len(wire), self.PIECE):
                conn.receive(view[offset : offset + self.PIECE])
                event = conn.next_event()
            best = min(best, time.process_time() - started)
            assert isinstance(event, HTTPRequest) and len(event.body) == size
        return best

    def check(self, build) -> None:
        small_wire, large_wire = build(1 << 20), build(8 << 20)
        # Where the allocator finds 8 MiB (warm heap or page-faulting
        # fresh mappings) moves one side by 3x now and then; quadratic
        # framing is ~64x every time, so the bound holds on a retry.
        for _attempt in range(3):
            small = self.cpu_seconds(small_wire, 1 << 20)
            large = self.cpu_seconds(large_wire, 8 << 20)
            if large < 20 * small:
                return
        raise AssertionError((small, large))

    def test_identity_body(self):
        self.check(self.identity)

    def test_chunked_body(self):
        self.check(self.chunked)

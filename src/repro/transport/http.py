"""SOAP-over-HTTP framing.

Two modes, mirroring the paper's discussion of HTTP 1.0 vs 1.1:

``"content-length"`` (HTTP/1.0 semantics)
    One ``Content-Length`` header; the payload size must be known up
    front, so the whole message must exist before the first byte goes
    out.

``"chunked"`` (HTTP/1.1)
    ``Transfer-Encoding: chunked``; each buffer segment is framed as a
    hex-sized HTTP chunk and can be transmitted as soon as it is
    serialized — the streaming behaviour chunk overlaying relies on.

The framer wraps any inner :class:`~repro.transport.base.Transport`
(TCP for real sends, sinks for tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import (
    HTTPFramingError,
    IncompleteHTTPError,
    RequestTooLargeError,
)
from repro.hardening.limits import ResourceLimits
from repro.transport.base import Transport, ViewStream

__all__ = [
    "HTTPTransport",
    "HttpFramer",
    "HTTPRequest",
    "parse_http_request",
    "parse_http_response",
    "decode_chunked",
]

_CRLF = b"\r\n"


class HTTPTransport:
    """Wraps a byte transport with SOAP HTTP-POST framing."""

    def __init__(
        self,
        inner: Transport,
        *,
        host: str = "localhost",
        path: str = "/soap",
        mode: str = "chunked",
        soap_action: str = '""',
        user_agent: str = "bSOAP-repro/1.0",
        delta_offer: bool = False,
        obs=None,
    ) -> None:
        if mode not in ("chunked", "content-length"):
            raise HTTPFramingError(f"unknown HTTP mode {mode!r}")
        self.inner = inner
        self.mode = mode
        self.host = host
        self.path = path
        self.soap_action = soap_action
        self.user_agent = user_agent
        #: When True every request offers the delta-frame protocol
        #: (``X-Repro-Delta: 1``) and declares that whoever reads the
        #: replies mirrors them (``X-Repro-Delta-Reply: 1``), so the
        #: server may answer with frames; see ``docs/wire_protocol.md``.
        self.delta_offer = delta_offer
        # A frame request's head up to the Content-Length value: the
        # same on every frame, so joined once.
        frame_lines = [
            f"POST {path} HTTP/1.1",
            f"Host: {host}",
            f"User-Agent: {user_agent}",
            "Content-Type: application/x-repro-delta",
            f"SOAPAction: {soap_action}",
            "X-Repro-Delta: 1",
            *(["X-Repro-Delta-Reply: 1"] if delta_offer else []),
            "X-Repro-Delta-Frame: 1",
            "Content-Length: ",
        ]
        self._frame_head = "\r\n".join(frame_lines).encode("ascii")
        # Armed by the client's DeltaEncoder just before a full send;
        # consumed (and cleared) by the next message's header block.
        self._announce: Optional[Tuple[int, int]] = None
        # Wire-level counters, by framing mode: framing overhead is
        # invisible to the payload-level SendReport, so it is counted
        # here — when a registry is there to read it.
        self.messages: Dict[str, int] = {}
        self.wire_bytes: Dict[str, int] = {}
        metrics = getattr(obs, "metrics", None)
        self._counting = metrics is not None
        if metrics is not None:
            metrics.counter(
                "repro_http_messages_total",
                "HTTP requests framed, by framing mode",
                ("mode",),
            )
            metrics.counter(
                "repro_http_wire_bytes_total",
                "Bytes written including HTTP headers and chunk framing",
                ("mode",),
            )
            metrics.watch(self)

    def metric_samples(self) -> Dict[tuple, int]:
        """Framed requests and wire bytes per mode, by series."""
        samples = {
            ("repro_http_messages_total", mode): count
            for mode, count in self.messages.copy().items()
        }
        for mode, nbytes in self.wire_bytes.copy().items():
            samples["repro_http_wire_bytes_total", mode] = nbytes
        return samples

    def _count(self, mode: str, wire_bytes: int) -> None:
        self.messages[mode] = self.messages.get(mode, 0) + 1
        self.wire_bytes[mode] = self.wire_bytes.get(mode, 0) + wire_bytes

    # ------------------------------------------------------------------
    # delta-frame extensions (consumed by repro.wire.client)
    # ------------------------------------------------------------------
    def set_delta_announce(self, template_id: int, epoch: int) -> None:
        """Arm baseline-announce headers for the next full-XML send."""
        self._announce = (template_id, epoch)

    def send_delta_frame(self, frame: bytes) -> int:
        """POST one binary delta frame (always identity-framed)."""
        head = self._frame_head + b"%d\r\n\r\n" % len(frame)
        self.inner.send_message([head, frame])
        self._payload_sent = len(frame)
        if self._counting:
            self._count("delta-frame", len(head) + len(frame))
        return len(frame)

    def _delta_lines(self) -> List[str]:
        lines = []
        if self.delta_offer:
            lines.append("X-Repro-Delta: 1")
            lines.append("X-Repro-Delta-Reply: 1")
        if self._announce is not None:
            template_id, epoch = self._announce
            self._announce = None
            lines.append(f"X-Repro-Delta-Template: {template_id}")
            lines.append(f"X-Repro-Delta-Epoch: {epoch}")
        return lines

    # ------------------------------------------------------------------
    def _headers(self, content_length: Optional[int]) -> bytes:
        lines = [
            f"POST {self.path} HTTP/1.1" if self.mode == "chunked"
            else f"POST {self.path} HTTP/1.0",
            f"Host: {self.host}",
            f"User-Agent: {self.user_agent}",
            'Content-Type: text/xml; charset="utf-8"',
            f"SOAPAction: {self.soap_action}",
        ]
        if self.delta_offer:
            lines += self._delta_lines()
        if self.mode == "chunked":
            lines.append("Transfer-Encoding: chunked")
        else:
            if content_length is None:
                raise HTTPFramingError(
                    "content-length mode requires the total payload size"
                )
            lines.append(f"Content-Length: {content_length}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")

    def send_message(self, views: ViewStream, total_bytes: Optional[int] = None) -> int:
        if self.mode == "content-length":
            if total_bytes is None:
                views = [bytes(v) for v in views]
                total_bytes = sum(len(v) for v in views)
            framed = self._frame_identity(views, total_bytes)
        else:
            framed = self._frame_chunked(views)
        if self._counting:
            framed = self._count_wire(framed)
        self.inner.send_message(framed)
        if self._counting:
            self._count(self.mode, self._wire_sent)
        return self._payload_sent

    # The framer tracks payload bytes (excluding framing) per message.
    _payload_sent: int = 0
    # ... and, when metrics are on, total wire bytes (with framing).
    _wire_sent: int = 0

    def _count_wire(self, framed) -> Iterator[memoryview | bytes]:
        self._wire_sent = 0
        for piece in framed:
            self._wire_sent += len(piece)
            yield piece

    def _frame_identity(
        self, views: ViewStream, total_bytes: int
    ) -> Iterator[memoryview | bytes]:
        self._payload_sent = 0
        yield self._headers(total_bytes)
        for view in views:
            self._payload_sent += len(view)
            yield view
        if self._payload_sent != total_bytes:
            raise HTTPFramingError(
                f"payload was {self._payload_sent} bytes, "
                f"Content-Length said {total_bytes}"
            )

    def _frame_chunked(self, views: ViewStream) -> Iterator[memoryview | bytes]:
        self._payload_sent = 0
        yield self._headers(None)
        for view in views:
            n = len(view)
            if n == 0:
                continue
            self._payload_sent += n
            yield b"%x\r\n" % n
            yield view
            yield _CRLF
        yield b"0\r\n\r\n"

    def close(self) -> None:
        self.inner.close()


# ----------------------------------------------------------------------
# receive side: one incremental framer for requests and responses
# ----------------------------------------------------------------------
@dataclass(slots=True)
class HTTPRequest:
    """A parsed HTTP request: line, headers, raw body."""

    method: str
    path: str
    version: str
    headers: Dict[str, str]
    body: bytes


def _request_line(line: str) -> Tuple[str, str, str]:
    try:
        method, path, version = line.split(" ", 2)
    except ValueError:
        raise HTTPFramingError(f"bad request line {line!r}") from None
    if not version.startswith("HTTP/"):
        raise HTTPFramingError(f"bad request line {line!r}")
    return method, path, version


def _status_line(line: str) -> int:
    parts = line.split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise HTTPFramingError(f"bad status line {line!r}")
    try:
        return int(parts[1])
    except ValueError:
        raise HTTPFramingError(f"bad status line {line!r}") from None


# Framer states; the value is what a one-shot parse reports as missing.
_HEAD = "incomplete HTTP header block"
_BODY = "truncated identity body"
_CHUNK_SIZE = "truncated chunk-size line"
_CHUNK_DATA = "truncated chunk body"
_TRAILER = "truncated chunked trailer"


class HttpFramer:
    """Incremental HTTP/1.x framing: bytes in, whole messages out.

    :attr:`feed` buffers whatever a read produced (any bytes-like; it
    is copied, so a reused read buffer is fine); :meth:`next_message`
    returns ``(start, headers, body, consumed)`` for the oldest complete
    message — *start* is what the start-line parser returned, *consumed*
    the message's size on the wire — or ``None`` when more bytes are
    needed.  Pipelined followers stay buffered for the next call.

    Every byte is examined once.  The head terminator and chunk-size
    lines are searched from where the last search stopped; a head equal
    to the one before it (a steady peer's) is compared, not parsed
    again.  Once a head is parsed, identity body bytes bypass the
    search buffer and are only counted; a chunk is cut out when it is
    complete.  Body pieces are joined once at the end, so memory follows
    what was received, never what a header declares: a lying
    ``Content-Length`` commits nothing.

    Malformed framing raises :class:`HTTPFramingError`; crossing
    *max_header*/*max_body* (on the declared sizes, before the body is
    buffered) or holding more than *max_buffered* bytes raises
    :class:`RequestTooLargeError`.  After either the framer is spent.
    """

    __slots__ = (
        "feed", "_start_line", "_max_header", "_max_body", "_max_buffered",
        "_pending", "_state", "_taken", "_scan", "_need", "_decoded",
        "_start", "_headers", "_parts", "_last_block", "_last_head",
    )

    def __init__(
        self,
        start_line: Callable[[str], object],
        max_header: Optional[int] = None,
        max_body: Optional[int] = None,
        max_buffered: Optional[int] = None,
    ) -> None:
        self._start_line = start_line
        self._max_header = max_header
        self._max_body = max_body
        self._max_buffered = max_buffered
        # Unframed bytes, only ever mutated in place: ``feed`` is its
        # bound ``extend`` (no Python frame per read) except while an
        # identity body is arriving, when it is ``_feed_body``.
        self._pending = bytearray()
        self.feed = self._pending.extend
        self._state = _HEAD
        # Bytes of the message in progress no longer in _pending.
        self._taken = 0
        # Where in _pending the terminator search resumes.
        self._scan = 0
        # Bytes still missing from the identity body or current chunk.
        self._need = 0
        self._decoded = 0
        self._start: object = None
        self._headers: Dict[str, str] = {}
        self._parts: List[bytes] = []
        # The last header block and its parse: a steady peer sends the
        # same head every time, so only the first is parsed.
        self._last_block: Optional[bytearray] = None
        self._last_head: tuple = ()

    @classmethod
    def for_requests(cls, limits: Optional[ResourceLimits] = None) -> "HttpFramer":
        """A request framer enforcing *limits*' header/body/buffer bounds."""
        if limits is None:
            return cls(_request_line)
        return cls(
            _request_line,
            limits.max_header_bytes,
            limits.max_body_bytes,
            limits.recv_cap,
        )

    @classmethod
    def for_responses(cls) -> "HttpFramer":
        """A response framer; the caller bounds :attr:`buffered`."""
        return cls(_status_line)

    @property
    def buffered(self) -> int:
        """Bytes fed and not yet returned as part of a message."""
        return self._taken + len(self._pending)

    @property
    def waiting_for(self) -> str:
        """What the message in progress still lacks."""
        return self._state

    def _feed_body(self, data) -> None:
        """``feed`` while an identity body arrives: count, do not search."""
        need = self._need
        if len(data) > need:  # the tail belongs to a pipelined follower
            view = memoryview(data)
            self._pending += view[need:]
            data = view[:need]
        self._parts.append(bytes(data))
        self._taken += len(data)
        self._need = need - len(data)
        if not self._need:
            self.feed = self._pending.extend

    def next_message(self) -> Optional[Tuple[object, Dict[str, str], bytes, int]]:
        """The oldest complete message, or ``None`` (need more bytes)."""
        pending = self._pending
        state = self._state
        if state is _BODY:
            if self._need:
                return None
        elif not pending:
            return None
        cap = self._max_buffered
        if cap is not None and self._taken + len(pending) > cap:
            # Backstop for framing that grows without ever declaring a
            # length (the declared sizes are capped below).
            raise RequestTooLargeError(f"more than {cap} bytes buffered")
        while True:
            if state is _HEAD:
                end = pending.find(b"\r\n\r\n", self._scan)
                max_header = self._max_header
                if end < 0:
                    if max_header is not None and len(pending) > max_header:
                        raise RequestTooLargeError(
                            f"header block exceeds {max_header} bytes "
                            "without terminating"
                        )
                    self._scan = max(0, len(pending) - 3)
                    return None
                if max_header is not None and end > max_header:
                    raise RequestTooLargeError(
                        f"header block exceeds {max_header} bytes"
                    )
                block = pending[:end]
                if block != self._last_block:
                    self._last_head = self._parse_head(block)
                    self._last_block = block
                start, parsed, length = self._last_head
                # The caller owns what it gets; the memo keeps its own.
                headers = dict(parsed)
                body_at = end + 4
                if length is not None:
                    max_body = self._max_body
                    if max_body is not None and length > max_body:
                        raise RequestTooLargeError(
                            f"Content-Length {length} exceeds "
                            f"max_body_bytes={max_body}"
                        )
                    stop = body_at + length
                    if len(pending) >= stop:  # arrived whole: no state kept
                        body = bytes(pending[body_at:stop])
                        del pending[:stop]
                        self._scan = 0
                        return start, headers, body, stop
                    self._start, self._headers = start, headers
                    self._parts = [bytes(pending[body_at:])]
                    self._need = stop - len(pending)
                    self._drop(len(pending))
                    self._state = _BODY
                    self.feed = self._feed_body
                    return None
                self._start, self._headers = start, headers
                self._parts = []
                self._decoded = 0
                self._drop(body_at)
                state = self._state = _CHUNK_SIZE
            elif state is _BODY:
                return self._finish(0)
            elif state is _CHUNK_SIZE:
                eol = pending.find(_CRLF, self._scan)
                if eol < 0:
                    self._scan = max(0, len(pending) - 1)
                    return None
                size_line = bytes(pending[:eol]).split(b";", 1)[0].strip()
                try:
                    size = int(size_line, 16)
                except ValueError:
                    raise HTTPFramingError(f"bad chunk size {size_line!r}") from None
                if size < 0:
                    raise HTTPFramingError(f"negative chunk size {size_line!r}")
                self._decoded += size
                max_body = self._max_body
                if max_body is not None and self._decoded > max_body:
                    raise RequestTooLargeError(
                        f"chunked body exceeds {max_body} bytes"
                    )
                self._drop(eol + 2)
                self._need = size
                state = self._state = _CHUNK_DATA if size else _TRAILER
            elif state is _CHUNK_DATA:
                size = self._need
                if len(pending) < size + 2:
                    return None
                if pending[size : size + 2] != _CRLF:
                    raise HTTPFramingError("chunk body missing CRLF terminator")
                with memoryview(pending) as view:
                    self._parts.append(bytes(view[:size]))
                self._drop(size + 2)
                state = self._state = _CHUNK_SIZE
            else:  # _TRAILER: optional trailer lines until a blank one
                eol = pending.find(_CRLF, self._scan)
                if eol < 0:
                    self._scan = max(0, len(pending) - 1)
                    return None
                if eol == 0:
                    return self._finish(2)
                self._drop(eol + 2)

    def _parse_head(self, block: bytearray):
        """``(start, headers, Content-Length or None when chunked)`` of
        one header block; raises as :meth:`next_message` does."""
        lines = block.decode("latin-1").split("\r\n")
        start = self._start_line(lines[0])
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            key, colon, value = line.partition(":")
            if not colon:
                raise HTTPFramingError(f"bad header line {line!r}")
            headers[key.strip().lower()] = value.strip()
        if headers.get("transfer-encoding", "").lower() == "chunked":
            return start, headers, None
        return start, headers, _content_length(headers)

    def _drop(self, count: int) -> None:
        """Forget *count* framed bytes of the message in progress."""
        del self._pending[:count]
        self._taken += count
        self._scan = 0

    def _finish(self, tail: int):
        """The message in progress is complete once *tail* more bytes go."""
        self._drop(tail)
        consumed = self._taken
        body = b"".join(self._parts)
        self._parts = []
        self._state = _HEAD
        self._taken = 0
        return self._start, self._headers, body, consumed


def _content_length(headers: Dict[str, str]) -> int:
    """Parse Content-Length, mapping garbage to :class:`HTTPFramingError`."""
    raw = headers.get("content-length", "0")
    try:
        length = int(raw)
    except ValueError:
        raise HTTPFramingError(f"bad Content-Length {raw!r}") from None
    if length < 0:
        raise HTTPFramingError(f"bad Content-Length {raw!r}")
    return length


def _one_shot(framer: HttpFramer, data: bytes):
    framer.feed(data)
    message = framer.next_message()
    if message is None:
        raise IncompleteHTTPError(framer.waiting_for)
    return message


def parse_http_request(
    data: bytes, *, limits: Optional[ResourceLimits] = None
) -> Tuple[HTTPRequest, int]:
    """Parse one HTTP request from *data* (one-shot :class:`HttpFramer`).

    Returns the request and the number of bytes consumed (pipelined
    followers are left alone).  Raises :class:`IncompleteHTTPError`
    when more bytes could complete the request,
    :class:`HTTPFramingError` when it is malformed beyond repair, and —
    when *limits* is given — :class:`RequestTooLargeError` when the
    header block, the declared body size or *data* itself (against
    ``recv_cap``) crosses the configured bounds.
    """
    (method, path, version), headers, body, consumed = _one_shot(
        HttpFramer.for_requests(limits), data
    )
    return HTTPRequest(method, path, version, headers, body), consumed


def parse_http_response(data: bytes) -> Tuple[int, Dict[str, str], bytes, int]:
    """Parse one HTTP response: ``(status, headers, body, consumed)``.

    Raises :class:`IncompleteHTTPError` when the response is merely
    incomplete and plain :class:`HTTPFramingError` when it is
    malformed beyond repair.
    """
    return _one_shot(HttpFramer.for_responses(), data)


def decode_chunked(data: bytes, max_body: Optional[int] = None) -> Tuple[bytes, int]:
    """Decode a chunked body; return ``(payload, bytes_consumed)``.

    Raises as :func:`parse_http_request` does, with *max_body* bounding
    the sum of the declared chunk sizes.
    """
    framer = HttpFramer(_status_line, max_body=max_body)
    framer._state = _CHUNK_SIZE  # as if a chunked head had just been framed
    _start, _headers, body, consumed = _one_shot(framer, data)
    return body, consumed

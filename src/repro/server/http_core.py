"""Sans-IO HTTP server core: one protocol definition, any I/O driver.

Everything an HTTP front end *decides* lives here; everything it
*does* to a socket lives in a driver.  This module touches no
socket, selector, thread or clock (one lock guards the reject
counters), so each rule below is a plain function of bytes in →
events / head bytes out:

* **per-connection half** — :class:`HttpConnection` feeds received
  bytes to the one incremental
  :class:`~repro.transport.http.HttpFramer` and turns its outcomes into
  ``HTTPRequest | Reject | None`` (need more bytes).  It owns the
  framing taxonomy — ``400`` for unparseable
  framing and for EOF mid-request, ``413`` for an oversized header
  block, declared or accumulated body, or more than ``recv_cap``
  buffered bytes, ``503`` past the per-connection request cap — and
  the pipelining rule (one request out per call, followers stay
  buffered).  It depends only on
  :class:`~repro.hardening.limits.ResourceLimits`.
* **per-server half** — :class:`HttpFrontEnd` owns the front-end
  counters (read by the metrics registry at scrape time), the reject-
  and response-head builders, the ``Retry-After`` hint, the ``GET
  /metrics`` / ``?wsdl`` router, the ``500`` answer to a crashed
  request pipeline, and the ``accept()`` error classifier.

Timing (the ``408`` read deadline) and the connection cap (``503`` at
accept) are detected by the drivers, which know about clocks and live
sockets, and answered through :meth:`HttpFrontEnd.reject` like every
other status.  The drivers are
:class:`~repro.server.threaded_server.HTTPSoapServer` (blocking
sockets, thread per connection),
:class:`~repro.server.async_server.AsyncHTTPSoapServer` (selector
loop) and the respond mode of
:class:`~repro.transport.dummy_server.DummyServer` (framing half
only).
"""

from __future__ import annotations

import errno
import functools
import logging
import threading
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import HTTPFramingError, RequestTooLargeError, SOAPError
from repro.hardening.limits import ResourceLimits
from repro.obs.export import render_prometheus
from repro.transport.http import HttpFramer, HTTPRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.server.service import SOAPService

__all__ = [
    "ACCEPT_ERRNOS",
    "HttpConnection",
    "HttpFrontEnd",
    "Reject",
    "reject_head",
    "response_head",
]

_LOG = logging.getLogger(__name__)

#: ``accept()`` errnos that mean *resource exhaustion*, not a dead
#: listener: back off briefly and keep accepting instead of killing
#: the accept loop (an fd-exhaustion burst must not take the server
#: down with it).
ACCEPT_ERRNOS = frozenset(
    getattr(errno, name)
    for name in ("EMFILE", "ENFILE", "ENOBUFS", "ENOMEM")
    if hasattr(errno, name)
)

#: Reason phrases for every status a front end can answer — the single
#: definition of the status taxonomy (``docs/failure_model.md``).
_STATUS_PHRASES = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

_SOAP_CONTENT_TYPE = 'text/xml; charset="utf-8"'
_FRAME_CONTENT_TYPE = "application/x-repro-delta"
_NOT_FOUND = b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n"


def reject_head(status: int, retry_after: Optional[int] = None) -> bytes:
    """The complete response for a rejection *status*.

    Always a well-formed, body-less HTTP response with ``Connection:
    close`` — the fault-not-crash contract promises the peer an
    answer, never a silently dropped socket.  503s pass *retry_after*
    so rejected clients back off instead of hammering (see
    ``docs/overload.md``).
    """
    phrase = _STATUS_PHRASES.get(status, "Error")
    hint = f"Retry-After: {retry_after}\r\n" if retry_after is not None else ""
    return (
        f"HTTP/1.1 {status} {phrase}\r\n"
        f"{hint}"
        "Content-Length: 0\r\nConnection: close\r\n\r\n"
    ).encode("ascii")


def response_head(
    status: int, content_type: str, length: int, extra: Sequence[str] = ()
) -> bytes:
    """The head of a keep-alive response carrying *length* body bytes."""
    return _head_prefix(status, content_type, tuple(extra)) + b"%d\r\n\r\n" % length


@functools.lru_cache(maxsize=64)
def _head_prefix(status: int, content_type: str, extra: Tuple[str, ...]) -> bytes:
    """A response head up to its ``Content-Length`` value, the only
    line that differs between the replies of a steady session."""
    phrase = _STATUS_PHRASES.get(status, "Error")
    header_lines = "".join(f"{line}\r\n" for line in extra)
    return (
        f"HTTP/1.1 {status} {phrase}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"{header_lines}"
        "Content-Length: "
    ).encode("ascii")


class Reject(NamedTuple):
    """Event: answer *status* with a reject head, then close."""

    status: int


class HttpConnection:
    """One connection's framing state: bytes in → events out.

    Drivers call :meth:`receive` with whatever the socket produced,
    then :meth:`next_event` until it returns ``None``; a driver that
    must finish writing a response before dispatching the next request
    simply calls :meth:`next_event` again when it is ready — pipelined
    followers wait in the buffer.  After a :class:`Reject` the
    connection is :attr:`closed`: further bytes are dropped and no more
    events are produced.

    Framing itself is :class:`~repro.transport.http.HttpFramer`'s (the
    same incremental framer the client reads responses with); this
    class maps its outcomes onto the status taxonomy.
    """

    __slots__ = ("limits", "served", "closed", "_framer")

    def __init__(self, limits: ResourceLimits) -> None:
        self.limits = limits
        #: Requests framed over the connection's life.
        self.served = 0
        self.closed = False
        self._framer = HttpFramer.for_requests(limits)

    def receive(self, data) -> None:
        """Buffer bytes the peer sent (any bytes-like; copied)."""
        if not self.closed:
            self._framer.feed(data)

    def next_event(self) -> Union[HTTPRequest, Reject, None]:
        """The next complete request, a rejection, or ``None`` (need more)."""
        try:
            message = self._framer.next_message()
        except RequestTooLargeError:
            # Header block, declared or accumulated body, or the total
            # buffered (``recv_cap``) past its bound.
            return self._reject(413)
        except HTTPFramingError:
            # Malformed beyond repair: request boundaries in the
            # stream can no longer be trusted.
            return self._reject(400)
        if message is None:
            return None
        if self.served >= self.limits.max_requests_per_connection:
            return self._reject(503)
        self.served += 1
        (method, path, version), headers, body, _consumed = message
        return HTTPRequest(method, path, version, headers, body)

    def eof(self) -> Optional[Reject]:
        """The peer closed its sending side.

        Call after draining :meth:`next_event`.  A partial request
        still buffered can never complete and is answered ``400``; a
        clean EOF between requests produces nothing.
        """
        if self._framer.buffered:
            return self._reject(400)
        self.closed = True
        return None

    def _reject(self, status: int) -> Reject:
        self.closed = True
        # Drop whatever was buffered; the spent framer is never fed again.
        self._framer = HttpFramer.for_requests(self.limits)
        return Reject(status)


class HttpFrontEnd:
    """What every connection of one server shares (see module docstring)."""

    #: Seconds an accept loop pauses after an fd-exhaustion errno
    #: (EMFILE/ENFILE/...): long enough for in-flight closes to return
    #: fds, short enough that a recovered server resumes promptly.
    ACCEPT_BACKOFF = 0.05

    def __init__(self, service: "SOAPService") -> None:
        self.service = service
        #: The driver's live connection count (drivers assign theirs);
        #: ``repro_http_open_connections`` calls it at scrape time.
        self.open_connections: Callable[[], int] = lambda: 0
        #: Rejections answered, by HTTP status.
        self.rejects: Dict[int, int] = {}
        #: ``accept()`` failures survived by backing off, by errno name
        #: (written by the one accepting thread).
        self.accept_errnos: Dict[str, int] = {}
        # Rejections come from every connection thread of a threaded
        # driver; nothing else serialises them.
        self._lock = threading.Lock()
        metrics = service.obs.metrics
        if metrics is not None:
            metrics.counter(
                "repro_http_rejects_total",
                "Connections/requests rejected at the HTTP layer, by status",
                ("status",),
            )
            metrics.counter(
                "repro_accept_errors_total",
                "accept() failures survived by backing off, by errno name",
                ("errno",),
            )
            metrics.gauge(
                "repro_http_open_connections",
                "Live connections currently held by the front end",
            ).bind(lambda: {(): self.open_connections()})
            metrics.watch(self)

    # ------------------------------------------------------------------
    @property
    def accept_errors(self) -> int:
        """``accept()`` failures survived by backing off."""
        return sum(self.accept_errnos.copy().values())

    def metric_samples(self) -> Dict[tuple, int]:
        """Rejections by status and accept errors by errno, by series."""
        samples = {
            ("repro_http_rejects_total", status): count
            for status, count in self.rejects.copy().items()
        }
        for name, count in self.accept_errnos.copy().items():
            samples["repro_accept_errors_total", name] = count
        return samples

    def census(self, open_connections: int) -> Dict[str, int]:
        """Front-end counters folded into ``merged_counters``."""
        return {
            "open_connections": open_connections,
            "accept_errors": self.accept_errors,
        }

    # ------------------------------------------------------------------
    def reject(self, status: int) -> bytes:
        """Count a rejection and return its head (see :func:`reject_head`).

        Every 503 carries a ``Retry-After`` hint; it follows the
        admission policy's floor when one is attached so every 503 a
        client can see is consistent.
        """
        self._count_reject(status)
        retry_after = None
        if status == 503:
            admission = self.service.admission
            retry_after = (
                admission.policy.retry_after_min if admission is not None else 1
            )
        return reject_head(status, retry_after)

    def _count_reject(self, status: int) -> None:
        with self._lock:
            self.rejects[status] = self.rejects.get(status, 0) + 1

    def route(self, request: HTTPRequest) -> Optional[bytes]:
        """Answer the front end's own GET endpoints.

        Returns the complete response for ``GET <path>?wsdl`` (404
        when the service has no definition attached) and ``GET
        /metrics`` (404 when it was built with a metrics-less
        ``Observability``), or ``None`` when *request* belongs to the
        service (:meth:`handle`).  Served before admission control, so
        both stay reachable during overload.
        """
        if request.method != "GET":
            return None
        if request.path.endswith("?wsdl"):
            try:
                doc = self.service.wsdl()
            except SOAPError:
                return _NOT_FOUND
            return response_head(200, "text/xml", len(doc)) + doc
        if request.path.rstrip("/") == "/metrics":
            metrics = self.service.obs.metrics
            if metrics is None:
                return _NOT_FOUND
            doc = render_prometheus(metrics).encode("utf-8")
            return (
                response_head(
                    200, "text/plain; version=0.0.4; charset=utf-8", len(doc)
                )
                + doc
            )
        return None

    def handle(
        self, request: HTTPRequest, session_id: str
    ) -> Tuple[List, bool]:
        """Run *request* through the service; frame the answer.

        Returns ``(views, close)``: the iovec to write — the response
        head followed by the serializer's live chunk views, valid
        until this session handles its next request — and whether to
        close the connection afterwards.  The service turns everything
        a request can provoke into a SOAP fault itself; an exception
        escaping it is a server bug, answered ``500`` + close (and
        counted) so the peer still gets an answer, never a crash.
        """
        try:
            status, extra, payload = self.service.handle_wire_vectored(
                request.body, request.headers, session_id
            )
        except Exception:  # noqa: BLE001 - fault-not-crash boundary
            _LOG.exception("request pipeline crashed; answering 500")
            return [self.reject(500)], True
        content_type = _FRAME_CONTENT_TYPE if payload.frame else _SOAP_CONTENT_TYPE
        head = response_head(status, content_type, payload.total, extra)
        return [head, *payload.views], False

    def on_accept_error(self, exc: OSError, running: bool) -> str:
        """Classify an ``accept()`` failure for the driver's loop.

        ``"stop"`` — the server is shutting down (the listener was
        closed under the call); ``"backoff"`` — resource exhaustion
        (:data:`ACCEPT_ERRNOS`), counted: pause :attr:`ACCEPT_BACKOFF`
        so closing connections can return descriptors, then resume;
        ``"retry"`` — anything else (e.g. ``ECONNABORTED``: the peer
        reset before we accepted) concerns one connection, not the
        listener, so keep accepting.
        """
        if not running:
            return "stop"
        if exc.errno not in ACCEPT_ERRNOS:
            return "retry"
        name = errno.errorcode.get(exc.errno, str(exc.errno))
        self.accept_errnos[name] = self.accept_errnos.get(name, 0) + 1
        # The connection the kernel could not hand us was effectively
        # turned away at the door: account it with the 503 rejects so
        # dashboards see one "turned away" series.
        self._count_reject(503)
        return "backoff"

"""TCP transport: a persistent connection and scatter-gather sends.

Two socket profiles, both plain ``(level, option, value)`` tuples:

* :data:`RUNTIME_SOCKET_OPTIONS` — ``SO_KEEPALIVE`` + ``TCP_NODELAY``,
  buffer sizes left to kernel autotuning.  What every runtime
  connection (``RPCChannel``, the reconnecting transport, the servers'
  accepted sockets) uses.
* :data:`PAPER_SOCKET_OPTIONS` — the paper's §4 rig: the same two plus
  32 KiB send/receive buffers.  Applied only by the figure-reproduction
  rig (``TransportRig``, ``DummyServer``), at both ends.  A 32 KiB
  send buffer holds less than one loopback segment (MTU 65536), so
  against a receiver with kernel-sized buffers every sub-segment send
  waits out a delayed ACK (``docs/perf.md``, "socket profiles").

A multi-chunk message goes out through ``sendmsg`` without coalescing
copies.
"""

from __future__ import annotations

import socket
from typing import List, Optional, Sequence, Tuple

from repro.buffers.iovec import IovecCursor
from repro.errors import TransportError
from repro.hardening.limits import DEFAULT_LIMITS, ResourceLimits
from repro.transport.base import ViewStream
from repro.transport.http import HttpFramer

__all__ = [
    "TCPTransport",
    "PAPER_SOCKET_OPTIONS",
    "RUNTIME_SOCKET_OPTIONS",
    "apply_socket_options",
]

SocketOptions = Tuple[Tuple[int, int, int], ...]

#: What runtime connections set: no Nagle, keep-alive, kernel-sized buffers.
RUNTIME_SOCKET_OPTIONS: SocketOptions = (
    (socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1),
    (socket.IPPROTO_TCP, socket.TCP_NODELAY, 1),
)

#: (level, option, value) triples from the paper's §4 test setup.
PAPER_SOCKET_OPTIONS: SocketOptions = RUNTIME_SOCKET_OPTIONS + (
    (socket.SOL_SOCKET, socket.SO_SNDBUF, 32768),
    (socket.SOL_SOCKET, socket.SO_RCVBUF, 32768),
)

#: Bytes pulled per ``recv_into``: one loopback segment.
RECV_SIZE = 65536


def apply_socket_options(
    sock: socket.socket, options: SocketOptions = RUNTIME_SOCKET_OPTIONS
) -> None:
    """Set *options* on *sock* (a dialed or an accepted connection)."""
    for level, option, value in options:
        sock.setsockopt(level, option, value)


class TCPTransport:
    """A persistent client connection carrying raw message bytes.

    Parameters
    ----------
    host, port:
        Peer address.
    gather:
        Use ``sendmsg`` with iovec batching (default).  When False,
        falls back to ``sendall`` per segment — the ablation bench
        compares the two.
    limits:
        :class:`~repro.hardening.ResourceLimits` bounding how many
        response bytes :meth:`recv_http_response` buffers (its
        ``recv_cap``), so client and server agree on one configurable
        bound.
    socket_options:
        The socket profile; the paper rig passes
        :data:`PAPER_SOCKET_OPTIONS`.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        gather: bool = True,
        connect_timeout: float = 5.0,
        limits: Optional[ResourceLimits] = None,
        socket_options: SocketOptions = RUNTIME_SOCKET_OPTIONS,
    ) -> None:
        self.gather = gather
        self.limits = limits if limits is not None else DEFAULT_LIMITS
        try:
            self._sock = socket.create_connection((host, port), timeout=connect_timeout)
        except OSError as exc:
            raise TransportError(f"connect to {host}:{port} failed: {exc}") from exc
        self._sock.settimeout(30.0)
        apply_socket_options(self._sock, socket_options)
        self.messages = 0
        self.bytes_total = 0
        # Response framing state.  With HTTP pipelining several
        # responses can land in one read; the surplus stays in the
        # framer for the next call.
        self._framer = HttpFramer.for_responses()
        self._recv_view = memoryview(bytearray(RECV_SIZE))

    # ------------------------------------------------------------------
    def _flush(self, batch: Sequence[memoryview | bytes]) -> int:
        """``sendmsg`` *batch*, resuming short writes; returns bytes sent."""
        cursor = IovecCursor(batch)
        try:
            cursor.drain(self._sock.sendmsg)
        except OSError as exc:
            raise TransportError(f"sendmsg failed: {exc}") from exc
        return cursor.sent

    def send_message(self, views: ViewStream, total_bytes: Optional[int] = None) -> int:
        sent = 0
        if self.gather and isinstance(views, (list, tuple)):
            sent = self._flush(views)
        elif self.gather:
            batch: List[memoryview | bytes] = []
            for view in views:
                batch.append(view)
                # A lazy stream may rewrite a payload buffer after the
                # yield, so a view must hit the socket before
                # advancing; immutable ``bytes`` (framing) wait for
                # the view they frame.
                if not isinstance(view, bytes):
                    sent += self._flush(batch)
                    batch = []
            if batch:
                sent += self._flush(batch)
        else:
            for view in views:
                try:
                    self._sock.sendall(view)
                except OSError as exc:
                    raise TransportError(f"sendall failed: {exc}") from exc
                sent += len(view)
        self.messages += 1
        self.bytes_total += sent
        return sent

    # ------------------------------------------------------------------
    def recv_http_response(self, limit: Optional[int] = None):
        """Read one complete HTTP response from the connection.

        Returns ``(status, headers, body)``.  Used by the RPC helpers
        for request/response round trips against a real service.
        *limit* overrides the configured ``limits.recv_cap`` for this
        one read (``None`` uses the transport's limits).

        Reads go through one reusable buffer into the incremental
        :class:`~repro.transport.http.HttpFramer`, so no byte is parsed
        twice.  A genuinely malformed response (bad status line, bad
        chunk size...) raises :class:`HTTPFramingError` immediately
        instead of buffering toward the size limit.
        """
        if limit is None:
            limit = self.limits.recv_cap
        framer = self._framer
        view = self._recv_view
        try:
            while True:
                message = framer.next_message()
                if message is not None:
                    status, headers, body, consumed = message
                    if consumed > limit:
                        # The cap applies to *this response's* size,
                        # not the raw buffer: pipelined surplus behind
                        # it is the next response's business.
                        raise TransportError(
                            f"response of {consumed} bytes exceeds size limit {limit}"
                        )
                    return status, headers, body
                if framer.buffered >= limit:
                    raise TransportError("response exceeds size limit")
                try:
                    nbytes = self._sock.recv_into(view)
                except OSError as exc:
                    raise TransportError(f"recv failed: {exc}") from exc
                if not nbytes:
                    raise TransportError("connection closed mid-response")
                framer.feed(view[:nbytes])
        except TransportError:
            # Response boundaries are lost: drop whatever was buffered.
            self._framer = HttpFramer.for_responses()
            raise

    def recv_until_close(self, limit: int = 1 << 20) -> bytes:
        """Read a response until EOF (request/response tests)."""
        parts: List[bytes] = []
        remaining = limit
        while remaining > 0:
            try:
                data = self._sock.recv(min(65536, remaining))
            except OSError as exc:
                raise TransportError(f"recv failed: {exc}") from exc
            if not data:
                break
            parts.append(data)
            remaining -= len(data)
        return b"".join(parts)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - best effort
            pass

    def __enter__(self) -> "TCPTransport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

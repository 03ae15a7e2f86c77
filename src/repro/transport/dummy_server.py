"""The dummy server: accepts connections and drains bytes.

    "each client connects to a dummy SOAP server on a different
    machine ... the server does not deserialize or parse the incoming
    SOAP packet."  (§4)

Ours runs as a thread in the same process (localhost stands in for the
paper's gigabit link; see DESIGN.md substitutions).  It can optionally
echo a canned HTTP response per request so request/response tests work.
"""

from __future__ import annotations

import socket
import threading
from typing import TYPE_CHECKING, List, Optional

from repro.errors import TransportError
from repro.hardening.limits import DEFAULT_LIMITS, ResourceLimits
from repro.transport.tcp import PAPER_SOCKET_OPTIONS, RECV_SIZE, apply_socket_options

if TYPE_CHECKING:  # pragma: no cover - repro.server imports this package
    from repro.server.http_core import HttpConnection

__all__ = ["DummyServer"]

_CANNED_RESPONSE = (
    b"HTTP/1.1 200 OK\r\n"
    b"Content-Type: text/xml\r\n"
    b"Content-Length: 0\r\n"
    b"\r\n"
)

_CANNED_DELTA_RESPONSE = (
    b"HTTP/1.1 200 OK\r\n"
    b"Content-Type: text/xml\r\n"
    b"X-Repro-Delta: 1\r\n"
    b"Content-Length: 0\r\n"
    b"\r\n"
)


class DummyServer:
    """Threaded drain server.

    Parameters
    ----------
    respond:
        When True, replies with an empty 200 after each *complete*
        HTTP request (requires well-formed framing from the client).
        Default False: pure drain, never writes.
    limits:
        :class:`~repro.hardening.ResourceLimits` shared with the
        serving stack: bounds concurrent connections (extras are
        closed immediately) and, in respond mode, framing — the same
        :class:`~repro.server.http_core.HttpConnection` rules the real
        front ends apply (oversized → 413, malformed → 400, request
        cap → 503; then the connection keeps draining without
        responding — it is still a drain server).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        respond: bool = False,
        *,
        delta: bool = False,
        limits: Optional[ResourceLimits] = None,
    ) -> None:
        self.host = host
        self.respond = respond
        #: In respond mode, acknowledge the client's delta offer
        #: (``X-Repro-Delta: 1`` on every canned 200) so serializer
        #: drain benchmarks exercise the frame-encoding send path.
        #: The bytes are still only drained, never reconstructed.
        self.delta = delta
        self.limits = limits if limits is not None else DEFAULT_LIMITS
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._conn_threads: List[threading.Thread] = []
        self._running = threading.Event()
        self._lock = threading.Lock()
        self.bytes_drained = 0
        self.connections = 0
        self.connections_rejected = 0
        self.port: int = 0

    # ------------------------------------------------------------------
    def start(self) -> "DummyServer":
        if self._listener is not None:
            raise TransportError("server already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, 0))
        listener.listen(16)
        listener.settimeout(0.2)
        self._listener = listener
        self.port = listener.getsockname()[1]
        self._running.set()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="dummy-server-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while self._running.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            # Reap finished drain threads: under many short-lived
            # connections this list would otherwise grow without bound.
            self._conn_threads = [
                t for t in self._conn_threads if t.is_alive()
            ]
            if len(self._conn_threads) >= self.limits.max_concurrent_connections:
                with self._lock:
                    self.connections_rejected += 1
                try:
                    conn.close()
                except OSError:  # pragma: no cover - best effort
                    pass
                continue
            with self._lock:
                self.connections += 1
            thread = threading.Thread(
                target=self._drain_loop, args=(conn,), daemon=True
            )
            thread.start()
            self._conn_threads.append(thread)

    def _drain_loop(self, conn: socket.socket) -> None:
        from repro.server.http_core import HttpConnection  # see top of file

        apply_socket_options(conn, PAPER_SOCKET_OPTIONS)
        conn.settimeout(0.2)
        http = HttpConnection(self.limits) if self.respond else None
        recv_view = memoryview(bytearray(RECV_SIZE))
        try:
            while self._running.is_set():
                try:
                    nbytes = conn.recv_into(recv_view)
                except socket.timeout:
                    continue
                except OSError:
                    break
                if not nbytes:
                    break
                with self._lock:
                    self.bytes_drained += nbytes
                if http is not None:
                    http.receive(recv_view[:nbytes])
                    self._respond(conn, http)
        finally:
            try:
                conn.close()
            except OSError:  # pragma: no cover - best effort
                pass

    def _respond(self, conn: socket.socket, http: "HttpConnection") -> None:
        """Reply once per complete HTTP request buffered in *http*.

        A framing rejection is answered before giving up on framing;
        *http* is then closed, so the connection keeps draining
        without responding (still a drain server).
        """
        from repro.server.http_core import Reject, reject_head

        while (event := http.next_event()) is not None:
            if isinstance(event, Reject):
                reply = reject_head(event.status)
            else:
                reply = _CANNED_DELTA_RESPONSE if self.delta else _CANNED_RESPONSE
            try:
                conn.sendall(reply)
            except OSError:
                return

    # ------------------------------------------------------------------
    def stop(self) -> None:
        self._running.clear()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - best effort
                pass
            self._listener = None
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
            self._accept_thread = None
        for thread in self._conn_threads:
            thread.join(timeout=2.0)
        self._conn_threads = [t for t in self._conn_threads if t.is_alive()]

    def __enter__(self) -> "DummyServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

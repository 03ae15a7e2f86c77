"""Thread-per-connection HTTP front end: the blocking-socket driver.

All HTTP decisions — framing, the rejection taxonomy, response heads,
the GET endpoints, accept-error handling — are
:mod:`repro.server.http_core`'s; this module only moves bytes between
blocking sockets and that core, one thread per connection.
:class:`~repro.server.async_server.AsyncHTTPSoapServer` drives the
same core from an event loop, which is why the two answer
byte-identically.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.buffers.iovec import IovecCursor
from repro.server.http_core import HttpConnection, HttpFrontEnd, Reject
from repro.server.service import SOAPService
from repro.transport.tcp import RECV_SIZE, apply_socket_options

__all__ = ["HTTPSoapServer"]


class HTTPSoapServer:
    """Threaded HTTP front end dispatching POSTs to a service.

    Each accepted connection gets its own service session (see
    :class:`~repro.runtime.sessions.ServerSessionManager`), so
    concurrent clients neither race on shared deserializer state nor
    destroy each other's differential matches.

    The front end enforces the service's
    :class:`~repro.hardening.ResourceLimits` at the socket layer —
    the fault-not-crash contract for bytes that never make it to a
    SOAP body:

    * more than ``max_concurrent_connections`` live connections →
      extras are answered ``503`` and closed at accept time;
    * no complete request within ``read_deadline`` seconds → ``408``;
    * peer EOF with a partial request buffered → ``400``;
    * oversized framing (header block, declared or accumulated body,
      total buffered bytes past ``recv_cap``) → ``413``;
    * any other unparseable framing → ``400``;
    * more than ``max_requests_per_connection`` requests pipelined on
      one connection → ``503`` for the excess request;
    * an exception escaping the service's request pipeline → ``500``.

    Every rejection is a well-formed HTTP response with
    ``Connection: close``, counted in ``repro_http_rejects_total``
    (labelled by status) on the service's metrics registry.
    """

    def __init__(self, service: SOAPService, host: str = "127.0.0.1") -> None:
        self.service = service
        self.host = host
        self.port = 0
        self._front = HttpFrontEnd(service)
        self._front.open_connections = self.open_connections
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._conn_threads: List[threading.Thread] = []
        self._conn_ids = itertools.count(1)
        self._running = threading.Event()

    # ------------------------------------------------------------------
    @property
    def accept_errors(self) -> int:
        """``accept()`` failures survived by backing off."""
        return self._front.accept_errors

    def open_connections(self) -> int:
        """Live connections currently being served."""
        return sum(1 for t in self._conn_threads if t.is_alive())

    def frontend_census(self) -> Dict[str, int]:
        """Front-end counters folded into ``merged_counters``."""
        return self._front.census(self.open_connections())

    # ------------------------------------------------------------------
    def start(self) -> "HTTPSoapServer":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, 0))
        listener.listen(64)
        listener.settimeout(0.2)
        self._listener = listener
        self.port = listener.getsockname()[1]
        self._running.set()
        self.service.sessions.set_frontend_census(self.frontend_census)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="soap-server-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def _accept_raw(self) -> Tuple[socket.socket, object]:
        """The raw accept call (seam for accept-failure fault tests)."""
        assert self._listener is not None
        return self._listener.accept()

    def _accept_loop(self) -> None:
        front = self._front
        while self._running.is_set():
            try:
                conn, _ = self._accept_raw()
            except socket.timeout:
                continue
            except OSError as exc:
                verdict = front.on_accept_error(exc, self._running.is_set())
                if verdict == "stop":
                    break
                if verdict == "backoff":
                    time.sleep(front.ACCEPT_BACKOFF)
                continue
            # Reap finished connection threads so a long-lived server
            # handling many short connections doesn't accumulate dead
            # Thread objects without bound — and so the live count
            # below reflects reality.
            self._conn_threads = [
                t for t in self._conn_threads if t.is_alive()
            ]
            limit = self.service.limits.max_concurrent_connections
            if len(self._conn_threads) >= limit:
                self._send(conn, [front.reject(503)])
                try:
                    conn.close()
                except OSError:  # pragma: no cover - best effort
                    pass
                continue
            session_id = f"conn-{next(self._conn_ids)}"
            thread = threading.Thread(
                target=self._serve, args=(conn, session_id), daemon=True
            )
            self._conn_threads.append(thread)
            thread.start()

    @staticmethod
    def _send(conn: socket.socket, views: Sequence) -> bool:
        """Write *views*; False when the peer is gone (nothing owed).

        One ``sendmsg`` over the whole iovec when the socket takes it
        (never head-then-body in two sends: these sockets leave Nagle
        on), resuming after short writes without copying payload.
        """
        cursor = IovecCursor(views)
        try:
            cursor.drain(conn.sendmsg)
        except OSError:
            return False
        return cursor.done

    def _serve(self, conn: socket.socket, session_id: str) -> None:
        front = self._front
        limits = self.service.limits
        read_deadline = limits.read_deadline
        http = HttpConnection(limits)
        recv_view = memoryview(bytearray(RECV_SIZE))
        conn.settimeout(0.2)
        deadline = time.monotonic() + read_deadline
        try:
            try:
                # Replies can span several sendmsg calls (a 440 KB
                # echo): without TCP_NODELAY each would wait on Nagle.
                apply_socket_options(conn)
            except OSError:
                return  # the peer reset before we got to it
            while self._running.is_set():
                if time.monotonic() > deadline:
                    # No complete request within the read deadline —
                    # idle keep-alive or a slow-loris drip; either way
                    # the connection slot is reclaimed with a 408.
                    self._send(conn, [front.reject(408)])
                    break
                try:
                    nbytes = conn.recv_into(recv_view)
                except socket.timeout:
                    continue
                except OSError:
                    break
                if not nbytes:
                    rejected = http.eof()
                    if rejected is not None:
                        self._send(conn, [front.reject(rejected.status)])
                    break
                http.receive(recv_view[:nbytes])
                served = http.served
                if not self._answer_buffered(conn, http, session_id):
                    break
                if http.served != served:
                    # Progress at the request level re-arms the
                    # deadline; a byte-at-a-time drip does not.
                    deadline = time.monotonic() + read_deadline
        finally:
            try:
                conn.close()
            except OSError:  # pragma: no cover - best effort
                pass
            # Free the connection's session state eagerly; a returning
            # client dials a new connection and pays one full parse.
            self.service.sessions.close_session(session_id)

    def _answer_buffered(
        self, conn: socket.socket, http: HttpConnection, session_id: str
    ) -> bool:
        """Answer every complete buffered request, in order.

        Each response is fully written before the next request is
        dispatched (its views alias the session's live buffers).
        Returns False when the connection must be dropped.
        """
        front = self._front
        while True:
            event = http.next_event()
            if event is None:
                return True  # wait for more bytes
            if isinstance(event, Reject):
                self._send(conn, [front.reject(event.status)])
                return False
            routed = front.route(event)
            if routed is not None:
                views, close = [routed], False
            else:
                views, close = front.handle(event, session_id)
            if not self._send(conn, views) or close:
                return False

    def stop(self) -> None:
        self._running.clear()
        self.service.sessions.set_frontend_census(None)
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover
                pass
            self._listener = None
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
            self._accept_thread = None
        for thread in self._conn_threads:
            thread.join(timeout=2.0)
        self._conn_threads = [t for t in self._conn_threads if t.is_alive()]

    def __enter__(self) -> "HTTPSoapServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

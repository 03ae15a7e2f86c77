"""Non-blocking C10K front end with zero-copy vectored response sends.

The threaded :class:`~repro.server.threaded_server.HTTPSoapServer`
spends one OS thread per connection, which tops out at hundreds of
clients — nowhere near the millions-of-users traffic the ROADMAP
names.  This module drives the same sans-IO protocol core
(:mod:`repro.server.http_core`) from an event loop:

* **one loop thread** runs a ``selectors`` readiness loop doing
  non-blocking accept/read/write over every connection;
* **per-connection state machines** (``reading → handling → writing →
  reading``) feed received bytes to the core's
  :class:`~repro.server.http_core.HttpConnection` until it yields a
  complete request, then run it through the core's
  :class:`~repro.server.http_core.HttpFrontEnd` — framing, the
  400/408/413/500/503 taxonomy, response heads and the GET endpoints
  are all the *same code* the threaded server runs, over the same
  :class:`~repro.server.service.SOAPService` pipeline;
* **a small handler pool** executes the (CPU-bound, GIL-protected)
  SOAP work so a slow handler never stalls the readiness loop; each
  connection handles at most one request at a time, in order;
* **read deadlines** are a :class:`~repro.server.timerwheel.TimerWheel`
  instead of per-socket blocking timeouts: arming, re-arming (on
  request-level progress, exactly the threaded server's rule) and
  cancelling are O(1), independent of connection count;
* **responses go out vectored**: the core hands back ``[head] +
  chunk views`` (the serializer's live buffers), and the write path
  pushes them through ``socket.sendmsg`` with an
  :class:`~repro.buffers.iovec.IovecCursor` resuming partial sends
  across iovec boundaries — a steady-state perfect-structural resend
  never copies its payload bytes.

The write-before-next-request ordering is what makes zero-copy safe:
the chunk views alias the session responder's live buffers, which only
that session's *next* request rewrites — and the state machine does
not dispatch request *i+1* until response *i* has fully left the
socket.

See ``docs/async_server.md`` for the architecture walkthrough and
when to pick ``server="threaded"`` vs ``server="async"``.
"""

from __future__ import annotations

import itertools
import selectors
import socket
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.buffers.iovec import IOV_MAX, IovecCursor
from repro.server.http_core import HttpConnection, HttpFrontEnd, Reject
from repro.server.service import SOAPService
from repro.server.threaded_server import HTTPSoapServer
from repro.server.timerwheel import TimerWheel
from repro.transport.http import HTTPRequest
from repro.transport.tcp import apply_socket_options

__all__ = ["AsyncHTTPSoapServer", "SERVER_MODES", "make_server"]

#: Connection states the per-state gauge reports.
CONN_STATES = ("reading", "handling", "writing")

#: Sentinel timer key for resuming a paused accept loop.
_ACCEPT_RESUME = "__accept_resume__"

#: Bytes pulled per read-readiness event.  Large enough that a bulk
#: sender drains in few syscalls, small enough to stay fair across
#: thousands of ready connections.
_RECV_SIZE = 1 << 18


class _Connection:
    """One connection's state machine (loop-thread private)."""

    __slots__ = (
        "sock",
        "fd",
        "session_id",
        "state",
        "http",
        "cursor",
        "close_after_write",
        "events",
    )

    def __init__(
        self, sock: socket.socket, session_id: str, http: HttpConnection
    ) -> None:
        self.sock = sock
        self.fd = sock.fileno()
        self.session_id = session_id
        self.state = "reading"
        #: Framing state: buffered bytes, request count, pipelining.
        self.http = http
        #: Resumable iovec write position over the in-flight response
        #: (state == "writing" only); it pins the chunk views' buffers
        #: and is released the moment the write completes.
        self.cursor: Optional[IovecCursor] = None
        self.close_after_write = False
        #: Selector event mask currently registered (0 = unregistered).
        self.events = 0


class AsyncHTTPSoapServer:
    """Event-loop HTTP front end over a :class:`SOAPService`.

    Drop-in alternative to :class:`HTTPSoapServer` (same constructor
    shape, ``start``/``stop``/context-manager surface, metrics names,
    and rejection taxonomy — both drive one
    :class:`~repro.server.http_core.HttpFrontEnd`).  One extra knob:

    Parameters
    ----------
    handler_threads:
        Size of the pool running SOAP handling off the loop thread, so
        a *blocking* handler (I/O, sleeps) never stalls the readiness
        loop.  ``0`` handles requests inline on the loop thread — the
        right choice for CPU-bound handlers under the GIL, where
        offloading only adds two thread handoffs per request and the
        loop batches every ready request in one scheduling quantum.
    """

    def __init__(
        self,
        service: SOAPService,
        host: str = "127.0.0.1",
        *,
        handler_threads: int = 4,
    ) -> None:
        if handler_threads < 0:
            raise ValueError("handler_threads must be >= 0 (0 = inline)")
        self.service = service
        self.host = host
        self.port = 0
        self.handler_threads = handler_threads
        self._front = HttpFrontEnd(service)
        self._listener: Optional[socket.socket] = None
        self._selector: Optional[selectors.BaseSelector] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._conns: Dict[int, _Connection] = {}
        self._conn_ids = itertools.count(1)
        self._running = threading.Event()
        self._wheel = TimerWheel(tick=0.05)
        self._accept_paused = False
        # Completed handler results, appended by pool threads and
        # drained by the loop thread after a wakeup byte.
        self._done: Deque[Tuple[_Connection, List, bool]] = deque()
        self._done_lock = threading.Lock()
        self._wake_r: Optional[socket.socket] = None
        self._wake_w: Optional[socket.socket] = None
        self._state_counts = {state: 0 for state in CONN_STATES}
        # Reusable receive buffer (loop-thread private): recv_into it
        # and let the framer copy out only the bytes that arrived —
        # plain recv(n) mallocs (and for these sizes, mmaps) n bytes
        # per call.
        self._recv_view = memoryview(bytearray(_RECV_SIZE))
        # Both connection gauges are read from the loop's own counts at
        # scrape time; the loop never publishes them.
        self._front.open_connections = self.open_connections
        metrics = service.obs.metrics
        if metrics is not None:
            metrics.gauge(
                "repro_http_connections_state",
                "Live connections by state-machine state (async server)",
                ("state",),
            ).bind(lambda: {(s,): n for s, n in self._state_counts.items()})

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "AsyncHTTPSoapServer":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, 0))
        listener.listen(4096)
        listener.setblocking(False)
        self._listener = listener
        self.port = listener.getsockname()[1]
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ, "accept")
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector.register(self._wake_r, selectors.EVENT_READ, "wakeup")
        if self.handler_threads > 0:
            self._executor = ThreadPoolExecutor(
                max_workers=self.handler_threads,
                thread_name_prefix="soap-async-handler",
            )
        self._running.set()
        self.service.sessions.set_frontend_census(self.frontend_census)
        self._loop_thread = threading.Thread(
            target=self._run_loop, name="soap-async-loop", daemon=True
        )
        self._loop_thread.start()
        return self

    def stop(self) -> None:
        self._running.clear()
        self.service.sessions.set_frontend_census(None)
        self._wakeup()
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=5.0)
            self._loop_thread = None
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "AsyncHTTPSoapServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # introspection (mirrors the threaded server)
    # ------------------------------------------------------------------
    @property
    def accept_errors(self) -> int:
        """``accept()`` failures survived by backing off."""
        return self._front.accept_errors

    def open_connections(self) -> int:
        return len(self._conns)

    def connection_states(self) -> Dict[str, int]:
        """Live connection count per state-machine state."""
        return dict(self._state_counts)

    def frontend_census(self) -> Dict[str, int]:
        out = self._front.census(self.open_connections())
        for state, count in self._state_counts.items():
            out[f"connections_{state}"] = count
        return out

    # ------------------------------------------------------------------
    # state bookkeeping (loop thread only)
    # ------------------------------------------------------------------
    def _set_state(self, conn: _Connection, state: str) -> None:
        counts = self._state_counts
        counts[conn.state] -= 1
        counts[state] += 1
        conn.state = state

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def _wakeup(self) -> None:
        wake = self._wake_w
        if wake is None:
            return
        try:
            wake.send(b"\0")
        except OSError:
            pass  # buffer full → a wakeup is already pending

    def _run_loop(self) -> None:
        selector = self._selector
        assert selector is not None
        try:
            while self._running.is_set():
                timeout = self._wheel.timeout_until_next(0.2)
                for key, _mask in selector.select(timeout):
                    kind = key.data
                    if kind == "accept":
                        self._on_accept_ready()
                    elif kind == "wakeup":
                        self._drain_wakeup()
                    else:
                        self._on_conn_event(kind, _mask)
                self._drain_done()
                self._fire_timers()
        finally:
            self._teardown()

    def _teardown(self) -> None:
        selector = self._selector
        for conn in list(self._conns.values()):
            self._close_conn(conn)
        if selector is not None:
            try:
                selector.close()
            except OSError:  # pragma: no cover - best effort
                pass
            self._selector = None
        for sock in (self._listener, self._wake_r, self._wake_w):
            if sock is not None:
                try:
                    sock.close()
                except OSError:  # pragma: no cover - best effort
                    pass
        self._listener = self._wake_r = self._wake_w = None

    def _drain_wakeup(self) -> None:
        assert self._wake_r is not None
        try:
            while self._wake_r.recv(4096):
                pass
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            pass

    def _fire_timers(self) -> None:
        for key in self._wheel.expire():
            if key == _ACCEPT_RESUME:
                self._resume_accepting()
                continue
            conn = self._conns.get(key)
            if conn is None:
                continue
            if conn.state == "reading":
                # No complete request within the read deadline — idle
                # keep-alive or a slow-loris drip; either way the slot
                # is reclaimed with a 408 (threaded-server taxonomy).
                self._reject(conn, 408)

    # ------------------------------------------------------------------
    # accept
    # ------------------------------------------------------------------
    def _accept_raw(self) -> Tuple[socket.socket, object]:
        """The raw accept call (seam for accept-failure fault tests)."""
        assert self._listener is not None
        return self._listener.accept()

    def _on_accept_ready(self) -> None:
        while self._running.is_set():
            try:
                sock, _addr = self._accept_raw()
            except (BlockingIOError, InterruptedError):
                return
            except OSError as exc:
                # "retry" needs no action here: a listener with more
                # pending connections stays readable.
                if self._front.on_accept_error(exc, True) == "backoff":
                    self._pause_accepting()
                return
            sock.setblocking(False)
            try:
                apply_socket_options(sock)
            except OSError:  # the peer reset before we got to it
                sock.close()
                continue
            limits = self.service.limits
            session_id = f"conn-{next(self._conn_ids)}"
            conn = _Connection(sock, session_id, HttpConnection(limits))
            self._conns[conn.fd] = conn
            self._state_counts[conn.state] += 1
            if len(self._conns) > limits.max_concurrent_connections:
                self._reject(conn, 503)
            else:
                self._register(conn, selectors.EVENT_READ)
                self._wheel.arm(conn.fd, limits.read_deadline)

    def _pause_accepting(self) -> None:
        if self._accept_paused or self._selector is None:
            return
        self._accept_paused = True
        try:
            self._selector.unregister(self._listener)
        except (KeyError, ValueError):  # pragma: no cover - already out
            pass
        self._wheel.arm(_ACCEPT_RESUME, self._front.ACCEPT_BACKOFF)

    def _resume_accepting(self) -> None:
        if not self._accept_paused or self._selector is None:
            return
        self._accept_paused = False
        self._selector.register(self._listener, selectors.EVENT_READ, "accept")

    # ------------------------------------------------------------------
    # selector bookkeeping
    # ------------------------------------------------------------------
    def _register(self, conn: _Connection, events: int) -> None:
        assert self._selector is not None
        if conn.events == events:
            return
        if conn.events == 0:
            self._selector.register(conn.sock, events, conn)
        else:
            self._selector.modify(conn.sock, events, conn)
        conn.events = events

    def _unregister(self, conn: _Connection) -> None:
        if conn.events and self._selector is not None:
            try:
                self._selector.unregister(conn.sock)
            except (KeyError, ValueError):  # pragma: no cover
                pass
        conn.events = 0

    def _close_conn(self, conn: _Connection) -> None:
        self._unregister(conn)
        self._wheel.cancel(conn.fd)
        self._conns.pop(conn.fd, None)
        self._state_counts[conn.state] -= 1
        conn.cursor = None
        try:
            conn.sock.close()
        except OSError:  # pragma: no cover - best effort
            pass
        # Free the connection's session state eagerly; a returning
        # client dials a new connection and pays one full parse.
        self.service.sessions.close_session(conn.session_id)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def _on_conn_event(self, conn: _Connection, mask: int) -> None:
        # Identity check, not fd membership: a closed connection's fd
        # can be reused by a later accept within the same iteration.
        if self._conns.get(conn.fd) is not conn:
            return
        if mask & selectors.EVENT_WRITE:
            self._on_writable(conn)
        if self._conns.get(conn.fd) is conn and mask & selectors.EVENT_READ:
            self._on_readable(conn)

    def _on_readable(self, conn: _Connection) -> None:
        if conn.state != "reading":
            return
        try:
            nbytes = conn.sock.recv_into(self._recv_view)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close_conn(conn)
            return
        if not nbytes:
            rejected = conn.http.eof()
            if rejected is not None:
                self._reject(conn, rejected.status)
            else:
                self._close_conn(conn)
            return
        conn.http.receive(self._recv_view[:nbytes])
        self._pump_requests(conn)

    def _pump_requests(self, conn: _Connection) -> None:
        """Dispatch buffered requests until one is in flight.

        At most one request is in flight per connection: pipelined
        followers wait in the framing buffer until the current
        response has fully left the socket — both for response
        ordering and because the in-flight response's chunk views are
        only stable until the session handles its next request.  A
        write that completes at once leaves the connection "reading"
        again, so the loop (not recursion: pipelining depth is the
        peer's choice) moves on to the follower.
        """
        front = self._front
        while conn.state == "reading":
            request = conn.http.next_event()
            if request is None:
                return  # wait for more bytes
            if isinstance(request, Reject):
                self._reject(conn, request.status)
                return
            # Progress at the request level re-arms the deadline
            # (threaded rule); here that happens when the response
            # completes and the connection re-enters "reading" —
            # arming now would be undone by the dispatch below.
            routed = front.route(request)
            if routed is not None:
                self._start_write(conn, [routed])
                continue
            self._set_state(conn, "handling")
            self._wheel.cancel(conn.fd)  # handler time never counts as a drip
            if self._executor is None:
                # Inline handling runs to completion before control
                # returns to the selector, so read interest can stay
                # registered: no select() happens mid-request, and the
                # common case (write drains without blocking) ends back
                # in "reading" with the same mask — zero epoll_ctl
                # round-trips per request.
                self._start_write(conn, *front.handle(request, conn.session_id))
            else:
                self._unregister(conn)  # stop reading until the response is out
                self._executor.submit(self._handle_in_pool, conn, request)

    # ------------------------------------------------------------------
    # handling (pool threads)
    # ------------------------------------------------------------------
    def _handle_in_pool(self, conn: _Connection, request: HTTPRequest) -> None:
        result = self._front.handle(request, conn.session_id)
        with self._done_lock:
            self._done.append((conn, *result))
        self._wakeup()

    def _drain_done(self) -> None:
        while True:
            with self._done_lock:
                if not self._done:
                    return
                conn, views, close = self._done.popleft()
            if self._conns.get(conn.fd) is not conn:
                continue  # connection died while handling (fd may be reused)
            self._start_write(conn, views, close)
            self._pump_requests(conn)  # a pipelined follower may be buffered

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def _start_write(
        self, conn: _Connection, views: Sequence, close_after: bool = False
    ) -> None:
        """Write *views* (one ``sendmsg`` when the socket takes it)."""
        conn.close_after_write = close_after
        self._set_state(conn, "writing")
        self._wheel.cancel(conn.fd)
        conn.cursor = IovecCursor(views)
        self._continue_write(conn)

    def _send_batch(self, conn: _Connection, batch: List) -> int:
        try:
            return conn.sock.sendmsg(batch)
        except (BlockingIOError, InterruptedError):
            return 0

    def _continue_write(self, conn: _Connection) -> None:
        cursor = conn.cursor
        assert cursor is not None
        try:
            cursor.drain(lambda batch: self._send_batch(conn, batch), IOV_MAX)
        except OSError:
            self._close_conn(conn)  # peer already gone — nothing owed
            return
        if not cursor.done:
            self._register(conn, selectors.EVENT_WRITE)
            return
        self._finish_write(conn)

    def _finish_write(self, conn: _Connection) -> None:
        # Write complete: release the payload views immediately so the
        # session's next rewrite never races a stale export.
        conn.cursor = None
        if conn.close_after_write:
            self._close_conn(conn)
            return
        self._set_state(conn, "reading")
        self._register(conn, selectors.EVENT_READ)
        self._wheel.arm(conn.fd, self.service.limits.read_deadline)

    def _on_writable(self, conn: _Connection) -> None:
        if conn.state == "writing":
            self._continue_write(conn)
            self._pump_requests(conn)  # a pipelined follower may be buffered

    def _reject(self, conn: _Connection, status: int) -> None:
        """Queue the core's counted rejection response, then close."""
        self._start_write(conn, [self._front.reject(status)], close_after=True)


#: The front-end switch: ``server="threaded"`` keeps the
#: thread-per-connection fallback, ``server="async"`` serves the same
#: service from the event loop.
SERVER_MODES = ("threaded", "async")


def make_server(
    service: SOAPService,
    server: str = "threaded",
    host: str = "127.0.0.1",
    **async_kw,
):
    """Build (not start) the chosen front end over *service*."""
    if server == "threaded":
        if async_kw:
            raise ValueError(
                f"threaded server takes no extra options, got {sorted(async_kw)}"
            )
        return HTTPSoapServer(service, host)
    if server == "async":
        return AsyncHTTPSoapServer(service, host, **async_kw)
    raise ValueError(f"unknown server mode {server!r}; have {SERVER_MODES}")

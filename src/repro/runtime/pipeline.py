"""Pipelined differential sends: overlap serialization with waiting.

A plain :meth:`RPCChannel.call` is strictly sequential — serialize,
write, then idle until the response arrives.  Kohring & Lo Iacono's
observation (non-blocking signature of large SOAP messages) applies
directly to differential serialization: the rewrite of call *i+1* is
pure CPU work that can run while call *i*'s response is still on the
wire.  :class:`PipelinedChannel` realizes that overlap on one
connection with two threads:

* the **sender** drains a queue of submitted messages, runs the
  differential rewrite, and writes the request (HTTP pipelining: the
  server answers in order);
* the **receiver** awaits responses FIFO and resolves each call's
  :class:`~concurrent.futures.Future`.

The in-flight window is bounded (*depth*): :meth:`submit` blocks once
``depth`` calls are unanswered, which is the backpressure that keeps a
fast producer from buffering unbounded template mutations.

Differential correctness: serializing call *i+1* mutates the same
template call *i* used, but *i*'s bytes were fully written to the
socket before *i+1*'s rewrite starts (sends are synchronous within
the sender thread), and the server applies requests in arrival order —
so every diff is against exactly the bytes the server saw last.

Failure semantics are the channel's own (:meth:`RPCChannel.answered`,
:meth:`RPCChannel.lost`), minus ``call()``'s retry loop: any transport
failure fails **all** unanswered calls (their responses are
indistinguishable once the connection is gone), and the channel's one
failure rule drops the connection with its delta baselines and reply
mirror and quarantines every affected template, so the next send of
each structure is a full resynchronization.  The channel stays usable
— the next submitted call redials.  Callers who need at-least-once
semantics resubmit failed futures.

:class:`PipelinedSender` scales this across a
:class:`~repro.runtime.pool.ClientPool`: one worker per pooled
channel, each wrapping its checkout in a :class:`PipelinedChannel`,
all fed from one bounded job queue.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future
from time import monotonic
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.channel import RPCChannel
from repro.core.stats import SendReport
from repro.errors import PoolError, ReproError, SOAPFaultError, TransportError
from repro.runtime.pool import ClientPool
from repro.soap.message import SOAPMessage
from repro.soap.rpc import RPCResponse

__all__ = ["PipelinedCall", "PipelinedChannel", "PipelinedSender"]

_STOP = object()


class PipelinedCall:
    """Resolved value of a pipelined call's future."""

    __slots__ = ("response", "send_report")

    def __init__(self, response: RPCResponse, send_report: SendReport) -> None:
        self.response = response
        self.send_report = send_report


class PipelinedChannel:
    """Overlapped send/receive pipelining over one RPC channel.

    The wrapped channel is exclusively owned for the wrapper's
    lifetime (do not call ``channel.call`` concurrently).

    Parameters
    ----------
    depth:
        Maximum unanswered calls in flight; :meth:`submit` blocks when
        the window is full (backpressure).
    """

    def __init__(self, channel: RPCChannel, *, depth: int = 8) -> None:
        if depth < 1:
            raise PoolError("pipeline depth must be >= 1")
        self.channel = channel
        self.depth = depth
        self._window = threading.Semaphore(depth)
        self._sendq: "queue.Queue[object]" = queue.Queue()
        # Sent-but-unanswered calls, FIFO (message, future, report,
        # send-start time); guarded by _cv.
        self._inflight: List[Tuple[SOAPMessage, Future, SendReport, float]] = []
        self._cv = threading.Condition()
        self._closed = False
        self._pending = 0  # submitted but not yet resolved
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self._send_thread = threading.Thread(
            target=self._send_loop, name="pipeline-send", daemon=True
        )
        self._recv_thread = threading.Thread(
            target=self._recv_loop, name="pipeline-recv", daemon=True
        )
        self._send_thread.start()
        self._recv_thread.start()

    # ------------------------------------------------------------------
    def submit(self, message: SOAPMessage) -> "Future[PipelinedCall]":
        """Queue *message*; returns a future resolving to
        :class:`PipelinedCall` (or raising the call's error)."""
        if self._closed:
            raise PoolError("pipelined channel is closed")
        self._window.acquire()
        if self._closed:  # closed while we waited on backpressure
            self._window.release()
            raise PoolError("pipelined channel is closed")
        future: "Future[PipelinedCall]" = Future()
        with self._cv:
            self._pending += 1
            self.submitted += 1
        self._sendq.put((message, future))
        return future

    def map(
        self, messages: Iterable[SOAPMessage]
    ) -> List["Future[PipelinedCall]"]:
        """Submit every message; returns the futures in order."""
        return [self.submit(m) for m in messages]

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every submitted call resolved; False on timeout."""
        with self._cv:
            return self._cv.wait_for(lambda: self._pending == 0, timeout)

    # ------------------------------------------------------------------
    def _resolve(self, future: Future, *, result=None, exc=None, fault=False) -> None:
        """Resolve one call and release its window slot exactly once."""
        with self._cv:
            self._pending -= 1
            if exc is None:
                self.completed += 1
            elif fault:
                self.completed += 1
            else:
                self.failed += 1
            self._cv.notify_all()
        if exc is None:
            future.set_result(result)
        else:
            future.set_exception(exc)
        self._window.release()

    def _send_loop(self) -> None:
        channel = self.channel
        while True:
            item = self._sendq.get()
            if item is _STOP:
                with self._cv:
                    self._cv.notify_all()
                return
            message, future = item  # type: ignore[misc]
            started = monotonic()
            try:
                report = channel.send_request(message)
            except ReproError as exc:
                # Any in-flight responses die with the connection.
                self._abort_inflight(exc, message)
                self._resolve(future, exc=exc)
                continue
            with self._cv:
                self._inflight.append((message, future, report, started))
                self._cv.notify_all()

    def _recv_loop(self) -> None:
        channel = self.channel
        while True:
            with self._cv:
                self._cv.wait_for(lambda: self._inflight or self._closed)
                if not self._inflight:
                    if self._closed:
                        return
                    continue
                head = self._inflight[0]
            _message, future, report, started = head
            try:
                response = channel.recv_response()
            except SOAPFaultError as exc:
                # Round trip succeeded; the server answered a Fault.
                if self._pop(head):
                    channel.answered(started)
                    self._resolve(future, exc=exc, fault=True)
            except ReproError as exc:
                self._abort_inflight(exc, head=head)
            else:
                if self._pop(head):
                    channel.answered(started, report)
                    self._resolve(future, result=PipelinedCall(response, report))

    def _pop(self, head) -> bool:
        """Take *head* off the in-flight FIFO; False when a failed send
        already aborted it (its call failed with the connection)."""
        with self._cv:
            if not self._at_head(head):
                return False
            self._inflight.pop(0)
            return True

    def _at_head(self, head) -> bool:
        """Whether *head* still leads the FIFO (caller holds ``_cv``)."""
        return bool(self._inflight) and self._inflight[0] is head

    def _abort_inflight(
        self, exc: ReproError, *unsent: SOAPMessage, head=None
    ) -> None:
        """Fail every unanswered call after a connection-level error.

        The channel's failure rule runs once for the lost connection,
        over the *unsent* message and every sent-but-unanswered call,
        before any of their futures resolves.  A receive error whose
        *head* a failed send already aborted changes nothing.
        """
        with self._cv:
            if head is not None and not self._at_head(head):
                return
            dead = self._inflight
            self._inflight = []
        self.channel.lost(*unsent, *(message for message, *_ in dead))
        for _message, future, _report, _started in dead:
            self._resolve(
                future,
                exc=TransportError(f"pipelined response lost: {exc}"),
            )

    # ------------------------------------------------------------------
    def close(self, timeout: float = 5.0) -> None:
        """Drain outstanding calls, then stop both worker threads."""
        if self._closed:
            return
        self.drain(timeout)
        self._closed = True
        self._sendq.put(_STOP)
        with self._cv:
            self._cv.notify_all()
        self._send_thread.join(timeout=timeout)
        self._recv_thread.join(timeout=timeout)
        # A submit that raced the close may have queued behind _STOP.
        while True:
            try:
                item = self._sendq.get_nowait()
            except queue.Empty:
                break
            if item is _STOP:
                continue
            _message, future = item  # type: ignore[misc]
            self._resolve(future, exc=PoolError("pipelined channel closed"))
        # Anything still unresolved (drain timed out) fails loudly.
        with self._cv:
            dead = self._inflight
            self._inflight = []
        for _message, future, _report, _started in dead:
            self._resolve(future, exc=TransportError("pipelined channel closed"))

    def __enter__(self) -> "PipelinedChannel":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class PipelinedSender:
    """Fan calls out across a pool, pipelining within each channel.

    One worker thread per pooled channel holds a checkout for the
    sender's lifetime (template affinity: all calls a worker takes diff
    against its own channel's last-sent bytes) and feeds a
    :class:`PipelinedChannel`.  Jobs come from one shared bounded
    queue — :meth:`submit` blocks when it fills, giving end-to-end
    backpressure of ``queue_depth + size × depth`` outstanding calls.
    """

    def __init__(
        self,
        pool: ClientPool,
        *,
        depth: int = 4,
        queue_depth: Optional[int] = None,
    ) -> None:
        self.pool = pool
        self.depth = depth
        self._jobs: "queue.Queue[object]" = queue.Queue(
            maxsize=queue_depth or pool.size * depth
        )
        self._closed = False
        self._workers: List[threading.Thread] = []
        for i in range(pool.size):
            worker = threading.Thread(
                target=self._worker_loop, name=f"pipelined-sender-{i}", daemon=True
            )
            worker.start()
            self._workers.append(worker)

    # ------------------------------------------------------------------
    def submit(self, message: SOAPMessage) -> "Future[PipelinedCall]":
        if self._closed:
            raise PoolError("pipelined sender is closed")
        future: "Future[PipelinedCall]" = Future()
        self._jobs.put((message, future))
        return future

    def map(self, messages: Sequence[SOAPMessage]) -> List[PipelinedCall]:
        """Submit everything, wait, and return results in order.

        Raises the first (by submission order) failed call's
        exception; later futures still settle in the background.
        """
        futures = [self.submit(m) for m in messages]
        return [f.result() for f in futures]

    def _worker_loop(self) -> None:
        try:
            channel = self.pool.checkout()
        except ReproError:
            return  # pool closed under us
        pipe = PipelinedChannel(channel, depth=self.depth)
        try:
            while True:
                item = self._jobs.get()
                if item is _STOP:
                    return
                message, future = item  # type: ignore[misc]
                try:
                    inner = pipe.submit(message)
                except ReproError as exc:
                    future.set_exception(exc)
                    continue
                _chain(inner, future)
        finally:
            pipe.close()
            self.pool.checkin(channel)

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for _ in self._workers:
            self._jobs.put(_STOP)
        for worker in self._workers:
            worker.join(timeout=10.0)

    def __enter__(self) -> "PipelinedSender":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _chain(inner: Future, outer: Future) -> None:
    """Propagate *inner*'s outcome into *outer* when it resolves."""

    def copy(done: Future) -> None:
        exc = done.exception()
        if exc is not None:
            outer.set_exception(exc)
        else:
            outer.set_result(done.result())

    inner.add_done_callback(copy)

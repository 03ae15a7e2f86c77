"""Spans recorded from the benchmark's side of each layer boundary.

Nothing under ``src/`` is edited: the traced pass hands
:class:`~repro.channel.RPCChannel` a timing ``raw_transport=``, serves a
:class:`TimedService` with timed handlers, and :func:`install` wraps the
layers' public entry points for the life of the pass.

Span tree of one call (closed loop, one connection, so every span
between a call's start and end is that call's)::

    call
    ├── core.send            BSoapClient.send on the channel
    │   ├── lexical.format   batch double formatters
    │   ├── wire.encode      DeltaEncoder.try_encode
    │   └── transport.send   raw transport send_message
    ├── transport.recv       raw transport recv_http_response
    │   └── service.handle   SOAPService.handle_wire_vectored (server thread)
    │       ├── wire.apply       DeltaSession.apply
    │       ├── server.decode    session DifferentialDeserializer.deserialize
    │       ├── server.handler   the operation handler
    │       └── server.respond   session responder BSoapClient.send
    └── channel.decode       rest of recv_response (fault check + reply decode)

``service.handle`` runs on a server thread and can start before the
client thread has entered ``transport.recv`` (both wake when the last
request byte lands); it then hangs off ``call``, which always contains
it.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

import repro.dut.tracked as tracked_mod
from repro.channel import RPCChannel
from repro.core.client import BSoapClient
from repro.server.diffdeser import DifferentialDeserializer
from repro.server.service import SOAPService
from repro.wire.client import DeltaEncoder
from repro.wire.server import DeltaSession

#: One finished span: (call id, span id, parent span id, name, start ns, end ns).
Span = Tuple[int, int, int, str, int, int]

SPAN_FIELDS = ("call", "id", "parent", "name", "start_ns", "end_ns")
NS_PER_MS = 1e6

#: Spans whose per-call duration is reported as ``<name>_ms``.
DURATION_METRICS = (
    "lexical.format",
    "wire.encode",
    "wire.apply",
    "transport.send",
    "transport.recv",
    "service.handle",
    "server.decode",
    "server.handler",
    "server.respond",
    "channel.decode",
)


class Tracer:
    """In-memory span recorder shared by the client and server threads."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Off during warm-up and between rounds: nothing is recorded.
        self.enabled = False
        self.call_id = 0
        #: Counts taken at the span boundaries (server-side reports the
        #: client cannot see).
        self.counts: Dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: The client-side span a server-thread root span hangs off.
        self._remote_parent = 0
        self._call_span = 0

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def begin(self, name: str, under: Optional[str] = None, remote: bool = False):
        """Open a span on this thread; returns a token for :meth:`end`.

        *under* restricts recording to when the enclosing span on this
        thread has that name; *remote* makes server-thread spans hang
        off this one while it is open.
        """
        if not self.enabled:
            return None
        stack = self._stack()
        if under is not None and (not stack or stack[-1][1] != under):
            return None
        parent = stack[-1][0] if stack else self._remote_parent
        span_id = next(self._ids)
        stack.append((span_id, name))
        start_ns = time.perf_counter_ns()
        if remote:  # published after the clock is read: children start later
            self._remote_parent = span_id
        return span_id, parent, name, start_ns

    def end(self, token) -> None:
        if token is None:
            return
        end_ns = time.perf_counter_ns()
        span_id, parent, name, start_ns = token
        self._stack().pop()
        if self._remote_parent == span_id:
            self._remote_parent = self._call_span
        self.spans.append((self.call_id, span_id, parent, name, start_ns, end_ns))

    def begin_call(self):
        self.call_id += 1
        token = self.begin("call", remote=True)
        self._call_span = token[0] if token else 0
        return token

    def wrap(self, name: str, fn: Callable, under: Optional[str] = None) -> Callable:
        def traced(*args, **kwargs):
            token = self.begin(name, under)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(token)

        return traced


class TimedTransport:
    """``raw_transport=`` wrapper: spans around the two wire operations.

    ``channel.decode`` opens the moment the response bytes are in hand
    and is closed by :func:`trace_channel`'s ``recv_response`` wrapper.
    """

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.decode_token = None

    def send_message(self, views, total_bytes=None) -> int:
        token = self.tracer.begin("transport.send")
        try:
            return self.inner.send_message(views, total_bytes)
        finally:
            self.tracer.end(token)

    def recv_http_response(self, limit=None):
        token = self.tracer.begin("transport.recv", remote=True)
        try:
            response = self.inner.recv_http_response(limit)
        finally:
            self.tracer.end(token)
        self.decode_token = self.tracer.begin("channel.decode")
        return response

    def __getattr__(self, name):
        # connect / disconnect / close / reconnects / note_retry_after
        return getattr(self.inner, name)


def trace_channel(channel: RPCChannel, transport: TimedTransport) -> None:
    """Close ``channel.decode`` when the channel's ``recv_response`` returns."""
    recv_response = channel.recv_response

    def traced_recv_response():
        transport.decode_token = None
        try:
            return recv_response()
        finally:
            transport.tracer.end(transport.decode_token)

    channel.recv_response = traced_recv_response  # type: ignore[method-assign]


class TimedService(SOAPService):
    """The served service with a span around each admitted request."""

    def __init__(self, tracer: Tracer, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.tracer = tracer

    def handle_wire_vectored(self, body, headers, session_id=None):
        token = self.tracer.begin("service.handle")
        try:
            return super().handle_wire_vectored(body, headers, session_id)
        finally:
            self.tracer.end(token)


def install(tracer: Tracer, channel: RPCChannel) -> Callable[[], None]:
    """Wrap the layers' public entry points; returns the undo function.

    ``BSoapClient.send`` and ``DifferentialDeserializer.deserialize``
    serve both ends of the wire, so the wrappers tell the channel's own
    instances from the server sessions' by identity.
    """
    saved = [
        (BSoapClient, "send", BSoapClient.send),
        (DeltaEncoder, "try_encode", DeltaEncoder.try_encode),
        (DeltaSession, "apply", DeltaSession.apply),
        (DifferentialDeserializer, "deserialize", DifferentialDeserializer.deserialize),
        (tracked_mod, "format_double_array", tracked_mod.format_double_array),
        (tracked_mod, "format_double_fixed_blob", tracked_mod.format_double_fixed_blob),
    ]
    client_send = BSoapClient.send
    deserialize = DifferentialDeserializer.deserialize

    def send(self, message):
        name = "core.send" if self is channel.client else "server.respond"
        token = tracer.begin(name)
        try:
            return client_send(self, message)
        finally:
            tracer.end(token)

    def traced_deserialize(self, data):
        if self is channel.deserializer:  # the reply: inside channel.decode
            return deserialize(self, data)
        token = tracer.begin("server.decode")
        try:
            decoded, report = deserialize(self, data)
        finally:
            tracer.end(token)
        if token is not None:
            tracer.counts["server.leaves_parsed"] += report.leaves_parsed
        return decoded, report

    BSoapClient.send = send
    DeltaEncoder.try_encode = tracer.wrap("wire.encode", DeltaEncoder.try_encode)
    DeltaSession.apply = tracer.wrap("wire.apply", DeltaSession.apply)
    DifferentialDeserializer.deserialize = traced_deserialize
    for name in ("format_double_array", "format_double_fixed_blob"):
        setattr(
            tracked_mod,
            name,
            tracer.wrap("lexical.format", getattr(tracked_mod, name), under="core.send"),
        )

    def uninstall() -> None:
        for owner, name, original in saved:
            setattr(owner, name, original)

    return uninstall


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def _covered(intervals: List[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of ``[lo, hi]`` covered by the union of *intervals*."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_times(spans: List[Span], calls: Set[int]) -> Dict[str, float]:
    """Median-per-call layer times (ms) and coverage from a span list.

    Only the spans of *calls* count (the calls of the quiet rounds).

    A layer's self time is its duration minus the part of that interval
    its children cover; ``frontend.overhead`` is ``transport.recv``
    minus its overlap with ``service.handle`` whichever span that one
    hangs off.
    """
    by_call: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        by_call[span[0]].append(span)

    per_call: Dict[str, List[float]] = defaultdict(list)
    for call_id, call_spans in by_call.items():
        if call_id not in calls:
            continue
        durations: Dict[str, int] = defaultdict(int)
        children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        first: Dict[str, Span] = {}
        for span in call_spans:
            _, _, parent, name, start, end = span
            durations[name] += end - start
            children[parent].append((start, end))
            first.setdefault(name, span)
        root = first.get("call")
        if root is None:
            continue

        def self_ns(name: str) -> int:
            span = first.get(name)
            if span is None:
                return 0
            return (span[5] - span[4]) - _covered(children[span[1]], span[4], span[5])

        call_ns = root[5] - root[4]
        for name in DURATION_METRICS:
            per_call[name + "_ms"].append(durations[name] / NS_PER_MS)
        per_call["core.send_self_ms"].append(self_ns("core.send") / NS_PER_MS)
        per_call["service.self_ms"].append(self_ns("service.handle") / NS_PER_MS)
        recv, handle = first.get("transport.recv"), first.get("service.handle")
        overhead = 0
        if recv is not None:
            inside = [(handle[4], handle[5])] if handle is not None else []
            overhead = (recv[5] - recv[4]) - _covered(inside, recv[4], recv[5])
        per_call["frontend.overhead_ms"].append(overhead / NS_PER_MS)
        per_call["trace.coverage_share"].append(
            _covered(children[root[1]], root[4], root[5]) / call_ns if call_ns else 0.0
        )
    return {name: statistics.median(values) for name, values in per_call.items()}


def spans_as_rows(spans: List[Span]) -> Dict[str, object]:
    """The span file's content: a field list and one row per span."""
    return {"fields": list(SPAN_FIELDS), "spans": [list(span) for span in spans]}


def timed_handlers(tracer: Tracer) -> Dict[str, Callable]:
    """The ``loadgen.build_service`` operations the workloads call, timed."""

    def checksum(data):
        return float(np.sum(data))

    def echo(data):
        return data

    return {
        "checksum": tracer.wrap("server.handler", checksum),
        "echo": tracer.wrap("server.handler", echo),
    }

"""Request/response RPC channel with fault-tolerant differential sends.

Bundles the full client-side stack — bSOAP differential serialization,
HTTP framing, a reconnecting TCP connection, response parsing, and
SOAP Fault propagation — behind one ``call()``.  This is the
convenience layer a generated stub or an application uses against a
real :class:`~repro.server.threaded_server.HTTPSoapServer`.

Failure handling (see DESIGN.md §"Failure model and recovery"):

* Each ``call()`` runs under a :class:`~repro.resilience.retry.RetryPolicy`:
  retryable failures (connection reset, closed mid-response, HTTP 5xx,
  undecodable response) are retried with exponential backoff; fatal
  ones (SOAP Faults, malformed framing, 4xx) propagate immediately.
* A failed send epoch was already rolled back inside
  :class:`~repro.core.client.BSoapClient`; a failure *after* the send
  (response lost) additionally quarantines the template.  Either way
  the retry's resend is a forced full serialization that
  resynchronizes the server's differential deserializer.
* The transport is a :class:`~repro.resilience.reconnect.ReconnectingTCPTransport`
  — any transport error drops the socket, so a half-received response
  can never desynchronize request/response pairing; the retry dials a
  fresh connection.
* A :class:`~repro.resilience.breaker.CircuitBreaker` counts
  consecutive failed calls; once open, the channel degrades to plain
  full-serialization mode until enough calls succeed, then closes and
  differential sending resumes.
* Both outcomes are accounted in one place, :meth:`RPCChannel.answered`
  and :meth:`RPCChannel.lost`; a
  :class:`~repro.runtime.pipeline.PipelinedChannel` uses the same two,
  without the retry loop.

Semantics are at-least-once: a response lost after the server consumed
the request is retried, so non-idempotent operations may execute twice.

The reply direction runs through the same engine as the server's
request direction: a bounded fault peek (``Body``'s first child, never
the payload), then a skip-scan
:class:`~repro.server.diffdeser.DifferentialDeserializer`; and, when
the policy offers delta, a :class:`~repro.wire.server.DeltaSession`
mirroring the server's replies so steady-state answers arrive as RDF2
frames (``docs/wire_protocol.md``, "Reply direction").  A reply frame
the mirror cannot take is a :class:`~repro.errors.DeltaResyncError`
like the server's 409: drop the connection, resend full.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

from repro.core.client import BSoapClient
from repro.core.policy import DiffPolicy
from repro.core.stats import SendReport
from repro.obs import NULL_OBS, Observability
from repro.errors import (
    DeltaFrameError,
    DeltaResyncError,
    HTTPStatusError,
    ReproError,
    SOAPFaultError,
    TransportError,
)
from repro.hardening.limits import DEFAULT_LIMITS
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.budget import RetryBudget
from repro.resilience.reconnect import ReconnectingTCPTransport
from repro.resilience.retry import RetryPolicy, parse_retry_after
from repro.schema.registry import TypeRegistry
from repro.server.diffdeser import DeserReport, DifferentialDeserializer
from repro.server.parser import DecodedParam
from repro.soap.fault import SOAPFault
from repro.soap.message import SOAPMessage
from repro.soap.rpc import RPCResponse
from repro.transport.http import HTTPTransport
from repro.wire.server import DeltaSession, MirroredDocument

__all__ = ["RPCChannel"]


def _owned(param: DecodedParam):
    """*param*'s value as the caller may keep it.

    Array containers belong to the deserializer's template, which the
    next differential reply rewrites in place: hand out a copy (one
    memcpy per numeric array)."""
    if param.kind == "array":
        return param.value.copy()
    if param.kind == "struct_array":
        return {name: column.copy() for name, column in param.value.items()}
    return param.value


class RPCChannel:
    """A connected SOAP-RPC endpoint with differential serialization.

    Parameters
    ----------
    host, port:
        The HTTP SOAP server to connect to.
    registry:
        Type registry used to decode responses (struct types must be
        registered to round-trip).
    policy:
        Client policy; stuffing (e.g. ``StuffMode.MAX``) lets the
        server's differential deserializer work across requests.
    http_mode:
        ``"chunked"`` (HTTP/1.1, default) or ``"content-length"``.
    retry:
        Per-call retry schedule; default
        :class:`~repro.resilience.retry.RetryPolicy()`.  Pass
        ``RetryPolicy(max_attempts=1)`` to disable retries.
    breaker:
        Failure breaker; once open the channel sends full
        serializations only (never rejects calls).
    raw_transport:
        Override the byte transport (tests inject a
        :class:`~repro.resilience.faults.FaultInjectingTransport`
        here).  Must offer ``send_message`` / ``recv_http_response``.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        registry: Optional[TypeRegistry] = None,
        policy: Optional[DiffPolicy] = None,
        http_mode: str = "chunked",
        path: str = "/soap",
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        budget: Optional[RetryBudget] = None,
        raw_transport=None,
        obs: Optional[Observability] = None,
    ) -> None:
        if raw_transport is None:
            raw_transport = ReconnectingTCPTransport(host, port)
            raw_transport.connect()  # fail fast on a bad address
        self._raw = raw_transport
        #: Shared with the client and framer, so one registry serves
        #: the per-send counters, wire bytes, and call latency/retries.
        self.obs: Observability = obs if obs is not None else NULL_OBS
        resolved_policy = policy if policy is not None else DiffPolicy()
        self._http = HTTPTransport(
            self._raw,
            mode=http_mode,
            host=host,
            path=path,
            obs=self.obs,
            delta_offer=resolved_policy.delta.offer,
        )
        self.client = BSoapClient(self._http, resolved_policy, obs=self.obs)
        self.retry = retry or RetryPolicy()
        self.breaker = breaker or CircuitBreaker()
        #: Optional pool-wide retry budget (see
        #: :mod:`repro.resilience.budget`): each retry must win a
        #: token; a dry budget surfaces the original error instead of
        #: amplifying an overload.  None → per-call policy only.
        self.budget = budget
        #: Inbound bounds for replies and reply frames: the transport's,
        #: as for the response bytes themselves.
        self._limits = getattr(raw_transport, "limits", None) or DEFAULT_LIMITS
        # Responses are differentially deserialized: a service reusing
        # its response template sends same-skeleton bodies, so the
        # channel re-parses only the result values that changed —
        # built like a server session's request deserializer.
        self.deserializer = DifferentialDeserializer(
            registry, self._limits, obs=self.obs
        )
        self.deserializer.metric_prefix = "reply-"
        self.parser = self.deserializer.parser
        #: The reply store, when the policy offers delta (else None):
        #: full replies that announce a baseline deposit a mirror entry
        #: here, reply frames patch it.  Replies that announce nothing
        #: share the plain key ``None``.
        self.replies: Optional[DeltaSession] = (
            self.deserializer.store if resolved_policy.delta.offer else None
        )
        self.calls = 0
        self.faults = 0
        #: Failed attempts that were retried, channel lifetime total.
        self.retries_total = 0
        #: Retries the policy allowed but the shared budget denied.
        self.retries_denied = 0
        #: True once the channel hit a fatal transport problem with a
        #: non-reconnecting raw transport (it cannot recover).
        self.broken = False
        self.last_deser_report: Optional[DeserReport] = None
        # The reply store entry holding the most recent decoded response.
        self._last_response: Optional[MirroredDocument] = None
        # Counters may be read (channel_stats) while a pipelined
        # send/receive pair mutates them from two threads.
        self._stats_lock = threading.Lock()
        self.obs.watch(self)

    #: SendReport of the most recent call (match kind, rewrite stats,
    #: retry/rollback accounting).
    last_send_report: Optional[SendReport] = None

    @property
    def last_response_body(self) -> Optional[bytes]:
        """Raw body bytes of the most recent decoded response (oracle
        byte-equivalence checks in the concurrency tests).

        A reply that arrived as a frame exists only as the patched
        reply mirror; it is copied out here, when somebody asks, not
        on every call.
        """
        last = self._last_response
        return None if last is None else last.tobytes()

    # ------------------------------------------------------------------
    def call(self, message: SOAPMessage) -> RPCResponse:
        """Send *message*, await the HTTP response, decode it.

        Retries per :attr:`retry` on transient failures; raises
        :class:`~repro.errors.SOAPFaultError` when the server answered
        with a SOAP Fault, :class:`TransportError` (or a subclass) when
        the wire problem outlived the retry budget.

        The returned values are the caller's: arrays are copied out of
        the reply store entry's decode, so a reply kept across later
        calls never changes under its holder.
        """
        started = time.monotonic()
        failures = 0
        while True:
            try:
                report, response = self._attempt(message)
            except SOAPFaultError:
                # The round trip worked; the *server* answered a Fault.
                self.answered(started)
                raise
            except ReproError as exc:
                failures += 1
                self.lost(message)
                if not self.retry.retryable(exc):
                    raise
                # A server Retry-After hint (503 under admission
                # control) raises the backoff to at least the hint and
                # cools down the transport's redial.
                raw_hint = getattr(exc, "retry_after", None)
                hint = (
                    float(raw_hint)
                    if isinstance(raw_hint, (int, float))
                    else None
                )
                if hint is not None:
                    note = getattr(self._raw, "note_retry_after", None)
                    if note is not None:
                        note(min(hint, self.retry.max_delay))
                delay = self.retry.backoff(failures, hint=hint)
                if not self.retry.admits(
                    failures, time.monotonic() - started, delay
                ):
                    raise
                if self.budget is not None and not self.budget.try_spend():
                    # Policy says retry; the pool-wide budget says the
                    # fleet is already amplifying — surface the error.
                    with self._stats_lock:
                        self.retries_denied += 1
                    raise
                with self._stats_lock:
                    self.retries_total += 1
                time.sleep(delay)
                continue
            report.retries = failures
            self.answered(started, report)
            return response

    def _attempt(self, message: SOAPMessage):
        """One un-retried send/receive/decode cycle."""
        report = self.send_request(message)
        response = self.recv_response()
        return report, response

    # ------------------------------------------------------------------
    # one success rule and one failure rule (call() and
    # repro.runtime.pipeline share them)
    # ------------------------------------------------------------------
    def answered(self, started: float, report: Optional[SendReport] = None) -> None:
        """Account one completed round trip begun at *started*
        (``time.monotonic()``).

        *report* is the request's send report; ``None`` means the
        server answered a SOAP Fault, which counts as a success for the
        breaker and the retry budget but is neither timed nor reported.
        """
        self.breaker.record_success()
        if self.budget is not None:
            self.budget.record_success()
        with self._stats_lock:
            self.calls += 1
            if report is None:
                self.faults += 1
        if report is not None:
            self.last_send_report = report
            self.obs.record_call(time.monotonic() - started)

    def lost(self, *messages: SOAPMessage) -> None:
        """Account a failed round trip: delivery of *messages* is
        unconfirmed.

        Drop the connection (half a response may be buffered) with
        every delta baseline and reply mirror bound to it, and
        quarantine each message's templates, so the next send of each
        structure is a full resynchronizing serialization.
        """
        self.breaker.record_failure()
        self._mark_broken()
        for message in messages:
            self.client.quarantine(message)

    # ------------------------------------------------------------------
    # pipelining building blocks (see repro.runtime.pipeline)
    # ------------------------------------------------------------------
    def send_request(self, message: SOAPMessage) -> SendReport:
        """Serialize and transmit *message* without awaiting the reply.

        Half of one :meth:`call`: a pipelined sender issues several
        ``send_request``s back-to-back and a receiver matches
        :meth:`recv_response` replies in FIFO order.  The client's
        template epoch is rolled back on failure exactly as in
        :meth:`call`; the caller settles each round trip with
        :meth:`answered` or :meth:`lost`, and schedules any retry.
        """
        self.client.force_full = not self.breaker.allow_differential()
        return self.client.send(message)

    def recv_response(self) -> RPCResponse:
        """Receive and decode the next HTTP response on the connection."""
        tracing = self.obs.tracer.enabled
        if tracing:
            t0 = time.perf_counter()
        status, headers, body = self._raw.recv_http_response()
        with self._stats_lock:
            self.client.stats.bytes_received += len(body)
        wire = self.client.wire
        if status == 409 and headers.get("x-repro-delta-resync"):
            # The server lost (or refused) our delta mirror: treat as a
            # retryable transport problem — the retry path quarantines
            # the template, which forces a full resynchronizing resend.
            raise DeltaResyncError("server requested delta resync")
        if status != 200:
            raise HTTPStatusError(
                status, retry_after=parse_retry_after(headers.get("retry-after"))
            )
        if wire is not None and headers.get("x-repro-delta") == "1":
            wire.negotiated = True
        replies = self.replies
        if replies is not None and headers.get("x-repro-delta-frame") == "1":
            # Frames carry responder output only: never a fault.
            document = self._apply_reply_frame(replies, body)
        else:
            try:
                fault = SOAPFault.from_xml(body)
            except (ReproError, UnicodeDecodeError) as exc:
                raise TransportError(f"response undecodable: {exc}") from exc
            if fault is not None:
                # Before the store: a fault enters no entry.
                fault.raise_()
            document = self.deserializer.store.deposit(
                body, None, headers if replies is not None else None
            )
        try:
            # A header-only frame is the deserializer's content match:
            # the cached decode, no byte of the document read.
            decoded, deser_report = self.deserializer.deserialize(document)
        except (ReproError, UnicodeDecodeError) as exc:
            # A corrupted 200 body: the request likely succeeded but
            # the answer is unusable — classified retryable.
            raise TransportError(f"response undecodable: {exc}") from exc
        self.last_deser_report = deser_report
        self._last_response = document
        if tracing:
            self.obs.tracer.emit(
                "recv",
                duration_s=time.perf_counter() - t0,
                bytes=len(document),
                deser_kind=deser_report.kind.value,
                leaves_parsed=deser_report.leaves_parsed,
                total_leaves=deser_report.total_leaves,
            )
        return RPCResponse(
            operation=decoded.operation,
            values={p.name: _owned(p) for p in decoded.params},
        )

    def _apply_reply_frame(
        self, replies: DeltaSession, frame: bytes
    ) -> MirroredDocument:
        """Patch the reply mirror with *frame*."""
        try:
            document = replies.apply(frame, self._limits)
        except (DeltaFrameError, DeltaResyncError) as exc:
            # The mirror and the server's baseline disagree (apply
            # already dropped the mirror): the client-side 409.  The
            # retry drops the connection, so the server's next reply
            # is full XML with a fresh announce.
            replies.note(f"reply-resync-{exc.reason}")
            raise DeltaResyncError(
                f"reply frame rejected: {exc}", exc.reason
            ) from exc
        replies.note("reply-applied")
        return document

    def _mark_broken(self) -> None:
        """Drop the connection so no stale half-response survives."""
        if self.client.wire is not None:
            # A new connection means a new server session with no delta
            # mirrors: every template must re-announce its baseline.
            self.client.wire.reset_baselines()
        if self.replies is not None:
            # ... and a new responder that frames against none of ours.
            self.replies.clear()
        disconnect = getattr(self._raw, "disconnect", None)
        if disconnect is not None:
            disconnect()
        else:
            # A plain one-shot transport cannot reconnect: close it and
            # flag the channel so callers know it is dead.
            self._raw.close()
            self.broken = True

    # ------------------------------------------------------------------
    def channel_stats(self) -> Dict[str, object]:
        """Resilience counters for this channel (and its client).

        Snapshotted under the channel's stats lock, so concurrent
        readers never observe torn counter updates from a pipelined
        sender/receiver pair.
        """
        stats = self.client.stats
        with self._stats_lock:
            return {
                "calls": self.calls,
                "faults": self.faults,
                "retries": self.retries_total,
                "retries_denied": self.retries_denied,
                "reconnects": getattr(self._raw, "reconnects", 0),
                "rollbacks": stats.rollbacks,
                "forced_full_sends": stats.forced_full_sends,
                "breaker_state": self.breaker.state,
                "breaker_opens": self.breaker.opens,
            }

    def metric_samples(self) -> Dict[tuple, int]:
        """Retries and the reply mirror's frames (the client, the
        framer and the deserializer serve their own series)."""
        samples = {("repro_call_retries_total",): self.retries_total}
        replies = self.replies
        if replies is not None:
            samples["repro_delta_bytes_saved_total",] = replies.bytes_saved
            for outcome, count in replies.outcomes.copy().items():
                samples["repro_delta_frames_total", outcome] = count
        return samples

    def close(self) -> None:
        """Close the connection; leave the final counts to the registry."""
        self._raw.close()
        self.obs.retire(self, self.client, self._http, self.deserializer)

    def __enter__(self) -> "RPCChannel":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

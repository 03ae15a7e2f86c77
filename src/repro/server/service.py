"""SOAP service dispatch: operation registry, sessions, responses.

A :class:`SOAPService` maps operation names to Python handlers.
Incoming bodies are decoded by a per-session
:class:`~repro.server.diffdeser.DifferentialDeserializer`; responses
are serialized through a per-session internal
:class:`~repro.core.BSoapClient`, so a service answering the
same-shaped response repeatedly gets content/structural matches on the
*outgoing* side — the paper's §3.4 "heavily-used servers" scenario
(Google/Amazon-style fixed response schemas).

Sessions (see :mod:`repro.runtime.sessions`): differential
deserialization is stateful per *sender* and template, so the service
keeps one deserializer/responder pair per session id — its document
store holding one entry per template — behind a
:class:`~repro.runtime.sessions.ServerSessionManager`.
:class:`~repro.server.threaded_server.HTTPSoapServer` and
:class:`~repro.server.async_server.AsyncHTTPSoapServer` pass each
accepted connection's id, making ``handle`` safe and differential
under concurrent connections; direct ``handle(body)`` calls with no session id share the
pinned default session (single-caller usage, exactly the pre-session
behaviour).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple, Union

from repro.core.policy import DiffPolicy
from repro.core.stats import ClientStats
from repro.errors import (
    AdmissionRejectedError,
    DeltaFrameError,
    DeltaResyncError,
    LexicalError,
    ResourceLimitError,
    SchemaError,
    SOAPError,
    XMLError,
)
from repro.hardening.limits import DEFAULT_LIMITS, ResourceLimits
from repro.hardening.overload import AdmissionController, MemoryAccountant
from repro.obs import Observability
from repro.runtime.sessions import (
    DeserializerView,
    ServerSession,
    ServerSessionManager,
)
from repro.schema.composite import ArrayType, StructType
from repro.schema.registry import TypeRegistry
from repro.schema.types import XSDType
from repro.server.tagdispatch import OperationPeeker
from repro.soap.fault import SOAPFault
from repro.soap.message import Parameter, SOAPMessage
from repro.soap.rpc import RESPONSE_SUFFIX
from repro.wire.server import MirroredDocument

__all__ = [
    "Operation",
    "SOAPService",
    "ResponsePayload",
]

ParamType = Union[XSDType, StructType, ArrayType]
Handler = Callable[..., object]


@dataclass(slots=True)
class ResponsePayload:
    """One response as the segment views the serializer produced.

    ``views`` are zero-copy chunk views for a differentially rewritten
    response (or a single joined segment for faults and first-time
    serializations); ``total`` is their byte sum.  Views alias the
    session responder's live buffers — valid until the *same session*
    handles its next request, so front ends must finish writing a
    response before dispatching the connection's next request.

    ``frame`` marks the body as a binary delta frame against the
    client's reply mirror; ``announce`` is the ``(template id, epoch)``
    baseline a full-XML body establishes for later frames.  Both stay
    unset for clients that did not declare a reply mirror, and for
    faults, which never enter differential state.
    """

    views: List = field(default_factory=list)
    total: int = 0
    frame: bool = False
    announce: Optional[Tuple[int, int]] = None

    @classmethod
    def of(cls, data: bytes) -> "ResponsePayload":
        return cls([data] if data else [], len(data))

    def tobytes(self) -> bytes:
        """Flatten to contiguous bytes (copying compatibility path)."""
        if len(self.views) == 1 and isinstance(self.views[0], bytes):
            return self.views[0]
        return b"".join(bytes(v) for v in self.views)


class Operation:
    """One service operation: typed inputs, a handler, a typed result."""

    def __init__(
        self,
        name: str,
        handler: Handler,
        *,
        result_type: Optional[ParamType] = None,
        result_name: str = "return",
    ) -> None:
        self.name = name
        self.handler = handler
        self.result_type = result_type
        self.result_name = result_name


class SOAPService:
    """Operation registry + request dispatch (see module docstring)."""

    def __init__(
        self,
        namespace: str,
        registry: Optional[TypeRegistry] = None,
        *,
        response_policy: Optional[DiffPolicy] = None,
        delta_enabled: bool = True,
        definition: Optional[object] = None,
        max_sessions: int = 256,
        obs: Optional[Observability] = None,
        limits: Optional[ResourceLimits] = None,
        admission: Optional[AdmissionController] = None,
    ) -> None:
        self.namespace = namespace
        #: Accept the client's ``X-Repro-Delta`` offer and serve binary
        #: delta frames, in both directions.  Off → offers are ignored
        #: (no ack header), so clients stay on full XML; frames are
        #: answered with a resync and replies are never framed.
        self.delta_enabled = delta_enabled
        #: Optional :class:`~repro.wsdl.model.ServiceDef` for WSDL serving.
        self.definition = definition
        self.registry = registry or TypeRegistry()
        #: Inbound resource limits shared by every layer serving this
        #: service: the HTTP front end (framing/body/deadline caps),
        #: each session's parser (depth/element/attribute/token caps),
        #: and :meth:`handle`'s own body-size check.
        self.limits = limits if limits is not None else DEFAULT_LIMITS
        self._operations: Dict[str, Operation] = {}
        self._peeker = OperationPeeker(())
        # A WSDL definition gates each session's skip-scan seek table
        # behind generated message descriptors (``docs/skipscan.md``).
        descriptors: Optional[Dict[str, type]] = None
        if definition is not None:
            from repro.wsdl.stubgen import generate_descriptors

            descriptors = generate_descriptors(definition)
        #: Metrics are on by default server-side (tracing stays off):
        #: every session registers with this registry, which is what
        #: ``GET /metrics`` on the HTTP front ends serves.
        self.obs: Observability = (
            obs if obs is not None else Observability.metrics_only()
        )
        if self.obs.metrics is not None:
            # Counted on each ServerSession, under its lock.
            self.obs.metrics.counter(
                "repro_requests_handled_total",
                "Requests dispatched to a handler successfully",
            )
            self.obs.metrics.counter(
                "repro_faults_returned_total",
                "Requests answered with a SOAP Fault",
            )
            self.obs.metrics.counter(
                "repro_requests_rejected_total",
                "Requests rejected before dispatch, by reason",
                ("reason",),
            )
        #: Optional admission gates fronting :meth:`handle_wire` (the
        #: HTTP request path).  None → every request is admitted, the
        #: pre-overload behaviour.  ``GET /metrics`` and ``?wsdl`` are
        #: served by the front end before this and stay reachable
        #: during overload.
        self.admission = admission
        if admission is not None:
            self.obs.watch(admission)  # repro_admission_total{outcome}
        shed_fraction = (
            admission.policy.shed_target_fraction
            if admission is not None
            else 0.8
        )
        #: Byte ledger for all per-session state, budgeted by
        #: ``limits.max_state_bytes``.  Always on: the gauges it feeds
        #: cost a handful of integer adds per request, and the relief
        #: ladder only engages past the budget.
        self.accountant = MemoryAccountant(
            self.limits.max_state_bytes,
            shed_target_fraction=shed_fraction,
            obs=self.obs,
        )
        # Reply frames ride the same switch as request frames: each
        # session's responder gets a delta encoder exactly when the
        # service serves the protocol.  The policy's frame gates
        # (max_splices, max_frame_fraction) apply to replies as given.
        if response_policy is None:
            response_policy = DiffPolicy()
        response_policy = replace(
            response_policy,
            delta=replace(response_policy.delta, offer=delta_enabled),
        )
        self.sessions = ServerSessionManager(
            self.registry,
            response_policy,
            max_sessions=max_sessions,
            obs=self.obs,
            limits=self.limits,
            descriptors=descriptors,
            accountant=self.accountant,
        )

    # ------------------------------------------------------------------
    def register(self, operation: Operation) -> Operation:
        if operation.name in self._operations:
            raise SOAPError(f"operation {operation.name!r} already registered")
        self._operations[operation.name] = operation
        self._peeker.add(operation.name)
        return operation

    def operation(
        self,
        name: str,
        *,
        result_type: Optional[ParamType] = None,
        result_name: str = "return",
    ):
        """Decorator form of :meth:`register`."""

        def wrap(fn: Handler) -> Handler:
            self.register(
                Operation(name, fn, result_type=result_type, result_name=result_name)
            )
            return fn

        return wrap

    @classmethod
    def from_definition(cls, definition, handlers: Dict[str, Handler], **kw) -> "SOAPService":
        """Build a service from a WSDL :class:`ServiceDef` + handlers.

        Operation result names/types come from the definition's output
        parts; *handlers* maps operation names to callables.  The
        resulting service can serve its own WSDL over HTTP
        (``GET <path>?wsdl``).
        """
        service = cls(
            definition.namespace,
            definition.registry,
            definition=definition,
            **kw,
        )
        for op_def in definition.operations:
            handler = handlers.get(op_def.name)
            if handler is None:
                raise SOAPError(f"no handler supplied for operation {op_def.name!r}")
            result_type = op_def.output.ptype if op_def.output else None
            result_name = op_def.output.name if op_def.output else "return"
            service.register(
                Operation(
                    op_def.name,
                    handler,
                    result_type=result_type,
                    result_name=result_name,
                )
            )
        return service

    def wsdl(self) -> bytes:
        """The service's WSDL document (requires a definition)."""
        if self.definition is None:
            raise SOAPError("service has no WSDL definition attached")
        from repro.wsdl.emit import emit_wsdl

        return emit_wsdl(self.definition)

    @property
    def deserializer(self) -> DeserializerView:
        """Aggregate view over every session's deserializer.

        Offers ``stats`` / ``has_template`` / ``reset`` summed across
        sessions; with a single caller (no session ids) the numbers are
        identical to the lone deserializer's own.
        """
        return self.sessions.deserializer_view()

    @property
    def response_stats(self) -> ClientStats:
        """Match-kind counters for outgoing responses (all sessions)."""
        return self.sessions.merged_response_stats()

    @property
    def requests_handled(self) -> int:
        return self.sessions.merged_counters()["requests_handled"]

    @property
    def faults_returned(self) -> int:
        return self.sessions.merged_counters()["faults_returned"]

    # ------------------------------------------------------------------
    def handle(
        self, body: bytes, session_id: Optional[Hashable] = None
    ) -> bytes:
        """Decode a request body, dispatch, return the response bytes.

        *session_id* scopes the differential deserializer and response
        templates; connection front ends pass a per-connection id, and
        ``None`` selects the shared default session.
        """
        session = self.sessions.acquire(session_id)
        try:
            with session.lock:
                try:
                    return self._handle_in_session(session, body)
                finally:
                    self.sessions.note_usage(session)
        finally:
            self.sessions.release(session)
            self.sessions.relieve_pressure()

    def _handle_in_session(self, session: ServerSession, body: bytes) -> bytes:
        return self._handle_in_session_views(session, body).tobytes()

    def _handle_in_session_views(
        self,
        session: ServerSession,
        body: Union[bytes, MirroredDocument],
        mirrored: bool = False,
        announce: Optional[Dict[str, str]] = None,
    ) -> ResponsePayload:
        """Decode, dispatch, serialize.  *body* is the request XML, or
        the session store entry a frame just patched.  Full XML is
        held in the store under the template id its *announce* headers
        name, else under its operation.  *mirrored*: the caller holds a
        reply mirror, so the response may be a frame or an announce."""
        try:
            mirrored_body = isinstance(body, MirroredDocument)
            document = body.buffer if mirrored_body else body
            if len(document) > self.limits.max_body_bytes:
                raise ResourceLimitError(
                    f"request body of {len(document)} bytes exceeds "
                    f"max_body_bytes={self.limits.max_body_bytes}",
                    "max_body_bytes",
                )
            # Trie peek (Chiu et al.'s tag-trie optimization applied
            # to dispatch): an unknown operation tag faults before any
            # parsing work is spent on the body.  A document that is
            # the one last decoded passed it then, and is not peeked.
            if not (mirrored_body and body.unchanged):
                status, peeked = self._peeker.classify(document)
                if status == "unknown":
                    raise SOAPError(f"unknown operation {peeked!r}")
            if not mirrored_body:
                body = session.delta.deposit(body, peeked, announce)
            decoded, _report = session.deserializer.deserialize(body)
            op = self._operations.get(decoded.operation)
            if op is None:
                raise SOAPError(f"unknown operation {decoded.operation!r}")
            kwargs = {p.name: p.value for p in decoded.params}
            try:
                result = op.handler(**kwargs)
            except TypeError as exc:
                # An arity/keyword mismatch between the wire message
                # and the handler signature is the caller's fault, not
                # a server bug — fuzzer-built envelopes with the wrong
                # parameter set land here.
                raise SOAPError(
                    f"bad parameters for {op.name!r}: {exc}"
                ) from exc
            session.requests_handled += 1
            return self._serialize_response(session, op, result, mirrored)
        except (SOAPError, XMLError, LexicalError, SchemaError) as exc:
            # Anything the request bytes can provoke in the scan /
            # parse / decode layers is the client's fault: answer a
            # well-formed Client fault, never a traceback.
            session.faults_returned += 1
            reason = (
                exc.limit_name
                if isinstance(exc, ResourceLimitError) and exc.limit_name
                else type(exc).__name__
            )
            session.rejected[reason] = session.rejected.get(reason, 0) + 1
            return ResponsePayload.of(SOAPFault.client(str(exc)).to_xml())
        except Exception as exc:  # handler bug → Server fault
            session.faults_returned += 1
            return ResponsePayload.of(
                SOAPFault.server(f"{type(exc).__name__}: {exc}").to_xml()
            )

    # ------------------------------------------------------------------
    # delta-aware front-end entry point
    # ------------------------------------------------------------------
    def handle_wire(
        self,
        body: bytes,
        headers: Dict[str, str],
        session_id: Optional[Hashable] = None,
    ) -> Tuple[int, List[str], bytes]:
        """Handle one request with its HTTP *headers* in view.

        The delta-aware superset of :meth:`handle`: binary frames are
        patched into their entry of the session's document store and
        the normal SOAP pipeline decodes that entry, announced full-XML
        bodies deposit mirror entries, and offers are acknowledged.  Returns ``(status,
        extra_header_lines, response_body)`` for the front end to frame
        — status 200 with the SOAP response, or 409 with an empty body
        and ``X-Repro-Delta-Resync: 1`` when the client must fall back
        to full XML.  For a client that declared a reply mirror
        (``x-repro-delta-reply: 1``) the 200 body is either full XML
        whose header lines announce a baseline or, with
        ``X-Repro-Delta-Frame: 1`` among them, a binary frame against
        it (``docs/wire_protocol.md``, "Reply direction").

        *headers* keys must be lowercase (as
        :func:`~repro.transport.http.parse_http_request` produces).

        With an :class:`~repro.hardening.AdmissionController`
        attached, requests pass its gates first; a rejection returns
        ``503`` with a ``Retry-After`` hint and touches no session
        state at all (rejection must stay cheaper than service).
        """
        status, extra, payload = self.handle_wire_vectored(
            body, headers, session_id
        )
        return status, extra, payload.tobytes()

    def handle_wire_vectored(
        self,
        body: bytes,
        headers: Dict[str, str],
        session_id: Optional[Hashable] = None,
    ) -> Tuple[int, List[str], ResponsePayload]:
        """:meth:`handle_wire` without the final flatten.

        The zero-copy entry point for vectored front ends: the
        response comes back as a :class:`ResponsePayload` whose views
        go straight into a ``sendmsg`` iovec.  The views alias the
        session's live response buffers — the caller must finish (or
        abandon) the write before this session handles another
        request.
        """
        if self.admission is not None:
            try:
                self.admission.try_admit()
            except AdmissionRejectedError as exc:
                return (
                    503,
                    [f"Retry-After: {exc.retry_after}"],
                    ResponsePayload(),
                )
        try:
            return self._handle_wire_admitted(body, headers, session_id)
        finally:
            if self.admission is not None:
                self.admission.release()

    def _handle_wire_admitted(
        self,
        body: bytes,
        headers: Dict[str, str],
        session_id: Optional[Hashable],
    ) -> Tuple[int, List[str], ResponsePayload]:
        accepted = self.delta_enabled and headers.get("x-repro-delta") == "1"
        # The client also keeps a mirror of our replies.
        mirrored = accepted and headers.get("x-repro-delta-reply") == "1"
        extra: List[str] = ["X-Repro-Delta: 1"] if accepted else []
        session = self.sessions.acquire(session_id)
        try:
            with session.lock:
                try:
                    session.bytes_received += len(body)
                    if headers.get("x-repro-delta-frame") == "1":
                        status, response = self._handle_frame(
                            session, body, mirrored
                        )
                        if status != 200:
                            return status, ["X-Repro-Delta-Resync: 1"], response
                    else:
                        response = self._handle_in_session_views(
                            session, body, mirrored, headers if accepted else None
                        )
                    session.bytes_sent += response.total
                    if response.frame:
                        extra.append("X-Repro-Delta-Frame: 1")
                    elif response.announce is not None:
                        extra.append(
                            "X-Repro-Delta-Template: %d" % response.announce[0]
                        )
                        extra.append(
                            "X-Repro-Delta-Epoch: %d" % response.announce[1]
                        )
                    return 200, extra, response
                finally:
                    self.sessions.note_usage(session)
        finally:
            self.sessions.release(session)
            self.sessions.relieve_pressure()

    def _handle_frame(
        self, session: ServerSession, body: bytes, mirrored: bool
    ) -> Tuple[int, ResponsePayload]:
        """Patch a session mirror entry with a delta frame and run the
        SOAP pipeline on it."""
        if not self.delta_enabled:
            session.delta.note("resync-disabled")
            return 409, ResponsePayload()
        try:
            document = session.delta.apply(body, self.limits)
        except (DeltaFrameError, DeltaResyncError) as exc:
            # A bad frame is a protocol-state problem, not a SOAP
            # fault: drop to 409 so the client re-announces.  The
            # mirror is already gone (apply drops it before raising).
            session.delta.note(f"resync-{exc.reason}")
            return 409, ResponsePayload()
        session.delta.note("applied")
        return 200, self._handle_in_session_views(session, document, mirrored)

    def _serialize_response(
        self,
        session: ServerSession,
        op: Operation,
        result: object,
        mirrored: bool,
    ) -> ResponsePayload:
        params: List[Parameter] = []
        if op.result_type is not None:
            params.append(Parameter(op.result_name, op.result_type, result))
        message = SOAPMessage(
            operation=op.name + RESPONSE_SUFFIX,
            namespace=self.namespace,
            params=params,
        )
        wire = session.responder.wire
        if wire is not None and wire.negotiated != mirrored:
            # The peer started (or stopped) mirroring replies: nothing
            # announced under the other regime ever reached a mirror.
            wire.negotiated = mirrored
            wire.reset_baselines()
        session.responder.send(message)
        sink = session.sink
        announce = sink.take_announce()
        return ResponsePayload(
            sink.views(),
            sink.last_bytes(),
            sink.is_frame,
            announce if mirrored else None,
        )

"""Server/client resource limits — one config object for every layer.

A production SOAP endpoint ("heavy traffic from millions of users",
ROADMAP.md) cannot trust any byte it receives: a request may be
oversized, absurdly nested, attribute-bombed, slow-trickled, or plain
garbage.  :class:`ResourceLimits` is the single knob set shared by the
scanner (:mod:`repro.xmlkit.scanner`), the request parser
(:mod:`repro.server.parser`), the HTTP front ends
(:class:`~repro.server.threaded_server.HTTPSoapServer`,
:class:`~repro.transport.dummy_server.DummyServer`) and the client
transports (:class:`~repro.transport.tcp.TCPTransport` and its
resilience wrappers), so both sides of a connection agree on one
configurable bound instead of scattered hardcoded ``1 << 24`` caps.

Every limit maps to a deterministic, *answered* rejection — a
:class:`~repro.errors.ResourceLimitError` (serialized as a SOAP Client
fault) at the XML layers, or a clean HTTP 400/408/413/503 at the
framing layer — never a raw traceback, a hang, or a silently dropped
socket.  ``docs/failure_model.md`` tabulates which limit maps to which
rejection.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["ResourceLimits", "DEFAULT_LIMITS", "UNLIMITED"]


@dataclass(frozen=True, slots=True)
class ResourceLimits:
    """Bounds enforced on inbound traffic (see module docstring).

    The defaults are generous enough for every legitimate workload in
    the benchmarks (multi-MiB arrays, thousands of pipelined calls)
    while keeping adversarial input bounded.  All byte/count limits
    are inclusive: a message *at* the limit is accepted, one unit past
    it is rejected.
    """

    #: Largest accepted SOAP body (request payload) in bytes.
    max_body_bytes: int = 1 << 24  # 16 MiB
    #: Largest accepted HTTP header block in bytes.
    max_header_bytes: int = 1 << 16  # 64 KiB
    #: Deepest accepted XML element nesting.
    max_xml_depth: int = 64
    #: Most elements accepted in one document.
    max_xml_elements: int = 1 << 20
    #: Most attributes accepted on one element.
    max_attributes: int = 64
    #: Longest accepted single token (tag name, attribute name/value).
    max_token_bytes: int = 1 << 16  # 64 KiB
    #: Seconds a connection may take to deliver one complete request
    #: once its first byte arrived (slow-trickle guard → HTTP 408).
    read_deadline: float = 30.0
    #: Requests served on one connection before it is closed (503).
    max_requests_per_connection: int = 100_000
    #: Concurrent connections accepted by a server front end (503).
    max_concurrent_connections: int = 128
    #: Most splices accepted in one binary delta frame (resync).
    max_delta_splices: int = 1 << 17
    #: Largest accepted binary delta frame in bytes (resync).  Framing
    #: already caps it at ``max_body_bytes``; this is the tighter bound
    #: a patch-sized payload should never legitimately reach.
    max_delta_frame_bytes: int = 1 << 24
    #: Template entries — a mirror or plain document with its decode —
    #: each session direction's document store keeps (LRU beyond this;
    #: an evicted template's next frame answers resync and the client
    #: re-announces).
    max_delta_mirrors: int = 4
    #: Global byte budget for *all* per-session server state —
    #: deserializer templates, compiled seek tables, delta mirrors,
    #: response templates — summed across sessions.  Crossing it
    #: triggers tiered pressure relief (mirrors → seek tables → LRU
    #: sessions; see :mod:`repro.hardening.overload`), never a
    #: rejection: every shed tier has a correct slow-path recovery.
    max_state_bytes: int = 1 << 26  # 64 MiB

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value <= 0:
                raise ValueError(f"{f.name} must be positive, got {value!r}")

    # ------------------------------------------------------------------
    @property
    def recv_cap(self) -> int:
        """Total bytes a client buffers for one HTTP response.

        Header allowance plus body allowance — the bound the transports'
        ``recv_http_response`` enforces instead of a hardcoded cap.
        """
        return self.max_header_bytes + self.max_body_bytes

    def replace(self, **overrides: object) -> "ResourceLimits":
        """A copy with *overrides* applied (convenience for tests)."""
        from dataclasses import replace as _replace

        return _replace(self, **overrides)


#: The shared default instance; layers that receive ``limits=None``
#: fall back to this.
DEFAULT_LIMITS = ResourceLimits()

#: Effectively-unbounded limits for trusted/benchmark paths that must
#: not reject anything (still finite so arithmetic stays safe).
UNLIMITED = ResourceLimits(
    max_body_bytes=1 << 40,
    max_header_bytes=1 << 30,
    max_xml_depth=1 << 20,
    max_xml_elements=1 << 40,
    max_attributes=1 << 20,
    max_token_bytes=1 << 32,
    read_deadline=86_400.0,
    max_requests_per_connection=1 << 40,
    max_concurrent_connections=1 << 20,
    max_delta_splices=1 << 30,
    max_delta_frame_bytes=1 << 40,
    max_delta_mirrors=1 << 10,
    max_state_bytes=1 << 50,
)

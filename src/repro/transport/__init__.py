"""Transports: where serialized bytes go.

The paper measures *Send Time*: preparing the message and pushing it
through ``send()`` system calls to a dummy server that never parses.
This package provides that whole spectrum:

* :class:`~repro.transport.loopback.NullSink` — discards (pure
  serialization cost),
* :class:`~repro.transport.loopback.MemcpySink` — copies into a drain
  buffer (models the kernel copy without a socket),
* :class:`~repro.transport.tcp.TCPTransport` — a real socket
  (TCP_NODELAY, keep-alive; the paper's 32 KiB send/recv buffers when
  the figure rig passes ``PAPER_SOCKET_OPTIONS``) and scatter-gather
  ``sendmsg``,
* :class:`~repro.transport.http.HTTPTransport` — SOAP-over-HTTP
  framing: HTTP/1.0 Content-Length or HTTP/1.1 chunked streaming,
* :class:`~repro.transport.dummy_server.DummyServer` — the paper's
  drain-only server, threaded, for benches and tests.
"""

from repro.transport.base import Transport
from repro.transport.loopback import CollectSink, MemcpySink, NullSink
from repro.transport.tcp import TCPTransport, PAPER_SOCKET_OPTIONS
from repro.transport.http import HTTPTransport, parse_http_request
from repro.transport.dummy_server import DummyServer
from repro.transport.timing import SendTimer

__all__ = [
    "Transport",
    "NullSink",
    "MemcpySink",
    "CollectSink",
    "TCPTransport",
    "PAPER_SOCKET_OPTIONS",
    "HTTPTransport",
    "parse_http_request",
    "DummyServer",
    "SendTimer",
]

"""Server side: parsing, dispatch, and differential deserialization.

The paper's evaluation server is a drain
(:class:`~repro.transport.dummy_server.DummyServer`); this package is
the *real* server the examples and integration tests use:

* :mod:`repro.server.parser` — schema-guided full SOAP request
  parsing (the baseline cost),
* :mod:`repro.server.diffdeser` — **differential deserialization**,
  the paper's §6 future-work idea: keep the previous raw message and
  its value-span map; when a new message matches the stored skeleton,
  byte-compare and re-parse only the spans that changed,
* :mod:`repro.server.service` — operation registry + dispatch +
  response serialization through a bSOAP client (so responses benefit
  from differential serialization too, the "heavily-used servers"
  scenario of §3.4),
* :mod:`repro.server.http_core` — the sans-IO HTTP protocol core
  (framing, rejection taxonomy, response heads, GET endpoints) under
  every front end,
* :mod:`repro.server.threaded_server` and
  :mod:`repro.server.async_server` — its two I/O drivers, thread per
  connection and the C10K event loop (``docs/async_server.md``);
  :func:`make_server` is the ``server="threaded"|"async"`` switch.
"""

from repro.server.parser import DecodedMessage, DecodedParam, SOAPRequestParser
from repro.server.diffdeser import DeserKind, DeserReport, DifferentialDeserializer
from repro.server.service import Operation, SOAPService
from repro.server.threaded_server import HTTPSoapServer
from repro.server.async_server import AsyncHTTPSoapServer, SERVER_MODES, make_server
from repro.server.tagdispatch import OperationPeeker

__all__ = [
    "SOAPRequestParser",
    "DecodedMessage",
    "DecodedParam",
    "DifferentialDeserializer",
    "DeserKind",
    "DeserReport",
    "SOAPService",
    "Operation",
    "HTTPSoapServer",
    "AsyncHTTPSoapServer",
    "SERVER_MODES",
    "make_server",
    "OperationPeeker",
]

"""bSOAP — Differential Serialization for Optimized SOAP Performance.

A from-scratch Python reproduction of Abu-Ghazaleh, Lewis &
Govindaraju's HPDC 2004 system: a SOAP stack whose client stub saves
serialized messages as templates and, on later sends, re-serializes
only the values that changed (tracked through a Data Update Tracking
table), with message chunking, on-the-fly expansion (shifting),
whitespace stuffing, and chunk overlaying.  The paper's per-value
shifting and slack stealing live on as a reference in
:mod:`repro.baselines.paper_expansion`.

Quickstart::

    import numpy as np
    from repro import BSoapClient, Parameter, SOAPMessage
    from repro.schema import ArrayType, DOUBLE
    from repro.transport import MemcpySink

    client = BSoapClient(MemcpySink())
    msg = SOAPMessage(
        "putVector", "urn:solver",
        [Parameter("x", ArrayType(DOUBLE), np.linspace(0, 1, 1000))],
    )
    call = client.prepare(msg)
    first = call.send()                    # full serialization
    again = call.send()                    # content match: bytes reused
    call.tracked("x")[42] = 3.14           # dirty one value
    diff = call.send()                     # rewrites exactly one field
"""

from repro.core import (
    BSoapClient,
    DeltaPolicy,
    DiffPolicy,
    MatchKind,
    MessageTemplate,
    OverlayPolicy,
    PreparedCall,
    SendReport,
    StuffMode,
    StuffingPolicy,
    build_template,
)
from repro.channel import RPCChannel
from repro.errors import ReproError
from repro.hardening import DEFAULT_LIMITS, ResourceLimits
from repro.resilience import (
    CircuitBreaker,
    FaultInjectingTransport,
    FaultSpec,
    ReconnectingTCPTransport,
    RetryPolicy,
)
from repro.runtime import (
    ClientPool,
    PipelinedChannel,
    PipelinedSender,
    ServerSessionManager,
)
from repro.soap import Parameter, SOAPMessage
from repro.wire import DeltaEncoder, DeltaLoopback, DeltaSession

__version__ = "1.0.0"

__all__ = [
    "BSoapClient",
    "PreparedCall",
    "DiffPolicy",
    "StuffingPolicy",
    "StuffMode",
    "OverlayPolicy",
    "DeltaPolicy",
    "DeltaEncoder",
    "DeltaSession",
    "DeltaLoopback",
    "MatchKind",
    "SendReport",
    "MessageTemplate",
    "build_template",
    "SOAPMessage",
    "Parameter",
    "RPCChannel",
    "RetryPolicy",
    "CircuitBreaker",
    "ReconnectingTCPTransport",
    "FaultSpec",
    "FaultInjectingTransport",
    "ClientPool",
    "PipelinedChannel",
    "PipelinedSender",
    "ServerSessionManager",
    "ResourceLimits",
    "DEFAULT_LIMITS",
    "ReproError",
    "__version__",
]

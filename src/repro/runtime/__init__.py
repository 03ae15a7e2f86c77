"""Concurrent runtime: client pools, request pipelining, server sessions.

The paper measures one stub, one template, one connection.  This
package is the layer that makes differential serialization hold up
under many concurrent clients (the ROADMAP's "heavy traffic" north
star), built on PR 1's resilience machinery:

* :class:`~repro.runtime.pool.ClientPool` — N exclusively-checked-out
  :class:`~repro.channel.RPCChannel`\\ s with per-channel template
  sessions and health-aware replacement,
* :class:`~repro.runtime.pipeline.PipelinedChannel` /
  :class:`~repro.runtime.pipeline.PipelinedSender` — overlap the
  differential rewrite of call *i+1* with call *i*'s response wait
  (bounded in-flight window, backpressure) on one connection; every
  outcome goes through the channel's own success/failure rule,
* :class:`~repro.runtime.sessions.ServerSessionManager` — one
  differential deserializer + response-template serializer per
  accepted connection, behind a locked LRU registry,
* :mod:`repro.runtime.loadgen` — the calls/sec + latency-percentile
  harness behind ``benchmarks/bench_runtime_throughput.py``.

See ``docs/runtime.md`` for the design and the template-per-connection
invariant both sides enforce.
"""

from repro.runtime.sessions import (
    DeserializerView,
    ServerSession,
    ServerSessionManager,
)

__all__ = [
    "ClientPool",
    "PipelinedCall",
    "PipelinedChannel",
    "PipelinedSender",
    "ServerSession",
    "ServerSessionManager",
    "DeserializerView",
]

# The client-side classes import repro.channel, which itself imports
# the server package that imports repro.runtime.sessions — so they are
# loaded lazily (PEP 562) to keep the package import-order neutral.
_LAZY = {
    "ClientPool": "repro.runtime.pool",
    "PipelinedCall": "repro.runtime.pipeline",
    "PipelinedChannel": "repro.runtime.pipeline",
    "PipelinedSender": "repro.runtime.pipeline",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.runtime' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)

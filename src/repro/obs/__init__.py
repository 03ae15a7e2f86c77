"""``repro.obs`` — observability for the differential send path.

The paper's argument is quantitative: *which* match level a call hit
and how many bytes were rewritten / shifted / resent decide whether
differential serialization paid off.  This package makes those facts
observable on a live system without scattering ad-hoc counters:

* :class:`~repro.obs.trace.RecordingTracer` — structured spans
  (``serialize``, ``match-classify``, ``rewrite``, ``shift``,
  ``stuff``, ``overlay``, ``send``, ``recv``) with
  template-id / match-level / dirty-count attributes;
* :class:`~repro.obs.metrics.MetricsRegistry` — counters and
  histograms (calls per match level, bytes, rewrite work, latency)
  aggregated across a :class:`~repro.runtime.pool.ClientPool`, a
  :class:`~repro.runtime.pipeline.PipelinedSender`, or a
  :class:`~repro.runtime.sessions.ServerSessionManager`;
* :mod:`~repro.obs.export` — Prometheus text format (served by
  ``HTTPSoapServer`` under ``GET /metrics``) and the standard
  ``repro-bench-result/1`` JSON.

The :class:`Observability` facade bundles one tracer + one registry.
Counting components keep their counters on their own attributes and
register themselves with :meth:`Observability.watch`; the registry
reads them when scraped (see :mod:`repro.obs.metrics`).  The default
is the shared :data:`NULL_OBS`: every guarded site then costs exactly
one attribute load and branch (``if obs.enabled:``), verified by the
overhead guard in ``tests/test_obs_overhead.py``.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import (
    NULL_TRACER,
    SPAN_NAMES,
    NullTracer,
    RecordingTracer,
    Span,
)

__all__ = [
    "Observability",
    "NULL_OBS",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS",
    "RecordingTracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "SPAN_NAMES",
]

#: Every series a registry declares up front, so ``GET /metrics`` has
#: the same HELP/TYPE lines whichever components have attached so far:
#: ``name{label names}`` → HELP.  Counters unless :data:`_KINDS` says
#: otherwise; who owns each count is in ``docs/observability.md``.
_SERIES = {
    "repro_sends_total{kind}": "Client sends by match level",
    "repro_send_bytes_total{kind}": "Payload bytes sent by match level",
    "repro_send_duration_seconds{kind}": (
        "Client-side serialize+transmit time by match level"
    ),
    "repro_values_rewritten_total": (
        "Dirty values re-serialized by the differential rewrite"
    ),
    "repro_values_deferred_total": (
        "Dirty doubles a typed frame carried without formatting their text"
    ),
    "repro_tag_shifts_total": (
        "Closing-tag rewrites (value length changed in its field)"
    ),
    "repro_pad_bytes_total": (
        "Whitespace pad bytes written (shrinks + stuffing upkeep)"
    ),
    "repro_expansions_total{mode}": "Field expansions by resolution mode",
    "repro_buffer_bytes_shifted_total": (
        "Bytes memmoved by chunk-tail shifts (cumulative)"
    ),
    "repro_templates_built_total": (
        "Full template serializations (first-time + resync)"
    ),
    "repro_rollbacks_total": "Send epochs rolled back after transport failures",
    "repro_forced_full_sends_total": (
        "Forced full serializations resynchronizing a peer"
    ),
    "repro_call_latency_seconds": "Round-trip RPC latency (send + wait + decode)",
    "repro_call_retries_total": "Failed attempts that were retried",
    "repro_delta_frames_total{outcome}": (
        "Delta-frame protocol events by outcome "
        "(encoded / fallback-* client-side, applied / resync-* "
        "server-side)"
    ),
    "repro_delta_bytes_saved_total": (
        "Document bytes not sent thanks to delta frames "
        "(doc_len - frame size, summed)"
    ),
    "repro_bytes_sent_total": (
        "Payload bytes sent on the wire (tx; frames at frame size)"
    ),
    "repro_bytes_received_total": "Payload bytes received from the wire (rx)",
    "repro_skipscan_events_total{event}": (
        "Skip-scan deserializer events (compiled / hit / "
        "hit-vector / fallback-* / *-drift / uncompilable-*)"
    ),
    "repro_overload_events_total{tier}": (
        "Pressure-relief sheds by tier (mirror / seektable / "
        "session) plus over-budget ticks when nothing is "
        "sheddable"
    ),
    "repro_admission_total{outcome}": (
        "Admission controller decisions by outcome (admitted / "
        "rejected-concurrency / rejected-queue / rejected-rate)"
    ),
    "repro_state_bytes{component}": (
        "Live per-session server state by component (deser "
        "templates / seek tables / delta mirrors / response "
        "templates), summed across sessions"
    ),
}
_KINDS = {
    "repro_send_duration_seconds": "histogram",
    "repro_call_latency_seconds": "histogram",
    "repro_state_bytes": "gauge",
}


class Observability:
    """One tracer + one metrics registry.

    Components (client, channel, pool, sessions, service) hold an
    ``Observability``.  One that counts calls :meth:`watch` on itself
    and from then on ``metrics`` serves its counters at read time;
    only durations are pushed (:meth:`record_send_duration`,
    :meth:`record_call`), because a histogram cannot be read off an
    attribute.

    ``enabled`` is a plain attribute (computed once) so the hot path
    can guard with a single load + branch.
    """

    __slots__ = ("tracer", "metrics", "enabled", "_send_duration", "_call_latency")

    def __init__(
        self,
        tracer: Optional[object] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.enabled = bool(getattr(self.tracer, "enabled", False)) or (
            metrics is not None
        )
        if metrics is not None:
            for spec, help_ in _SERIES.items():
                name, _, labels = spec.rstrip("}").partition("{")
                declare = getattr(metrics, _KINDS.get(name, "counter"))
                declare(name, help_, labels.split(",") if labels else ())
            self._send_duration = metrics.get("repro_send_duration_seconds")
            self._call_latency = metrics.get("repro_call_latency_seconds")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def recording(cls, capacity: Optional[int] = None) -> "Observability":
        """Tracer + metrics, both live (tests, debugging sessions)."""
        return cls(RecordingTracer(capacity), MetricsRegistry())

    @classmethod
    def metrics_only(cls) -> "Observability":
        """Metrics without span recording — the server default."""
        return cls(None, MetricsRegistry())

    # ------------------------------------------------------------------
    # counters: read through, never pushed
    # ------------------------------------------------------------------
    def watch(self, source: object) -> None:
        """Serve ``source.metric_samples()`` on the registry, if any."""
        if self.metrics is not None:
            self.metrics.watch(source)

    def retire(self, *sources: object) -> None:
        """The owner of *sources* is discarding them: keep their final
        counts in the registry, drop its references to them."""
        if self.metrics is not None:
            for source in sources:
                self.metrics.retire(source)

    # ------------------------------------------------------------------
    # durations: the only pushed metrics
    # ------------------------------------------------------------------
    def record_send_duration(self, kind: str, duration_s: float) -> None:
        if self.metrics is not None:
            self._send_duration.observe(duration_s, kind=kind)

    def record_call(self, duration_s: float) -> None:
        if self.metrics is not None:
            self._call_latency.observe(duration_s)

    def record_overload(self, tier: str) -> None:
        """An ``overload`` span for one pressure-relief event.

        The chaos harness and tests use the span stream to check every
        degradation is observable; the count itself is the
        accountant's (``repro_overload_events_total``).
        """
        if getattr(self.tracer, "enabled", False):
            self.tracer.emit("overload", tier=tier)


#: The shared no-op default: tracing disabled, no registry.
NULL_OBS = Observability()

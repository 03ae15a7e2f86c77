"""The ``/metrics`` surface is pinned: names, types, label names, HELP.

One scenario drives a fresh service (async front end, admission on)
with one client sharing its registry through every kind of event the
stack counts — a send of each match level, a SOAP fault, a 503, a
delta resync — then scrapes ``GET /metrics``.  The rendered set of
``(name, type, label names, HELP)`` must equal :data:`GOLDEN`, which
was captured from the commit *before* counters became read-through
views, so a refactor of where counters live cannot rename or drop a
series.  (The two rewrite-plan series left it with the plan cache
they counted.)  The same scrape is checked against the table in
``docs/observability.md``: every series the docs name is rendered and
every rendered series is documented.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from repro.channel import RPCChannel
from repro.core.policy import DeltaPolicy, DiffPolicy, StuffingPolicy, StuffMode
from repro.core.stats import MatchKind
from repro.errors import HTTPStatusError, SOAPFaultError
from repro.hardening.overload import AdmissionController, OverloadPolicy
from repro.obs import Observability
from repro.obs.export import parse_prometheus
from repro.resilience.retry import RetryPolicy
from repro.runtime.loadgen import OPERATION, SERVICE_NS, build_service
from repro.schema.composite import ArrayType
from repro.schema.registry import TypeRegistry
from repro.schema.types import DOUBLE
from repro.server.async_server import make_server
from repro.soap.message import Parameter, SOAPMessage

from tests.test_async_server import _http_exchange

#: ``(name, type, label names, HELP)`` as rendered by the parent of the
#: one-home-per-counter refactor for :func:`_scrape_after_every_event`.
GOLDEN = {
    ("repro_sends_total", "counter", ("kind",), "Client sends by match level"),
    (
        "repro_send_bytes_total",
        "counter",
        ("kind",),
        "Payload bytes sent by match level",
    ),
    (
        "repro_send_duration_seconds",
        "histogram",
        ("kind",),
        "Client-side serialize+transmit time by match level",
    ),
    (
        "repro_values_rewritten_total",
        "counter",
        (),
        "Dirty values re-serialized by the differential rewrite",
    ),
    (
        "repro_values_deferred_total",
        "counter",
        (),
        "Dirty doubles a typed frame carried without formatting their text",
    ),
    (
        "repro_tag_shifts_total",
        "counter",
        (),
        "Closing-tag rewrites (value length changed in its field)",
    ),
    (
        "repro_pad_bytes_total",
        "counter",
        (),
        "Whitespace pad bytes written (shrinks + stuffing upkeep)",
    ),
    (
        "repro_expansions_total",
        "counter",
        ("mode",),
        "Field expansions by resolution mode",
    ),
    (
        "repro_buffer_bytes_shifted_total",
        "counter",
        (),
        "Bytes memmoved by chunk-tail shifts (cumulative)",
    ),
    (
        "repro_templates_built_total",
        "counter",
        (),
        "Full template serializations (first-time + resync)",
    ),
    (
        "repro_rollbacks_total",
        "counter",
        (),
        "Send epochs rolled back after transport failures",
    ),
    (
        "repro_forced_full_sends_total",
        "counter",
        (),
        "Forced full serializations resynchronizing a peer",
    ),
    (
        "repro_call_latency_seconds",
        "histogram",
        (),
        "Round-trip RPC latency (send + wait + decode)",
    ),
    (
        "repro_call_retries_total",
        "counter",
        (),
        "Failed attempts that were retried",
    ),
    (
        "repro_delta_frames_total",
        "counter",
        ("outcome",),
        "Delta-frame protocol events by outcome (encoded / fallback-* "
        "client-side, applied / resync-* server-side)",
    ),
    (
        "repro_delta_bytes_saved_total",
        "counter",
        (),
        "Document bytes not sent thanks to delta frames "
        "(doc_len - frame size, summed)",
    ),
    (
        "repro_bytes_sent_total",
        "counter",
        (),
        "Payload bytes sent on the wire (tx; frames at frame size)",
    ),
    (
        "repro_bytes_received_total",
        "counter",
        (),
        "Payload bytes received from the wire (rx)",
    ),
    (
        "repro_skipscan_events_total",
        "counter",
        ("event",),
        "Skip-scan deserializer events (compiled / hit / hit-vector / "
        "fallback-* / *-drift / uncompilable-*)",
    ),
    (
        "repro_overload_events_total",
        "counter",
        ("tier",),
        "Pressure-relief sheds by tier (mirror / seektable / session) plus "
        "over-budget ticks when nothing is sheddable",
    ),
    (
        "repro_admission_total",
        "counter",
        ("outcome",),
        "Admission controller decisions by outcome (admitted / "
        "rejected-concurrency / rejected-queue / rejected-rate)",
    ),
    (
        "repro_state_bytes",
        "gauge",
        ("component",),
        "Live per-session server state by component (deser templates / "
        "seek tables / delta mirrors / response templates), summed across "
        "sessions",
    ),
    (
        "repro_requests_handled_total",
        "counter",
        (),
        "Requests dispatched to a handler successfully",
    ),
    (
        "repro_faults_returned_total",
        "counter",
        (),
        "Requests answered with a SOAP Fault",
    ),
    (
        "repro_requests_rejected_total",
        "counter",
        ("reason",),
        "Requests rejected before dispatch, by reason",
    ),
    (
        "repro_http_rejects_total",
        "counter",
        ("status",),
        "Connections/requests rejected at the HTTP layer, by status",
    ),
    (
        "repro_accept_errors_total",
        "counter",
        ("errno",),
        "accept() failures survived by backing off, by errno name",
    ),
    (
        "repro_http_open_connections",
        "gauge",
        (),
        "Live connections currently held by the front end",
    ),
    (
        "repro_http_connections_state",
        "gauge",
        ("state",),
        "Live connections by state-machine state (async server)",
    ),
    (
        "repro_http_messages_total",
        "counter",
        ("mode",),
        "HTTP requests framed, by framing mode",
    ),
    (
        "repro_http_wire_bytes_total",
        "counter",
        ("mode",),
        "Bytes written including HTTP headers and chunk framing",
    ),
}

#: Series whose label set cannot be read off a sample in this scenario
#: (nothing was shed; ``accept()`` never failed).
_UNSAMPLED = {"repro_overload_events_total", "repro_accept_errors_total"}

_POLICY = DiffPolicy(
    stuffing=StuffingPolicy(StuffMode.NONE), delta=DeltaPolicy(offer=True)
)


def _msg(values, operation: str = OPERATION) -> SOAPMessage:
    return SOAPMessage(
        operation,
        SERVICE_NS,
        [Parameter("data", ArrayType(DOUBLE), np.asarray(values, dtype=float))],
    )


def _scrape_after_every_event() -> str:
    """One of everything the stack counts, then ``GET /metrics``."""
    # The controller is built without ``obs``, as loadgen, the ledger
    # and every bench build it.
    obs = Observability.metrics_only()
    admission = AdmissionController(
        OverloadPolicy(
            max_concurrent_requests=1, max_queue_depth=0, queue_timeout=0.0
        )
    )
    service = build_service(obs=obs, admission=admission)
    with make_server(service, "async") as server:
        with RPCChannel(
            "127.0.0.1",
            server.port,
            registry=TypeRegistry(),
            policy=_POLICY,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0),
            obs=obs,
        ) as channel:
            kinds = []
            base = np.arange(1.0, 9.0) + 0.5
            for values in (
                base,  # first-time
                base,  # content match (a 36-byte delta frame)
                base + 1.0,  # perfect structural: same widths
                base * 123456.789,  # partial structural: wider values
            ):
                channel.call(_msg(values))
                kinds.append(channel.last_send_report.match_kind)
            assert set(kinds) == set(MatchKind)

            with pytest.raises(SOAPFaultError):
                channel.call(_msg(base, operation="no-such-operation"))

            admission.try_admit()  # occupy the only slot → 503
            try:
                with pytest.raises(HTTPStatusError):
                    channel.call(_msg(base))
            finally:
                admission.release()

            # Re-establish a baseline, then lose the server's mirrors:
            # the next frame answers 409 and the retry re-announces.
            channel.call(_msg(base))
            channel.call(_msg(base))
            assert channel.last_send_report.delta
            for session in service.sessions.sessions():
                session.delta.clear()
            channel.call(_msg(base))
            assert service.sessions.merged_counters()["delta_resyncs"] == 1

        rejected, _headers, _body = _http_exchange(server.port, b"garbage\r\n\r\n")
        status, _headers, body = _http_exchange(
            server.port, b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"
        )
    assert (rejected, status) == (400, 200)
    return body.decode("utf-8")


_SAMPLE = re.compile(r"^([a-zA-Z_:][\w:]*)(?:\{(.*)\})? \S+$")


def _surface(text: str):
    """``{(name, type, label names, HELP)}`` of an exposition document."""
    helps, types, labels = {}, {}, {}
    for line in text.splitlines():
        if line.startswith("# HELP "):
            name, _, rest = line[len("# HELP "):].partition(" ")
            helps[name] = rest
        elif line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE "):].partition(" ")
            types[name] = kind
        elif line:
            name, inner = _SAMPLE.match(line).groups()
            names = tuple(
                part.partition("=")[0]
                for part in re.findall(r'\w+="[^"]*"', inner or "")
            )
            for suffix in ("_bucket", "_sum", "_count"):
                base = name[: -len(suffix)]
                if name.endswith(suffix) and types.get(base) == "histogram":
                    name = base
                    names = tuple(n for n in names if n != "le")
            labels.setdefault(name, names)
    return {
        (name, kind, labels.get(name), helps.get(name, ""))
        for name, kind in types.items()
    }


def test_metric_surface_matches_parent_and_docs():
    text = _scrape_after_every_event()
    parse_prometheus(text)  # still round-trips
    rendered = _surface(text)

    golden = {
        (name, kind, None if name in _UNSAMPLED else names, help_)
        for name, kind, names, help_ in GOLDEN
    }
    assert rendered == golden

    # Every labelled series the scenario exercises carries samples —
    # including repro_admission_total, whose controller was never
    # handed an Observability.
    parsed = parse_prometheus(text)
    assert parsed['repro_admission_total{outcome="admitted"}'] >= 7
    # The 503'd call was attempted twice (one retry).
    assert parsed['repro_admission_total{outcome="rejected-queue"}'] == 2
    assert parsed['repro_http_messages_total{mode="delta-frame"}'] >= 2
    assert parsed['repro_delta_frames_total{outcome="resync-unknown-template"}'] == 1

    # The reply direction adds samples, never series: the responder's
    # encoder, the channel's mirror and its deserializer count under
    # the same names with a ``reply-`` prefix on the label value.
    encoded = parsed['repro_delta_frames_total{outcome="reply-encoded"}']
    assert encoded >= 2
    assert parsed['repro_delta_frames_total{outcome="reply-applied"}'] == encoded
    assert parsed['repro_skipscan_events_total{event="reply-compiled"}'] >= 1
    assert parsed['repro_skipscan_events_total{event="compiled"}'] >= 1

    doc = Path(__file__).resolve().parents[1] / "docs" / "observability.md"
    documented = set(
        re.findall(r"^\| `(repro_\w+)` \|", doc.read_text(), flags=re.MULTILINE)
    )
    assert documented == {name for name, _kind, _names, _help in GOLDEN}

"""Unit and integration tests for the ``repro.obs`` subsystem."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.client import BSoapClient
from repro.core.policy import DiffPolicy, StuffingPolicy, StuffMode
from repro.obs import (
    NULL_OBS,
    NULL_TRACER,
    SPAN_NAMES,
    Counter,
    Histogram,
    MetricsRegistry,
    NullTracer,
    Observability,
    RecordingTracer,
)
from repro.obs.export import (
    metrics_result,
    metrics_rows,
    parse_prometheus,
    render_prometheus,
)
from repro.schema.composite import ArrayType
from repro.schema.types import DOUBLE
from repro.soap.message import Parameter, SOAPMessage
from repro.transport.loopback import CollectSink


class TestTracer:
    def test_null_tracer_is_disabled_and_silent(self):
        assert NullTracer.enabled is False
        NULL_TRACER.emit("send", duration_s=1.0, anything=1)  # no-op

    def test_recording_tracer_records(self):
        tracer = RecordingTracer()
        tracer.emit("send", duration_s=0.25, match_level="content")
        tracer.emit("rewrite", values=3)
        assert len(tracer) == 2
        assert tracer.counts() == {"send": 1, "rewrite": 1}
        span = tracer.last("send")
        assert span.duration_s == 0.25
        assert span.attrs["match_level"] == "content"
        assert [s.name for s in tracer.spans("rewrite")] == ["rewrite"]

    def test_unknown_span_names_allowed(self):
        # The taxonomy is documentation, not a schema: ad-hoc spans
        # from experiments must not crash the tracer.
        tracer = RecordingTracer()
        tracer.emit("experimental-span", note="ok")
        assert tracer.last("experimental-span").attrs["note"] == "ok"

    def test_capacity_drops_oldest(self):
        tracer = RecordingTracer(capacity=2)
        for i in range(5):
            tracer.emit("send", seq=i)
        assert len(tracer) == 2
        assert tracer.dropped == 3
        assert [s.attrs["seq"] for s in tracer.spans()] == [3, 4]

    def test_clear(self):
        tracer = RecordingTracer()
        tracer.emit("send")
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.last("send") is None

    def test_span_names_cover_hot_path(self):
        assert set(SPAN_NAMES) == {
            "serialize",
            "match-classify",
            "rewrite",
            "shift",
            "stuff",
            "send",
            "recv",
            "delta-encode",
            "delta-apply",
            "skipscan",
            "overload",
        }


class TestMetrics:
    def test_counter_inc_and_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total", "help", ("kind",))
        c.inc(2, kind="a")
        c.inc(kind="a")
        c.inc(5, kind="b")
        assert c.value(kind="a") == 3
        assert c.value(kind="b") == 5
        assert c.value(kind="missing") == 0

    def test_counter_rejects_negative_and_bad_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total", "", ("kind",))
        with pytest.raises(ValueError):
            c.inc(-1, kind="a")
        with pytest.raises(ValueError):
            c.inc(1)  # missing label
        with pytest.raises(ValueError):
            c.inc(1, kind="a", extra="b")

    def test_histogram_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("h_seconds", "", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 0.5, 5.0):
            h.observe(v)
        ((labels, cumulative, total, count),) = h.snapshot()
        assert labels == {}
        assert cumulative == [1, 3]  # <=0.1: 1, <=1.0: 3
        assert count == 4
        assert total == pytest.approx(6.05)

    def test_get_or_create_and_type_mismatch(self):
        reg = MetricsRegistry()
        c1 = reg.counter("x_total", "")
        assert reg.counter("x_total", "") is c1
        with pytest.raises(ValueError):
            reg.histogram("x_total", "")
        assert "x_total" in reg
        assert reg.get("nope") is None

    def test_thread_safety_under_contention(self):
        reg = MetricsRegistry()
        c = reg.counter("n_total", "", ("t",))

        def hammer(label: str) -> None:
            for _ in range(2000):
                c.inc(1, t=label)

        threads = [
            threading.Thread(target=hammer, args=(str(i % 2),)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value(t="0") + c.value(t="1") == 8000


class TestExport:
    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("repro_sends_total", "Sends", ("kind",)).inc(3, kind="content")
        reg.counter("plain_total", "Plain").inc(7)
        h = reg.histogram("lat_seconds", "Latency", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.7)
        return reg

    def test_prometheus_round_trip(self):
        reg = self._registry()
        text = render_prometheus(reg)
        assert '# TYPE repro_sends_total counter' in text
        assert '# TYPE lat_seconds histogram' in text
        parsed = parse_prometheus(text)
        assert parsed['repro_sends_total{kind="content"}'] == 3
        assert parsed["plain_total"] == 7
        assert parsed['lat_seconds_bucket{le="0.1"}'] == 1
        assert parsed['lat_seconds_bucket{le="1.0"}'] == 2
        assert parsed['lat_seconds_bucket{le="+Inf"}'] == 2
        assert parsed["lat_seconds_count"] == 2

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("esc_total", "", ("v",)).inc(1, v='a"b\\c\nd')
        text = render_prometheus(reg)
        assert 'v="a\\"b\\\\c\\nd"' in text

    def test_metrics_rows_and_result(self):
        reg = self._registry()
        rows = metrics_rows(reg)
        by_metric = {(r["metric"], r["labels"]): r for r in rows}
        assert by_metric[("repro_sends_total", "kind=content")]["value"] == 3
        hist_row = by_metric[("lat_seconds", "")]
        assert hist_row["count"] == 2
        assert hist_row["sum"] == pytest.approx(0.75)
        doc = metrics_result(reg, bench="obs_unit", params={"k": 1})
        assert doc["schema"] == "repro-bench-result/1"
        assert doc["params"] == {"k": 1}
        assert len(doc["results"]) == len(rows)

    def test_empty_registry_renders(self):
        assert render_prometheus(MetricsRegistry()) == "\n"
        doc = metrics_result(MetricsRegistry())
        assert doc["results"][0]["type"] == "empty"


class TestMetricsEndpoint:
    def _get(self, host, port, path):
        import socket

        with socket.create_connection((host, port), timeout=10) as conn:
            conn.sendall(
                f"GET {path} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode("ascii")
            )
            conn.settimeout(10)
            data = b""
            while b"\r\n\r\n" not in data:
                chunk = conn.recv(1 << 16)
                if not chunk:
                    break
                data += chunk
            head, _, body = data.partition(b"\r\n\r\n")
            length = 0
            for line in head.split(b"\r\n")[1:]:
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value.strip())
            while len(body) < length:
                chunk = conn.recv(1 << 16)
                if not chunk:
                    break
                body += chunk
        return head.split(b"\r\n", 1)[0], head, body

    def _service(self, **kw):
        from repro.schema.registry import TypeRegistry
        from repro.server.service import Operation, SOAPService

        service = SOAPService("urn:obs-http", TypeRegistry(), **kw)
        service.register(
            Operation("ping", lambda: 1.0, result_type=DOUBLE)
        )
        return service

    def test_metrics_served_and_typed(self):
        from repro.server.threaded_server import HTTPSoapServer

        with HTTPSoapServer(self._service()) as httpd:
            status, head, body = self._get(httpd.host, httpd.port, "/metrics")
            assert b"200" in status
            assert b"text/plain; version=0.0.4" in head
            parsed = parse_prometheus(body.decode("utf-8"))
            # No traffic yet: unlabelled counters render as zero.
            assert parsed["repro_requests_handled_total"] == 0
            assert parsed["repro_faults_returned_total"] == 0

    def test_metrics_404_without_registry(self):
        from repro.server.threaded_server import HTTPSoapServer

        with HTTPSoapServer(self._service(obs=NULL_OBS)) as httpd:
            status, _head, body = self._get(httpd.host, httpd.port, "/metrics")
            assert b"404" in status
            assert body == b""


def _doubles_msg(values) -> SOAPMessage:
    return SOAPMessage(
        "put", "urn:obs", [Parameter("data", ArrayType(DOUBLE), np.asarray(values))]
    )


class TestObservabilityFacade:
    def test_null_obs_shared_and_disabled(self):
        assert NULL_OBS.enabled is False
        assert NULL_OBS.metrics is None
        assert NULL_OBS.tracer is NULL_TRACER
        # Helpers are safe no-ops without a registry.
        NULL_OBS.watch(object())
        NULL_OBS.retire(object())
        NULL_OBS.record_call(0.1)
        NULL_OBS.record_send_duration("content", 0.1)
        NULL_OBS.record_overload("mirror")

    def test_default_client_uses_null_obs(self):
        client = BSoapClient(CollectSink())
        assert client.obs is NULL_OBS

    def test_metrics_only_has_no_tracing(self):
        obs = Observability.metrics_only()
        assert obs.enabled is True
        assert obs.tracer.enabled is False
        assert obs.metrics is not None

    def test_send_counters_reconcile_with_client_stats(self):
        obs = Observability.recording()
        client = BSoapClient(
            CollectSink(),
            DiffPolicy(stuffing=StuffingPolicy(StuffMode.MAX)),
            obs=obs,
        )
        base = np.array([1.0, 2.0, 3.0, 4.0])
        client.send(_doubles_msg(base))  # first-time
        client.send(_doubles_msg(base))  # content
        client.send(_doubles_msg([1.0, 2.5, 3.0, 4.0]))  # perfect
        sends = obs.metrics.get("repro_sends_total")
        for kind, count in client.stats.by_kind.items():
            assert sends.value(kind=kind.value) == count
        bytes_counter = obs.metrics.get("repro_send_bytes_total")
        assert (
            sum(v for _l, v in bytes_counter.samples())
            == client.stats.bytes_sent
        )
        assert (
            obs.metrics.get("repro_templates_built_total").value()
            == client.stats.templates_built
        )
        # Rewrite work counters mirror the per-send RewriteStats.
        assert obs.metrics.get("repro_values_rewritten_total").value() == 1

    def test_rollback_and_forced_full_counted(self):
        from repro.errors import TransportError

        class FailingSink(CollectSink):
            def __init__(self):
                super().__init__()
                self.fail_next = False

            def send_message(self, views, total_bytes=None):
                if self.fail_next:
                    self.fail_next = False
                    raise TransportError("boom")
                return super().send_message(views, total_bytes)

        obs = Observability.recording()
        sink = FailingSink()
        client = BSoapClient(sink, obs=obs)
        base = np.array([1.0, 2.0])
        client.send(_doubles_msg(base))
        sink.fail_next = True
        with pytest.raises(TransportError):
            client.send(_doubles_msg([9.0, 2.0]))
        client.send(_doubles_msg([9.0, 2.0]))  # forced full resync
        assert obs.metrics.get("repro_rollbacks_total").value() == 1
        assert obs.metrics.get("repro_forced_full_sends_total").value() == 1
        assert client.stats.rollbacks == 1
        assert client.stats.forced_full_sends == 1

    def test_span_stream_for_partial_match(self):
        obs = Observability.recording()
        client = BSoapClient(
            CollectSink(),
            DiffPolicy(stuffing=StuffingPolicy(StuffMode.NONE)),
            obs=obs,
        )
        client.send(_doubles_msg([1.0, 2.0, 3.0]))
        serialize = obs.tracer.last("serialize")
        assert serialize is not None
        assert serialize.attrs["template_id"] > 0
        client.send(_doubles_msg([1.0, 123456.789012, 3.0]))  # wider: expansion
        assert obs.tracer.last("send").attrs["match_level"] == "partial-structural"
        rewrite = obs.tracer.last("rewrite")
        assert rewrite.attrs["expansions"] >= 1
        assert rewrite.attrs["template_id"] == serialize.attrs["template_id"]
        assert obs.metrics.get("repro_expansions_total").samples()

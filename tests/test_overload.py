"""Overload resilience: admission gates, the memory-budget shed ladder,
Retry-After honoring, state gauges, and eviction races.

Layered like the machinery itself:

* unit — :class:`AdmissionController` with an injectable clock (no
  sleeping), :class:`MemoryAccountant` ledger arithmetic,
  :class:`RetryBudget`, ``parse_retry_after``/backoff hint honoring;
* service — ``handle_wire`` answering 503 + Retry-After without
  touching session state, the tier ladder shedding in cheapest-recovery
  order, state gauges folded into ``GET /metrics`` and
  ``merged_counters``;
* live HTTP — a session evicted with a connection still open recovers
  via 409-resync / first-time parse, never a 5xx.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np
import pytest

from repro.baselines.naive import NaiveClient
from repro.channel import RPCChannel
from repro.core.client import BSoapClient
from repro.core.policy import DeltaPolicy, DiffPolicy, StuffingPolicy, StuffMode
from repro.core.stats import MatchKind
from repro.errors import AdmissionRejectedError, HTTPStatusError, XMLError
from repro.hardening.limits import ResourceLimits
from repro.hardening.overload import (
    SHED_TIERS,
    AdmissionController,
    MemoryAccountant,
    OverloadPolicy,
)
from repro.lexical.floats import FloatFormat
from repro.obs import Observability
from repro.obs.export import parse_prometheus, render_prometheus
from repro.resilience.budget import RetryBudget
from repro.resilience.reconnect import ReconnectingTCPTransport
from repro.resilience.retry import RetryPolicy, parse_retry_after
from repro.runtime.loadgen import (
    ECHO_OPERATION,
    EXPAND_OPERATION,
    OPERATION,
    SERVICE_NS,
    build_service,
    message_sequence,
)
from repro.schema import DOUBLE, ArrayType
from repro.server.async_server import make_server
from repro.server.parser import SOAPRequestParser
from repro.server.threaded_server import HTTPSoapServer
from repro.soap.fault import SOAPFault
from repro.soap.message import Parameter, SOAPMessage
from repro.transport.loopback import CollectSink
from repro.wire.frame import encode_frame


class _FakeClock:
    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# AdmissionController (unit, injectable clock)
# ----------------------------------------------------------------------
class TestAdmissionController:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            OverloadPolicy(max_concurrent_requests=0)
        with pytest.raises(ValueError):
            OverloadPolicy(rate_per_sec=0.0)
        with pytest.raises(ValueError):
            OverloadPolicy(retry_after_min=0)
        with pytest.raises(ValueError):
            OverloadPolicy(retry_after_min=9, retry_after_max=3)
        with pytest.raises(ValueError):
            OverloadPolicy(shed_target_fraction=0.0)

    def test_rate_gate_rejects_then_refills(self):
        clock = _FakeClock()
        ctrl = AdmissionController(
            OverloadPolicy(rate_per_sec=1.0, burst=2.0), clock=clock
        )
        ctrl.try_admit()
        ctrl.release()
        ctrl.try_admit()
        ctrl.release()
        with pytest.raises(AdmissionRejectedError) as info:
            ctrl.try_admit()
        assert info.value.gate == "rate"
        assert info.value.retry_after >= 1
        clock.advance(1.5)
        ctrl.try_admit()  # bucket refilled
        ctrl.release()
        assert ctrl.rejected["rate"] == 1
        assert ctrl.admitted == 3

    def test_queue_gate_rejects_when_queue_full(self):
        ctrl = AdmissionController(
            OverloadPolicy(
                max_concurrent_requests=1, max_queue_depth=0, queue_timeout=0.0
            )
        )
        ctrl.try_admit()  # occupy the only slot
        with pytest.raises(AdmissionRejectedError) as info:
            ctrl.try_admit()
        assert info.value.gate == "queue"
        ctrl.release()
        ctrl.try_admit()  # slot freed
        ctrl.release()

    def test_concurrency_gate_times_out_in_queue(self):
        ctrl = AdmissionController(
            OverloadPolicy(
                max_concurrent_requests=1, max_queue_depth=4, queue_timeout=0.0
            )
        )
        ctrl.try_admit()
        with pytest.raises(AdmissionRejectedError) as info:
            ctrl.try_admit()  # queues, deadline already past
        assert info.value.gate == "concurrency"
        assert ctrl.queued == 0  # queue slot returned
        ctrl.release()

    def test_queued_caller_admitted_on_release(self):
        ctrl = AdmissionController(
            OverloadPolicy(
                max_concurrent_requests=1, max_queue_depth=4, queue_timeout=5.0
            )
        )
        ctrl.try_admit()
        admitted = threading.Event()

        def waiter():
            ctrl.try_admit()
            admitted.set()

        thread = threading.Thread(target=waiter, daemon=True)
        thread.start()
        time.sleep(0.05)
        assert not admitted.is_set()
        ctrl.release()
        assert admitted.wait(2.0)
        thread.join(2.0)
        assert ctrl.admitted == 2
        ctrl.release()

    def test_retry_after_clamped_to_policy_bounds(self):
        clock = _FakeClock()
        ctrl = AdmissionController(
            OverloadPolicy(
                rate_per_sec=0.001,
                burst=1.0,
                retry_after_min=2,
                retry_after_max=5,
            ),
            clock=clock,
        )
        ctrl.try_admit()
        ctrl.release()
        with pytest.raises(AdmissionRejectedError) as info:
            ctrl.try_admit()  # deficit = 1000s, clamps to max
        assert info.value.retry_after == 5

    def test_counters_reconcile_with_metrics(self):
        ctrl = AdmissionController(
            OverloadPolicy(
                max_concurrent_requests=1, max_queue_depth=0, queue_timeout=0.0
            )
        )
        # The service a controller fronts serves its counters.
        obs = build_service(admission=ctrl).obs
        with ctrl.admit():
            with pytest.raises(AdmissionRejectedError):
                ctrl.try_admit()
        ctrl.try_admit()
        ctrl.release()
        metric = obs.metrics.get("repro_admission_total")
        counters = ctrl.counters()
        assert metric.value(outcome="admitted") == counters["admitted"] == 2
        assert metric.value(outcome="rejected-queue") == counters["rejected_queue"] == 1
        assert counters["in_flight"] == 0


# ----------------------------------------------------------------------
# MemoryAccountant (unit)
# ----------------------------------------------------------------------
class TestMemoryAccountant:
    def test_ledger_and_gauges(self):
        obs = Observability.metrics_only()
        acct = MemoryAccountant(1000, obs=obs)
        acct.charge("mirror", 600)
        acct.charge("seektable", 300)
        acct.charge("mirror", -200)
        assert acct.usage_bytes == 700
        gauge = obs.metrics.get("repro_state_bytes")
        assert gauge.value(component="mirror") == 400
        assert gauge.value(component="seektable") == 300

    def test_relief_watermark(self):
        acct = MemoryAccountant(1000, shed_target_fraction=0.8)
        acct.charge("mirror", 900)
        assert acct.relief_needed() == 0  # under budget: no relief
        acct.charge("response", 300)
        # Over budget: shed down to the low watermark, not the budget.
        assert acct.relief_needed() == 1200 - 800
        assert acct.over_budget

    def test_shed_and_over_budget_counters(self):
        acct = MemoryAccountant(100)
        acct.note_shed("mirror")
        acct.note_shed("session")
        acct.note_over_budget()
        counters = acct.counters()
        assert counters["sheds_mirror"] == 1
        assert counters["sheds_session"] == 1
        assert counters["over_budget_ticks"] == 1
        assert counters["state_budget_bytes"] == 100

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            MemoryAccountant(0)


# ----------------------------------------------------------------------
# Retry-After honoring + RetryBudget (unit)
# ----------------------------------------------------------------------
class TestRetryAfter:
    def test_parse_delta_seconds(self):
        assert parse_retry_after("5") == 5.0
        assert parse_retry_after(" 2 ") == 2.0
        assert parse_retry_after("0") == 0.0

    def test_parse_garbage_is_none(self):
        for bad in (None, "", "soon", "-3", "Fri, 07 Aug 2026 00:00:00 GMT"):
            assert parse_retry_after(bad) is None

    def test_backoff_honors_hint_capped_at_max_delay(self):
        policy = RetryPolicy(base_delay=0.01, max_delay=0.5, seed=7)
        assert policy.backoff(1, hint=3.0) == pytest.approx(0.5)
        assert policy.backoff(1, hint=0.25) >= 0.25
        # No hint (or a nonsense one): the computed backoff stands.
        small = RetryPolicy(base_delay=0.01, max_delay=0.5, jitter=0.0, seed=7)
        assert small.backoff(1, hint=0.0) == pytest.approx(small.backoff(1))

    def test_seeded_hint_schedule_is_deterministic(self):
        hints = [None, 2.0, 0.05, 30.0, None]

        def schedule():
            policy = RetryPolicy(base_delay=0.01, max_delay=0.4, seed=99)
            return [policy.backoff(i + 1, hint=h) for i, h in enumerate(hints)]

        first, second = schedule(), schedule()
        assert first == second
        # Every hinted delay is >= min(hint, max_delay).
        for delay, hint in zip(first, hints):
            if hint:
                assert delay >= min(hint, 0.4) - 1e-9
            assert delay <= 0.4 + 1e-9

    def test_http_status_error_carries_retry_after(self):
        exc = HTTPStatusError(503, retry_after=7.0)
        assert exc.retry_after == 7.0
        assert HTTPStatusError(503).retry_after is None

    def test_transport_cooldown_extends_never_shrinks(self):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        port = listener.getsockname()[1]
        try:
            transport = ReconnectingTCPTransport("127.0.0.1", port)
            transport.note_retry_after(0.15)
            transport.note_retry_after(0.01)  # must not shrink
            started = time.monotonic()
            transport.connect()
            elapsed = time.monotonic() - started
            assert elapsed >= 0.10
            assert transport.cooldown_waits == 1
            transport.connect()  # cooldown consumed: no second wait
            assert transport.cooldown_waits == 1
            transport.close()
        finally:
            listener.close()


class TestRetryBudget:
    def test_spend_and_deposit(self):
        budget = RetryBudget(deposit_per_success=0.5, capacity=10.0, initial=1.0)
        assert budget.try_spend()
        assert not budget.try_spend()  # drained
        budget.record_success()
        budget.record_success()
        assert budget.try_spend()  # two deposits bought one retry
        counters = budget.counters()
        assert counters["budget_retries_spent"] == 2
        assert counters["budget_retries_denied"] == 1
        assert counters["budget_successes"] == 2

    def test_capacity_caps_deposits(self):
        budget = RetryBudget(deposit_per_success=5.0, capacity=8.0, initial=0.0)
        for _ in range(10):
            budget.record_success()
        assert budget.tokens == pytest.approx(8.0)


# ----------------------------------------------------------------------
# Service layer: 503 paths, shed ladder, gauges
# ----------------------------------------------------------------------
def _checksum_body(n: int = 8, seed: int = 0) -> bytes:
    sink = CollectSink()
    NaiveClient(sink).send(message_sequence("content", n, 1, seed=seed)[0])
    return sink.last


_ANNOUNCE = {
    "x-repro-delta": "1",
    "x-repro-delta-template": "0",
    "x-repro-delta-epoch": "0",
}


class TestServiceAdmission:
    def test_rejected_request_gets_503_retry_after_and_no_state(self):
        clock = _FakeClock()
        admission = AdmissionController(
            OverloadPolicy(rate_per_sec=0.5, burst=1.0, retry_after_min=2),
            clock=clock,
        )
        service = build_service(0.0, admission=admission)
        body = _checksum_body()
        status, _extra, _resp = service.handle_wire(body, {}, "s1")
        assert status == 200
        before = len(service.sessions.sessions())
        status, extra, resp = service.handle_wire(body, {}, "s2")
        assert status == 503
        assert resp == b""
        assert extra == ["Retry-After: 2"]
        # Rejection is cheaper than service: no session was created.
        assert len(service.sessions.sessions()) == before
        assert admission.counters()["rejected_rate"] == 1

    def test_admission_slot_released_after_success(self):
        admission = AdmissionController(
            OverloadPolicy(max_concurrent_requests=1, max_queue_depth=0,
                           queue_timeout=0.0)
        )
        service = build_service(0.0, admission=admission)
        body = _checksum_body()
        for _ in range(5):
            status, _extra, _resp = service.handle_wire(body, {}, "s")
            assert status == 200
        assert admission.in_flight == 0


def test_admission_metrics_without_controller_obs():
    """``repro_admission_total`` carries samples for a controller that
    was never handed an ``Observability`` — how loadgen, the ledger and
    every bench build theirs (it used to render HELP/TYPE only)."""
    admission = AdmissionController(OverloadPolicy())
    service = build_service(0.0, admission=admission)
    status, _extra, _resp = service.handle_wire(_checksum_body(), {}, "s")
    assert status == 200 and admission.admitted == 1
    parsed = parse_prometheus(render_prometheus(service.obs.metrics))
    assert parsed['repro_admission_total{outcome="admitted"}'] == 1


class TestShedLadder:
    # Budgets sit above the pinned floor: even an idle default session
    # retains one chunk-capacity response buffer (~32 KiB), which the
    # ladder can never shed.
    def _pressured_service(self, budget: int = 120_000):
        service = build_service(
            0.0, limits=ResourceLimits(max_state_bytes=budget)
        )
        # One request on the pinned default session, then populate
        # several keyed sessions, each with a mirror + parsed state.
        status, _x, _r = service.handle_wire(_checksum_body(), {}, None)
        assert status == 200
        for i in range(6):
            headers = dict(_ANNOUNCE)
            headers["x-repro-delta-template"] = str(i)
            status, _x, _r = service.handle_wire(
                _checksum_body(256, seed=i), headers, f"sess-{i}"
            )
            assert status == 200
        return service

    def test_ladder_sheds_all_tiers_and_stays_under_budget(self):
        service = self._pressured_service()
        acct = service.accountant
        service.sessions.relieve_pressure()
        # Pressure this deep walks the whole ladder (mostly inline,
        # during handle_wire itself; the explicit pass mops up).
        assert all(acct.sheds[t] >= 1 for t in SHED_TIERS), acct.sheds
        assert acct.usage_bytes <= acct.budget_bytes
        # The pinned default session is never evicted.
        assert any(s.pinned for s in service.sessions.sessions())

    def test_shed_metrics_match_accountant(self):
        service = self._pressured_service()
        service.sessions.relieve_pressure()
        metric = service.obs.metrics.get("repro_overload_events_total")
        for tier in SHED_TIERS:
            assert metric.value(tier=tier) == service.accountant.sheds[tier]
        merged = service.sessions.merged_counters()
        for tier in SHED_TIERS:
            assert merged[f"sheds_{tier}"] == service.accountant.sheds[tier]

    def test_sheds_happen_inline_during_traffic(self):
        # No explicit relieve_pressure: handle_wire itself must keep
        # state bounded as requests arrive.
        service = build_service(
            0.0, limits=ResourceLimits(max_state_bytes=120_000)
        )
        for i in range(8):
            headers = dict(_ANNOUNCE)
            headers["x-repro-delta-template"] = str(i)
            status, _x, _r = service.handle_wire(
                _checksum_body(256, seed=i), headers, f"sess-{i}"
            )
            assert status == 200
        acct = service.accountant
        assert acct.usage_bytes <= acct.budget_bytes
        assert sum(acct.sheds.values()) >= 1

    def test_unbounded_service_never_sheds(self):
        service = build_service(0.0)  # default 64 MiB budget
        for i in range(4):
            service.handle_wire(_checksum_body(64, seed=i), {}, f"s{i}")
        assert sum(service.accountant.sheds.values()) == 0

    def test_after_seektable_shed_corrupt_wire_faults_like_full_parse(self):
        """Tier 2 takes the seek table; the template stays.  A
        same-length wire with a damaged closing tag or non-whitespace
        pad inside a field region then gets what a full parse of those
        bytes gives — a Client fault — never an unvalidated update."""
        # A budget under the pinned default session's floor: no mirror
        # to shed, nothing evictable, so every request ends with its
        # seek table shed while the session is idle.
        service = build_service(0.0, limits=ResourceLimits(max_state_bytes=1000))
        sink = CollectSink()
        client = BSoapClient(
            sink,
            DiffPolicy(
                float_format=FloatFormat.MINIMAL,
                stuffing=StuffingPolicy(StuffMode.MAX),
            ),
        )
        call = client.prepare(
            SOAPMessage(
                OPERATION,
                SERVICE_NS,
                [Parameter("data", ArrayType(DOUBLE), np.array([1.5, 2.5, 3.5]))],
            )
        )

        def checksum(wire: bytes) -> float:
            reply = service.handle(wire)
            assert SOAPFault.from_xml(reply) is None
            return SOAPRequestParser().parse(reply).message.params[0].value

        call.send()
        template = sink.last
        assert checksum(template) == 7.5
        (session,) = service.sessions.sessions()
        deser = session.deserializer
        assert session.pinned and deser.has_template and not deser.has_seek_table
        assert service.accountant.sheds["seektable"] == 1
        call.tracked("data").update(np.array([0]), np.array([9.5]))
        call.send()
        clean = sink.last
        i = clean.index(b"2.5</item>")
        gt = i + len(b"2.5</item>")
        assert clean[gt : gt + 1].isspace()
        for bad in (
            clean[: i + 5] + b"j" + clean[i + 6 :],  # </jtem>
            clean[:gt] + b"&" + clean[gt + 1 :],  # entity start in the pad
        ):
            with pytest.raises(XMLError):
                SOAPRequestParser().parse(bad)
            fault = SOAPFault.from_xml(service.handle(bad))
            assert fault is not None and fault.faultcode.endswith("Client")
            # The template is still the first wire and still decodes
            # to its own parse.
            assert checksum(template) == 7.5
        assert checksum(clean) == 15.5
        assert service.accountant.sheds["seektable"] >= 2


def _retained(session) -> int:
    """Bytes *session* holds, counted from its store's entries: each
    entry's document, its decode at the ledger's one-document estimate
    and its seek table; then the response."""
    total = session.responder.store.approx_bytes() + session.sink.last_bytes()
    for entry in session.delta.entries.values():
        total += len(entry.data)
        if entry.result is not None:
            total += len(entry.base)
        if entry.table is not None:
            total += entry.table.approx_bytes()
    return total


class TestSharedBufferLedger:
    """A template's document and decode live in one store entry: the
    ledger charges each document once, and each shed tier is counted
    for what a re-measure says it freed."""

    def _check(self, service) -> int:
        total = 0
        for session in service.sessions.sessions():
            components = session.state_components()
            assert sum(components.values()) == _retained(session), session.key
            assert session.accounted == components, session.key
            total += sum(components.values())
        assert service.accountant.usage_bytes == total
        return total

    def _shed_once(self, service) -> dict:
        """Lower the budget to one byte under usage, the low watermark
        just under that: the ladder needs a few bytes, so one shed."""
        acct = service.accountant
        acct.shed_target_fraction = 0.999
        acct.budget_bytes = acct.usage_bytes - 1
        sheds = service.sessions.relieve_pressure()
        assert sum(sheds.values()) == 1, sheds
        return sheds

    def test_ledger_equals_retained_bytes_through_every_tier(self):
        service = build_service(0.0)
        # "plain": full XML, never announced — a template of its own.
        plain_body = _checksum_body(128, seed=9)
        assert service.handle_wire(plain_body, {}, "plain")[0] == 200
        # "framed": two announced templates, then a frame on the second.
        first, second = _checksum_body(256, seed=1), _checksum_body(200, seed=2)
        for template_id, body in enumerate((first, second)):
            headers = dict(_ANNOUNCE)
            headers["x-repro-delta-template"] = str(template_id)
            assert service.handle_wire(body, headers, "framed")[0] == 200
        frame = encode_frame(1, 0, 1, len(second), [], [], b"")
        assert service.handle_wire(frame, {"x-repro-delta-frame": "1"}, "framed")[0] == 200
        plain, framed = (
            next(s for s in service.sessions.sessions() if s.key == key)
            for key in ("plain", "framed")
        )

        # Before any shed: one document per mirrored template, and
        # each announced template keeps its own decode.
        shared = framed.delta.mirrors[1].data
        components = framed.state_components()
        assert components["mirror"] == len(first) + len(second)
        assert components["deser"] == len(first) + len(second)  # the decodes
        assert plain.state_components()["deser"] == 2 * len(plain_body)
        usage = self._check(service)

        # Tier 1, the LRU mirror entry: its document, decode and table.
        table = framed.delta.mirrors[0].table.approx_bytes()
        assert self._shed_once(service) == {"mirror": 1}
        assert list(framed.delta.mirrors) == [1]
        assert framed.delta.mirrors[1].data is shared
        assert self._check(service) == usage - 2 * len(first) - table
        usage -= 2 * len(first) + table

        # Tier 1, the last mirror entry — document, decode, seek table.
        table = framed.deserializer.seek_table_bytes()
        assert table > 0
        assert self._shed_once(service) == {"mirror": 1}
        assert not framed.delta.mirrors and not framed.deserializer.has_template
        assert self._check(service) == usage - 2 * len(second) - table
        usage -= 2 * len(second) + table
        # A frame for it now resyncs; nothing trusts a gone buffer.
        frame = encode_frame(1, 0, 2, len(second), [], [], b"")
        assert service.handle_wire(frame, {"x-repro-delta-frame": "1"}, "framed")[0] == 409
        usage = self._check(service)

        # Tier 2: the one seek table left; its template stays.
        table = plain.deserializer.seek_table_bytes()
        assert self._shed_once(service) == {"seektable": 1}
        assert plain.deserializer.has_template and not plain.deserializer.has_seek_table
        assert self._check(service) == usage - table
        usage -= table

        # Tier 3: sessions retire, LRU first, with all they were charged.
        charged = sum(plain.accounted.values())
        assert self._shed_once(service) == {"session": 1}
        assert [s.key for s in service.sessions.sessions()] == ["framed"]
        assert self._check(service) == usage - charged
        assert service.accountant.sheds == {"mirror": 2, "seektable": 1, "session": 1}


@pytest.mark.parametrize("front_end", ("threaded", "async"))
def test_ledger_exact_after_every_request(front_end):
    """``note_usage`` re-measures a session whenever one of its sizes may
    have changed, and only then: after every kind of request — and a
    shed and an eviction between them — the ledger equals what each
    session holds."""
    ledger = TestSharedBufferLedger()
    service = build_service(0.0, max_sessions=1)
    policy = DiffPolicy(
        stuffing=StuffingPolicy(StuffMode.MAX), delta=DeltaPolicy(offer=True)
    )
    retry = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)
    values = np.arange(32, dtype=float)

    def call(channel, operation, data):
        parameter = Parameter("data", ArrayType(DOUBLE), data)
        channel.call(SOAPMessage(operation, SERVICE_NS, [parameter]))
        return channel.last_send_report.match_kind.value

    responses = service.sessions.merged_response_stats
    with make_server(service, front_end) as server:
        with RPCChannel(
            "127.0.0.1", server.port, policy=policy, retry=retry
        ) as channel:
            assert call(channel, OPERATION, values) == "first-time"
            ledger._check(service)
            assert call(channel, OPERATION, values) == "content"
            ledger._check(service)
            # A new request template whose reply repeats the last one
            # byte for byte: only the request store changed size.
            assert call(channel, OPERATION, np.append(values, 0.0)) == "first-time"
            assert service.sessions.sessions()[0].sink.last_bytes() == 36
            ledger._check(service)
            values[3] = 0.25
            assert call(channel, OPERATION, values) == "perfect-structural"
            ledger._check(service)
            assert call(channel, ECHO_OPERATION, values) == "first-time"
            ledger._check(service)
            assert call(channel, ECHO_OPERATION, values) == "content"
            ledger._check(service)
            # Every reply value outgrows its field: the reply template
            # expands and its chunk reallocates.
            grown = values + 1.0 / 3.0
            partial = responses().by_kind[MatchKind.PARTIAL_STRUCTURAL]
            assert call(channel, ECHO_OPERATION, grown) == "perfect-structural"
            assert responses().by_kind[MatchKind.PARTIAL_STRUCTURAL] == partial + 1
            ledger._check(service)
            assert call(channel, EXPAND_OPERATION, values) == "first-time"
            ledger._check(service)
            assert call(channel, EXPAND_OPERATION, values) == "content"
            ledger._check(service)

            acct = service.accountant
            budget, fraction = acct.budget_bytes, acct.shed_target_fraction
            assert ledger._shed_once(service) == {"mirror": 1}
            ledger._check(service)
            acct.budget_bytes, acct.shed_target_fraction = budget, fraction
            call(channel, OPERATION, values)  # its mirror may be the one shed
            ledger._check(service)

            # A second connection under max_sessions=1 evicts the first
            # connection's (idle) session.
            evictions = service.sessions.evictions
            with RPCChannel(
                "127.0.0.1", server.port, policy=policy, retry=retry
            ) as other:
                assert call(other, OPERATION, values) == "first-time"
                assert service.sessions.evictions == evictions + 1
                ledger._check(service)
            call(channel, ECHO_OPERATION, grown)
            ledger._check(service)


class TestStateGauges:
    def test_metrics_endpoint_serves_state_bytes(self):
        service = build_service(0.0)
        with HTTPSoapServer(service) as httpd:
            channel = RPCChannel(httpd.host, httpd.port)
            try:
                channel.call(message_sequence("content", 16, 1)[0])
                # Scrape while the session is live: closing the channel
                # retires its session and the gauges drop back to zero.
                with socket.create_connection(
                    (httpd.host, httpd.port), timeout=10
                ) as conn:
                    conn.sendall(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
                    conn.settimeout(10)
                    data = b""
                    while b"\r\n\r\n" not in data:
                        chunk = conn.recv(1 << 16)
                        if not chunk:
                            break
                        data += chunk
                    head, _, body = data.partition(b"\r\n\r\n")
                    length = int(
                        [
                            line.partition(b":")[2]
                            for line in head.split(b"\r\n")
                            if line.lower().startswith(b"content-length")
                        ][0]
                    )
                    while len(body) < length:
                        body += conn.recv(1 << 16)
            finally:
                channel.close()
        parsed = parse_prometheus(body.decode("utf-8"))
        deser_keys = [
            k for k in parsed if k.startswith('repro_state_bytes{component="deser"')
        ]
        assert deser_keys and parsed[deser_keys[0]] > 0

    def test_merged_counters_include_state_ledger(self):
        service = build_service(0.0)
        service.handle_wire(_checksum_body(), {}, "s")
        merged = service.sessions.merged_counters()
        assert merged["state_bytes"] > 0
        assert merged["state_bytes"] == service.accountant.usage_bytes
        assert merged["state_budget_bytes"] == 1 << 26
        assert merged["state_bytes"] == service.sessions.state_bytes()


# ----------------------------------------------------------------------
# Eviction races
# ----------------------------------------------------------------------
class TestEvictionRaceHandleWire:
    def test_evicted_session_resyncs_then_serves_full_xml(self):
        service = build_service(0.0)
        body = _checksum_body(32)
        status, _x, _r = service.handle_wire(body, _ANNOUNCE, "race")
        assert status == 200
        frame = encode_frame(0, 0, 1, len(body), [], [], b"")
        status, _x, _r = service.handle_wire(
            frame, {"x-repro-delta-frame": "1"}, "race"
        )
        assert status == 200  # mirror live: frame applies
        # Evict with the "connection" (session id) still in use.
        service.sessions.close_session("race")
        frame2 = encode_frame(0, 0, 2, len(body), [], [], b"")
        status, extra, resp = service.handle_wire(
            frame2, {"x-repro-delta-frame": "1"}, "race"
        )
        assert status == 409  # clean resync, not a 5xx
        assert extra == ["X-Repro-Delta-Resync: 1"]
        assert resp == b""
        # The re-announced full-XML resend pays first-time and works.
        status, _x, resp = service.handle_wire(body, _ANNOUNCE, "race")
        assert status == 200
        assert b"Fault" not in resp

    def test_mirror_shed_alone_resyncs_without_eviction(self):
        service = build_service(0.0)
        body = _checksum_body(32)
        service.handle_wire(body, _ANNOUNCE, "race")
        session = next(
            s for s in service.sessions.sessions() if s.key == "race"
        )
        assert session.delta.drop_lru() > 0  # tier-1 shed
        frame = encode_frame(0, 0, 1, len(body), [], [], b"")
        status, extra, _r = service.handle_wire(
            frame, {"x-repro-delta-frame": "1"}, "race"
        )
        assert status == 409
        assert extra == ["X-Repro-Delta-Resync: 1"]


class TestEvictionRaceLiveHTTP:
    def test_client_survives_midstream_eviction(self):
        service = build_service(0.0)
        with HTTPSoapServer(service) as httpd:
            policy = DiffPolicy(delta=DeltaPolicy(offer=True))
            channel = RPCChannel(
                httpd.host,
                httpd.port,
                policy=policy,
                retry=RetryPolicy(max_attempts=4, base_delay=0.005, seed=3),
            )
            try:
                messages = message_sequence("content", 32, 6)
                expected = float(np.sum(messages[0].params[0].value))
                for message in messages[:3]:
                    assert channel.call(message).result() == pytest.approx(
                        expected
                    )
                victims = [
                    s.key
                    for s in service.sessions.sessions()
                    if not s.pinned
                ]
                assert victims
                for key in victims:
                    service.sessions.close_session(key)
                # Same connection, session gone server-side: the next
                # calls must recover (resync / first-time), never 5xx.
                for message in messages[3:]:
                    assert channel.call(message).result() == pytest.approx(
                        expected
                    )
                assert not channel.broken
            finally:
                channel.close()

    def test_pressure_eviction_between_calls_recovers(self):
        service = build_service(
            0.0, limits=ResourceLimits(max_state_bytes=100_000)
        )
        with HTTPSoapServer(service) as httpd:
            channels = [
                RPCChannel(
                    httpd.host,
                    httpd.port,
                    policy=DiffPolicy(delta=DeltaPolicy(offer=True)),
                    retry=RetryPolicy(
                        max_attempts=4, base_delay=0.005, seed=i
                    ),
                )
                for i in range(3)
            ]
            try:
                for round_no in range(4):
                    for i, channel in enumerate(channels):
                        message = message_sequence(
                            "content", 128, 1, seed=i
                        )[0]
                        expected = float(np.sum(message.params[0].value))
                        assert channel.call(message).result() == pytest.approx(
                            expected
                        )
                acct = service.accountant
                assert acct.usage_bytes <= acct.budget_bytes
                assert sum(acct.sheds.values()) >= 1
            finally:
                for channel in channels:
                    channel.close()

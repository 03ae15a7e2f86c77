"""Robustness: fuzzed inputs, malformed traffic, concurrent clients."""

import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import RPCChannel
from repro.core.client import BSoapClient
from repro.core.policy import DiffPolicy, StuffingPolicy, StuffMode
from repro.core.stats import MatchKind
from repro.errors import HTTPFramingError, ReproError, XMLSyntaxError
from repro.resilience import (
    CircuitBreaker,
    FaultInjectingTransport,
    FaultSpec,
    ReconnectingTCPTransport,
    RetryPolicy,
)
from repro.schema.composite import ArrayType
from repro.schema.registry import TypeRegistry
from repro.schema.types import DOUBLE
from repro.server.diffdeser import DifferentialDeserializer
from repro.server.parser import SOAPRequestParser
from repro.server.service import SOAPService
from repro.server.threaded_server import HTTPSoapServer
from repro.soap.fault import SOAPFault
from repro.soap.message import Parameter, SOAPMessage, structure_signature
from repro.transport.dummy_server import DummyServer
from repro.transport.http import parse_http_request
from repro.transport.loopback import CollectSink
from repro.transport.tcp import TCPTransport
from repro.xmlkit.scanner import XMLScanner

from tests.conftest import fresh_full_bytes


class TestScannerFuzz:
    @given(st.binary(max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_never_hangs_or_crashes(self, data):
        """Arbitrary bytes either scan or raise XMLSyntaxError/XMLError."""
        try:
            for _ in XMLScanner(data):
                pass
        except ReproError:
            pass
        except UnicodeDecodeError:
            pass  # binary garbage inside a token

    @given(st.text(alphabet="<>/&;ab \"'=!?-[]", max_size=120))
    @settings(max_examples=200, deadline=None)
    def test_markup_soup(self, text):
        try:
            for _ in XMLScanner(text.encode("utf-8")):
                pass
        except ReproError:
            pass


class TestParserFuzz:
    @given(st.binary(max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_request_parser_rejects_cleanly(self, data):
        parser = SOAPRequestParser()
        try:
            parser.parse(data)
        except ReproError:
            pass
        except UnicodeDecodeError:
            pass

    @given(st.binary(max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_diffdeser_full_fallback_never_corrupts(self, data):
        """After garbage, the deserializer still works on real traffic."""
        sink = CollectSink()
        BSoapClient(sink).send(
            SOAPMessage("op", "urn:t", [Parameter("a", ArrayType(DOUBLE), [1.0])])
        )
        dd = DifferentialDeserializer()
        dd.deserialize(sink.last)
        try:
            dd.deserialize(data)
        except ReproError:
            pass
        except UnicodeDecodeError:
            pass
        decoded, _ = dd.deserialize(sink.last)
        assert decoded.value("a")[0] == 1.0

    @given(st.binary(max_size=150))
    @settings(max_examples=100, deadline=None)
    def test_http_request_parser(self, data):
        try:
            parse_http_request(data)
        except ReproError:
            pass


class TestServiceRobustness:
    def test_service_answers_fault_on_garbage(self):
        svc = SOAPService("urn:t")

        @svc.operation("op")
        def op():
            return None

        for garbage in (b"", b"not xml", b"<a>", b"\x00\xff\xfe"):
            response = svc.handle(garbage)
            fault = SOAPFault.from_xml(response)
            assert fault is not None

    def test_http_server_survives_malformed_then_valid(self):
        svc = SOAPService("urn:t")
        hits = []

        @svc.operation("ping")
        def ping():
            hits.append(1)

        with HTTPSoapServer(svc) as server:
            # Raw garbage on one connection...
            raw = socket.create_connection(("127.0.0.1", server.port))
            raw.sendall(b"GARBAGE / NOT-HTTP\r\n\r\n")
            raw.close()
            time.sleep(0.1)
            # ...must not break subsequent well-formed requests.
            from repro.transport.http import HTTPTransport

            tcp = TCPTransport("127.0.0.1", server.port)
            http = HTTPTransport(tcp, mode="content-length")
            BSoapClient(http).send(SOAPMessage("ping", "urn:t", []))
            status, _h, _b = tcp.recv_http_response()
            assert status == 200
            tcp.close()
        assert hits == [1]


class TestConcurrentClients:
    def test_many_clients_drain_server(self):
        with DummyServer() as server:
            total = 8
            payload = b"z" * 20000
            errors = []

            def worker():
                try:
                    tcp = TCPTransport("127.0.0.1", server.port)
                    tcp.send_message([payload])
                    tcp.close()
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=worker) for _ in range(total)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=5)
            deadline = time.time() + 3
            expected = total * len(payload)
            while server.bytes_drained < expected and time.time() < deadline:
                time.sleep(0.02)
            assert not errors
            assert server.bytes_drained == expected
            assert server.connections == total


# ----------------------------------------------------------------------
# fault matrix: injected transport failures × match levels, live server
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def calc_server():
    svc = SOAPService("urn:calc", TypeRegistry())

    @svc.operation("total", result_type=DOUBLE)
    def total(a):
        return float(np.sum(a))

    with HTTPSoapServer(svc) as httpd:
        yield httpd


def _calc_msg(values):
    return SOAPMessage(
        "total", "urn:calc", [Parameter("a", ArrayType(DOUBLE), list(values))]
    )


def _fault_channel(port, *, script=None, stuffing=StuffMode.MAX, breaker=None):
    """An RPCChannel whose wire is (optionally) fault-injected."""
    policy = DiffPolicy(stuffing=StuffingPolicy(stuffing))
    raw = None
    if script is not None:
        raw = FaultInjectingTransport(
            ReconnectingTCPTransport("127.0.0.1", port), script=dict(script)
        )
    return RPCChannel(
        "127.0.0.1",
        port,
        policy=policy,
        retry=RetryPolicy(max_attempts=6, base_delay=0.002, jitter=0.0),
        breaker=breaker or CircuitBreaker(failure_threshold=50),
        raw_transport=raw,
    )


# level name -> (stuffing, priming calls, final call, expected match kind
# of the final call when nothing fails, ordinal of the faulted send)
_LEVELS = {
    "first-time": (
        StuffMode.MAX, [], [1.0, 2.0, 3.0], MatchKind.FIRST_TIME, 0,
    ),
    "content-match": (
        StuffMode.MAX, [[1.0, 2.0, 3.0]], [1.0, 2.0, 3.0],
        MatchKind.CONTENT_MATCH, 1,
    ),
    "perfect-structural": (
        StuffMode.MAX, [[1.0, 2.0, 3.0]], [1.0, 5.0, 3.0],
        MatchKind.PERFECT_STRUCTURAL, 1,
    ),
    "partial-structural": (
        StuffMode.NONE, [[1.0, 2.0]], [1.0, 123.456789],
        MatchKind.PARTIAL_STRUCTURAL, 1,
    ),
}

_RECOVERABLE_FAULTS = {
    "reset-mid-send": FaultSpec("reset-mid-send", at_byte=120),
    "truncate": FaultSpec("truncate", at_byte=80),
    "reset-before-recv": FaultSpec("reset-before-recv"),
    "http-status": FaultSpec("http-status", status=503),
    "corrupt-response": FaultSpec("corrupt-response", corrupt_at=2),
}


def _run_fault_scenario(port, level, spec):
    """Prime templates, fault the level's send, assert full recovery."""
    stuffing, primes, final, _kind, ordinal = _LEVELS[level]
    with _fault_channel(port, script={ordinal: spec}, stuffing=stuffing) as ch:
        for values in primes:
            ch.call(_calc_msg(values))
        response = ch.call(_calc_msg(final))
        assert response.result() == pytest.approx(sum(final))
        report = ch.last_send_report
        assert report.retries >= 1
        assert report.forced_full
        assert report.match_kind is MatchKind.FIRST_TIME
        stats = ch.channel_stats()
        assert stats["retries"] >= 1
        assert stats["forced_full_sends"] >= 1
        if spec.kind == "reset-mid-send":
            # Send-phase failure: the epoch was rolled back and the
            # connection redialed.
            assert stats["rollbacks"] >= 1
            assert stats["reconnects"] >= 1
        # The recovered template is byte-identical to a from-scratch
        # full serialization of the final message.
        template = ch.client.store.get(structure_signature(_calc_msg(final)))
        assert template.tobytes() == fresh_full_bytes(
            _calc_msg(final), ch.client.policy
        )


class TestFaultMatrix:
    """Transport faults crossed with the paper's four match levels."""

    @pytest.mark.parametrize("level", list(_LEVELS))
    def test_level_is_actually_exercised(self, calc_server, level):
        """Control: without faults each scenario hits its match level."""
        stuffing, primes, final, kind, _ordinal = _LEVELS[level]
        with _fault_channel(calc_server.port, stuffing=stuffing) as ch:
            for values in primes:
                ch.call(_calc_msg(values))
            response = ch.call(_calc_msg(final))
            assert response.result() == pytest.approx(sum(final))
            assert ch.last_send_report.match_kind is kind
            assert ch.last_send_report.retries == 0

    @pytest.mark.parametrize("level", list(_LEVELS))
    def test_connection_reset_mid_send(self, calc_server, level):
        """The acceptance scenario: kill the connection mid-send at
        every match level; the retry reconnects and resynchronizes."""
        _run_fault_scenario(
            calc_server.port, level, _RECOVERABLE_FAULTS["reset-mid-send"]
        )

    @pytest.mark.parametrize(
        "fault", [k for k in _RECOVERABLE_FAULTS if k != "reset-mid-send"]
    )
    def test_fault_kinds_on_differential_send(self, calc_server, fault):
        """Lost/corrupted/5xx responses on a differential send all
        recover via quarantine + forced full resend."""
        _run_fault_scenario(
            calc_server.port, "perfect-structural", _RECOVERABLE_FAULTS[fault]
        )

    @pytest.mark.slow
    @pytest.mark.parametrize("level", list(_LEVELS))
    @pytest.mark.parametrize("fault", list(_RECOVERABLE_FAULTS))
    def test_full_matrix(self, calc_server, level, fault):
        _run_fault_scenario(
            calc_server.port, level, _RECOVERABLE_FAULTS[fault]
        )

    def test_breaker_degrades_then_recovers(self, calc_server):
        """Repeated failures open the breaker: the channel keeps
        answering calls in full-serialization mode, then resumes
        differential sending once enough calls succeed."""
        script = {
            1: FaultSpec("reset-mid-send", at_byte=100),
            2: FaultSpec("reset-mid-send", at_byte=100),
        }
        breaker = CircuitBreaker(failure_threshold=2, recovery_successes=2)
        with _fault_channel(
            calc_server.port, script=script, breaker=breaker
        ) as ch:
            msg = [2.0, 3.0]
            assert ch.call(_calc_msg(msg)).result() == 5.0
            # Two consecutive injected resets within one call: the
            # breaker opens mid-call and the final attempt goes full.
            assert ch.call(_calc_msg(msg)).result() == 5.0
            assert breaker.opens == 1
            assert ch.channel_stats()["breaker_state"] == "open"
            assert ch.last_send_report.retries == 2
            # While open, calls still succeed — degraded, not rejected.
            assert ch.call(_calc_msg(msg)).result() == 5.0
            assert ch.last_send_report.match_kind is MatchKind.FIRST_TIME
            assert breaker.state == "closed"  # second success closed it
            # Differential sending resumes (after one resync send).
            ch.call(_calc_msg(msg))
            assert ch.call(_calc_msg(msg)).result() == 5.0
            assert ch.last_send_report.match_kind is MatchKind.CONTENT_MATCH

    @pytest.mark.slow
    def test_random_fault_soak(self, calc_server):
        """Pseudo-random fault storm: every call still lands."""
        raw = FaultInjectingTransport(
            ReconnectingTCPTransport("127.0.0.1", calc_server.port),
            rate=0.15,
            seed=11,
        )
        policy = DiffPolicy(stuffing=StuffingPolicy(StuffMode.MAX))
        with RPCChannel(
            "127.0.0.1",
            calc_server.port,
            policy=policy,
            retry=RetryPolicy(max_attempts=8, base_delay=0.002, jitter=0.0),
            breaker=CircuitBreaker(failure_threshold=100),
            raw_transport=raw,
        ) as ch:
            rng = np.random.default_rng(5)
            for i in range(40):
                values = [1.0, float(rng.integers(0, 1000)), 3.0]
                assert ch.call(_calc_msg(values)).result() == pytest.approx(
                    sum(values)
                )
            assert ch.calls == 40


class TestScale:
    """Paper-scale message sanity (100K doubles, the largest size)."""

    def test_100k_template_lifecycle(self):
        rng = np.random.default_rng(0)
        sink = CollectSink()
        client = BSoapClient(sink)
        n = 100_000
        message = SOAPMessage(
            "put", "urn:t", [Parameter("a", ArrayType(DOUBLE), rng.random(n))]
        )
        call = client.prepare(message)
        r1 = call.send()
        assert r1.bytes_sent > n * 10
        r2 = call.send()
        assert r2.bytes_sent == r1.bytes_sent
        idx = rng.choice(n, 1000, replace=False)
        call.tracked("a").update(idx, rng.random(1000))
        r3 = call.send()
        assert r3.rewrite.values_rewritten == 1000
        call.template.dut.validate()

"""Unit tests for the resilience subsystem.

Covers the retry policy and error classifier, the HTTP
incomplete/malformed framing split, transactional template commit and
rollback in the client stub, the circuit breaker, the reconnecting
transport, and the fault-injecting transport itself.  The end-to-end
fault matrix (faults × match levels over a live server) lives in
``test_robustness.py``.
"""

import socket
import threading

import pytest

from repro.core.client import BSoapClient
from repro.core.stats import MatchKind
from repro.errors import (
    HTTPFramingError,
    HTTPStatusError,
    IncompleteHTTPError,
    SOAPFaultError,
    TransportError,
)
from repro.resilience import (
    CircuitBreaker,
    FaultInjectingTransport,
    FaultSpec,
    ReconnectingTCPTransport,
    RetryPolicy,
    retryable_error,
)
from repro.schema.composite import ArrayType
from repro.schema.types import DOUBLE
from repro.soap.message import Parameter, SOAPMessage, structure_signature
from repro.transport.http import parse_http_request, parse_http_response
from repro.transport.loopback import CollectSink
from repro.transport.tcp import TCPTransport

from tests.conftest import fresh_full_bytes


def _msg(values):
    return SOAPMessage(
        "put", "urn:t", [Parameter("a", ArrayType(DOUBLE), list(values))]
    )


# ----------------------------------------------------------------------
# error classification + backoff schedule
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_classifier_table(self):
        assert retryable_error(TransportError("reset"))
        assert retryable_error(HTTPStatusError(503))
        assert retryable_error(HTTPStatusError(500))
        assert not retryable_error(HTTPStatusError(404))
        assert not retryable_error(HTTPFramingError("bad chunk size"))
        assert not retryable_error(IncompleteHTTPError("truncated"))
        assert not retryable_error(SOAPFaultError("Client", "nope"))
        assert not retryable_error(ValueError("local bug"))

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0)
        delays = [policy.backoff(k) for k in range(1, 6)]
        assert delays[:3] == [0.1, 0.2, 0.4]
        assert delays[3] == delays[4] == 0.5

    def test_jitter_is_seeded_and_bounded(self):
        a = RetryPolicy(base_delay=0.1, jitter=0.5, seed=7)
        b = RetryPolicy(base_delay=0.1, jitter=0.5, seed=7)
        sched_a = [a.backoff(k) for k in range(1, 6)]
        sched_b = [b.backoff(k) for k in range(1, 6)]
        assert sched_a == sched_b  # reproducible
        base = RetryPolicy(base_delay=0.1, jitter=0.0)
        for k, d in enumerate(sched_a, start=1):
            lo = base.backoff(k)
            assert lo <= d < lo * 1.5

    def test_admits_counts_and_deadline(self):
        policy = RetryPolicy(max_attempts=3, deadline=1.0)
        assert policy.admits(1, 0.0, 0.1)
        assert policy.admits(2, 0.5, 0.1)
        assert not policy.admits(3, 0.0, 0.1)  # budget exhausted
        assert not policy.admits(1, 0.95, 0.1)  # would overrun deadline

    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


# ----------------------------------------------------------------------
# incomplete vs malformed HTTP framing
# ----------------------------------------------------------------------
class TestFramingSplit:
    def test_incomplete_response_cases(self):
        for data in (
            b"HTTP/1.1 200 OK\r\nContent-Le",  # header block unterminated
            b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nab",  # short body
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nab",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5",
        ):
            with pytest.raises(IncompleteHTTPError):
                parse_http_response(data)

    def test_malformed_response_cases_fail_fast(self):
        for data in (
            b"HTTP/1.1 abc OK\r\n\r\n",  # non-numeric status
            b"GARBAGE\r\n\r\n",  # no status line shape
            b"HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\n",  # bad length
            b"HTTP/1.1 200 OK\r\nContent-Length: -3\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
        ):
            with pytest.raises(HTTPFramingError) as excinfo:
                parse_http_response(data)
            assert not isinstance(excinfo.value, IncompleteHTTPError), data

    def test_request_content_length_garbage_is_framing_error(self):
        data = b"POST /soap HTTP/1.1\r\nContent-Length: abc\r\n\r\n"
        with pytest.raises(HTTPFramingError) as excinfo:
            parse_http_request(data)
        assert not isinstance(excinfo.value, IncompleteHTTPError)

    def test_request_incomplete_body_is_incomplete(self):
        data = b"POST /soap HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"
        with pytest.raises(IncompleteHTTPError):
            parse_http_request(data)

    def test_recv_http_response_fails_fast_on_malformed(self):
        """A malformed response must raise immediately, not recv-loop
        toward the 16 MiB limit (the historical hang)."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def serve():
            conn, _ = listener.accept()
            conn.recv(65536)
            # Chunked framing with a garbage chunk-size line, then hold
            # the connection open: only fail-fast parsing returns.
            conn.sendall(
                b"HTTP/1.1 200 OK\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                b"not-hex\r\n"
            )
            threading.Event().wait(2.0)
            conn.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        tcp = TCPTransport("127.0.0.1", port)
        try:
            tcp.send_message([b"x"])
            with pytest.raises(HTTPFramingError, match="bad chunk size"):
                tcp.recv_http_response()
        finally:
            tcp.close()
            listener.close()


# ----------------------------------------------------------------------
# transactional template commit / rollback
# ----------------------------------------------------------------------
class TestTransactionalCommit:
    def _flaky_client(self, script):
        sink = CollectSink()
        injector = FaultInjectingTransport(sink, script=script)
        return BSoapClient(injector), sink, injector

    def test_rollback_restores_dirty_and_marks_suspect(self):
        client, _sink, _inj = self._flaky_client(
            {1: FaultSpec("reset-mid-send", at_byte=40)}
        )
        m0 = _msg([1.0, 2.0, 3.0])
        client.send(m0)
        m1 = _msg([1.0, 9.0, 3.0])
        with pytest.raises(TransportError, match="injected"):
            client.send(m1)
        template = client.store.get(structure_signature(m1))
        assert template.suspect
        assert template.dut.any_dirty  # the changed leaf is dirty again
        assert client.stats.rollbacks == 1

    def test_resync_is_byte_identical_to_fresh_serialization(self):
        client, sink, _inj = self._flaky_client(
            {1: FaultSpec("reset-mid-send", at_byte=40)}
        )
        m0 = _msg([1.0, 2.0, 3.0])
        client.send(m0)
        m1 = _msg([1.0, 9.0, 3.0])
        with pytest.raises(TransportError):
            client.send(m1)
        report = client.send(m1)
        assert report.match_kind is MatchKind.FIRST_TIME
        assert report.forced_full
        assert client.stats.forced_full_sends == 1
        assert sink.last == fresh_full_bytes(m1, client.policy)

    def test_prepared_call_survives_rollback(self):
        """PreparedCall handles stay valid across the in-place rebuild."""
        client, sink, _inj = self._flaky_client(
            {1: FaultSpec("reset-mid-send", at_byte=40)}
        )
        call = client.prepare(_msg([1.0, 2.0, 3.0]))
        call.send()
        tracked = call.tracked("a")
        tracked[1] = 123.456
        with pytest.raises(TransportError):
            call.send()
        report = call.send()  # same handle, after in-place rebuild
        assert report.forced_full
        assert report.match_kind is MatchKind.FIRST_TIME
        expected = _msg([1.0, 123.456, 3.0])
        assert sink.last == fresh_full_bytes(expected, client.policy)
        # ...and the next send goes differential again.
        tracked[0] = 7.0
        after = call.send()
        assert after.match_kind is not MatchKind.FIRST_TIME
        assert after.rewrite.values_rewritten == 1

    def test_first_time_send_failure_marks_suspect(self):
        client, sink, _inj = self._flaky_client(
            {0: FaultSpec("reset-mid-send", at_byte=40)}
        )
        m0 = _msg([5.0, 6.0])
        with pytest.raises(TransportError):
            client.send(m0)
        report = client.send(m0)
        assert report.match_kind is MatchKind.FIRST_TIME
        assert sink.last == fresh_full_bytes(m0, client.policy)

    def test_quarantine_forces_resync(self):
        client, sink, _inj = self._flaky_client({})
        m0 = _msg([1.0, 2.0])
        client.send(m0)
        client.quarantine(m0)
        report = client.send(m0)
        assert report.forced_full
        assert report.match_kind is MatchKind.FIRST_TIME
        assert sink.last == fresh_full_bytes(m0, client.policy)

    def test_force_full_mode_bypasses_templates(self):
        client, sink, _inj = self._flaky_client({})
        m0 = _msg([1.0, 2.0])
        client.send(m0)
        client.force_full = True
        report = client.send(m0)
        assert report.match_kind is MatchKind.FIRST_TIME
        client.force_full = False
        report = client.send(m0)
        assert report.match_kind is MatchKind.CONTENT_MATCH


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_opens_after_threshold_and_recovers(self):
        breaker = CircuitBreaker(failure_threshold=3, recovery_successes=2)
        assert breaker.state == "closed"
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.allow_differential()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow_differential()
        breaker.record_success()
        assert breaker.state == "open"  # one success is not enough
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.opens == 1

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_failure_while_open_resets_recovery(self):
        breaker = CircuitBreaker(failure_threshold=1, recovery_successes=2)
        breaker.record_failure()
        assert breaker.state == "open"
        breaker.record_success()
        breaker.record_failure()
        breaker.record_success()
        assert breaker.state == "open"  # streak restarted


# ----------------------------------------------------------------------
# fault injector determinism
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_scripted_fault_fires_once_at_ordinal(self):
        sink = CollectSink()
        injector = FaultInjectingTransport(
            sink, script={1: FaultSpec("reset-mid-send", at_byte=3)}
        )
        injector.send_message([b"aaaa"])
        with pytest.raises(TransportError):
            injector.send_message([b"bbbb"])
        injector.send_message([b"cccc"])
        assert injector.injected == [(1, "reset-mid-send")]
        # The peer saw a byte-exact prefix of the faulted message.
        assert sink.messages == [b"aaaa", b"bbb", b"cccc"]

    def test_random_mode_is_deterministic_per_seed(self):
        def run(seed):
            injector = FaultInjectingTransport(CollectSink(), rate=0.5, seed=seed)
            fired = []
            for _ in range(20):
                try:
                    injector.send_message([b"x" * 100])
                except TransportError:
                    pass
                try:
                    injector.recv_http_response()
                except Exception:
                    pass
            return list(injector.injected)

        assert run(3) == run(3)
        assert run(3) != run(4)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultSpec("meteor-strike")


# ----------------------------------------------------------------------
# reconnecting transport
# ----------------------------------------------------------------------
class TestReconnectingTransport:
    def test_redials_after_disconnect(self):
        from repro.transport.dummy_server import DummyServer

        with DummyServer() as server:
            with ReconnectingTCPTransport("127.0.0.1", server.port) as raw:
                raw.send_message([b"hello"])
                assert raw.connections == 1
                raw.disconnect()
                assert not raw.connected
                raw.send_message([b"again"])
                assert raw.connections == 2
                assert raw.reconnects == 1

    def test_closed_transport_refuses_use(self):
        from repro.transport.dummy_server import DummyServer

        with DummyServer() as server:
            raw = ReconnectingTCPTransport("127.0.0.1", server.port)
            raw.close()
            with pytest.raises(TransportError, match="closed"):
                raw.send_message([b"x"])

    def test_connect_error_is_transport_error(self):
        raw = ReconnectingTCPTransport("127.0.0.1", 1, connect_timeout=0.2)
        with pytest.raises(TransportError):
            raw.send_message([b"x"])

"""Server-side hardening: resource limits, fault-not-crash, fuzzing.

Each ResourceLimits bound gets a pair of tests at the limit (accepted)
and one unit past it (rejected); the malformed-wire corpus under
``tests/malformed/`` is driven through the deserializer, the service
dispatcher, and a live HTTP server; and the seeded fuzzer runs every
entry in-process, its probe checked against a planted mirror bug.
"""

from __future__ import annotations

import dataclasses
import json
import random
import socket
import threading
from pathlib import Path

import numpy as np
import pytest

import repro.errors
import repro.wire.server
from repro.core.client import BSoapClient
from repro.errors import (
    IncompleteHTTPError,
    RequestTooLargeError,
    ResourceLimitError,
    SOAPError,
    TransportError,
)
from repro.hardening import DEFAULT_LIMITS, UNLIMITED, ResourceLimits
from repro.hardening.fuzz import (
    ALLOWED_HTTP_STATUSES,
    ENTRIES,
    HTTPFuzzer,
    WireFuzzer,
    build_fuzz_service,
    raw_exchange,
    run,
)
from repro.schema.composite import ArrayType
from repro.schema.types import DOUBLE
from repro.server.diffdeser import DifferentialDeserializer
from repro.server.parser import SOAPRequestParser
from repro.server.threaded_server import HTTPSoapServer
from repro.soap.fault import SOAPFault
from repro.soap.message import Parameter, SOAPMessage
from repro.transport.dummy_server import DummyServer
from repro.transport.http import parse_http_request
from repro.transport.loopback import CollectSink
from repro.transport.tcp import TCPTransport
from repro.xmlkit.scanner import XMLScanner

MALFORMED_DIR = Path(__file__).parent / "malformed"
GOLDEN_DIR = Path(__file__).parent / "golden"

with (MALFORMED_DIR / "MANIFEST.json").open() as fh:
    MANIFEST = {k: v for k, v in json.load(fh).items() if not k.startswith("_")}


def serialize(message: SOAPMessage) -> bytes:
    sink = CollectSink()
    BSoapClient(sink).send(message)
    return sink.last


def doubles_wire(values) -> bytes:
    return serialize(
        SOAPMessage(
            "putDoubles",
            "urn:golden",
            [Parameter("data", ArrayType(DOUBLE), np.asarray(values, dtype=float))],
        )
    )


def http_post(body: bytes) -> bytes:
    return (
        b"POST / HTTP/1.1\r\nContent-Type: text/xml\r\n"
        b"Content-Length: %d\r\n\r\n" % len(body)
    ) + body


def exchange(port: int, raw: bytes, timeout: float = 5.0):
    """(disposition, status, payload) for one half-closed exchange."""
    disposition, payload = raw_exchange("127.0.0.1", port, raw, timeout)
    status = None
    if payload.startswith(b"HTTP/"):
        status = int(payload.split(None, 2)[1])
    return disposition, status, payload


# ----------------------------------------------------------------------
# ResourceLimits config object
# ----------------------------------------------------------------------
class TestResourceLimits:
    def test_defaults_are_positive_and_frozen(self):
        limits = ResourceLimits()
        assert limits.max_xml_depth > 0 and limits.read_deadline > 0
        with pytest.raises(Exception):
            limits.max_xml_depth = 1  # frozen dataclass

    @pytest.mark.parametrize(
        "field",
        [
            "max_body_bytes",
            "max_header_bytes",
            "max_xml_depth",
            "max_xml_elements",
            "max_attributes",
            "max_token_bytes",
            "max_requests_per_connection",
            "max_concurrent_connections",
        ],
    )
    def test_non_positive_rejected(self, field):
        with pytest.raises(ValueError):
            ResourceLimits(**{field: 0})

    def test_replace_overrides_one_field(self):
        limits = DEFAULT_LIMITS.replace(max_xml_depth=7)
        assert limits.max_xml_depth == 7
        assert limits.max_body_bytes == DEFAULT_LIMITS.max_body_bytes

    def test_recv_cap_spans_header_and_body(self):
        limits = ResourceLimits(max_body_bytes=100, max_header_bytes=50)
        assert limits.recv_cap == 150

    def test_unlimited_is_effectively_infinite(self):
        assert UNLIMITED.max_xml_depth > 10**6


# ----------------------------------------------------------------------
# Scanner-layer limits: at the bound and one unit past it
# ----------------------------------------------------------------------
LIM = DEFAULT_LIMITS.replace(
    max_xml_depth=4, max_xml_elements=6, max_attributes=3, max_token_bytes=8
)


def scan(doc: bytes, limits: ResourceLimits = LIM):
    return list(XMLScanner(doc, limits=limits))


class TestScannerLimits:
    def test_depth_at_limit(self):
        scan(b"<a>" * 4 + b"x" + b"</a>" * 4)

    def test_depth_one_past(self):
        with pytest.raises(ResourceLimitError) as err:
            scan(b"<a>" * 5 + b"x" + b"</a>" * 5)
        assert err.value.limit_name == "max_xml_depth"

    def test_elements_at_limit(self):
        scan(b"<r>" + b"<c/>" * 5 + b"</r>")  # 6 elements total

    def test_elements_one_past(self):
        with pytest.raises(ResourceLimitError) as err:
            scan(b"<r>" + b"<c/>" * 6 + b"</r>")
        assert err.value.limit_name == "max_xml_elements"

    def test_attributes_at_limit(self):
        scan(b'<e a1="v" a2="v" a3="v"/>')

    def test_attributes_one_past(self):
        with pytest.raises(ResourceLimitError) as err:
            scan(b'<e a1="v" a2="v" a3="v" a4="v"/>')
        assert err.value.limit_name == "max_attributes"

    def test_token_at_limit(self):
        scan(b"<" + b"t" * 8 + b"/>")

    def test_token_one_past(self):
        with pytest.raises(ResourceLimitError) as err:
            scan(b"<" + b"t" * 9 + b"/>")
        assert err.value.limit_name == "max_token_bytes"

    def test_resource_limit_error_is_soap_error(self):
        # The service layer relies on this to answer a Client fault.
        assert issubclass(ResourceLimitError, SOAPError)


# ----------------------------------------------------------------------
# Satellite 1: deep nesting — SOAPError, never RecursionError
# ----------------------------------------------------------------------
class TestDeepNesting:
    DEPTH = 10_000

    def deep_doc(self) -> bytes:
        return b"<d>" * self.DEPTH + b"x" + b"</d>" * self.DEPTH

    def test_default_limits_reject_early(self):
        with pytest.raises(ResourceLimitError) as err:
            SOAPRequestParser().parse(self.deep_doc())
        assert err.value.limit_name == "max_xml_depth"

    def test_10k_deep_builds_without_recursion(self):
        # With the depth cap lifted past 10k the parser must walk the
        # whole tree iteratively: the old recursive _element would die
        # with RecursionError long before this depth.  The document is
        # not a SOAP envelope, so the parse still *fails* — but with a
        # library error, after the tree was fully built.
        parser = SOAPRequestParser(
            limits=DEFAULT_LIMITS.replace(max_xml_depth=self.DEPTH + 1)
        )
        with pytest.raises(repro.errors.ReproError) as err:
            parser.parse(self.deep_doc())
        assert not isinstance(err.value, RecursionError)

    def test_10k_deep_scanner_is_iterative(self):
        events = scan(
            self.deep_doc(),
            limits=DEFAULT_LIMITS.replace(
                max_xml_depth=self.DEPTH + 1, max_xml_elements=self.DEPTH + 1
            ),
        )
        assert len(events) == 2 * self.DEPTH + 1


# ----------------------------------------------------------------------
# Service-level body cap + fault taxonomy
# ----------------------------------------------------------------------
class TestServiceLimits:
    def test_body_at_limit_is_dispatched(self):
        wire = doubles_wire([1.0, 2.0])
        service = build_fuzz_service(
            limits=DEFAULT_LIMITS.replace(max_body_bytes=len(wire))
        )
        assert SOAPFault.from_xml(service.handle(wire)) is None

    def test_body_one_past_limit_faults(self):
        wire = doubles_wire([1.0, 2.0])
        service = build_fuzz_service(
            limits=DEFAULT_LIMITS.replace(max_body_bytes=len(wire) - 1)
        )
        fault = SOAPFault.from_xml(service.handle(wire))
        assert fault is not None and fault.faultcode.endswith("Client")
        assert "max_body_bytes" in fault.faultstring

    def test_rejection_counter_labels_limit(self):
        wire = doubles_wire([1.0])
        service = build_fuzz_service(
            limits=DEFAULT_LIMITS.replace(max_body_bytes=1)
        )
        service.handle(wire)
        counter = service.obs.metrics.get("repro_requests_rejected_total")
        assert counter.value(reason="max_body_bytes") == 1

    def test_handler_arity_mismatch_is_client_fault(self):
        # A well-formed request whose parameters don't match the
        # handler signature: the TypeError must become a Client fault.
        from repro.server.service import Operation, SOAPService

        service = SOAPService("urn:golden")
        service.register(Operation("putDoubles", lambda: 0))  # takes nothing
        fault = SOAPFault.from_xml(service.handle(doubles_wire([1.0])))
        assert fault is not None and fault.faultcode.endswith("Client")


# ----------------------------------------------------------------------
# Differential state: garbage must not poison the template
# ----------------------------------------------------------------------
class TestDifferentialPoisoning:
    def test_bad_leaf_mid_update_resets_template(self):
        deser = DifferentialDeserializer()
        wire = doubles_wire([1.5, 2.5, 3.5])
        deser.deserialize(wire)
        assert deser.has_template
        # Same length, digits corrupted in place, after an earlier
        # leaf that changed legitimately: the differential matcher
        # accepts the shape, then a leaf turns out to be garbage.
        poisoned = wire.replace(b"1.5", b"4.5").replace(b"2.5", b"2.Z")
        assert len(poisoned) == len(wire)
        with pytest.raises(repro.errors.ReproError):
            deser.deserialize(poisoned)
        # Whatever template survived decodes equal to a fresh parse
        # of its own bytes: resending them — a content match if it is
        # still stored — must not show the 4.5 of a half-done update...
        message, _ = deser.deserialize(wire)
        assert np.array_equal(message.value("data"), [1.5, 2.5, 3.5])
        # ...and the next legitimate wire decodes correctly.
        message, _ = deser.deserialize(doubles_wire([9.0, 8.0, 7.0]))
        assert np.allclose(message.value("data"), [9.0, 8.0, 7.0])

    def test_service_recovers_after_poisoned_session(self):
        service = build_fuzz_service()
        wire = doubles_wire([1.5, 2.5, 3.5])
        assert SOAPFault.from_xml(service.handle(wire)) is None
        assert SOAPFault.from_xml(service.handle(wire.replace(b"2.5", b"2.Z"))) is not None
        assert SOAPFault.from_xml(service.handle(wire)) is None


# ----------------------------------------------------------------------
# Malformed corpus, driven through every layer
# ----------------------------------------------------------------------
class TestMalformedCorpus:
    @pytest.mark.parametrize("name", sorted(MANIFEST))
    def test_deserializer_raises_expected_class(self, name):
        data = (MALFORMED_DIR / name).read_bytes()
        expected = MANIFEST[name]["error"]
        deser = DifferentialDeserializer(build_fuzz_service().registry)
        if expected is None:
            deser.deserialize(data)  # parses clean
            return
        with pytest.raises(repro.errors.ReproError) as err:
            deser.deserialize(data)
        assert isinstance(err.value, getattr(repro.errors, expected)), (
            f"{name}: expected {expected}, got {type(err.value).__name__}"
        )

    @pytest.mark.parametrize("name", sorted(MANIFEST))
    def test_service_answers_client_fault(self, name):
        service = build_fuzz_service()
        fault = SOAPFault.from_xml(service.handle((MALFORMED_DIR / name).read_bytes()))
        assert fault is not None, f"{name}: no fault returned"
        assert fault.faultcode.endswith("Client")

    def test_live_http_answers_every_corpus_file(self):
        service = build_fuzz_service()
        with HTTPSoapServer(service) as server:
            for name in sorted(MANIFEST):
                body = (MALFORMED_DIR / name).read_bytes()
                disposition, status, payload = exchange(server.port, http_post(body))
                assert disposition == "closed", f"{name}: hung"
                assert status == 200, f"{name}: status {status}"
                _s, _h, resp_body, _c = _parse_response(payload)
                fault = SOAPFault.from_xml(resp_body)
                assert fault is not None and fault.faultcode.endswith("Client"), name


def _parse_response(payload: bytes):
    from repro.transport.http import parse_http_response

    status, headers, body, consumed = parse_http_response(payload)
    return status, headers, body, consumed


# ----------------------------------------------------------------------
# Satellite 3: configurable recv caps on the client transports
# ----------------------------------------------------------------------
class TestClientRecvCap:
    def _big_response_server(self, size: int):
        """One-shot server answering every connection with *size* body bytes."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def serve():
            conn, _ = listener.accept()
            conn.recv(65536)
            head = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % size
            conn.sendall(head + b"x" * size)
            conn.close()
            listener.close()

        threading.Thread(target=serve, daemon=True).start()
        return port

    def test_oversized_response_rejected_by_limits(self):
        port = self._big_response_server(4096)
        limits = ResourceLimits(max_body_bytes=1024, max_header_bytes=256)
        tcp = TCPTransport("127.0.0.1", port, limits=limits)
        tcp.send_message([b"GET / HTTP/1.1\r\n\r\n"])
        with pytest.raises(TransportError, match="size limit"):
            tcp.recv_http_response()
        tcp.close()

    def test_explicit_limit_still_overrides(self):
        port = self._big_response_server(64)
        tcp = TCPTransport("127.0.0.1", port)
        tcp.send_message([b"GET / HTTP/1.1\r\n\r\n"])
        status, _headers, body = tcp.recv_http_response(1 << 20)
        assert status == 200 and len(body) == 64
        tcp.close()


class TestDummyServerLimits:
    def test_respond_mode_answers_413_then_keeps_draining(self):
        limits = DEFAULT_LIMITS.replace(max_body_bytes=128, max_header_bytes=256)
        with DummyServer(respond=True, limits=limits) as server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
                sock.settimeout(5.0)
                sock.sendall(b"POST / HTTP/1.1\r\nContent-Length: 200\r\n\r\n" + b"x" * 200)
                data = sock.recv(65536)
            assert data.startswith(b"HTTP/1.1 413")


# ----------------------------------------------------------------------
# Parser-level HTTP framing limits (no sockets)
# ----------------------------------------------------------------------
class TestFramingLimits:
    LIMITS = ResourceLimits(max_body_bytes=64, max_header_bytes=128)

    def test_header_block_over_limit(self):
        raw = b"POST / HTTP/1.1\r\nX-J: " + b"j" * 200 + b"\r\n\r\n"
        with pytest.raises(RequestTooLargeError):
            parse_http_request(raw, limits=self.LIMITS)

    def test_incomplete_oversized_header_rejected_early(self):
        # No terminating CRLFCRLF yet, but already too big to ever fit.
        raw = b"POST / HTTP/1.1\r\nX-J: " + b"j" * 200
        with pytest.raises(RequestTooLargeError):
            parse_http_request(raw, limits=self.LIMITS)

    def test_declared_body_over_limit(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: 65\r\n\r\n" + b"x" * 65
        with pytest.raises(RequestTooLargeError):
            parse_http_request(raw, limits=self.LIMITS)

    def test_declared_body_at_limit(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: 64\r\n\r\n" + b"x" * 64
        request, consumed = parse_http_request(raw, limits=self.LIMITS)
        assert len(request.body) == 64 and consumed == len(raw)

    def test_chunked_accumulation_over_limit(self):
        chunks = b"".join(b"20\r\n" + b"x" * 32 + b"\r\n" for _ in range(3))
        raw = (
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            + chunks
            + b"0\r\n\r\n"
        )
        with pytest.raises(RequestTooLargeError):
            parse_http_request(raw, limits=self.LIMITS)

    def test_negative_chunk_size_is_framing_error(self):
        raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n-5\r\nxxxxx\r\n0\r\n\r\n"
        with pytest.raises(repro.errors.HTTPFramingError):
            parse_http_request(raw)

    def test_incomplete_stays_incomplete(self):
        with pytest.raises(IncompleteHTTPError):
            parse_http_request(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")


# ----------------------------------------------------------------------
# The seeded fuzzer: every entry, and the probe's teeth
# ----------------------------------------------------------------------
#: Entries whose cases carry delta frames through ``DeltaSession.apply``.
FRAME_ENTRIES = [
    name for name in ENTRIES if name == "service-delta" or name.startswith("delta-")
]


def drop_last_splice(real):
    """An ``apply_frame`` that loses the last splice of every frame."""

    def apply(frame, mirror):
        keep = frame.splice_count - 1
        kept = int(frame.widths[:keep].sum())
        real(
            dataclasses.replace(
                frame,
                offsets=frame.offsets[:keep],
                widths=frame.widths[:keep],
                payload=frame.payload[:kept],
            ),
            mirror,
        )

    return apply


class TestFuzzer:
    def test_wire_fuzzer_is_deterministic(self, rng_seed):
        corpus = [p.read_bytes() for p in sorted(GOLDEN_DIR.glob("*.xml"))]
        fuzzer = WireFuzzer(corpus)
        a, b = random.Random(rng_seed), random.Random(rng_seed)
        assert [fuzzer.next_case(a) for _ in range(50)] == [
            fuzzer.next_case(b) for _ in range(50)
        ]

    def test_http_fuzzer_is_deterministic(self, rng_seed):
        corpus = [p.read_bytes() for p in sorted(GOLDEN_DIR.glob("*.xml"))]
        fuzzer = HTTPFuzzer(WireFuzzer(corpus))
        a, b = random.Random(rng_seed), random.Random(rng_seed)
        assert [fuzzer.next_case(a) for _ in range(50)] == [
            fuzzer.next_case(b) for _ in range(50)
        ]

    @pytest.mark.parametrize("entry", list(ENTRIES))
    def test_entry_fuzz(self, entry, rng_seed):
        service = build_fuzz_service()
        report = run(entry, rng_seed, 200, probe_every=25, service=service)
        assert report.ok, "\n".join(report.violations[:10])
        assert report.iterations == 200
        # Outcome counts are exported through the obs registry.
        counter = service.obs.metrics.get("repro_fuzz_cases_total")
        assert sum(count for _labels, count in counter.samples()) == 200
        outcomes = report.outcomes
        if entry == "service":
            # All-fault would mean the corpus or service is misconfigured.
            assert outcomes.get("ok", 0) > 0 and outcomes.get("fault", 0) > 0
        elif entry.startswith(("http:", "delta-http:")):
            for outcome in outcomes:
                head, *statuses = outcome.split("_")
                assert head == "http" and statuses, outcome
                assert all(int(s) in ALLOWED_HTTP_STATUSES for s in statuses)
        elif entry == "delta-reply":
            assert outcomes.get("resync", 0) > 0 and outcomes.get("ok", 0) > 0
            # Frames whose directory names leaf regions of the reply —
            # the ones the channel's frame lane decodes from — were
            # among the cases.
            aimed = ("region_splices", "region_garbage")
            assert sum(report.mutators.get(name, 0) for name in aimed) > 0
        elif entry == "parse":
            assert outcomes == {"agreed": 200}

    @pytest.mark.parametrize("planted", [False, True], ids=["real", "dropped-splice"])
    @pytest.mark.parametrize("entry", FRAME_ENTRIES)
    def test_probe_sees_a_dropped_splice(self, entry, planted, rng_seed, monkeypatch):
        """The probe frame changes a leaf, so a mirror that silently
        loses a splice decodes the old value and the probe says so."""
        if planted:
            real = repro.wire.server.apply_frame
            monkeypatch.setattr(repro.wire.server, "apply_frame", drop_last_splice(real))
        report = run(entry, rng_seed, 20, probe_every=10)
        probes = [v for v in report.violations if "probe after case" in v]
        assert bool(probes) is planted, report.violations[:3]
        assert report.ok is not planted

    @pytest.mark.slow
    def test_service_fuzz_multi_seed_soak(self, rng_seed):
        for offset in range(5):
            report = run("service", rng_seed + offset, 2000)
            assert report.ok, "\n".join(report.violations[:10])

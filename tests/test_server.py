"""Unit tests for the server side: parser, diffdeser, service, HTTP."""

import numpy as np
import pytest

from repro.core.client import BSoapClient
from repro.core.policy import DiffPolicy, StuffingPolicy, StuffMode
from repro.schema.composite import ArrayType
from repro.schema.mio import MIO_TYPE, make_mio_array_type
from repro.schema.registry import TypeRegistry
from repro.schema.types import DOUBLE, INT, STRING
from repro.server.diffdeser import DeserKind, DifferentialDeserializer
from repro.server.parser import SOAPRequestParser
from repro.server.service import Operation, SOAPService
from repro.server.threaded_server import HTTPSoapServer
from repro.soap.fault import SOAPFault
from repro.soap.message import Parameter, SOAPMessage
from repro.transport.http import HTTPTransport
from repro.transport.loopback import CollectSink
from repro.transport.tcp import TCPTransport


def registry():
    reg = TypeRegistry()
    reg.register_struct(MIO_TYPE)
    return reg


def serialize(message, policy=None):
    sink = CollectSink()
    BSoapClient(sink, policy).send(message)
    return sink.last


class TestRequestParser:
    def test_double_array(self):
        data = serialize(
            SOAPMessage("put", "urn:t", [Parameter("a", ArrayType(DOUBLE), [0.5, 1.5])])
        )
        result = SOAPRequestParser().parse(data)
        assert result.message.operation == "put"
        assert np.allclose(result.message.value("a"), [0.5, 1.5])
        assert result.leaf_count == 2

    def test_int_array(self):
        data = serialize(
            SOAPMessage("put", "urn:t", [Parameter("a", ArrayType(INT), [-3, 9])])
        )
        result = SOAPRequestParser().parse(data)
        assert result.message.value("a").tolist() == [-3, 9]

    def test_struct_array(self):
        data = serialize(
            SOAPMessage(
                "put",
                "urn:t",
                [Parameter("m", make_mio_array_type(), {"x": [1], "y": [2], "v": [0.5]})],
            )
        )
        result = SOAPRequestParser(registry()).parse(data)
        cols = result.message.value("m")
        assert cols["x"].tolist() == [1] and cols["v"].tolist() == [0.5]
        assert result.leaf_count == 3

    def test_scalar_params(self):
        data = serialize(
            SOAPMessage(
                "op", "urn:t", [Parameter("n", INT, 5), Parameter("f", DOUBLE, 1.5)]
            )
        )
        result = SOAPRequestParser().parse(data)
        assert result.message.value("n") == 5
        assert result.message.value("f") == 1.5

    def test_string_array(self):
        data = serialize(
            SOAPMessage("op", "urn:t", [Parameter("s", ArrayType(STRING), ["a<b", "c"])])
        )
        result = SOAPRequestParser().parse(data)
        assert result.message.value("s") == ["a<b", "c"]

    def test_spans_point_at_values(self):
        message = SOAPMessage(
            "put", "urn:t", [Parameter("a", ArrayType(DOUBLE), [0.5, 1.5])]
        )
        data = serialize(message)
        result = SOAPRequestParser().parse(data)
        s, e = result.spans[0]
        assert data[s:e] == b"0.5"

    def test_regions_cover_stuffing(self):
        message = SOAPMessage(
            "put", "urn:t", [Parameter("a", ArrayType(DOUBLE), [0.5])]
        )
        data = serialize(message, DiffPolicy(stuffing=StuffingPolicy(StuffMode.MAX)))
        result = SOAPRequestParser().parse(data)
        s, e = result.regions[0]
        region = data[s:e]
        assert region.startswith(b"0.5</item>")
        assert region.endswith(b" ")  # includes the pad

    def test_set_leaf_updates_in_place(self):
        data = serialize(
            SOAPMessage("put", "urn:t", [Parameter("a", ArrayType(DOUBLE), [0.5, 1.5])])
        )
        result = SOAPRequestParser().parse(data)
        result.store_leaf(1, result.leaf_type(1).parse(b"9.25"))
        assert result.message.value("a")[1] == 9.25
        assert result.message.value("a")[0] == 0.5

    def test_missing_body_rejected(self):
        from repro.errors import SOAPError

        with pytest.raises(SOAPError):
            SOAPRequestParser().parse(b"<a><b/></a>")

    def test_arraytype_count_mismatch_rejected(self):
        from repro.errors import SOAPError

        data = serialize(
            SOAPMessage("put", "urn:t", [Parameter("a", ArrayType(INT), [1, 2])])
        ).replace(b"xsd:int[2]", b"xsd:int[3]")
        with pytest.raises(SOAPError):
            SOAPRequestParser().parse(data)


class TestDifferentialDeserializer:
    def _client(self):
        sink = CollectSink()
        client = BSoapClient(sink, DiffPolicy(stuffing=StuffingPolicy(StuffMode.MAX)))
        return sink, client

    def test_full_then_content(self):
        sink, client = self._client()
        call = client.prepare(
            SOAPMessage("put", "urn:t", [Parameter("a", ArrayType(DOUBLE), [1.0, 2.0])])
        )
        call.send()
        dd = DifferentialDeserializer()
        _, r1 = dd.deserialize(sink.last)
        assert r1.kind is DeserKind.FULL
        call.send()
        _, r2 = dd.deserialize(sink.last)
        assert r2.kind is DeserKind.CONTENT_MATCH

    def test_differential_parses_only_changed(self):
        sink, client = self._client()
        call = client.prepare(
            SOAPMessage(
                "put", "urn:t", [Parameter("a", ArrayType(DOUBLE), list(range(20)))]
            )
        )
        call.send()
        dd = DifferentialDeserializer()
        dd.deserialize(sink.last)
        call.tracked("a")[7] = 123.456
        call.send()
        decoded, report = dd.deserialize(sink.last)
        assert report.kind is DeserKind.DIFFERENTIAL
        assert report.leaves_parsed == 1
        assert decoded.value("a")[7] == 123.456
        assert decoded.value("a")[6] == 6.0

    def test_length_change_forces_full(self):
        sink, client = self._client()
        client.send(
            SOAPMessage("put", "urn:t", [Parameter("a", ArrayType(DOUBLE), [1.0, 2.0])])
        )
        dd = DifferentialDeserializer()
        dd.deserialize(sink.last)
        client.send(
            SOAPMessage("put", "urn:t", [Parameter("a", ArrayType(DOUBLE), [1.0, 2.0, 3.0])])
        )
        _, report = dd.deserialize(sink.last)
        assert report.kind is DeserKind.FULL

    def test_skeleton_change_forces_full(self):
        sink, client = self._client()
        client.send(
            SOAPMessage("put", "urn:t", [Parameter("a", ArrayType(DOUBLE), [1.0, 2.0])])
        )
        dd = DifferentialDeserializer()
        dd.deserialize(sink.last)
        # Same length, but a skeleton byte (namespace URI) mutated —
        # still well-formed XML, just not the stored template.
        tampered = sink.last.replace(b'xmlns:ns="urn:t"', b'xmlns:ns="urn:u"')
        assert len(tampered) == len(sink.last)
        _, report = dd.deserialize(tampered)
        assert report.kind is DeserKind.FULL

    def test_repeated_differential_keeps_template_fresh(self):
        sink, client = self._client()
        call = client.prepare(
            SOAPMessage("put", "urn:t", [Parameter("a", ArrayType(DOUBLE), [1.0, 2.0])])
        )
        call.send()
        dd = DifferentialDeserializer()
        dd.deserialize(sink.last)
        for value in (5.5, 6.5, 7.5):
            call.tracked("a")[0] = value
            call.send()
            decoded, report = dd.deserialize(sink.last)
            assert report.kind is DeserKind.DIFFERENTIAL
            assert decoded.value("a")[0] == value

    def test_mio_differential(self):
        sink, client = self._client()
        call = client.prepare(
            SOAPMessage(
                "put",
                "urn:t",
                [Parameter("m", make_mio_array_type(), {"x": [1, 2], "y": [3, 4], "v": [0.5, 1.5]})],
            )
        )
        call.send()
        dd = DifferentialDeserializer(registry())
        dd.deserialize(sink.last)
        call.tracked("m").set(0, "v", 99.5)
        call.send()
        decoded, report = dd.deserialize(sink.last)
        assert report.kind is DeserKind.DIFFERENTIAL
        assert decoded.value("m")["v"][0] == 99.5

    def test_reset(self):
        dd = DifferentialDeserializer()
        assert not dd.has_template
        sink, client = self._client()
        client.send(SOAPMessage("p", "urn:t", [Parameter("n", INT, 1)]))
        dd.deserialize(sink.last)
        assert dd.has_template
        dd.reset()
        assert not dd.has_template


class TestService:
    def _service(self):
        svc = SOAPService("urn:calc", registry())

        @svc.operation("total", result_type=DOUBLE)
        def total(a):
            return float(np.sum(a))

        return svc

    def _request(self, values):
        return serialize(
            SOAPMessage("total", "urn:calc", [Parameter("a", ArrayType(DOUBLE), values)]),
            DiffPolicy(stuffing=StuffingPolicy(StuffMode.MAX)),
        )

    def test_dispatch_and_response(self):
        svc = self._service()
        response = svc.handle(self._request([1.0, 2.0, 3.0]))
        result = SOAPRequestParser().parse(response)
        assert result.message.operation == "totalResponse"
        assert result.message.value("return") == 6.0

    def test_unknown_operation_fault(self):
        svc = self._service()
        body = serialize(SOAPMessage("nope", "urn:calc", []))
        fault = SOAPFault.from_xml(svc.handle(body))
        assert fault is not None and "unknown operation" in fault.faultstring

    def test_handler_exception_becomes_server_fault(self):
        svc = SOAPService("urn:x")

        @svc.operation("boom")
        def boom():
            raise RuntimeError("kapow")

        fault = SOAPFault.from_xml(svc.handle(serialize(SOAPMessage("boom", "urn:x", []))))
        assert fault.faultcode.endswith("Server")
        assert "kapow" in fault.faultstring
        assert svc.faults_returned == 1

    def test_duplicate_registration_rejected(self):
        from repro.errors import SOAPError

        svc = self._service()
        with pytest.raises(SOAPError):
            svc.register(Operation("total", lambda: None))

    def test_response_templates_reused(self):
        svc = self._service()
        for v in ([1.0, 2.0], [3.0, 4.0], [5.0, 6.0]):
            svc.handle(self._request(v))
        stats = svc.response_stats
        # After the first response, same-shaped responses reuse the template.
        assert stats.templates_built == 1
        assert stats.sends == 3

    def test_differential_deser_counters(self):
        svc = self._service()
        client_sink = CollectSink()
        client = BSoapClient(
            client_sink, DiffPolicy(stuffing=StuffingPolicy(StuffMode.MAX))
        )
        call = client.prepare(
            SOAPMessage("total", "urn:calc", [Parameter("a", ArrayType(DOUBLE), [1.0, 2.0])])
        )
        call.send()
        svc.handle(client_sink.last)
        call.tracked("a")[0] = 9.0
        call.send()
        svc.handle(client_sink.last)
        assert svc.deserializer.stats[DeserKind.DIFFERENTIAL] == 1


class TestHTTPServer:
    def test_end_to_end_http(self):
        svc = SOAPService("urn:calc", registry())

        @svc.operation("echoSum", result_type=DOUBLE)
        def echo(a):
            return float(np.sum(a))

        with HTTPSoapServer(svc) as server:
            tcp = TCPTransport("127.0.0.1", server.port)
            http = HTTPTransport(tcp, mode="content-length")
            client = BSoapClient(http)
            client.send(
                SOAPMessage(
                    "echoSum", "urn:calc", [Parameter("a", ArrayType(DOUBLE), [2.0, 3.0])]
                )
            )
            status, _headers, body = tcp.recv_http_response()
            assert status == 200
            parsed = SOAPRequestParser().parse(body)
            assert parsed.message.value("return") == 5.0
            tcp.close()

    def test_chunked_requests_accepted(self):
        svc = SOAPService("urn:calc", registry())

        @svc.operation("one", result_type=INT)
        def one():
            return 1

        with HTTPSoapServer(svc) as server:
            tcp = TCPTransport("127.0.0.1", server.port)
            http = HTTPTransport(tcp, mode="chunked")
            BSoapClient(http).send(SOAPMessage("one", "urn:calc", []))
            status, _h, body = tcp.recv_http_response()
            assert status == 200 and b"oneResponse" in body
            tcp.close()

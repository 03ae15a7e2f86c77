"""Integration tests: services built from WSDL defs, serving their WSDL."""

import socket

import numpy as np
import pytest

from repro.errors import SOAPError
from repro.schema.composite import ArrayType
from repro.schema.types import DOUBLE, INT
from repro.server.parser import SOAPRequestParser
from repro.server.service import SOAPService
from repro.server.threaded_server import HTTPSoapServer
from repro.soap.message import Parameter, SOAPMessage
from repro.transport.http import parse_http_response
from repro.channel import RPCChannel
from repro.wsdl.model import OperationDef, ParamDef, ServiceDef
from repro.xmlkit.scanner import parse_document


def stats_definition():
    definition = ServiceDef("Stats", "urn:stats")
    definition.add(
        OperationDef(
            "mean",
            (ParamDef("samples", ArrayType(DOUBLE)),),
            ParamDef("value", DOUBLE),
        )
    )
    definition.add(
        OperationDef("count", (ParamDef("samples", ArrayType(DOUBLE)),),
                     ParamDef("n", INT))
    )
    return definition


def build_service():
    return SOAPService.from_definition(
        stats_definition(),
        {
            "mean": lambda samples: float(np.mean(samples)),
            "count": lambda samples: len(samples),
        },
    )


class TestFromDefinition:
    def test_operations_registered(self):
        svc = build_service()
        body_sink = svc.handle  # noqa: F841 - dispatch below
        from repro.core.client import BSoapClient
        from repro.transport.loopback import CollectSink

        sink = CollectSink()
        BSoapClient(sink).send(
            SOAPMessage("mean", "urn:stats",
                        [Parameter("samples", ArrayType(DOUBLE), [2.0, 4.0])])
        )
        response = svc.handle(sink.last)
        decoded = SOAPRequestParser().parse(response).message
        assert decoded.operation == "meanResponse"
        assert decoded.value("value") == 3.0

    def test_result_name_from_definition(self):
        svc = build_service()
        from repro.core.client import BSoapClient
        from repro.transport.loopback import CollectSink

        sink = CollectSink()
        BSoapClient(sink).send(
            SOAPMessage("count", "urn:stats",
                        [Parameter("samples", ArrayType(DOUBLE), [1.0] * 5)])
        )
        decoded = SOAPRequestParser().parse(svc.handle(sink.last)).message
        assert decoded.value("n") == 5

    def test_missing_handler_rejected(self):
        with pytest.raises(SOAPError, match="no handler"):
            SOAPService.from_definition(stats_definition(), {"mean": lambda s: 0.0})

    def test_wsdl_method(self):
        svc = build_service()
        doc = svc.wsdl()
        parse_document(doc)
        assert b'wsdl:operation name="mean"' in doc

    def test_wsdl_without_definition_raises(self):
        with pytest.raises(SOAPError):
            SOAPService("urn:x").wsdl()


class TestWsdlOverHTTP:
    def test_get_wsdl(self):
        svc = build_service()
        with HTTPSoapServer(svc) as server:
            conn = socket.create_connection(("127.0.0.1", server.port))
            conn.sendall(b"GET /soap?wsdl HTTP/1.1\r\nHost: x\r\n\r\n")
            data = b""
            conn.settimeout(3)
            while True:
                try:
                    status, headers, body, _ = parse_http_response(data)
                    break
                except Exception:
                    chunk = conn.recv(65536)
                    if not chunk:
                        break
                    data += chunk
            conn.close()
            assert status == 200
            parse_document(body)
            assert b"wsdl:definitions" in body

    def test_get_wsdl_404_without_definition(self):
        svc = SOAPService("urn:x")
        with HTTPSoapServer(svc) as server:
            conn = socket.create_connection(("127.0.0.1", server.port))
            conn.sendall(b"GET /soap?wsdl HTTP/1.1\r\nHost: x\r\n\r\n")
            conn.settimeout(3)
            data = conn.recv(65536)
            conn.close()
            assert data.startswith(b"HTTP/1.1 404")

    def test_wsdl_then_rpc_on_same_server(self):
        svc = build_service()
        with HTTPSoapServer(svc) as server:
            # Fetch WSDL first...
            conn = socket.create_connection(("127.0.0.1", server.port))
            conn.sendall(b"GET /soap?wsdl HTTP/1.1\r\nHost: x\r\n\r\n")
            conn.settimeout(3)
            conn.recv(1 << 20)
            conn.close()
            # ...then make a real call.
            with RPCChannel("127.0.0.1", server.port) as channel:
                response = channel.call(
                    SOAPMessage(
                        "mean", "urn:stats",
                        [Parameter("samples", ArrayType(DOUBLE), [1.0, 3.0])],
                    )
                )
                assert response.values["value"] == 2.0

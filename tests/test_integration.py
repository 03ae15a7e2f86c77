"""End-to-end integration tests across the whole stack."""

import time

import numpy as np
import pytest

from repro.apps.lsa import LinearSystemAnalyzer, make_test_system
from repro.core.client import BSoapClient
from repro.core.policy import (
    DiffPolicy,
    OverlayPolicy,
    StuffingPolicy,
    StuffMode,
)
from repro.core.stats import MatchKind
from repro.schema.composite import ArrayType
from repro.schema.mio import MIO_TYPE, make_mio_array_type
from repro.schema.registry import TypeRegistry
from repro.schema.types import DOUBLE, INT
from repro.server.diffdeser import DeserKind
from repro.server.parser import SOAPRequestParser
from repro.server.service import SOAPService
from repro.server.threaded_server import HTTPSoapServer
from repro.soap.message import Parameter, SOAPMessage
from repro.transport.dummy_server import DummyServer
from repro.transport.http import HTTPTransport
from repro.transport.loopback import CollectSink
from repro.transport.tcp import TCPTransport
from repro.wsdl.emit import emit_wsdl
from repro.wsdl.model import OperationDef, ParamDef, ServiceDef
from repro.wsdl.stubgen import build_proxy


class TestPaperScenarioOverTCP:
    """The paper's measurement rig, end to end: client → HTTP/1.1
    chunked → localhost TCP → drain server, across all match kinds."""

    def test_all_match_kinds_over_wire(self):
        with DummyServer() as server:
            tcp = TCPTransport("127.0.0.1", server.port)
            http = HTTPTransport(tcp, mode="chunked")
            client = BSoapClient(http)
            rng = np.random.default_rng(0)
            message = SOAPMessage(
                "put",
                "urn:grid",
                [Parameter("data", ArrayType(DOUBLE), rng.random(500))],
            )
            call = client.prepare(message)
            kinds = [call.send().match_kind]
            kinds.append(call.send().match_kind)
            call.tracked("data")[3] = 0.5
            kinds.append(call.send().match_kind)
            call.tracked("data")[4] = 0.12345678901234567
            kinds.append(call.send().match_kind)
            assert kinds == [
                MatchKind.FIRST_TIME,
                MatchKind.CONTENT_MATCH,
                MatchKind.PERFECT_STRUCTURAL,
                MatchKind.PARTIAL_STRUCTURAL,
            ]
            expected = client.stats.bytes_sent
            tcp.close()
            deadline = time.time() + 3
            while time.time() < deadline and server.bytes_drained <= expected:
                time.sleep(0.02)
            # Drained = payload + HTTP headers/chunk framing.
            assert server.bytes_drained > expected

    def test_overlay_over_wire_decodes_correctly(self):
        policy = DiffPolicy(
            stuffing=StuffingPolicy(StuffMode.MAX),
            overlay=OverlayPolicy(enabled=True, portion_items=32, min_items=8),
        )
        svc = SOAPService("urn:grid", TypeRegistry())
        received = {}

        @svc.operation("putBig", result_type=INT)
        def put_big(data):
            received["data"] = np.array(data)
            return len(data)

        with HTTPSoapServer(svc) as server:
            tcp = TCPTransport("127.0.0.1", server.port)
            http = HTTPTransport(tcp, mode="chunked")
            client = BSoapClient(http, policy)
            values = np.linspace(0, 1, 200)
            client.send(
                SOAPMessage("putBig", "urn:grid", [Parameter("data", ArrayType(DOUBLE), values)])
            )
            status, _h, body = tcp.recv_http_response()
            assert status == 200
            result = SOAPRequestParser().parse(body)
            assert result.message.value("return") == 200
            assert np.allclose(received["data"], values)
            tcp.close()


class TestClientServerDifferentialPipeline:
    """Differential serialization on one side, differential
    deserialization on the other — the full §6 vision."""

    def test_dirty_fraction_visible_to_server(self):
        registry = TypeRegistry()
        registry.register_struct(MIO_TYPE)
        svc = SOAPService("urn:pde", registry)
        seen = []

        @svc.operation("exchange", result_type=INT)
        def exchange(mesh):
            seen.append({k: v.copy() for k, v in mesh.items()})
            return len(mesh["x"])

        sink = CollectSink()
        client = BSoapClient(
            sink, DiffPolicy(stuffing=StuffingPolicy(StuffMode.MAX))
        )
        cols = {
            "x": np.arange(50),
            "y": np.arange(50) * 2,
            "v": np.linspace(0, 1, 50),
        }
        call = client.prepare(
            SOAPMessage("exchange", "urn:pde", [Parameter("mesh", make_mio_array_type(), cols)])
        )
        call.send()
        svc.handle(sink.last)
        assert svc.deserializer.stats[DeserKind.FULL] == 1

        # Mutate 5 of 150 leaves; the server re-parses exactly those.
        tracked = call.tracked("mesh")
        tracked.set_items(np.arange(5), "v", np.full(5, 7.5))
        call.send()
        svc.handle(sink.last)
        assert svc.deserializer.stats[DeserKind.DIFFERENTIAL] == 1
        assert np.allclose(seen[-1]["v"][:5], 7.5)
        assert np.allclose(seen[-1]["v"][5:], cols["v"][5:])
        assert (seen[-1]["x"] == cols["x"]).all()

    def test_steady_state_traffic_histogram(self):
        svc = SOAPService("urn:feed", TypeRegistry())

        @svc.operation("tick", result_type=INT)
        def tick(prices):
            return len(prices)

        sink = CollectSink()
        client = BSoapClient(
            sink, DiffPolicy(stuffing=StuffingPolicy(StuffMode.MAX))
        )
        rng = np.random.default_rng(5)
        prices = rng.random(100)
        call = client.prepare(
            SOAPMessage("tick", "urn:feed", [Parameter("prices", ArrayType(DOUBLE), prices)])
        )
        for _ in range(20):
            moved = rng.choice(100, 7, replace=False)
            call.tracked("prices").update(moved, rng.random(7))
            call.send()
            svc.handle(sink.last)
        stats = svc.deserializer.stats
        assert stats[DeserKind.FULL] == 1
        assert stats[DeserKind.DIFFERENTIAL] == 19


class TestWsdlDrivenWorkflow:
    def test_wsdl_generate_then_call(self):
        service = ServiceDef("Mesh", "urn:mesh")
        service.add(
            OperationDef("putMesh", (ParamDef("mesh", make_mio_array_type()),))
        )
        wsdl = emit_wsdl(service)
        assert b"ArrayOf_MIO" in wsdl
        sink = CollectSink()
        proxy = build_proxy(service, BSoapClient(sink))
        cols = {"x": [1, 2], "y": [3, 4], "v": [0.5, 1.5]}
        r1 = proxy.putMesh(mesh=cols)
        r2 = proxy.putMesh(mesh=cols)
        assert r1.match_kind is MatchKind.FIRST_TIME
        assert r2.match_kind is MatchKind.CONTENT_MATCH
        registry = TypeRegistry()
        registry.register_struct(MIO_TYPE)
        decoded = SOAPRequestParser(registry).parse(sink.last).message
        assert decoded.value("mesh")["v"].tolist() == [0.5, 1.5]


class TestApplicationOverRealService:
    def test_lsa_vectors_through_http_service(self):
        svc = SOAPService("urn:lsa:solution-exchange", TypeRegistry())
        norms = []

        @svc.operation("putSolution", result_type=DOUBLE)
        def put_solution(x):
            norms.append(float(np.linalg.norm(x)))
            return norms[-1]

        with HTTPSoapServer(svc) as server:
            tcp = TCPTransport("127.0.0.1", server.port)
            http = HTTPTransport(tcp, mode="content-length")
            client = BSoapClient(
                http, DiffPolicy(stuffing=StuffingPolicy(StuffMode.MAX))
            )
            a, b = make_test_system(30, seed=9)
            lsa = LinearSystemAnalyzer(client)

            # Drain responses as the solver sends (keep socket usable).
            orig_send = http.send_message

            def send_and_drain(views, total=None):
                n = orig_send(views, total)
                tcp.recv_http_response()
                return n

            http.send_message = send_and_drain
            report = lsa.solve(a, b, tol=1e-8, max_iters=100)
            tcp.close()
        assert report.converged
        assert len(norms) == report.sends
        assert svc.deserializer.stats[DeserKind.DIFFERENTIAL] >= report.sends - 2

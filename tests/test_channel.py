"""Unit tests for the request/response RPC channel."""

import numpy as np
import pytest

from repro.channel import RPCChannel
from repro.core.policy import DiffPolicy, StuffingPolicy, StuffMode
from repro.core.stats import MatchKind
from repro.errors import SOAPFaultError
from repro.schema.composite import ArrayType
from repro.schema.registry import TypeRegistry
from repro.schema.types import DOUBLE, INT
from repro.server.service import SOAPService
from repro.server.threaded_server import HTTPSoapServer
from repro.soap.message import Parameter, SOAPMessage


@pytest.fixture(scope="module")
def server():
    svc = SOAPService("urn:calc", TypeRegistry())

    @svc.operation("total", result_type=DOUBLE)
    def total(a):
        return float(np.sum(a))

    @svc.operation("boom", result_type=INT)
    def boom():
        raise RuntimeError("nope")

    with HTTPSoapServer(svc) as httpd:
        yield httpd


def _msg(values):
    return SOAPMessage(
        "total", "urn:calc", [Parameter("a", ArrayType(DOUBLE), values)]
    )


class TestRPCChannel:
    def test_call_round_trip(self, server):
        with RPCChannel("127.0.0.1", server.port) as channel:
            response = channel.call(_msg([1.0, 2.0, 3.5]))
            assert response.ok
            assert response.operation == "totalResponse"
            assert response.result() == 6.5
            assert channel.calls == 1

    def test_differential_across_calls(self, server):
        policy = DiffPolicy(stuffing=StuffingPolicy(StuffMode.MAX))
        with RPCChannel("127.0.0.1", server.port, policy=policy) as channel:
            channel.call(_msg([1.0, 2.0]))
            assert channel.last_send_report.match_kind is MatchKind.FIRST_TIME
            response = channel.call(_msg([1.0, 5.0]))
            assert response.result() == 6.0
            assert (
                channel.last_send_report.match_kind is MatchKind.PERFECT_STRUCTURAL
            )
            assert channel.last_send_report.rewrite.values_rewritten == 1

    def test_fault_raised(self, server):
        with RPCChannel("127.0.0.1", server.port) as channel:
            with pytest.raises(SOAPFaultError, match="nope"):
                channel.call(SOAPMessage("boom", "urn:calc", []))
            assert channel.faults == 1

    def test_content_length_mode(self, server):
        with RPCChannel(
            "127.0.0.1", server.port, http_mode="content-length"
        ) as channel:
            response = channel.call(_msg([4.0]))
            assert response.result() == 4.0

    def test_response_differential_deserialization(self, server):
        """Fixed-schema responses hit the channel's diff-deser path."""
        from repro.server.diffdeser import DeserKind

        with RPCChannel("127.0.0.1", server.port) as channel:
            channel.call(_msg([1.0, 2.0]))
            assert channel.last_deser_report.kind is DeserKind.FULL
            response = channel.call(_msg([1.0, 9.0]))
            assert response.result() == 10.0
            # The server reuses its response template; only the result
            # value differs → the channel re-parses just that span.
            assert channel.last_deser_report.kind in (
                DeserKind.DIFFERENTIAL,
                DeserKind.FULL,  # tolerated if widths shifted the skeleton
            )

    def test_sequential_mixed_operations(self, server):
        with RPCChannel("127.0.0.1", server.port) as channel:
            assert channel.call(_msg([1.0])).result() == 1.0
            with pytest.raises(SOAPFaultError):
                channel.call(SOAPMessage("boom", "urn:calc", []))
            # Channel stays usable after a fault.
            assert channel.call(_msg([2.0])).result() == 2.0

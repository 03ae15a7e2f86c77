"""Unit tests for the request/response RPC channel."""

import numpy as np
import pytest

from repro.bench.workloads import doubles_of_width
from repro.channel import RPCChannel
from repro.core.policy import DeltaPolicy, DiffPolicy, StuffingPolicy, StuffMode
from repro.core.stats import MatchKind
from repro.errors import SOAPFaultError
from repro.resilience.retry import RetryPolicy
from repro.schema.composite import ArrayType, Field, StructType
from repro.schema.registry import TypeRegistry
from repro.schema.types import DOUBLE, INT, STRING
from repro.server.diffdeser import DeserKind
from repro.server.service import SOAPService
from repro.server.threaded_server import HTTPSoapServer
from repro.soap.message import Parameter, SOAPMessage


#: A result struct with a field the old fault check tripped over.
STATUS = StructType("Status", (Field("Fault", STRING), Field("code", INT)))
ROWS = StructType("Row", (Field("x", DOUBLE), Field("tag", STRING)))


def _registry() -> TypeRegistry:
    registry = TypeRegistry()
    registry.register_struct(STATUS)
    registry.register_struct(ROWS)
    return registry


@pytest.fixture(scope="module")
def server():
    svc = SOAPService("urn:calc", _registry())
    svc.status_calls = 0

    @svc.operation("status", result_type=STATUS)
    def status():
        svc.status_calls += 1
        return {"Fault": "none", "code": 7}

    @svc.operation("echo", result_type=ArrayType(DOUBLE))
    def echo(a):
        return a

    @svc.operation("rows", result_type=ArrayType(ROWS))
    def rows(a):
        return {"x": a, "tag": ["t%d" % i for i in range(len(a))]}

    @svc.operation("total", result_type=DOUBLE)
    def total(a):
        return float(np.sum(a))

    @svc.operation("boom", result_type=INT)
    def boom():
        raise RuntimeError("nope")

    with HTTPSoapServer(svc) as httpd:
        yield httpd


def _msg(values, operation="total"):
    return SOAPMessage(
        operation, "urn:calc", [Parameter("a", ArrayType(DOUBLE), values)]
    )


#: Reply paths: full XML decoded differentially, and RDF1 reply frames.
REPLY_POLICIES = {
    "differential": DiffPolicy(stuffing=StuffingPolicy(StuffMode.MAX)),
    "framed": DiffPolicy(
        stuffing=StuffingPolicy(StuffMode.MAX), delta=DeltaPolicy(offer=True)
    ),
}


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


class TestReplyPath:
    def test_result_field_named_fault_decodes(self, server):
        """A payload element called ``Fault`` is not a SOAP fault: it
        used to be retried as a transport error (re-executing the
        operation ``max_attempts`` times) and then fail."""
        before = server.service.status_calls
        with RPCChannel(
            "127.0.0.1",
            server.port,
            registry=_registry(),
            retry=RetryPolicy(max_attempts=3, base_delay=0.0),
        ) as channel:
            response = channel.call(SOAPMessage("status", "urn:calc", []))
            assert response.result()["Fault"] == ["none"]
            assert channel.last_send_report.retries == 0
        assert server.service.status_calls == before + 1

    @pytest.mark.parametrize("path", sorted(REPLY_POLICIES))
    def test_reply_survives_the_next_reply(self, server, path):
        """What ``call`` returns is the caller's: reply N is intact
        after reply N+1 on content, differential and framed replies."""
        with RPCChannel(
            "127.0.0.1", server.port, registry=_registry(),
            policy=REPLY_POLICIES[path],
        ) as channel:
            values = np.arange(1.0, 9.0) + 0.5
            kept = []
            sent = []
            for step in (None, None, 3, 5, None):  # full, content, 2 diffs, content
                if step is not None:
                    values = values.copy()
                    values[step] += 1.0
                kept.append(channel.call(_msg(values, "echo")))
                sent.append(values.copy())
            kinds = [DeserKind.CONTENT_MATCH, DeserKind.DIFFERENTIAL]
            assert channel.last_deser_report.kind in kinds
            for response, expected in zip(kept, sent):
                assert np.array_equal(response.result(), expected)
            assert len({id(r.result()) for r in kept}) == len(kept)
            if path == "framed":
                assert channel.replies.frames_applied == 4
            else:
                assert channel.replies is None

    def test_struct_array_columns_are_caller_owned(self, server):
        with RPCChannel(
            "127.0.0.1", server.port, registry=_registry()
        ) as channel:
            first = channel.call(_msg(np.array([1.5, 2.5]), "rows")).result()
            second = channel.call(_msg(np.array([1.5, 9.5]), "rows")).result()
            assert channel.last_deser_report.kind is DeserKind.DIFFERENTIAL
            assert list(first["x"]) == [1.5, 2.5]
            assert list(second["x"]) == [1.5, 9.5]
            assert first["tag"] == second["tag"] == ["t0", "t1"]
            assert first["tag"] is not second["tag"]

    def test_fault_check_and_decode_follow_the_dirty_count(
        self, server, scanner_events
    ):
        """Count-based guard (not timing): a 16 Ki-double non-fault
        reply costs a handful of scanner events whatever its length
        (it was ~49,000 per reply), and a warm echo decodes through
        the seek table, parsing exactly the dirty leaves."""
        events = scanner_events
        per_length = []
        for n in (64, 16384):
            with RPCChannel(
                "127.0.0.1", server.port,
                policy=REPLY_POLICIES["differential"],
            ) as channel:
                # One lexical width, so replies keep their length.
                values = doubles_of_width(n, 14, seed=n)
                channel.call(_msg(values, "echo"))  # full parse
                dirty = np.arange(0, n, n // 8)
                values = values.copy()
                values[dirty] = doubles_of_width(len(dirty), 14, seed=n + 1)
                del events[:]
                response = channel.call(_msg(values, "echo"))
                per_length.append(len(events))
                assert np.array_equal(response.result(), values)
                report = channel.last_deser_report
                assert report.kind is DeserKind.DIFFERENTIAL
                assert report.leaves_parsed == len(dirty)
        assert per_length[0] == per_length[1] < 10

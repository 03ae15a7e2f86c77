"""Auto-diff sees every change a double's text sees, ``0.0 → -0.0`` too.

``0.0 == -0.0`` in IEEE arithmetic, but the two serialize as ``0`` and
``-0``.  Auto-diff compares doubles by bit pattern
(:func:`repro.dut.tracked.changed_leaves`), so a sign flip of zero is a
rewrite, not a content match — in arrays, struct-array columns and
scalars, on the request side and on the server's reply side alike.  A
NaN that keeps its bits stays clean.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import RPCChannel
from repro.core.client import BSoapClient
from repro.core.policy import DeltaPolicy, DiffPolicy, StuffingPolicy, StuffMode
from repro.core.stats import MatchKind
from repro.schema.composite import ArrayType, Field, StructType
from repro.schema.registry import TypeRegistry
from repro.schema.types import DOUBLE
from repro.server.async_server import make_server
from repro.server.service import SOAPService
from repro.soap.message import Parameter, SOAPMessage
from repro.transport.loopback import CollectSink

from tests.test_prop_client import POLICIES, wire_oracle
from tests.test_reply_delta import FRONT_ENDS

SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan]
POINT = StructType("Point", (Field("x", DOUBLE), Field("y", DOUBLE)))


def _message(array, xs, scalar) -> SOAPMessage:
    return SOAPMessage(
        "op",
        "urn:zero",
        [
            Parameter("a", ArrayType(DOUBLE), np.array(array, dtype=float)),
            Parameter(
                "p",
                ArrayType(POINT),
                {"x": np.array(xs, dtype=float), "y": np.ones(len(xs))},
            ),
            Parameter("s", DOUBLE, scalar),
        ],
    )


def _bits(value: float) -> int:
    return int(np.float64(value).view(np.uint64))


class TestAutoDiffSignedZero:
    @given(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(SPECIALS), min_size=3, max_size=3),
                st.lists(st.sampled_from(SPECIALS), min_size=2, max_size=2),
                st.sampled_from(SPECIALS),
            ),
            min_size=2,
            max_size=6,
        ),
        st.sampled_from(POLICIES),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_send_matches_fresh_serialization(self, rounds, policy):
        sink = CollectSink()
        client = BSoapClient(sink, policy)
        previous = None
        for array, xs, scalar in rounds:
            message = _message(array, xs, scalar)
            report = client.send(message)
            wire_oracle(sink, message, policy)
            bits = [_bits(v) for v in (*array, *xs, scalar)]
            # With one template per structure, any changed bit is a
            # rewrite.
            if previous not in (None, bits):
                assert report.match_kind is not MatchKind.CONTENT_MATCH
            previous = bits

    def test_zero_to_negative_zero_is_not_a_content_match(self):
        sink = CollectSink()
        client = BSoapClient(sink)
        client.send(_message([0.0, 1.0, 2.0], [0.0, 1.0], 0.0))
        message = _message([-0.0, 1.0, 2.0], [-0.0, 1.0], -0.0)
        report = client.send(message)
        assert report.match_kind is not MatchKind.CONTENT_MATCH
        assert report.rewrite.values_rewritten == 3
        wire_oracle(sink, message, DiffPolicy())
        assert sink.last.count(b"-0<") == 3

    def test_nan_that_keeps_its_bits_stays_clean(self):
        client = BSoapClient(CollectSink())
        client.send(_message([math.nan] * 3, [math.nan] * 2, math.nan))
        report = client.send(_message([math.nan] * 3, [math.nan] * 2, math.nan))
        assert report.match_kind is MatchKind.CONTENT_MATCH


@pytest.mark.parametrize("delta", [True, False], ids=["delta", "plain"])
@pytest.mark.parametrize("front_end", FRONT_ENDS)
def test_reply_sign_flip_reaches_the_client(front_end, delta):
    """A handler result going ``0.0 → -0.0 → 0.0`` arrives with its sign,
    over frames and over full XML alike."""
    service = SOAPService("urn:zero", TypeRegistry())
    results = iter([0.0, -0.0, -0.0, 0.0, [0.0, -0.0], [-0.0, 0.0]])

    @service.operation("scalar", result_type=DOUBLE)
    def scalar(x):
        return next(results)

    @service.operation("array", result_type=ArrayType(DOUBLE))
    def array(x):
        return np.array(next(results))

    policy = DiffPolicy(
        stuffing=StuffingPolicy(StuffMode.MAX), delta=DeltaPolicy(offer=delta)
    )
    arg = [Parameter("x", DOUBLE, 1.0)]
    with make_server(service, front_end) as server:
        with RPCChannel("127.0.0.1", server.port, policy=policy) as channel:
            got = [
                channel.call(SOAPMessage("scalar", "urn:zero", arg)).values["return"]
                for _ in range(4)
            ]
            got += [
                channel.call(SOAPMessage("array", "urn:zero", arg)).values["return"]
                for _ in range(2)
            ]
    signs = [math.copysign(1.0, v) for v in got[:4]]
    assert got[:4] == [0.0] * 4 and signs == [1.0, -1.0, -1.0, 1.0]
    assert [math.copysign(1.0, v) for v in got[4]] == [1.0, -1.0]
    assert [math.copysign(1.0, v) for v in got[5]] == [-1.0, 1.0]
    if delta:
        assert service.response_stats.delta_sends > 0

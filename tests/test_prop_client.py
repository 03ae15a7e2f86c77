"""Property tests at the client API level (auto-diff send path).

For random sequences of ``client.send(message)`` calls with random
value arrays, under randomized policies (stuffing × chunking ×
expansion × float format × variants), the bytes on the
wire must always canonically equal a from-scratch serialization of
that message — and the match-kind accounting must stay sane.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffers.config import ChunkPolicy
from repro.core.client import BSoapClient
from repro.core import differential
from repro.core.policy import DiffPolicy, StuffingPolicy, StuffMode
from repro.core.serializer import build_template
from repro.core.stats import MatchKind
from repro.lexical.floats import FloatFormat
from repro.schema.composite import ArrayType
from repro.schema.types import DOUBLE
from repro.soap.message import Parameter, SOAPMessage
from repro.transport.loopback import CollectSink
from repro.xmlkit.canonical import diff_documents, documents_equivalent

from tests.test_rewrite_store import store_min_run

POLICIES = [
    DiffPolicy(),
    DiffPolicy(float_format=FloatFormat.G17),
    DiffPolicy(float_format=FloatFormat.SHORTEST),
    DiffPolicy(stuffing=StuffingPolicy(StuffMode.MAX)),
    DiffPolicy(stuffing=StuffingPolicy(StuffMode.FIXED, {"double": 12})),
    DiffPolicy(chunk=ChunkPolicy(chunk_size=128, reserve=16, split_threshold=48)),
    DiffPolicy(template_variants=2, variant_miss_threshold=0.4),
]

VALUES = [0.0, 1.0, -1.0, 0.5, 123.456, 1e200, -1e-200, 0.1234567890123456, 7.0]


def wire_oracle(sink: CollectSink, message: SOAPMessage, policy: DiffPolicy):
    fresh = build_template(message, policy).tobytes()
    assert documents_equivalent(sink.last, fresh), diff_documents(sink.last, fresh)


class TestAutoDiffProperty:
    @given(
        st.integers(min_value=1, max_value=12),
        st.lists(
            st.lists(st.sampled_from(VALUES), min_size=1, max_size=12),
            min_size=1,
            max_size=6,
        ),
        st.sampled_from(POLICIES),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_send_matches_fresh_serialization(self, n, rounds, policy):
        sink = CollectSink()
        client = BSoapClient(sink, policy)
        for round_values in rounds:
            values = (round_values * ((n // len(round_values)) + 1))[:n]
            message = SOAPMessage(
                "op", "urn:p", [Parameter("a", ArrayType(DOUBLE), list(values))]
            )
            report = client.send(message)
            assert report.bytes_sent == len(sink.last)
            wire_oracle(sink, message, policy)

    @given(
        st.lists(st.sampled_from(VALUES), min_size=2, max_size=8),
        st.sampled_from(POLICIES),
    )
    @settings(max_examples=40, deadline=None)
    def test_identical_resend_is_content_match(self, values, policy):
        client = BSoapClient(CollectSink(), policy)
        message = SOAPMessage(
            "op", "urn:p", [Parameter("a", ArrayType(DOUBLE), list(values))]
        )
        client.send(message)
        report = client.send(
            SOAPMessage("op", "urn:p", [Parameter("a", ArrayType(DOUBLE), list(values))])
        )
        assert report.match_kind is MatchKind.CONTENT_MATCH
        assert report.rewrite.values_rewritten == 0

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=30, deadline=None)
    def test_length_changes_always_rebuild(self, n1, n2):
        client = BSoapClient(CollectSink())
        client.send(
            SOAPMessage("op", "urn:p", [Parameter("a", ArrayType(DOUBLE), [1.0] * n1)])
        )
        report = client.send(
            SOAPMessage("op", "urn:p", [Parameter("a", ArrayType(DOUBLE), [1.0] * n2)])
        )
        if n1 == n2:
            assert report.match_kind is MatchKind.CONTENT_MATCH
        else:
            assert report.match_kind is MatchKind.FIRST_TIME


class TestRewriteStoreProperty:
    """NumPy store ≡ slice loop ≡ fresh serialization.

    The same randomized call sequence runs three times: with the store
    taking every eligible chunk run (threshold 1), at the shipped
    threshold (arrays up to ~4× ``STORE_MIN_RUN``, so runs fall on both
    sides of it) and with the slice loop only.  Sequences mix same-width
    repeats (store runs), specials (``inf``/``nan``/``-0.0``: lengths
    change), wide values (shift/steal/split) and an optional rebuild
    midway.  Every send of every run must be byte-identical across the
    three, and each must canonically match a fresh serialization of the
    values it carried.
    """

    # Each op is (dirty stride, value pool index).
    _POOLS = [
        [0.5, 7.25, -1.5],                        # narrow, one width
        [123.456, 0.1234567890123456],            # mid-width
        [1e200, -1.2345678901234567e-300],        # wide: forces expansion
        [0.0, -0.0, float("inf"), float("nan")],  # specials
    ]
    _POLICIES = POLICIES + [
        DiffPolicy(float_format=FloatFormat.FIXED, stuffing=StuffingPolicy(StuffMode.MAX)),
    ]

    @given(
        st.integers(min_value=8, max_value=4 * differential.STORE_MIN_RUN),
        st.lists(
            st.tuples(
                st.sampled_from([1, 2, 3, 7]),
                st.integers(min_value=0, max_value=3),
            ),
            min_size=2,
            max_size=8,
        ),
        st.sampled_from(_POLICIES),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_store_loop_fresh_identical(self, n, ops, policy, rebuild_midway):
        def run(threshold: int, check_fresh: bool):
            sink = CollectSink()
            client = BSoapClient(sink, policy)
            with store_min_run(threshold):
                call = client.prepare(
                    SOAPMessage(
                        "op", "urn:p", [Parameter("a", ArrayType(DOUBLE), [1.5] * n)]
                    )
                )
                call.send()
                tracked = call.tracked("a")
                for i, (stride, pool) in enumerate(ops):
                    idx = np.arange(0, n, stride)
                    vals = self._POOLS[pool] * (len(idx) // len(self._POOLS[pool]) + 1)
                    tracked.update(idx, np.asarray(vals[: len(idx)]))
                    call.send()
                    if check_fresh:
                        expected = SOAPMessage(
                            "op",
                            "urn:p",
                            [Parameter("a", ArrayType(DOUBLE), list(map(float, tracked.data)))],
                        )
                        wire_oracle(sink, expected, policy)
                    if rebuild_midway and i == len(ops) // 2:
                        call.template.rebuild_in_place(client.policy)
            return sink.messages

        shipped = run(differential.STORE_MIN_RUN, check_fresh=True)
        assert run(1, check_fresh=False) == shipped
        assert run(1 << 30, check_fresh=False) == shipped

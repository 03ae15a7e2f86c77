"""Unit tests for the baselines: the serializers in the gSOAP, XSOAP
and naive roles, and the paper's per-value field expansion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.gsoap_like import GSoapLikeClient
from repro.baselines.naive import NaiveClient
from repro.baselines.paper_expansion import PaperTemplate, pending_writes
from repro.baselines.xsoap_like import Element, XSoapLikeClient
from repro.buffers.config import ChunkPolicy
from repro.core.differential import rewrite_dirty
from repro.core.policy import DiffPolicy, StuffingPolicy, StuffMode
from repro.core.serializer import build_template
from repro.schema.composite import ArrayType
from repro.schema.mio import MIO, make_mio_array_type
from repro.schema.types import DOUBLE, INT, STRING
from repro.soap.message import Parameter, SOAPMessage
from repro.transport.loopback import CollectSink
from repro.xmlkit.canonical import diff_documents, documents_equivalent
from repro.xmlkit.scanner import parse_document

CLIENTS = [GSoapLikeClient, XSoapLikeClient, NaiveClient]


def messages(rng):
    return [
        SOAPMessage("d", "urn:t", [Parameter("a", ArrayType(DOUBLE), rng.random(17))]),
        SOAPMessage("i", "urn:t", [Parameter("a", ArrayType(INT), rng.integers(-9, 9, 5))]),
        SOAPMessage(
            "m",
            "urn:t",
            [
                Parameter(
                    "mesh",
                    make_mio_array_type(),
                    {"x": [1, 2], "y": [3, 4], "v": [0.5, 1.5]},
                )
            ],
        ),
        SOAPMessage("s", "urn:t", [Parameter("txt", ArrayType(STRING), ["a<b", "c"])]),
        SOAPMessage("v", "urn:t", [Parameter("n", INT, 42), Parameter("f", DOUBLE, 2.5)]),
        SOAPMessage("empty", "urn:t", []),
    ]


class TestCrossEquivalence:
    """Every baseline must emit the same logical document as bSOAP."""

    @pytest.mark.parametrize("client_cls", CLIENTS)
    def test_equivalent_to_template(self, client_cls):
        rng = np.random.default_rng(3)
        for message in messages(rng):
            sink = CollectSink()
            client_cls(sink).send(message)
            fresh = build_template(message).tobytes()
            assert documents_equivalent(sink.last, fresh), (
                f"{client_cls.__name__} on {message.operation}: "
                + diff_documents(sink.last, fresh)
            )

    @pytest.mark.parametrize("client_cls", CLIENTS)
    def test_output_wellformed(self, client_cls):
        sink = CollectSink()
        client_cls(sink).send(
            SOAPMessage("op", "urn:t", [Parameter("a", ArrayType(DOUBLE), [1.0])])
        )
        parse_document(sink.last)

    @pytest.mark.parametrize("client_cls", CLIENTS)
    def test_send_counts(self, client_cls):
        client = client_cls(CollectSink())
        m = SOAPMessage("op", "urn:t", [Parameter("n", INT, 1)])
        n1 = client.send(m)
        n2 = client.send(m)
        assert n1 == n2 > 0
        assert client.sends == 2


class TestGSoapMultiref:
    def test_shared_array_href(self):
        shared = np.arange(3.0)
        m = SOAPMessage(
            "op",
            "urn:t",
            [
                Parameter("a", ArrayType(DOUBLE), shared),
                Parameter("b", ArrayType(DOUBLE), shared),
            ],
        )
        sink = CollectSink()
        GSoapLikeClient(sink, multiref=True).send(m)
        assert b'id="ref-1"' in sink.last
        assert b'href="#ref-1"' in sink.last
        # The shared array is serialized once.
        assert sink.last.count(b"<item>0</item>") == 1

    def test_distinct_arrays_not_multireffed(self):
        m = SOAPMessage(
            "op",
            "urn:t",
            [
                Parameter("a", ArrayType(DOUBLE), np.arange(3.0)),
                Parameter("b", ArrayType(DOUBLE), np.arange(3.0)),
            ],
        )
        sink = CollectSink()
        GSoapLikeClient(sink, multiref=True).send(m)
        assert b"href" not in sink.last

    def test_multiref_off_by_default(self):
        shared = np.arange(2.0)
        m = SOAPMessage(
            "op",
            "urn:t",
            [
                Parameter("a", ArrayType(DOUBLE), shared),
                Parameter("b", ArrayType(DOUBLE), shared),
            ],
        )
        sink = CollectSink()
        GSoapLikeClient(sink).send(m)
        assert b"href" not in sink.last


class TestXSoapDOM:
    def test_tree_shape(self):
        client = XSoapLikeClient(CollectSink())
        m = SOAPMessage(
            "op", "urn:t", [Parameter("a", ArrayType(INT), [1, 2, 3])]
        )
        tree = client.build_tree(m)
        assert tree.tag == "SOAP-ENV:Envelope"
        body = tree.find("SOAP-ENV:Body")
        op = body.find("ns:op")
        arr = op.find("a")
        assert len(arr.children) == 3
        assert arr.children[0].text == b"1"

    def test_element_render(self):
        e = Element("a", {"k": 'v"'})
        e.append(Element("b", text=b"t"))
        parts = []
        e.render(parts)
        assert b"".join(parts) == b'<a k="v&quot;"><b>t</b></a>'

    def test_find_missing(self):
        assert Element("a").find("b") is None


class TestRelativeCost:
    def test_dom_slower_than_streaming(self):
        """The paper's ordering: DOM-based serializers lose to streaming."""
        import time

        rng = np.random.default_rng(0)
        m = SOAPMessage(
            "op", "urn:t", [Parameter("a", ArrayType(DOUBLE), rng.random(20000))]
        )
        sink = CollectSink()
        gsoap = GSoapLikeClient(sink)
        xsoap = XSoapLikeClient(sink)

        def timed(fn, reps=3):
            fn()
            t0 = time.perf_counter()
            for _ in range(reps):
                fn()
            return time.perf_counter() - t0

        t_gsoap = timed(lambda: gsoap.send(m))
        t_xsoap = timed(lambda: xsoap.send(m))
        assert t_xsoap > 1.5 * t_gsoap


def _doubles(values):
    return SOAPMessage("op", "urn:t", [Parameter("a", ArrayType(DOUBLE), list(values))])


#: Fixed 10-char fields around short values: every field has slack.
FIXED10 = DiffPolicy(stuffing=StuffingPolicy(StuffMode.FIXED, {"double": 10}))


def _stolen(policy, changes, values=(1.0, 2.0, 3.0, 4.0), scan_limit=8):
    """A :class:`PaperTemplate` of *values* under *policy* with
    *changes* (``{index: value}``) written by stealing; its document
    must equal a fresh serialization of the new values."""
    template = build_template(_doubles(values), policy)
    copy = PaperTemplate(template)
    new = list(values)
    for i, value in changes.items():
        template.tracked("a")[i] = new[i] = value
    copy.write_all(
        pending_writes(template, policy.float_format), steal=True, scan_limit=scan_limit
    )
    fresh = build_template(_doubles(new)).tobytes()
    assert documents_equivalent(copy.tobytes(), fresh), diff_documents(
        copy.tobytes(), fresh
    )
    return copy


class TestPaperStealing:
    """Paper §3.2 stealing: a growing field takes the nearest right-hand
    neighbour's slack, or falls back to shifting the chunk tail."""

    def test_steal_from_neighbor(self):
        copy = _stolen(FIXED10, {0: 0.123456789012})  # needs 14 > 10
        assert copy.stats.steals == 1
        assert copy.stats.expansions == 1
        assert copy.stats.shifts == 0
        assert copy.stats.bytes_moved > 0

    def test_steal_shrinks_donor_width(self):
        copy = _stolen(FIXED10, {0: 0.123456789012})
        assert copy.width == [14, 6, 10, 10]

    def test_steal_takes_exactly_the_slack(self):
        # 19 chars in a 10-char field: a growth of 9, the donor's slack.
        copy = _stolen(FIXED10, {0: 0.12345678901234566})
        assert copy.stats.steals == 1
        assert copy.width == [19, 1, 10, 10]

    def test_steal_falls_back_to_shift(self):
        # No slack anywhere (no stuffing): no donor.
        copy = _stolen(DiffPolicy(), {0: 0.123456789}, values=(1.0, 2.0))
        assert copy.stats.steals == 0
        assert copy.stats.shifts == 1

    def test_steal_last_entry_falls_back(self):
        copy = _stolen(FIXED10, {3: 0.123456789012})  # no right-hand neighbour
        assert copy.stats.steals == 0 and copy.stats.expansions == 1

    def test_scan_limit_respected(self):
        copy = _stolen(FIXED10, {0: 0.123456789012}, values=(1.0, 2.0), scan_limit=0)
        assert copy.stats.steals == 0 and copy.stats.shifts == 1


DOUBLE_POOL = [0.5, 2.0, -1.25, 0.123456789012, 1e200, -1.2345678901234567e-300]
STRING_POOL = ["", "a", "hello", "x" * 40, "a<b&c"]


@given(
    st.sampled_from([None, 8, 10, 18]),
    st.sampled_from([128, 1024]),
    st.lists(
        st.lists(
            st.tuples(st.booleans(), st.integers(0, 23), st.integers(0, 5)),
            max_size=12,
        ),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=60, deadline=None)
def test_stolen_document_equivalent_to_runtime_shift(width, chunk_size, sends):
    """The same writes give the same logical document whether the paper
    steals value by value or the runtime rebuilds each growing chunk."""
    stuffing = (
        StuffingPolicy(StuffMode.FIXED, {"double": width}) if width else StuffingPolicy()
    )
    policy = DiffPolicy(
        chunk=ChunkPolicy(chunk_size=chunk_size, reserve=16, split_threshold=64),
        stuffing=stuffing,
    )
    message = SOAPMessage(
        "op",
        "urn:t",
        [
            Parameter("d", ArrayType(DOUBLE), [1.0] * 24),
            Parameter("s", ArrayType(STRING), ["ab"] * 24),
        ],
    )
    template = build_template(message, policy)
    copy = PaperTemplate(template)
    for changes in sends:
        for is_double, i, k in changes:
            if is_double:
                template.tracked("d")[i] = DOUBLE_POOL[k]
            else:
                template.tracked("s")[i] = STRING_POOL[k % len(STRING_POOL)]
        copy.write_all(pending_writes(template, policy.float_format), steal=True)
        rewrite_dirty(template, policy)
        runtime = template.tobytes()
        assert documents_equivalent(copy.tobytes(), runtime), diff_documents(
            copy.tobytes(), runtime
        )

"""Unit tests for the template store: one template per structure,
sharing, small-chunk sends."""

import numpy as np
import pytest

from repro.buffers.config import ChunkPolicy
from repro.core.client import BSoapClient
from repro.core.policy import DiffPolicy, StuffingPolicy, StuffMode
from repro.core.serializer import build_template
from repro.core.stats import MatchKind
from repro.core.store import TemplateStore
from repro.schema.composite import ArrayType
from repro.schema.types import DOUBLE
from repro.soap.message import Parameter, SOAPMessage, structure_signature
from repro.transport.loopback import CollectSink
from repro.xmlkit.canonical import documents_equivalent


def msg(values, op="op"):
    return SOAPMessage(op, "urn:t", [Parameter("a", ArrayType(DOUBLE), values)])


class TestStoreBasics:
    def test_put_replaces(self):
        store = TemplateStore()
        t1 = build_template(msg(np.array([1.0])))
        sig = t1.signature
        store.put(sig, t1)
        assert store.get(sig) is t1
        t2 = build_template(msg(np.array([2.0])))
        store.put(sig, t2)
        assert store.get(sig) is t2
        assert store.template_count == 1

    def test_counters(self):
        store = TemplateStore()
        t = build_template(msg(np.array([1.0])))
        assert store.get(t.signature) is None
        assert store.template_count == 0
        store.put(t.signature, t)
        assert store.template_count == 1
        assert store.approx_bytes() == t.memory_footprint()["total"]
        store.clear()
        assert store.template_count == 0
        assert store.approx_bytes() == 0


class TestSharedStore:
    """§6: templates amortized across clients / remote services."""

    def test_second_client_gets_content_match(self):
        store = TemplateStore()
        s1, s2 = CollectSink(), CollectSink()
        c1 = BSoapClient(s1, store=store)
        c2 = BSoapClient(s2, store=store)
        values = np.arange(16.0)
        assert c1.send(msg(values)).match_kind is MatchKind.FIRST_TIME
        assert c2.send(msg(values.copy())).match_kind is MatchKind.CONTENT_MATCH
        assert store.template_count == 1
        assert s1.last == s2.last

    def test_shared_mutation_visible_to_both(self):
        store = TemplateStore()
        s1, s2 = CollectSink(), CollectSink()
        c1 = BSoapClient(s1, store=store)
        c2 = BSoapClient(s2, store=store)
        c1.send(msg(np.arange(4.0)))
        r = c2.send(msg(np.array([0.0, 9.0, 2.0, 3.0])))
        assert r.match_kind is MatchKind.PERFECT_STRUCTURAL
        assert r.rewrite.values_rewritten == 1


class TestVariants:
    """One template per structure: new values rewrite it in place."""

    def test_single_variant_default_unchanged(self):
        client = BSoapClient(CollectSink())
        a = np.arange(8.0)
        b = a * -5
        client.send(msg(a))
        r = client.send(msg(b))
        # One template only: full rewrite, no second template.
        assert client.template_count == 1
        assert r.match_kind in (
            MatchKind.PERFECT_STRUCTURAL,
            MatchKind.PARTIAL_STRUCTURAL,
        )


class TestPipelinedSend:
    """Small-chunk templates: a rewrite that shifts and splits chunks
    still sends the fresh document, one scatter-gather view per chunk."""

    def _policy(self):
        return DiffPolicy(
            chunk=ChunkPolicy(chunk_size=256, reserve=16, split_threshold=64),
        )

    def test_equivalence_with_shifting(self):
        sink = CollectSink()
        client = BSoapClient(sink, self._policy())
        call = client.prepare(msg(np.arange(100.0)))
        call.send()
        tracked = call.tracked("a")
        tracked.update(np.arange(0, 100, 3), np.arange(0, 100, 3) * 0.123456789)
        report = call.send()
        assert report.match_kind is MatchKind.PARTIAL_STRUCTURAL
        fresh = build_template(msg(tracked.data.copy())).tobytes()
        assert documents_equivalent(sink.last, fresh)
        call.template.validate()
        assert not call.template.dut.any_dirty

    def test_transport_receives_many_segments(self):
        seen = []

        class SegmentCounter:
            def send_message(self, views, total_bytes=None):
                n = 0
                for v in views:
                    seen.append(len(v))
                    n += len(v)
                return n

            def close(self):
                pass

        client = BSoapClient(SegmentCounter(), self._policy())
        call = client.prepare(msg(np.arange(200.0)))
        call.send()
        seen.clear()
        call.tracked("a")[5] = 3.5
        call.send()
        assert len(seen) > 3  # one segment per chunk


class TestLayoutKey:
    """``layout_key`` is what lets the server skip re-measuring a
    session's response templates: equal keys must mean equal sizes."""

    @pytest.mark.parametrize(
        "chunk",
        [ChunkPolicy(), ChunkPolicy(chunk_size=256, reserve=16, split_threshold=64)],
        ids=["default", "small-chunks"],
    )
    def test_equal_key_means_equal_size(self, chunk):
        policy = DiffPolicy(chunk=chunk)
        client = BSoapClient(CollectSink(), policy)
        store = client.store
        rng = np.random.default_rng(3)
        seen = {}
        changes = 0
        for step in range(60):
            n = 40 if step % 7 else 41  # now and then a second structure
            digits = int(rng.integers(1, 17))
            values = np.round(rng.random(n) * 10 ** rng.integers(0, 4), digits)
            if step % 3 == 0:
                values[:] = 1.0  # short texts: later sends expand again
            client.send(msg(values))
            key, size = store.layout_key(), store.approx_bytes()
            if key in seen:
                assert seen[key] == size
            changes += key not in seen
            seen[key] = size
        assert changes > 5  # expansions really moved the key

    def test_content_and_perfect_sends_keep_the_key(self):
        policy = DiffPolicy(stuffing=StuffingPolicy(StuffMode.MAX))
        client = BSoapClient(CollectSink(), policy)
        values = np.linspace(0.0, 1.0, 50)
        client.send(msg(values))
        key = client.store.layout_key()
        client.send(msg(values))
        values[7] = 123.25
        assert client.send(msg(values)).match_kind is MatchKind.PERFECT_STRUCTURAL
        assert client.store.layout_key() == key
        client.forget(structure_signature(msg(values)))
        assert client.store.layout_key() == ()

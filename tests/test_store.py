"""Unit tests for template stores: sharing, variants, small-chunk sends."""

import numpy as np
import pytest

from repro.buffers.config import ChunkPolicy
from repro.core.client import BSoapClient
from repro.core.policy import DiffPolicy, StuffingPolicy, StuffMode
from repro.core.serializer import build_template
from repro.core.stats import MatchKind
from repro.core.store import TemplateStore, count_differences
from repro.errors import TemplateError
from repro.schema.composite import ArrayType
from repro.schema.mio import make_mio_array_type
from repro.schema.types import DOUBLE, INT, STRING
from repro.soap.message import Parameter, SOAPMessage, structure_signature
from repro.transport.loopback import CollectSink
from repro.xmlkit.canonical import documents_equivalent


def msg(values, op="op"):
    return SOAPMessage(op, "urn:t", [Parameter("a", ArrayType(DOUBLE), values)])


class TestCountDifferences:
    def test_arrays(self):
        t = build_template(msg(np.array([1.0, 2.0, 3.0])))
        assert count_differences(t, msg(np.array([1.0, 2.0, 3.0]))) == 0
        assert count_differences(t, msg(np.array([1.0, 9.0, 8.0]))) == 2

    def test_nan_stable(self):
        t = build_template(msg(np.array([np.nan, 1.0])))
        assert count_differences(t, msg(np.array([np.nan, 1.0]))) == 0

    def test_struct_arrays(self):
        m = SOAPMessage(
            "op", "urn:t",
            [Parameter("m", make_mio_array_type(), {"x": [1, 2], "y": [3, 4], "v": [0.5, 1.5]})],
        )
        t = build_template(m)
        m2 = SOAPMessage(
            "op", "urn:t",
            [Parameter("m", make_mio_array_type(), {"x": [1, 9], "y": [3, 4], "v": [0.5, 9.5]})],
        )
        assert count_differences(t, m2) == 2

    def test_strings_and_scalars(self):
        m = SOAPMessage(
            "op", "urn:t",
            [
                Parameter("s", ArrayType(STRING), ["a", "b"]),
                Parameter("n", INT, 5),
            ],
        )
        t = build_template(m)
        m2 = SOAPMessage(
            "op", "urn:t",
            [
                Parameter("s", ArrayType(STRING), ["a", "z"]),
                Parameter("n", INT, 6),
            ],
        )
        assert count_differences(t, m2) == 2

    def test_does_not_mark_dirty(self):
        t = build_template(msg(np.array([1.0])))
        count_differences(t, msg(np.array([5.0])))
        assert not t.dut.any_dirty


class TestStoreBasics:
    def test_put_get_touch(self):
        store = TemplateStore(variants_per_signature=2)
        t1 = build_template(msg(np.array([1.0])))
        sig = t1.signature
        store.put(sig, t1)
        assert store.get(sig) is t1
        t2 = build_template(msg(np.array([2.0])))
        store.put(sig, t2)
        assert store.get(sig) is t2
        store.touch(sig, t1)
        assert store.get(sig) is t1

    def test_eviction_lru(self):
        store = TemplateStore(variants_per_signature=2)
        sig = structure_signature(msg(np.array([1.0])))
        templates = [build_template(msg(np.array([float(i)]))) for i in range(3)]
        for t in templates:
            store.put(sig, t)
        assert store.template_count == 2
        assert store.evictions == 1
        assert templates[0] not in store.variants(sig)

    def test_select_picks_closest(self):
        store = TemplateStore(variants_per_signature=3)
        tA = build_template(msg(np.array([1.0, 2.0, 3.0])))
        tB = build_template(msg(np.array([9.0, 8.0, 7.0])))
        sig = tA.signature
        store.put(sig, tA)
        store.put(sig, tB)
        best, miss = store.select(sig, msg(np.array([9.0, 8.0, 5.0])))
        assert best is tB and miss == 1
        best, miss = store.select(sig, msg(np.array([1.0, 2.0, 3.0])))
        assert best is tA and miss == 0

    def test_counters(self):
        store = TemplateStore()
        sig = ("urn", "op", ())
        assert store.get(sig) is None
        assert store.misses == 1
        store.put(sig, object())
        store.get(sig)
        assert store.hits == 1
        assert sig in store
        store.clear()
        assert store.template_count == 0

    def test_invalid_variants(self):
        with pytest.raises(TemplateError):
            TemplateStore(variants_per_signature=0)


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
    def _client(self, threshold=0.3, variants=3):
        policy = DiffPolicy(
            template_variants=variants, variant_miss_threshold=threshold
        )
        sink = CollectSink()
        return BSoapClient(sink, policy), sink

    def test_alternating_payloads_both_content_match(self):
        client, sink = self._client()
        a = np.arange(32.0)
        b = np.arange(32.0) * -2.5
        client.send(msg(a))
        client.send(msg(b))  # very different → second variant built
        assert client.template_count == 2
        assert client.send(msg(a)).match_kind is MatchKind.CONTENT_MATCH
        assert client.send(msg(b)).match_kind is MatchKind.CONTENT_MATCH
        fresh = build_template(msg(b)).tobytes()
        assert documents_equivalent(sink.last, fresh)

    def test_small_diff_reuses_instead_of_new_variant(self):
        client, _ = self._client(threshold=0.5)
        a = np.arange(32.0)
        client.send(msg(a))
        nearly = a.copy()
        nearly[5] = 9.0  # same serialized width as "5"
        r = client.send(msg(nearly))
        assert r.match_kind is MatchKind.PERFECT_STRUCTURAL
        assert client.template_count == 1

    def test_variant_cap_respected(self):
        client, _ = self._client(threshold=0.0, variants=2)
        for k in range(5):
            client.send(msg(np.arange(8.0) + 1000 * k))
        assert client.template_count <= 2

    def test_single_variant_default_unchanged(self):
        client = BSoapClient(CollectSink())
        a = np.arange(8.0)
        b = a * -5
        client.send(msg(a))
        r = client.send(msg(b))
        # One template only: full rewrite, no new variant.
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
        policy = DiffPolicy(chunk=chunk, template_variants=2)
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

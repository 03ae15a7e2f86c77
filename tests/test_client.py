"""Unit tests for the bSOAP client stub (template store + dispatch)."""

import numpy as np

from repro.core.client import BSoapClient
from repro.core.matcher import classify, refine
from repro.core.policy import DiffPolicy
from repro.core.stats import ClientStats, MatchKind, RewriteStats, SendReport
from repro.core.serializer import build_template
from repro.schema.composite import ArrayType
from repro.schema.types import DOUBLE, INT
from repro.soap.message import Parameter, SOAPMessage, structure_signature
from repro.transport.loopback import CollectSink
from repro.xmlkit.canonical import documents_equivalent


def msg(values, op="put"):
    return SOAPMessage(op, "urn:test", [Parameter("a", ArrayType(DOUBLE), values)])


class TestMatchClassification:
    def test_first_time_when_no_template(self):
        assert classify(None, ("urn", "op", ())) is MatchKind.FIRST_TIME

    def test_content_when_clean(self):
        t = build_template(msg([1.0, 2.0]))
        assert classify(t, t.signature) is MatchKind.CONTENT_MATCH

    def test_structural_when_dirty(self):
        t = build_template(msg([1.0, 2.0]))
        t.tracked("a")[0] = 5.0
        assert classify(t, t.signature) is MatchKind.PERFECT_STRUCTURAL

    def test_signature_mismatch_is_first_time(self):
        t = build_template(msg([1.0, 2.0]))
        other = structure_signature(msg([1.0, 2.0, 3.0]))
        assert classify(t, other) is MatchKind.FIRST_TIME

    def test_refine_upgrades_to_partial(self):
        stats = RewriteStats(shifts_inplace=1)
        assert refine(MatchKind.PERFECT_STRUCTURAL, stats) is (
            MatchKind.PARTIAL_STRUCTURAL
        )
        assert refine(MatchKind.PERFECT_STRUCTURAL, RewriteStats()) is (
            MatchKind.PERFECT_STRUCTURAL
        )


class TestPreparedFlow:
    def test_lifecycle(self):
        sink = CollectSink()
        client = BSoapClient(sink)
        call = client.prepare(msg([1.0, 2.0, 3.0]))
        r1 = call.send()
        assert r1.match_kind is MatchKind.FIRST_TIME
        r2 = call.send()
        assert r2.match_kind is MatchKind.CONTENT_MATCH
        assert sink.messages[0] == sink.messages[1]
        call.tracked("a")[0] = 9.0
        r3 = call.send()
        assert r3.match_kind is MatchKind.PERFECT_STRUCTURAL
        assert r3.rewrite.values_rewritten == 1
        assert sink.messages[2] != sink.messages[1]

    def test_prepare_reuses_template(self):
        client = BSoapClient(CollectSink())
        c1 = client.prepare(msg([1.0]))
        c2 = client.prepare(msg([2.0]))
        assert c1.template is c2.template
        assert client.template_count == 1

    def test_partial_structural_reported(self):
        client = BSoapClient(CollectSink())
        call = client.prepare(msg([1.0, 2.0]))
        call.send()
        call.tracked("a")[0] = 0.12345678901234
        r = call.send()
        assert r.match_kind is MatchKind.PARTIAL_STRUCTURAL
        assert r.rewrite.expansions == 1


class TestAutoDiffFlow:
    def test_send_same_message_is_content_match(self):
        client = BSoapClient(CollectSink())
        values = np.array([1.0, 2.0])
        client.send(msg(values))
        r = client.send(msg(values.copy()))
        assert r.match_kind is MatchKind.CONTENT_MATCH

    def test_send_changed_values_structural(self):
        sink = CollectSink()
        client = BSoapClient(sink)
        client.send(msg(np.array([1.0, 2.0])))
        r = client.send(msg(np.array([1.0, 5.0])))
        assert r.match_kind is MatchKind.PERFECT_STRUCTURAL
        assert r.rewrite.values_rewritten == 1
        fresh = build_template(msg(np.array([1.0, 5.0]))).tobytes()
        assert documents_equivalent(sink.last, fresh)

    def test_length_change_rebuilds(self):
        client = BSoapClient(CollectSink())
        client.send(msg(np.arange(3.0)))
        r = client.send(msg(np.arange(5.0)))
        assert r.match_kind is MatchKind.FIRST_TIME
        assert client.template_count == 2

    def test_different_operations_separate_templates(self):
        client = BSoapClient(CollectSink())
        client.send(msg([1.0], op="put"))
        client.send(msg([1.0], op="store"))
        assert client.template_count == 2

    def test_forget(self):
        client = BSoapClient(CollectSink())
        m = msg([1.0])
        client.send(m)
        client.forget(structure_signature(m))
        assert client.template_count == 0
        r = client.send(m)
        assert r.match_kind is MatchKind.FIRST_TIME


class TestFullSerializationMode:
    def test_differential_disabled_always_first_time(self):
        client = BSoapClient(
            CollectSink(), DiffPolicy(differential_enabled=False)
        )
        m = msg(np.arange(4.0))
        for _ in range(3):
            r = client.send(m)
            assert r.match_kind is MatchKind.FIRST_TIME
        assert client.template_count == 0  # nothing cached


class TestStats:
    def test_client_stats_accumulate(self):
        client = BSoapClient(CollectSink())
        m = msg(np.arange(3.0))
        client.send(m)
        client.send(m)
        assert client.stats.sends == 2
        assert client.stats.by_kind[MatchKind.FIRST_TIME] == 1
        assert client.stats.by_kind[MatchKind.CONTENT_MATCH] == 1
        assert client.stats.templates_built == 1
        assert "sends=2" in client.stats.summary()

    def test_send_report_fields(self):
        client = BSoapClient(CollectSink())
        r = client.send(msg(np.arange(3.0)))
        assert r.bytes_sent > 0
        assert r.num_chunks >= 1
        assert r.serialized_everything

    def test_context_manager(self):
        with BSoapClient(CollectSink()) as client:
            client.send(msg([1.0]))

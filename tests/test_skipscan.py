"""Unit tests for schema-compiled skip-scan deserialization.

Covers :class:`~repro.schema.skipscan.SeekTable` compilation and
application, the descriptor declarations in
:mod:`repro.schema.descriptors`, the WSDL generator, the
fallback-ladder events, the session/service stat plumbing, and the
hot-session drill over the ``tests/malformed/skipscan_*`` corpus.  The
lockstep oracle and Hypothesis property suites live in
``test_skipscan_oracle.py`` / ``test_skipscan_property.py``.
"""

import json
import socket
from pathlib import Path

import numpy as np
import pytest

from repro.core.client import BSoapClient
from repro.core.policy import DiffPolicy, StuffingPolicy, StuffMode
from repro.errors import SchemaError, XMLError
from repro.lexical.floats import FloatFormat
from repro.obs import Observability
from repro.schema import (
    DOUBLE,
    INT,
    STRING,
    Array,
    ArrayType,
    MessageDescriptor,
    MIO_TYPE,
    Scalar,
    SeekTable,
    SkipScanFallback,
    StructArray,
    TypeRegistry,
)
from repro.server.diffdeser import DeserKind, DifferentialDeserializer
from repro.server.parser import SOAPRequestParser
from repro.server.service import SOAPService
from repro.soap.fault import SOAPFault
from repro.soap.message import Parameter, SOAPMessage
from repro.transport.loopback import CollectSink
from repro.wsdl.model import OperationDef, ParamDef, ServiceDef
from repro.wsdl.stubgen import generate_descriptors


def _registry():
    reg = TypeRegistry()
    reg.register_struct(MIO_TYPE)
    return reg


def _client(fmt=FloatFormat.FIXED, stuff=StuffMode.MAX):
    sink = CollectSink()
    client = BSoapClient(
        sink, DiffPolicy(float_format=fmt, stuffing=StuffingPolicy(stuff))
    )
    return sink, client


def _doubles_msg(values, op="putDoubles"):
    return SOAPMessage(
        op, "urn:skip", [Parameter("data", ArrayType(DOUBLE), np.asarray(values))]
    )


def _mixed_msg(count, names, vals):
    return SOAPMessage(
        "mixedOp",
        "urn:skip",
        [
            Parameter("count", INT, count),
            Parameter("names", ArrayType(STRING), list(names)),
            Parameter("vals", ArrayType(DOUBLE), np.asarray(vals)),
        ],
    )


def _decoded_equal(a, b):
    assert a.operation == b.operation
    assert len(a.params) == len(b.params)
    for p, q in zip(a.params, b.params):
        assert p.name == q.name and p.kind == q.kind
        v, w = p.value, q.value
        if isinstance(v, dict):
            assert set(v) == set(w)
            for key in v:
                assert np.array_equal(
                    np.asarray(v[key]), np.asarray(w[key]), equal_nan=True
                ), key
        elif isinstance(v, np.ndarray):
            assert np.array_equal(v, np.asarray(w), equal_nan=True), (v, w)
        else:
            assert v == w, (p.name, v, w)


class TestSeekTableCompile:
    def test_compiles_for_stuffed_doubles(self):
        sink, client = _client()
        client.send(_doubles_msg([1.5, -2.25, 3e10]))
        result = SOAPRequestParser().parse(sink.last)
        table = SeekTable.compile(sink.last, result)
        assert table._vec_len is not None  # uniform FIXED doubles
        assert len(table.trie) == 1

    def test_mixed_message_compiles_without_vector_lane(self):
        sink, client = _client(fmt=FloatFormat.MINIMAL)
        client.send(_mixed_msg(41, ["ab", "cd"], [1.5, 2.5]))
        result = SOAPRequestParser().parse(sink.last)
        table = SeekTable.compile(sink.last, result)
        assert table._vec_len is None
        assert len(table.trie) >= 2  # several distinct closing tags

    def test_no_leaves_is_uncompilable(self):
        wire = (
            b'<?xml version="1.0"?>'
            b'<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/">'
            b"<e:Body><op></op></e:Body></e:Envelope>"
        )
        result = SOAPRequestParser().parse(wire)
        with pytest.raises(SkipScanFallback) as exc:
            SeekTable.compile(wire, result)
        assert exc.value.reason == "no-leaves"

    def test_descriptor_gate_blocks_mismatch(self):
        sink, client = _client()
        client.send(_doubles_msg([1.0, 2.0]))
        result = SOAPRequestParser().parse(sink.last)

        class WrongShape(MessageDescriptor):
            __operation__ = "putDoubles"
            data = Array(INT)  # wire carries doubles

        with pytest.raises(SkipScanFallback) as exc:
            SeekTable.compile(sink.last, result, WrongShape)
        assert exc.value.reason == "descriptor-mismatch"

    def test_descriptor_gate_passes_match(self):
        sink, client = _client()
        client.send(_doubles_msg([1.0, 2.0]))
        result = SOAPRequestParser().parse(sink.last)

        class RightShape(MessageDescriptor):
            __operation__ = "putDoubles"
            data = Array(DOUBLE)

        table = SeekTable.compile(sink.last, result, RightShape)
        assert table.result is result


class TestDescriptors:
    def _decode(self, message):
        sink, client = _client(fmt=FloatFormat.MINIMAL)
        client.send(message)
        return SOAPRequestParser(_registry()).parse(sink.last).message

    def test_check_and_typed_access(self):
        class MixedOp(MessageDescriptor):
            __operation__ = "mixedOp"
            count = Scalar(INT)
            names = Array(STRING)
            vals = Array(DOUBLE)

        decoded = self._decode(_mixed_msg(7, ["a", "b"], [0.5]))
        assert MixedOp.check(decoded) is None
        bound = MixedOp(decoded)
        assert bound.count == 7
        assert bound.names == ["a", "b"]
        assert np.array_equal(bound.vals, [0.5])

    def test_check_reports_first_mismatch(self):
        class MixedOp(MessageDescriptor):
            __operation__ = "mixedOp"
            count = Scalar(INT)
            names = Array(INT)  # wire carries strings
            vals = Array(DOUBLE)

        decoded = self._decode(_mixed_msg(7, ["a"], [0.5]))
        err = MixedOp.check(decoded)
        assert err is not None and "names" in err
        with pytest.raises(SchemaError):
            MixedOp(decoded)

    def test_check_operation_and_arity(self):
        class Other(MessageDescriptor):
            __operation__ = "otherOp"
            data = Array(DOUBLE)

        decoded = self._decode(_doubles_msg([1.0]))
        assert "otherOp" in Other.check(decoded)

        class TooMany(MessageDescriptor):
            __operation__ = "putDoubles"
            data = Array(DOUBLE)
            extra = Scalar(INT)

        assert "parameters" in TooMany.check(decoded)

    def test_struct_array_spec(self):
        class Mesh(MessageDescriptor):
            __operation__ = "putMesh"
            mesh = StructArray(MIO_TYPE)

        sink, client = _client(fmt=FloatFormat.MINIMAL)
        client.send(
            SOAPMessage(
                "putMesh",
                "urn:skip",
                [
                    Parameter(
                        "mesh",
                        ArrayType(MIO_TYPE),
                        {
                            "x": np.array([1, 2]),
                            "y": np.array([3, 4]),
                            "v": np.array([0.5, 0.25]),
                        },
                    )
                ],
            )
        )
        decoded = SOAPRequestParser(_registry()).parse(sink.last).message
        assert Mesh.check(decoded) is None
        assert np.array_equal(Mesh(decoded).mesh["y"], [3, 4])

    def test_from_operation_and_generate(self):
        service = ServiceDef("Skip", "urn:skip")
        service.add(
            OperationDef(
                "putDoubles",
                (ParamDef("data", ArrayType(DOUBLE)),),
                ParamDef("count", INT),
            )
        )
        service.add(
            OperationDef(
                "putMesh",
                (ParamDef("mesh", ArrayType(MIO_TYPE)),),
            )
        )
        descriptors = generate_descriptors(service)
        assert set(descriptors) == {"putDoubles", "putMesh"}
        cls = descriptors["putDoubles"]
        assert issubclass(cls, MessageDescriptor)
        assert cls.__operation__ == "putDoubles"
        assert [name for name, _ in cls.__params__] == ["data"]

        decoded = self._decode(_doubles_msg([1.0, 2.0]))
        assert cls.check(decoded) is None


class TestStoreLeaf:
    def test_store_leaf_matches_set_leaf(self):
        """Storing parsed leaves in place equals a full parse of the
        wire that carries those values."""
        sink, client = _client(fmt=FloatFormat.MINIMAL)
        client.send(_mixed_msg(5, ["ab"], [1.5, 2.5]))
        stored = SOAPRequestParser().parse(sink.last)
        stored.store_leaf(0, stored.leaf_type(0).parse(b"99"))
        stored.store_leaf(2, stored.leaf_type(2).parse(b"-7.5"))
        client.send(_mixed_msg(99, ["ab"], [-7.5, 2.5]))
        _decoded_equal(stored.message, SOAPRequestParser().parse(sink.last).message)


class TestSkipScanApply:
    """Fallback ladder + recovery through the deserializer."""

    def _steady(self, fmt=FloatFormat.FIXED, values=(1.5, -2.25, 3e10)):
        """Template established, one mutated same-length resend ready."""
        sink, client = _client(fmt=fmt)
        call = client.prepare(_doubles_msg(values))
        call.send()
        deser = DifferentialDeserializer()
        deser.deserialize(sink.last)
        assert deser.has_seek_table
        mutated = np.asarray(values).copy()
        mutated[0] = -9.875
        call.tracked("data").update(np.array([0]), mutated[:1])
        call.send()
        return sink, call, deser, mutated

    def test_vector_hit(self):
        sink, call, deser, expected = self._steady()
        decoded, report = deser.deserialize(sink.last)
        assert report.kind is DeserKind.DIFFERENTIAL
        assert deser.skipscan_stats.get("hit-vector") == 1
        assert np.array_equal(decoded.value("data"), expected)

    def test_per_leaf_hit_mixed_message(self):
        # Strings + ints + doubles: no uniform region width, so the
        # vector lane stays cold and the per-leaf path runs.
        sink, client = _client(fmt=FloatFormat.MINIMAL)
        call = client.prepare(_mixed_msg(41, ["abc", "def"], [1.5, 2.5]))
        call.send()
        deser = DifferentialDeserializer()
        deser.deserialize(sink.last)
        call.tracked("vals").update(np.array([1]), np.array([9.5]))
        call.send()
        decoded, report = deser.deserialize(sink.last)
        assert report.kind is DeserKind.DIFFERENTIAL
        assert deser.skipscan_stats.get("hit") == 1
        assert np.array_equal(decoded.value("vals"), [1.5, 9.5])
        assert decoded.value("names") == ["abc", "def"]

    def test_inf_nan_take_per_leaf_path(self):
        sink, client = _client()
        call = client.prepare(_doubles_msg([1.5, 2.5, 3.5]))
        call.send()
        deser = DifferentialDeserializer()
        deser.deserialize(sink.last)
        call.tracked("data").update(
            np.array([0, 2]), np.array([np.inf, np.nan])
        )
        call.send()
        decoded, report = deser.deserialize(sink.last)
        assert report.kind is DeserKind.DIFFERENTIAL
        assert deser.skipscan_stats.get("hit") == 1  # charset rejected INF
        got = decoded.value("data")
        assert got[0] == np.inf and np.isnan(got[2]) and got[1] == 2.5

    def _region(self, deser, j):
        table = deser.store.entries[None].table
        return int(table.starts[j]), int(table.ends[j])

    def test_tag_drift_falls_back_to_full_parse(self):
        sink, call, deser, expected = self._steady()
        wire = sink.last
        s, e = self._region(deser, 1)
        i = wire.index(b"</item>", s, e)
        bad = wire[: i + 2] + b"j" + wire[i + 3 :]  # </jtem>
        with pytest.raises(XMLError):
            deser.deserialize(bad)
        assert any(
            k.startswith("fallback-tag-drift") for k in deser.skipscan_stats
        )
        # The failed full parse never replaced the template; the
        # session is not poisoned and the next good send still works.
        decoded, report = deser.deserialize(sink.last)
        assert np.array_equal(decoded.value("data"), expected)

    def test_pad_drift_falls_back_and_agrees_with_full_parse(self):
        # MINIMAL + MAX stuffing: short values leave real pad bytes.
        sink, client = _client(fmt=FloatFormat.MINIMAL)
        call = client.prepare(_doubles_msg([1.5, 2.5, 3.5]))
        call.send()
        deser = DifferentialDeserializer()
        deser.deserialize(sink.last)
        wire = sink.last
        s, e = self._region(deser, 0)
        gt = wire.index(b"</item>", s, e) + len(b"</item>")
        assert wire[gt:e].strip(b" \t\r\n") == b""  # real pad exists
        bad = wire[:gt] + b"x" + wire[gt + 1 :]
        decoded, report = deser.deserialize(bad)
        # Full parse treats stray text between items as ignorable
        # mixed content, so the fallback *succeeds* — equivalence
        # means agreeing with that, not erroring.
        assert report.kind is DeserKind.FULL
        assert deser.skipscan_stats.get("fallback-pad-drift") == 1
        ref = SOAPRequestParser().parse(bad).message
        _decoded_equal(decoded, ref)

    def test_value_garbage_falls_back_with_full_parse_error(self):
        sink, call, deser, expected = self._steady(fmt=FloatFormat.MINIMAL)
        wire = sink.last
        s, e = self._region(deser, 0)
        lt = wire.index(b"<", s, e)
        assert lt - s >= 2
        bad = wire[:s] + b"zz" + wire[s + 2 : ]
        with pytest.raises(Exception) as got:
            deser.deserialize(bad)
        with pytest.raises(Exception) as ref:
            SOAPRequestParser().parse(bad)
        assert type(got.value) is type(ref.value)
        assert deser.skipscan_stats.get("fallback-value-parse") == 1

    def test_entity_in_string_falls_back_and_expands(self):
        sink, client = _client(fmt=FloatFormat.MINIMAL)
        call = client.prepare(_mixed_msg(5, ["abcdef"], [1.5]))
        call.send()
        deser = DifferentialDeserializer()
        deser.deserialize(sink.last)
        wire = sink.last
        i = wire.index(b"abcdef")
        bad = wire[:i] + b"&amp;x" + wire[i + 6 :]
        assert len(bad) == len(wire)
        decoded, report = deser.deserialize(bad)
        assert report.kind is DeserKind.FULL
        assert deser.skipscan_stats.get("fallback-value-entity") == 1
        assert decoded.value("names")[0] == "&x"  # scanner expanded it

    def test_length_and_skeleton_drift_events(self):
        sink, call, deser, expected = self._steady()
        wire = sink.last
        deser.deserialize(wire)
        # Length drift: a longer body while a table is armed.  Trailing
        # whitespace parses fine, so this falls back to a *successful*
        # full parse.
        decoded, report = deser.deserialize(wire + b" ")
        assert report.kind is DeserKind.FULL
        assert deser.skipscan_stats.get("length-drift") == 1
        # Re-arm at the original length (another length drift), then
        # flip a skeleton byte (outside every region).
        deser.deserialize(wire)
        assert deser.skipscan_stats.get("length-drift") == 2
        i = wire.index(b"<item>")
        bad = wire[:i] + b"<jtem>" + wire[i + 6 :]
        with pytest.raises(XMLError):
            deser.deserialize(bad)
        assert deser.skipscan_stats.get("skeleton-drift") == 1

    def test_reset_drops_table(self):
        sink, call, deser, _ = self._steady()
        assert deser.has_seek_table
        deser.reset()
        assert not deser.has_seek_table
        assert not deser.has_template

    def test_recompiles_after_fallback(self):
        """A drift send full-parses AND re-arms skip-scan for the new
        template; the following structural match skip-scans again."""
        sink, call, deser, expected = self._steady()
        decoded, report = deser.deserialize(sink.last)
        assert report.kind is DeserKind.DIFFERENTIAL
        # Fresh shape = structural drift: full parse, new table.
        sink2, client2 = _client()
        call2 = client2.prepare(_doubles_msg([7.0, 8.0, 9.0, 10.0]))
        call2.send()
        decoded, report = deser.deserialize(sink2.last)
        assert report.kind is DeserKind.FULL
        assert deser.has_seek_table
        call2.tracked("data").update(np.array([1]), np.array([-1.25]))
        call2.send()
        decoded, report = deser.deserialize(sink2.last)
        assert report.kind is DeserKind.DIFFERENTIAL
        assert decoded.value("data")[1] == -1.25

    def test_obs_counter_and_span(self):
        obs = Observability.recording()
        sink, client = _client()
        call = client.prepare(_doubles_msg([1.5, 2.5]))
        call.send()
        deser = DifferentialDeserializer(obs=obs)
        deser.deserialize(sink.last)
        call.tracked("data").update(np.array([0]), np.array([4.5]))
        call.send()
        deser.deserialize(sink.last)
        counter = obs.metrics.get("repro_skipscan_events_total")
        assert counter.value(event="compiled") == 1
        assert counter.value(event="hit-vector") == 1
        span = obs.tracer.last("skipscan")
        assert span is not None and span.attrs["leaves"] == 1
        assert span.attrs["vectorized"] is True


class TestNoSeekTable:
    """A template without a seek table — shed by the overload ladder,
    or never compiled — answers every changed wire with the full
    parse: same decode or same error class, and a template that still
    equals the parse of its own bytes."""

    def _unarmed(self, how):
        """Template stored, no table armed, one mutated resend ready."""
        sink, client = _client(fmt=FloatFormat.MINIMAL)
        call = client.prepare(_doubles_msg([1.5, 2.5, 3.5]))
        call.send()
        template = sink.last
        if how == "shed":
            deser = DifferentialDeserializer()
            deser.deserialize(template)
            assert deser.drop_seek_table() > 0
        else:

            class WrongShape(MessageDescriptor):
                __operation__ = "putDoubles"
                data = Array(INT)  # wire carries doubles

            deser = DifferentialDeserializer(descriptors={"putDoubles": WrongShape})
            deser.deserialize(template)
            assert deser.skipscan_stats == {"uncompilable-descriptor-mismatch": 1}
        assert deser.has_template and not deser.has_seek_table
        call.tracked("data").update(np.array([0]), np.array([9.5]))
        call.send()
        assert len(sink.last) == len(template)
        return deser, template, sink.last

    @staticmethod
    def _corrupt(wire, corruption):
        """Damage leaf 1's field region, length preserved."""
        i = wire.index(b"2.5</item>")
        gt = i + len(b"2.5</item>")
        if corruption == "close-tag":
            return wire[: i + 5] + b"j" + wire[i + 6 :]  # </jtem>
        assert wire[gt : gt + 1].isspace()  # real pad exists
        return wire[:gt] + corruption + wire[gt + 1 :]

    @pytest.mark.parametrize("corruption", ("close-tag", b"x", b"&"))
    @pytest.mark.parametrize("how", ("shed", "descriptor-mismatch"))
    def test_corrupt_region_matches_full_parse(self, how, corruption):
        deser, template, clean = self._unarmed(how)
        bad = self._corrupt(clean, corruption)
        assert len(bad) == len(clean) and bad != clean
        try:
            reference = SOAPRequestParser().parse(bad).message
        except XMLError as exc:
            with pytest.raises(type(exc)):
                deser.deserialize(bad)
            survivor = template
        else:
            # Stray text in the pad is ignorable mixed content to the
            # full parse; agreeing with it means accepting it too.
            decoded, report = deser.deserialize(bad)
            assert report.kind is DeserKind.FULL
            _decoded_equal(decoded, reference)
            survivor = bad
        assert (survivor is bad) == (corruption == b"x")
        # The stored template is exactly *survivor* and decodes to the
        # parse of those bytes.
        cached, report = deser.deserialize(survivor)
        assert report.kind is DeserKind.CONTENT_MATCH
        _decoded_equal(cached, SOAPRequestParser().parse(survivor).message)
        decoded, _ = deser.deserialize(clean)
        assert np.array_equal(decoded.value("data"), [9.5, 2.5, 3.5])

    def test_shed_costs_one_full_parse_then_skipscans_again(self):
        """Tier-2 recovery: one full parse, one recompile, then hits."""
        sink, client = _client()
        call = client.prepare(_doubles_msg([1.5, 2.5, 3.5]))
        call.send()
        deser = DifferentialDeserializer()
        deser.deserialize(sink.last)
        assert deser.drop_seek_table() > 0
        assert deser.drop_seek_table() == 0  # nothing left to shed
        # An unchanged request needs no table.
        _, report = deser.deserialize(sink.last)
        assert report.kind is DeserKind.CONTENT_MATCH
        assert deser.stats[DeserKind.FULL] == 1
        assert deser.skipscan_stats == {"compiled": 1, "shed": 1}

        call.tracked("data").update(np.array([1]), np.array([9.5]))
        call.send()
        decoded, report = deser.deserialize(sink.last)
        assert report.kind is DeserKind.FULL
        assert np.array_equal(decoded.value("data"), [1.5, 9.5, 3.5])
        assert deser.stats[DeserKind.FULL] == 2
        assert deser.skipscan_stats == {"compiled": 2, "shed": 1}
        assert deser.has_seek_table

        call.tracked("data").update(np.array([2]), np.array([-4.25]))
        call.send()
        decoded, report = deser.deserialize(sink.last)
        assert report.kind is DeserKind.DIFFERENTIAL
        assert report.leaves_parsed == 1
        assert np.array_equal(decoded.value("data"), [1.5, 9.5, -4.25])
        assert deser.stats[DeserKind.FULL] == 2
        assert deser.skipscan_stats == {"compiled": 2, "shed": 1, "hit-vector": 1}


class TestServiceIntegration:
    def _service(self, **kw):
        service = SOAPService(
            "urn:skip", response_policy=DiffPolicy(), **kw
        )

        @service.operation("putDoubles", result_type=INT, result_name="n")
        def put(data):
            return len(data)

        return service

    def _wire(self, values, fmt=FloatFormat.FIXED):
        sink, client = _client(fmt=fmt)
        call = client.prepare(_doubles_msg(values))
        call.send()
        return sink, call

    def test_service_skipscan_default_on(self):
        service = self._service()
        sink, call = self._wire([1.5, 2.5, 3.5])
        service.handle(sink.last, "c1")
        call.tracked("data").update(np.array([1]), np.array([9.5]))
        call.send()
        response = service.handle(sink.last, "c1")
        assert b"Fault" not in response
        stats = service.deserializer.skipscan_stats
        assert stats.get("compiled") == 1
        assert stats.get("hit-vector") == 1

    def test_retired_sessions_keep_skipscan_stats(self):
        service = self._service()
        sink, call = self._wire([1.5, 2.5])
        service.handle(sink.last, "gone")
        call.tracked("data").update(np.array([0]), np.array([9.5]))
        call.send()
        service.handle(sink.last, "gone")
        live = service.deserializer.skipscan_stats
        service.sessions.close_session("gone")
        retired = service.deserializer.skipscan_stats
        assert retired == live
        assert len(service.sessions) == 0

    def test_from_definition_generates_descriptor_gate(self):
        definition = ServiceDef("Skip", "urn:skip")
        definition.add(
            OperationDef(
                "putDoubles",
                (ParamDef("data", ArrayType(DOUBLE)),),
                ParamDef("n", INT),
            )
        )
        service = SOAPService.from_definition(
            definition, {"putDoubles": lambda data: len(data)}
        )
        session = service.sessions.acquire("c1")
        try:
            assert session.deserializer.descriptors is not None
            assert "putDoubles" in session.deserializer.descriptors
        finally:
            service.sessions.release(session)
        sink, call = self._wire([1.5, 2.5])
        service.handle(sink.last, "c1")
        assert service.deserializer.skipscan_stats.get("compiled") == 1

    def test_descriptor_mismatch_never_compiles(self):
        """A wire whose shape contradicts the WSDL keeps full-parsing."""
        definition = ServiceDef("Skip", "urn:skip")
        definition.add(
            OperationDef(
                "putDoubles",
                (ParamDef("data", ArrayType(INT)),),  # declared ints
                ParamDef("n", INT),
            )
        )
        service = SOAPService.from_definition(
            definition, {"putDoubles": lambda data: len(data)}
        )
        sink, call = self._wire([1.5, 2.5])  # wire carries doubles
        response = service.handle(sink.last, "c1")
        stats = service.deserializer.skipscan_stats
        assert stats.get("uncompilable-descriptor-mismatch") == 1
        assert stats.get("compiled") is None
        # Every changed wire is a full parse (and one more refused
        # compile), so a damaged closing tag inside a field region is
        # a Client fault, as it is for a fresh parse of those bytes.
        call.tracked("data").update(np.array([0]), np.array([9.5]))
        call.send()
        assert b"Fault" not in service.handle(sink.last, "c1")
        i = sink.last.rindex(b"</item>")
        bad = sink.last[: i + 2] + b"j" + sink.last[i + 3 :]  # </jtem>
        fault = SOAPFault.from_xml(service.handle(bad, "c1"))
        assert fault is not None and fault.faultcode.endswith("Client")
        assert service.deserializer.stats[DeserKind.FULL] == 2
        assert service.deserializer.stats[DeserKind.DIFFERENTIAL] == 0
        stats = service.deserializer.skipscan_stats
        assert stats == {"uncompilable-descriptor-mismatch": 2}


# ----------------------------------------------------------------------
# Hot-session drill over the skip-scan malformed corpus
# ----------------------------------------------------------------------
MALFORMED_DIR = Path(__file__).parent / "malformed"
with (MALFORMED_DIR / "MANIFEST.json").open() as _fh:
    _MANIFEST = {k: v for k, v in json.load(_fh).items() if not k.startswith("_")}
SKIPSCAN_CASES = sorted(k for k, v in _MANIFEST.items() if "skipscan" in v)


class TestSkipScanCorpus:
    """Each ``skipscan_*`` mutant is injected into a *hot* session (the
    pristine template already compiled into a seek table) and must
    behave exactly like a fresh full parse of the same bytes, while
    recording the fallback-ladder event the manifest names.  The
    single-shot deserializer / service-fault / live-HTTP sweeps in
    ``test_hardening.py`` pick these files up automatically."""

    @pytest.mark.parametrize("name", SKIPSCAN_CASES)
    def test_hot_session_matches_full_parse(self, name):
        import repro.errors

        entry = _MANIFEST[name]
        template = (MALFORMED_DIR / entry["skipscan"]["template"]).read_bytes()
        data = (MALFORMED_DIR / name).read_bytes()
        deser = DifferentialDeserializer()
        deser.deserialize(template)
        assert deser.has_seek_table, "template must compile a seek table"
        expected = entry["error"]
        if expected is None:
            decoded, _ = deser.deserialize(data)
            reference = SOAPRequestParser().parse(data).message
            _decoded_equal(decoded, reference)
        else:
            with pytest.raises(repro.errors.ReproError) as err:
                deser.deserialize(data)
            assert isinstance(err.value, getattr(repro.errors, expected)), (
                f"{name}: expected {expected}, got {type(err.value).__name__}"
            )
        event = entry["skipscan"]["event"]
        assert deser.skipscan_stats.get(event, 0) >= 1, (
            f"{name}: expected event {event!r}, saw {deser.skipscan_stats}"
        )

    def test_live_http_hot_session_survives_corpus(self):
        """One keep-alive connection: template, every mutant, template
        again.  With ``seekProbe`` registered, clean-parsing bodies
        dispatch (no fault), corrupt ones answer a 200 Client fault,
        the connection never drops, and the session's skip-scan lane
        records both hits and drift fallbacks."""
        from repro.hardening.fuzz import build_fuzz_service
        from repro.server.service import Operation
        from repro.server.threaded_server import HTTPSoapServer
        from repro.transport.http import IncompleteHTTPError, parse_http_response

        def post(sock, body):
            sock.sendall(
                b"POST / HTTP/1.1\r\nContent-Type: text/xml\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body) + body
            )
            buf = b""
            while True:
                try:
                    status, _headers, resp, consumed = parse_http_response(buf)
                    return status, resp
                except IncompleteHTTPError:
                    chunk = sock.recv(65536)
                    if not chunk:
                        raise AssertionError("server closed mid-session")
                    buf += chunk

        service = build_fuzz_service()
        service.register(
            Operation("seekProbe", lambda **p: len(p), result_type=INT)
        )
        template = (MALFORMED_DIR / "skipscan_template.xml").read_bytes()
        with HTTPSoapServer(service) as server:
            with socket.create_connection(
                (server.host, server.port), timeout=5.0
            ) as sock:
                bodies = [("skipscan_template.xml", template)]
                for name in SKIPSCAN_CASES:
                    # Re-pin the pristine template between mutants so
                    # each injection lands on a hot, known session.
                    bodies += [
                        (name, (MALFORMED_DIR / name).read_bytes()),
                        ("skipscan_template.xml", template),
                    ]
                for name, body in bodies:
                    status, resp = post(sock, body)
                    assert status == 200, name
                    fault = SOAPFault.from_xml(resp)
                    if _MANIFEST[name]["error"] is None:
                        assert fault is None, name
                    else:
                        assert fault is not None, name
                        assert fault.faultcode.endswith("Client"), name
            stats = service.deserializer.skipscan_stats
            assert stats.get("hit", 0) + stats.get("hit-vector", 0) > 0
            assert stats.get("skeleton-drift", 0) >= 1
            assert any(k.startswith("fallback-") for k in stats)

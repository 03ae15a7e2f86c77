"""Unit tests for the SOAP protocol layer."""

import numpy as np
import pytest

from repro.errors import SchemaError, SOAPError, SOAPFaultError, XMLSyntaxError
from repro.schema.composite import ArrayType
from repro.schema.mio import make_mio_array_type
from repro.schema.types import DOUBLE, INT, STRING
from repro.soap.constants import SOAP_ENC_URI, SOAP_ENV_URI
from repro.soap.encoding import (
    array_open_attrs,
    array_type_attr,
    parse_array_type_attr,
    xsi_type_attr,
)
from repro.soap.envelope import envelope_layout
from repro.soap.fault import SOAPFault
from repro.soap.message import Parameter, SOAPMessage, structure_signature
from repro.soap.multiref import MultiRefTable
from repro.soap.rpc import RPCRequest, response_message
from repro.xmlkit.scanner import parse_document


class TestEnvelope:
    def test_layout_wellformed(self):
        layout = envelope_layout("urn:svc", "doIt")
        doc = layout.prefix + b"<p>1</p>" + layout.suffix
        parse_document(doc)

    def test_layout_contains_namespaces(self):
        layout = envelope_layout("urn:svc", "doIt")
        assert SOAP_ENV_URI.encode() in layout.prefix
        assert SOAP_ENC_URI.encode() in layout.prefix
        assert b'xmlns:ns="urn:svc"' in layout.prefix
        assert layout.operation_tag == "ns:doIt"

    def test_layout_cached(self):
        assert envelope_layout("urn:a", "op") is envelope_layout("urn:a", "op")

    def test_overhead(self):
        layout = envelope_layout("urn:a", "op")
        assert layout.overhead == len(layout.prefix) + len(layout.suffix)


class TestMessage:
    def test_length_of_array_params(self):
        p = Parameter("a", ArrayType(DOUBLE), np.zeros(7))
        assert p.length == 7

    def test_scalar_length_zero(self):
        assert Parameter("a", DOUBLE, 1.0).length == 0

    def test_struct_of_arrays_length(self):
        p = Parameter("m", make_mio_array_type(), {"x": [1], "y": [2], "v": [3.0]})
        assert p.length == 1

    def test_ragged_columns_rejected(self):
        with pytest.raises(SchemaError):
            Parameter(
                "m", make_mio_array_type(), {"x": [1, 2], "y": [2], "v": [3.0]}
            ).length

    def test_string_value_rejected_for_array(self):
        with pytest.raises(SchemaError):
            Parameter("a", ArrayType(INT), "123").length

    def test_duplicate_param_names_rejected(self):
        with pytest.raises(SchemaError):
            SOAPMessage(
                "op", "urn:x",
                [Parameter("a", DOUBLE, 1.0), Parameter("a", DOUBLE, 2.0)],
            )

    def test_param_lookup(self):
        m = SOAPMessage("op", "urn:x", [Parameter("a", DOUBLE, 1.0)])
        assert m.param("a").value == 1.0
        with pytest.raises(SchemaError):
            m.param("b")

    def test_type_labels(self):
        assert Parameter("a", DOUBLE, 1.0).type_label() == "double"
        assert Parameter("a", ArrayType(INT), [1]).type_label() == "array<int>"
        assert "MIO" in Parameter(
            "m", make_mio_array_type(), {"x": [1], "y": [1], "v": [1.0]}
        ).type_label()


class TestStructureSignature:
    def _msg(self, n):
        return SOAPMessage(
            "op", "urn:x", [Parameter("a", ArrayType(DOUBLE), np.zeros(n))]
        )

    def test_same_structure_same_signature(self):
        m1 = self._msg(10)
        m2 = SOAPMessage(
            "op", "urn:x", [Parameter("a", ArrayType(DOUBLE), np.ones(10))]
        )
        assert structure_signature(m1) == structure_signature(m2)

    def test_length_changes_signature(self):
        assert structure_signature(self._msg(10)) != structure_signature(self._msg(11))

    def test_operation_changes_signature(self):
        other = SOAPMessage(
            "op2", "urn:x", [Parameter("a", ArrayType(DOUBLE), np.zeros(10))]
        )
        assert structure_signature(self._msg(10)) != structure_signature(other)

    def test_type_changes_signature(self):
        other = SOAPMessage(
            "op", "urn:x", [Parameter("a", ArrayType(INT), np.zeros(10, int))]
        )
        assert structure_signature(self._msg(10)) != structure_signature(other)


class TestEncoding:
    def test_array_type_attr(self):
        name, value = array_type_attr(ArrayType(DOUBLE), 42)
        assert name == "SOAP-ENC:arrayType" and value == "xsd:double[42]"

    def test_xsi_type_attr(self):
        assert xsi_type_attr(INT) == ("xsi:type", "xsd:int")

    def test_array_open_attrs(self):
        attrs = array_open_attrs(ArrayType(DOUBLE), 3)
        assert attrs["xsi:type"] == "SOAP-ENC:Array"

    def test_parse_array_type(self):
        assert parse_array_type_attr("xsd:double[100]") == ("xsd:double", 100)
        assert parse_array_type_attr("ns:MIO[]") == ("ns:MIO", None)

    @pytest.mark.parametrize("bad", ["xsd:double", "[5]", "x[y]", "x[-1]"])
    def test_parse_array_type_rejects(self, bad):
        with pytest.raises(SOAPError):
            parse_array_type_attr(bad)


class TestMultiRef:
    def test_first_then_href(self):
        table = MultiRefTable()
        obj = [1, 2, 3]
        ref1, first1 = table.reference(obj)
        ref2, first2 = table.reference(obj)
        assert ref1 == ref2 and first1 and not first2

    def test_distinct_objects_distinct_refs(self):
        table = MultiRefTable()
        r1, _ = table.reference([1])
        r2, _ = table.reference([1])
        assert r1 != r2

    def test_dangling_tracking(self):
        table = MultiRefTable()
        ref, _ = table.reference([1])
        assert table.dangling == [ref]
        table.mark_emitted(ref)
        assert table.dangling == []

    def test_seen(self):
        table = MultiRefTable()
        obj = {}
        assert table.seen(obj) is None
        ref, _ = table.reference(obj)
        assert table.seen(obj) == ref
        assert len(table) == 1


class TestFault:
    def test_round_trip(self):
        fault = SOAPFault.server("boom", "stack trace here")
        parsed = SOAPFault.from_xml(fault.to_xml())
        assert parsed == fault

    def test_client_helper(self):
        fault = SOAPFault.client("bad request")
        assert fault.faultcode.endswith("Client")

    def test_from_non_fault_returns_none(self):
        layout = envelope_layout("urn:x", "op")
        doc = layout.prefix + b"<a>1</a>" + layout.suffix
        assert SOAPFault.from_xml(doc) is None

    def test_payload_element_named_fault_is_not_a_fault(self):
        """Only Body's first child can be the fault: a result field
        called ``Fault`` is payload (it used to raise "missing
        faultcode", which the channel retried as a transport error)."""
        layout = envelope_layout("urn:x", "statusResponse")
        doc = (
            layout.prefix
            + b"<return><Fault>none</Fault><code>7</code></return>"
            + layout.suffix
        )
        assert SOAPFault.from_xml(doc) is None

    @pytest.mark.parametrize(
        "envelope",
        [
            # no prolog, a foreign prefix
            b'<s:Envelope xmlns:s="http://schemas.xmlsoap.org/soap/envelope/">'
            b"<s:Body><s:Fault>%s</s:Fault></s:Body></s:Envelope>",
            # prolog, comments and whitespace before Body
            b'<?xml version="1.0"?>\n<!-- hello -->\n'
            b'<SOAP-ENV:Envelope xmlns:SOAP-ENV="u">\n  <!-- note -->\n'
            b"  <SOAP-ENV:Body>\n   <!-- c -->\n   <SOAP-ENV:Fault>%s"
            b"</SOAP-ENV:Fault>\n  </SOAP-ENV:Body>\n</SOAP-ENV:Envelope>\n",
            # a Header sibling, itself holding a Body and a Fault element
            b'<e:Envelope xmlns:e="u"><e:Header><t:Body xmlns:t="v">'
            b"<t:Fault><faultcode>decoy</faultcode></t:Fault></t:Body>"
            b"</e:Header><e:Body><e:Fault>%s</e:Fault></e:Body></e:Envelope>",
            # unprefixed
            b"<Envelope><Body><Fault>%s</Fault></Body></Envelope>",
        ],
    )
    def test_fault_envelope_shapes(self, envelope):
        fields = (
            b"<faultcode>s:Server</faultcode>"
            b"<faultstring>boom &amp; bust</faultstring>"
            b"<detail><trace>line 1</trace></detail>"
        )
        assert SOAPFault.from_xml(envelope % fields) == SOAPFault(
            "s:Server", "boom & bust", "line 1"
        )

    @pytest.mark.parametrize(
        "doc",
        [
            b"<e:Envelope xmlns:e='u'><e:Body/></e:Envelope>",
            b"<e:Envelope xmlns:e='u'><e:Body></e:Body></e:Envelope>",
            b"<e:Envelope xmlns:e='u'><e:Header/></e:Envelope>",
            # a Fault that is not Body's first child is payload
            b"<e:Envelope xmlns:e='u'><e:Body><r/><e:Fault/></e:Body></e:Envelope>",
        ],
    )
    def test_no_body_child_is_not_a_fault(self, doc):
        assert SOAPFault.from_xml(doc) is None

    def test_fault_without_faultcode_is_an_error(self):
        doc = b"<e:Envelope xmlns:e='u'><e:Body><e:Fault/></e:Body></e:Envelope>"
        with pytest.raises(SOAPError, match="faultcode"):
            SOAPFault.from_xml(doc)

    def test_malformed_prefix_raises(self):
        with pytest.raises(XMLSyntaxError):
            SOAPFault.from_xml(b"<e:Envelope xmlns:e='u'><e:Body><oops")

    def test_non_fault_check_never_scans_the_payload(self, scanner_events):
        """Single-digit scanner events, whatever the payload size."""
        events = scanner_events
        layout = envelope_layout("urn:x", "echoResponse")
        counts = []
        for n in (4, 16384):
            del events[:]
            doc = layout.prefix + b"<item>1.5</item>" * n + layout.suffix
            assert SOAPFault.from_xml(doc) is None
            counts.append(len(events))
        assert counts[0] == counts[1] < 10

    def test_raise(self):
        with pytest.raises(SOAPFaultError) as exc_info:
            SOAPFault.client("nope").raise_()
        assert exc_info.value.faultstring == "nope"

    def test_fault_xml_wellformed(self):
        parse_document(SOAPFault.server("x & y <").to_xml())


class TestRPC:
    def test_action_header(self):
        req = RPCRequest("http://h/soap", SOAPMessage("op", "urn:x", []))
        assert req.action_header() == '"urn:x#op"'
        req2 = RPCRequest("e", SOAPMessage("op", "urn:x", []), soap_action="urn:custom")
        assert req2.action_header() == '"urn:custom"'

    def test_response_message(self):
        resp = response_message("getData", "urn:x", "return", DOUBLE, 1.5)
        assert resp.operation == "getDataResponse"
        assert resp.param("return").value == 1.5

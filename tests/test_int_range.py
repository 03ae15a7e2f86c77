"""Integer ranges: ``xsd:int`` is 32-bit and ``xsd:long`` 64-bit at both ends.

* Receive side: an item or scalar outside its type's range is a
  :class:`LexicalError` in the parse, so the service answers a Client
  fault and never dispatches it (before, it reached the ``int64`` cast
  and came back as a Server fault, or was handed to the handler).
* Send side: an ``xsd:int`` outside 32 bits is refused at format time,
  so MAX stuffing's 11-character bound holds and a resend never
  expands (paper §4.4).
* The one batch formatter is the per-value formatter, across the
  small-int table's edges and both range ends.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.client import BSoapClient
from repro.core.policy import DiffPolicy, StuffingPolicy, StuffMode
from repro.core.stats import MatchKind
from repro.errors import LexicalError
from repro.lexical.cache import SMALL_INT_MAX, SMALL_INT_MIN
from repro.lexical.integers import INT32_MAX, INT32_MIN, format_int, format_int_array
from repro.schema.composite import ArrayType
from repro.schema.registry import TypeRegistry
from repro.schema.types import INT, LONG
from repro.server.service import Operation, SOAPService
from repro.soap.fault import SOAPFault
from repro.soap.message import Parameter, SOAPMessage
from repro.transport.loopback import CollectSink

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
MAX_STUFFED = DiffPolicy(stuffing=StuffingPolicy(StuffMode.MAX))

_ENVELOPE = (
    b'<?xml version="1.0" encoding="UTF-8"?><SOAP-ENV:Envelope'
    b' xmlns:SOAP-ENV="http://schemas.xmlsoap.org/soap/envelope/"'
    b' xmlns:SOAP-ENC="http://schemas.xmlsoap.org/soap/encoding/"'
    b' xmlns:xsd="http://www.w3.org/2001/XMLSchema"'
    b' xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xmlns:ns="urn:ints">'
    b"<SOAP-ENV:Body><ns:put>%s</ns:put></SOAP-ENV:Body></SOAP-ENV:Envelope>"
)


def _array(xsd: bytes, *items: int) -> bytes:
    body = b"".join(b"<item>%d</item>" % v for v in items)
    return (
        b'<a xsi:type="SOAP-ENC:Array" SOAP-ENC:arrayType="xsd:%s[%d]">%s</a>'
        % (xsd, len(items), body)
    )


def _scalar(xsd: bytes, value: int) -> bytes:
    return b'<a xsi:type="xsd:%s">%d</a>' % (xsd, value)


def _service(calls: list) -> SOAPService:
    service = SOAPService("urn:ints", TypeRegistry())
    service.register(Operation("put", lambda a: calls.append(a) or 0, result_type=INT))
    return service


# ----------------------------------------------------------------------
# receive side
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "param",
    [
        _array(b"long", 2**70, 7),
        _array(b"long", INT64_MAX + 1, 7),
        _array(b"int", INT64_MIN - 1, 1),
        _array(b"int", INT32_MAX + 1, 1),
        _scalar(b"long", 2**70),
        _scalar(b"int", INT32_MIN - 1),
    ],
    ids=["long-item-2**70", "long-item-max+1", "int-item-long-min-1",
         "int-item-max+1", "long-scalar-2**70", "int-scalar-min-1"],  # fmt: skip
)
def test_out_of_range_wire_integer_is_a_client_fault(param):
    calls: list = []
    fault = SOAPFault.from_xml(_service(calls).handle(_ENVELOPE % param))
    assert fault is not None and fault.faultcode.endswith("Client")
    assert "range" in fault.faultstring
    assert calls == []


def test_range_ends_are_accepted():
    calls: list = []
    service = _service(calls)
    for param in (
        _array(b"int", INT32_MIN, INT32_MAX),
        _array(b"long", INT64_MIN, INT64_MAX),
    ):
        assert SOAPFault.from_xml(service.handle(_ENVELOPE % param)) is None
    assert [c.tolist() for c in calls] == [[INT32_MIN, INT32_MAX], [INT64_MIN, INT64_MAX]]


# ----------------------------------------------------------------------
# send side
# ----------------------------------------------------------------------
def _int_message(values) -> SOAPMessage:
    return SOAPMessage("op", "urn:ints", [Parameter("a", ArrayType(INT), values)])


def test_first_send_refuses_an_int_past_32_bits():
    client = BSoapClient(CollectSink(), MAX_STUFFED)
    with pytest.raises(LexicalError, match="xsd:int"):
        client.send(_int_message([1, 2**40, -(2**63)]))
    with pytest.raises(LexicalError, match="xsd:int"):
        INT.format(INT32_MAX + 1)
    assert LONG.format(2**40) == b"1099511627776"


def test_max_stuffed_resend_never_expands():
    sink = CollectSink()
    client = BSoapClient(sink, MAX_STUFFED)
    values = np.array([1, -5, 300], dtype=np.int64)
    message = _int_message(values)
    client.send(message)
    assert client.stats.by_kind[MatchKind.FIRST_TIME] == 1
    values[1] = 2**40
    with pytest.raises(LexicalError):
        client.send(message)
    # The refused epoch rolled back: the next legal send resynchronizes
    # with a full serialization, byte-equal to a fresh client's.
    values[1] = INT32_MIN
    assert client.send(message).match_kind is MatchKind.FIRST_TIME
    fresh = CollectSink()
    BSoapClient(fresh, MAX_STUFFED).send(_int_message(values))
    assert sink.last == fresh.last


# ----------------------------------------------------------------------
# one batch formatter
# ----------------------------------------------------------------------
_EDGES = [
    SMALL_INT_MIN - 1, SMALL_INT_MIN, SMALL_INT_MAX - 1, SMALL_INT_MAX, 0,
    INT32_MIN - 1, INT32_MIN, INT32_MAX, INT32_MAX + 1, INT64_MIN, INT64_MAX,
]  # fmt: skip


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.sampled_from(_EDGES),
            st.integers(SMALL_INT_MIN - 8, SMALL_INT_MAX + 8),
            st.integers(INT64_MIN, INT64_MAX),
        ),
        max_size=40,
    ),
    st.sampled_from([32, 64]),
    st.booleans(),
)
def test_int_batch_is_the_per_value_form(values, bits, as_array):
    arg = np.array(values, dtype=np.int64) if as_array else values
    try:
        want = [format_int(v, bits) for v in values]
    except LexicalError:
        with pytest.raises(LexicalError):
            format_int_array(arg, bits)
        return
    got = format_int_array(arg, bits)
    assert got == want
    assert all(type(t) is bytes for t in got)

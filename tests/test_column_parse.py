"""Batch double text at both ends of a resend, against the per-value forms.

* :func:`~repro.lexical.floats.parse_double_column` — the one batch
  parser behind both decode lanes — accepts exactly what
  :func:`~repro.lexical.floats.parse_double` accepts outside the
  ``INF``/``NaN`` forms, bit for bit, and declines everything else.
* Through the seek table's vector lane it raises the same drift reason
  a per-row walk of the region finds, and through the full parse's
  leaf-run lane it decodes what the event path decodes.
* :func:`~repro.lexical.floats.format_double_array` emits
  :func:`~repro.lexical.floats.format_double`'s bytes per value.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.client import BSoapClient
from repro.core.policy import DiffPolicy, StuffingPolicy, StuffMode
from repro.errors import LexicalError
from repro.hardening.fuzz import parse_divergence
from repro.lexical.floats import (
    FloatFormat,
    format_double,
    format_double_array,
    parse_double,
    parse_double_column,
)
from repro.schema import DOUBLE, ArrayType, TypeRegistry
from repro.schema.skipscan import SeekTable, SkipScanFallback
from repro.server import parser as parser_module
from repro.server.parser import SOAPRequestParser
from repro.soap.message import Parameter, SOAPMessage
from repro.transport.loopback import CollectSink

PARSER = SOAPRequestParser(TypeRegistry())
_WS = " \t\r\n"

# ----------------------------------------------------------------------
# value texts: legal forms, near misses and bytes NumPy alone accepts
# ----------------------------------------------------------------------
_CORES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: "%.17g" % v),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: "%24.16e" % v),
    st.from_regex(r"[+-]?[0-9]{0,4}\.?[0-9]{0,4}([eE][+-]?[0-9]{1,4})?", fullmatch=True),
    st.sampled_from(
        ["INF", "-INF", "NaN", "1e400", "-0", "5e-324", "1_0", "1\x0b", "\x0b1",
         "1\x005", "1 5", "1\t5", "1e5e5", ".", "+", "e5", "--1", "1&2", "inf"]
    ),  # fmt: skip
    st.text(alphabet="+-.0123456789eE _\x00\x0b\t", max_size=6),
)
_BLANKS = st.text(alphabet=_WS, max_size=3)


@st.composite
def _texts(draw) -> bytes:
    return (draw(_BLANKS) + draw(_CORES) + draw(_BLANKS)).encode("latin-1")


def _scalar(text: bytes):
    """``parse_double``'s value, or ``None`` where the batch must decline."""
    if text.strip(_WS.encode()) in (b"INF", b"-INF", b"NaN"):
        return None
    try:
        return parse_double(text)
    except LexicalError:
        return None


def _expected(texts):
    values = [_scalar(t) for t in texts]
    if any(v is None for v in values):
        return None
    return np.array(values, dtype=np.float64)


def _same(got, want) -> bool:
    if want is None or got is None:
        return got is None and want is None
    return np.array_equal(got.view(np.uint64), want.view(np.uint64))


# ----------------------------------------------------------------------
# the column parser itself
# ----------------------------------------------------------------------
@settings(max_examples=400, deadline=None)
@given(st.lists(_texts(), max_size=12), st.data())
def test_column_equals_parse_double_or_declines(texts, data):
    # Values sit anywhere in one buffer, separated by non-value bytes.
    seps = [data.draw(st.sampled_from([b"", b"<", b"#x", b">  <"])) for _ in texts]
    buf, starts = b"<", []
    for text, sep in zip(texts, seps):
        starts.append(len(buf))
        buf += text + sep + b"<"
    got = parse_double_column(
        np.frombuffer(buf, dtype=np.uint8),
        np.array(starts, dtype=np.int64),
        np.array([len(t) for t in texts], dtype=np.int64),
    )
    assert _same(got, _expected(texts))


def test_numpy_only_forms_are_declined():
    # NumPy's cast takes all of these; parse_double takes none of them.
    for text in (b"1_0", b"1\x0b", b"\x0b1", b"1.5\x00", b"1\x0c"):
        with pytest.raises(LexicalError):
            parse_double(text)
        buf = np.frombuffer(text, dtype=np.uint8)
        assert parse_double_column(buf, np.array([0]), np.array([len(text)])) is None


# ----------------------------------------------------------------------
# the seek table's vector lane
# ----------------------------------------------------------------------
def _fixed_table():
    sink = CollectSink()
    policy = DiffPolicy(float_format=FloatFormat.FIXED, stuffing=StuffingPolicy(StuffMode.MAX))
    values = np.linspace(-3.0, 3.0, 12)
    BSoapClient(sink, policy).send(
        SOAPMessage("op", "urn:col", [Parameter("data", ArrayType(DOUBLE), values)])
    )
    table = SeekTable.compile(sink.last, PARSER.parse(sink.last))
    assert table.region_len is not None
    return table


TABLE = _fixed_table()
TAG = b"</item>"


def _walk_reason(rows):
    """The drift a per-row walk finds: any tag drift, else any pad drift."""
    width = len(rows[0])
    tag = pad = False
    for row in rows:
        lt = row.find(b"<")
        if lt < 0 or lt + len(TAG) > width or row[lt : lt + len(TAG)] != TAG:
            tag = True
        elif row[lt + len(TAG) :].strip(_WS.encode()):
            pad = True
    return "tag-drift" if tag else "pad-drift" if pad else None


@st.composite
def _regions(draw):
    width = TABLE.region_len
    text = draw(_texts()).replace(b"<", b"")
    row = text + TAG
    row += draw(st.text(alphabet=_WS, min_size=width, max_size=width)).encode()
    row = row[:width]
    drift = draw(st.sampled_from(["none"] * 6 + ["tag", "gt", "pad", "lt"]))
    cut = len(text)
    if drift == "tag" and cut + 2 < width:
        row = row[: cut + 2] + b"X" + row[cut + 3 :]
    elif drift == "gt" and cut + 6 < width:
        row = row[: cut + 6] + b" " + row[cut + 7 :]
    elif drift == "pad" and cut + len(TAG) < width:
        at = draw(st.integers(cut + len(TAG), width - 1))
        row = row[:at] + b"z" + row[at + 1 :]
    elif drift == "lt":
        row = row.replace(b"<", b" ")
    return row, text


@settings(max_examples=300, deadline=None)
@given(st.lists(_regions(), min_size=1, max_size=8))
def test_vector_lane_reason_and_values_match_the_walk(regions):
    rows = [r for r, _ in regions]
    mat = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(rows), -1)
    changed = np.arange(len(rows), dtype=np.int64)
    reason = _walk_reason(rows)
    if reason is not None:
        with pytest.raises(SkipScanFallback) as err:
            TABLE._apply_vectorized(mat, changed)
        assert err.value.reason == reason
        return
    want = _expected([t for _, t in regions])
    got = TABLE._apply_vectorized(mat, changed)
    if want is None:
        assert got is None
    else:
        assert got == len(rows)
        decoded = TABLE.result.message.value("data")[: len(rows)]
        assert _same(decoded.copy(), want)


# ----------------------------------------------------------------------
# the full parse's leaf-run lane
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(st.lists(_texts(), min_size=1, max_size=10), st.data())
def test_leaf_run_lane_equals_the_column_and_the_events(texts, data):
    texts = [t.replace(b"<", b"").replace(b"&", b"") for t in texts]
    pads = [data.draw(_BLANKS).encode() for _ in texts]
    body = b"".join(b"<v>" + t + b"</v>" + p for t, p in zip(texts, pads))
    wire = (
        b'<E:Envelope xmlns:E="urn:e"><E:Body><op><data arrayType="xsd:double[%d]">'
        b"%s</data></op></E:Body></E:Envelope>" % (len(texts), body)
    )
    assert parse_divergence(PARSER, wire) is None
    run = parser_module._scan_double_run(
        wire, wire.index(b"<v>"), b"data", len(texts), 1 << 10
    )
    assert _same(None if run is None else run.values, _expected(texts))


# ----------------------------------------------------------------------
# the formatter: one batch, the per-value bytes
# ----------------------------------------------------------------------
_EDGES = [
    -0.0, 0.0, 1.0, -7.0, 1e16, 1e-5, 5e-324, -2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 0.1 + 0.2, 123456789.0,
]  # fmt: skip
_SPECIAL = [math.nan, math.inf, -math.inf]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.one_of(st.floats(width=64), st.sampled_from(_EDGES + _SPECIAL)), max_size=40
    ),
    st.sampled_from(list(FloatFormat)),
    st.booleans(),
)
def test_batch_format_is_the_per_value_form(values, fmt, as_array):
    want = [format_double(v, fmt) for v in values]
    arg = np.array(values, dtype=np.float64) if as_array else values
    got = format_double_array(arg, fmt)
    assert got == want
    assert all(type(t) is bytes for t in got)


def test_minimal_batch_edges():
    values = np.array(_EDGES * 3)
    assert format_double_array(values) == [format_double(v) for v in values.tolist()]
    mixed = values.tolist() + _SPECIAL
    assert format_double_array(mixed) == [format_double(v) for v in mixed]
    assert format_double_array([]) == []

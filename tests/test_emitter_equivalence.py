"""The column emitters against a per-item reference emitter.

``build_template`` emits array items through two column emitters
(primitive and struct) whose field widths, batch boundaries and value
offsets are computed a column at a time.  The reference below is the
plain per-item loop those emitters replace: one ``width_for`` call,
one pad and one DUT row per value, and a batch flushed at the first
item whose running size reaches the chunk's soft limit.  Patched in as
the item emitters, it must give the same template bytes and the same
six DUT columns for every stuffing mode, float format and chunk size.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.buffers.config import ChunkPolicy
from repro.core import serializer
from repro.core.policy import DiffPolicy, StuffingPolicy, StuffMode
from repro.core.serializer import build_template
from repro.errors import SchemaError
from repro.lexical.floats import FloatFormat
from repro.schema.composite import ArrayType, Field, StructType
from repro.schema.mio import make_mio_array_type
from repro.schema.types import BOOLEAN, DOUBLE, INT, LONG, STRING
from repro.soap.message import Parameter, SOAPMessage

COLUMNS = ("chunk_id", "value_off", "ser_len", "field_width", "type_id", "close_len")


def _tag(name, close=False):
    return (b"</" if close else b"<") + name.encode("ascii") + b">"


def reference_items(buffer, dutb, texts, item_open, item_close, fields, stuffing):
    """Per-item emitter: *fields* is ``[(name, xsd_type), ...]`` per item."""
    limit = max(buffer.policy.soft_limit, 1)
    parts, rows, cursor = [], [], 0

    def flush():
        nonlocal parts, rows, cursor
        if parts:
            loc = buffer.append(b"".join(parts))
            for rel, n, width, tid, clen in rows:
                dutb.add(loc.cid, loc.offset + rel, n, width, tid, clen)
        parts, rows, cursor = [], [], 0

    arity = len(fields)
    for i in range(0, len(texts), arity):
        parts.append(item_open)
        cursor += len(item_open)
        for (name, xsd_type), text in zip(fields, texts[i : i + arity]):
            fo, fc = _tag(name), _tag(name, close=True)
            width = stuffing.width_for(xsd_type, len(text))
            parts += [fo, text, fc, b" " * (width - len(text))]
            rows.append((cursor + len(fo), len(text), width, xsd_type.type_id, len(fc)))
            cursor += len(fo) + width + len(fc)
        parts.append(item_close)
        cursor += len(item_close)
        if cursor >= limit:
            flush()
    flush()


def reference_primitive(buffer, dutb, texts, item_tag, xsd_type, stuffing):
    reference_items(buffer, dutb, texts, b"", b"", [(item_tag, xsd_type)], stuffing)


def reference_struct(buffer, dutb, texts, struct, item_tag, stuffing):
    fields = [(f.name, f.xsd_type) for f in struct.fields]
    item_open, item_close = _tag(item_tag), _tag(item_tag, close=True)
    reference_items(buffer, dutb, texts, item_open, item_close, fields, stuffing)


def build_reference(message, policy):
    with mock.patch.object(
        serializer, "emit_primitive_items", reference_primitive
    ), mock.patch.object(serializer, "emit_struct_items", reference_struct):
        return build_template(message, policy)


def assert_same(message, policy):
    got = build_template(message, policy)
    want = build_reference(message, policy)
    assert got.tobytes() == want.tobytes()
    for name in COLUMNS:
        a, b = getattr(got.dut, name), getattr(want.dut, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    got.validate()


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
REC = StructType("Rec", (Field("name", STRING), Field("n", LONG), Field("ok", BOOLEAN)))

doubles = st.floats(allow_nan=True, allow_infinity=True, width=64)
ints = st.integers(-(2**31), 2**31 - 1)
longs = st.integers(-(2**63), 2**63 - 1)
texts = st.text(st.characters(codec="utf-8"), max_size=12)
sizes = st.integers(0, 40)


def _array(xsd_type, values):
    return sizes.flatmap(lambda n: st.lists(values, min_size=n, max_size=n)).map(
        lambda vs: (ArrayType(xsd_type), vs)
    )


def _mio():
    def cols(n):
        return st.fixed_dictionaries(
            {
                "x": st.lists(ints, min_size=n, max_size=n),
                "y": st.lists(ints, min_size=n, max_size=n),
                "v": st.lists(doubles, min_size=n, max_size=n),
            }
        )

    return sizes.flatmap(cols).map(lambda c: (make_mio_array_type(), c))


def _rec():
    def cols(n):
        return st.fixed_dictionaries(
            {
                "name": st.lists(texts, min_size=n, max_size=n),
                "n": st.lists(longs, min_size=n, max_size=n),
                "ok": st.lists(st.booleans(), min_size=n, max_size=n),
            }
        )

    return sizes.flatmap(cols).map(lambda c: (ArrayType(REC, item_tag="rec"), c))


params = st.one_of(
    _array(DOUBLE, doubles),
    _array(INT, ints),
    _array(LONG, longs),
    _array(BOOLEAN, st.booleans()),
    _array(STRING, texts),
    _mio(),
    _rec(),
    doubles.map(lambda v: (DOUBLE, v)),
    ints.map(lambda v: (INT, v)),
)

fixed_widths = st.dictionaries(
    st.sampled_from(["double", "int", "long", "boolean", "string"]),
    st.integers(1, 30),
)
stuffings = st.one_of(
    st.just(StuffingPolicy()),
    st.just(StuffingPolicy(StuffMode.MAX)),
    fixed_widths.map(lambda w: StuffingPolicy(StuffMode.FIXED, w)),
)
chunks = st.integers(64, 128 * 1024).flatmap(
    lambda size: st.integers(0, min(512, size - 1)).map(
        lambda reserve: ChunkPolicy(chunk_size=size, reserve=reserve)
    )
)


def message(plist):
    return SOAPMessage(
        "op", "urn:test", [Parameter(f"p{i}", t, v) for i, (t, v) in enumerate(plist)]
    )


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    plist=st.lists(params, min_size=1, max_size=3),
    stuffing=stuffings,
    fmt=st.sampled_from(list(FloatFormat)),
    chunk=chunks,
)
def test_column_emitters_match_per_item_reference(plist, stuffing, fmt, chunk):
    policy = DiffPolicy(chunk=chunk, stuffing=stuffing, float_format=fmt)
    assert_same(message(plist), policy)


@pytest.mark.parametrize("mode", list(StuffMode))
@pytest.mark.parametrize("fmt", list(FloatFormat))
def test_batch_edges(mode, fmt):
    stuffing = StuffingPolicy(mode, {"double": 18, "int": 6})
    rng = np.random.default_rng(7)
    for chunk_size in (64, 97, 1024, 8192, 128 * 1024):
        policy = DiffPolicy(
            chunk=ChunkPolicy(chunk_size=chunk_size, reserve=chunk_size // 8),
            stuffing=stuffing,
            float_format=fmt,
        )
        for n in (0, 1, 2, 1100):
            values = rng.standard_normal(n) * 10.0 ** rng.integers(-5, 5, n)
            mio = {"x": rng.integers(-9, 9**9, n), "y": np.arange(n), "v": values}
            assert_same(
                message([(ArrayType(DOUBLE), values), (make_mio_array_type(), mio)]),
                policy,
            )


def test_value_wider_than_batch_limit():
    chunk = ChunkPolicy(chunk_size=64, reserve=8)
    strings = ["x" * 500, "y", "z" * 70]
    recs = {"name": strings, "n": [1, 2, 3], "ok": [True, False, True]}
    msg = message([(ArrayType(STRING), strings), (ArrayType(REC, "rec"), recs)])
    for mode in StuffMode:
        assert_same(msg, DiffPolicy(chunk=chunk, stuffing=StuffingPolicy(mode)))


@pytest.mark.parametrize(
    "ptype, value",
    [
        (ArrayType(DOUBLE), [1.5, 2.0]),
        (ArrayType(DOUBLE), []),
        (make_mio_array_type(), {"x": [1], "y": [2], "v": [3.0]}),
        (DOUBLE, 1.5),
    ],
)
def test_fixed_width_below_minimum_raises(ptype, value):
    policy = DiffPolicy(stuffing=StuffingPolicy(StuffMode.FIXED, {"double": 0}))
    with pytest.raises(SchemaError):
        build_template(message([(ptype, value)]), policy)

"""Hypothesis property suite for skip-scan deserialization.

The differential-testing contract: over the (template x dirty-mask x
value) space, at every match level, a skip-scan deserializer is
observationally equivalent to a full parse of the same bytes —
field-for-field equal decodes, and on injected skeleton drift the
fallback is byte-identical to what a fresh full parse sees (same
values or the same error class, and a template that matches the wire
bytes exactly).

The lockstep 200-call oracle drill lives in
``test_skipscan_oracle.py``; this module explores the space randomly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import doubles_of_width
from repro.core.client import BSoapClient
from repro.core.policy import DiffPolicy, StuffingPolicy, StuffMode
from repro.lexical.floats import FloatFormat
from repro.schema import DOUBLE, INT, STRING, ArrayType, MIO_TYPE, TypeRegistry
from repro.server.diffdeser import DeserKind, DifferentialDeserializer
from repro.server.parser import SOAPRequestParser
from repro.soap.message import Parameter, SOAPMessage
from repro.transport.loopback import CollectSink

LEVELS = ("content", "perfect-structural", "partial-structural", "first-time")

#: Mutation values spanning widths, signs, subnormal-ish magnitudes,
#: and the non-finite lexical specials (INF/NaN take the per-leaf
#: lane — their tokens fail the vector charset on purpose).
VALUE_POOL = [
    0.0,
    1.0,
    -2.5,
    0.125,
    1e50,
    -1e-50,
    9.75,
    3.0,
    float("inf"),
    float("-inf"),
    float("nan"),
]


def _registry() -> TypeRegistry:
    reg = TypeRegistry()
    reg.register_struct(MIO_TYPE)
    return reg


def _policy(level: str) -> DiffPolicy:
    if level == "partial-structural":
        return DiffPolicy(stuffing=StuffingPolicy(StuffMode.NONE))
    return DiffPolicy(
        float_format=FloatFormat.FIXED, stuffing=StuffingPolicy(StuffMode.MAX)
    )


def _extra_params(rng: np.random.Generator) -> list:
    """Fixed companion parameters, randomized per template."""
    params = []
    if rng.random() < 0.5:
        params.append(Parameter("tag", INT, int(rng.integers(-999, 999))))
    if rng.random() < 0.5:
        params.append(
            Parameter(
                "counts",
                ArrayType(INT),
                rng.integers(-50, 50, int(rng.integers(1, 5))),
            )
        )
    if rng.random() < 0.4:
        params.append(
            Parameter(
                "labels",
                ArrayType(STRING),
                ["s%02d" % rng.integers(0, 100) for _ in range(2)],
            )
        )
    if rng.random() < 0.3:
        k = int(rng.integers(1, 4))
        params.append(
            Parameter(
                "mesh",
                ArrayType(MIO_TYPE),
                {
                    "x": rng.integers(0, 100, k),
                    "y": rng.integers(0, 100, k),
                    "v": rng.random(k),
                },
            )
        )
    return params


def _sequence(level: str, rng: np.random.Generator, length: int):
    """Randomized same-structure mutation sequence at *level*
    (compact sibling of the one in ``test_oracle_wire.py``)."""
    op = "op%d" % rng.integers(0, 1000)
    n = int(rng.integers(3, 16))
    seed = int(rng.integers(1 << 30))
    extra = _extra_params(rng)

    def msg(values: np.ndarray) -> SOAPMessage:
        return SOAPMessage(
            op,
            "urn:skipprop",
            [Parameter("data", ArrayType(DOUBLE), values)] + extra,
        )

    if level == "content":
        values = doubles_of_width(n, 14, seed=seed)
        return [msg(values) for _ in range(length)]
    if level == "perfect-structural":
        current = doubles_of_width(n, 14, seed=seed).copy()
        out = [msg(current)]
        for _ in range(1, length):
            k = int(rng.integers(1, n + 1))
            idx = rng.choice(n, k, replace=False)
            current = current.copy()
            current[idx] = [
                VALUE_POOL[rng.integers(len(VALUE_POOL))] for _ in idx
            ]
            out.append(msg(current))
        return out
    if level == "partial-structural":
        current = doubles_of_width(n, 10, seed=seed).copy()
        out = []
        for i in range(length):
            if i > 0:
                idx = rng.choice(n, max(1, n // 3), replace=False)
                current = current.copy()
                current[idx] = doubles_of_width(
                    len(idx), 10 + 2 * i, seed=seed + i
                )
            out.append(msg(current))
        return out
    return [  # first-time: fresh structure every call
        msg(doubles_of_width(n + i, 14, seed=seed + i)) for i in range(length)
    ]


def _assert_decoded_equal(a, b) -> None:
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
                ), (p.name, key)
        elif isinstance(v, np.ndarray):
            assert np.array_equal(
                v, np.asarray(w), equal_nan=True
            ), (p.name, v, w)
        else:
            assert v == w, (p.name, v, w)


def _outcome(fn):
    try:
        return "ok", fn()
    except Exception as exc:  # classified below by taxonomy type
        return "err", type(exc).__name__


@given(
    level=st.sampled_from(LEVELS),
    seed=st.integers(0, 2**20),
    rounds=st.integers(2, 6),
)
@settings(max_examples=40, deadline=None)
def test_skipscan_equals_full_parse_across_levels(level, seed, rounds):
    """Skip-scan decode == fresh full-parse decode, wire for wire, at
    the match level the sequence was built to produce."""
    rng = np.random.default_rng(seed)
    sink = CollectSink()
    client = BSoapClient(sink, _policy(level))
    skip = DifferentialDeserializer(_registry())
    previous = None
    for message in _sequence(level, rng, rounds):
        client.send(message)
        wire = sink.last
        decoded, report = skip.deserialize(wire)
        reference = SOAPRequestParser(_registry()).parse(wire).message
        _assert_decoded_equal(decoded, reference)
        if previous is None or level in ("partial-structural", "first-time"):
            # First call, a growing unstuffed width or a new array
            # length: the wire length moved, nothing to match.
            expected = DeserKind.FULL
        elif wire == previous:
            # Always at the content level; at the structural level
            # when a mutation drew the values already there.
            expected = DeserKind.CONTENT_MATCH
        else:
            expected = DeserKind.DIFFERENTIAL
        assert report.kind is expected, (level, report.kind)
        assert level != "content" or previous in (None, wire)
        previous = wire


@given(
    seed=st.integers(0, 2**20),
    flips=st.lists(
        st.tuples(st.floats(0, 1), st.integers(0, 255)),
        min_size=1,
        max_size=4,
    ),
    shed=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_fallback_matches_full_parse_under_byte_flips(seed, flips, shed):
    """Flip arbitrary wire bytes (skeleton or value spans alike): the
    skip-scan deserializer's outcome — decode or error class — must
    equal a fresh full parse of the same bytes, and a surviving
    template must be byte-identical to the wire it claims to mirror.
    *shed*: the overload ladder took the seek table first."""
    rng = np.random.default_rng(seed)
    sink = CollectSink()
    client = BSoapClient(sink, _policy("perfect-structural"))
    messages = _sequence("perfect-structural", rng, 3)
    deser = DifferentialDeserializer(_registry())
    client.send(messages[0])
    deser.deserialize(sink.last)
    if shed:
        deser.drop_seek_table()
    client.send(messages[1])
    wire = sink.last

    bad = bytearray(wire)
    lo = wire.index(b":Body")  # keep the envelope prolog parsable
    for frac, byte in flips:
        pos = lo + int(frac * (len(bad) - lo - 1))
        bad[pos] = byte
    bad = bytes(bad)

    status, got = _outcome(lambda: deser.deserialize(bad)[0])
    ref_status, ref = _outcome(
        lambda: SOAPRequestParser(_registry()).parse(bad).message
    )
    assert status == ref_status, (status, got, ref_status, ref)
    if status == "ok":
        _assert_decoded_equal(got, ref)
        # Byte-identical fallback: whatever path accepted these bytes,
        # the stored template *is* these bytes.
        assert deser.store.entries[None].base == bad
    # Session is never poisoned: the next clean wire still decodes
    # exactly as a full parse would.
    client.send(messages[2])
    decoded, _ = deser.deserialize(sink.last)
    _assert_decoded_equal(
        decoded, SOAPRequestParser(_registry()).parse(sink.last).message
    )


@given(
    seed=st.integers(0, 2**20),
    payloads=st.lists(
        st.sampled_from(
            [b"1", b"-9.5", b"0.0", b"INF", b"NaN", b"zz", b"1e4", b"  ", b"+7"]
        ),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=40, deadline=None)
def test_value_span_rewrites_match_full_parse(seed, payloads):
    """Rewrite value spans directly — valid tokens, specials, garbage,
    pure whitespace — exercising the dirty-mask x value space without
    the client's serializer deciding what is representable."""
    rng = np.random.default_rng(seed)
    sink = CollectSink()
    client = BSoapClient(sink, _policy("perfect-structural"))
    client.send(_sequence("perfect-structural", rng, 1)[0])
    wire = sink.last
    deser = DifferentialDeserializer(_registry())
    deser.deserialize(wire)
    if not deser.has_seek_table:
        return  # nothing to probe for this draw
    table = deser.store.entries[None].table
    k = len(table.starts)
    bad = bytearray(wire)
    for i, payload in enumerate(payloads):
        j = int(rng.integers(k))
        s = int(table.starts[j])
        lt = wire.index(b"<", s, int(table.ends[j]))
        span = lt - s
        chunk = payload[:span].ljust(span, b" ")
        bad[s : s + span] = chunk
    bad = bytes(bad)

    status, got = _outcome(lambda: deser.deserialize(bad)[0])
    ref_status, ref = _outcome(
        lambda: SOAPRequestParser(_registry()).parse(bad).message
    )
    assert status == ref_status, (status, got, ref_status, ref)
    if status == "ok":
        _assert_decoded_equal(got, ref)


def test_property_suite_exercises_the_fast_lane():
    """Meta-guard: the structural level really does produce skip-scan
    hits (so the equivalence properties are not vacuous)."""
    rng = np.random.default_rng(7)
    sink = CollectSink()
    client = BSoapClient(sink, _policy("perfect-structural"))
    deser = DifferentialDeserializer(_registry())
    hits = 0
    for _ in range(10):
        for message in _sequence("perfect-structural", rng, 4):
            client.send(message)
            _, report = deser.deserialize(sink.last)
            hits += report.kind is DeserKind.DIFFERENTIAL
    assert hits > 0
    stats = deser.skipscan_stats
    assert stats.get("hit", 0) + stats.get("hit-vector", 0) == hits

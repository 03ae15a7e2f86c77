"""Small frames and large frames: two lanes, one answer.

A frame of fewer than :data:`~repro.wire.frame.SMALL_FRAME` directory
entries is harvested by its sender entry by entry, its dirty values are
rewritten cell by cell, and its receiver reads it with ``struct`` and
checks it against the seek table entry by entry; a larger one takes the
NumPy lane at every one of those steps.  Pinned here, for every frame
the fuzz corpus makes and for random directories just below, at and
above the threshold:

* decode — both lanes give the same :class:`~repro.wire.frame.DeltaFrame`
  (every field, dtype and value bit for bit, ``CANONICAL_NAN`` included)
  or the same :class:`~repro.errors.DeltaFrameError` reason and message;
* the seek table — both lanes name the same leaves for a frame's typed
  splices, or both refuse, and the commit stores the same bits;
* encode — two senders fed the same values, one per lane, send
  byte-identical frames (the header's template id aside) and keep
  byte-identical documents.
"""

from __future__ import annotations

import dataclasses
import random
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.client import BSoapClient
from repro.core.policy import DeltaPolicy, DiffPolicy, StuffingPolicy, StuffMode
from repro.errors import DeltaFrameError, ReproError
from repro.hardening.fuzz import DeltaFrameFuzzer, load_corpus
from repro.hardening.limits import DEFAULT_LIMITS
from repro.lexical.floats import FloatFormat
from repro.schema.composite import ArrayType
from repro.schema.types import DOUBLE, INT
from repro.server.diffdeser import DifferentialDeserializer
from repro.soap.message import Parameter, SOAPMessage
from repro.transport.loopback import LatestSink
from repro.wire import frame as wire_frame
from repro.wire.frame import INSERT_FLAG, DeltaFrame, encode_frame, forced_lane

K = wire_frame.SMALL_FRAME
NS = "urn:lanes"
CORPUS = load_corpus(Path(__file__).parent / "golden")
LANES = ("small", "large")
#: Bit patterns the lanes must carry alike: signed zeros, infinities,
#: NaNs of every sign and payload, subnormals, the extremes.
SPECIAL_BITS = (
    0x0000000000000000, 0x8000000000000000, 0x7FF0000000000000,
    0xFFF0000000000000, 0x7FF8000000000000, 0x7FF0000000000001,
    0xFFF8000000000000, 0x7FF4000000000000, 0x0000000000000001,
    0x800FFFFFFFFFFFFF, 0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF,
)


def _outcome(fn):
    try:
        return fn()
    except DeltaFrameError as exc:
        return ("DeltaFrameError", exc.reason, str(exc))


def _assert_same_frame(small, large) -> None:
    if not isinstance(small, DeltaFrame) or not isinstance(large, DeltaFrame):
        assert small == large
        return
    for field in dataclasses.fields(DeltaFrame):
        a, b = getattr(small, field.name), getattr(large, field.name)
        if isinstance(a, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), field.name
            assert a.tobytes() == b.tobytes(), field.name
        elif isinstance(a, memoryview):
            assert bytes(a) == bytes(b), field.name
        else:
            assert (type(a), a) == (type(b), b), field.name


def _decode_lanes(data: bytes):
    """``(small, large)``: :func:`decode_frame`'s outcome on *data* with
    every directory sent through each lane."""
    outcomes = []
    for lane in LANES:
        with forced_lane(lane):
            outcomes.append(_outcome(lambda: wire_frame.decode_frame(data)))
    return tuple(outcomes)


def _decode(body: bytes):
    """A fresh decode of *body*: ``(deserializer, entry)``, or ``None``
    when the default registry cannot decode it."""
    deser = DifferentialDeserializer()
    try:
        deser.deserialize(deser.store.store(1, 1, body))
    except ReproError:
        return None
    return deser, deser.store.entries[1]


def _values(deser) -> list:
    message = deser.store.entries[1].result.message
    return [np.atleast_1d(np.asarray(p.value)).tobytes() for p in message.params]


def _assert_same_table_answer(body: bytes, frame: DeltaFrame) -> None:
    """Both seek-table lanes name the same leaves for *frame*'s typed
    splices (or both refuse), and commit the same bits."""
    offsets, values = frame.typed_offsets, frame.typed_values
    if not offsets.size:
        return
    commits = []
    for lane in LANES:
        decode = _decode(body)
        if decode is None or decode[1].table is None:
            return
        deser, entry = decode
        table = entry.table
        with forced_lane(lane):
            leaves = table.typed_leaves(offsets, values)
            if leaves is not None:
                table.commit_doubles(leaves, values)
        commits.append((None if leaves is None else (leaves.dtype, leaves.tolist()), _values(deser)))
    assert commits[0] == commits[1]


# ----------------------------------------------------------------------
# decode: every fuzz mutator's frames
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mutator", DeltaFrameFuzzer.MUTATORS)
def test_every_fuzz_mutator_decodes_alike_in_both_lanes(mutator, rng_seed):
    fuzzer = DeltaFrameFuzzer()
    rng = random.Random(rng_seed)
    decoded = 0
    for case in range(24):
        body = CORPUS[case % len(CORPUS)]
        ctx = {"template_id": 1, "epoch": 1, "seq": 1, "body": body}
        data = getattr(fuzzer, "_" + mutator)(
            rng, fuzzer.valid_frame(rng, 1, 1, 1, body), ctx
        )
        lanes = _decode_lanes(data)
        _assert_same_frame(*lanes)
        if isinstance(lanes[0], DeltaFrame) and lanes[0].splice_count:
            decoded += 1
            _assert_same_table_answer(body, lanes[0])
    if mutator in ("identity", "region_splices", "typed_values", "many_entries"):
        assert decoded, f"{mutator} never reached a lane"


def test_the_many_entry_mutator_reaches_the_vector_lane(rng_seed):
    fuzzer = DeltaFrameFuzzer()
    rng = random.Random(rng_seed)
    counts = []
    for body in CORPUS:
        ctx = {"template_id": 1, "epoch": 1, "seq": 1, "body": body}
        data = fuzzer._many_entries(rng, b"", ctx)
        if data:
            frame = wire_frame.decode_frame(data)
            counts.append(frame.splice_count)
            decode = _decode(body)
            if decode is None:
                continue
            deser = decode[0]
            before = _values(deser)
            deser.deserialize(deser.store.apply(data, DEFAULT_LIMITS))
            assert _values(deser) == before
    assert counts and max(counts) > K


# ----------------------------------------------------------------------
# decode: random directories around the threshold
# ----------------------------------------------------------------------
def _directories(draw):
    """One frame of K-1, K or K+1 directory entries — byte splices, typed
    splices and pad insertions — well formed or with one lie: an
    offset, a width, the payload's length or the document's."""
    n = draw(st.sampled_from((K - 1, K, K + 1)))
    kinds = draw(st.lists(st.sampled_from("btti"), min_size=n, max_size=n))
    offsets, widths, payload, values = [], [], [], []
    at = draw(st.integers(0, 64))
    for kind in kinds:
        at += draw(st.integers(0, 8))
        offsets.append(at)
        if kind == "b":
            width = draw(st.integers(1, 12))
            widths.append(width)
            payload.append(bytes(range(width)))
        elif kind == "t":
            width = 0
            widths.append(0)
            values.append(draw(st.sampled_from(SPECIAL_BITS) | st.integers(0, (1 << 64) - 1)))
        else:
            width = draw(st.integers(1, 9))
            widths.append(INSERT_FLAG | width)
        at += width or 1
    doc_len = at + draw(st.integers(0, 16))
    data = b"".join(payload) + b"".join(struct.pack("<Q", v) for v in values)
    lie = draw(st.sampled_from(("none", "none", "none", "offset", "width", "payload", "doc_len")))
    i = draw(st.integers(0, n - 1))
    if lie == "offset":
        offsets[i] = draw(st.sampled_from(
            (0, offsets[i - 1], doc_len, doc_len - 1, 1 << 63, (1 << 64) - 1)
        ))
    elif lie == "width":
        widths[i] = draw(st.sampled_from((0, 1, 40, INSERT_FLAG, INSERT_FLAG | 500)))
    elif lie == "payload":
        data = data[:-1] if data and draw(st.booleans()) else data + b"\x00" * draw(st.integers(1, 9))
    elif lie == "doc_len":
        doc_len = draw(st.integers(0, doc_len))
    return doc_len, offsets, widths, data


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_random_directories_decode_alike_in_both_lanes(data):
    doc_len, offsets, widths, payload = _directories(data.draw)
    _assert_same_frame(*_decode_lanes(
        encode_frame(7, 3, 2, doc_len, offsets, widths, payload)
    ))


# ----------------------------------------------------------------------
# the seek table: typed splices around the threshold
# ----------------------------------------------------------------------
def _body(message, stuffing=StuffMode.MAX) -> bytes:
    sink = LatestSink()
    BSoapClient(sink, DiffPolicy(stuffing=StuffingPolicy(stuffing))).send(message)
    return sink.last


_rng = np.random.default_rng(41)
#: A MAX-stuffed array alone in its message (every region holds any
#: double, leaves a stride apart), an unstuffed one (narrow regions of
#: several widths), and doubles among ints (no commit map).
TABLE_BODIES = {
    "stuffed": _body(SOAPMessage(
        "a", NS, [Parameter("data", ArrayType(DOUBLE), _rng.standard_normal(3 * K + 3))]
    )),
    "unstuffed": _body(SOAPMessage(
        "u", NS, [Parameter("data", ArrayType(DOUBLE), np.round(_rng.standard_normal(3 * K + 3), 3))]
    ), StuffMode.NONE),
    "mixed": _body(SOAPMessage(
        "m", NS,
        [Parameter(f"p{i}", INT if i % 3 == 0 else DOUBLE, i if i % 3 == 0 else i / 7)
         for i in range(3 * K + 3)],
    ), StuffMode.NONE),
}


@pytest.mark.parametrize("shape", sorted(TABLE_BODIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_typed_splices_get_one_answer_from_both_table_lanes(shape, data):
    body = TABLE_BODIES[shape]
    _deser, entry = _decode(body)
    table = entry.table
    k = int(table.starts.shape[0])
    doubles = [j for j in range(k) if table.result.leaf_type(j) is DOUBLE]
    n = data.draw(st.sampled_from((K - 1, K, K + 1)))
    leaves = data.draw(st.lists(st.sampled_from(doubles), min_size=n, max_size=n, unique=True))
    if data.draw(st.integers(0, 5)) == 0:
        # One leaf of another type.
        leaves[0] = data.draw(st.integers(0, k - 1))
    offsets = np.unique(table.starts[leaves])
    if data.draw(st.integers(0, 3)) == 0:
        # One offset off its region's start.
        i = data.draw(st.integers(0, offsets.size - 1))
        offsets[i] += data.draw(st.sampled_from((1, -1, 2)))
        offsets.sort()
    n = offsets.size
    short = st.sampled_from((0.0, 1.0, 5.0, 7.0)).map(
        lambda v: struct.unpack("<Q", struct.pack("<d", v))[0]
    )
    # Short texts fit every region; the others may not fit a narrow one.
    anything = (
        short
        | st.sampled_from((-0.0, 1.5, -2.25, 1e-3)).map(
            lambda v: struct.unpack("<Q", struct.pack("<d", v))[0]
        )
        | st.sampled_from(SPECIAL_BITS)
        | st.integers(0, (1 << 64) - 1)
    )
    bits = data.draw(st.lists(
        data.draw(st.sampled_from((short, anything))), min_size=n, max_size=n
    ))
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    frame = _outcome(lambda: wire_frame.decode_frame(encode_frame(
        1, 1, 1, len(body), offsets.tolist(), [0] * n, values.astype("<f8").tobytes()
    )))
    if isinstance(frame, DeltaFrame):
        _assert_same_table_answer(body, frame)


# ----------------------------------------------------------------------
# encode: both sender lanes send the same frames
# ----------------------------------------------------------------------
def _sender(stuffing: StuffMode):
    sink = LatestSink()
    client = BSoapClient(sink, DiffPolicy(
        float_format=FloatFormat.MINIMAL,
        stuffing=StuffingPolicy(stuffing),
        delta=DeltaPolicy(offer=True),
    ))
    client.wire.negotiated = True
    return client, sink


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_both_sender_lanes_send_byte_identical_frames(data):
    """Doubles (typed splices) beside ints (byte splices), stuffed or
    not (a value outgrowing its field is a pad insertion); dirty sets of
    K-1, K and K+1 entries, sent through each lane by its own client."""
    stuffing = data.draw(st.sampled_from((StuffMode.MAX, StuffMode.NONE)))
    size = 3 * K
    doubles = np.round(np.linspace(1.0, 9.0, size), 2)
    ints = np.arange(size, dtype=np.int32)

    def message():
        return SOAPMessage("e", NS, [
            Parameter("d", ArrayType(DOUBLE), doubles.copy()),
            Parameter("i", ArrayType(INT), ints.copy()),
        ])

    senders = {lane: _sender(stuffing) for lane in LANES}
    for _send in range(3):
        n = data.draw(st.sampled_from((K - 1, K, K + 1)))
        picks = data.draw(st.lists(st.integers(0, 2 * size - 1), min_size=n, max_size=n, unique=True))
        for p in picks:
            if p < size:
                doubles[p] = data.draw(st.sampled_from((0.5, -3.25, 1e-300, 123456.789, float("inf"))))
            else:
                ints[p - size] = data.draw(st.integers(-(1 << 31), (1 << 31) - 1))
        sent = {}
        for lane, (client, sink) in senders.items():
            with forced_lane(lane):
                report = client.send(message())
            sent[lane] = (report.delta, sink.last)
        (small_delta, small), (large_delta, large) = sent["small"], sent["large"]
        assert small_delta == large_delta
        assert small[:4] + small[12:] == large[:4] + large[12:]
    documents = [
        client.prepare(message()).template.tobytes() for client, _sink in senders.values()
    ]
    assert documents[0] == documents[1]

"""Row-window splice movement at both ends of an RDF2 frame.

The encoder gathers a frame whose byte-splice regions share one width
(a MINIMAL sender's doubles are typed splices, so the window cases use
FIXED-format doubles and ints), dense enough
to average ``SCATTER_MIN`` per chunk run, with one index of a
:func:`~repro.buffers.iovec.row_window` view per run, and slices any
other frame region by region; :func:`~repro.wire.frame.apply_frame`
scatters same-width splices through the mirror's window.  Either choice
may only change how fast the bytes move.  Every frame checked here is
compared with a per-entry reference harvest that lives only in this
file (pad insertions of widened fields included), and every patched
mirror with slice-by-slice assignment.
"""

from __future__ import annotations

import contextlib
import struct
import zlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffers.config import ChunkPolicy
from repro.buffers.iovec import row_window
from repro.core.client import BSoapClient
from repro.core.policy import DeltaPolicy, DiffPolicy, StuffingPolicy, StuffMode
from repro.lexical.floats import FloatFormat
from repro.runtime.sessions import ServerSession
from repro.schema.composite import ArrayType
from repro.schema.mio import make_mio_array_type
from repro.schema.types import DOUBLE
from repro.soap.message import Parameter, SOAPMessage
from repro.wire import client as wire_client
from repro.wire.frame import (
    DIR_ENTRY,
    HEADER,
    INSERT_FLAG,
    MAGIC,
    SCATTER_MIN,
    apply_frame,
    decode_frame,
    encode_frame,
)
from repro.wire.loopback import DeltaLoopback

DOUBLES = [0.5, 1.0, 2.25, -3.0, 0.1, 1e-300, -1.2345678901234567e300, 7.0, 42.125]
INTS = [0, 1, -7, 42, 13902, -(2**31), 2**31 - 1]
STUFFINGS = [
    StuffingPolicy(StuffMode.MAX),
    StuffingPolicy(StuffMode.FIXED, {"double": 18, "int": 6}),
    StuffingPolicy(StuffMode.NONE),
]


def _policy(stuffing, fmt, chunk_size, reserve, max_frame_fraction=0.5):
    return DiffPolicy(
        chunk=ChunkPolicy(chunk_size=chunk_size, reserve=reserve),
        stuffing=stuffing,
        float_format=fmt,
        delta=DeltaPolicy(offer=True, max_frame_fraction=max_frame_fraction),
    )


def _doubles(values):
    return SOAPMessage(
        "op", "urn:test", [Parameter("a", ArrayType(DOUBLE), np.asarray(values, float))]
    )


def _mio(cols):
    return SOAPMessage(
        "op", "urn:test", [Parameter("m", make_mio_array_type(), cols)]
    )


# ----------------------------------------------------------------------
# the reference harvest
# ----------------------------------------------------------------------
def _reference_frame(template, snapshot, baseline, typed, rewrite):
    """The frame a per-entry harvest of *snapshot* builds, and how many
    of its regions end on the last byte of their chunk's storage.

    With *typed* (a MINIMAL sender) every dirty double is a typed
    splice whose value is the one its tracked column holds (the
    sender leaves that double's text stale).  Each field *rewrite*
    widened leads the directory as a pad insertion: its growth, at the
    end of its old region in the new document."""
    buffer, dut = template.buffer, template.dut
    starts, pos = {}, 0
    for cid in buffer.chunk_ids:
        starts[cid] = pos
        pos += buffer.chunk(cid).used
    inserts = []
    for entries, growth in rewrite.grown:
        for entry, grew in zip(entries.tolist(), growth.tolist()):
            end = int(dut.value_off[entry]) + int(dut.field_width[entry])
            end += int(dut.close_len[entry]) + starts[int(dut.chunk_id[entry])]
            inserts.append(DIR_ENTRY.pack(end - grew, INSERT_FLAG | grew))
    splices = []
    values = []
    edges = 0
    for entry in np.flatnonzero(snapshot).tolist():
        chunk = buffer.chunk(int(dut.chunk_id[entry]))
        off = int(dut.value_off[entry])
        at = starts[chunk.cid] + off
        if typed and int(dut.type_id[entry]) == DOUBLE.type_id:
            bp = template.param_for_entry(entry)
            value = bp.tracked.doubles_for(np.asarray([entry - bp.entry_base]))[0]
            splices.append([at, None])
            values.append(struct.pack("<d", value))
            continue
        end = off + int(dut.field_width[entry]) + int(dut.close_len[entry])
        edges += end == len(chunk.data)
        last = splices[-1] if splices else None
        if last is not None and last[1] is not None and last[0] + len(last[1]) == at:
            last[1] += chunk.data[off:end]
        else:
            splices.append([at, bytearray(chunk.data[off:end])])
    directory = b"".join(inserts) + b"".join(
        DIR_ENTRY.pack(at, 0 if region is None else len(region))
        for at, region in splices
    )
    payload = b"".join(region for _, region in splices if region is not None)
    payload += b"".join(values)
    head = HEADER.pack(
        MAGIC,
        template.template_id,
        baseline.epoch,
        baseline.seq + 1,
        pos,
        len(inserts) + len(splices),
        zlib.crc32(directory + payload),
    )
    return head + directory + payload, edges


@contextlib.contextmanager
def checked_harvest():
    """Assert every frame any encoder emits equals the reference; yield
    the list of ``(row-window gathers, chunk-edge regions)`` per frame."""
    frames = []
    windows = []
    real_encode = wire_client.DeltaEncoder.try_encode
    real_window = wire_client.row_window

    def encode(self, template, snapshot, rewrite):
        baseline = self._baselines.get(template.template_id)
        if baseline is not None:
            expected, edges = _reference_frame(
                template, snapshot, baseline, self.typed, rewrite
            )
        windows.clear()
        frame = real_encode(self, template, snapshot, rewrite)
        if frame is not None:
            assert frame == expected
            frames.append((len(windows), edges))
        return frame

    def window(buf, width):
        windows.append(width)
        return real_window(buf, width)

    wire_client.DeltaEncoder.try_encode = encode
    wire_client.row_window = window
    try:
        yield frames
    finally:
        wire_client.DeltaEncoder.try_encode = real_encode
        wire_client.row_window = real_window


def _drive_requests(policy, first, sends):
    """Send *first*, then each message of *sends*, through a negotiated
    loopback; every delivered document must be the client's."""
    loop = DeltaLoopback()
    client = BSoapClient(loop, policy)
    client.wire.negotiated = True
    call = client.prepare(first)
    call.send()
    for mutate in sends:
        mutate(call)
        call.send()
        assert loop.last_document == call.template.tobytes()


# ----------------------------------------------------------------------
# harvest ≡ reference
# ----------------------------------------------------------------------
def _random_sends(data, n, fields):
    """One to four sends, each with a random dirty mask per field of
    *fields* (name -> value strategy); several fields dirty together
    mix region widths in every chunk run."""
    masks = st.lists(st.booleans(), min_size=n, max_size=n)

    def mutation():
        picks = [
            (f, np.flatnonzero(data.draw(masks)), data.draw(values))
            for f, values in fields.items()
        ]

        def mutate(call):
            for f, idx, values in picks:
                if f == "a":
                    call.tracked("a").update(idx, np.asarray(values)[idx])
                else:
                    call.tracked("m").set_items(idx, f, [values[i] for i in idx])

        return mutate

    return [mutation() for _ in range(data.draw(st.integers(1, 4), label="sends"))]


# No frame-size cap in the property tests: dense masks frame too.
@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    stuffing=st.sampled_from(STUFFINGS),
    fmt=st.sampled_from([FloatFormat.MINIMAL, FloatFormat.FIXED]),
    struct=st.booleans(),
    chunk_size=st.sampled_from([96, 256, 2048]),
    reserve=st.sampled_from([0, 16]),
)
def test_request_harvest_matches_reference(
    data, stuffing, fmt, struct, chunk_size, reserve
):
    # Small chunks: many chunk runs of a few regions each.
    n = data.draw(st.integers(4, 160), label="n")
    doubles = st.lists(st.sampled_from(DOUBLES), min_size=n, max_size=n)
    ints = st.lists(st.sampled_from(INTS), min_size=n, max_size=n)
    if struct:
        first = _mio({"x": data.draw(ints), "y": data.draw(ints), "v": data.draw(doubles)})
        sends = _random_sends(data, n, {"x": ints, "v": doubles})
    else:
        first = _doubles(data.draw(doubles))
        sends = _random_sends(data, n, {"a": doubles})
    policy = _policy(stuffing, fmt, chunk_size, reserve, max_frame_fraction=1.0)
    with checked_harvest():
        _drive_requests(policy, first, sends)


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    stuffing=st.sampled_from(STUFFINGS),
    chunk_size=st.sampled_from([1024, 2048]),
    reserve=st.sampled_from([0, 16]),
)
def test_windowed_harvest_matches_reference(data, stuffing, chunk_size, reserve):
    # Double arrays over chunks of 27-55 items: a MAX-stuffed (or
    # FIXED-format, FIXED-stuffed) array under a dense mask takes the
    # window in every chunk run, a chunk edge included.
    n = data.draw(st.integers(64, 400), label="n")
    doubles = st.lists(st.sampled_from(DOUBLES), min_size=n, max_size=n)
    first = _doubles(data.draw(doubles))
    sends = _random_sends(data, n, {"a": doubles})
    policy = _policy(stuffing, FloatFormat.FIXED, chunk_size, reserve, max_frame_fraction=1.0)
    with checked_harvest():
        _drive_requests(policy, first, sends)


def test_stuffed_doubles_gather_dense_runs_up_to_the_chunk_edge():
    # reserve=0: every batch of items fills its chunk exactly, so the
    # last item's region ends on the storage's last byte (the window's
    # last row).  ~110 items per 4 KiB chunk: 1 % dirty averages under
    # SCATTER_MIN per chunk run and slices; 20 % and 40 % gather.
    # FIXED format: a MINIMAL sender's doubles are typed splices.
    n = 4000
    policy = _policy(StuffingPolicy(StuffMode.MAX), FloatFormat.FIXED, 4096, 0)
    rng = np.random.default_rng(4)

    def dirty(fraction):
        def mutate(call):
            idx = np.flatnonzero(rng.random(n) < fraction)
            call.tracked("a").update(idx, rng.random(idx.size))

        return mutate

    def every(call):
        call.tracked("a").update(np.arange(n), rng.random(n))

    with checked_harvest() as frames:
        _drive_requests(
            policy, _doubles(np.full(n, 0.5)), [dirty(0.01), dirty(0.2), dirty(0.4), every]
        )
    # The all-dirty send is too large to frame.
    (sparse, _), (dense, edges), (denser, more_edges) = frames
    assert sparse == 0
    assert dense > SCATTER_MIN and denser > SCATTER_MIN  # one per chunk run
    assert edges > 0 and more_edges > 0


def test_mixed_width_struct_runs_take_the_slice_loop():
    # x (an int field) and v (a double) of every other item dirty
    # together: ~24 regions per chunk run, but two region widths, so
    # nothing goes through the window (FIXED: v is a byte splice too).
    n = 400
    policy = _policy(StuffingPolicy(StuffMode.MAX), FloatFormat.FIXED, 2048, 16)
    rng = np.random.default_rng(9)
    cols = {"x": list(range(n)), "y": list(range(n)), "v": [0.5] * n}

    def mutate(call):
        idx = np.arange(0, n, 2)
        call.tracked("m").set_items(idx, "x", rng.integers(0, 1000, idx.size))
        call.tracked("m").set_items(idx, "v", rng.random(idx.size))

    with checked_harvest() as frames:
        _drive_requests(policy, _mio(cols), [mutate, mutate])
    assert [windows for windows, _ in frames] == [0, 0]


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    stuffing=st.sampled_from(STUFFINGS),
    fmt=st.sampled_from([FloatFormat.MINIMAL, FloatFormat.FIXED]),
    chunk_size=st.sampled_from([96, 2048]),
)
def test_reply_harvest_matches_reference(data, stuffing, fmt, chunk_size):
    # The session responder harvests replies with the same encoder.
    n = data.draw(st.integers(4, 120), label="n")
    policy = _policy(stuffing, fmt, chunk_size, 0, max_frame_fraction=1.0)
    session = ServerSession("peer", None, policy)
    session.responder.wire.negotiated = True
    values = np.asarray(
        data.draw(st.lists(st.sampled_from(DOUBLES), min_size=n, max_size=n))
    )
    with checked_harvest() as frames:
        for _ in range(data.draw(st.integers(2, 5), label="replies")):
            session.responder.send(_doubles(values))
            mask = np.asarray(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
            pool = data.draw(st.lists(st.sampled_from(DOUBLES), min_size=n, max_size=n))
            values = np.where(mask, pool, values)
    assert len(frames) == session.responder.wire.frames_sent


def test_dense_replies_gather_through_the_window():
    n = 2000
    policy = _policy(StuffingPolicy(StuffMode.MAX), FloatFormat.FIXED, 2048, 0)
    session = ServerSession("peer", None, policy)
    session.responder.wire.negotiated = True
    rng = np.random.default_rng(2)
    values = np.full(n, 0.5)
    with checked_harvest() as frames:
        for _ in range(4):
            session.responder.send(_doubles(values))
            values = values.copy()
            values[rng.random(n) < 0.4] = rng.random()
    assert len(frames) == session.responder.wire.frames_sent == 3
    assert all(windows > SCATTER_MIN for windows, _ in frames)


# ----------------------------------------------------------------------
# window apply ≡ slice loop
# ----------------------------------------------------------------------
def _apply_both(document, offsets, widths, payload):
    frame = decode_frame(
        encode_frame(1, 1, 1, len(document), offsets, widths, payload)
    )
    mirror = bytearray(document)
    apply_frame(frame, mirror)
    expected = bytearray(document)
    pos = 0
    for off, width in zip(offsets, widths):
        expected[off : off + width] = payload[pos : pos + width]
        pos += width
    return mirror, expected


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    count=st.integers(1, 3 * SCATTER_MIN),
    kind=st.sampled_from(["same", "width-1", "mixed"]),
    tail=st.sampled_from([0, 0, 1, 9]),
)
def test_window_apply_matches_slice_loop(data, count, kind, tail):
    if kind == "mixed":
        widths = data.draw(st.lists(st.integers(1, 40), min_size=count, max_size=count))
    else:
        width = 1 if kind == "width-1" else data.draw(st.integers(2, 40))
        widths = [width] * count
    gaps = data.draw(st.lists(st.integers(0, 12), min_size=count, max_size=count))
    offsets, pos = [], 0
    for gap, width in zip(gaps, widths):
        offsets.append(pos + gap)
        pos += gap + width
    # tail == 0: the last splice ends exactly at doc_len.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    document = rng.integers(0, 256, pos + tail, dtype=np.uint8).tobytes()
    payload = rng.integers(0, 256, sum(widths), dtype=np.uint8).tobytes()
    mirror, expected = _apply_both(document, offsets, widths, payload)
    assert mirror == expected


def test_window_apply_reaches_the_last_byte():
    # Same-width splices, enough to take the window, the last of them
    # ending on the mirror's last byte (the window's last row).
    for width in (1, 31):
        count = SCATTER_MIN + 3
        offsets = [i * (width + 2) + 2 for i in range(count)]
        doc_len = offsets[-1] + width
        payload = bytes(range(65, 65 + count)) * width
        mirror, expected = _apply_both(b"." * doc_len, offsets, [width] * count, payload)
        assert mirror == expected
        assert mirror[-width:] == payload[-width:]


def test_row_window_rows_alias_the_buffer():
    buf = bytearray(b"abcdefgh")
    window = row_window(buf, 3)
    assert window.shape == (6, 3)
    assert window[np.array([0, 5])].tobytes() == b"abcfgh"
    window[np.array([1])] = np.frombuffer(b"XYZ", dtype=np.uint8)
    assert buf == bytearray(b"aXYZefgh")
    assert row_window(b"ab", 3).shape == (0, 3)

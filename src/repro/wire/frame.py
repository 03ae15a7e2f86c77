"""Binary delta-frame codec for repro↔repro traffic.

One frame carries the byte-level difference between two consecutive
stuffed documents of the same template — the splices the client's DUT
dirty set identifies — so a steady-state resend ships kilobytes of
patch instead of megabytes of XML.

Layout (all integers little-endian)::

    magic        4s   b"RDF2"  (Repro Delta Frame, version 2)
    template_id  u64  client-side MessageTemplate identity
    epoch        u32  baseline epoch (bumped per full-XML announce)
    seq          u32  frame sequence within the epoch (1-based)
    doc_len      u64  length of the reconstructed document
    splice_count u32
    crc32        u32  zlib.crc32 over directory + payload
    directory    splice_count × (offset u64, width u32)
    payload      the byte splices' bytes (sum of widths), then 8 bytes
                 of binary64 per typed splice, in directory order

A directory entry of width 0 is a *typed splice*: its offset is the
start of one ``xsd:double`` leaf's field region and its value travels
as little-endian binary64, not text.  The receiver commits it straight
into its decode (:mod:`repro.wire.server`) and renders the text only
when something reads the document.  A width with the top bit set
(:data:`INSERT_FLAG`) is a *pad insertion*: the low 31 bits count
space bytes the sender inserted at the end of a widened field, and
the offset is where they start in the *new* document; it carries no
payload.  Every other entry is a *byte splice*: bytes that replace the
mirror's bytes at its offset.  All offsets are in new-document
coordinates: the receiver makes the insertions first (one rebuild of
the mirror), then applies the splices.  ``doc_len`` is the new length;
the mirror the frame was diffed against is ``doc_len`` less the
insertions' sum.  A frame without insertions is an RDF2 frame as it
always was, and a decoder that predates them rejects one as
``payload-mismatch`` (its width's top bit overruns any payload).

A content-match resend is a zero-splice frame: 36 bytes on the wire
for any document size.

:func:`decode_frame` is the hardened boundary: every cap from
:class:`~repro.hardening.ResourceLimits` (splice count, frame size),
every structural property (sorted non-overlapping splices, a typed
splice occupying its offset, in-bounds offsets, payload length equal to
the directory's sum plus 8 bytes per typed splice; insertions
non-empty, sorted, disjoint and inside ``doc_len``) and the CRC are
checked *before* any mirror byte is touched, so a lying frame can only
ever produce a clean :class:`~repro.errors.DeltaFrameError`.  Whether
an insertion lands in a field's trailing pad is the mirror's to prove
(:meth:`~repro.wire.server.DeltaSession.apply`).
"""

from __future__ import annotations

import math
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Union

import numpy as np

from repro.buffers.iovec import row_window
from repro.errors import DeltaFrameError
from repro.hardening.limits import DEFAULT_LIMITS, ResourceLimits

__all__ = [
    "MAGIC",
    "HEADER",
    "DIR_ENTRY",
    "TYPED_BYTES",
    "INSERT_FLAG",
    "CANONICAL_NAN",
    "SMALL_FRAME",
    "forced_lane",
    "DeltaFrame",
    "encode_frame",
    "decode_frame",
    "insert_pad",
    "apply_frame",
]

MAGIC = b"RDF2"
HEADER = struct.Struct("<4sQIIQII")
DIR_ENTRY = struct.Struct("<QI")
_DIR_DTYPE = np.dtype([("off", "<u8"), ("width", "<u4")])
#: Payload bytes of one typed splice: a little-endian binary64.
TYPED_BYTES = 8
#: Width bit marking a pad insertion; the low bits are its byte count.
INSERT_FLAG = 1 << 31
#: What every typed NaN decodes to: the value the text parse of
#: ``NaN`` gives, so a typed splice and the text path decode the same
#: bits whatever payload or sign the sender's NaN carried.
CANONICAL_NAN = np.float64(math.nan)
#: Same-width rows per NumPy op from which a row-window scatter
#: (:func:`apply_frame`) or gather (the encoder, per chunk run) beats
#: slicing; below it setting the op up costs more than the slices.
SCATTER_MIN = 16
#: The directory of every header-only frame: shared, so read-only.
_NO_SPLICES = np.empty(0, dtype=np.int64)
_NO_SPLICES.flags.writeable = False
_NO_VALUES = np.empty(0, dtype=np.float64)
_NO_VALUES.flags.writeable = False
_INT64_MAX = (1 << 63) - 1
#: Directory entries below which a frame is read with ``struct``
#: (:func:`decode_frame`), harvested by the sender and checked against
#: the seek table entry by entry, and its values rewritten cell by cell
#: (the scalar lane), instead of as NumPy columns (the vector lane).  A
#: NumPy call costs about a microsecond whatever its length, so the few
#: dozen of the vector lane are most of a small frame's cost at both
#: ends; the scalar lane costs less up front and more per entry.
#: Measured per lane, send and apply together, by the fixed-cost table
#: of ``benchmarks/bench_ablation_delta_wire.py`` (``params.frame_costs``
#: in ``BENCH_delta_wire.json``; docs/perf.md, "Small frames"): the
#: scalar lane is cheaper through 8 entries (67 against 94 µs at one),
#: even at 12 (115 against 117) and dearer from 16 (234 against 229).
#: Each of these four sites keeps a scalar lane because forcing it alone
#: to the vector lane costs a one-entry frame measurably more; the
#: directory packing and the commit have one lane, since forcing them
#: saved nothing measurable (docs/perf.md, "Small frames", per site).
SMALL_FRAME = 16
#: ``struct`` layouts of directories by entry count, made on first use.
_DIRECTORY: Dict[int, struct.Struct] = {}


def _directory_layout(count: int) -> struct.Struct:
    """The ``struct`` layout of a directory of *count* entries."""
    layout = _DIRECTORY.get(count)
    if layout is None:
        layout = _DIRECTORY[count] = struct.Struct("<" + "QI" * count)
    return layout


@contextmanager
def forced_lane(name: str) -> Iterator[None]:
    """Send every frame through the ``"small"`` (scalar) or ``"large"``
    (vector) lane while the block runs: every site reads
    :data:`SMALL_FRAME` per frame.  For tests and benchmarks that hold
    the lanes to one answer or time them apart; not thread-safe."""
    global SMALL_FRAME
    saved = SMALL_FRAME
    SMALL_FRAME = {"small": 1 << 30, "large": 0}[name]
    try:
        yield
    finally:
        SMALL_FRAME = saved


@dataclass(slots=True)
class DeltaFrame:
    """One decoded (validated) delta frame."""

    template_id: int
    epoch: int
    seq: int
    doc_len: int
    #: Directory entries: byte and typed splices, pad insertions.
    splice_count: int
    #: The byte splices' sorted, non-overlapping absolute offsets (int64).
    offsets: np.ndarray
    #: Per-byte-splice widths (int64), all positive.
    widths: np.ndarray
    #: Concatenated byte-splice bytes, ``widths.sum()`` long: a view of
    #: the received frame, which it keeps alive.
    payload: memoryview
    #: The typed splices' sorted offsets (int64): leaf region starts.
    typed_offsets: np.ndarray
    #: Their values (float64), every NaN :data:`CANONICAL_NAN`.
    typed_values: np.ndarray
    #: The pad insertions' sorted, disjoint new-document offsets (int64).
    insert_offsets: np.ndarray
    #: Their byte counts (int64), all positive.
    insert_counts: np.ndarray
    #: Bytes the insertions add: ``doc_len`` less the mirror's length.
    growth: int = 0

    def insert_positions(self) -> np.ndarray:
        """Each insertion's offset in the document before the frame."""
        counts = self.insert_counts
        return self.insert_offsets - (np.cumsum(counts) - counts)


def encode_frame(
    template_id: int,
    epoch: int,
    seq: int,
    doc_len: int,
    offsets: Sequence[int],
    widths: Sequence[int],
    payload: bytes,
) -> bytes:
    """Serialize one frame.  Caller guarantees the splice invariants.

    A width of 0 marks a typed splice and ``INSERT_FLAG | n`` a pad
    insertion of *n* bytes; *payload* is the byte splices' bytes
    followed by the typed values as ``<f8`` (module docstring).
    """
    n = len(offsets)
    if not n and not payload:
        # A content match; its CRC, of nothing, is 0.
        return HEADER.pack(MAGIC, template_id, epoch, seq, doc_len, 0, 0)
    dir_bytes = b""
    if n:
        directory = np.empty(n, dtype=_DIR_DTYPE)
        directory["off"] = offsets
        directory["width"] = widths
        dir_bytes = directory.tobytes()
    crc = zlib.crc32(payload, zlib.crc32(dir_bytes))
    head = HEADER.pack(MAGIC, template_id, epoch, seq, doc_len, n, crc)
    return b"".join((head, dir_bytes, payload))


def decode_frame(
    data: bytes, *, limits: Optional[ResourceLimits] = None
) -> DeltaFrame:
    """Validate and decode one frame (see module docstring).

    The header, the directory's size and the CRC are checked here; a
    directory of fewer than :data:`SMALL_FRAME` entries is then read
    with ``struct`` and checked entry by entry (:func:`_decode_small`),
    a larger one with NumPy (:func:`_decode_large`).  Both lanes run
    the same checks in the same order, so a frame gets the same decode
    or the same :class:`~repro.errors.DeltaFrameError` reason from
    either.
    """
    limits = limits if limits is not None else DEFAULT_LIMITS
    size = len(data)
    if size > limits.max_delta_frame_bytes:
        raise DeltaFrameError(
            f"frame of {size} bytes exceeds "
            f"max_delta_frame_bytes={limits.max_delta_frame_bytes}",
            "frame-too-large",
        )
    if size < HEADER.size:
        raise DeltaFrameError(
            f"frame truncated at {size} bytes (header is {HEADER.size})",
            "truncated",
        )
    magic, template_id, epoch, seq, doc_len, count, crc = HEADER.unpack_from(data)
    if magic != MAGIC:
        raise DeltaFrameError(f"bad frame magic {magic!r}", "bad-magic")
    if count > limits.max_delta_splices:
        raise DeltaFrameError(
            f"{count} splices exceed max_delta_splices="
            f"{limits.max_delta_splices}",
            "too-many-splices",
        )
    if doc_len > limits.max_body_bytes:
        raise DeltaFrameError(
            f"declared doc_len {doc_len} exceeds "
            f"max_body_bytes={limits.max_body_bytes}",
            "doc-too-large",
        )
    dir_end = HEADER.size + count * DIR_ENTRY.size
    if dir_end > size:
        raise DeltaFrameError(
            f"directory for {count} splices overruns the frame", "truncated"
        )
    body = memoryview(data)
    # A header-only frame checks against the CRC of nothing, which is 0.
    if (zlib.crc32(body[HEADER.size:]) if size > HEADER.size else 0) != crc:
        raise DeltaFrameError("frame CRC mismatch", "crc-mismatch")
    if not count:
        payload = body[dir_end:]
        if payload:
            raise DeltaFrameError(
                "payload bytes present with zero splices", "payload-mismatch"
            )
        return DeltaFrame(
            template_id, epoch, seq, doc_len, 0, _NO_SPLICES, _NO_SPLICES,
            payload, _NO_SPLICES, _NO_VALUES, _NO_SPLICES, _NO_SPLICES,
        )
    lane = _decode_small if count < SMALL_FRAME else _decode_large
    return lane(data, template_id, epoch, seq, doc_len, count)


def _decode_small(
    data: bytes, template_id: int, epoch: int, seq: int, doc_len: int, count: int
) -> DeltaFrame:
    """The directory of a header-checked frame, read with ``struct`` and
    checked with Python ints (the scalar lane of :func:`decode_frame`;
    *count* is at least 1)."""
    dir_end = HEADER.size + count * DIR_ENTRY.size
    payload = memoryview(data)[dir_end:]
    flat = _directory_layout(count).unpack_from(data, HEADER.size)
    offsets, widths = flat[0::2], flat[1::2]
    if max(offsets) > _INT64_MAX:
        # The NumPy lane reads offsets as int64: past 2**63 they wrap
        # negative there, and are out of bounds in both lanes.
        raise DeltaFrameError(
            "splice offset exceeds the representable range",
            "out-of-bounds",
        )
    insert_offsets = insert_counts = _NO_SPLICES
    growth = 0
    if max(widths) >= INSERT_FLAG:
        inserts = [(o, w - INSERT_FLAG) for o, w in zip(offsets, widths) if w >= INSERT_FLAG]
        if not all(n > 0 for _o, n in inserts):
            raise DeltaFrameError("pad insertion of zero bytes", "bad-splice")
        if any(o > doc_len - n for o, n in inserts):
            raise DeltaFrameError(
                "pad insertion reaches past the declared document length",
                "out-of-bounds",
            )
        if any(b < a + n for (a, n), (b, _m) in zip(inserts, inserts[1:])):
            raise DeltaFrameError(
                "pad insertions unsorted or overlapping", "bad-splice"
            )
        insert_offsets = np.array([o for o, _n in inserts], dtype=np.int64)
        insert_counts = np.array([n for _o, n in inserts], dtype=np.int64)
        growth = sum(n for _o, n in inserts)
        kept = [(o, w) for o, w in zip(offsets, widths) if w < INSERT_FLAG]
        offsets = [o for o, _w in kept]
        widths = [w for _o, w in kept]
    n_typed = widths.count(0)
    spliced = sum(widths)
    if spliced + TYPED_BYTES * n_typed != len(payload):
        raise DeltaFrameError(
            "payload length disagrees with the splice directory",
            "payload-mismatch",
        )
    # As in _decode_large: a typed splice spans its offset's byte, and
    # the bounds check runs over every entry before the order check.
    spans = [w or 1 for w in widths]
    if any(o > doc_len - s for o, s in zip(offsets, spans)):
        raise DeltaFrameError(
            "splice reaches past the declared document length",
            "out-of-bounds",
        )
    if any(b < a + s for a, s, b in zip(offsets, spans, offsets[1:])):
        raise DeltaFrameError(
            "splices unsorted or overlapping", "bad-splice"
        )
    if not n_typed:
        return DeltaFrame(
            template_id, epoch, seq, doc_len, count,
            np.array(offsets, dtype=np.int64), np.array(widths, dtype=np.int64),
            payload, _NO_SPLICES, _NO_VALUES, insert_offsets, insert_counts, growth,
        )
    values = struct.unpack_from("<%dd" % n_typed, data, dir_end + spliced)
    if n_typed == len(widths):
        byte_offsets = byte_widths = ()
        typed_offsets = offsets
    else:
        byte_offsets = [o for o, w in zip(offsets, widths) if w]
        byte_widths = [w for w in widths if w]
        typed_offsets = [o for o, w in zip(offsets, widths) if not w]
    return DeltaFrame(
        template_id,
        epoch,
        seq,
        doc_len,
        count,
        np.array(byte_offsets, dtype=np.int64),
        np.array(byte_widths, dtype=np.int64),
        payload[:spliced],
        np.array(typed_offsets, dtype=np.int64),
        np.array([CANONICAL_NAN if v != v else v for v in values], dtype=np.float64),
        insert_offsets,
        insert_counts,
        growth,
    )


def _decode_large(
    data: bytes, template_id: int, epoch: int, seq: int, doc_len: int, count: int
) -> DeltaFrame:
    """The directory of a header-checked frame, read and checked as
    NumPy columns (the vector lane of :func:`decode_frame`; *count* is
    at least 1)."""
    dir_end = HEADER.size + count * DIR_ENTRY.size
    payload = memoryview(data)[dir_end:]
    directory = np.frombuffer(
        data, dtype=_DIR_DTYPE, count=count, offset=HEADER.size
    )
    offsets = directory["off"].astype(np.int64)
    widths = directory["width"].astype(np.int64)
    if offsets.min() < 0:
        # u64 offsets past 2**63 wrap negative in the int64 view;
        # negative slice indices would *insert* into the mirror.
        raise DeltaFrameError(
            "splice offset exceeds the representable range",
            "out-of-bounds",
        )
    insert_offsets = insert_counts = _NO_SPLICES
    growth = 0
    widest = int(widths.max())
    typed_only = not widest
    if widest >= INSERT_FLAG:
        inserts = widths >= INSERT_FLAG
        insert_offsets = offsets[inserts]
        insert_counts = widths[inserts] - INSERT_FLAG
        _check_insertions(insert_offsets, insert_counts, doc_len)
        growth = int(insert_counts.sum())
        offsets, widths = offsets[~inserts], widths[~inserts]
        typed_only = bool(widths.size) and not widths.any()
    if typed_only:
        # Every entry a typed splice (a MINIMAL sender's doubles): the
        # checks below with every span one byte and nothing spliced.
        n_typed, spliced = widths.size, 0
        if TYPED_BYTES * n_typed != len(payload):
            raise DeltaFrameError(
                "payload length disagrees with the splice directory",
                "payload-mismatch",
            )
        if int(offsets.max()) > doc_len - 1:
            raise DeltaFrameError(
                "splice reaches past the declared document length",
                "out-of-bounds",
            )
        if np.count_nonzero(offsets[1:] <= offsets[:-1]):
            raise DeltaFrameError(
                "splices unsorted or overlapping", "bad-splice"
            )
        typed_offsets, offsets, widths = offsets, offsets[:0], widths[:0]
    else:
        n_typed = widths.size - int(np.count_nonzero(widths))
        spliced = int(widths.sum())
        if spliced + TYPED_BYTES * n_typed != len(payload):
            raise DeltaFrameError(
                "payload length disagrees with the splice directory",
                "payload-mismatch",
            )
        # A typed splice occupies the byte its offset names: no other
        # entry may start there or reach over it.  Compared against
        # doc_len less the width, so an offset near 2**63 cannot wrap
        # its end around.
        spans = np.maximum(widths, 1)
        if bool((offsets > doc_len - spans).any()):
            raise DeltaFrameError(
                "splice reaches past the declared document length",
                "out-of-bounds",
            )
        if bool((offsets[1:] < (offsets + spans)[:-1]).any()):
            raise DeltaFrameError(
                "splices unsorted or overlapping", "bad-splice"
            )
        if not n_typed:
            return DeltaFrame(
                template_id, epoch, seq, doc_len, count, offsets, widths, payload,
                _NO_SPLICES, _NO_VALUES, insert_offsets, insert_counts, growth,
            )
        typed = widths == 0
        typed_offsets = offsets[typed]
        offsets, widths = offsets[~typed], widths[~typed]
    values = np.frombuffer(
        data, dtype="<f8", count=n_typed, offset=dir_end + spliced
    ).astype(np.float64)
    nan = np.isnan(values)
    if np.count_nonzero(nan):
        values[nan] = CANONICAL_NAN
    return DeltaFrame(
        template_id,
        epoch,
        seq,
        doc_len,
        count,
        offsets,
        widths,
        payload[:spliced],
        typed_offsets,
        values,
        insert_offsets,
        insert_counts,
        growth,
    )


def _check_insertions(offsets: np.ndarray, counts: np.ndarray, doc_len: int) -> None:
    """Insertions add at least one byte each, lie inside the new
    document, and are sorted and disjoint there."""
    if not bool((counts > 0).all()):
        raise DeltaFrameError("pad insertion of zero bytes", "bad-splice")
    if bool((offsets > doc_len - counts).any()):
        raise DeltaFrameError(
            "pad insertion reaches past the declared document length",
            "out-of-bounds",
        )
    ends = offsets + counts
    if bool((offsets[1:] < ends[:-1]).any()):
        raise DeltaFrameError(
            "pad insertions unsorted or overlapping", "bad-splice"
        )


def insert_pad(frame: DeltaFrame, mirror: Union[bytes, bytearray]) -> bytearray:
    """A new mirror: *mirror* with the frame's pad insertions made (one
    join); the frame's splices are :func:`apply_frame`'s."""
    if len(mirror) + frame.growth != frame.doc_len:
        raise DeltaFrameError(
            f"mirror is {len(mirror)} bytes, frame expects "
            f"{frame.doc_len - frame.growth} before its insertions",
            "doc-len-mismatch",
        )
    view = memoryview(mirror)
    parts = []
    prev = 0
    for at, count in zip(frame.insert_positions().tolist(), frame.insert_counts.tolist()):
        parts += (view[prev:at], b" " * count)
        prev = at
    parts.append(view[prev:])
    return bytearray().join(parts)


def apply_frame(frame: DeltaFrame, mirror: bytearray) -> None:
    """Patch *mirror* in place with the frame's byte splices (its typed
    splices are the session's: :meth:`~repro.wire.server.DeltaSession.apply`).

    The caller has already matched template id / epoch / sequence; the
    only check left is that the mirror really is the document the
    frame was diffed against (by length — content equality is the
    protocol's invariant, re-verified end-to-end by the oracle tests).
    """
    if len(mirror) != frame.doc_len:
        raise DeltaFrameError(
            f"mirror is {len(mirror)} bytes, frame expects {frame.doc_len}",
            "doc-len-mismatch",
        )
    count = int(frame.offsets.shape[0])
    payload = frame.payload
    widths = frame.widths
    if count >= SCATTER_MIN and bool((widths == widths[0]).all()):
        # Same-width splices (a fixed-width array's dirty fields): one
        # scatter of the payload's rows; each ends by doc_len
        # (decode_frame), so each offset names a row of the window.
        width = int(widths[0])
        rows = np.frombuffer(payload, dtype=np.uint8).reshape(count, width)
        row_window(mirror, width)[frame.offsets] = rows
        return
    pos = 0
    for off, width in zip(frame.offsets.tolist(), widths.tolist()):
        mirror[off : off + width] = payload[pos : pos + width]
        pos += width

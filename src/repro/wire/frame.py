"""Binary delta-frame codec for repro↔repro traffic.

One frame carries the byte-level difference between two consecutive
stuffed documents of the same template — the splices the client's DUT
dirty set identifies — so a steady-state resend ships kilobytes of
patch instead of megabytes of XML.

Layout (all integers little-endian)::

    magic        4s   b"RDF1"  (Repro Delta Frame, version 1)
    template_id  u64  client-side MessageTemplate identity
    epoch        u32  baseline epoch (bumped per full-XML announce)
    seq          u32  frame sequence within the epoch (1-based)
    doc_len      u64  length of the reconstructed document
    splice_count u32
    crc32        u32  zlib.crc32 over directory + payload
    directory    splice_count × (offset u64, width u32)
    payload      concatenated splice bytes (sum of widths)

A content-match resend is a zero-splice frame: 36 bytes on the wire
for any document size.

:func:`decode_frame` is the hardened boundary: every cap from
:class:`~repro.hardening.ResourceLimits` (splice count, frame size),
every structural property (sorted non-overlapping splices, in-bounds
offsets, payload length equal to the directory's sum) and the CRC are
checked *before* any mirror byte is touched, so a lying frame can only
ever produce a clean :class:`~repro.errors.DeltaFrameError`.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.buffers.iovec import row_window
from repro.errors import DeltaFrameError
from repro.hardening.limits import DEFAULT_LIMITS, ResourceLimits

__all__ = [
    "MAGIC",
    "HEADER",
    "DIR_ENTRY",
    "DeltaFrame",
    "encode_frame",
    "decode_frame",
    "apply_frame",
]

MAGIC = b"RDF1"
HEADER = struct.Struct("<4sQIIQII")
DIR_ENTRY = struct.Struct("<QI")
_DIR_DTYPE = np.dtype([("off", "<u8"), ("width", "<u4")])
#: Same-width rows per NumPy op from which a row-window scatter
#: (:func:`apply_frame`) or gather (the encoder, per chunk run) beats
#: slicing; below it setting the op up costs more than the slices.
SCATTER_MIN = 16
#: The directory of every header-only frame: shared, so read-only.
_NO_SPLICES = np.empty(0, dtype=np.int64)
_NO_SPLICES.flags.writeable = False


@dataclass(slots=True)
class DeltaFrame:
    """One decoded (validated) delta frame."""

    template_id: int
    epoch: int
    seq: int
    doc_len: int
    #: Sorted, non-overlapping absolute byte offsets (int64).
    offsets: np.ndarray
    #: Per-splice byte widths (int64), all positive.
    widths: np.ndarray
    #: Concatenated splice bytes, ``widths.sum()`` long: a view of the
    #: received frame, which it keeps alive.
    payload: memoryview

    @property
    def splice_count(self) -> int:
        return int(self.offsets.shape[0])


def encode_frame(
    template_id: int,
    epoch: int,
    seq: int,
    doc_len: int,
    offsets: Sequence[int],
    widths: Sequence[int],
    payload: bytes,
) -> bytes:
    """Serialize one frame.  Caller guarantees the splice invariants."""
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
    """Validate and decode one frame (see module docstring)."""
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
    payload = body[dir_end:]
    if not count:
        if payload:
            raise DeltaFrameError(
                "payload bytes present with zero splices", "payload-mismatch"
            )
        return DeltaFrame(
            template_id, epoch, seq, doc_len, _NO_SPLICES, _NO_SPLICES, payload
        )
    directory = np.frombuffer(
        data, dtype=_DIR_DTYPE, count=count, offset=HEADER.size
    )
    offsets = directory["off"].astype(np.int64)
    widths = directory["width"].astype(np.int64)
    if bool((offsets < 0).any()):
        # u64 offsets past 2**63 wrap negative in the int64 view;
        # negative slice indices would *insert* into the mirror.
        raise DeltaFrameError(
            "splice offset exceeds the representable range",
            "out-of-bounds",
        )
    if int(widths.sum()) != len(payload):
        raise DeltaFrameError(
            "payload length disagrees with the splice directory",
            "payload-mismatch",
        )
    if bool((widths <= 0).any()):
        raise DeltaFrameError("zero-width splice", "bad-splice")
    ends = offsets + widths
    if bool((ends > doc_len).any()):
        raise DeltaFrameError(
            "splice reaches past the declared document length",
            "out-of-bounds",
        )
    if bool((offsets[1:] < ends[:-1]).any()):
        raise DeltaFrameError(
            "splices unsorted or overlapping", "bad-splice"
        )
    return DeltaFrame(template_id, epoch, seq, doc_len, offsets, widths, payload)


def apply_frame(frame: DeltaFrame, mirror: bytearray) -> None:
    """Patch *mirror* in place with the frame's splices.

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
    count = frame.splice_count
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

"""A single contiguous buffer chunk.

A chunk owns a ``bytearray`` of fixed *capacity* of which the first
*used* bytes hold message data.  All mutation is in place; the only
operation that replaces the backing store is :meth:`grow`
(reallocation).  Tail moves use ``bytearray`` slice assignment, which
is a C ``memmove`` — the cost model the shifting experiments measure.
"""

from __future__ import annotations

from repro.errors import BufferError_, ChunkOverflowError

__all__ = ["Chunk"]


class Chunk:
    """One contiguous region of a chunked message buffer."""

    __slots__ = ("cid", "data", "used")

    def __init__(self, cid: int, capacity: int, used: int = 0) -> None:
        if capacity <= 0:
            raise BufferError_("chunk capacity must be positive")
        if not (0 <= used <= capacity):
            raise BufferError_("used must be within capacity")
        self.cid = cid
        self.data = bytearray(capacity)
        self.used = used

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Total bytes the backing store can hold."""
        return len(self.data)

    @property
    def free(self) -> int:
        """Unused bytes at the tail."""
        return len(self.data) - self.used

    # ------------------------------------------------------------------
    def append(self, payload: bytes) -> int:
        """Append *payload* at the tail; return its start offset."""
        n = len(payload)
        used = self.used
        if n > len(self.data) - used:
            raise ChunkOverflowError(
                f"chunk {self.cid}: append of {n} bytes exceeds free {self.free}"
            )
        self.data[used : used + n] = payload
        self.used = used + n
        return used

    def write_at(self, offset: int, payload: bytes) -> None:
        """Overwrite bytes inside the used region."""
        end = offset + len(payload)
        if offset < 0 or end > self.used:
            raise BufferError_(
                f"chunk {self.cid}: write [{offset}:{end}) outside used region "
                f"[0:{self.used})"
            )
        self.data[offset:end] = payload

    def fill_at(self, offset: int, length: int, byte: int) -> None:
        """Fill ``length`` bytes from *offset* with *byte* (pad writes)."""
        end = offset + length
        if offset < 0 or end > self.used:
            raise BufferError_(
                f"chunk {self.cid}: fill [{offset}:{end}) outside used region"
            )
        if length > 0:
            self.data[offset:end] = bytes([byte]) * length

    def open_gap(self, pos: int, delta: int) -> None:
        """Move the tail ``[pos:used)`` right by *delta* bytes (memmove).

        The gap's contents are left as-is (caller overwrites them).
        Raises :class:`ChunkOverflowError` when the tail would exceed
        capacity — the buffer layer then reallocates or splits.
        """
        if delta < 0:
            raise BufferError_("negative gap")
        if not (0 <= pos <= self.used):
            raise BufferError_(f"gap position {pos} outside used region")
        if self.used + delta > len(self.data):
            raise ChunkOverflowError(
                f"chunk {self.cid}: gap of {delta} at {pos} exceeds capacity"
            )
        if delta == 0:
            return
        self.data[pos + delta : self.used + delta] = self.data[pos : self.used]
        self.used += delta

    def move_range(self, src: int, dst: int, length: int) -> None:
        """memmove *length* bytes from *src* to *dst* within the used region.

        Used by *stealing*, which slides a short span instead of the
        whole tail.  Overlap is handled correctly (bytearray slice
        assignment copies through a temporary).
        """
        if length < 0:
            raise BufferError_("negative move length")
        if min(src, dst) < 0 or max(src, dst) + length > self.used:
            raise BufferError_(
                f"chunk {self.cid}: move src={src} dst={dst} len={length} "
                f"outside used region [0:{self.used})"
            )
        if length and src != dst:
            self.data[dst : dst + length] = bytes(self.data[src : src + length])

    def grow(self, new_capacity: int) -> None:
        """Reallocate to a larger backing store (contents preserved)."""
        if new_capacity < self.used:
            raise BufferError_("cannot shrink below used size")
        fresh = bytearray(new_capacity)
        fresh[: self.used] = self.data[: self.used]
        self.data = fresh

    def replace_tail(self, pos: int, payload, capacity: int = 0) -> None:
        """Make *payload* the chunk's bytes from *pos* on (a rebuild).

        With *capacity*, first move to a fresh backing store of that
        size, copying only the kept head ``[0:pos)`` (reallocation).
        Raises :class:`ChunkOverflowError` when the result would exceed
        the capacity.
        """
        if not (0 <= pos <= self.used):
            raise BufferError_(f"rebuild position {pos} outside used region")
        end = pos + len(payload)
        if end > (capacity or len(self.data)):
            raise ChunkOverflowError(
                f"chunk {self.cid}: rebuild to {end} bytes exceeds capacity"
            )
        if capacity:
            fresh = bytearray(capacity)
            fresh[:pos] = self.data[:pos]
            self.data = fresh
        self.data[pos:end] = payload
        self.used = end

    def take_tail(self, pos: int) -> bytes:
        """Remove and return the bytes ``[pos:used)`` (used by splits)."""
        if not (0 <= pos <= self.used):
            raise BufferError_(f"split position {pos} outside used region")
        tail = bytes(self.data[pos : self.used])
        self.used = pos
        return tail

    # ------------------------------------------------------------------
    def view(self) -> memoryview:
        """Zero-copy view of the used region (for scatter-gather sends)."""
        return memoryview(self.data)[: self.used]

    def tobytes(self) -> bytes:
        """Copy of the used region (tests/inspection)."""
        return bytes(self.data[: self.used])

    def __len__(self) -> int:
        return self.used

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Chunk(cid={self.cid}, used={self.used}, cap={self.capacity})"

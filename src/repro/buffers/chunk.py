"""A single contiguous buffer chunk.

A chunk owns a ``bytearray`` of fixed *capacity* of which the first
*used* bytes hold message data.  Bytes are appended at build time and
rewritten in place (value writes go straight to :attr:`Chunk.data`);
the one structural write is :meth:`Chunk.replace_tail`, which may move
to a larger backing store (reallocation).
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

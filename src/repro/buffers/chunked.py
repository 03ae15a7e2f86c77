"""The chunked message buffer.

A :class:`ChunkedBuffer` is an ordered sequence of :class:`Chunk`
objects with **stable chunk ids**: a split inserts a new chunk without
renumbering the others, so DUT entries referring to untouched chunks
stay valid.  The two structural operations the differential layer
needs are:

``append``
    Atomic placement of a byte string during initial serialization —
    the bytes never straddle chunks, so every DUT value span is
    contiguous.  Returns the :class:`Location` where they landed.

``insert_gap``
    Grow the message by ``delta`` bytes at a position (*shifting*).
    In the common case this memmoves the chunk tail in place; when the
    chunk is full the buffer either **reallocates** (grows the chunk)
    or **splits** it at the expanding field's region start, exactly
    the two escape hatches §3.2 describes.  The returned
    :class:`GapResult` tells the DUT layer how to fix its offsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.buffers.chunk import Chunk
from repro.buffers.config import ChunkPolicy
from repro.errors import BufferError_, ChunkOverflowError

__all__ = ["Location", "GapResult", "ChunkedBuffer"]


@dataclass(frozen=True, slots=True)
class Location:
    """A position inside a chunked buffer: ``(chunk id, offset)``."""

    cid: int
    offset: int


@dataclass(frozen=True, slots=True)
class GapResult:
    """Outcome of :meth:`ChunkedBuffer.insert_gap`.

    Attributes
    ----------
    mode:
        ``"inplace"`` — tail moved within the chunk; ``"realloc"`` —
        same, after growing the chunk's backing store; ``"split"`` —
        the region was moved to a freshly inserted chunk.
    cid, pos, delta, region_start:
        Echo of the request.
    new_cid:
        Id of the inserted chunk (``split`` mode only).

    Offset fix-up rules for DUT entries located in chunk ``cid``:

    * ``inplace``/``realloc``: entries with ``offset >= pos`` add
      ``delta``.
    * ``split``: entries with ``offset >= region_start`` move to chunk
      ``new_cid`` at ``offset - region_start`` (+ ``delta`` when the
      old offset was ``>= pos``).
    """

    mode: str
    cid: int
    pos: int
    delta: int
    region_start: int
    new_cid: Optional[int] = None


class ChunkedBuffer:
    """Ordered chunks with stable ids (see module docstring)."""

    def __init__(self, policy: Optional[ChunkPolicy] = None) -> None:
        self.policy = policy or ChunkPolicy()
        self._chunks: Dict[int, Chunk] = {}
        self._order: List[int] = []
        self._next_cid = 0
        self._bytes_moved = 0  # instrumentation: memmove traffic from gaps
        #: Monotonic **layout epoch**: bumped by every operation that
        #: moves bytes or changes backing stores (gap open, realloc,
        #: split, steal).  The delta encoder records the epoch with its
        #: announced baseline and sends a frame only while it is
        #: unchanged (``repro.wire.client``) — O(1) with no tracking of
        #: *what* moved.  A fresh buffer restarts at 0.
        self.layout_epoch = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _new_chunk(self, capacity: int, index: Optional[int] = None) -> Chunk:
        cid = self._next_cid
        self._next_cid += 1
        chunk = Chunk(cid, capacity)
        self._chunks[cid] = chunk
        if index is None:
            self._order.append(cid)
        else:
            self._order.insert(index, cid)
        return chunk

    def append(self, payload: bytes) -> Location:
        """Append *payload* contiguously; return where it landed.

        During initial serialization each chunk is only filled to the
        policy's soft limit, leaving ``reserve`` bytes for later
        shifting.  Payloads larger than a default chunk get a
        dedicated, suitably sized chunk.
        """
        n = len(payload)
        policy = self.policy
        tail = self._chunks[self._order[-1]] if self._order else None
        # Fill only to capacity − reserve, keeping shift slack at the end.
        if tail is not None and tail.used + n <= tail.capacity - policy.reserve:
            offset = tail.append(payload)
            return Location(tail.cid, offset)
        capacity = max(policy.chunk_size, n + policy.reserve)
        chunk = self._new_chunk(capacity)
        offset = chunk.append(payload)
        return Location(chunk.cid, offset)

    # ------------------------------------------------------------------
    # random access
    # ------------------------------------------------------------------
    def chunk(self, cid: int) -> Chunk:
        try:
            return self._chunks[cid]
        except KeyError:
            raise BufferError_(f"no chunk with id {cid}") from None

    def write_at(self, loc_cid: int, offset: int, payload: bytes) -> None:
        """Overwrite bytes inside a chunk's used region."""
        self.chunk(loc_cid).write_at(offset, payload)

    def fill_at(self, loc_cid: int, offset: int, length: int, byte: int = 0x20) -> None:
        """Fill a span with a pad byte (default: space)."""
        self.chunk(loc_cid).fill_at(offset, length, byte)

    def read_at(self, loc_cid: int, offset: int, length: int) -> bytes:
        """Copy *length* bytes out of a chunk (tests/deserializer)."""
        chunk = self.chunk(loc_cid)
        if offset < 0 or offset + length > chunk.used:
            raise BufferError_(
                f"read [{offset}:{offset + length}) outside chunk {loc_cid}"
            )
        return bytes(chunk.data[offset : offset + length])

    # ------------------------------------------------------------------
    # shifting
    # ------------------------------------------------------------------
    def insert_gap(
        self, cid: int, pos: int, delta: int, region_start: int
    ) -> GapResult:
        """Grow the message by *delta* bytes at ``(cid, pos)``.

        ``region_start`` is the start offset of the expanding field's
        region — the split point that keeps the region contiguous.
        """
        if delta < 0:
            raise BufferError_("negative gap")
        if not (0 <= region_start <= pos):
            raise BufferError_("region_start must satisfy 0 <= region_start <= pos")
        chunk = self.chunk(cid)
        if delta == 0:
            return GapResult("inplace", cid, pos, 0, region_start)
        try:
            moved = chunk.used - pos
            chunk.open_gap(pos, delta)
            self._bytes_moved += moved
            self.layout_epoch += 1
            return GapResult("inplace", cid, pos, delta, region_start)
        except ChunkOverflowError:
            pass

        policy = self.policy
        if chunk.used >= policy.split_threshold and region_start > 0:
            return self._split_for_gap(chunk, pos, delta, region_start)
        return self._realloc_for_gap(chunk, pos, delta, region_start)

    def _realloc_for_gap(
        self, chunk: Chunk, pos: int, delta: int, region_start: int
    ) -> GapResult:
        needed = chunk.used + delta + self.policy.reserve
        grown = max(int(chunk.capacity * self.policy.growth_factor), needed)
        chunk.grow(grown)
        moved = chunk.used - pos
        chunk.open_gap(pos, delta)
        self._bytes_moved += moved + chunk.used - delta  # realloc copies everything
        self.layout_epoch += 1
        return GapResult("realloc", chunk.cid, pos, delta, region_start)

    def _split_for_gap(
        self, chunk: Chunk, pos: int, delta: int, region_start: int
    ) -> GapResult:
        # Detach everything from the expanding field's region onward.
        tail = chunk.take_tail(region_start)
        head_len = pos - region_start  # region bytes before the gap
        capacity = max(self.policy.chunk_size, len(tail) + delta + self.policy.reserve)
        index = self._order.index(chunk.cid) + 1
        fresh = self._new_chunk(capacity, index)
        fresh.append(tail[:head_len])
        fresh.append(b"\x00" * delta)  # the gap; caller overwrites it
        fresh.append(tail[head_len:])
        self._bytes_moved += len(tail)
        self.layout_epoch += 1
        return GapResult(
            "split", chunk.cid, pos, delta, region_start, new_cid=fresh.cid
        )

    def steal_move(self, cid: int, src: int, dst: int, length: int) -> None:
        """memmove a short span within one chunk (*stealing* support)."""
        self.chunk(cid).move_range(src, dst, length)
        self._bytes_moved += length
        self.layout_epoch += 1

    # ------------------------------------------------------------------
    # inspection / sending
    # ------------------------------------------------------------------
    @property
    def chunk_ids(self) -> List[int]:
        """Chunk ids in message order (copy)."""
        return list(self._order)

    @property
    def num_chunks(self) -> int:
        return len(self._order)

    @property
    def total_length(self) -> int:
        """Total message bytes across chunks."""
        return sum(self._chunks[cid].used for cid in self._order)

    @property
    def bytes_moved(self) -> int:
        """Cumulative memmove traffic caused by gaps/steals (stats)."""
        return self._bytes_moved

    def views(self) -> List[memoryview]:
        """Zero-copy views of all chunks, in order (scatter-gather)."""
        return [self._chunks[cid].view() for cid in self._order if self._chunks[cid].used]

    def iter_chunks(self) -> Iterator[Chunk]:
        for cid in self._order:
            yield self._chunks[cid]

    def tobytes(self) -> bytes:
        """Materialize the whole message (tests/inspection)."""
        return b"".join(self._chunks[cid].tobytes() for cid in self._order)

    def __len__(self) -> int:
        return self.total_length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChunkedBuffer(chunks={self.num_chunks}, bytes={self.total_length}, "
            f"policy={self.policy})"
        )

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

``rebuild``
    Replace a chunk's bytes from some offset on with a rebuilt tail —
    every expansion of a send in that chunk at once.  The escape
    hatches are the same and are decided once, for the chunk's final
    size: in place when it fits, else a split at field starts (when
    the chunk is past ``split_threshold``) or one reallocation.  The
    returned :class:`RebuildResult` names the pieces a split made.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.buffers.chunk import Chunk
from repro.buffers.config import ChunkPolicy
from repro.errors import BufferError_, ChunkOverflowError

__all__ = ["Location", "GapResult", "RebuildResult", "ChunkedBuffer"]


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


@dataclass(frozen=True, slots=True)
class RebuildResult:
    """Outcome of one chunk's :meth:`ChunkedBuffer.rebuild`.

    Attributes
    ----------
    mode:
        ``"inplace"`` — the rebuilt bytes fit the chunk; ``"realloc"``
        — they fit after growing its backing store; ``"split"`` — the
        bytes past the first cut moved to freshly inserted chunks.
    cid:
        The rebuilt chunk.
    moved:
        Bytes written into chunk storage (the rebuild's copy traffic).
    pieces:
        ``split`` only: ``(new_cid, base)`` of each inserted chunk, in
        document order.  Chunk ``new_cid`` holds the rebuilt chunk's
        bytes from offset ``base`` up to the next piece's base (or the
        end), so a DUT entry of chunk ``cid`` at offset ``>= base``
        moves to ``new_cid`` at ``offset - base``.
    """

    mode: str
    cid: int
    moved: int
    pieces: Tuple[Tuple[int, int], ...] = ()


#: One chunk's rebuild: ``(cid, start, tail, cuts)`` — see
#: :meth:`ChunkedBuffer.rebuild`.
Rebuild = Tuple[int, int, bytes, Sequence[int]]


class ChunkedBuffer:
    """Ordered chunks with stable ids (see module docstring)."""

    def __init__(self, policy: Optional[ChunkPolicy] = None) -> None:
        self.policy = policy or ChunkPolicy()
        self._chunks: Dict[int, Chunk] = {}
        self._order: List[int] = []
        self._next_cid = 0
        self._bytes_moved = 0  # instrumentation: bytes copied to widen fields
        #: Monotonic **layout epoch**: bumped by every operation that
        #: moves bytes or changes backing stores (gap open, rebuild,
        #: realloc, split, steal).  The delta encoder records the epoch with its
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

    # ------------------------------------------------------------------
    # rebuilding
    # ------------------------------------------------------------------
    def rebuild(self, edits: Sequence[Rebuild]) -> List[RebuildResult]:
        """Rebuild chunks: one layout change however many chunks move.

        Each edit ``(cid, start, tail, cuts)`` makes *tail* chunk
        *cid*'s bytes from offset *start* on.  *cuts* are the ascending
        offsets, in the rebuilt chunk, where it may be split: the starts
        of its field regions at or after *start*, so a split never cuts
        a field.  A rebuilt chunk that outgrows its capacity is split
        when it held at least ``split_threshold`` bytes, else
        reallocated — the :meth:`insert_gap` rule, decided once.
        """
        results = [self._rebuild_chunk(*edit) for edit in edits]
        if results:
            self.layout_epoch += 1
        return results

    def _rebuild_chunk(
        self, cid: int, start: int, tail: bytes, cuts: Sequence[int]
    ) -> RebuildResult:
        chunk = self.chunk(cid)
        if len(cuts) and cuts[0] < start:
            raise BufferError_(f"cut {cuts[0]} before rebuild start {start}")
        total = start + len(tail)
        policy = self.policy
        if total <= chunk.capacity:
            chunk.replace_tail(start, tail)
            self._bytes_moved += len(tail)
            return RebuildResult("inplace", cid, len(tail))
        bases = (
            self._split_bases(chunk.capacity - policy.reserve, total, cuts)
            if chunk.used >= policy.split_threshold
            else []
        )
        if not bases:
            capacity = max(
                int(chunk.capacity * policy.growth_factor), total + policy.reserve
            )
            chunk.replace_tail(start, tail, capacity)
            self._bytes_moved += total  # realloc copies everything
            return RebuildResult("realloc", cid, total)

        view = memoryview(tail)
        head = bases[0]
        capacity = head + policy.reserve if head > chunk.capacity else 0
        chunk.replace_tail(start, view[: head - start], capacity)
        moved = len(tail) + (start if capacity else 0)
        index = self._order.index(cid)
        pieces = []
        for k, base in enumerate(bases):
            end = bases[k + 1] if k + 1 < len(bases) else total
            piece = view[base - start : end - start]
            index += 1
            fresh = self._new_chunk(
                max(policy.chunk_size, len(piece) + policy.reserve), index
            )
            fresh.append(piece)
            pieces.append((fresh.cid, base))
        self._bytes_moved += moved
        return RebuildResult("split", cid, moved, tuple(pieces))

    def _split_bases(
        self, first_limit: int, total: int, cuts: Sequence[int]
    ) -> List[int]:
        """Piece starts for splitting *total* bytes at *cuts*.

        Greedy: each piece takes the farthest cut that keeps it within
        its fill limit (the chunk's capacity less reserve for the first,
        the policy's soft limit for inserted chunks), or the nearest cut
        when none does.  Cut 0 is never used: the first piece stays in
        the rebuilt chunk.
        """
        bases: List[int] = []
        lo, limit = 0, first_limit
        while total - lo > limit:
            j = bisect_right(cuts, lo + limit) - 1
            if j < 0 or cuts[j] <= lo:
                j = bisect_right(cuts, lo)
                if j == len(cuts):
                    break
            lo = cuts[j]
            bases.append(lo)
            limit = self.policy.soft_limit
        return bases

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
        """Cumulative bytes copied by gaps, rebuilds and steals (stats)."""
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

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

``rebuild``
    Replace a chunk's bytes from some offset on with a rebuilt tail —
    every expansion (*shift*) of a send in that chunk at once.  When
    the chunk is full the buffer takes one of the two escape hatches
    §3.2 describes, decided once, for the chunk's final size: a
    **split** at field starts (when the chunk is past
    ``split_threshold``) or one **reallocation**.  The returned
    :class:`RebuildResult` names the pieces a split made.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.buffers.chunk import Chunk
from repro.buffers.config import ChunkPolicy
from repro.errors import BufferError_

__all__ = ["Location", "RebuildResult", "ChunkedBuffer"]


@dataclass(frozen=True, slots=True)
class Location:
    """A position inside a chunked buffer: ``(chunk id, offset)``."""

    cid: int
    offset: int


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
        #: Monotonic **layout epoch**: bumped once by every
        #: :meth:`rebuild` call with edits, however many chunks it
        #: rebuilds, reallocates or splits.  The delta encoder records the epoch with its
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

    def read_at(self, loc_cid: int, offset: int, length: int) -> bytes:
        """Copy *length* bytes out of a chunk (tests/deserializer)."""
        chunk = self.chunk(loc_cid)
        if offset < 0 or offset + length > chunk.used:
            raise BufferError_(
                f"read [{offset}:{offset + length}) outside chunk {loc_cid}"
            )
        return bytes(chunk.data[offset : offset + length])

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
        reallocated.
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
        """Cumulative bytes rebuilds wrote into chunk storage (stats)."""
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

"""The DUT table: NumPy structure-of-arrays over template entries.

Each entry corresponds to one serialized leaf value and carries the
paper's five fields (§3.1):

* ``type``   — index into :data:`repro.schema.types.PRIMITIVES`
  ("a pointer to a data structure that contains information about the
  data item's type, including the maximum size of its serialized
  form"),
* ``dirty``  — changed since last written into the message,
* location  — ``(chunk_id, value_off)``, a direct pointer into the
  serialized form (constant-time lookup),
* ``ser_len`` — characters currently used by the value,
* ``field_width`` — characters allocated to the value
  (``ser_len ≤ field_width`` always).

Entries are stored in document order, which gives two structural
facts the fix-up math exploits: entries of one chunk occupy a
contiguous index range, and ``value_off`` is strictly increasing
within that range.  A chunk rebuild therefore updates one contiguous
NumPy slice, and a split finds each piece's entries by binary search,
instead of scanning the whole table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.buffers.chunked import RebuildResult
from repro.errors import DUTError

__all__ = ["DUTTableBuilder", "DUTTable", "DUTEntryView"]

#: A builder column: a NumPy array, a sequence of ints, or (where a
#: column may be shared) one int.
Column = Union[np.ndarray, Sequence[int], int]

#: Per-entry builder columns, in :meth:`DUTTableBuilder.add_batch`
#: order, with their frozen dtypes (``chunk_id`` is one per batch).
_DTYPES = {
    "value_off": np.int64,
    "ser_len": np.int32,
    "field_width": np.int32,
    "type_id": np.int8,
    "close_len": np.int16,
}


@dataclass(frozen=True, slots=True)
class DUTEntryView:
    """A read-only snapshot of one DUT entry (tests/debugging)."""

    index: int
    chunk_id: int
    value_off: int
    ser_len: int
    field_width: int
    type_id: int
    close_len: int
    dirty: bool

    @property
    def slack(self) -> int:
        """Whitespace pad currently available in the field."""
        return self.field_width - self.ser_len

    @property
    def region_end_offset(self) -> int:
        """One past the field region: value + close tag + pad."""
        return self.value_off + self.field_width + self.close_len


class DUTTableBuilder:
    """Collects entry columns during initial serialization; then freezes.

    Each :meth:`add_batch` keeps its columns as given; :meth:`freeze`
    concatenates each column once.
    """

    def __init__(self) -> None:
        self._chunk_ids: List[int] = []
        self._counts: List[int] = []
        self._parts: Dict[str, List[Column]] = {name: [] for name in _DTYPES}

    def add(
        self,
        chunk_id: int,
        value_off: int,
        ser_len: int,
        field_width: int,
        type_id: int,
        close_len: int,
    ) -> int:
        """Append one entry; returns its index."""
        if ser_len > field_width:
            raise DUTError(
                f"ser_len {ser_len} exceeds field_width {field_width} at entry "
                f"{len(self)}"
            )
        self.add_batch(
            chunk_id, [value_off], [ser_len], [field_width], type_id, close_len
        )
        return len(self) - 1

    def add_batch(
        self,
        chunk_id: int,
        value_offs: Column,
        ser_lens: Column,
        field_widths: Column,
        type_id: Column,
        close_len: Column,
    ) -> None:
        """Bulk-append entries that share one chunk.

        The offset, length and width columns hold one value per entry;
        *type_id* and *close_len* are each one value shared by every
        entry or a per-entry column (struct arrays mix leaf types).
        ``ser_len <= field_width`` is checked once, at :meth:`freeze`.
        """
        n = len(value_offs)
        columns = (value_offs, ser_lens, field_widths, type_id, close_len)
        if any(np.ndim(c) and len(c) != n for c in columns):
            raise DUTError("add_batch column lengths differ")
        self._chunk_ids.append(chunk_id)
        self._counts.append(n)
        for parts, c in zip(self._parts.values(), columns):
            parts.append(c if np.ndim(c) else np.full(n, c))

    def __len__(self) -> int:
        return sum(self._counts)

    def freeze(self) -> "DUTTable":
        """Materialize the SoA columns (validates ser_len ≤ width)."""
        cols = {
            name: np.concatenate(parts, dtype=_DTYPES[name])
            if parts
            else np.zeros(0, _DTYPES[name])
            for name, parts in self._parts.items()
        }
        if bool((cols["ser_len"] > cols["field_width"]).any()):
            raise DUTError("freeze: some ser_len exceeds field_width")
        chunk_id = np.repeat(np.asarray(self._chunk_ids, np.int32), self._counts)
        return DUTTable(chunk_id=chunk_id, **cols)


class DUTTable:
    """Frozen structure-of-arrays DUT table (see module docstring)."""

    __slots__ = (
        "chunk_id",
        "value_off",
        "ser_len",
        "field_width",
        "type_id",
        "close_len",
        "dirty",
        "_ranges",
    )

    def __init__(
        self,
        chunk_id: np.ndarray,
        value_off: np.ndarray,
        ser_len: np.ndarray,
        field_width: np.ndarray,
        type_id: np.ndarray,
        close_len: np.ndarray,
    ) -> None:
        n = len(chunk_id)
        for name, col in (
            ("value_off", value_off),
            ("ser_len", ser_len),
            ("field_width", field_width),
            ("type_id", type_id),
            ("close_len", close_len),
        ):
            if len(col) != n:
                raise DUTError(f"column {name} length {len(col)} != {n}")
        self.chunk_id = chunk_id
        self.value_off = value_off
        self.ser_len = ser_len
        self.field_width = field_width
        self.type_id = type_id
        self.close_len = close_len
        self.dirty = np.zeros(n, dtype=bool)
        self._ranges: Dict[int, Tuple[int, int]] = {}
        self._rebuild_ranges()

    # ------------------------------------------------------------------
    # structure maintenance
    # ------------------------------------------------------------------
    def _rebuild_ranges(self) -> None:
        """Recompute the contiguous entry index range of each chunk.

        Vectorized: chunk transitions come from one ``diff`` over the
        id column instead of a Python scan (this runs on every
        template build).
        """
        self._ranges.clear()
        cids = self.chunk_id
        n = len(cids)
        if n == 0:
            return
        boundaries = np.flatnonzero(np.diff(cids)) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [n]))
        run_ids = cids[starts]
        for cid, lo, hi in zip(run_ids.tolist(), starts.tolist(), ends.tolist()):
            if cid in self._ranges:
                raise DUTError(
                    f"chunk {cid} entries are not contiguous in document order"
                )
            self._ranges[cid] = (lo, hi)

    def chunk_range(self, cid: int) -> Tuple[int, int]:
        """Entry index range ``[lo, hi)`` of chunk *cid* (may be empty)."""
        return self._ranges.get(cid, (0, 0))

    # ------------------------------------------------------------------
    # split fix-up
    # ------------------------------------------------------------------
    def apply_split(self, result: RebuildResult) -> None:
        """Move entries to the chunks a :meth:`ChunkedBuffer.rebuild`
        split off.

        Offsets must already be those of the rebuilt chunk: each
        piece's entries (found by one binary search) are rebased to the
        piece and take its chunk id and index range; the rebuilt chunk
        keeps the entries before the first piece.
        """
        if not result.pieces:
            return
        cid = result.cid
        lo, hi = self.chunk_range(cid)
        bases = [base for _, base in result.pieces]
        firsts = (
            lo + np.searchsorted(self.value_off[lo:hi], bases, side="left")
        ).tolist()
        firsts.append(hi)
        if firsts[0] == lo:
            self._ranges.pop(cid, None)
        else:
            self._ranges[cid] = (lo, firsts[0])
        for (new_cid, base), a, b in zip(result.pieces, firsts, firsts[1:]):
            if a == b:
                continue
            self.value_off[a:b] -= base
            self.chunk_id[a:b] = new_cid
            self._ranges[new_cid] = (a, b)

    # ------------------------------------------------------------------
    # dirty tracking
    # ------------------------------------------------------------------
    @property
    def any_dirty(self) -> bool:
        """Whether any entry needs re-serialization (content-match test)."""
        return bool(self.dirty.any())

    def dirty_indices(self, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
        """Indices of dirty entries within ``[lo, hi)``."""
        hi = len(self.dirty) if hi is None else hi
        return lo + np.flatnonzero(self.dirty[lo:hi])

    def mark_all_dirty(self) -> None:
        self.dirty[:] = True

    def clear_dirty(self, lo: int = 0, hi: Optional[int] = None) -> None:
        hi = len(self.dirty) if hi is None else hi
        self.dirty[lo:hi] = False

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.chunk_id)

    def entry(self, i: int) -> DUTEntryView:
        """Snapshot of entry *i*."""
        if not (0 <= i < len(self.chunk_id)):
            raise DUTError(f"entry index {i} out of range")
        return DUTEntryView(
            index=i,
            chunk_id=int(self.chunk_id[i]),
            value_off=int(self.value_off[i]),
            ser_len=int(self.ser_len[i]),
            field_width=int(self.field_width[i]),
            type_id=int(self.type_id[i]),
            close_len=int(self.close_len[i]),
            dirty=bool(self.dirty[i]),
        )

    def iter_entries(self) -> Iterator[DUTEntryView]:
        for i in range(len(self.chunk_id)):
            yield self.entry(i)

    @property
    def total_slack(self) -> int:
        """Whitespace currently stuffed across all fields."""
        return int((self.field_width - self.ser_len).sum())

    def validate(self) -> None:
        """Check the structural invariants (used by tests).

        * ``ser_len ≤ field_width`` everywhere,
        * entries of a chunk contiguous, offsets strictly increasing,
        * field regions within one chunk do not overlap.
        """
        if (self.ser_len > self.field_width).any():
            bad = int(np.flatnonzero(self.ser_len > self.field_width)[0])
            raise DUTError(f"entry {bad}: ser_len exceeds field_width")
        for cid, (lo, hi) in self._ranges.items():
            offs = self.value_off[lo:hi]
            if len(offs) > 1 and not (np.diff(offs) > 0).all():
                raise DUTError(f"chunk {cid}: value offsets not increasing")
            region_end = (
                self.value_off[lo:hi]
                + self.field_width[lo:hi]
                + self.close_len[lo:hi]
            )
            if len(offs) > 1 and (region_end[:-1] > offs[1:]).any():
                raise DUTError(f"chunk {cid}: overlapping field regions")

"""Per-entry Python-object DUT table — the ablation baseline.

A direct transcription of the paper's C design into Python objects:
one record per entry, linear scans for dirty entries.  Functionally
equivalent to the NumPy SoA
:class:`~repro.dut.table.DUTTable`; the ablation bench
(``benchmarks/bench_ablation_dut.py``) quantifies why the SoA layout
is the right Python implementation.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.errors import DUTError

__all__ = ["PyDUTEntry", "PyDUTTable"]


class PyDUTEntry:
    """One mutable DUT record (the paper's table row, literally)."""

    __slots__ = (
        "chunk_id",
        "value_off",
        "ser_len",
        "field_width",
        "type_id",
        "close_len",
        "dirty",
    )

    def __init__(
        self,
        chunk_id: int,
        value_off: int,
        ser_len: int,
        field_width: int,
        type_id: int,
        close_len: int,
    ) -> None:
        if ser_len > field_width:
            raise DUTError("ser_len exceeds field_width")
        self.chunk_id = chunk_id
        self.value_off = value_off
        self.ser_len = ser_len
        self.field_width = field_width
        self.type_id = type_id
        self.close_len = close_len
        self.dirty = False


class PyDUTTable:
    """List-of-objects DUT table with the same operations as the SoA one."""

    def __init__(self) -> None:
        self.entries: List[PyDUTEntry] = []

    def add(
        self,
        chunk_id: int,
        value_off: int,
        ser_len: int,
        field_width: int,
        type_id: int,
        close_len: int,
    ) -> int:
        self.entries.append(
            PyDUTEntry(chunk_id, value_off, ser_len, field_width, type_id, close_len)
        )
        return len(self.entries) - 1

    def __len__(self) -> int:
        return len(self.entries)

    # ------------------------------------------------------------------
    @property
    def any_dirty(self) -> bool:
        return any(e.dirty for e in self.entries)

    def dirty_indices(self) -> List[int]:
        return [i for i, e in enumerate(self.entries) if e.dirty]

    def mark_dirty(self, i: int) -> None:
        self.entries[i].dirty = True

    def clear_dirty(self) -> None:
        for e in self.entries:
            e.dirty = False

    # ------------------------------------------------------------------
    def iter_dirty(self) -> Iterator[Tuple[int, PyDUTEntry]]:
        for i, e in enumerate(self.entries):
            if e.dirty:
                yield i, e

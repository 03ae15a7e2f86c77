"""The paper's field expansion, value by value: a reference baseline.

When a new value outgrows its field, paper §3.2 widens the field one
of two ways:

* **shift** — move the chunk's tail right by the growth, once per
  expanding value;
* **steal** — find the nearest right-hand neighbour in the same chunk
  whose field has enough whitespace slack (``width − length``) and
  slide only the bytes between the two into that neighbour's pad,
  falling back to a shift when no neighbour within *scan_limit*
  entries can donate.

The runtime does neither: it plans a send and rebuilds each growing
chunk once (``repro.core.differential``, "Slow path").  This module
keeps the paper's two mechanisms over a copy of a template, so tests
can hold the runtime to the per-value result
(``tests/test_shift_rebuild.py``) and the stealing ablation can time
all three (``benchmarks/bench_ablation_stealing.py``).

The copy is the paper's data at its simplest: one ``bytearray`` per
chunk, in document order, per-entry chunk, length and width lists,
and an offset column.  It never reallocates or splits; a chunk's
``bytearray`` simply grows as its tail moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Tuple

import numpy as np

from repro.lexical.floats import FloatFormat

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.template import MessageTemplate

__all__ = ["PaperStats", "PaperTemplate", "pending_writes"]

#: One value write: ``(DUT entry, new lexical text)``.
Write = Tuple[int, bytes]


@dataclass(slots=True)
class PaperStats:
    """What :meth:`PaperTemplate.write` did, summed over its calls."""

    values_rewritten: int = 0
    #: Writes whose new length moved the closing tag.
    tag_shifts: int = 0
    #: Bytes blanked behind a shorter value.
    pad_bytes: int = 0
    #: Expansions made by moving the chunk tail.
    shifts: int = 0
    #: Expansions made from a neighbour's slack.
    steals: int = 0
    #: Bytes moved by shifts and steals.
    bytes_moved: int = 0

    @property
    def expansions(self) -> int:
        """Fields that outgrew their width."""
        return self.shifts + self.steals


def pending_writes(template: "MessageTemplate", fmt: FloatFormat) -> List[Write]:
    """The writes a rewrite of *template*'s dirty entries would make, in
    document order, with values formatted in *fmt*.  Reads the dirty
    bits and leaves them set."""
    writes: List[Write] = []
    for bp in template.params:
        idxs = template.dut.dirty_indices(bp.entry_base, bp.entry_end)
        texts = bp.tracked.lexical_for(idxs - bp.entry_base, fmt)
        writes.extend(zip(idxs.tolist(), texts))
    return writes


class PaperTemplate:
    """A template's bytes and DUT locations, expanded the paper's way.

    Built from a :class:`~repro.core.template.MessageTemplate` (its
    stale text rendered first); later writes touch only the copy.
    """

    def __init__(self, template: "MessageTemplate") -> None:
        template.render_stale()
        order = template.buffer.chunk_ids
        position = {cid: k for k, cid in enumerate(order)}
        self.chunks = [bytearray(template.buffer.chunk(cid).tobytes()) for cid in order]
        dut = template.dut
        self.chunk = [position[cid] for cid in dut.chunk_id.tolist()]
        #: A NumPy column, so a shift's offset fix-up is one C loop
        #: over the chunk's later entries, as in the paper's C.
        self.offset = dut.value_off.astype(np.int64)
        self.length = dut.ser_len.tolist()
        self.width = dut.field_width.tolist()
        self.close: List[bytes] = []
        for bp in template.params:
            tags = bp.close_tags
            self.close += [tags[k % bp.arity] for k in range(bp.leaf_count)]
        #: One past each chunk's last entry (entries of a chunk are
        #: contiguous in document order, and never change chunks here).
        self.chunk_end = [0] * len(order)
        for entry, k in enumerate(self.chunk):
            self.chunk_end[k] = entry + 1
        self.stats = PaperStats()

    # ------------------------------------------------------------------
    def write(
        self, entry: int, text: bytes, *, steal: bool = False, scan_limit: int = 8
    ) -> None:
        """Write *text* as *entry*'s value, widening its field first if
        it no longer fits: by stealing when *steal* and a donor lies
        within *scan_limit* following entries of its chunk, else by
        shifting the chunk tail."""
        n = len(text)
        width = self.width[entry]
        if n > width and not (steal and self._steal(entry, n - width, scan_limit)):
            self._shift(entry, n - width)
        data = self.chunks[self.chunk[entry]]
        off = int(self.offset[entry])
        old = self.length[entry]
        data[off : off + n] = text
        self.stats.values_rewritten += 1
        if n != old:
            close = self.close[entry]
            end = off + n + len(close)
            data[off + n : end] = close
            self.stats.tag_shifts += 1
            if n < old:
                # Blank the old value's remnant and old closing tag.
                data[end : end + old - n] = b" " * (old - n)
                self.stats.pad_bytes += old - n
            self.length[entry] = n

    def write_all(
        self, writes: Iterable[Write], *, steal: bool = False, scan_limit: int = 8
    ) -> None:
        """:meth:`write` each of *writes*, in order."""
        for entry, text in writes:
            self.write(entry, text, steal=steal, scan_limit=scan_limit)

    def _region_end(self, entry: int) -> int:
        return int(self.offset[entry]) + self.width[entry] + len(self.close[entry])

    def _shift(self, entry: int, delta: int) -> None:
        """Widen *entry* by *delta*: move its chunk's tail right."""
        k = self.chunk[entry]
        data = self.chunks[k]
        end = self._region_end(entry)
        self.stats.bytes_moved += len(data) - end
        data[end:end] = bytes(delta)
        self.offset[entry + 1 : self.chunk_end[k]] += delta
        self.width[entry] += delta
        self.stats.shifts += 1

    def _steal(self, entry: int, delta: int, scan_limit: int) -> bool:
        """Widen *entry* by *delta* from the nearest donor's pad;
        ``False`` (nothing moved) when no donor is in reach."""
        k = self.chunk[entry]
        for donor in range(entry + 1, min(self.chunk_end[k], entry + 1 + scan_limit)):
            if self.width[donor] - self.length[donor] >= delta:
                break
        else:
            return False
        data = self.chunks[k]
        start = self._region_end(entry)
        pad = int(self.offset[donor]) + self.length[donor] + len(self.close[donor])
        # Slide [start, pad) right by delta, over the donor's pad.
        data[start + delta : pad + delta] = data[start:pad]
        self.offset[entry + 1 : donor + 1] += delta
        self.width[entry] += delta
        self.width[donor] -= delta
        self.stats.steals += 1
        self.stats.bytes_moved += pad - start
        return True

    # ------------------------------------------------------------------
    def tobytes(self) -> bytes:
        """The whole document."""
        return b"".join(self.chunks)

    def doc_offsets(self) -> List[int]:
        """Each entry's value offset in the whole document."""
        prefix = [0] * len(self.chunks)
        for k in range(1, len(self.chunks)):
            prefix[k] = prefix[k - 1] + len(self.chunks[k - 1])
        return [prefix[k] + off for k, off in zip(self.chunk, self.offset.tolist())]

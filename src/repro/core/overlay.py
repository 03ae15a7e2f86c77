"""Chunk overlaying: bounded-memory sends of huge arrays (§3.3).

Instead of materializing the whole serialized array, an overlay
template keeps exactly one chunk's worth of serialized items (plus a
remainder chunk when the portion size does not divide the array).  A
send streams: envelope prefix → portion 0 → (rewrite values in place)
portion 1 → ... → remainder → envelope suffix.  Tags are written once
at build time and never again — the gain over plain HTTP chunking the
paper points out — but every value after the first portion must be
re-serialized on every send, which is why Figure 12 tracks the
100%-value-re-serialization curve.

Overlaying requires a fixed field layout: stuffed widths that no value
can outgrow.  A value wider than its field raises
:class:`~repro.errors.OverlayError` (shifting inside an overlay chunk
would desynchronize the portions).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.buffers.chunked import ChunkedBuffer
from repro.buffers.config import ChunkPolicy
from repro.core.policy import DiffPolicy, StuffMode
from repro.core.serializer import emit_primitive_items, emit_struct_items, make_tracked
from repro.core.stats import RewriteStats
from repro.dut.table import DUTTable, DUTTableBuilder
from repro.errors import OverlayError
from repro.lexical.floats import FloatFormat
from repro.schema.composite import ArrayType, StructType
from repro.schema.types import XSDType
from repro.soap.encoding import array_open_attrs
from repro.soap.envelope import envelope_layout
from repro.soap.message import SOAPMessage, structure_signature
from repro.core.serializer import _attrs_bytes  # shared attribute renderer

__all__ = ["OverlayTemplate", "build_overlay_template", "overlay_eligible"]


def overlay_eligible(message: SOAPMessage, policy: DiffPolicy) -> bool:
    """Whether *message* qualifies for overlaying under *policy*."""
    if not policy.overlay.enabled:
        return False
    if len(message.params) != 1:
        return False
    param = message.params[0]
    if not isinstance(param.ptype, ArrayType):
        return False
    if policy.stuffing.mode is StuffMode.NONE:
        return False
    element = param.ptype.element
    if isinstance(element, StructType):
        if element.max_width is None:
            return False
    elif not element.widths.stuffable:
        return False
    return param.length >= policy.overlay.min_items


class _Span:
    """One overlay span: a single-chunk buffer + its DUT + tag info.

    The span's layout is fixed (stuffed widths), so the DUT columns
    are flattened into plain Python lists once at construction and the
    per-portion rewrite loop runs over unboxed ints — this loop
    executes once per portion per send and dominates overlay cost.
    """

    __slots__ = (
        "buffer",
        "dut",
        "close_tags",
        "arity",
        "items",
        "length",
        "_offs",
        "_widths",
        "_clens",
        "_lens",
        "_data",
    )

    def __init__(
        self,
        buffer: ChunkedBuffer,
        dut: DUTTable,
        close_tags: Tuple[bytes, ...],
        arity: int,
        items: int,
    ) -> None:
        if buffer.num_chunks != 1:
            raise OverlayError(
                f"overlay span must occupy one chunk, got {buffer.num_chunks}"
            )
        self.buffer = buffer
        self.dut = dut
        self.close_tags = close_tags
        self.arity = arity
        self.items = items
        self.length = buffer.total_length
        self._offs: List[int] = dut.value_off.tolist()
        self._widths: List[int] = dut.field_width.tolist()
        self._clens: List[int] = dut.close_len.tolist()
        self._lens: List[int] = dut.ser_len.tolist()
        self._data = buffer.chunk(int(dut.chunk_id[0])).data

    def rewrite(self, texts: List[bytes], stats: RewriteStats) -> None:
        """Overwrite all values in this span with *texts* (fixed widths)."""
        data = self._data
        offs = self._offs
        widths = self._widths
        clens = self._clens
        lens = self._lens
        close_tags = self.close_tags
        arity = self.arity
        uniform = arity == 1
        close = close_tags[0]
        tag_shifts = 0
        pad_bytes = 0
        for k in range(len(texts)):
            text = texts[k]
            new_len = len(text)
            if new_len > widths[k]:
                raise OverlayError(
                    f"value of {new_len} chars exceeds fixed field width "
                    f"{widths[k]}; overlaying requires stuffed widths no "
                    "value can outgrow"
                )
            off = offs[k]
            end_v = off + new_len
            data[off:end_v] = text
            old_len = lens[k]
            if new_len != old_len:
                if not uniform:
                    close = close_tags[k % arity]
                clen = clens[k]
                data[end_v : end_v + clen] = close
                tag_shifts += 1
                if new_len < old_len:
                    gap = old_len - new_len
                    data[end_v + clen : end_v + clen + gap] = b" " * gap
                    pad_bytes += gap
                lens[k] = new_len
        stats.values_rewritten += len(texts)
        stats.tag_shifts += tag_shifts
        stats.pad_bytes += pad_bytes

    def view(self) -> memoryview:
        return self.buffer.views()[0]


class OverlayTemplate:
    """The overlay counterpart of a :class:`MessageTemplate`."""

    def __init__(
        self,
        signature,
        prefix: bytes,
        suffix: bytes,
        portion: _Span,
        tail: Optional[_Span],
        tracked,
        leaf_types: Tuple[XSDType, ...],
        n_items: int,
        fmt: FloatFormat,
    ) -> None:
        self.signature = signature
        self.prefix = prefix
        self.suffix = suffix
        self.portion = portion
        self.tail = tail
        self.tracked = tracked
        self.leaf_types = leaf_types
        self.n_items = n_items
        self.fmt = fmt
        self.sends = 0
        from repro.core.template import next_template_id

        self.template_id = next_template_id()
        #: A failed send marks the overlay suspect; since every overlay
        #: send restreams the full array anyway, recovery just rebuilds
        #: the template (see BSoapClient._send_overlay).
        self.suspect = False

    # ------------------------------------------------------------------
    @property
    def portion_items(self) -> int:
        return self.portion.items

    @property
    def full_portions(self) -> int:
        return self.n_items // self.portion.items

    @property
    def total_bytes(self) -> int:
        """Exact on-the-wire size of one send (fixed layout)."""
        total = len(self.prefix) + len(self.suffix)
        total += self.full_portions * self.portion.length
        if self.tail is not None:
            total += self.tail.length
        return total

    @property
    def resident_bytes(self) -> int:
        """Serialized bytes held in memory (the point of overlaying)."""
        total = len(self.prefix) + len(self.suffix) + self.portion.length
        if self.tail is not None:
            total += self.tail.length
        return total

    # ------------------------------------------------------------------
    def iter_send_views(
        self, stats: RewriteStats, obs=None
    ) -> Iterator[memoryview | bytes]:
        """Yield wire segments in order, rewriting the overlay chunk
        between yields.

        Consumers **must** copy (or fully transmit) each segment before
        advancing the iterator — the next step overwrites the chunk.
        An ``overlay`` span is traced once the full stream completes.
        """
        yield self.prefix
        arity = self.portion.arity
        per_portion = self.portion.items
        for p in range(self.full_portions):
            lo = p * per_portion * arity
            hi = lo + per_portion * arity
            texts = self.tracked.lexical_for(np.arange(lo, hi), self.fmt)
            self.portion.rewrite(texts, stats)
            yield self.portion.view()
        if self.tail is not None:
            lo = self.full_portions * per_portion * arity
            hi = self.n_items * arity
            texts = self.tracked.lexical_for(np.arange(lo, hi), self.fmt)
            self.tail.rewrite(texts, stats)
            yield self.tail.view()
        yield self.suffix
        self.sends += 1
        if obs is not None and obs.tracer.enabled:
            obs.tracer.emit(
                "overlay",
                template_id=self.template_id,
                portions=self.full_portions + (1 if self.tail is not None else 0),
                items=self.n_items,
                bytes=self.total_bytes,
                values=stats.values_rewritten,
            )


def _build_span(
    ptype: ArrayType,
    texts: List[bytes],
    items: int,
    policy: DiffPolicy,
) -> _Span:
    """Serialize *items* array items into a dedicated single chunk."""
    # Conservative single-chunk capacity: tags + max width per leaf.
    element = ptype.element
    arity = element.arity if isinstance(element, StructType) else 1
    if isinstance(element, StructType):
        max_leaf_width = sum(
            (f.xsd_type.widths.max_width or 64) for f in element.fields
        )
        tag_cost = len(ptype.item_tag) * 2 + 5 + sum(
            2 * len(f.name) + 5 for f in element.fields
        )
    else:
        max_leaf_width = element.widths.max_width or 64
        tag_cost = len(ptype.item_tag) * 2 + 5
    capacity = items * (tag_cost + max_leaf_width) + 1024

    buffer = ChunkedBuffer(ChunkPolicy(chunk_size=capacity, reserve=0))
    dutb = DUTTableBuilder()
    if isinstance(element, StructType):
        emit_struct_items(buffer, dutb, texts, element, ptype.item_tag, policy.stuffing)
        close_tags = tuple(
            b"</" + f.name.encode("ascii") + b">" for f in element.fields
        )
    else:
        emit_primitive_items(
            buffer, dutb, texts, ptype.item_tag, element, policy.stuffing
        )
        close_tags = (b"</" + ptype.item_tag.encode("ascii") + b">",)
    return _Span(buffer, dutb.freeze(), close_tags, arity, items)


def build_overlay_template(
    message: SOAPMessage, policy: DiffPolicy
) -> OverlayTemplate:
    """Build the overlay template for a single-array message."""
    if len(message.params) != 1 or not isinstance(message.params[0].ptype, ArrayType):
        raise OverlayError("overlaying supports exactly one array parameter")
    if policy.stuffing.mode is StuffMode.NONE:
        raise OverlayError("overlaying requires a stuffing policy (fixed widths)")

    param = message.params[0]
    ptype: ArrayType = param.ptype  # type: ignore[assignment]
    tracked = make_tracked(param)
    n_items = len(tracked)  # type: ignore[arg-type]
    arity = ptype.values_per_item

    element = ptype.element
    if isinstance(element, StructType):
        leaf_types = tuple(f.xsd_type for f in element.fields)
        item_tag_cost = len(ptype.item_tag) * 2 + 5 + sum(
            2 * len(f.name) + 5 for f in element.fields
        )
        width_sum = sum(
            policy.stuffing.width_for(f.xsd_type, f.xsd_type.widths.min_width)
            for f in element.fields
        )
    else:
        leaf_types = (element,)
        item_tag_cost = len(ptype.item_tag) * 2 + 5
        width_sum = policy.stuffing.width_for(element, element.widths.min_width)
    item_bytes = item_tag_cost + width_sum

    per_portion = min(n_items, policy.derived_portion_items(item_bytes))
    full = n_items // per_portion
    remainder = n_items - full * per_portion

    fmt = policy.float_format
    first_texts = tracked.lexical_for(np.arange(0, per_portion * arity), fmt)
    portion = _build_span(ptype, first_texts, per_portion, policy)

    tail: Optional[_Span] = None
    if remainder:
        tail_texts = tracked.lexical_for(
            np.arange(full * per_portion * arity, n_items * arity), fmt
        )
        tail = _build_span(ptype, tail_texts, remainder, policy)

    layout = envelope_layout(message.namespace, message.operation)
    attrs = array_open_attrs(ptype, n_items)
    prefix = (
        layout.prefix
        + b"<" + param.name.encode("ascii") + _attrs_bytes(attrs) + b">"
    )
    suffix = b"</" + param.name.encode("ascii") + b">" + layout.suffix

    return OverlayTemplate(
        signature=structure_signature(message),
        prefix=prefix,
        suffix=suffix,
        portion=portion,
        tail=tail,
        tracked=tracked,
        leaf_types=leaf_types,
        n_items=n_items,
        fmt=fmt,
    )

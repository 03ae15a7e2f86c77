"""The paper's chunk overlaying (§3.3): a reference baseline.

Instead of materializing the whole serialized array, an overlay
template keeps exactly one chunk's worth of serialized items (plus a
remainder chunk when the portion size does not divide the array).  A
send streams: envelope prefix → portion 0 → (rewrite values in place)
portion 1 → ... → remainder → envelope suffix.  Tags are written once
at build time and never again — the gain over plain HTTP chunking the
paper points out — but every value is re-serialized on every send,
which is why Figure 12 tracks the 100%-value-re-serialization curve.

Overlaying requires a fixed field layout: stuffed widths that no value
can outgrow.  A value wider than its field raises
:class:`~repro.errors.OverlayError` (shifting inside an overlay chunk
would desynchronize the portions).

The runtime client keeps one in-memory template per structure and
never overlays; :class:`OverlaySender` drives this baseline over any
transport for Figure 12 and the memory claim
(``tests/test_overlay.py``).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.baselines.common import attrs_bytes
from repro.buffers.chunked import ChunkedBuffer
from repro.buffers.config import ChunkPolicy
from repro.core.policy import DiffPolicy, StuffingPolicy, StuffMode
from repro.core.serializer import emit_primitive_items, emit_struct_items, make_tracked
from repro.core.stats import MatchKind, RewriteStats, SendReport
from repro.core.template import absorb_param
from repro.dut.table import DUTTable, DUTTableBuilder
from repro.errors import OverlayError
from repro.lexical.floats import FloatFormat
from repro.schema.composite import ArrayType, StructType
from repro.soap.encoding import array_open_attrs
from repro.soap.envelope import envelope_layout
from repro.soap.message import SOAPMessage, Signature, structure_signature
from repro.transport.base import Transport

__all__ = ["OverlayTemplate", "OverlaySender", "build_overlay_template"]


class _Span:
    """One overlay span: a single-chunk buffer + its DUT + tag info.

    The span's layout is fixed (stuffed widths), so the DUT columns
    are flattened into plain Python lists once at construction and the
    per-portion rewrite loop runs over unboxed ints — this loop
    executes once per portion per send and dominates overlay cost.
    """

    __slots__ = (
        "buffer",
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
    """One array message's overlay: envelope bytes around one (or two)
    reused spans, and the tracked values they are rewritten from."""

    def __init__(
        self,
        prefix: bytes,
        suffix: bytes,
        portion: _Span,
        tail: Optional[_Span],
        tracked,
        n_items: int,
        fmt: FloatFormat,
    ) -> None:
        self.prefix = prefix
        self.suffix = suffix
        self.portion = portion
        self.tail = tail
        self.tracked = tracked
        self.n_items = n_items
        self.fmt = fmt
        self.sends = 0

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

    def iter_send_views(self, stats: RewriteStats) -> Iterator[memoryview | bytes]:
        """Yield wire segments in order, rewriting the overlay chunk
        between yields.

        Consumers **must** copy (or fully transmit) each segment before
        advancing the iterator — the next step overwrites the chunk.
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


def _item_cost(ptype: ArrayType, stuffing: StuffingPolicy, widest: bool) -> int:
    """Bytes of one serialized item: its tags plus its fields at the
    stuffed width (*widest*: at each type's maximum width)."""
    element = ptype.element
    leaves = element.fields if isinstance(element, StructType) else ()
    tags = len(ptype.item_tag) * 2 + 5 + sum(2 * len(f.name) + 5 for f in leaves)
    types = [f.xsd_type for f in leaves] or [element]
    if widest:
        return tags + sum(t.widths.max_width or 64 for t in types)
    return tags + sum(stuffing.width_for(t, t.widths.min_width) for t in types)


def _build_span(
    ptype: ArrayType, texts: List[bytes], items: int, stuffing: StuffingPolicy
) -> _Span:
    """Serialize *items* array items into a dedicated single chunk."""
    capacity = items * _item_cost(ptype, stuffing, widest=True) + 1024
    buffer = ChunkedBuffer(ChunkPolicy(chunk_size=capacity, reserve=0))
    dutb = DUTTableBuilder()
    element = ptype.element
    if isinstance(element, StructType):
        emit_struct_items(buffer, dutb, texts, element, ptype.item_tag, stuffing)
        close_tags = tuple(
            b"</" + f.name.encode("ascii") + b">" for f in element.fields
        )
        arity = element.arity
    else:
        emit_primitive_items(buffer, dutb, texts, ptype.item_tag, element, stuffing)
        close_tags = (b"</" + ptype.item_tag.encode("ascii") + b">",)
        arity = 1
    return _Span(buffer, dutb.freeze(), close_tags, arity, items)


def build_overlay_template(message: SOAPMessage, policy: DiffPolicy) -> OverlayTemplate:
    """Build the overlay template for a single-array message.

    A portion holds as many items as the policy's chunk soft limit
    fits (at least one).
    """
    if len(message.params) != 1 or not isinstance(message.params[0].ptype, ArrayType):
        raise OverlayError("overlaying supports exactly one array parameter")
    if policy.stuffing.mode is StuffMode.NONE:
        raise OverlayError("overlaying requires a stuffing policy (fixed widths)")
    param = message.params[0]
    ptype: ArrayType = param.ptype  # type: ignore[assignment]
    element = ptype.element
    if isinstance(element, StructType):
        if element.max_width is None:
            raise OverlayError("overlaying requires fields of bounded width")
    elif not element.widths.stuffable:
        raise OverlayError(f"overlaying cannot stuff {element.name} items")

    tracked = make_tracked(param)
    n_items = len(tracked)  # type: ignore[arg-type]
    if n_items == 0:
        raise OverlayError("overlaying needs a non-empty array")
    arity = ptype.values_per_item
    item_bytes = _item_cost(ptype, policy.stuffing, widest=False)
    per_portion = min(n_items, max(1, policy.chunk.soft_limit // max(1, item_bytes)))
    full = n_items // per_portion

    fmt = policy.float_format
    first_texts = tracked.lexical_for(np.arange(0, per_portion * arity), fmt)
    portion = _build_span(ptype, first_texts, per_portion, policy.stuffing)
    tail: Optional[_Span] = None
    rest = n_items - full * per_portion
    if rest:
        tail_texts = tracked.lexical_for(
            np.arange(full * per_portion * arity, n_items * arity), fmt
        )
        tail = _build_span(ptype, tail_texts, rest, policy.stuffing)

    layout = envelope_layout(message.namespace, message.operation)
    name = param.name.encode("ascii")
    prefix = (
        layout.prefix
        + b"<" + name + attrs_bytes(array_open_attrs(ptype, n_items)) + b">"
    )
    suffix = b"</" + name + b">" + layout.suffix
    return OverlayTemplate(prefix, suffix, portion, tail, tracked, n_items, fmt)


class OverlaySender:
    """Sends each single-array message through its structure's overlay
    template over any :class:`~repro.transport.base.Transport`.

    The first send of a structure builds the template; later sends
    take in the new values and restream every portion.  A failed send
    needs no recovery: the next one rewrites every value anyway.
    """

    def __init__(self, transport: Transport, policy: DiffPolicy) -> None:
        self.transport = transport
        self.policy = policy
        self.templates: Dict[Signature, OverlayTemplate] = {}

    def send(self, message: SOAPMessage) -> SendReport:
        """Stream *message*; the report counts the values rewritten."""
        signature = structure_signature(message)
        overlay = self.templates.get(signature)
        first = overlay is None
        if overlay is None:
            overlay = build_overlay_template(message, self.policy)
            self.templates[signature] = overlay
        else:
            absorb_param(overlay.tracked, message.params[0])
        stats = RewriteStats()
        sent = self.transport.send_message(
            overlay.iter_send_views(stats), overlay.total_bytes
        )
        return SendReport(
            match_kind=MatchKind.FIRST_TIME if first else MatchKind.PERFECT_STRUCTURAL,
            bytes_sent=sent,
            rewrite=stats,
            num_chunks=1,
        )

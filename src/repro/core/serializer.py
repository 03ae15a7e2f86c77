"""Full serialization: building message templates.

This is the paper's "first-time send" path: the message is serialized
from scratch into a chunked buffer while a DUT table is recorded
alongside it.  The per-item emitters are also reused by the chunk
overlay (which serializes one portion at a time through these same
routines).

Layout produced for every leaf value (see DESIGN.md §4)::

    <tag>VALUE</tag>PAD

with ``len(VALUE) + len(PAD) == field_width`` — pad lives *between*
the closing tag and the following markup, which is the layout whose
closing-tag-shift cost the paper measures.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.buffers.chunked import ChunkedBuffer
from repro.core.policy import DiffPolicy
from repro.core.template import BoundParam, MessageTemplate, Tracked
from repro.dut.table import DUTTableBuilder
from repro.dut.tracked import (
    TrackedArray,
    TrackedScalar,
    TrackedStringArray,
    TrackedStructArray,
)
from repro.errors import TemplateError
from repro.lexical.floats import FloatFormat
from repro.schema.composite import ArrayType, StructType
from repro.schema.types import STRING, XSDType
from repro.soap.encoding import array_open_attrs, xsi_type_attr
from repro.soap.envelope import envelope_layout
from repro.soap.message import Parameter, SOAPMessage, structure_signature
from repro.xmlkit.escape import escape_attr

__all__ = ["build_template", "make_tracked", "emit_primitive_items", "emit_struct_items"]

#: Pre-built whitespace pads (indexed by pad length).  Field widths are
#: bounded by the widest primitive (24) plus headroom for FIXED modes.
_PAD_CACHE: Tuple[bytes, ...] = tuple(b" " * i for i in range(129))


def _pad(n: int) -> bytes:
    if n < len(_PAD_CACHE):
        return _PAD_CACHE[n]
    return b" " * n


def _attrs_bytes(attrs: dict) -> bytes:
    parts = []
    for key, value in attrs.items():
        parts.append(
            b" " + key.encode("ascii") + b'="'
            + escape_attr(value.encode("utf-8")) + b'"'
        )
    return b"".join(parts)


# ----------------------------------------------------------------------
# tracked-value construction
# ----------------------------------------------------------------------
def make_tracked(param: Parameter) -> Tracked:
    """Wrap a parameter's value in the appropriate tracked object.

    Values that already *are* tracked objects are used as-is, which is
    how applications keep a handle they mutate between sends.
    """
    ptype, value = param.ptype, param.value
    if isinstance(
        value, (TrackedArray, TrackedStructArray, TrackedScalar, TrackedStringArray)
    ):
        return value
    if isinstance(ptype, ArrayType):
        element = ptype.element
        if isinstance(element, StructType):
            if isinstance(value, dict):
                return TrackedStructArray(value, element)
            return TrackedStructArray.from_records(value, element)  # type: ignore[arg-type]
        if element is STRING:
            return TrackedStringArray(value)  # type: ignore[arg-type]
        return TrackedArray(value, element)  # type: ignore[arg-type]
    if isinstance(ptype, StructType):
        # Scalar struct == struct array of length one.
        if isinstance(value, dict):
            return TrackedStructArray({k: [v] for k, v in value.items()}, ptype)
        return TrackedStructArray.from_records([value], ptype)
    return TrackedScalar(value, ptype)


# ----------------------------------------------------------------------
# item emitters (shared with the overlay builder)
# ----------------------------------------------------------------------
def emit_primitive_items(
    buffer: ChunkedBuffer,
    dutb: DUTTableBuilder,
    texts: Sequence[bytes],
    item_tag: str,
    xsd_type: XSDType,
    width_for: Callable[[XSDType, int], int],
) -> None:
    """Emit ``<item>VAL</item>PAD`` for each lexical value.

    Items are packed into chunk-sized batches: one buffer append and
    one bulk DUT extend per batch, so the per-item cost is the join
    plus a little offset arithmetic — this keeps bSOAP full
    serialization competitive with the streaming baseline, as in the
    paper.
    """
    open_item = b"<" + item_tag.encode("ascii") + b">"
    close_item = b"</" + item_tag.encode("ascii") + b">"
    open_len = len(open_item)
    clen = len(close_item)
    fixed = open_len + clen
    tid = xsd_type.type_id
    batch_limit = max(buffer.policy.soft_limit, 1)
    pad = _pad

    # Fast path: when the stuffing policy is the identity for this
    # type (no pad anywhere), a whole batch is one join and its DUT
    # offsets one cumulative sum — the serializer's hottest loop.
    probe = max(1, xsd_type.widths.min_width)
    if width_for(xsd_type, probe) == probe:
        _emit_primitive_items_unstuffed(
            buffer, dutb, texts, open_item, close_item, tid, batch_limit
        )
        return

    parts: List[bytes] = []
    rel_offs: List[int] = []
    lens: List[int] = []
    widths: List[int] = []
    cursor = 0

    def flush() -> None:
        nonlocal parts, rel_offs, lens, widths, cursor
        if not parts:
            return
        loc = buffer.append(b"".join(parts))
        base = loc.offset
        dutb.add_batch(
            loc.cid, [base + r for r in rel_offs], lens, widths, tid, clen
        )
        parts = []
        rel_offs = []
        lens = []
        widths = []
        cursor = 0

    for text in texts:
        n = len(text)
        width = width_for(xsd_type, n)
        padding = width - n
        if padding:
            parts.append(open_item + text + close_item + pad(padding))
        else:
            parts.append(open_item + text + close_item)
        rel_offs.append(cursor + open_len)
        lens.append(n)
        widths.append(width)
        cursor += fixed + width
        if cursor >= batch_limit:
            flush()
    flush()


def _emit_primitive_items_unstuffed(
    buffer: ChunkedBuffer,
    dutb: DUTTableBuilder,
    texts: Sequence[bytes],
    open_item: bytes,
    close_item: bytes,
    tid: int,
    batch_limit: int,
) -> None:
    """Zero-pad emission: ``field_width == ser_len`` for every item.

    Builds each chunk-sized batch as ``open + sep.join(values) +
    close`` (one allocation) and derives all value offsets from one
    NumPy cumulative sum, keeping bSOAP full serialization within
    range of the streaming baseline (the paper reports them close).
    """
    open_len = len(open_item)
    fixed = open_len + len(close_item)
    clen = len(close_item)
    sep = close_item + open_item
    lens = list(map(len, texts))

    def flush(a: int, b: int) -> None:
        if a >= b:
            return
        blob = open_item + sep.join(texts[a:b]) + close_item
        loc = buffer.append(blob)
        batch_lens = np.asarray(lens[a:b], dtype=np.int64)
        offs = np.empty(b - a, dtype=np.int64)
        offs[0] = loc.offset + open_len
        if b - a > 1:
            np.cumsum(batch_lens[:-1] + fixed, out=offs[1:])
            offs[1:] += offs[0]
        lens_list = lens[a:b]
        dutb.add_batch(loc.cid, offs.tolist(), lens_list, lens_list, tid, clen)

    start = 0
    cursor = 0
    for i, n in enumerate(lens):
        cursor += fixed + n
        if cursor >= batch_limit:
            flush(start, i + 1)
            start = i + 1
            cursor = 0
    flush(start, len(lens))


def emit_struct_items(
    buffer: ChunkedBuffer,
    dutb: DUTTableBuilder,
    texts: Sequence[bytes],
    struct: StructType,
    item_tag: str,
    width_for: Callable[[XSDType, int], int],
) -> None:
    """Emit ``<mio><x>V</x>PAD<y>V</y>PAD<v>V</v>PAD</mio>`` items.

    *texts* is the flattened item-major leaf list (``n * arity``).
    """
    arity = struct.arity
    if len(texts) % arity:
        raise TemplateError("struct leaf count not divisible by arity")
    item_open = b"<" + item_tag.encode("ascii") + b">"
    item_close = b"</" + item_tag.encode("ascii") + b">"
    field_opens = [b"<" + f.name.encode("ascii") + b">" for f in struct.fields]
    field_closes = [b"</" + f.name.encode("ascii") + b">" for f in struct.fields]
    field_types = [f.xsd_type for f in struct.fields]

    # Fast path: identity stuffing for every field → batch join +
    # vectorized offsets (see the primitive twin above).
    if all(
        width_for(t, max(1, t.widths.min_width)) == max(1, t.widths.min_width)
        for t in field_types
    ):
        _emit_struct_items_unstuffed(
            buffer,
            dutb,
            texts,
            item_open,
            item_close,
            field_opens,
            field_closes,
            field_types,
            max(buffer.policy.soft_limit, 1),
        )
        return

    field_open_lens = [len(fo) for fo in field_opens]
    field_close_lens = [len(fc) for fc in field_closes]
    type_ids = [t.type_id for t in field_types]
    item_open_len = len(item_open)
    item_close_len = len(item_close)
    batch_limit = max(buffer.policy.soft_limit, 1)
    pad = _pad
    n_items = len(texts) // arity

    # Batched emission: build item byte strings and leaf offsets, then
    # one append + one bulk DUT extend per chunk-sized batch.
    parts: List[bytes] = []
    rel_offs: List[int] = []
    lens: List[int] = []
    widths: List[int] = []
    batch_tids: List[int] = []
    batch_clens: List[int] = []
    cursor = 0

    def flush() -> None:
        nonlocal parts, rel_offs, lens, widths, batch_tids, batch_clens, cursor
        if not parts:
            return
        loc = buffer.append(b"".join(parts))
        base = loc.offset
        dutb.add_batch_mixed(
            loc.cid,
            [base + r for r in rel_offs],
            lens,
            widths,
            batch_tids,
            batch_clens,
        )
        parts = []
        rel_offs = []
        lens = []
        widths = []
        batch_tids = []
        batch_clens = []
        cursor = 0

    for i in range(n_items):
        item_parts: List[bytes] = [item_open]
        pos = cursor + item_open_len
        base = i * arity
        for f in range(arity):
            text = texts[base + f]
            ftype = field_types[f]
            L = len(text)
            width = width_for(ftype, L)
            item_parts.append(field_opens[f])
            item_parts.append(text)
            item_parts.append(field_closes[f])
            padding = width - L
            if padding:
                item_parts.append(pad(padding))
            rel_offs.append(pos + field_open_lens[f])
            lens.append(L)
            widths.append(width)
            batch_tids.append(type_ids[f])
            batch_clens.append(field_close_lens[f])
            pos += field_open_lens[f] + width + field_close_lens[f]
        item_parts.append(item_close)
        parts.append(b"".join(item_parts))
        cursor = pos + item_close_len
        if cursor >= batch_limit:
            flush()
    flush()


def _emit_struct_items_unstuffed(
    buffer: ChunkedBuffer,
    dutb: DUTTableBuilder,
    texts: Sequence[bytes],
    item_open: bytes,
    item_close: bytes,
    field_opens: List[bytes],
    field_closes: List[bytes],
    field_types: List[XSDType],
    batch_limit: int,
) -> None:
    """Zero-pad struct emission: one join + one cumsum per batch.

    A batch's byte pieces are assembled with strided slice assignment
    into a repeated per-item pattern (``<mio><x>•</x><y>•</y><v>•</v>
    </mio>`` with ``•`` holes), then joined once.  Leaf offsets follow
    from a cumulative sum of value lengths plus the constant tag
    geometry.
    """
    arity = len(field_opens)
    fo_lens = [len(b) for b in field_opens]
    fc_lens = [len(b) for b in field_closes]
    tids = [t.type_id for t in field_types]
    item_open_len = len(item_open)
    tag_overhead = item_open_len + len(item_close) + sum(fo_lens) + sum(fc_lens)

    # Per-item piece pattern with text holes.
    pattern: List[bytes] = [item_open]
    for f in range(arity):
        pattern.extend((field_opens[f], b"", field_closes[f]))
    pattern.append(item_close)
    pieces_per_item = len(pattern)

    # Constant byte distance from leaf f's value end to leaf f+1's
    # value start (wrapping across the item boundary for the last).
    next_gap = [fc_lens[f] + fo_lens[f + 1] for f in range(arity - 1)]
    next_gap.append(fc_lens[-1] + len(item_close) + item_open_len + fo_lens[0])

    lens = list(map(len, texts))
    n_items = len(texts) // arity
    gaps = np.tile(np.asarray(next_gap, dtype=np.int64), n_items)

    # Batch boundaries by serialized size.
    item_sizes = np.asarray(lens, dtype=np.int64).reshape(n_items, arity).sum(axis=1)
    item_sizes += tag_overhead

    def flush(a: int, b: int) -> None:
        if a >= b:
            return
        count = b - a
        pieces = pattern * count
        for f in range(arity):
            pieces[1 + 3 * f + 1 :: pieces_per_item] = texts[
                a * arity + f : b * arity : arity
            ]
        loc = buffer.append(b"".join(pieces))
        leaf_lo = a * arity
        leaf_hi = b * arity
        batch_lens = np.asarray(lens[leaf_lo:leaf_hi], dtype=np.int64)
        offs = np.empty(count * arity, dtype=np.int64)
        offs[0] = loc.offset + item_open_len + fo_lens[0]
        if len(offs) > 1:
            np.cumsum(batch_lens[:-1] + gaps[leaf_lo : leaf_hi - 1], out=offs[1:])
            offs[1:] += offs[0]
        lens_list = lens[leaf_lo:leaf_hi]
        dutb.add_batch_mixed(
            loc.cid,
            offs.tolist(),
            lens_list,
            lens_list,
            tids * count,
            fc_lens * count,
        )

    start = 0
    cursor = 0
    for i in range(n_items):
        cursor += int(item_sizes[i])
        if cursor >= batch_limit:
            flush(start, i + 1)
            start = i + 1
            cursor = 0
    flush(start, n_items)


def _emit_param(
    buffer: ChunkedBuffer,
    dutb: DUTTableBuilder,
    param: Parameter,
    tracked: Tracked,
    policy: DiffPolicy,
) -> BoundParam:
    """Serialize one parameter, returning its binding record."""
    width_for = policy.stuffing.width_for
    fmt = policy.float_format
    entry_base = len(dutb)
    name = param.name
    ptype = param.ptype

    if isinstance(ptype, ArrayType):
        length = len(tracked)  # type: ignore[arg-type]
        attrs = array_open_attrs(ptype, length)
        buffer.append(
            b"<" + name.encode("ascii") + _attrs_bytes(attrs) + b">"
        )
        texts = tracked.lexical_all(fmt)
        if isinstance(ptype.element, StructType):
            emit_struct_items(buffer, dutb, texts, ptype.element, ptype.item_tag, width_for)
            arity = ptype.element.arity
            close_tags = tuple(
                b"</" + f.name.encode("ascii") + b">" for f in ptype.element.fields
            )
            leaf_types = tuple(f.xsd_type for f in ptype.element.fields)
        else:
            emit_primitive_items(
                buffer, dutb, texts, ptype.item_tag, ptype.element, width_for
            )
            arity = 1
            close_tags = (b"</" + ptype.item_tag.encode("ascii") + b">",)
            leaf_types = (ptype.element,)
        buffer.append(b"</" + name.encode("ascii") + b">")
        leaf_count = length * arity

    elif isinstance(ptype, StructType):
        attrs = {"xsi:type": f"ns:{ptype.name}"}
        buffer.append(b"<" + name.encode("ascii") + _attrs_bytes(attrs) + b">")
        texts = tracked.lexical_all(fmt)
        # A scalar struct is a single "item" whose container is the
        # parameter element itself, so emit fields inline.
        arity = ptype.arity
        field_opens = [b"<" + f.name.encode("ascii") + b">" for f in ptype.fields]
        field_closes = [b"</" + f.name.encode("ascii") + b">" for f in ptype.fields]
        for f_pos, f in enumerate(ptype.fields):
            text = texts[f_pos]
            L = len(text)
            width = width_for(f.xsd_type, L)
            loc = buffer.append(
                field_opens[f_pos] + text + field_closes[f_pos] + _pad(width - L)
            )
            dutb.add(
                loc.cid,
                loc.offset + len(field_opens[f_pos]),
                L,
                width,
                f.xsd_type.type_id,
                len(field_closes[f_pos]),
            )
        buffer.append(b"</" + name.encode("ascii") + b">")
        close_tags = tuple(field_closes)
        leaf_types = tuple(f.xsd_type for f in ptype.fields)
        leaf_count = arity

    else:  # scalar primitive
        attr_name, attr_value = xsi_type_attr(ptype)
        open_tag = (
            b"<" + name.encode("ascii")
            + _attrs_bytes({attr_name: attr_value}) + b">"
        )
        close_tag = b"</" + name.encode("ascii") + b">"
        text = tracked.lexical_all(fmt)[0]
        L = len(text)
        width = width_for(ptype, L)
        loc = buffer.append(open_tag + text + close_tag + _pad(width - L))
        dutb.add(
            loc.cid, loc.offset + len(open_tag), L, width, ptype.type_id, len(close_tag)
        )
        close_tags = (close_tag,)
        leaf_types = (ptype,)
        arity = 1
        leaf_count = 1

    return BoundParam(
        name=name,
        ptype=ptype,
        tracked=tracked,
        entry_base=entry_base,
        leaf_count=leaf_count,
        arity=arity,
        close_tags=close_tags,
        leaf_types=leaf_types,
    )


def _bind_dirty_views(template: MessageTemplate) -> None:
    """Attach DUT dirty-column views to each tracked object."""
    dirty = template.dut.dirty
    for bp in template.params:
        view = dirty[bp.entry_base : bp.entry_end]
        if isinstance(bp.tracked, TrackedStructArray):
            view = view.reshape(-1, bp.arity)
        bp.tracked.bind_dirty(view)


def build_template(
    message: SOAPMessage,
    policy: Optional[DiffPolicy] = None,
    *,
    buffer: Optional[ChunkedBuffer] = None,
    obs=None,
) -> MessageTemplate:
    """Fully serialize *message* and return the reusable template.

    This is the complete first-time-send cost: envelope emission, one
    lexical conversion per leaf value, tag emission, buffer packing,
    and DUT construction.  *obs* (an
    :class:`~repro.obs.Observability`) gets a ``serialize`` span — and
    a ``stuff`` span when the policy pads fields — with the build
    duration and template geometry attached.
    """
    policy = policy or DiffPolicy()
    tracing = obs is not None and obs.tracer.enabled
    if tracing:
        from time import perf_counter

        t0 = perf_counter()
    buffer = buffer or ChunkedBuffer(policy.chunk)
    dutb = DUTTableBuilder()

    layout = envelope_layout(message.namespace, message.operation)
    buffer.append(layout.prefix)

    bound: List[BoundParam] = []
    for param in message.params:
        tracked = make_tracked(param)
        bound.append(_emit_param(buffer, dutb, param, tracked, policy))

    buffer.append(layout.suffix)

    template = MessageTemplate(
        signature=structure_signature(message),
        buffer=buffer,
        dut=dutb.freeze(),
        params=bound,
    )
    _bind_dirty_views(template)
    if tracing:
        duration = perf_counter() - t0
        dut = template.dut
        obs.tracer.emit(
            "serialize",
            duration_s=duration,
            template_id=template.template_id,
            operation=message.operation,
            entries=len(dut),
            bytes=template.total_bytes,
            chunks=buffer.num_chunks,
        )
        pad_bytes = int((dut.field_width - dut.ser_len).sum()) if len(dut) else 0
        if pad_bytes:
            obs.tracer.emit(
                "stuff",
                template_id=template.template_id,
                mode=policy.stuffing.mode.value,
                pad_bytes=pad_bytes,
            )
    return template

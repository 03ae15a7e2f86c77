"""Full serialization: building message templates.

This is the paper's "first-time send" path: the message is serialized
from scratch into a chunked buffer while a DUT table is recorded
alongside it.  The item emitters are also reused by the chunk-overlay
baseline (:mod:`repro.baselines.paper_overlay`, which serializes one
portion at a time through these same routines).

Layout produced for every leaf value (see DESIGN.md §4)::

    <tag>VALUE</tag>PAD

with ``len(VALUE) + len(PAD) == field_width`` — pad lives *between*
the closing tag and the following markup, which is the layout whose
closing-tag-shift cost the paper measures.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.buffers.chunked import ChunkedBuffer
from repro.core.policy import DiffPolicy, StuffingPolicy
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

def _open(name: str) -> bytes:
    return b"<" + name.encode("ascii") + b">"


def _close(name: str) -> bytes:
    return b"</" + name.encode("ascii") + b">"


def _attrs_bytes(attrs: dict) -> bytes:
    # Kept apart from ``baselines.common.attrs_bytes`` on purpose: the
    # baselines are the wire oracles' reference, so they share no code
    # with the runtime they check.
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
# item emitters (shared with the overlay baseline)
# ----------------------------------------------------------------------
def emit_primitive_items(
    buffer: ChunkedBuffer,
    dutb: DUTTableBuilder,
    texts: Sequence[bytes],
    item_tag: str,
    xsd_type: XSDType,
    stuffing: StuffingPolicy,
) -> None:
    """Emit ``<item>VAL</item>PAD`` for each lexical value."""
    _emit_items(buffer, dutb, texts, b"", b"", [item_tag], [xsd_type], stuffing)


def emit_struct_items(
    buffer: ChunkedBuffer,
    dutb: DUTTableBuilder,
    texts: Sequence[bytes],
    struct: StructType,
    item_tag: str,
    stuffing: StuffingPolicy,
) -> None:
    """Emit ``<mio><x>V</x>PAD<y>V</y>PAD<v>V</v>PAD</mio>`` items.

    *texts* is the flattened item-major leaf list (``n * arity``).
    """
    _emit_items(
        buffer,
        dutb,
        texts,
        _open(item_tag),
        _close(item_tag),
        [f.name for f in struct.fields],
        [f.xsd_type for f in struct.fields],
        stuffing,
    )


def _emit_items(
    buffer: ChunkedBuffer,
    dutb: DUTTableBuilder,
    texts: Sequence[bytes],
    item_open: bytes,
    item_close: bytes,
    names: List[str],
    types: List[XSDType],
    stuffing: StuffingPolicy,
) -> None:
    """Emit items of ``len(types)`` leaves each, a column at a time.

    Field widths come from the stuffing rule applied to each field's
    length column; a width equal to the length is simply a field with
    no pad.  Value offsets come from one cumulative sum over the item
    sizes, and a batch closes at the first item whose running size
    reaches the chunk's soft limit (one ``searchsorted`` per batch).
    Each batch is one buffer append built by one ``join``: the bytes
    between two values (close tag, pad, next open tag) depend only on
    the field and its pad length, so they are looked up in a small
    table, and an unstuffed or uniformly padded primitive batch needs
    a single separator.
    """
    arity = len(types)
    if len(texts) % arity:
        raise TemplateError("struct leaf count not divisible by arity")
    n = len(texts) // arity
    opens = [_open(name) for name in names]
    closes = [_close(name) for name in names]
    lens = np.fromiter(map(len, texts), np.int32, len(texts)).reshape(n, arity)
    # The rule runs even with no items, so a bad FIXED width always raises.
    widths = np.column_stack(
        [stuffing.widths_for(t, lens[:, f]) for f, t in enumerate(types)]
    )
    if n == 0:
        return

    # Byte geometry, relative to the start of the whole item run.
    regions = widths + [len(o) + len(c) for o, c in zip(opens, closes)]
    item_sizes = regions.sum(axis=1) + (len(item_open) + len(item_close))
    ends = np.cumsum(item_sizes, dtype=np.int64)
    value_rel = (
        (ends - item_sizes + len(item_open))[:, None]
        + (np.cumsum(regions, axis=1) - regions + [len(o) for o in opens])
    ).ravel()

    pads = (widths - lens).ravel()
    follow = opens[1:] + [item_close + item_open + opens[0]]
    gaps = [
        closes[f] + b" " * p + follow[f]
        for p in range(int(pads.max()) + 1)
        for f in range(arity)
    ]
    codes = (pads.reshape(n, arity) * arity + np.arange(arity)).ravel()
    head = item_open + opens[0]
    lens = lens.ravel()
    widths = widths.ravel()
    tids = np.tile(np.array([t.type_id for t in types], np.int8), n)
    clens = np.tile(np.array([len(c) for c in closes], np.int16), n)

    limit = max(buffer.policy.soft_limit, 1)
    a = base = 0
    while a < n:
        b = min(int(np.searchsorted(ends, base + limit)) + 1, n)
        lo, hi = a * arity, b * arity
        last = int(pads[hi - 1])
        tail = closes[-1] + b" " * last + item_close
        if arity == 1 and bool((pads[lo:hi] == last).all()):
            blob = head + gaps[last].join(texts[lo:hi]) + tail
        else:
            pieces = [b""] * (2 * (hi - lo) - 1)
            pieces[0::2] = texts[lo:hi]
            pieces[1::2] = map(gaps.__getitem__, codes[lo : hi - 1].tolist())
            blob = head + b"".join(pieces) + tail
        loc = buffer.append(blob)
        dutb.add_batch(
            loc.cid,
            value_rel[lo:hi] + (loc.offset - base),
            lens[lo:hi],
            widths[lo:hi],
            tids[lo:hi],
            clens[lo:hi],
        )
        base = int(ends[b - 1])
        a = b


def _emit_param(
    buffer: ChunkedBuffer,
    dutb: DUTTableBuilder,
    param: Parameter,
    tracked: Tracked,
    policy: DiffPolicy,
) -> BoundParam:
    """Serialize one parameter, returning its binding record."""
    stuffing = policy.stuffing
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
            emit_struct_items(
                buffer, dutb, texts, ptype.element, ptype.item_tag, stuffing
            )
            arity = ptype.element.arity
            close_tags = tuple(_close(f.name) for f in ptype.element.fields)
            leaf_types = tuple(f.xsd_type for f in ptype.element.fields)
        else:
            emit_primitive_items(
                buffer, dutb, texts, ptype.item_tag, ptype.element, stuffing
            )
            arity = 1
            close_tags = (_close(ptype.item_tag),)
            leaf_types = (ptype.element,)
        buffer.append(_close(name))
        leaf_count = length * arity

    elif isinstance(ptype, StructType):
        attrs = {"xsi:type": f"ns:{ptype.name}"}
        buffer.append(b"<" + name.encode("ascii") + _attrs_bytes(attrs) + b">")
        texts = tracked.lexical_all(fmt)
        # A scalar struct is a single "item" whose container is the
        # parameter element itself, so emit fields inline.
        arity = ptype.arity
        field_opens = [_open(f.name) for f in ptype.fields]
        field_closes = [_close(f.name) for f in ptype.fields]
        for f_pos, f in enumerate(ptype.fields):
            text = texts[f_pos]
            L = len(text)
            width = stuffing.width_for(f.xsd_type, L)
            loc = buffer.append(
                field_opens[f_pos] + text + field_closes[f_pos] + b" " * (width - L)
            )
            dutb.add(
                loc.cid,
                loc.offset + len(field_opens[f_pos]),
                L,
                width,
                f.xsd_type.type_id,
                len(field_closes[f_pos]),
            )
        buffer.append(_close(name))
        close_tags = tuple(field_closes)
        leaf_types = tuple(f.xsd_type for f in ptype.fields)
        leaf_count = arity

    else:  # scalar primitive
        attr_name, attr_value = xsi_type_attr(ptype)
        open_tag = (
            b"<" + name.encode("ascii")
            + _attrs_bytes({attr_name: attr_value}) + b">"
        )
        close_tag = _close(name)
        text = tracked.lexical_all(fmt)[0]
        L = len(text)
        width = stuffing.width_for(ptype, L)
        loc = buffer.append(open_tag + text + close_tag + b" " * (width - L))
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
    buffer = ChunkedBuffer(policy.chunk)
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

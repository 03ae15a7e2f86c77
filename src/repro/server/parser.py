"""Schema-guided SOAP request parsing (the full-deserialization baseline).

The parser builds a light element tree from the scanner's event
stream, then decodes the RPC body into typed values: NumPy arrays for
numeric array parameters, column dicts for struct arrays, Python
scalars otherwise.

A parameter whose start tag declares ``arrayType="xsd:double[N]"`` is
consumed by the **leaf-run lane** (:func:`_scan_double_run`) instead of
``4N`` scanner events: NumPy finds the ``2N`` item tags, proves every
tag and pad byte, and batch-converts the values; the scanner resumes
at the array's end tag.  The lane never raises — on any doubt it
declines and the events parse the same element from the same position,
so the generic path remains the only source of errors (see
``docs/skipscan.md``, "The full parse's leaf-run lane").

Crucially for differential deserialization, it also records the **raw
byte span of every leaf value** (including any whitespace stuffing
inside the span's tail) in document order, plus enough layout to
update any leaf in place later — the server-side mirror of the DUT
table.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ReproError, ResourceLimitError, SOAPError
from repro.hardening.limits import DEFAULT_LIMITS, ResourceLimits
from repro.lexical.floats import (
    WS_LUT,
    gather_rows,
    parse_double_column,
    whitespace_run_ends,
)
from repro.schema.composite import StructType
from repro.schema.registry import TypeRegistry
from repro.schema.types import DOUBLE, XSDType, primitive_by_name
from repro.soap.encoding import parse_array_type_attr
from repro.xmlkit.scanner import (
    Characters,
    EndElement,
    StartElement,
    XMLScanner,
)

__all__ = [
    "SOAPRequestParser", "DecodedMessage", "DecodedParam", "ParseResult", "LaneProof",
]


def _leaf_from_text(xsd_type: XSDType, text: str):
    """Decode a leaf from *scanner-decoded* text.

    The scanner has already resolved entity references, so string
    leaves are taken verbatim (re-running ``STRING.parse`` would
    double-unescape); numeric/boolean leaves go through their lexical
    parser on the ASCII bytes.
    """
    if xsd_type.np_dtype is None:  # string
        return text
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError:
        raise SOAPError(
            f"non-ASCII text in {xsd_type.name!r} leaf: {text[:40]!r}"
        ) from None
    return xsd_type.parse(raw)


_LT = 0x3C  # b"<"
_GT = 0x3E  # b">"

#: Widest item value the leaf-run lane gathers.  No double lexical form
#: the tree writes exceeds 25 bytes; a longer value is left to the
#: events, so the batch parse has at most this many length groups.
_RUN_MAX_VALUE_BYTES = 32

#: Item tag names the lane recognizes.  Far narrower than what the
#: scanner accepts as a name — anything else takes the events.
_RUN_ITEM_NAME = re.compile(rb"[A-Za-z_][A-Za-z0-9_.:-]*")


@dataclass(slots=True)
class _LeafRun:
    """A whole array body decoded in bulk by :func:`_scan_double_run`."""

    values: np.ndarray  # (N,) float64
    spans: np.ndarray  # (N, 2) int64 value spans, document offsets
    regions: np.ndarray  # (N, 2) int64 field regions, document offsets
    tag: Optional[bytes]  # the items' closing tag without its '>'; None if N == 0
    end: int  # offset of the array's own end tag


def _scan_double_run(
    data: bytes, pos: int, parent: bytes, count: int, max_token: int
) -> Optional[_LeafRun]:
    """Decode ``count`` double items starting at ``data[pos]`` in bulk.

    Accepts exactly ``count`` repetitions of ``<name>value</name>pad``
    (one attribute-free item name, whitespace-only pads) running up to
    the first ``</parent``, every byte of every tag and pad compared,
    every value inside :func:`parse_double_column`'s contract.  Returns
    ``None`` — having raised nothing and touched nothing — for
    anything else; the caller then reads the same bytes as events.

    The tiling also yields each item's field region (see
    :meth:`SOAPRequestParser._field_regions`): its value, closing tag
    and whitespace pad, up to the next item's ``<`` or, for the last
    item, to ``</parent``.
    """
    end = data.find(b"</" + parent, pos)
    if end < 0:
        return None
    if count == 0:
        if end != pos:
            return None
        none = np.empty((0, 2), dtype=np.int64)
        return _LeafRun(np.empty(0, dtype=np.float64), none, none, None, end)
    # The first item names the tag (bounded like any scanner token).
    gt = data.find(b">", pos, min(end, pos + max_token + 2))
    if gt < 0 or data[pos] != _LT:
        return None
    name = data[pos + 1 : gt]
    if _RUN_ITEM_NAME.fullmatch(name) is None:
        return None
    open_tag = np.frombuffer(b"<" + name + b">", dtype=np.uint8)
    close_tag = np.frombuffer(b"</" + name + b">", dtype=np.uint8)

    # Tile the body: the 2N '<' bytes alternate item open / item close.
    body = np.frombuffer(data, dtype=np.uint8, count=end - pos, offset=pos)
    lt = np.flatnonzero(body == _LT)
    if lt.size != 2 * count:
        return None
    opens, closes = lt[0::2], lt[1::2]
    vstart = opens + open_tag.size
    vlen = closes - vstart
    nexts = np.append(opens[1:], body.size)
    pad = nexts - closes - close_tag.size
    if (
        opens[0] != 0
        or int(vlen.min()) < 1
        or int(pad.min()) < 0
        or int(vlen.max()) > _RUN_MAX_VALUE_BYTES
        or not bool(np.all(gather_rows(body, opens, open_tag.size) == open_tag))
        or not bool(np.all(gather_rows(body, closes, close_tag.size) == close_tag))
    ):
        return None

    # Pads: the tags hold no whitespace, so whitespace outside the
    # values is whitespace in the pads — all of them, or it is text.
    # A value's count fits a uint8 accumulator (at most 32 bytes), which
    # spares reduceat a cast of the whole body to a wider type.
    spans = np.stack([vstart, closes], axis=1)
    ws = WS_LUT.take(body)
    inside = np.add.reduceat(ws.view(np.uint8), spans.ravel(), dtype=np.uint8)[0::2]
    if np.count_nonzero(ws) - int(inside.sum()) != int(pad.sum()):
        return None
    values = parse_double_column(body, vstart, vlen)
    if values is None:
        return None
    regions = np.stack([vstart, nexts], axis=1)
    return _LeafRun(values, spans + pos, regions + pos, b"</" + name, end)


#: Seals :class:`LaneProof`: only this module's lane bookkeeping holds it.
_LANE_SEAL = object()


class LaneProof:
    """What the leaf-run lane proved about every leaf of one parse.

    Every leaf came from a lane run and every run's items close with
    ``tag + b">"``: each region is the leaf's value, that closing tag
    and pad the lane's tiling proved whitespace, up to the region's
    end.  :meth:`~repro.schema.skipscan.SeekTable.compile` takes its
    one closing tag from here instead of gathering every tag and
    scanning the document for whitespace again.  Only the parser
    constructs one (the constructor wants a module-private seal), and
    it holds for the document and the arrays it was proven on alone:
    :meth:`covers` compares identity, and the arrays are frozen.
    """

    __slots__ = ("data", "spans", "regions", "tag")

    def __init__(
        self, seal: object, data: bytes, spans: np.ndarray, regions: np.ndarray, tag: bytes
    ) -> None:
        if seal is not _LANE_SEAL:
            raise TypeError("only the leaf-run lane constructs a LaneProof")
        spans.flags.writeable = regions.flags.writeable = False
        self.data, self.spans, self.regions, self.tag = data, spans, regions, tag

    def covers(self, data: bytes, spans: np.ndarray, regions: np.ndarray) -> bool:
        """Whether this proof was made for exactly these objects (and
        the document is immutable ``bytes``, so still what was proven)."""
        return (
            data is self.data
            and type(data) is bytes
            and spans is self.spans
            and regions is self.regions
        )


@dataclass(slots=True)
class _Node:
    """One parsed element: name, attrs, children, text + raw text span."""

    name: str
    attrs: Dict[str, str]
    children: List["_Node"]
    text: str
    span: Optional[Tuple[int, int]]  # raw byte span of the text content
    run: Optional[_LeafRun] = None  # the children, when the lane took them

    @property
    def local(self) -> str:
        return self.name.rsplit(":", 1)[-1]


@dataclass(slots=True)
class DecodedParam:
    """One decoded parameter."""

    name: str
    kind: str  # "array" | "struct_array" | "scalar"
    value: object
    element_type: Optional[Union[XSDType, StructType]] = None


@dataclass(slots=True)
class DecodedMessage:
    """The logical content of a parsed RPC request."""

    operation: str
    params: List[DecodedParam] = field(default_factory=list)

    def param(self, name: str) -> DecodedParam:
        for p in self.params:
            if p.name == name:
                return p
        raise SOAPError(f"decoded message has no parameter {name!r}")

    def value(self, name: str):
        return self.param(name).value


@dataclass(slots=True)
class _ParamLayout:
    """Leaf → storage mapping for in-place differential updates."""

    param: DecodedParam
    leaf_base: int
    leaf_count: int
    arity: int
    leaf_types: Tuple[XSDType, ...]
    field_names: Tuple[str, ...]  # empty for primitive arrays/scalars


class ParseResult:
    """Full-parse output: message + leaf spans + in-place setters."""

    def __init__(
        self,
        message: DecodedMessage,
        spans: np.ndarray,
        layouts: List[_ParamLayout],
        regions: Optional[np.ndarray] = None,
        lane_proof: Optional[LaneProof] = None,
    ) -> None:
        self.message = message
        #: (k, 2) int64 array of raw value-text spans, document order.
        self.spans = spans
        #: (k, 2) int64 array of *field-region* spans: value + closing
        #: tag + trailing whitespace pad.  All bytes that may legally
        #: change when only this leaf's value changes fall inside its
        #: region — what differential deserialization diffs against.
        self.regions = regions if regions is not None else spans
        #: The lane's proof of one closing tag for every leaf, if any.
        self.lane_proof = lane_proof
        self._layouts = layouts
        self._bases = [l.leaf_base for l in layouts]

    @property
    def leaf_count(self) -> int:
        return int(self.spans.shape[0])

    @property
    def layouts(self) -> List[_ParamLayout]:
        """Per-parameter leaf→storage layouts (document order).

        Read-only for consumers like the skip-scan
        :class:`~repro.schema.skipscan.SeekTable`, which compiles its
        vectorized commit arrays from ``leaf_base`` / ``leaf_count`` /
        ``param`` here.
        """
        return self._layouts

    def leaf_type(self, j: int) -> XSDType:
        layout = self._layout_for(j)
        return layout.leaf_types[(j - layout.leaf_base) % layout.arity]

    def _layout_for(self, j: int) -> _ParamLayout:
        return self._layouts[bisect_right(self._bases, j) - 1]

    def load_leaf(self, j: int) -> object:
        """The decoded value of leaf *j* (the inverse of :meth:`store_leaf`)."""
        layout = self._layout_for(j)
        local = j - layout.leaf_base
        param = layout.param
        if param.kind == "array":
            return param.value[local]  # type: ignore[index]
        if param.kind == "struct_array":
            name = layout.field_names[local % layout.arity]
            return param.value[name][local // layout.arity]  # type: ignore[index]
        return param.value

    def store_leaf(self, j: int, value: object) -> None:
        """Store an already-parsed leaf value in place.

        The skip-scan commit phase: the value was produced by
        :meth:`leaf_type`'s lexical parser earlier (two-phase
        parse-then-commit, so a mid-batch parse failure never leaves
        the decode half-updated).
        """
        layout = self._layout_for(j)
        local = j - layout.leaf_base
        item = local // layout.arity
        fpos = local % layout.arity
        param = layout.param
        if param.kind == "array":
            param.value[item] = value  # type: ignore[index]
        elif param.kind == "struct_array":
            param.value[layout.field_names[fpos]][item] = value  # type: ignore[index]
        else:
            param.value = value


#: One parameter's leaf value spans: ``(start, end)`` pairs from the
#: tree, or the ``(N, 2)`` array a leaf run already holds.
_Spans = Union[List[Tuple[int, int]], np.ndarray]


class _Frame:
    """Mutable per-element state during the iterative tree build."""

    __slots__ = ("start", "children", "text_parts", "span", "run")

    def __init__(self, start: StartElement) -> None:
        self.start = start
        self.children: List[_Node] = []
        self.text_parts: List[str] = []
        self.span: Optional[Tuple[int, int]] = None
        self.run: Optional[_LeafRun] = None


class SOAPRequestParser:
    """Parses SOAP 1.1 RPC requests against a type registry.

    *limits* (default :data:`~repro.hardening.DEFAULT_LIMITS`) bounds
    body size, nesting depth, element/attribute counts, and token
    lengths; crossing any of them raises
    :class:`~repro.errors.ResourceLimitError` (a
    :class:`~repro.errors.SOAPError`, so services answer with a
    Client fault).
    """

    def __init__(
        self,
        registry: Optional[TypeRegistry] = None,
        limits: Optional[ResourceLimits] = None,
    ) -> None:
        self.registry = registry or TypeRegistry()
        self.limits = limits if limits is not None else DEFAULT_LIMITS

    # ------------------------------------------------------------------
    # tree building
    # ------------------------------------------------------------------
    def _build_tree(self, data: bytes, *, runs: bool) -> _Node:
        """Build the element tree with an explicit stack.

        Iterative on purpose: nesting depth is attacker-controlled, so
        the build must never recurse (a 10k-deep document would
        otherwise die with ``RecursionError`` instead of faulting).
        The scanner enforces ``limits`` incrementally as events are
        pulled.  With *runs*, an element at parameter depth may hand
        its children to the leaf-run lane (:meth:`_leaf_run`).
        """
        if len(data) > self.limits.max_body_bytes:
            raise ResourceLimitError(
                f"body of {len(data)} bytes exceeds "
                f"max_body_bytes={self.limits.max_body_bytes}",
                "max_body_bytes",
            )
        scanner = XMLScanner(data, keep_whitespace=True, limits=self.limits)
        stack: List[_Frame] = []
        root: Optional[_Node] = None
        for ev in scanner:
            kind = type(ev)
            if kind is StartElement:
                frame = _Frame(ev)
                # Envelope > Body > operation > parameter: the only
                # depth whose elements ``_decode_param`` ever reads.
                if runs and len(stack) == 3 and not ev.self_closing:
                    frame.run = self._leaf_run(data, scanner, ev)
                stack.append(frame)
            elif not stack:
                continue  # prolog / epilog comments and PIs
            elif kind is EndElement:
                frame = stack.pop()
                span = frame.span
                if span is None and not frame.children:
                    # Empty leaf: zero-length span at the close tag.
                    off = ev.offset if ev.offset >= 0 else 0
                    span = (off, off)
                node = _Node(
                    frame.start.name,
                    dict(frame.start.attrs),
                    frame.children,
                    "".join(frame.text_parts),
                    span,
                    frame.run,
                )
                if stack:
                    stack[-1].children.append(node)
                else:
                    # Keep pulling: trailing garbage must still raise.
                    root = node
            elif kind is Characters:
                frame = stack[-1]
                frame.text_parts.append(ev.text)
                # The run ends where the next event starts.
                frame.span = (
                    frame.span[0] if frame.span else ev.offset,
                    scanner.position,
                )
        if root is None:
            raise SOAPError("no root element")
        return root

    def _array_decl(
        self, attrs: Dict[str, str]
    ) -> Optional[Tuple[Union[XSDType, StructType], Optional[int]]]:
        """``(element type, declared length)`` of an ``arrayType`` attribute."""
        for key, value in attrs.items():
            if key.rsplit(":", 1)[-1] == "arrayType":
                type_name, declared = parse_array_type_attr(value)
                return self._resolve_type(type_name), declared
        return None

    def _leaf_run(
        self, data: bytes, scanner: XMLScanner, start: StartElement
    ) -> Optional[_LeafRun]:
        """Take the children of *start* in bulk, or decline.

        Declines (``None``, scanner untouched) unless *start* declares
        a double array with a length, :func:`_scan_double_run` proves
        its body, and the scanner's limits have room for the items.
        """
        try:
            decl = self._array_decl(start.attrs)
        except ReproError:
            return None  # ``_decode_param`` raises it, in its own turn
        if decl is None or decl[0] is not DOUBLE or decl[1] is None:
            return None
        run = _scan_double_run(
            data,
            scanner.position,
            start.name.encode("utf-8"),
            decl[1],
            self.limits.max_token_bytes,
        )
        if run is None or not scanner.skip_leaf_children(run.end, decl[1]):
            return None
        return run

    # ------------------------------------------------------------------
    # typed decoding
    # ------------------------------------------------------------------
    def parse(self, data: bytes) -> ParseResult:
        """Full parse: decode the message and record all leaf spans."""
        return self._decode(data, self._build_tree(data, runs=True))

    def _parse_generic(self, data: bytes) -> ParseResult:
        """:meth:`parse` with every element read as scanner events.

        The authority the leaf-run lane defers to, and the oracle its
        tests compare against; nothing in ``src/`` selects it.
        """
        return self._decode(data, self._build_tree(data, runs=False))

    def _decode(self, data: bytes, root: _Node) -> ParseResult:
        if root.local != "Envelope":
            raise SOAPError(f"root element is {root.name!r}, expected Envelope")
        body = self._child_by_local(root, "Body")
        if body is None or not body.children:
            raise SOAPError("missing or empty SOAP Body")
        op_node = body.children[0]
        message = DecodedMessage(operation=op_node.local)

        leaf_count = 0
        spans: List[np.ndarray] = []
        layouts: List[_ParamLayout] = []
        runs: List[Optional[_LeafRun]] = []
        for pnode in op_node.children:
            param, (layout, param_spans) = self._decode_param(pnode, leaf_count)
            message.params.append(param)
            layouts.append(layout)
            spans.append(np.asarray(param_spans, dtype=np.int64).reshape(-1, 2))
            runs.append(pnode.run)
            leaf_count += layout.leaf_count
        span_arr = (
            np.concatenate(spans) if spans else np.empty((0, 2), dtype=np.int64)
        )
        # The lane's regions for its leaves; the events' leaves alone
        # are searched for theirs.
        regions = span_arr.copy()
        events = np.ones(span_arr.shape[0], dtype=bool)
        at = 0
        for s, run in zip(spans, runs):
            if run is not None:
                regions[at : at + s.shape[0]] = run.regions
                events[at : at + s.shape[0]] = False
            at += s.shape[0]
        proof = None
        if bool(events.any()):
            regions[events] = self._field_regions(data, span_arr[events])
        else:
            # Runs of no items, and event-read params of no leaves, have
            # no closing tag to share.
            tags = {run.tag for run in runs if run is not None} - {None}
            if len(tags) == 1:
                proof = LaneProof(_LANE_SEAL, data, span_arr, regions, tags.pop())
        return ParseResult(message, span_arr, layouts, regions, proof)

    @staticmethod
    def _field_regions(data: bytes, spans: np.ndarray) -> np.ndarray:
        """Extend each value span to its full field region.

        The region runs from the value start through the closing tag
        and any whitespace stuffing, up to the next markup byte —
        mirroring the sender-side DUT field layout.
        """
        if spans.shape[0] == 0:
            return spans
        regions = spans.copy()
        buf = np.frombuffer(data, dtype=np.uint8)
        # The closing tag ends at the first '>' at or after the value.
        gts = np.flatnonzero(buf == _GT)
        k = np.searchsorted(gts, spans[:, 1])
        closed = k < gts.size  # else malformed: keep the text span
        if not bool(closed.any()):
            return regions
        after = gts[np.minimum(k, gts.size - 1)] + 1
        regions[:, 1] = np.where(
            closed, whitespace_run_ends(buf, after), spans[:, 1]
        )
        return regions

    @staticmethod
    def _child_by_local(node: _Node, local: str) -> Optional[_Node]:
        for child in node.children:
            if child.local == local:
                return child
        return None

    def _resolve_type(self, prefixed: str) -> Union[XSDType, StructType]:
        local = prefixed.rsplit(":", 1)[-1]
        resolved = self.registry.lookup(local) if local in self.registry else None
        if resolved is None:
            resolved = primitive_by_name(local)
        if isinstance(resolved, (XSDType, StructType)):
            return resolved
        raise SOAPError(f"type {prefixed!r} is not usable as an element type")

    def _decode_param(
        self, node: _Node, leaf_base: int
    ) -> Tuple[DecodedParam, Tuple[_ParamLayout, _Spans]]:
        attrs = node.attrs
        array_decl = self._array_decl(attrs)
        if array_decl is not None:
            element, declared = array_decl
            if isinstance(element, StructType):
                return self._decode_struct_array(node, element, declared, leaf_base)
            return self._decode_primitive_array(node, element, declared, leaf_base)

        xsi = None
        for key, value in attrs.items():
            if key.rsplit(":", 1)[-1] == "type":
                xsi = value
                break
        if xsi is not None and xsi.rsplit(":", 1)[-1] in self.registry:
            maybe = self.registry.lookup(xsi.rsplit(":", 1)[-1])
            if isinstance(maybe, StructType):
                return self._decode_scalar_struct(node, maybe, leaf_base)
        element = self._resolve_type(xsi) if xsi else primitive_by_name("string")
        if isinstance(element, StructType):
            return self._decode_scalar_struct(node, element, leaf_base)
        value = _leaf_from_text(element, node.text)
        param = DecodedParam(node.local, "scalar", value, element)
        span = node.span or (0, 0)
        layout = _ParamLayout(param, leaf_base, 1, 1, (element,), ())
        return param, (layout, [span])

    def _decode_primitive_array(
        self, node: _Node, element: XSDType, declared: Optional[int], leaf_base: int
    ) -> Tuple[DecodedParam, Tuple[_ParamLayout, _Spans]]:
        run = node.run
        if run is not None:  # the lane proved count, type and values
            param = DecodedParam(node.local, "array", run.values, element)
            layout = _ParamLayout(
                param, leaf_base, len(run.values), 1, (element,), ()
            )
            return param, (layout, run.spans)
        items = node.children
        if declared is not None and declared != len(items):
            raise SOAPError(
                f"arrayType declared {declared} items, found {len(items)}"
            )
        spans: List[Tuple[int, int]] = []
        item_texts: List[str] = []
        for item in items:
            item_texts.append(item.text)
            spans.append(item.span or (0, 0))
        values = [_leaf_from_text(element, t) for t in item_texts]
        if element.np_dtype is not None:
            container: object = np.asarray(values, dtype=element.np_dtype)
        else:
            container = values
        param = DecodedParam(node.local, "array", container, element)
        layout = _ParamLayout(param, leaf_base, len(items), 1, (element,), ())
        return param, (layout, spans)

    def _decode_struct_array(
        self, node: _Node, struct: StructType, declared: Optional[int], leaf_base: int
    ) -> Tuple[DecodedParam, Tuple[_ParamLayout, List[Tuple[int, int]]]]:
        items = node.children
        if declared is not None and declared != len(items):
            raise SOAPError(
                f"arrayType declared {declared} items, found {len(items)}"
            )
        arity = struct.arity
        fields = struct.fields
        cols: Dict[str, List[object]] = {f.name: [] for f in fields}
        spans: List[Tuple[int, int]] = []
        for item in items:
            if len(item.children) != arity:
                raise SOAPError(
                    f"struct item has {len(item.children)} fields, expected {arity}"
                )
            for f, child in zip(fields, item.children):
                if child.local != f.name:
                    raise SOAPError(
                        f"struct field {child.local!r} does not match schema "
                        f"field {f.name!r}"
                    )
                cols[f.name].append(_leaf_from_text(f.xsd_type, child.text))
                spans.append(child.span or (0, 0))
        columns: Dict[str, object] = {}
        for f in fields:
            if f.xsd_type.np_dtype is not None:
                columns[f.name] = np.asarray(cols[f.name], dtype=f.xsd_type.np_dtype)
            else:
                columns[f.name] = cols[f.name]
        param = DecodedParam(node.local, "struct_array", columns, struct)
        layout = _ParamLayout(
            param,
            leaf_base,
            len(items) * arity,
            arity,
            tuple(f.xsd_type for f in fields),
            tuple(f.name for f in fields),
        )
        return param, (layout, spans)

    def _decode_scalar_struct(
        self, node: _Node, struct: StructType, leaf_base: int
    ) -> Tuple[DecodedParam, Tuple[_ParamLayout, List[Tuple[int, int]]]]:
        arity = struct.arity
        if len(node.children) != arity:
            raise SOAPError("scalar struct field count mismatch")
        columns: Dict[str, object] = {}
        spans: List[Tuple[int, int]] = []
        for f, child in zip(struct.fields, node.children):
            if child.local != f.name:
                raise SOAPError(f"unexpected struct field {child.local!r}")
            value = _leaf_from_text(f.xsd_type, child.text)
            columns[f.name] = (
                np.asarray([value], dtype=f.xsd_type.np_dtype)
                if f.xsd_type.np_dtype is not None
                else [value]
            )
            spans.append(child.span or (0, 0))
        param = DecodedParam(node.local, "struct_array", columns, struct)
        layout = _ParamLayout(
            param,
            leaf_base,
            arity,
            arity,
            tuple(f.xsd_type for f in struct.fields),
            tuple(f.name for f in struct.fields),
        )
        return param, (layout, spans)

"""Pull-based XML scanner (tokenizer with well-formedness checks).

The server side of the reproduction needs a real parser: the paper's
dummy server does not parse, but §6's *differential deserialization*
and the baseline full deserializer do.  The scanner is written around
``bytes.find`` so the common path (long character-data runs between
tags, as in big numeric arrays) touches each byte once.

It supports the XML subset SOAP messages use: elements, attributes,
character data, comments, processing instructions, CDATA sections and
the five predefined entities plus numeric character references.
DOCTYPE is rejected (SOAP forbids it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import ResourceLimitError, XMLSyntaxError
from repro.hardening.limits import ResourceLimits
from repro.xmlkit.escape import XML_WHITESPACE, unescape

__all__ = [
    "StartElement",
    "EndElement",
    "Characters",
    "Comment",
    "ProcessingInstruction",
    "Event",
    "XMLScanner",
    "parse_document",
    "decode_utf8",
]

_WS = frozenset(XML_WHITESPACE)
_NAME_END = frozenset(b" \t\r\n/>=")


def decode_utf8(data: bytes, pos: int = -1) -> str:
    """Decode *data* as UTF-8, mapping failure to :class:`XMLSyntaxError`.

    Untrusted wires routinely contain invalid byte sequences; those
    must surface as a malformed-document error (→ SOAP Fault), never
    as a raw :class:`UnicodeDecodeError` escaping the parse.
    """
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise XMLSyntaxError(f"invalid UTF-8: {exc.reason}", pos) from None


@dataclass(frozen=True, slots=True)
class StartElement:
    """``<name attr="v" ...>`` (also emitted for self-closing tags)."""

    name: str
    attrs: Dict[str, str] = field(default_factory=dict)
    self_closing: bool = False
    offset: int = -1


@dataclass(frozen=True, slots=True)
class EndElement:
    """``</name>`` (also synthesized right after a self-closing start)."""

    name: str
    offset: int = -1


@dataclass(frozen=True, slots=True)
class Characters:
    """A run of character data with entities resolved."""

    text: str
    offset: int = -1


@dataclass(frozen=True, slots=True)
class Comment:
    """``<!-- ... -->``."""

    text: str
    offset: int = -1


@dataclass(frozen=True, slots=True)
class ProcessingInstruction:
    """``<?target data?>`` (includes the XML declaration)."""

    target: str
    data: str
    offset: int = -1


Event = Union[StartElement, EndElement, Characters, Comment, ProcessingInstruction]


def parse_start_tag_at(
    data: bytes, pos: int, *, limits: Optional[ResourceLimits] = None
) -> Tuple[str, Dict[str, str], bool, int]:
    """Parse a start tag beginning at ``data[pos] == b'<'``.

    Returns ``(name, attrs, self_closing, end_pos)``; raises
    :class:`XMLSyntaxError` on malformed or truncated input and
    :class:`~repro.errors.ResourceLimitError` when *limits* bound the
    token length or attribute count and the tag exceeds them.
    """
    max_token = limits.max_token_bytes if limits is not None else None
    max_attrs = limits.max_attributes if limits is not None else None
    n = len(data)
    i = pos + 1
    start = i
    while i < n and data[i] not in _NAME_END:
        i += 1
    if i == start:
        raise XMLSyntaxError("empty element name", pos)
    if max_token is not None and i - start > max_token:
        raise ResourceLimitError(
            f"element name exceeds max_token_bytes={max_token}",
            "max_token_bytes",
        )
    name = decode_utf8(data[start:i], pos)

    attrs: Dict[str, str] = {}
    self_closing = False
    while True:
        while i < n and data[i] in _WS:
            i += 1
        if i >= n:
            raise XMLSyntaxError("unterminated start tag", pos)
        byte = data[i]
        if byte == 0x3E:  # '>'
            i += 1
            break
        if byte == 0x2F:  # '/'
            if i + 1 >= n or data[i + 1] != 0x3E:
                raise XMLSyntaxError("'/' not followed by '>' in tag", i)
            self_closing = True
            i += 2
            break
        # attribute
        astart = i
        while i < n and data[i] not in _NAME_END:
            i += 1
        if max_token is not None and i - astart > max_token:
            raise ResourceLimitError(
                f"attribute name exceeds max_token_bytes={max_token}",
                "max_token_bytes",
            )
        aname = decode_utf8(data[astart:i], astart)
        if not aname:
            raise XMLSyntaxError("malformed attribute", astart)
        while i < n and data[i] in _WS:
            i += 1
        if i >= n or data[i] != 0x3D:  # '='
            raise XMLSyntaxError(f"attribute {aname!r} missing '='", i)
        i += 1
        while i < n and data[i] in _WS:
            i += 1
        if i >= n or data[i] not in (0x22, 0x27):
            raise XMLSyntaxError(f"attribute {aname!r} value not quoted", i)
        quote = data[i]
        i += 1
        vend = data.find(bytes([quote]), i)
        if vend < 0:
            raise XMLSyntaxError(f"unterminated value for {aname!r}", i)
        if max_token is not None and vend - i > max_token:
            raise ResourceLimitError(
                f"attribute {aname!r} value exceeds max_token_bytes={max_token}",
                "max_token_bytes",
            )
        if aname in attrs:
            raise XMLSyntaxError(f"duplicate attribute {aname!r}", astart)
        if max_attrs is not None and len(attrs) >= max_attrs:
            raise ResourceLimitError(
                f"element has more than max_attributes={max_attrs} attributes",
                "max_attributes",
            )
        attrs[aname] = decode_utf8(unescape(data[i:vend]), i)
        i = vend + 1
    return name, attrs, self_closing, i


class XMLScanner:
    """Iterate events over a complete in-memory document.

    Parameters
    ----------
    data:
        The document bytes.
    keep_whitespace:
        When ``False`` (default) character-data runs that are pure
        XML whitespace are suppressed.  bSOAP's stuffing pads messages
        with inter-element whitespace, so consumers comparing logical
        content want it dropped; the layout tests enable it.
    limits:
        Optional :class:`~repro.hardening.ResourceLimits`.  When set,
        nesting depth, total element count, per-element attribute
        count, and token lengths are enforced *during* the scan (a
        nesting/element bomb is rejected incrementally, before it can
        materialize a huge event list), raising
        :class:`~repro.errors.ResourceLimitError`.
    """

    def __init__(
        self,
        data: bytes,
        *,
        keep_whitespace: bool = False,
        limits: Optional[ResourceLimits] = None,
    ) -> None:
        self._data = data
        self._keep_ws = keep_whitespace
        self._limits = limits
        self._elements = 0
        self._pos = 0
        self._stack: List[str] = []
        self._seen_root = False
        self._pending_end: Optional[EndElement] = None

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Event]:
        return self

    def __next__(self) -> Event:
        event = self._next_event()
        if event is None:
            raise StopIteration
        return event

    # ------------------------------------------------------------------
    def _next_event(self) -> Optional[Event]:
        if self._pending_end is not None:
            event, self._pending_end = self._pending_end, None
            return event

        data = self._data
        n = len(data)
        pos = self._pos
        if pos >= n:
            if self._stack:
                raise XMLSyntaxError(
                    f"unexpected end of document: {len(self._stack)} unclosed element(s)",
                    n,
                )
            return None

        if data[pos] != 0x3C:  # not '<' → character data
            lt = data.find(b"<", pos)
            if lt < 0:
                lt = n
            run = data[pos:lt]
            self._pos = lt
            if not self._stack:
                if all(b in _WS for b in run):
                    return self._next_event()
                raise XMLSyntaxError("character data outside root element", pos)
            if not self._keep_ws and all(b in _WS for b in run):
                return self._next_event()
            return Characters(decode_utf8(unescape(run), pos), pos)

        # A markup construct.
        if data.startswith(b"<!--", pos):
            end = data.find(b"-->", pos + 4)
            if end < 0:
                raise XMLSyntaxError("unterminated comment", pos)
            text = decode_utf8(data[pos + 4 : end], pos)
            if "--" in text:
                raise XMLSyntaxError("'--' inside comment", pos)
            self._pos = end + 3
            return Comment(text, pos)

        if data.startswith(b"<![CDATA[", pos):
            end = data.find(b"]]>", pos + 9)
            if end < 0:
                raise XMLSyntaxError("unterminated CDATA section", pos)
            if not self._stack:
                raise XMLSyntaxError("CDATA outside root element", pos)
            self._pos = end + 3
            return Characters(decode_utf8(data[pos + 9 : end], pos), pos)

        if data.startswith(b"<!DOCTYPE", pos):
            raise XMLSyntaxError("DOCTYPE is not allowed in SOAP messages", pos)

        if data.startswith(b"<?", pos):
            end = data.find(b"?>", pos + 2)
            if end < 0:
                raise XMLSyntaxError("unterminated processing instruction", pos)
            body = data[pos + 2 : end]
            space = -1
            for i, b in enumerate(body):
                if b in _WS:
                    space = i
                    break
            if space < 0:
                target, rest = body, b""
            else:
                target, rest = body[:space], body[space + 1 :]
            self._pos = end + 2
            return ProcessingInstruction(
                decode_utf8(target, pos), decode_utf8(rest, pos).strip(), pos
            )

        if data.startswith(b"</", pos):
            end = data.find(b">", pos + 2)
            if end < 0:
                raise XMLSyntaxError("unterminated end tag", pos)
            name = decode_utf8(data[pos + 2 : end].strip(XML_WHITESPACE), pos)
            if not self._stack:
                raise XMLSyntaxError(f"unexpected </{name}>", pos)
            expected = self._stack.pop()
            if name != expected:
                raise XMLSyntaxError(
                    f"mismatched end tag </{name}>, expected </{expected}>", pos
                )
            self._pos = end + 1
            return EndElement(name, pos)

        # Start tag.
        return self._scan_start_tag(pos)

    # ------------------------------------------------------------------
    def _scan_start_tag(self, pos: int) -> StartElement:
        limits = self._limits
        name, attrs, self_closing, i = parse_start_tag_at(
            self._data, pos, limits=limits
        )

        if not self._stack:
            if self._seen_root:
                raise XMLSyntaxError("multiple root elements", pos)
            self._seen_root = True
        if limits is not None:
            self._elements += 1
            if self._elements > limits.max_xml_elements:
                raise ResourceLimitError(
                    f"document exceeds max_xml_elements={limits.max_xml_elements}",
                    "max_xml_elements",
                )
            if not self_closing and len(self._stack) >= limits.max_xml_depth:
                raise ResourceLimitError(
                    f"nesting exceeds max_xml_depth={limits.max_xml_depth}",
                    "max_xml_depth",
                )
        self._pos = i
        if self_closing:
            self._pending_end = EndElement(name, pos)
        else:
            self._stack.append(name)
        return StartElement(name, attrs, self_closing, pos)

    @property
    def depth(self) -> int:
        """Current element nesting depth."""
        return len(self._stack)

    @property
    def position(self) -> int:
        """Offset of the next unread byte."""
        return self._pos

    def skip_leaf_children(self, end: int, count: int) -> bool:
        """Resume at *end*, charging *count* child elements as scanned.

        For a caller that has proven byte for byte that
        ``data[position:end]`` is exactly *count* complete childless
        children of the open element (plus whitespace) and that *end*
        is where that element's end tag starts.  The scanner keeps its
        stack — the end tag is still matched by the next event — and
        the children count toward ``max_xml_elements`` and sit one
        level down for ``max_xml_depth`` exactly as if each had been
        scanned.  When either limit would be crossed nothing changes
        and ``False`` is returned: the caller reads the events instead,
        and they raise at the exact element.
        """
        limits = self._limits
        if limits is not None:
            if self._elements + count > limits.max_xml_elements:
                return False
            if count and len(self._stack) >= limits.max_xml_depth:
                return False
            self._elements += count
        self._pos = end
        return True


def parse_document(data: bytes, *, keep_whitespace: bool = False) -> List[Event]:
    """Scan *data* to completion and return the event list.

    Raises :class:`~repro.errors.XMLSyntaxError` if the document is
    not well formed or has no root element.
    """
    events = list(XMLScanner(data, keep_whitespace=keep_whitespace))
    if not any(isinstance(e, StartElement) for e in events):
        raise XMLSyntaxError("document has no root element")
    return events

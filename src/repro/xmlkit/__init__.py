"""Low-level XML toolkit used by every layer above.

This package is self-contained (no stdlib ``xml`` dependency) because
the paper's system serializes and scans XML with hand-rolled routines;
reproducing the cost model requires owning those routines.

Contents
--------
:mod:`repro.xmlkit.escape`
    Text/attribute escaping and whitespace predicates.
:mod:`repro.xmlkit.qname`
    Qualified names and namespace bindings.
:mod:`repro.xmlkit.writer`
    Streaming XML writer over any ``write(bytes)`` sink.
:mod:`repro.xmlkit.scanner`
    Pull-based event scanner (tokenizer + well-formedness checks).
:mod:`repro.xmlkit.trie`
    Byte trie for single-pass tag matching (Chiu et al. optimization).
:mod:`repro.xmlkit.canonical`
    Whitespace-insensitive document comparison, used by tests and the
    differential-equivalence property checks.
"""

from repro.xmlkit.escape import (
    escape_attr,
    escape_text,
    is_xml_whitespace,
    unescape,
)
from repro.xmlkit.qname import NamespaceBindings, QName
from repro.xmlkit.scanner import (
    Characters,
    Comment,
    EndElement,
    ProcessingInstruction,
    StartElement,
    XMLScanner,
    parse_document,
)
from repro.xmlkit.trie import ByteTrie
from repro.xmlkit.writer import XMLWriter
from repro.xmlkit.canonical import canonical_events, documents_equivalent

__all__ = [
    "escape_attr",
    "escape_text",
    "unescape",
    "is_xml_whitespace",
    "QName",
    "NamespaceBindings",
    "XMLWriter",
    "XMLScanner",
    "StartElement",
    "EndElement",
    "Characters",
    "Comment",
    "ProcessingInstruction",
    "parse_document",
    "ByteTrie",
    "canonical_events",
    "documents_equivalent",
]

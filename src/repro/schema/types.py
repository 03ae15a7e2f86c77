"""Primitive XSD type descriptors.

Each primitive carries:

* its XML Schema qualified name (for ``xsi:type`` attributes),
* a small integer ``type_id`` used in the DUT table's ``type`` column
  (the paper's "pointer to a data structure that contains information
  about the data item's type" becomes an index into
  :data:`PRIMITIVES`),
* formatter/parser functions from :mod:`repro.lexical`,
* the :class:`~repro.lexical.widths.WidthSpec` stuffing facts,
* the NumPy dtype tracked arrays of this type use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.errors import SchemaError
from repro.lexical.booleans import format_bool, parse_bool
from repro.lexical.floats import format_double, parse_double
from repro.lexical.integers import format_int, parse_int
from repro.lexical.strings import format_string, parse_string
from repro.lexical.widths import WidthSpec, width_spec_for
from repro.xmlkit.qname import QName

__all__ = [
    "XSDType",
    "INT",
    "LONG",
    "DOUBLE",
    "STRING",
    "BOOLEAN",
    "PRIMITIVES",
    "primitive_by_id",
    "primitive_by_name",
]

XSD_URI = "http://www.w3.org/2001/XMLSchema"


@dataclass(frozen=True, slots=True)
class XSDType:
    """Descriptor of one primitive wire type."""

    name: str
    type_id: int
    qname: QName
    formatter: Callable[[object], bytes]
    parser: Callable[[bytes], object]
    widths: WidthSpec
    np_dtype: Optional[np.dtype]
    python_type: type

    @property
    def xsi_type(self) -> str:
        """The ``xsi:type`` attribute value, e.g. ``xsd:double``."""
        return self.qname.prefixed

    def format(self, value: object) -> bytes:
        """Serialize a value of this type to its lexical bytes."""
        return self.formatter(value)

    def parse(self, data: bytes) -> object:
        """Parse lexical bytes into a value of this type."""
        return self.parser(data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"XSDType({self.name!r}, id={self.type_id})"


def _make(name: str, type_id: int, formatter, parser, np_dtype, python_type) -> XSDType:
    return XSDType(
        name=name,
        type_id=type_id,
        qname=QName(XSD_URI, name, "xsd"),
        formatter=formatter,
        parser=parser,
        widths=width_spec_for(name),
        np_dtype=np.dtype(np_dtype) if np_dtype is not None else None,
        python_type=python_type,
    )


INT = _make(
    "int", 0, partial(format_int, bits=32), partial(parse_int, bits=32), np.int64, int
)
DOUBLE = _make("double", 1, format_double, parse_double, np.float64, float)
STRING = _make("string", 2, format_string, parse_string, None, str)
BOOLEAN = _make("boolean", 3, format_bool, parse_bool, np.bool_, bool)
LONG = _make("long", 4, format_int, parse_int, np.int64, int)

#: Index by ``type_id`` — the DUT ``type`` column points here.
PRIMITIVES: Tuple[XSDType, ...] = (INT, DOUBLE, STRING, BOOLEAN, LONG)

_BY_NAME: Dict[str, XSDType] = {t.name: t for t in PRIMITIVES}


def primitive_by_id(type_id: int) -> XSDType:
    """Resolve a DUT ``type`` column value to its descriptor."""
    try:
        return PRIMITIVES[type_id]
    except IndexError:
        raise SchemaError(f"unknown primitive type id {type_id}") from None


def primitive_by_name(name: str) -> XSDType:
    """Resolve ``int``/``double``/``string``/``boolean``/``long``."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise SchemaError(f"unknown primitive type {name!r}") from None

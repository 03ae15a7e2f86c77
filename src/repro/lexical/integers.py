"""Integer lexical forms (``xsd:int`` / ``xsd:long``).

The paper's stuffing analysis uses the fact that an ``xsd:int`` value
never needs more than 11 characters (``-2147483648``); ``xsd:long``
never more than 20 (``-9223372036854775808``).  Both bounds hold only
for values inside the type's range, so every formatter and parser here
checks it: ``bits=32`` is ``xsd:int``, ``bits=64`` (the default)
``xsd:long``.  Out of range is a :class:`LexicalError` either way.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import LexicalError
from repro.lexical.cache import _SMALL_INTS, SMALL_INT_MAX, SMALL_INT_MIN

__all__ = [
    "INT_MAX_WIDTH",
    "LONG_MAX_WIDTH",
    "INT32_MIN",
    "INT32_MAX",
    "format_int",
    "parse_int",
    "format_int_array",
]

#: Maximum characters for an ``xsd:int`` (paper §4.4: 11 characters).
INT_MAX_WIDTH = 11
#: Maximum characters for an ``xsd:long``.
LONG_MAX_WIDTH = 20

INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1
_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

#: ``bits -> (lowest, highest, type name)`` of each integer wire type.
_RANGES = {
    32: (INT32_MIN, INT32_MAX, "xsd:int"),
    64: (_INT64_MIN, _INT64_MAX, "xsd:long"),
}

_DIGITS = frozenset(b"0123456789")


def _check_range(lowest: int, highest: int, bits: int) -> None:
    lo, hi, name = _RANGES[bits]
    if lowest < lo or highest > hi:
        bad = lowest if lowest < lo else highest
        raise LexicalError(f"integer {bad} outside {name} range")


def format_int(value: int, bits: int = 64) -> bytes:
    """Serialize *value* to its canonical decimal form."""
    _check_range(value, value, bits)
    return b"%d" % value


def parse_int(data: bytes, bits: int = 64) -> int:
    """Parse an integer lexical form.

    XML Schema integer types carry the whiteSpace=collapse facet, so
    surrounding whitespace is accepted; an optional leading ``+`` or
    ``-`` is allowed; anything else, or a value outside the type's
    range, is a :class:`LexicalError`.
    """
    text = data.strip(b" \t\r\n")
    if not text:
        raise LexicalError("empty integer lexical form")
    body = text[1:] if text[0] in b"+-" else text
    if not body or any(b not in _DIGITS for b in body):
        raise LexicalError(f"invalid integer lexical form {data!r}")
    value = int(text)
    _check_range(value, value, bits)
    return value


def format_int_array(values: Sequence[int] | np.ndarray, bits: int = 64) -> List[bytes]:
    """Batch conversion of integers to lexical forms, in order.

    Accepts any integer sequence or NumPy integer array.  One min/max
    pass checks the whole batch against the type's range; values inside
    ``[SMALL_INT_MIN, SMALL_INT_MAX)`` come from the precomputed table
    (:mod:`repro.lexical.cache`), the rest from ``%d`` formatting.
    """
    if isinstance(values, np.ndarray):
        if values.dtype.kind not in "iu":
            raise LexicalError(f"expected integer array, got dtype {values.dtype}")
        if values.size == 0:
            return []
        lowest, highest = int(values.min()), int(values.max())
        values = values.tolist()
    else:
        values = list(values)
        if not values:
            return []
        lowest, highest = min(values), max(values)
    _check_range(lowest, highest, bits)
    table = _SMALL_INTS
    lo, hi = SMALL_INT_MIN, SMALL_INT_MAX
    return [table[v - lo] if lo <= v < hi else b"%d" % v for v in values]

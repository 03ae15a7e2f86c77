"""Double lexical forms — the serialization bottleneck.

Chiu et al. measured float↔ASCII conversion at ~90% of SOAP call cost;
the same asymmetry holds here (formatting a Python float costs on the
order of a microsecond, while copying its already-serialized bytes is
tens of nanoseconds).  Differential serialization's win comes from
skipping calls into this module.

Two formats are supported:

``FloatFormat.SHORTEST``
    Python ``repr`` — the shortest string that round-trips exactly.
    Lengths vary from 1 (``0``... actually ``0.0``) to 24 characters,
    which is what makes shifting/stuffing interesting.
``FloatFormat.G17``
    ``%.17g`` — fixed 17 significant digits, also round-trip exact,
    at most 24 characters.
``FloatFormat.FIXED``
    ``%24.16e`` — every finite double occupies **exactly** 24
    characters (17 significant digits, round-trip exact; shorter
    forms are left-padded with spaces, legal under XSD's
    ``whiteSpace=collapse``).  Constant widths mean a resend can
    never shift a closing tag, so the differential rewrite writes
    whole dirty runs with one NumPy store
    (:mod:`repro.core.differential`).

Special values use the XML Schema lexical forms ``INF``, ``-INF`` and
``NaN``.

Batch converters accept ``cached=True`` to route repeated values
through the conversion memo in :mod:`repro.lexical.cache` —
byte-identical output, one dict probe instead of a fresh conversion
on a hit.
"""

from __future__ import annotations

import enum
import math
from typing import List, Optional, Sequence

import numpy as np

from repro.buffers.iovec import row_window
from repro.errors import LexicalError
from repro.lexical.cache import (
    DOUBLE_FIXED_WIDTH,
    format_double_fixed,
    memo_format_batch,
)

__all__ = [
    "DOUBLE_MAX_WIDTH",
    "DOUBLE_MIN_WIDTH",
    "DOUBLE_FIXED_WIDTH",
    "FloatFormat",
    "format_double",
    "parse_double",
    "parse_double_rows",
    "whitespace_run_ends",
    "gather_rows",
    "WS_LUT",
    "format_double_array",
]

#: Maximum characters any finite double can need in either format
#: (e.g. ``-2.2250738585072014e-308`` — paper §4.4: 24 characters).
DOUBLE_MAX_WIDTH = 24

#: Smallest possible serialized double (paper §4.3: one character,
#: e.g. ``0`` in the paper's C encoder; Python's shortest form for
#: ``5.0`` is ``5.0`` but integral-valued floats can be emitted as a
#: bare digit by the minimal encoder used in the width studies).
DOUBLE_MIN_WIDTH = 1

_ALLOWED = frozenset(b"+-.0123456789eE")
_WHITESPACE = b" \t\r\n"

#: Byte-class tables for the batch (NumPy) paths.  ``WS_LUT`` is the
#: whitespace ``parse_double`` strips from both ends of a value — and
#: the only bytes legal in a stuffing pad; ``_ALLOWED_LUT`` is its
#: ``_ALLOWED`` charset.
WS_LUT = np.zeros(256, dtype=bool)
WS_LUT[list(_WHITESPACE)] = True
_ALLOWED_LUT = np.zeros(256, dtype=bool)
_ALLOWED_LUT[list(_ALLOWED)] = True


class FloatFormat(enum.Enum):
    """Selectable double→ASCII conversion policy."""

    SHORTEST = "shortest"
    G17 = "g17"
    #: Minimal form: like SHORTEST but integral values drop ``.0``
    #: (``5.0`` → ``5``).  This matches the paper's C encoder, whose
    #: smallest double costs a single character, and is the default.
    MINIMAL = "minimal"
    #: Constant-width ``%24.16e``: every finite double is exactly 24
    #: characters, so no closing-tag shift can occur for finite
    #: doubles and dirty runs are written with one NumPy store.
    FIXED = "fixed"


def format_double(value: float, fmt: FloatFormat = FloatFormat.MINIMAL) -> bytes:
    """Serialize one double to its lexical form."""
    if value != value:  # NaN
        return b"NaN"
    if value == math.inf:
        return b"INF"
    if value == -math.inf:
        return b"-INF"
    if fmt is FloatFormat.G17:
        return b"%.17g" % value
    if fmt is FloatFormat.FIXED:
        return format_double_fixed(value)
    text = repr(value)
    if fmt is FloatFormat.MINIMAL:
        if text.endswith(".0"):
            text = text[:-2]
        elif ".0e" in text:  # e.g. 1.0e+100 never produced by repr, but be safe
            text = text.replace(".0e", "e")
    return text.encode("ascii")


def parse_double(data: bytes) -> float:
    """Parse a double lexical form (XSD whiteSpace=collapse)."""
    text = data.strip(_WHITESPACE)
    if not text:
        raise LexicalError("empty double lexical form")
    if text == b"INF":
        return math.inf
    if text == b"-INF":
        return -math.inf
    if text == b"NaN":
        return math.nan
    if any(b not in _ALLOWED for b in text):
        raise LexicalError(f"invalid double lexical form {data!r}")
    try:
        return float(text)
    except ValueError as exc:
        raise LexicalError(f"invalid double lexical form {data!r}") from exc


def parse_double_rows(mat: np.ndarray, in_value: np.ndarray) -> Optional[np.ndarray]:
    """Batch :func:`parse_double` over the rows of a byte matrix.

    *mat* is an ``(m, W)`` ``uint8`` matrix holding one value per row,
    *in_value* the same-shape mask of the bytes that belong to it (the
    rest of a row is whatever the gather picked up and is ignored).
    Returns the ``m`` values as ``float64``, or ``None`` when any row
    is not ``whitespace* core whitespace*`` with a non-empty *core*
    inside ``parse_double``'s charset (``INF``, ``NaN``, entities,
    interior blanks, garbage) or when NumPy's string conversion
    refuses a core.  ``None`` commits nothing: the caller hands those
    values to :func:`parse_double`, which stays authoritative for both
    the value and the error.  NumPy converts through the same
    correctly rounded ``strtod`` as ``float()``, so accepted rows are
    bit-identical to the scalar parser (pinned by the lane oracle).
    """
    m, width = mat.shape
    if m == 0:
        return np.empty(0, dtype=np.float64)
    if width == 0:
        return None
    core = _ALLOWED_LUT.take(mat) & in_value
    if bool(np.any(in_value & ~core & ~WS_LUT.take(mat))):
        return None
    first = core.argmax(axis=1)
    last = width - 1 - core[:, ::-1].argmax(axis=1)
    count = core.sum(axis=1)
    if int(count.min()) < 1 or bool(np.any(last - first + 1 != count)):
        return None
    # ``core ? mat : b" "`` as wrapping uint8 arithmetic: the same bytes
    # as ``np.where``, which takes ~30x as long on a byte matrix.
    blank = np.uint8(0x20)
    blanked = (mat - blank) * core.view(np.uint8) + blank
    try:
        return (
            np.ascontiguousarray(blanked)
            .view(f"S{width}")
            .ravel()
            .astype(np.float64)
        )
    except ValueError:
        return None


def whitespace_run_ends(buf: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """First non-whitespace offset at or after each of *starts*.

    *buf* is a ``uint8`` document view; an offset whose whitespace run
    reaches the end of the document maps to ``len(buf)``.  Vectorized
    ``lstrip``: only a non-whitespace byte that follows a whitespace
    byte can end a run, so the search runs over those few candidates
    (one per whitespace run in the document) and never materializes a
    per-byte index array.
    """
    n = int(buf.shape[0])
    ws = WS_LUT.take(buf)
    run_ends = np.flatnonzero(ws[:-1] & ~ws[1:]) + 1
    run_ends = np.append(run_ends, n)
    in_run = ws[np.minimum(starts, n - 1)] & (starts < n)
    return np.where(in_run, run_ends[np.searchsorted(run_ends, starts)], starts)


def gather_rows(buf: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """``(len(starts), width)`` matrix of ``buf[start : start + width]``.

    A row that runs past the end of *buf* repeats its last byte (the
    caller masks what it did not ask for).  Every row is one index of a
    :func:`~repro.buffers.iovec.row_window` view — of *buf*, or for
    past-end rows of its last bytes followed by ``width`` copies of the
    last one — so no ``rows x width`` index matrix is ever built.
    """
    n = buf.shape[0]
    past = starts > n - width
    if not past.any():
        return row_window(buf, width)[starts]
    out = np.empty((starts.shape[0], width), dtype=np.uint8)
    out[~past] = row_window(buf, width)[starts[~past]]
    base = max(n - width, 0)
    tail = np.concatenate((buf[base:], np.repeat(buf[-1:], width)))
    out[past] = row_window(tail, width)[np.minimum(starts[past], n) - base]
    return out


def _format_minimal_one(v: float) -> bytes:
    text = repr(v)
    if text.endswith(".0"):
        text = text[:-2]
    return text.encode("ascii")


def _format_shortest_one(v: float) -> bytes:
    return repr(v).encode("ascii")


def _format_g17_one(v: float) -> bytes:
    return b"%.17g" % v


#: Per-format finite-value converters for the memoized batch path.
_FORMAT_ONE = {
    FloatFormat.MINIMAL: _format_minimal_one,
    FloatFormat.SHORTEST: _format_shortest_one,
    FloatFormat.G17: _format_g17_one,
    FloatFormat.FIXED: format_double_fixed,
}


def format_double_array(
    values: Sequence[float] | np.ndarray,
    fmt: FloatFormat = FloatFormat.MINIMAL,
    cached: bool = False,
) -> List[bytes]:
    """Batch conversion of doubles to lexical forms.

    The hot loop runs over unboxed Python floats (``ndarray.tolist``)
    — the fastest pure-Python formulation; this *is* the measured
    conversion cost that differential serialization avoids.  With
    ``cached=True`` repeated finite values resolve through the
    conversion memo (:mod:`repro.lexical.cache`) instead of being
    re-converted; output bytes are identical either way.
    """
    if isinstance(values, np.ndarray):
        if values.dtype.kind != "f":
            raise LexicalError(f"expected float array, got dtype {values.dtype}")
        finite = bool(np.isfinite(values).all())
        values = values.tolist()
    else:
        values = list(values)
        finite = all(v == v and abs(v) != math.inf for v in values)

    if not finite:
        return [format_double(v, fmt) for v in values]

    if cached:
        return memo_format_batch(values, fmt.value, _FORMAT_ONE[fmt])

    if fmt is FloatFormat.G17:
        return [b"%.17g" % v for v in values]

    if fmt is FloatFormat.FIXED:
        return [b"%24.16e" % v for v in values]

    if fmt is FloatFormat.MINIMAL:
        out: List[bytes] = []
        append = out.append
        for v in values:
            text = repr(v)
            if text.endswith(".0"):
                text = text[:-2]
            append(text.encode("ascii"))
        return out

    # SHORTEST
    return [repr(v).encode("ascii") for v in values]

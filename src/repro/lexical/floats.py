"""Double lexical forms — the serialization bottleneck.

Chiu et al. measured float↔ASCII conversion at ~90% of SOAP call cost;
the same asymmetry holds here (formatting a Python float costs on the
order of a microsecond, while copying its already-serialized bytes is
tens of nanoseconds).  Differential serialization's win comes from
skipping calls into this module.

Four formats are supported:

``FloatFormat.MINIMAL`` (the default)
    ``repr`` with an integral value's ``.0`` dropped (``5.0`` → ``5``),
    as the paper's C encoder writes it.  Lengths vary from 1 (``0``)
    to 24 characters, which is what makes shifting/stuffing
    interesting.
``FloatFormat.SHORTEST``
    Python ``repr`` — the shortest string that round-trips exactly,
    3 (``0.0``) to 24 characters.
``FloatFormat.G17``
    ``%.17g`` — at most 17 significant digits, also round-trip exact,
    at most 24 characters; trailing zeros are stripped, so widths vary
    about as much as MINIMAL's.
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

Every send formats through the same batch converter for its format,
:func:`format_double_array` — first-time build and resend alike;
nothing is memoized (:mod:`repro.lexical.cache` says why).  The batch
parser, :func:`parse_double_column`, serves both server decode lanes.

Where only a MINIMAL text's *length* matters — does a value fit the
field it will be rendered into — :func:`minimal_fits` proves the fit
for whole columns without formatting: the sender then leaves a typed
frame's doubles unwritten and the receiver checks their rooms, each
formatting only what the proof leaves open.
"""

from __future__ import annotations

import enum
import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.buffers.iovec import row_window
from repro.errors import LexicalError
from repro.lexical.cache import DOUBLE_FIXED_WIDTH, format_double_fixed

__all__ = [
    "DOUBLE_MAX_WIDTH",
    "DOUBLE_MIN_WIDTH",
    "DOUBLE_FIXED_WIDTH",
    "FloatFormat",
    "format_double",
    "parse_double",
    "parse_double_column",
    "length_groups",
    "whitespace_run_ends",
    "gather_rows",
    "WS_LUT",
    "format_double_array",
    "minimal_fits",
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
#: the only bytes legal in a stuffing pad; ``_VALUE_LUT`` adds its
#: ``_ALLOWED`` charset: every byte a batch-parsed value may hold.
WS_LUT = np.zeros(256, dtype=bool)
WS_LUT[list(_WHITESPACE)] = True
_VALUE_LUT = WS_LUT.copy()
_VALUE_LUT[list(_ALLOWED)] = True


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


def _format_minimal_one(v: float) -> bytes:
    text = repr(v)
    if text.endswith(".0"):
        text = text[:-2]
    return text.encode("ascii")


def _format_shortest_one(v: float) -> bytes:
    return repr(v).encode("ascii")


def _format_g17_one(v: float) -> bytes:
    return b"%.17g" % v


#: Per-format converters of one finite value.
_FORMAT_ONE = {
    FloatFormat.MINIMAL: _format_minimal_one,
    FloatFormat.SHORTEST: _format_shortest_one,
    FloatFormat.G17: _format_g17_one,
    FloatFormat.FIXED: format_double_fixed,
}


def format_double(value: float, fmt: FloatFormat = FloatFormat.MINIMAL) -> bytes:
    """Serialize one double to its lexical form."""
    if value != value:  # NaN
        return b"NaN"
    if value == math.inf:
        return b"INF"
    if value == -math.inf:
        return b"-INF"
    return _FORMAT_ONE[fmt](value)


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


def parse_double_column(
    buf: np.ndarray, starts: np.ndarray, lens: np.ndarray
) -> Optional[np.ndarray]:
    """Batch :func:`parse_double` over ``buf[starts[i] : starts[i] + lens[i]]``.

    *buf* is a ``uint8`` view.  Values are grouped by length; each
    group is one :func:`~repro.buffers.iovec.row_window` gather whose
    contiguous ``S{L}`` view NumPy casts to ``float64`` in one call.
    Returns the values in order, or ``None`` when a value is empty,
    holds a byte outside ``parse_double``'s charset and the whitespace
    it strips (``INF``, ``NaN``, entities, ``_``, NUL, garbage), or
    the cast refuses it (a blank core, an interior blank, ``1e5e5``).
    ``None`` commits nothing: the caller hands those values to
    :func:`parse_double`, which stays authoritative for both the value
    and the error.  NumPy strips the same whitespace and converts
    through the same correctly rounded ``strtod`` as ``float()``, so
    accepted values are bit-identical to the scalar parser (pinned by
    ``tests/test_column_parse.py``).
    """
    out = np.empty(starts.shape[0], dtype=np.float64)
    for length, sel in length_groups(lens):
        if length < 1:
            return None
        rows = row_window(buf, length)[starts[sel]]
        if not bool(_VALUE_LUT.take(rows).all()):
            return None
        try:
            out[sel] = rows.view(f"S{length}").ravel().astype(np.float64)
        except ValueError:
            return None
    return out


def length_groups(lens: np.ndarray) -> List[Tuple[int, object]]:
    """``(length, selector)`` per distinct value of *lens*, ascending.

    The selector indexes the entries of that length: a boolean mask,
    or ``slice(None)`` when all of them share it (no mask, no copy).
    """
    if lens.size == 0:
        return []
    lo = int(lens.min())
    counts = np.bincount(lens - lo)
    if counts.size == 1:
        return [(lo, slice(None))]
    return [(lo + d, lens == lo + d) for d in np.flatnonzero(counts).tolist()]


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


def format_double_array(
    values: Sequence[float] | np.ndarray,
    fmt: FloatFormat = FloatFormat.MINIMAL,
) -> List[bytes]:
    """Batch conversion of doubles to lexical forms.

    The hot loop runs over unboxed Python floats (``ndarray.tolist``)
    — the fastest pure-Python formulation; this *is* the measured
    conversion cost that differential serialization avoids.  Output is
    :func:`format_double`'s bytes, value by value.
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

    if fmt is FloatFormat.MINIMAL:
        # One C-level pass instead of a Python loop: ``repr`` never
        # emits whitespace, and a token ends in ``.0`` exactly when the
        # per-value form strips it.
        return (" ".join(map(repr, values)) + " ").encode().replace(b".0 ", b" ").split()

    if fmt is FloatFormat.G17:
        return [b"%.17g" % v for v in values]

    if fmt is FloatFormat.FIXED:
        return [b"%24.16e" % v for v in values]

    # SHORTEST
    return [repr(v).encode("ascii") for v in values]


#: ``10.0**i`` for ``i`` in 0..22, each exact (converted from an int).
_POW10 = np.array([float(10**i) for i in range(23)])
#: ``10**k`` for ``k`` in -3..14: a value's decimal exponent is its
#: ``searchsorted`` index here minus 3 (off by one near an edge).
_DECADES = np.array([10.0**k for k in range(-3, 15)])
#: Digits of the largest integer the digit proof takes.
_PROOF_DIGITS = 15


def minimal_fits(values: np.ndarray, rooms: np.ndarray) -> np.ndarray:
    """Bool mask: ``len(format_double(values[i], MINIMAL)) <= rooms[i]``
    is *proven* without formatting; ``False`` only means unproven.

    A room of :data:`DOUBLE_MAX_WIDTH` holds any double.  Otherwise
    only ``1e-3 <= |v| < 1e14`` is considered, where MINIMAL text is
    positional (decimal point at -2..15); everything else — e-notation,
    zeros, subnormals, NaN, INF — is left to the formatter.  With ``d``
    the value's decimal exponent (``floor(log10|v|) + 1``, off by at
    most one here):

    * **magnitude bound** — at most 17 significant digits, so the text
      takes at most ``max(18, 20 - d)`` characters after the sign;
    * **digit proof** — ``p`` fraction digits that the room allows
      (at most 15 digits in all), ``r = rint(|v| * 10**p)``.  When
      ``r < 10**15`` and ``r / 10**p == |v|``, both operands are exact
      and the division correctly rounded (Clinger's fast path), so the
      decimal ``r * 10**-p`` reads back as ``v``: the shortest text has
      no more digits than ``r``, and no more characters than
      ``r * 10**-p`` written positionally with ``p`` fraction digits.
    """
    out = rooms >= DOUBLE_MAX_WIDTH
    a = np.abs(values)
    band = (a >= 1e-3) & (a < 1e14) & ~out
    if not bool(band.any()):
        return out
    a = a[band]
    # Characters left after the sign: -1..23.
    room = rooms[band].astype(np.intp) - np.signbit(values[band])
    d = np.searchsorted(_DECADES, a, side="right") - 3
    # Fraction digits after "d digits." (room - 1 - d) or after "0."
    # (room - 2), at most 15 digits in all: p <= 17 here.  Any p is
    # sound (the text is measured below); p only decides what is proven.
    p = np.maximum(np.minimum(np.minimum(room - 1, _PROOF_DIGITS) - d, room - 2), 0)
    scale = _POW10[p]
    r = np.rint(a * scale)
    # Exact while r < 10**15, which the proof requires.
    digits = np.searchsorted(_POW10[:_PROOF_DIGITS], r, side="right")
    # r with p > 0 fraction digits: at least "0." and p digits.
    text = np.maximum(digits, p + 1) + (p > 0)
    proven = (r < _POW10[_PROOF_DIGITS]) & (r / scale == a) & (text <= room)
    out[band] = proven | ((room >= 18) & (room + d >= 20))
    return out

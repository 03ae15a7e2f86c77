"""Table-driven and fixed-width lexical formatting.

Float→ASCII conversion dominates serialization cost (§2 of the paper;
the ``sec2`` curves of :mod:`repro.bench.figures`).  Differential
serialization answers it by not converting unchanged values at all;
the values a resend does convert are formatted fresh, in one batch per
column.  No conversion is memoized: no application or ledger workload
in the tree repeats a dirty value (an iterative solver's converged
entries stop being dirty, and its moving entries never recur).  This
module holds the two conversions that need no per-value work to be
fast:

* a precomputed **small-int table**: the lexical forms of
  ``[-1024, 16384)`` materialized once at import, so common array
  indices/counters skip ``%d`` formatting entirely;
* :func:`format_double_fixed_blob` — the fixed-width batch formatter
  behind :attr:`~repro.lexical.floats.FloatFormat.FIXED`: every
  finite double formats to exactly :data:`DOUBLE_FIXED_WIDTH`
  characters, so a whole batch packs into one contiguous ``n × 24``
  blob.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

__all__ = [
    "DOUBLE_FIXED_WIDTH",
    "memo_stats",
    "small_int_bytes",
    "SMALL_INT_MIN",
    "SMALL_INT_MAX",
    "format_double_fixed_blob",
]

#: Exact serialized width of every finite double under
#: :attr:`FloatFormat.FIXED` — ``%24.16e`` emits 17 significant
#: digits (round-trip exact for binary64) and never exceeds 24
#: characters (worst case ``-9.9999999999999991e-309``), left-padding
#: shorter forms with spaces (legal: XSD doubles carry
#: ``whiteSpace=collapse``).
DOUBLE_FIXED_WIDTH = 24

_FIXED_FMT = b"%24.16e"


def memo_stats() -> Dict[str, Dict[str, int]]:
    """Always ``{}``: there is no conversion memo to report on.

    Kept for the ledger's ``lexical.conv_hit_share`` row, which sums
    ``hits``/``misses`` over this mapping and so reads 0.
    """
    return {}


# ----------------------------------------------------------------------
# small-int table
# ----------------------------------------------------------------------

SMALL_INT_MIN = -1024
SMALL_INT_MAX = 16384

#: ``_SMALL_INTS[v - SMALL_INT_MIN]`` is ``b"%d" % v`` — built once at
#: import (~17K small bytes objects, well under a megabyte).
_SMALL_INTS: List[bytes] = [b"%d" % i for i in range(SMALL_INT_MIN, SMALL_INT_MAX)]


def small_int_bytes(value: int) -> Optional[bytes]:
    """Table-hit lexical form of *value*, or ``None`` outside the table."""
    if SMALL_INT_MIN <= value < SMALL_INT_MAX:
        return _SMALL_INTS[value - SMALL_INT_MIN]
    return None


# ----------------------------------------------------------------------
# fixed-width vectorized double formatting
# ----------------------------------------------------------------------

def format_double_fixed(value: float) -> bytes:
    """One finite double at exactly :data:`DOUBLE_FIXED_WIDTH` chars."""
    return _FIXED_FMT % value


def format_double_fixed_blob(values: np.ndarray | Sequence[float]) -> Optional[bytes]:
    """Batch-format doubles into one ``n × 24``-byte contiguous blob.

    Returns ``None`` when any value is non-finite (``NaN``/``INF``
    lexical forms are narrower than the fixed width, so the caller
    must take the variable-width path).  The blob's row *k* is exactly
    the bytes of value *k*, so it reshapes to an ``(n, 24)`` row
    matrix: Python-level work is one ``%``-format per value plus a
    single ``join``.
    """
    if isinstance(values, np.ndarray):
        if not bool(np.isfinite(values).all()):
            return None
        lst = values.tolist()
    else:
        lst = list(values)
        for v in lst:
            if v != v or v in (float("inf"), float("-inf")):
                return None
    fmt = _FIXED_FMT
    return b"".join([fmt % v for v in lst])

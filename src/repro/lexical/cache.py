"""Conversion caching: memoized and table-driven lexical formatting.

Float→ASCII conversion dominates serialization cost (§2 of the paper;
``benchmarks/bench_sec2_conversion.py``), and differential
serialization's steady state re-converts only *dirty* values — but it
still re-converts them from scratch on every send, even when the same
value recurs call after call (oscillating simulations, sensor arrays
with few distinct readings, iterative solvers revisiting fixed
points).  This module caches the conversions themselves:

* :class:`ConversionMemo` — a bounded **segmented-LRU** memo for
  float→bytes conversions, one generation pair (hot/cold) per
  :class:`~repro.lexical.floats.FloatFormat`.  A hit costs one or two
  dict probes (~50 ns) against ~500 ns for a fresh ``repr``-based
  conversion.
* a precomputed **small-int table**: the lexical forms of
  ``[-1024, 16384)`` materialized once at import, so common array
  indices/counters skip ``%d`` formatting entirely.
* :func:`format_double_fixed_blob` — the fixed-width batch formatter
  behind :attr:`~repro.lexical.floats.FloatFormat.FIXED`: every
  finite double formats to exactly :data:`DOUBLE_FIXED_WIDTH`
  characters, so a whole batch packs into one contiguous ``n × 24``
  blob.

Correctness notes baked into the implementation:

* ``-0.0 == 0.0`` and they share a hash, but their lexical forms
  differ (``-0`` vs ``0``) — zero never enters the memo.
* Non-finite values (``NaN`` compares unequal to itself and would
  miss forever) bypass the memo.
* Memoized bytes are immutable and keyed by exact float value, so a
  hit returns byte-identical output to an uncached conversion —
  caching can never change wire bytes.
* **Adaptive bypass**: on full-entropy value streams the memo can
  never hit, and probing it per value is pure overhead.  Each memo
  tracks its hit rate over a sliding lookup window; when the rate
  drops below :data:`BYPASS_MIN_RATE` the memo stops being probed for
  the next :data:`BYPASS_BATCHES` batches (values are formatted
  directly), then probes again in case the distribution changed.
  Amortized probe overhead on hostile streams is ~1/64 of a batch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

__all__ = [
    "DOUBLE_FIXED_WIDTH",
    "ConversionMemo",
    "memo_for",
    "memo_stats",
    "clear_memos",
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

#: Adaptive-bypass tuning: evaluate the hit rate once the window has
#: seen this many lookups...
BYPASS_WINDOW = 2048
#: ...and if fewer than this fraction were hits, bypass the memo...
BYPASS_MIN_RATE = 0.05
#: ...for this many batches before probing again.
BYPASS_BATCHES = 64


class ConversionMemo:
    """Bounded float→bytes memo with segmented-LRU eviction.

    Two generations (*hot* and *cold*): lookups probe hot then cold,
    and insertions always go to hot.  When hot outgrows ``capacity``,
    the generations rotate (cold is dropped, hot becomes cold) — an
    O(1)-per-operation approximation of LRU that keeps any value
    touched within the last ``capacity`` insertions resident, without
    per-hit bookkeeping.  Rotation is checked once per *batch* (see
    :meth:`maybe_rotate`), so a single batch may overshoot the bound
    by its own length; residency stays ≤ ``2 × capacity + batch``.
    At ~110 bytes an entry (float key, bytes value, dict slot) the
    default bound is ~3.5 MiB a memo: a process that keeps converting
    values it has not seen before holds that much for good, so the
    bound is sized to the recurring sets the tree has (pools of a few
    hundred readings), not to the largest array.

    Thread safety: individual dict operations are GIL-atomic and a
    racing rotation can at worst cause spurious misses, never wrong
    bytes (entries are immutable and keyed by exact value).
    """

    __slots__ = (
        "hot",
        "cold",
        "capacity",
        "hits",
        "misses",
        "rotations",
        "window_hits",
        "window_lookups",
        "bypass_remaining",
        "bypassed_batches",
    )

    def __init__(self, capacity: int = 1 << 14) -> None:
        self.hot: Dict[float, bytes] = {}
        self.cold: Dict[float, bytes] = {}
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.rotations = 0
        self.window_hits = 0
        self.window_lookups = 0
        self.bypass_remaining = 0
        self.bypassed_batches = 0

    def maybe_rotate(self) -> None:
        """Rotate generations if hot exceeded capacity (per-batch)."""
        if len(self.hot) > self.capacity:
            self.cold = self.hot
            self.hot = {}
            self.rotations += 1

    def should_probe(self) -> bool:
        """Whether the next batch should probe the memo at all.

        ``False`` while an adaptive bypass is active (the caller
        formats directly); each call during a bypass consumes one of
        its remaining batches, so probing resumes automatically.
        """
        if self.bypass_remaining > 0:
            self.bypass_remaining -= 1
            self.bypassed_batches += 1
            return False
        return True

    def record_batch(self, hits: int, lookups: int) -> None:
        """Fold one probed batch's outcome into the counters.

        Also drives the adaptive bypass: once the sliding window has
        seen :data:`BYPASS_WINDOW` lookups, a hit rate below
        :data:`BYPASS_MIN_RATE` turns probing off for the next
        :data:`BYPASS_BATCHES` batches.
        """
        self.hits += hits
        self.misses += lookups - hits
        self.window_hits += hits
        self.window_lookups += lookups
        if self.window_lookups >= BYPASS_WINDOW:
            if self.window_hits < BYPASS_MIN_RATE * self.window_lookups:
                self.bypass_remaining = BYPASS_BATCHES
            self.window_hits = 0
            self.window_lookups = 0
        self.maybe_rotate()

    def clear(self) -> None:
        self.hot.clear()
        self.cold.clear()
        self.window_hits = 0
        self.window_lookups = 0
        self.bypass_remaining = 0

    def __len__(self) -> int:
        return len(self.hot) + len(self.cold)


#: One memo per FloatFormat value string (lexical form depends on the
#: format, so ``(value, fmt)`` is the true key; separate tables keep
#: the per-hit probe a single-key dict lookup).
_MEMOS: Dict[str, ConversionMemo] = {}


def memo_for(fmt_key: str) -> ConversionMemo:
    """The process-wide memo for one float format (created on demand)."""
    memo = _MEMOS.get(fmt_key)
    if memo is None:
        memo = _MEMOS[fmt_key] = ConversionMemo()
    return memo


def memo_stats() -> Dict[str, Dict[str, int]]:
    """Hit/miss/size snapshot per format (bench + test introspection)."""
    return {
        key: {
            "hits": m.hits,
            "misses": m.misses,
            "size": len(m),
            "rotations": m.rotations,
            "bypassed_batches": m.bypassed_batches,
        }
        for key, m in _MEMOS.items()
    }


def clear_memos() -> None:
    """Drop all memoized conversions (tests and bench isolation)."""
    for m in _MEMOS.values():
        m.clear()
        m.hits = 0
        m.misses = 0
        m.rotations = 0
        m.bypassed_batches = 0


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


def format_int_array_cached(values: Sequence[int] | np.ndarray) -> List[bytes]:
    """Batch int formatting through the small-int table.

    Vectorizes the in-table test when given an ndarray; elements
    outside the table fall back to ``%d`` formatting.  Output is
    byte-identical to the uncached path.
    """
    if isinstance(values, np.ndarray):
        if bool(
            ((values >= SMALL_INT_MIN) & (values < SMALL_INT_MAX)).all()
        ):
            table = _SMALL_INTS
            return [table[i] for i in (values - SMALL_INT_MIN).tolist()]
        values = values.tolist()
    table = _SMALL_INTS
    lo, hi = SMALL_INT_MIN, SMALL_INT_MAX
    return [table[v - lo] if lo <= v < hi else b"%d" % v for v in values]


# ----------------------------------------------------------------------
# fixed-width vectorized double formatting
# ----------------------------------------------------------------------

def format_double_fixed(value: float) -> bytes:
    """One finite double at exactly :data:`DOUBLE_FIXED_WIDTH` chars."""
    return _FIXED_FMT % value


def format_double_fixed_blob(
    values: np.ndarray | Sequence[float], cached: bool = False
) -> Optional[bytes]:
    """Batch-format doubles into one ``n × 24``-byte contiguous blob.

    Returns ``None`` when any value is non-finite (``NaN``/``INF``
    lexical forms are narrower than the fixed width, so the caller
    must take the variable-width path).  The blob's row *k* is exactly
    the bytes of value *k*, so it reshapes to an ``(n, 24)`` row
    matrix: Python-level work is one ``%``-format per value (or a
    memo hit) plus a single ``join``.
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
    if not cached:
        return b"".join([fmt % v for v in lst])
    memo = memo_for("fixed")
    if not memo.should_probe():
        return b"".join([fmt % v for v in lst])
    hot = memo.hot
    cold = memo.cold
    hot_get = hot.get
    cold_get = cold.get
    out: List[bytes] = []
    append = out.append
    hits = 0
    for v in lst:
        t = hot_get(v)
        if t is None:
            t = cold_get(v)
            if t is None:
                t = fmt % v
                if v != 0.0:  # -0.0/0.0 share a key but differ lexically
                    hot[v] = t
            else:
                hot[v] = t
                hits += 1
        else:
            hits += 1
        append(t)
    memo.record_batch(hits, len(lst))
    return b"".join(out)


def memo_format_batch(
    lst: Sequence[float], memo: ConversionMemo, format_one
) -> List[bytes]:
    """Generic memoized batch conversion for *finite* floats.

    ``format_one(v) -> bytes`` supplies the miss path.  Used by
    :func:`repro.lexical.floats.format_double_array` once *memo* has
    agreed to be probed (during a bypass the caller formats the batch
    without it); zero is never memoized (see module docstring) and the
    caller guarantees finiteness.
    """
    hot = memo.hot
    cold = memo.cold
    hot_get = hot.get
    cold_get = cold.get
    out: List[bytes] = []
    append = out.append
    hits = 0
    for v in lst:
        t = hot_get(v)
        if t is None:
            t = cold_get(v)
            if t is None:
                t = format_one(v)
                if v != 0.0:
                    hot[v] = t
            else:
                hot[v] = t
                hits += 1
        else:
            hits += 1
        append(t)
    memo.record_batch(hits, len(lst))
    return out

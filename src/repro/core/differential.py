"""The differential rewrite: serialize only what changed.

Given a template whose DUT table has dirty entries, this module
re-formats exactly those values and patches them into the saved
serialized form:

* value fits its field → overwrite value bytes; when the length
  changed, rewrite the closing tag at its new position and pad the
  remainder with whitespace (the paper's closing-tag shift),
* value outgrew its field → *shift*: rebuild its chunk with the field
  widened (possibly reallocating or splitting the chunk).

:func:`rewrite_dirty`, the one rewrite driver, walks the template
parameter by parameter and hands each one's dirty entries to
:func:`_rewrite_run`.  It formats the new values in one batch per
column and reads their locations from the DUT on every send: the
table already is the write program (paper §3.1), so nothing about the
layout is kept between sends.

**Fast path** (perfect structural match — no value outgrew its field,
checked with one vectorized comparison): locations cannot move, so the
dirty subset's DUT columns are read once.  A chunk run of at least
:data:`STORE_MIN_RUN` values whose new and old lengths are all one
length ``L`` (every finite FIXED double, any fixed-width reading) moves
no closing tag and is written with one NumPy store of its ``(m, L)``
row matrix; every other entry takes the slice loop over the chunk
``bytearray``.

**Slow path** (partial structural match — some value outgrew its
field): the whole dirty run is planned at once.  Each entry's new
width is ``max(field_width, len)``; the dirty entries that stay put
(in a chunk none of whose dirty entries grows, or before the first one
that does) take the fast path, and every growing chunk is rebuilt once
— one ``b"".join`` of the kept spans and the new field regions (text,
closing tag, pad to the new width) from its first growing entry on.
Its entries' offsets move by one cumulative sum of the growth, the
widths and lengths are stored once, each widened entry and its growth
are handed to the delta encoder (``RewriteStats.grown``: a frame's pad
insertions), and :meth:`~repro.buffers.chunked.ChunkedBuffer.rebuild`
splits (at field starts) or reallocates a chunk that outgrew its
capacity, once, and moves the layout epoch once.  So k expansions in a
chunk copy it once, not k times — the per-value tail shift of paper
§3.2 costs one chunk copy per send here.  The bytes equal those of the
paper's per-value shift, :mod:`repro.baselines.paper_expansion`
applied entry by entry (``tests/test_shift_rebuild.py``); only chunk
boundaries may differ.

**Deferred text** (``defer=True``: the client's delta encoder will
carry this send's dirty doubles as binary64 typed splices): a dirty
``xsd:double`` proven to fit its field is neither formatted nor
written, only marked in the template's ``stale`` mask.  The proof is
:func:`~repro.lexical.floats.minimal_fits` with the field width as the
room, run over a parameter's dirty doubles when they number at least
:data:`~repro.wire.frame.SMALL_FRAME`; a shorter run takes only its
trivial case, a field of :data:`DOUBLE_MAX_WIDTH` characters, which
holds any double.  Every other dirty value is written as usual, so a
value that outgrows its field shifts with real text.  A deferred
entry's old text and ``ser_len`` still agree with the buffer; an entry
deferred once and written by a later send leaves the mask.  Before
anything reads the bytes, :func:`render_stale` runs this module's own
rewrite over the stale entries — the deferred half of the same write,
in MINIMAL form.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, List, Sequence

import numpy as np

from repro.buffers.iovec import row_window
from repro.core.policy import DiffPolicy
from repro.core.stats import RewriteStats
from repro.lexical.floats import DOUBLE_MAX_WIDTH, FloatFormat, minimal_fits
from repro.schema.types import DOUBLE
from repro.wire import frame as wire_frame

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.template import BoundParam, MessageTemplate

__all__ = ["render_stale", "rewrite_dirty"]

_PAD = tuple(b" " * i for i in range(64))

#: Shortest same-length chunk run written with one NumPy store; shorter
#: runs take the slice loop.  The store costs ~14 µs more up front
#: (run split, length checks, join, views) and ~0.3 µs less per value,
#: so on one run of 14- or 24-byte doubles the two meet between 48 and
#: 64 values (docs/perf.md, "The steady-state rewrite").
STORE_MIN_RUN = 56


def _store_run(
    data: bytearray, offs: np.ndarray, texts: Sequence[bytes], length: int
) -> None:
    """Write *texts*, each *length* bytes, at *offs* with one NumPy store
    through the :func:`~repro.buffers.iovec.row_window` view."""
    rows = np.frombuffer(b"".join(texts), dtype=np.uint8)
    row_window(data, length)[offs] = rows.reshape(len(offs), length)


def _fast_rewrite(
    template: "MessageTemplate",
    bp: "BoundParam",
    idxs: np.ndarray,
    texts: Sequence[bytes],
    lens_l: List[int],
    lens: np.ndarray,
    stats: RewriteStats,
) -> None:
    """Perfect-structural write over locations read from the DUT.

    Preconditions (checked by the caller): every new length fits its
    field width, so no location changes during the write and the chunk
    ``bytearray`` can be written without re-validating bounds — the
    template layout invariant guarantees the spans are in range.
    """
    dut = template.dut
    buffer = template.buffer
    offs_a = dut.value_off[idxs]
    olds_a = dut.ser_len[idxs]
    cids_a = dut.chunk_id[idxs]
    n = len(idxs)

    # Entries left for the slice loop: all of them, unless some chunk
    # run [s, e) is long enough and all its new and old lengths are
    # one length — then no closing tag moves and the store writes it.
    # A chunk's entries are contiguous, so a long enough run exists iff
    # some entry shares its chunk with the one STORE_MIN_RUN - 1 later.
    loop = range(n)
    reach = STORE_MIN_RUN - 1
    if n > reach and bool((cids_a[reach:] == cids_a[: n - reach]).any()):
        cuts = np.flatnonzero(cids_a[1:] != cids_a[:-1]) + 1
        starts = np.concatenate(([0], cuts))
        ends = np.concatenate((cuts, [n]))
        lo = np.minimum.reduceat(np.minimum(lens, olds_a), starts)
        hi = np.maximum.reduceat(np.maximum(lens, olds_a), starts)
        stored = (ends - starts >= STORE_MIN_RUN) & (lo == hi)
        loop = []
        for s, e, store in zip(starts.tolist(), ends.tolist(), stored.tolist()):
            if store:
                data = buffer.chunk(int(cids_a[s])).data
                _store_run(data, offs_a[s:e], texts[s:e], lens_l[s])
            else:
                loop.extend(range(s, e))

    if loop:
        if len(loop) < n:
            idxs_l = idxs[loop]
            offs_a, olds_a, cids_a = offs_a[loop], olds_a[loop], cids_a[loop]
            texts = [texts[k] for k in loop]
            lens_l = [lens_l[k] for k in loop]
        else:
            idxs_l = idxs
        _slice_writes(
            buffer, bp, idxs_l.tolist(), cids_a.tolist(), offs_a.tolist(),
            olds_a.tolist(), texts, lens_l, stats,
        )
    dut.ser_len[idxs] = lens
    stats.values_rewritten += n


def _slice_writes(
    buffer,
    bp: "BoundParam",
    entries: List[int],
    cids: List[int],
    offs: List[int],
    olds: List[int],
    texts: Sequence[bytes],
    lens: List[int],
    stats: RewriteStats,
) -> None:
    """Write each text over its field's value through slices of the
    chunk ``bytearray``; a text of a new length moves the closing tag
    and blanks the tail (every text fits its field).  Counts the tag
    shifts and pad bytes; the caller stores the lengths."""
    tag_shifts = 0
    pad_bytes = 0
    uniform = bp.arity == 1
    if uniform:
        close = bp.close_tags[0]
        clen = len(close)
    pad = _PAD
    data = None
    last_cid = -1
    for entry, cid, off, old, text, new_len in zip(entries, cids, offs, olds, texts, lens):
        if cid != last_cid:
            data = buffer.chunk(cid).data
            last_cid = cid
        end_v = off + new_len
        data[off:end_v] = text  # type: ignore[index]
        if new_len != old:
            if not uniform:
                close = bp.close_tags[(entry - bp.entry_base) % bp.arity]
                clen = len(close)
            data[end_v : end_v + clen] = close  # type: ignore[index]
            tag_shifts += 1
            if new_len < old:
                gap = old - new_len
                start = end_v + clen
                # _PAD only interns gaps < 64; a string shrinking by
                # more (possible for TrackedStringArray) needs a fresh
                # pad of the exact size.
                data[start : start + gap] = (  # type: ignore[index]
                    pad[gap] if gap < 64 else b" " * gap
                )
                pad_bytes += gap
    stats.tag_shifts += tag_shifts
    stats.pad_bytes += pad_bytes


def _write_few(
    template: "MessageTemplate",
    bp: "BoundParam",
    entries: List[int],
    texts: Sequence[bytes],
    stats: RewriteStats,
) -> bool:
    """:func:`_fast_rewrite` for a few entries, their DUT cells read one
    by one instead of as columns; ``False`` (nothing written) when a
    text outgrows its field."""
    dut = template.dut
    lens = list(map(len, texts))
    width = dut.field_width
    if any(n > width[e] for e, n in zip(entries, lens)):
        return False
    olds = [int(dut.ser_len[e]) for e in entries]
    _slice_writes(
        template.buffer, bp, entries,
        [int(dut.chunk_id[e]) for e in entries],
        [int(dut.value_off[e]) for e in entries],
        olds, texts, lens, stats,
    )
    ser_len = dut.ser_len
    for e, n, old in zip(entries, lens, olds):
        if n != old:
            ser_len[e] = n
    stats.values_rewritten += len(entries)
    return True


def _shift_rewrite(
    template: "MessageTemplate",
    bp: "BoundParam",
    idxs: np.ndarray,
    texts: Sequence[bytes],
    lens: np.ndarray,
    stats: RewriteStats,
    obs,
) -> None:
    """Partial-structural write: one rebuild per chunk.

    Each entry's new width is ``max(field_width, len)``.  A chunk whose
    dirty entries grow is rebuilt once from its first growing entry on
    (kept spans joined with the new regions: text, closing tag, pad to
    the new width), its entries' offsets move by one cumulative sum,
    and the buffer splits or reallocates it once if it outgrew its
    capacity.  The dirty entries that do not move — those before their
    chunk's first growing entry — take :func:`_fast_rewrite`.
    """
    dut = template.dut
    buffer = template.buffer
    widths = dut.field_width[idxs]
    grow = np.maximum(lens - widths, 0)
    cids = dut.chunk_id[idxs]
    cuts = np.flatnonzero(cids[1:] != cids[:-1]) + 1
    starts = np.concatenate(([0], cuts))
    ends = np.concatenate((cuts, [len(idxs)]))
    # An entry moves iff it is at or after its chunk's first growing
    # entry: a running count of growing entries, restarted per chunk.
    grows = np.cumsum(grow > 0)
    moves = grows > np.repeat(grows[starts] - (grow[starts] > 0), ends - starts)
    still = np.flatnonzero(~moves)
    if still.size:
        _fast_rewrite(
            template,
            bp,
            idxs[still],
            [texts[k] for k in still.tolist()],
            lens[still].tolist(),
            lens[still],
            stats,
        )

    offs_a = dut.value_off[idxs]
    ends_a = offs_a + widths + dut.close_len[idxs]
    tags = bp.close_tags
    leaf = ((idxs - bp.entry_base) % bp.arity).tolist()
    pads = (widths + grow - lens).tolist()
    edits = []
    counts = []
    for s, e in zip(starts.tolist(), ends.tolist()):
        s += int(np.count_nonzero(~moves[s:e]))
        if s == e:
            continue
        cid = int(cids[s])
        chunk = buffer.chunk(cid)
        lo, hi = dut.chunk_range(cid)
        step = np.zeros(hi - lo, dtype=np.int64)
        step[idxs[s:e] - lo] = grow[s:e]
        dut.value_off[lo:hi] += np.cumsum(step) - step
        placed = dut.value_off[int(idxs[s]) : hi]
        offs = offs_a[s:e].tolist()
        rends = ends_a[s:e].tolist()
        data = memoryview(chunk.data)
        kept = [data[a:b] for a, b in zip(rends, offs[1:])]
        kept.append(data[rends[-1] : chunk.used])
        parts = []
        for k, span in zip(range(s, e), kept):
            p = pads[k]
            parts += (texts[k], tags[leaf[k]], _PAD[p] if p < 64 else b" " * p, span)
        edits.append((cid, offs[0], b"".join(parts), placed[placed > 0].tolist()))
        counts.append(int(np.count_nonzero(grow[s:e])))

    tracing = obs is not None and obs.tracer.enabled
    for result, expansions in zip(buffer.rebuild(edits), counts):
        dut.apply_split(result)
        if result.mode == "inplace":
            stats.shifts_inplace += expansions
        elif result.mode == "realloc":
            stats.reallocs += expansions
        else:
            stats.splits += expansions
        if tracing:
            obs.tracer.emit(
                "shift",
                template_id=template.template_id,
                chunk=result.cid,
                expansions=expansions,
                bytes=result.moved,
                mode=result.mode,
            )

    moved = idxs[moves]
    changed = lens[moves] - dut.ser_len[moved]
    dut.field_width[moved] += grow[moves]
    widened = grow > 0
    stats.grown += ((idxs[widened], grow[widened]),)
    dut.ser_len[moved] = lens[moves]
    stats.values_rewritten += len(moved)
    stats.tag_shifts += int(np.count_nonzero(changed))
    stats.pad_bytes += int(-changed[changed < 0].sum())


def _rewrite_run(
    template: "MessageTemplate",
    bp: "BoundParam",
    idxs: np.ndarray,
    fmt: FloatFormat,
    stats: RewriteStats,
    obs,
) -> None:
    """Re-serialize *bp*'s dirty entries *idxs* (ascending DUT indices)
    in float format *fmt*; fewer than
    :data:`~repro.wire.frame.SMALL_FRAME` that fit their fields are
    written cell by cell (:func:`_write_few`)."""
    texts = bp.tracked.lexical_for(idxs - bp.entry_base, fmt)
    if idxs.size < wire_frame.SMALL_FRAME and _write_few(
        template, bp, idxs.tolist(), texts, stats
    ):
        return
    lens_l = list(map(len, texts))
    lens = np.asarray(lens_l, dtype=np.int32)
    if bool((lens > template.dut.field_width[idxs]).any()):
        _shift_rewrite(template, bp, idxs, texts, lens, stats, obs)
    else:
        _fast_rewrite(template, bp, idxs, texts, lens_l, lens, stats)


def render_stale(template: "MessageTemplate", stale: np.ndarray) -> None:
    """Write the text of the *stale* (bool mask over DUT entries)
    deferred doubles: the rewrite :func:`rewrite_dirty` skipped, run
    now, in MINIMAL form (only MINIMAL senders defer: their frames type
    the doubles).  Those values were counted when deferred; this pass
    counts nothing."""
    stats = RewriteStats()
    for bp in template.params:
        seg = stale[bp.entry_base : bp.entry_end]
        if seg.any():
            idxs = bp.entry_base + np.flatnonzero(seg)
            _rewrite_run(template, bp, idxs, FloatFormat.MINIMAL, stats, None)


def _deferrable(
    template: "MessageTemplate", bp: "BoundParam", idxs: np.ndarray
) -> np.ndarray:
    """Mask of the dirty entries *idxs* of *bp* whose text may be left
    stale: doubles whose fields provably hold their MINIMAL text.  A
    field of :data:`DOUBLE_MAX_WIDTH` characters holds any double (the
    proof's trivial case); a narrower one is proven by
    :func:`~repro.lexical.floats.minimal_fits` only in a run of at
    least :data:`~repro.wire.frame.SMALL_FRAME` dirty doubles."""
    dut = template.dut
    widths = dut.field_width[idxs]
    lazy = widths >= DOUBLE_MAX_WIDTH
    if bp.leaf_types == (DOUBLE,):
        doubles, count = None, idxs.size
    else:
        doubles = dut.type_id[idxs] == DOUBLE.type_id
        lazy &= doubles
        count = np.count_nonzero(doubles)
    # A short run, or every double in a full-width field (MAX stuffing):
    # nothing left to prove.
    if count < wire_frame.SMALL_FRAME or np.count_nonzero(lazy) == count:
        return lazy
    narrow = np.flatnonzero(~lazy if doubles is None else doubles & ~lazy)
    lazy[narrow] = minimal_fits(
        bp.tracked.doubles_for(idxs[narrow] - bp.entry_base), widths[narrow]
    )
    return lazy


def rewrite_dirty(
    template: "MessageTemplate", policy: DiffPolicy, obs=None, defer: bool = False
) -> RewriteStats:
    """Re-serialize every dirty entry; clear dirty bits; return stats.

    With *defer*, dirty doubles proven to fit their fields are marked
    stale instead of written (module docstring); without it, the
    template's stale text is rendered first, so the pass leaves every
    byte current.
    """
    tracing = obs is not None and obs.tracer.enabled
    t0 = perf_counter() if tracing else 0.0
    stats = RewriteStats()
    stats.layout_epoch = template.buffer.layout_epoch
    dut = template.dut
    if not defer:
        template.render_stale()
    for bp in template.params:
        base = bp.entry_base
        end = base + bp.leaf_count
        idxs = dut.dirty[base:end].nonzero()[0]
        if not idxs.size:
            continue
        if base:
            idxs += base
        if defer and DOUBLE in bp.leaf_types:
            lazy = _deferrable(template, bp, idxs)
            deferred = int(np.count_nonzero(lazy))
            if deferred:
                if template.stale is None:
                    template.stale = np.zeros(len(dut), dtype=bool)
                template.stale[idxs[lazy]] = True
                stats.values_rewritten += deferred
                stats.values_deferred += deferred
                idxs = idxs[:0] if deferred == idxs.size else idxs[~lazy]
        if idxs.size:
            if template.stale is not None:
                # Deferred by an earlier send, written by this one.
                template.stale[idxs] = False
            _rewrite_run(template, bp, idxs, policy.float_format, stats, obs)
        dut.clear_dirty(base, end)
    if tracing:
        obs.tracer.emit(
            "rewrite",
            duration_s=perf_counter() - t0,
            template_id=template.template_id,
            values=stats.values_rewritten,
            expansions=stats.expansions,
            tag_shifts=stats.tag_shifts,
        )
    return stats

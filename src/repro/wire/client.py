"""Client side of the delta-frame protocol: baselines + splice harvest.

The :class:`DeltaEncoder` rides along inside
:class:`~repro.core.client.BSoapClient`:

* every full-XML send of a surviving template *announces* a baseline
  (template id + a fresh epoch) via headers the HTTP framer injects,
  so the server can keep a mirror copy of the body;
* once the server's ``X-Repro-Delta: 1`` response header flips
  :attr:`negotiated`, eligible steady-state sends are encoded as
  binary frames instead: the splices are harvested straight from the
  DUT dirty snapshot taken by ``begin_send()``.  A dirty ``xsd:double``
  leaf of a MINIMAL-format sender is a *typed splice*, its value as
  binary64 from the tracked column, which the receiver renders to the
  very text the sender's rewrite writes (the sender itself defers that
  text while frames type its doubles: :meth:`types_doubles`); every
  other dirty leaf is a byte
  splice, exactly the region (value + closing tag + pad) the
  differential rewrite touched;
* a field the rewrite widened (a partial structural match) is also a
  *pad insertion*: its growth, at the end of its old region, in
  new-document coordinates, taken from the rewrite's record of what
  it widened (``RewriteStats.grown``), with no second pass over the
  DUT.

Eligibility is deliberately conservative; anything else falls back to
full XML with a fresh announce, counted by reason, so correctness
never depends on the optimization:

* a baseline must be held, and the template's last send must have
  been this encoder's (a template store shared with another client
  can send it elsewhere),
* the buffer's ``layout_epoch`` and total length must equal the
  baseline's, or this send's widening must explain them: the epoch
  before its rewrite is the baseline's and the old length plus the
  growth is the new one (the baseline then follows),
* the frame must stay under ``max_splices`` and under
  ``max_frame_fraction`` of the document (at high churn a patch
  approaches the document size and full XML is strictly cheaper).

This module must not import :mod:`repro.core` (the client imports us);
templates and policies are duck-typed.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from typing import Dict, List, Optional

import numpy as np

from repro.buffers.iovec import row_window
from repro.hardening.limits import DEFAULT_LIMITS
from repro.lexical.floats import FloatFormat
from repro.schema.types import DOUBLE
from repro.wire import frame as wire_frame
from repro.wire.frame import (
    DIR_ENTRY,
    HEADER,
    INSERT_FLAG,
    SCATTER_MIN,
    TYPED_BYTES,
    encode_frame,
)

__all__ = ["DeltaEncoder"]


class _Baseline:
    """What the client believes the server mirrors for one template."""

    __slots__ = ("epoch", "seq", "doc_len", "layout_epoch", "sends")

    def __init__(
        self, epoch: int, doc_len: int, layout_epoch: int, sends: int
    ) -> None:
        self.epoch = epoch
        self.seq = 0
        self.doc_len = doc_len
        self.layout_epoch = layout_epoch
        #: The template's send count when its next send is this
        #: encoder's: a send through another client of a shared
        #: template store moved the document without this peer.
        self.sends = sends


class DeltaEncoder:
    """Per-client delta-frame state machine (see module docstring)."""

    def __init__(
        self, policy, transport, obs=None, float_format: Optional[FloatFormat] = None
    ) -> None:
        self.policy = policy
        self.transport = transport
        #: Dirty doubles travel as typed splices: the sender formats
        #: them MINIMAL, the form the receiver renders (*float_format*
        #: ``None``: the sender's format is unknown, byte splices only).
        self.typed = float_format is FloatFormat.MINIMAL
        #: Offer enabled *and* the transport can carry frames.
        self.active = bool(
            getattr(policy, "offer", False)
            and hasattr(transport, "send_delta_frame")
            and hasattr(transport, "set_delta_announce")
        )
        #: Flipped by the channel when the server's response carries
        #: the acceptance header.  Frames are only sent when True.
        self.negotiated = False
        self.obs = obs
        # LRU in the order the peer's mirror store uses (announce and
        # frame both touch), capped at the default mirror count: a
        # baseline the peer has evicted would only earn a resync.
        self._baselines: "OrderedDict[int, _Baseline]" = OrderedDict()
        self._epoch_counter = 0
        # Lifetime counters (the owning client serves them as metrics).
        self.frames_sent = 0
        self.bytes_saved = 0
        self.fallbacks: Dict[str, int] = {}

    #: Prefix of this encoder's ``outcome`` label values; the owner of
    #: a reply-direction instance (a server session) sets ``"reply-"``.
    metric_prefix = ""

    def metric_samples(self) -> Dict[tuple, int]:
        """The encoder's counters, by series (see ``repro.obs.metrics``)."""
        prefix = self.metric_prefix
        samples = {
            ("repro_delta_frames_total", prefix + "encoded"): self.frames_sent,
            ("repro_delta_bytes_saved_total",): self.bytes_saved,
        }
        for reason, count in self.fallbacks.copy().items():
            samples[
                "repro_delta_frames_total", f"{prefix}fallback-{reason}"
            ] = count
        return samples

    # ------------------------------------------------------------------
    def announce(self, template) -> None:
        """Record a fresh baseline and arm announce headers for the
        imminent full-XML send of *template*."""
        if not self.active:
            return
        self._epoch_counter += 1
        baseline = _Baseline(
            self._epoch_counter,
            template.total_bytes,
            template.buffer.layout_epoch,
            template.sends + 1,
        )
        baselines = self._baselines
        baselines.pop(template.template_id, None)
        baselines[template.template_id] = baseline
        if len(baselines) > DEFAULT_LIMITS.max_delta_mirrors:
            baselines.popitem(last=False)
        self.transport.set_delta_announce(template.template_id, baseline.epoch)

    def invalidate(self, template_id: int) -> None:
        """Drop one baseline (send failed / template quarantined)."""
        self._baselines.pop(template_id, None)

    def reset_baselines(self) -> None:
        """Drop every baseline (the connection — and with it the
        server session holding the mirrors — died)."""
        self._baselines.clear()

    def types_doubles(self, template) -> bool:
        """Whether a frame for *template* would carry its dirty doubles
        as typed splices: frames flow and a baseline is held.  The
        frame may still fall back; the client then renders the text."""
        return (
            self.typed
            and self.active
            and self.negotiated
            and template.template_id in self._baselines
        )

    # ------------------------------------------------------------------
    def try_encode(self, template, snapshot, rewrite) -> Optional[bytes]:
        """Encode this send as a frame, or ``None`` to fall back.

        *snapshot* is the dirty mask captured by ``begin_send()``
        before the rewrite ran; *rewrite* the pass's stats.
        """
        if not (self.active and self.negotiated):
            return None
        baseline = self._baselines.get(template.template_id)
        if baseline is None:
            return self._fallback("no-baseline")
        if template.sends != baseline.sends:
            return self._fallback("foreign-send")
        buffer = template.buffer
        widened = rewrite.grown
        if buffer.layout_epoch != baseline.layout_epoch and not (
            widened and rewrite.layout_epoch == baseline.layout_epoch
        ):
            # Moved by something other than this send's widening.
            return self._fallback("layout-epoch")
        doc_len = template.total_bytes
        growth = 0
        grown = growth_of = None
        if widened:
            grown = np.concatenate([entries for entries, _g in widened])
            growth_of = np.concatenate([g for _e, g in widened]).astype(np.int64)
            growth = int(growth_of.sum())
        if doc_len != baseline.doc_len + growth:
            return self._fallback("doc-len")

        n_inserts = grown.size if growth else 0
        if np.count_nonzero(snapshot):
            take = snapshot.nonzero()[0]
            lane = (
                self._directory_small
                if take.size + n_inserts < wire_frame.SMALL_FRAME
                else self._directory_large
            )
            directory = lane(
                template, take, _chunk_bases(buffer), doc_len, grown, growth_of
            )
            if directory is None:
                return None
            out_offsets, out_widths, payload = directory
        else:
            # Content match: nothing dirty — a header-only frame.
            out_offsets = ()
            out_widths = ()
            payload = b""

        # The baseline follows this send's widening, if any.
        baseline.doc_len = doc_len
        baseline.layout_epoch = buffer.layout_epoch
        baseline.seq += 1
        baseline.sends += 1
        try:
            self._baselines.move_to_end(template.template_id)
        except KeyError:
            # Invalidated under us (a pipelined receiver quarantining
            # the template): the frame goes out, the peer resyncs.
            pass
        frame = encode_frame(
            template.template_id,
            baseline.epoch,
            baseline.seq,
            baseline.doc_len,
            out_offsets,
            out_widths,
            payload,
        )
        self.frames_sent += 1
        saved = baseline.doc_len - len(frame)
        if saved > 0:
            self.bytes_saved += saved
        obs = self.obs
        if obs is not None and obs.tracer.enabled:
            obs.tracer.emit(
                "delta-encode",
                template_id=template.template_id,
                epoch=baseline.epoch,
                seq=baseline.seq,
                splices=len(out_offsets) - n_inserts,
                insertions=n_inserts,
                frame_bytes=len(frame),
                doc_bytes=baseline.doc_len,
            )
        return frame

    def _fallback(self, reason: str) -> None:
        self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1
        return None

    def _fits(self, entries: int, spliced: int, typed: int, doc_len: int) -> bool:
        """Whether a frame of *entries* directory entries, *spliced*
        byte-splice bytes and *typed* typed splices passes the policy's
        gates; counts the fallback when it does not."""
        if entries > self.policy.max_splices:
            self._fallback("too-many-splices")
            return False
        estimated = (
            HEADER.size + entries * DIR_ENTRY.size + spliced + typed * TYPED_BYTES
        )
        if estimated > self.policy.max_frame_fraction * doc_len:
            self._fallback("frame-too-large")
            return False
        return True

    def _directory_small(self, template, take, bases, doc_len, grown, growth_of):
        """``(offsets, widths, payload)`` of the frame for the dirty DUT
        entries *take* and the widened entries *grown* (``None``: none),
        as Python ints, or ``None`` after a counted fallback: the scalar
        lane of :meth:`try_encode`, for fewer than
        :data:`~repro.wire.frame.SMALL_FRAME` entries.
        :meth:`_directory_large` gives the same frame."""
        dut = template.dut
        typed_on = self.typed
        double = DOUBLE.type_id
        # One directory entry per dirty region, in document order, as
        # _byte_splices: a typed splice has width 0.
        offsets: List[int] = []
        widths: List[int] = []
        typed: List[int] = []
        regions = []
        spliced = 0
        for entry in take.tolist():
            cid = int(dut.chunk_id[entry])
            off = int(dut.value_off[entry])
            offsets.append(bases[cid] + off)
            if typed_on and dut.type_id[entry] == double:
                typed.append(entry)
                widths.append(0)
                continue
            width = int(dut.field_width[entry]) + int(dut.close_len[entry])
            regions.append((cid, off, off + width))
            widths.append(width)
            spliced += width
        n_inserts = 0 if grown is None else grown.size
        if not self._fits(len(offsets) + n_inserts, spliced, len(typed), doc_len):
            return None
        buffer = template.buffer
        parts = [buffer.chunk(cid).data[a:b] for cid, a, b in regions]
        if typed:
            parts.append(_typed_bytes_small(template, typed))
        if n_inserts:
            # The insertions lead the directory: each is the widened
            # field's new pad, at the end of its region.
            counts = growth_of.tolist()
            offsets = [
                bases[int(dut.chunk_id[e])]
                + int(dut.value_off[e])
                + int(dut.field_width[e])
                + int(dut.close_len[e])
                - count
                for e, count in zip(grown.tolist(), counts)
            ] + offsets
            widths = [count | INSERT_FLAG for count in counts] + widths
        return offsets, widths, b"".join(parts)

    def _directory_large(self, template, take, bases, doc_len, grown, growth_of):
        """:meth:`_directory_small` as NumPy columns: the vector lane of
        :meth:`try_encode`."""
        dut = template.dut
        bases = np.array(bases, dtype=np.int64)
        typed = take[:0]
        if self.typed:
            is_double = dut.type_id[take] == DOUBLE.type_id
            if bool(is_double.all()):
                typed, take = take, typed
            elif bool(is_double.any()):
                typed, take = take[is_double], take[~is_double]
        out_offsets, out_widths = _byte_splices(template, take, bases)
        n_inserts = 0 if grown is None else grown.size
        if not self._fits(
            out_offsets.size + typed.size + n_inserts,
            int(out_widths.sum()),
            typed.size,
            doc_len,
        ):
            return None
        parts = _region_bytes(template, take)
        if typed.size:
            # Directory order is offset order; the values follow the
            # byte splices' bytes in that order.
            typed_offsets = bases[dut.chunk_id[typed]] + dut.value_off[typed]
            parts.append(_typed_values(template, typed).astype("<f8").tobytes())
            typed_widths = np.zeros(typed.size, dtype=np.int64)
            if take.size:
                out_offsets = np.concatenate((out_offsets, typed_offsets))
                out_widths = np.concatenate((out_widths, typed_widths))
                order = np.argsort(out_offsets, kind="stable")
                out_offsets, out_widths = out_offsets[order], out_widths[order]
            else:
                out_offsets, out_widths = typed_offsets, typed_widths
        if n_inserts:
            # The insertions lead the directory: each is the widened
            # field's new pad, at the end of its region.
            region_ends = (
                bases[dut.chunk_id[grown]]
                + dut.value_off[grown]
                + dut.field_width[grown]
                + dut.close_len[grown]
            )
            out_offsets = np.concatenate((region_ends - growth_of, out_offsets))
            out_widths = np.concatenate((growth_of | INSERT_FLAG, out_widths))
        return out_offsets, out_widths, b"".join(parts)


def _chunk_bases(buffer) -> List[int]:
    """Each chunk's document offset, by chunk id."""
    order = buffer.chunk_ids
    bases = [0] * (max(order) + 1)
    pos = 0
    for cid in order:
        bases[cid] = pos
        pos += buffer.chunk(cid).used
    return bases


def _byte_splices(template, take: np.ndarray, bases: np.ndarray):
    """``(offsets, widths)`` of the byte splices for the dirty DUT
    entries *take* (document order): one per entry, its whole region —
    value bytes, the (possibly moved) closing tag and the pad a
    no-expansion rewrite may touch.  Two leaf regions are never
    byte-adjacent (the next leaf's start tag lies between them), and a
    receiver refuses a splice that reaches past one region, so there is
    nothing to coalesce."""
    if not take.size:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    dut = template.dut
    widths = dut.field_width[take].astype(np.int64) + dut.close_len[take]
    return bases[dut.chunk_id[take]] + dut.value_off[take], widths


def _region_bytes(template, take: np.ndarray) -> list:
    """The bytes of the regions of the DUT entries *take*, in order.

    Regions of one width (a MAX- or FIXED-stuffed array), at least
    SCATTER_MIN per chunk run on average: one row-window gather per
    run.  Anything else: one slice per region.
    """
    if not take.size:
        return []
    dut = template.dut
    buffer = template.buffer
    cids = dut.chunk_id[take]
    value_offs = dut.value_off[take].astype(np.int64)
    widths = dut.field_width[take].astype(np.int64) + dut.close_len[take]
    lo = [0, *(np.flatnonzero(cids[1:] != cids[:-1]) + 1).tolist()]
    width = int(widths[0])
    if take.size >= SCATTER_MIN * len(lo) and bool((widths == width).all()):
        return [
            row_window(buffer.chunk(cid).data, width)[value_offs[s:e]]
            for cid, s, e in zip(cids[lo].tolist(), lo, lo[1:] + [take.size])
        ]
    data = {cid: buffer.chunk(cid).data for cid in buffer.chunk_ids}
    stops = (value_offs + widths).tolist()
    return [
        data[c][a:b] for c, a, b in zip(cids.tolist(), value_offs.tolist(), stops)
    ]


def _typed_values(template, typed: np.ndarray) -> np.ndarray:
    """The current values of the dirty double DUT entries *typed*
    (document order), gathered from each parameter's tracked column."""
    for bp in template.params:
        if bp.entry_base <= typed[0] and typed[-1] < bp.entry_end:
            # One parameter holds them all (an array message).
            return bp.tracked.doubles_for(typed - bp.entry_base)
    out = np.empty(typed.size, dtype=np.float64)
    for bp in template.params:
        lo, hi = np.searchsorted(typed, (bp.entry_base, bp.entry_end))
        if lo < hi:
            out[lo:hi] = bp.tracked.doubles_for(typed[lo:hi] - bp.entry_base)
    return out


def _typed_bytes_small(template, typed: List[int]) -> bytes:
    """:func:`_typed_values` of the few DUT entries *typed* (document
    order), as the frame's ``<f8`` payload bytes."""
    values: List[float] = []
    for bp in template.params:
        base, end = bp.entry_base, bp.entry_end
        leaves = [entry - base for entry in typed if base <= entry < end]
        if leaves:
            values += bp.tracked.doubles_for(np.array(leaves)).tolist()
    return struct.pack("<%dd" % len(values), *values)

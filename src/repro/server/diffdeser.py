"""Differential deserialization (paper §6, future work).

    "storing messages at a SOAP server could help in a completely
    different way, by suggesting the structure of future message
    arrivals.  This could help avoid complete server-side parsing and
    improve performance, through differential deserialization."

The deserializer keeps, per sender, the previous message (the
*template document*), its :class:`~repro.server.parser.ParseResult`
(decoded values + leaf byte spans) and a
:class:`~repro.schema.skipscan.SeekTable` compiled from the two.  What
it does with an incoming message depends on the kind of input:

* **A mirrored document with its frame**
  (:class:`~repro.wire.server.MirroredDocument`, what
  :meth:`DeltaSession.apply <repro.wire.server.DeltaSession.apply>`
  returns).  The mirror the frame patched *is* the template document —
  one ``bytearray``, held by both — so the sender's splice directory
  already says which bytes changed:

  1. a header-only frame → the cached decode (zero work),
  2. one ``searchsorted`` of the directory against the seek table's
     regions names the changed leaves; a splice that is not inside one
     leaf's field region touched the skeleton (``skeleton-drift``),
  3. the seek table validates and re-parses those leaves only — closing
     tags, pad, charset, two-phase commit, see ``docs/skipscan.md`` —
     reading uniform double regions straight from the frame payload,
  4. any doubt (skeleton drift, the seek table declines the bytes, no
     table armed, a frame that is not the next one for this buffer) →
     full parse of the patched buffer.  The buffer changed before its
     bytes were checked, so the old decode is dropped *before* that
     parse: if it raises, no template is left rather than a stale one.

  No step reads, compares or copies the document.

* **A document** (``bytes``; or a mirrored document that is not the
  current template — a full-XML announce, another operation's mirror).
  For a message of the *same length* as the template:

  1. vectorized byte comparison against the template
     (``np.frombuffer`` + ``!=``),
  2. if nothing differs → the cached decode (content match),
  3. if all differing bytes fall inside known leaf field regions → the
     seek table re-parses only those leaves (the structural match),
  4. otherwise (length change, skeleton bytes differ, the seek table
     declines the bytes, or no seek table is armed) → full parse and
     refresh the template.  A parse that raises leaves the previous
     template as it was.

  Either way the message becomes the template; a mirrored document is
  adopted as it is, so the next frame against it takes the first lane.

The seek table is the only structural lane and the full parse is its
authority.  "No seek table armed" covers a template
:meth:`SeekTable.compile` refused (``uncompilable-*``) and one whose
table the overload ladder shed (``shed``): both answer the next
changed message with one full parse, which compiles again.

This is exactly dual to client-side differential serialization: the
sender's stuffed/fixed-width messages produce same-length byte streams
whose only variation is inside value spans.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Dict, Optional, Union

import numpy as np

from repro.hardening.limits import ResourceLimits
from repro.obs import NULL_OBS, Observability
from repro.schema.registry import TypeRegistry
from repro.schema.skipscan import SeekTable, SkipScanFallback
from repro.server.parser import DecodedMessage, ParseResult, SOAPRequestParser
from repro.wire.frame import DeltaFrame
from repro.wire.server import MirroredDocument

__all__ = ["DeserKind", "DeserReport", "DifferentialDeserializer"]

#: A template document: immutable, or a mirror patched in place.
Document = Union[bytes, bytearray]


class DeserKind(enum.Enum):
    """Which path an incoming message took."""

    FULL = "full"
    CONTENT_MATCH = "content"
    DIFFERENTIAL = "differential"


@dataclass(slots=True)
class DeserReport:
    """Outcome of one deserialization."""

    kind: DeserKind
    leaves_parsed: int
    total_leaves: int


class DifferentialDeserializer:
    """Template-matching deserializer (see module docstring).

    Parameters
    ----------
    descriptors:
        Optional ``operation name → MessageDescriptor subclass`` map
        (see :mod:`repro.schema.descriptors`).  When the parsed
        operation has a descriptor, the template must match its
        declared shape before a seek table compiles; operations
        without one compile schema-free.
    obs:
        Observability facade: its registry serves
        ``repro_skipscan_events_total`` from :attr:`skipscan_stats`,
        its tracer gets ``skipscan`` spans (defaults to the no-op
        :data:`NULL_OBS`).
    """

    def __init__(
        self,
        registry: Optional[TypeRegistry] = None,
        limits: Optional[ResourceLimits] = None,
        *,
        descriptors: Optional[Dict[str, type]] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.parser = SOAPRequestParser(registry, limits)
        self.descriptors = descriptors
        self.obs = obs if obs is not None else NULL_OBS
        # The template document, held and never copied: immutable
        # ``bytes`` from full-XML traffic, or the ``bytearray`` a
        # DeltaSession mirror patches in place.
        self._buffer: Optional[Document] = None
        # uint8 view of it.
        self._last_raw: Optional[np.ndarray] = None
        # Sequence number of the last frame whose patch to a mirrored
        # ``_buffer`` the decode below has followed (0: none yet).
        self._seq = 0
        self._result: Optional[ParseResult] = None
        self._table: Optional[SeekTable] = None
        self.stats = {kind: 0 for kind in DeserKind}
        #: Skip-scan event counts (compiled / hit / hit-vector /
        #: fallback-* / length-drift / skeleton-drift / uncompilable-*).
        self.skipscan_stats: Dict[str, int] = {}
        self.obs.watch(self)

    #: Prefix of this deserializer's ``event`` label values; the owner
    #: of a reply-direction instance (the channel) sets ``"reply-"``.
    metric_prefix = ""

    def metric_samples(self) -> Dict[tuple, int]:
        """``repro_skipscan_events_total{event}`` samples."""
        prefix = self.metric_prefix
        return {
            ("repro_skipscan_events_total", prefix + event): count
            for event, count in self.skipscan_stats.copy().items()
        }

    # ------------------------------------------------------------------
    def _skip_event(self, event: str) -> None:
        self.skipscan_stats[event] = self.skipscan_stats.get(event, 0) + 1

    def _adopt(self, buffer: Document, raw: np.ndarray, seq: int) -> None:
        """*buffer* (viewed by *raw*) is what ``_result`` decodes now."""
        self._buffer = buffer
        self._last_raw = raw
        self._seq = seq

    def _full_parse(
        self, buffer: Document, seq: int
    ) -> tuple[DecodedMessage, DeserReport]:
        data = buffer if isinstance(buffer, bytes) else bytes(buffer)
        result = self.parser.parse(data)
        self._result = result
        self._adopt(buffer, np.frombuffer(buffer, dtype=np.uint8), seq)
        self._table = None
        descriptor = (
            self.descriptors.get(result.message.operation)
            if self.descriptors is not None
            else None
        )
        try:
            self._table = SeekTable.compile(data, result, descriptor)
        except SkipScanFallback as exc:
            self._skip_event(f"uncompilable-{exc.reason}")
        else:
            self._skip_event("compiled")
        report = DeserReport(DeserKind.FULL, result.leaf_count, result.leaf_count)
        self.stats[DeserKind.FULL] += 1
        return result.message, report

    def _content_match(self) -> tuple[DecodedMessage, DeserReport]:
        result = self._result
        self.stats[DeserKind.CONTENT_MATCH] += 1
        return result.message, DeserReport(
            DeserKind.CONTENT_MATCH, 0, result.leaf_count
        )

    def _seek(
        self,
        table: SeekTable,
        buffer: Document,
        raw: np.ndarray,
        changed: np.ndarray,
        rows: Optional[np.ndarray] = None,
    ) -> tuple[DecodedMessage, DeserReport]:
        """Re-parse the *changed* leaves of *buffer* through *table*.

        Validate + parse everything, commit only when the whole batch
        is clean; raises :class:`SkipScanFallback` (nothing committed)
        on any drift or parse doubt, which the caller answers with the
        authoritative full parse instead of an error from
        hand-computed offsets.
        """
        trace = self.obs.enabled and self.obs.tracer.enabled
        t0 = time.perf_counter() if trace else 0.0
        parsed, vectorized = table.apply(buffer, raw, changed, rows)
        self._skip_event("hit-vector" if vectorized else "hit")
        if trace:
            self.obs.tracer.emit(
                "skipscan",
                duration_s=time.perf_counter() - t0,
                leaves=parsed,
                vectorized=vectorized,
            )
        self.stats[DeserKind.DIFFERENTIAL] += 1
        return table.result.message, DeserReport(
            DeserKind.DIFFERENTIAL, int(changed.size), table.result.leaf_count
        )

    def deserialize(
        self, data: Union[bytes, MirroredDocument]
    ) -> tuple[DecodedMessage, DeserReport]:
        """Decode *data*, reusing the stored template when possible.

        The kind of input selects the lane (module docstring): a
        :class:`~repro.wire.server.MirroredDocument` whose buffer is
        the current template follows its frame's splice directory;
        anything else is compared with the template as a document.
        """
        if isinstance(data, MirroredDocument):
            frame = data.frame
            seq = frame.seq if frame is not None else 0
            if data.buffer is self._buffer:
                return self._decode_patched(frame, seq)
            return self._decode_document(data.buffer, seq)
        if not isinstance(data, bytes):
            data = bytes(data)  # the template aliases it: must not change
        return self._decode_document(data, 0)

    def _decode_patched(
        self, frame: Optional[DeltaFrame], seq: int
    ) -> tuple[DecodedMessage, DeserReport]:
        """The template buffer was patched in place (by *frame*)."""
        if frame is not None and seq == self._seq + 1:
            # Exactly this frame's splices separate the buffer from
            # what ``_result`` decodes.
            out = (
                self._follow_directory(frame)
                if frame.splice_count
                else self._content_match()
            )
            if out is not None:
                self._seq = seq
                return out
        # No older copy to compare with: the full parse decides, and
        # the decode of the buffer's former content goes first — a
        # parse that raises must leave no template, not a stale one.
        buffer = self._buffer
        self.reset()
        return self._full_parse(buffer, seq)

    def _follow_directory(
        self, frame: DeltaFrame
    ) -> Optional[tuple[DecodedMessage, DeserReport]]:
        """Re-parse the leaves *frame*'s splices lie in, or ``None``
        (the decline counted) when the seek table cannot answer."""
        table = self._table
        if table is None:
            return None
        offsets, widths = frame.offsets, frame.widths
        # Each splice must lie inside one leaf's field region (value +
        # closing tag + whitespace pad).
        owner = np.searchsorted(table.starts, offsets, side="right") - 1
        if owner[0] < 0 or bool(np.any(offsets + widths > table.ends[owner])):
            # Skeleton bytes rewritten — maybe to what they were.
            self._skip_event("skeleton-drift")
            return None
        width = table.region_len
        if width is not None and bool(np.all(widths == width)):
            # Every splice is one whole region: the rows to parse are
            # the payload as it arrived.
            changed = owner
            rows = np.frombuffer(frame.payload, dtype=np.uint8).reshape(-1, width)
        else:
            changed = np.unique(owner)
            rows = None
        try:
            return self._seek(table, self._buffer, self._last_raw, changed, rows)
        except SkipScanFallback as exc:
            self._skip_event(f"fallback-{exc.reason}")
            return None

    def _decode_document(
        self, buffer: Document, seq: int
    ) -> tuple[DecodedMessage, DeserReport]:
        """Compare *buffer* with the template; it becomes the template."""
        last = self._last_raw
        if last is None or len(buffer) != len(last):
            if self._table is not None:
                self._skip_event("length-drift")
            return self._full_parse(buffer, seq)

        incoming = np.frombuffer(buffer, dtype=np.uint8)
        diff_pos = np.flatnonzero(incoming != last)
        if diff_pos.size == 0:
            self._adopt(buffer, incoming, seq)
            return self._content_match()

        table = self._table
        if table is None:
            # Uncompilable or shed: the full parse is the only other
            # decoder, and it compiles again.
            return self._full_parse(buffer, seq)
        # Each differing byte must fall inside some leaf field region
        # (value + closing tag + whitespace pad).
        owner = np.searchsorted(table.starts, diff_pos, side="right") - 1
        inside = (owner >= 0) & (diff_pos < table.ends[np.clip(owner, 0, None)])
        if not bool(inside.all()):
            # Skeleton bytes changed — not the same template.
            self._skip_event("skeleton-drift")
            return self._full_parse(buffer, seq)

        try:
            out = self._seek(table, buffer, incoming, np.unique(owner))
        except SkipScanFallback as exc:
            self._skip_event(f"fallback-{exc.reason}")
            return self._full_parse(buffer, seq)
        # Every differing byte was inside a re-parsed region: the new
        # message is the template now.
        self._adopt(buffer, incoming, seq)
        return out

    # ------------------------------------------------------------------
    @property
    def has_template(self) -> bool:
        return self._result is not None

    @property
    def template_buffer(self) -> Optional[Document]:
        """The template document itself: ``bytes`` this deserializer
        alone holds, or a ``bytearray`` shared with the
        :class:`~repro.wire.server.DeltaSession` mirror that patches
        it (``None`` without a template)."""
        return self._buffer

    def reset(self) -> None:
        """Drop the stored template (and its compiled seek table)."""
        self._buffer = None
        self._last_raw = None
        self._seq = 0
        self._result = None
        self._table = None

    @property
    def has_seek_table(self) -> bool:
        """True when a compiled skip-scan table is armed."""
        return self._table is not None

    def drop_seek_table(self) -> int:
        """Shed the compiled seek table; return its byte size.

        A pressure-relief tier (see :mod:`repro.hardening.overload`):
        the template itself survives, so content matches stay free,
        and the next changed message costs one full parse, which
        compiles a new table.  Returns 0 when no table is armed.
        """
        if self._table is None:
            return 0
        freed = self._table.approx_bytes()
        self._table = None
        self._skip_event("shed")
        return freed

    def seek_table_bytes(self) -> int:
        """Bytes held by the compiled seek table (0 when none)."""
        return 0 if self._table is None else self._table.approx_bytes()

    def approx_bytes(self) -> int:
        """Approximate retained template bytes (document + decode).

        The decoded :class:`ParseResult` is dominated by its value
        containers, which scale with the raw document — fold them in
        as one extra raw-sized charge rather than walking every leaf.
        The document is counted whether or not a mirror shares it
        (:attr:`template_buffer`; the session ledger charges a shared
        one once).  The seek table is accounted separately
        (:meth:`seek_table_bytes`) because it sheds on its own tier.
        """
        if self._last_raw is None:
            return 0
        return 2 * self._last_raw.nbytes

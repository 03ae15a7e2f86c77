"""Differential deserialization (paper §6, future work).

    "storing messages at a SOAP server could help in a completely
    different way, by suggesting the structure of future message
    arrivals.  This could help avoid complete server-side parsing and
    improve performance, through differential deserialization."

The stored messages are the entries of a
:class:`~repro.wire.server.DeltaSession` — one per template the sender
uses, not one per sender.  Each entry holds a document, its
:class:`~repro.server.parser.ParseResult` (decoded values + leaf byte
spans) and a :class:`~repro.schema.skipscan.SeekTable` compiled from
the two.  :meth:`DifferentialDeserializer.deserialize` decodes the
entry it is handed, by one of two lanes:

* **Directory lane** — the entry was just patched by a frame that is
  the next one after the sequence number its decode has followed.  The
  sender's splice directory already says which bytes changed:

  1. a header-only frame → the cached decode (zero work),
  2. pad insertions (a field widened, the bytes behind it shifted) and
     typed splices (binary64 values of double leaves) are already in
     the decode: :meth:`~repro.wire.server.DeltaSession.apply` rebased
     the seek table over the insertions, mapped each typed splice to its
     leaf through it and committed it, leaving the text stale, so a
     frame of those only is done here,
  3. one ``searchsorted`` of the byte splices against the seek table's
     regions names the changed leaves; a splice that is not inside one
     leaf's field region touched the skeleton (``skeleton-drift``),
  4. the seek table validates and re-parses those leaves only — closing
     tags, pad, charset, two-phase commit, see ``docs/skipscan.md`` —
     reading uniform double regions straight from the frame payload.

  No step reads, compares or copies the document.

* **Document lane** — anything else: full XML deposited in the entry
  (an announce, or plain XML).  For a document of the *same length* as
  the one the entry's own previous decode describes:

  1. vectorized byte comparison (``np.frombuffer`` + ``!=``),
  2. if nothing differs → the cached decode (content match),
  3. if all differing bytes fall inside known leaf field regions → the
     seek table re-parses only those leaves (the structural match).

Any doubt — skeleton or length drift, the seek table declines the
bytes or a frame's insertions (``insertion-drift``), no table armed, a
frame whose predecessor the decode never followed, an entry with no
decode — is answered by a full parse of the
entry's document, which compiles a new table.  A patched document
changed before its bytes were checked, so a frame's doubt drops the
entry's decode *before* that parse: if it raises, no decode is left
rather than a stale one.  A deposited document that fails to parse
leaves the previous decode as it was.  Dropping a decode, comparing
against it, shedding its table and full-parsing its document each
render its stale leaves' text first (``DocumentEntry.render``).

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
from repro.server.parser import DecodedMessage, SOAPRequestParser
from repro.wire.frame import DeltaFrame
from repro.wire.server import DeltaSession, DocumentEntry, MirroredDocument

__all__ = ["DeserKind", "DeserReport", "DifferentialDeserializer"]


class DeserKind(enum.Enum):
    """Which path an incoming message took."""

    FULL = "full"
    CONTENT_MATCH = "content"
    DIFFERENTIAL = "differential"

    # Counted by kind on every decode: as MatchKind, an identity hash.
    __hash__ = object.__hash__


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
        #: The store whose entries this deserializer decodes — a server
        #: session's request direction, a channel's replies.  Bare
        #: ``bytes`` handed to :meth:`deserialize` are held in it under
        #: the plain key ``None``.
        self.store = DeltaSession(limits)
        self.stats = {kind: 0 for kind in DeserKind}
        #: Skip-scan event counts (compiled / hit / hit-vector /
        #: fallback-* / length-drift / skeleton-drift / insertion-drift /
        #: uncompilable-*).
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

    def _full_parse(self, entry: DocumentEntry) -> tuple[DecodedMessage, DeserReport]:
        data = entry.data
        if entry.base is data:
            entry.render()
        document = data if isinstance(data, bytes) else bytes(data)
        result = self.parser.parse(document)
        self.store.generation += 1
        entry.base, entry.decoded = data, entry.seq
        entry.result, entry.table, entry.stale = result, None, None
        descriptor = (
            self.descriptors.get(result.message.operation)
            if self.descriptors is not None
            else None
        )
        try:
            entry.table = SeekTable.compile(document, result, descriptor)
        except SkipScanFallback as exc:
            self._skip_event(f"uncompilable-{exc.reason}")
        else:
            self._skip_event("compiled")
        report = DeserReport(DeserKind.FULL, result.leaf_count, result.leaf_count)
        self.stats[DeserKind.FULL] += 1
        return result.message, report

    def _content_match(self, entry: DocumentEntry) -> tuple[DecodedMessage, DeserReport]:
        result = entry.result
        self.stats[DeserKind.CONTENT_MATCH] += 1
        return result.message, DeserReport(
            DeserKind.CONTENT_MATCH, 0, result.leaf_count
        )

    def _seek(
        self,
        table: SeekTable,
        buffer: Union[bytes, bytearray],
        raw: Optional[np.ndarray],
        changed: np.ndarray,
        rows: Optional[np.ndarray] = None,
        typed: int = 0,
    ) -> tuple[DecodedMessage, DeserReport]:
        """Re-parse the *changed* leaves of *buffer* (*raw*: its bytes as
        uint8, ``None`` when nothing changed) through *table*.

        Validate + parse everything, commit only when the whole batch
        is clean; raises :class:`SkipScanFallback` (nothing committed)
        on any drift or parse doubt, which the caller answers with the
        authoritative full parse instead of an error from
        hand-computed offsets.  *typed* leaves were committed from a
        frame's typed splices already and count as served here too (on
        the vector lane when the table has it armed).
        """
        trace = self.obs.enabled and self.obs.tracer.enabled
        t0 = time.perf_counter() if trace else 0.0
        if changed.size:
            parsed, vectorized = table.apply(buffer, raw, changed, rows)
        else:
            parsed, vectorized = 0, table.region_len is not None
        self._skip_event("hit-vector" if vectorized else "hit")
        if trace:
            self.obs.tracer.emit(
                "skipscan",
                duration_s=time.perf_counter() - t0,
                leaves=parsed + typed,
                vectorized=vectorized,
            )
        self.stats[DeserKind.DIFFERENTIAL] += 1
        return table.result.message, DeserReport(
            DeserKind.DIFFERENTIAL, int(changed.size) + typed, table.result.leaf_count
        )

    def deserialize(
        self, data: Union[bytes, MirroredDocument]
    ) -> tuple[DecodedMessage, DeserReport]:
        """Decode *data*, reusing its entry's decode when possible.

        *data* is a store entry with the frame that just patched it
        (:class:`~repro.wire.server.MirroredDocument`), or bare bytes,
        first held in :attr:`store` under the key ``None``.  The frame
        lane is taken when the frame is the next one after the sequence
        number the entry's decode has followed; anything else is
        compared, as a document, with the entry's own previous decode.
        """
        if not isinstance(data, MirroredDocument):
            # The decode keeps the document as its base: it must not change.
            data = self.store.deposit(bytes(data))
        entry, frame = data.entry, data.frame
        if frame is None:
            return self._decode_document(entry)
        if data.declined is not None:
            # The seek table could not follow the frame's pad
            # insertions: the apply let the decode go.
            self._skip_event(data.declined)
        if data.unchanged:
            entry.decoded = frame.seq
            return self._content_match(entry)
        if frame.seq == entry.decoded + 1:
            out = self._follow_directory(entry, frame)
            if out is not None:
                entry.decoded = frame.seq
                return out
        # No older copy to compare with: the full parse decides, and the
        # decode of the document's former content goes first.
        entry.drop_decode()
        self.store.generation += 1
        return self._full_parse(entry)

    def _follow_directory(
        self, entry: DocumentEntry, frame: DeltaFrame
    ) -> Optional[tuple[DecodedMessage, DeserReport]]:
        """Re-parse the leaves *frame*'s splices lie in, or ``None``
        (the decline counted) when the seek table cannot answer."""
        table = entry.table
        if table is None:
            return None
        # Typed splices: committed by DeltaSession.apply, which had this
        # table (a decode that follows its document keeps its table).
        typed = int(frame.typed_offsets.size)
        offsets, widths = frame.offsets, frame.widths
        if not offsets.size:
            return self._seek(table, entry.data, None, offsets, None, typed)
        raw = np.frombuffer(entry.data, dtype=np.uint8)
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
            return self._seek(table, entry.data, raw, changed, rows, typed)
        except SkipScanFallback as exc:
            self._skip_event(f"fallback-{exc.reason}")
            return None

    def _decode_document(
        self, entry: DocumentEntry
    ) -> tuple[DecodedMessage, DeserReport]:
        """Compare the entry's document with its decode's base; on
        success the document is the base."""
        data, base = entry.data, entry.base
        if entry.result is None or len(data) != len(base):
            if entry.table is not None:
                self._skip_event("length-drift")
            return self._full_parse(entry)

        entry.render()
        incoming = np.frombuffer(data, dtype=np.uint8)
        diff_pos = np.flatnonzero(incoming != np.frombuffer(base, dtype=np.uint8))
        if diff_pos.size == 0:
            entry.base, entry.decoded = data, entry.seq
            return self._content_match(entry)

        table = entry.table
        if table is None:
            # Uncompilable or shed: the full parse is the only other
            # decoder, and it compiles again.
            return self._full_parse(entry)
        # Each differing byte must fall inside some leaf field region
        # (value + closing tag + whitespace pad).
        owner = np.searchsorted(table.starts, diff_pos, side="right") - 1
        inside = (owner >= 0) & (diff_pos < table.ends[np.clip(owner, 0, None)])
        if not bool(inside.all()):
            # Skeleton bytes changed — not the same template.
            self._skip_event("skeleton-drift")
            return self._full_parse(entry)

        try:
            out = self._seek(table, data, incoming, np.unique(owner))
        except SkipScanFallback as exc:
            self._skip_event(f"fallback-{exc.reason}")
            return self._full_parse(entry)
        # Every differing byte was inside a re-parsed region: the
        # document is the decode's base now.
        entry.base, entry.decoded = data, entry.seq
        return out

    # ------------------------------------------------------------------
    @property
    def has_template(self) -> bool:
        """True when some entry of :attr:`store` holds a decode."""
        return any(e.result is not None for e in list(self.store.entries.values()))

    def reset(self) -> None:
        """Drop every entry's decode (and its compiled seek table)."""
        for entry in list(self.store.entries.values()):
            entry.drop_decode()
        self.store.generation += 1

    @property
    def has_seek_table(self) -> bool:
        """True when some entry has a compiled skip-scan table armed."""
        return any(e.table is not None for e in list(self.store.entries.values()))

    def drop_seek_table(self) -> int:
        """Shed the least-recently-used entry's seek table; return its
        byte size.

        A pressure-relief tier (see :mod:`repro.hardening.overload`):
        the entry's decode survives, so content matches stay free, and
        its next changed message costs one full parse, which compiles a
        new table.  Returns 0 when no table is armed.
        """
        for entry in self.store.entries.values():
            if entry.table is not None:
                freed = entry.table.approx_bytes()
                entry.render()  # the table is what maps stale leaves
                entry.table = None
                self.store.generation += 1
                self._skip_event("shed")
                return freed
        return 0

    def seek_table_bytes(self) -> int:
        """Bytes held by the compiled seek tables (0 when none)."""
        return self.store.state_bytes()["seektable"]

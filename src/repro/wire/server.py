"""The document store of one session direction.

One :class:`DeltaSession` holds, for one direction of one connection,
what the peer's documents are: an LRU of :class:`DocumentEntry`\\ s,
one per template, bounded by ``ResourceLimits.max_delta_mirrors``.  A
server session keeps one for requests, a channel one for replies.

* **Keys.**  A full-XML body whose announce headers name a template id
  is kept under that id, as a *mirror* later frames may patch.  Full
  XML that announces nothing is kept under a *plain* key: the operation
  the server's dispatch peek reads (``None`` when unscannable), or
  ``None`` for a channel's replies.  An announce for an id the store
  does not know takes over the plain entry of the same operation, with
  that entry's decode kept as the comparison base.
* **Frames.**  A binary frame is decoded under the session's
  :class:`~repro.hardening.ResourceLimits`, matched against its
  entry's epoch/sequence and applied in place.  Its byte splices patch
  the document; its typed splices (binary64 values of double leaves)
  are committed straight into the entry's decode, through its seek
  table, and those leaves' text is left *stale*.  A frame with pad
  insertions (fields the sender widened) replaces the document with
  one rebuilt copy instead, and rebases the seek table over the
  insertions (``SeekTable.rebased``) or, when the table cannot follow
  them, lets the decode go for the full parse.
* **Stale text.**  Nothing reads a document while a leaf of it is
  stale: every reader — a full parse, a document compare, a seek-table
  shed, :meth:`MirroredDocument.tobytes` — first has
  :meth:`DocumentEntry.render` write those leaves' MINIMAL text, or
  drops the document with the decode.  An entry whose seek table
  cannot name a typed leaf (none compiled, shed, or a decode of another
  document) gets the text written at once, and its decode follows by a
  full parse.
* **Decodes.**  Each entry also carries the
  :class:`~repro.server.diffdeser.DifferentialDeserializer`'s decode of
  its document — the ``ParseResult``, the ``SeekTable`` and the frame
  sequence the decode has followed — so a template's document and its
  decode live, are shed and are charged together.

What the SOAP pipeline gets is a :class:`MirroredDocument`: the entry
itself — never a copy of its document — with the validated frame that
just patched it.

Every frame mismatch *drops* the entry, decode and all, and raises
:class:`~repro.errors.DeltaResyncError`; the front end answers the
resync status and the client re-announces with full XML.  Nothing in
this module lets a bad frame leave a half-patched mirror behind:
decode validates everything first, and state checks precede the write.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Union

import numpy as np

from repro.errors import DeltaFrameError, DeltaResyncError
from repro.hardening.limits import DEFAULT_LIMITS, ResourceLimits
from repro.lexical.floats import FloatFormat, format_double_array
from repro.wire.frame import DeltaFrame, apply_frame, decode_frame, insert_pad

__all__ = ["DeltaSession", "DocumentEntry", "MirroredDocument"]


class DocumentEntry:
    """One template's document and its decode (``docs/wire_protocol.md``,
    "One store per direction")."""

    __slots__ = (
        "data", "epoch", "seq", "decoded", "base", "result", "table", "stale"
    )

    def __init__(self) -> None:
        #: The document: a ``bytearray`` frames patch in place (a
        #: mirror), or the immutable ``bytes`` of plain full XML.
        self.data: Union[bytes, bytearray] = b""
        #: Layout epoch the announce named; ``None``: plain, and no
        #: frame can address the entry.
        self.epoch: Optional[int] = None
        #: Sequence number of the last frame applied to :attr:`data`.
        self.seq = 0
        #: Sequence number of :attr:`data` the decode has followed
        #: (-1: the decode, if any, is of an older document).
        self.decoded = -1
        #: The document the decode describes: :attr:`data` once it is
        #: decoded, the previous document until then.
        self.base: Union[bytes, bytearray, None] = None
        #: The decode: a ``ParseResult`` and its compiled ``SeekTable``
        #: (each ``None`` when not held).
        self.result = None
        self.table = None
        #: Leaves whose text in :attr:`base` is older than their value
        #: in the decode (typed splices committed, not rendered): a
        #: bool mask over the seek table's leaves, or ``None``.
        self.stale: Optional[np.ndarray] = None

    def render(self) -> None:
        """Write every stale leaf's text into :attr:`base`: its decoded
        value in MINIMAL form, the closing tag, space pad — the bytes
        the sender's rewrite put there."""
        stale, self.stale = self.stale, None
        if stale is None:
            return
        table = self.table
        leaves = np.flatnonzero(stale)
        texts = format_double_array(table.leaf_doubles(leaves), FloatFormat.MINIMAL)
        base = self.base
        for start, text, limit in zip(
            table.starts[leaves].tolist(), texts, table.ends[leaves].tolist()
        ):
            new = _text_write(base, start, text, limit)
            # None: a hostile byte splice garbled the region before the
            # decode saw it; the full parse that follows judges it.
            if new is not None:
                base[start : start + len(new)] = new

    def drop_decode(self) -> None:
        """Let go of the decode; its stale values are rendered first."""
        self.render()
        self.decoded = -1
        self.base = self.result = self.table = None


@dataclass(slots=True)
class MirroredDocument:
    """A document as it sits in a :class:`DeltaSession` entry.

    ``entry`` holds the live document later frames patch, not a copy;
    ``frame`` is the validated frame that produced its current content
    from its previous content (``None``: the whole document was
    deposited as full XML).
    """

    entry: DocumentEntry
    frame: Optional[DeltaFrame] = None
    #: The skip-scan event of a frame whose pad insertions the entry's
    #: seek table could not follow (its decode was let go), else ``None``.
    declined: Optional[str] = None

    @property
    def buffer(self) -> Union[bytes, bytearray]:
        return self.entry.data

    @property
    def unchanged(self) -> bool:
        """The document is byte for byte the one its entry's decode
        describes: a header-only frame, next after the decoded one."""
        frame = self.frame
        return (
            frame is not None
            and not frame.splice_count
            and frame.seq == self.entry.decoded + 1
        )

    def __len__(self) -> int:
        return len(self.entry.data)

    def tobytes(self) -> bytes:
        """The document as immutable bytes (one copy of a mirror), its
        stale leaves rendered first."""
        self.entry.render()
        return bytes(self.entry.data)


#: How far past a typed splice's offset its value and closing tag may
#: reach when no seek table bounds its region (a double's text is at
#: most 24 bytes; the rest is the tag).
_TEXT_REACH = 1024
_PAD = b" \t\r\n"


def _text_write(
    data: Union[bytes, bytearray], start: int, text: bytes, limit: int
) -> Optional[bytes]:
    """The bytes that put *text* over the value at *start* in *data*:
    the text, the closing tag found after the old value, then space pad
    over whatever the old value and tag covered beyond.  A longer text
    takes the whitespace pad after the tag.  ``None`` when no closing
    tag follows *start*, or the text does not fit, before *limit*."""
    lt = data.find(b"<", start, limit)
    gt = data.find(b">", lt, limit) if lt >= 0 else -1
    if gt < 0:
        return None
    new = text + data[lt : gt + 1]
    span = gt + 1 - start
    if len(new) < span:
        return new + b" " * (span - len(new))
    if len(new) > span and (
        start + len(new) > limit or data[gt + 1 : start + len(new)].strip(_PAD)
    ):
        return None
    return bytes(new)


def _touches(
    table, frame: DeltaFrame, leaves: np.ndarray, stale: Optional[np.ndarray]
) -> bool:
    """Whether a byte splice of *frame* overlaps the field region of one
    of the (sorted) *leaves* of *table*, or of a *stale* one."""
    offsets = frame.offsets
    first = np.searchsorted(table.ends, offsets, side="right")
    stop = np.searchsorted(table.starts, offsets + frame.widths, side="left")
    if bool((np.searchsorted(leaves, first) < np.searchsorted(leaves, stop)).any()):
        return True
    if stale is None:
        return False
    counts = np.concatenate(([0], np.cumsum(stale)))
    return bool((counts[stop] > counts[first]).any())


class DeltaSession:
    """The document store and frame counters of one session direction."""

    __slots__ = (
        "entries",
        "generation",
        "max_mirrors",
        "frames_applied",
        "resyncs",
        "bytes_saved",
        "outcomes",
    )

    def __init__(self, limits: Optional[ResourceLimits] = None) -> None:
        limits = limits if limits is not None else DEFAULT_LIMITS
        self.entries: "OrderedDict[Hashable, DocumentEntry]" = OrderedDict()
        #: Bumped whenever :meth:`state_bytes` may change: an entry held,
        #: replaced or dropped, a document a frame's pad insertions grew,
        #: or (by the deserializer) a decode made or dropped.  Other
        #: frames patch in place and change no size.
        self.generation = 0
        self.max_mirrors = limits.max_delta_mirrors
        self.frames_applied = 0
        self.resyncs = 0
        self.bytes_saved = 0
        #: Frames by outcome (``applied`` / ``resync-<reason>``) — the
        #: ``repro_delta_frames_total{outcome}`` samples; written by
        #: :meth:`note` under the owning session's lock.
        self.outcomes: Dict[str, int] = {}

    @property
    def mirrors(self) -> Dict[int, DocumentEntry]:
        """The entries a frame can address (announced), LRU first."""
        return {k: e for k, e in self.entries.items() if e.epoch is not None}

    # ------------------------------------------------------------------
    def _hold(
        self, key: Hashable, entry: DocumentEntry, data: Union[bytes, bytearray]
    ) -> MirroredDocument:
        entry.data = data
        self.generation += 1
        self.entries[key] = entry
        self.entries.move_to_end(key)
        while len(self.entries) > self.max_mirrors:
            self.entries.popitem(last=False)
        return MirroredDocument(entry)

    def store(
        self, template_id: int, epoch: int, body: bytes, key: Hashable = None
    ) -> MirroredDocument:
        """Deposit the announced baseline *body* (always a new
        ``bytearray``) and return the document in its entry.

        The entry is *template_id*'s own, else the plain entry *key*
        names, else a new one.  Its decode stays as the comparison base
        only if it followed every frame the old document took.
        """
        entry = self.entries.pop(template_id, None)
        if entry is None:
            plain = self.entries.get(key)
            if plain is not None and plain.epoch is None:
                entry = self.entries.pop(key)
            else:
                entry = DocumentEntry()
        if entry.decoded != entry.seq:
            # The document is replaced: its stale text goes with it.
            entry.stale = None
            entry.drop_decode()
        entry.epoch, entry.seq, entry.decoded = epoch, 0, -1
        return self._hold(template_id, entry, bytearray(body))

    def deposit(
        self,
        body: bytes,
        key: Hashable = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> MirroredDocument:
        """Hold full-XML *body*: as the baseline its announce *headers*
        name, else as plain XML under *key*.

        *headers* (lowercase keys) are peer-controlled text: a message
        that announces nothing, or garbage, is held as plain XML and
        raises nothing — the peer simply never gets a frame accepted
        against it.
        """
        try:
            template_id = int(headers["x-repro-delta-template"])
            epoch = int(headers["x-repro-delta-epoch"])
        except (TypeError, KeyError, ValueError):  # no headers, no announce
            template_id = epoch = -1
        if template_id >= 0 and epoch >= 0:
            return self.store(template_id, epoch, body, key)
        entry = self.entries.get(key)
        return self._hold(key, entry if entry is not None else DocumentEntry(), body)

    def apply(self, frame_bytes: bytes, limits: ResourceLimits) -> MirroredDocument:
        """Decode + validate + apply one frame; return the patched
        entry with the frame (nothing document-sized is copied).

        Raises :class:`~repro.errors.DeltaFrameError` for malformed
        frames and :class:`~repro.errors.DeltaResyncError` for state
        mismatches; the latter drops the affected entry first.
        """
        frame = decode_frame(frame_bytes, limits=limits)
        # An int key: only ever an announced entry, never a plain one.
        entry = self.entries.get(frame.template_id)
        if entry is None:
            problem = (f"no mirror for template {frame.template_id}", "unknown-template")
        elif frame.epoch != entry.epoch:
            problem = (
                f"frame epoch {frame.epoch} != mirror epoch {entry.epoch}",
                "stale-epoch",
            )
        elif frame.seq != entry.seq + 1:
            problem = (
                f"frame seq {frame.seq} after mirror seq {entry.seq}",
                "sequence-gap",
            )
        elif frame.doc_len - frame.growth != len(entry.data):
            problem = (
                f"frame doc_len {frame.doc_len} less {frame.growth} inserted "
                f"!= mirror length {len(entry.data)}",
                "doc-len-mismatch",
            )
        else:
            problem = None
        if problem is not None:
            self.entries.pop(frame.template_id, None)
            self.generation += 1
            self.resyncs += 1
            raise DeltaResyncError(*problem)
        declined = None
        if frame.growth:
            declined = self._apply_grown(entry, frame)
        elif frame.typed_offsets.size:
            self._apply_typed(entry, frame, entry.data, self._table_of(entry))
        elif frame.splice_count:
            apply_frame(frame, entry.data)
        entry.seq = frame.seq
        self.entries.move_to_end(frame.template_id)
        self.frames_applied += 1
        self.bytes_saved += max(0, frame.doc_len - len(frame_bytes))
        return MirroredDocument(entry, frame, declined)

    @staticmethod
    def _table_of(entry: DocumentEntry):
        """The entry's seek table when it describes the entry's document."""
        return entry.table if entry.base is entry.data else None

    def _apply_grown(self, entry: DocumentEntry, frame: DeltaFrame) -> Optional[str]:
        """Apply a frame with pad insertions: the mirror is rebuilt once
        (one join) and replaces the entry's document only after every
        check passed.

        When the entry's seek table describes this document it is
        rebased over the insertions (:meth:`SeekTable.rebased`, which
        proves each lands in a leaf's trailing pad), and the frame's
        typed and byte splices are checked against the rebased table as
        :meth:`_apply_typed` checks any frame's.  A table that cannot
        follow is declined — the decode is let go, the bytes are
        applied with typed values written as text, and the
        deserializer's full parse judges — and the decline's event
        (``insertion-drift``) is returned for the deserializer to count.
        """
        data = entry.data
        table = self._table_of(entry)
        declined = None
        if table is not None:
            table = table.rebased(data, frame.insert_positions(), frame.insert_counts)
            if table is None:
                declined = "insertion-drift"
                entry.drop_decode()
        grown = insert_pad(frame, data)
        if frame.typed_offsets.size:
            self._apply_typed(entry, frame, grown, table)
        else:
            apply_frame(frame, grown)
            if table is not None:
                entry.table = table
        if entry.base is data:
            entry.base = grown
        entry.data = grown
        self.generation += 1
        return declined

    @staticmethod
    def _apply_typed(
        entry: DocumentEntry, frame: DeltaFrame, data: bytearray, table
    ) -> None:
        """Apply a frame that carries typed splices to *data*, the
        entry's document (or its rebuilt successor); everything is
        validated before the document or the decode changes.

        When *table* describes *data*, each typed offset must name a
        double leaf's region (else
        :class:`~repro.errors.DeltaFrameError`), no byte splice may
        touch a typed or stale leaf, and the values go into the decode
        with their text left stale; *table* becomes the entry's.
        Otherwise their text is written now, and the deserializer's
        full parse follows.
        """
        offsets, values = frame.typed_offsets, frame.typed_values
        if table is not None:
            leaves = table.typed_leaves(offsets, values)
            if leaves is None:
                raise DeltaFrameError(
                    "typed splice names no double leaf's field region", "bad-splice"
                )
            stale = entry.stale
            if frame.offsets.size and _touches(table, frame, leaves, stale):
                raise DeltaFrameError(
                    "byte splice inside a typed leaf's field region", "bad-splice"
                )
            apply_frame(frame, data)
            table.commit_doubles(leaves, values)
            entry.table = table
            if stale is None:
                stale = entry.stale = np.zeros(table.starts.shape[0], bool)
            stale[leaves] = True
            return
        writes = []
        for start, text in zip(
            offsets.tolist(), format_double_array(values, FloatFormat.MINIMAL)
        ):
            new = _text_write(data, start, text, min(start + _TEXT_REACH, len(data)))
            if new is None:
                raise DeltaFrameError(
                    f"typed value at {start} has no field to take it", "bad-splice"
                )
            writes.append((start, new))
        # Each typed write, byte splice included, must keep to itself.
        spans = sorted(
            [(s, s + len(t)) for s, t in writes]
            + list(zip(frame.offsets.tolist(), (frame.offsets + frame.widths).tolist()))
        )
        if any(a[1] > b[0] for a, b in zip(spans, spans[1:])):
            raise DeltaFrameError(
                "typed value overlaps another splice", "bad-splice"
            )
        apply_frame(frame, data)
        for start, text in writes:
            data[start : start + len(text)] = text

    def note(self, outcome: str) -> None:
        """Count one frame answered with *outcome*."""
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1

    def drop_lru(self) -> Optional[int]:
        """Let go of the least-recently-used mirror entry — document,
        decode and seek table; return its document's byte size.

        The cheapest pressure-relief tier: the client's next frame for
        the dropped template answers ``unknown-template`` resync and
        the existing retry machinery re-announces full XML.  Returns
        ``None`` when no mirror is held; plain entries are never taken.
        """
        for key, entry in self.entries.items():
            if entry.epoch is not None:
                del self.entries[key]
                self.generation += 1
                return len(entry.data)
        return None

    def clear(self) -> None:
        self.entries.clear()
        self.generation += 1

    def state_bytes(self) -> Dict[str, int]:
        """Bytes held, by ledger component: a mirror's document counts
        as ``mirror``, a plain document and every decode as ``deser``,
        compiled tables as ``seektable`` — each once, by construction.

        A decode is charged as one document-sized estimate: its value
        containers scale with the raw document.
        """
        out = {"deser": 0, "seektable": 0, "mirror": 0}
        for entry in self.entries.values():
            out["deser" if entry.epoch is None else "mirror"] += len(entry.data)
            if entry.result is not None:
                out["deser"] += len(entry.base)
            if entry.table is not None:
                out["seektable"] += entry.table.approx_bytes()
        return out

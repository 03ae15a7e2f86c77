"""Server side of the delta-frame protocol: per-session mirror store.

One :class:`DeltaSession` lives on each
:class:`~repro.runtime.sessions.ServerSession`.  Full-XML requests
carrying announce headers deposit a *mirror* — a byte copy of the body
keyed by the client's template id.  A later binary frame is decoded
under the session's :class:`~repro.hardening.ResourceLimits`, matched
against the mirror's epoch/sequence and applied in place.  What the
SOAP pipeline gets is a :class:`MirroredDocument`: the mirror itself —
never a copy of it — with the validated frame that just patched it.
The mirror is also the
:class:`~repro.server.diffdeser.DifferentialDeserializer`'s decode
template (one ``bytearray`` per mirrored template), so the frame's
splice directory tells the deserializer which leaves changed and it
reads no other byte of the document.

Every mismatch *drops* the mirror and raises
:class:`~repro.errors.DeltaResyncError`; the front end answers the
resync status and the client re-announces with full XML.  Nothing in
this module lets a bad frame leave a half-patched mirror behind:
decode validates everything first, and state checks precede the write.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import DeltaResyncError
from repro.hardening.limits import DEFAULT_LIMITS, ResourceLimits
from repro.wire.frame import DeltaFrame, apply_frame, decode_frame

__all__ = ["DeltaSession", "MirroredDocument"]


@dataclass(slots=True)
class MirroredDocument:
    """A document as it sits in a :class:`DeltaSession` mirror.

    ``buffer`` is the mirror — the live ``bytearray`` later frames
    patch, not a copy — and ``frame`` the validated frame that produced
    its current content from its previous content (``None``: the whole
    document was deposited by a full-XML announce).
    """

    buffer: bytearray
    frame: Optional[DeltaFrame] = None

    def __len__(self) -> int:
        return len(self.buffer)

    def tobytes(self) -> bytes:
        """The document as immutable bytes (one copy)."""
        return bytes(self.buffer)


class _Mirror:
    __slots__ = ("data", "epoch", "seq")

    def __init__(self, data: bytearray, epoch: int) -> None:
        self.data = data
        self.epoch = epoch
        self.seq = 0


class DeltaSession:
    """Mirror documents and counters for one server session."""

    __slots__ = (
        "mirrors",
        "max_mirrors",
        "frames_applied",
        "resyncs",
        "bytes_saved",
        "outcomes",
    )

    def __init__(self, limits: Optional[ResourceLimits] = None) -> None:
        limits = limits if limits is not None else DEFAULT_LIMITS
        self.mirrors: "OrderedDict[int, _Mirror]" = OrderedDict()
        self.max_mirrors = limits.max_delta_mirrors
        self.frames_applied = 0
        self.resyncs = 0
        self.bytes_saved = 0
        #: Frames by outcome (``applied`` / ``resync-<reason>``) — the
        #: ``repro_delta_frames_total{outcome}`` samples; written by
        #: :meth:`note` under the owning session's lock.
        self.outcomes: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def store(self, template_id: int, epoch: int, body: bytes) -> MirroredDocument:
        """Deposit the announced baseline *body* as a mirror (always a
        new ``bytearray``) and return the document in it."""
        self.mirrors.pop(template_id, None)
        mirror = self.mirrors[template_id] = _Mirror(bytearray(body), epoch)
        while len(self.mirrors) > self.max_mirrors:
            self.mirrors.popitem(last=False)
        return MirroredDocument(mirror.data)

    def store_announced(
        self, headers: Dict[str, str], body: bytes
    ) -> Optional[MirroredDocument]:
        """Deposit *body* as the baseline its announce *headers* name.

        *headers* (lowercase keys) are peer-controlled text: a message
        that announces nothing, or garbage, deposits no mirror, returns
        ``None`` and raises nothing — the peer simply never gets a
        frame accepted against it.
        """
        try:
            template_id = int(headers["x-repro-delta-template"])
            epoch = int(headers["x-repro-delta-epoch"])
        except (KeyError, ValueError):
            return None
        if template_id >= 0 and epoch >= 0:
            return self.store(template_id, epoch, body)
        return None

    def apply(self, frame_bytes: bytes, limits: ResourceLimits) -> MirroredDocument:
        """Decode + validate + apply one frame; return the patched
        mirror with the frame (nothing document-sized is copied).

        Raises :class:`~repro.errors.DeltaFrameError` for malformed
        frames and :class:`~repro.errors.DeltaResyncError` for state
        mismatches; both drop any affected mirror first.
        """
        frame = decode_frame(frame_bytes, limits=limits)
        mirror = self.mirrors.get(frame.template_id)
        if mirror is None:
            self.resyncs += 1
            raise DeltaResyncError(
                f"no mirror for template {frame.template_id}",
                "unknown-template",
            )
        if frame.epoch != mirror.epoch:
            self.mirrors.pop(frame.template_id, None)
            self.resyncs += 1
            raise DeltaResyncError(
                f"frame epoch {frame.epoch} != mirror epoch {mirror.epoch}",
                "stale-epoch",
            )
        if frame.seq != mirror.seq + 1:
            self.mirrors.pop(frame.template_id, None)
            self.resyncs += 1
            raise DeltaResyncError(
                f"frame seq {frame.seq} after mirror seq {mirror.seq}",
                "sequence-gap",
            )
        if frame.doc_len != len(mirror.data):
            self.mirrors.pop(frame.template_id, None)
            self.resyncs += 1
            raise DeltaResyncError(
                f"frame doc_len {frame.doc_len} != mirror length "
                f"{len(mirror.data)}",
                "doc-len-mismatch",
            )
        if frame.splice_count:
            apply_frame(frame, mirror.data)
        mirror.seq = frame.seq
        self.mirrors.move_to_end(frame.template_id)
        self.frames_applied += 1
        self.bytes_saved += max(0, frame.doc_len - len(frame_bytes))
        return MirroredDocument(mirror.data, frame)

    def note(self, outcome: str) -> None:
        """Count one frame answered with *outcome*."""
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1

    def drop(self, template_id: int) -> None:
        self.mirrors.pop(template_id, None)

    def drop_lru(self) -> int:
        """Let go of the least-recently-used mirror; return its byte size.

        The cheapest pressure-relief tier: the client's next frame for
        the dropped template answers ``unknown-template`` resync and
        the existing retry machinery re-announces full XML.  Returns 0
        when no mirror is held.  The bytes are only freed once a
        deserializer sharing the buffer lets go as well
        (:meth:`ServerSession.shed_mirror
        <repro.runtime.sessions.ServerSession.shed_mirror>`).
        """
        if not self.mirrors:
            return 0
        _key, mirror = self.mirrors.popitem(last=False)
        return len(mirror.data)

    def clear(self) -> None:
        self.mirrors.clear()

    def holds(self, buffer: object) -> bool:
        """True when *buffer* is one of the live mirrors (by identity)."""
        for mirror in self.mirrors.values():
            if mirror.data is buffer:
                return True
        return False

    def approx_bytes(self) -> int:
        """Approximate retained bytes (mirror documents dominate)."""
        return sum(len(m.data) for m in self.mirrors.values())

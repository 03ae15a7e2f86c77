"""Server side of the delta-frame protocol: per-session mirror store.

One :class:`DeltaSession` lives on each
:class:`~repro.runtime.sessions.ServerSession`.  Full-XML requests
carrying announce headers deposit a *mirror* — a byte copy of the body
keyed by the client's template id.  A later binary frame is decoded
under the session's :class:`~repro.hardening.ResourceLimits`, matched
against the mirror's epoch/sequence, applied in place, and the
reconstructed document handed to the normal SOAP pipeline (where the
:class:`~repro.server.diffdeser.DifferentialDeserializer` then gets a
guaranteed same-length, value-spans-only diff — its best case).

Every mismatch *drops* the mirror and raises
:class:`~repro.errors.DeltaResyncError`; the front end answers the
resync status and the client re-announces with full XML.  Nothing in
this module lets a bad frame leave a half-patched mirror behind:
decode validates everything first, and state checks precede the write.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional

from repro.errors import DeltaResyncError
from repro.hardening.limits import DEFAULT_LIMITS, ResourceLimits
from repro.wire.frame import apply_frame, decode_frame

__all__ = ["DeltaSession"]


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
        "last_reconstructed",
        "_reconstructed_id",
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
        #: Most recent reconstructed document (oracle tests compare it
        #: byte-for-byte against the naive serialization).
        self.last_reconstructed: Optional[bytes] = None
        # Template whose mirror :attr:`last_reconstructed` still equals.
        self._reconstructed_id: Optional[int] = None

    # ------------------------------------------------------------------
    def store(self, template_id: int, epoch: int, body: bytes) -> None:
        """Deposit the announced baseline *body* as a mirror."""
        self.mirrors.pop(template_id, None)
        self.mirrors[template_id] = _Mirror(bytearray(body), epoch)
        if self._reconstructed_id == template_id:
            self._reconstructed_id = None
        while len(self.mirrors) > self.max_mirrors:
            self.mirrors.popitem(last=False)

    def store_announced(self, headers: Dict[str, str], body: bytes) -> None:
        """Deposit *body* as the baseline its announce *headers* name.

        *headers* (lowercase keys) are peer-controlled text: a message
        that announces nothing, or garbage, deposits no mirror and
        raises nothing — the peer simply never gets a frame accepted
        against it.
        """
        try:
            template_id = int(headers["x-repro-delta-template"])
            epoch = int(headers["x-repro-delta-epoch"])
        except (KeyError, ValueError):
            return
        if template_id >= 0 and epoch >= 0:
            self.store(template_id, epoch, body)

    def apply(self, frame_bytes: bytes, limits: ResourceLimits) -> bytes:
        """Decode + validate + apply one frame; return the document.

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
        if frame.splice_count or self._reconstructed_id != frame.template_id:
            apply_frame(frame, mirror.data)
            self.last_reconstructed = bytes(mirror.data)
            self._reconstructed_id = frame.template_id
        # else a header-only frame on the document handed out last
        # time: the same bytes object again, nothing copied.
        mirror.seq = frame.seq
        self.mirrors.move_to_end(frame.template_id)
        self.frames_applied += 1
        document = self.last_reconstructed
        self.bytes_saved += max(0, len(document) - len(frame_bytes))
        return document

    def note(self, outcome: str) -> None:
        """Count one frame answered with *outcome*."""
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1

    def drop(self, template_id: int) -> None:
        self.mirrors.pop(template_id, None)

    def drop_lru(self) -> int:
        """Shed the least-recently-used mirror; return its byte size.

        The cheapest pressure-relief tier: the client's next frame for
        the dropped template answers ``unknown-template`` resync and
        the existing retry machinery re-announces full XML.  Returns 0
        when no mirror is held.
        """
        if not self.mirrors:
            return 0
        _key, mirror = self.mirrors.popitem(last=False)
        return len(mirror.data)

    def clear(self) -> None:
        self.mirrors.clear()

    def approx_bytes(self) -> int:
        """Approximate retained bytes (mirror documents dominate)."""
        return sum(len(m.data) for m in self.mirrors.values())

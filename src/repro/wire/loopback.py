"""In-process delta loopback: client encoder → server mirror, no sockets.

:class:`DeltaLoopback` implements the client
:class:`~repro.transport.base.Transport` protocol *plus* the delta
extensions (``set_delta_announce`` / ``send_delta_frame``) and plays
the server role itself: announced full sends deposit mirrors in an
embedded :class:`~repro.wire.server.DeltaSession`, frames are decoded
and applied under real :class:`~repro.hardening.ResourceLimits`, and
every delivered *document* (full body, or a copy of the patched mirror
taken here) is exposed to the caller.

Two consumers:

* the oracle tests assert each reconstructed document is byte-identical
  to the naive client's serialization, across every match level and
  through fallback/resync transitions;
* the bandwidth ablation bench measures payload bytes-on-wire for the
  full-XML vs delta variants without socket noise.

A frame the embedded server cannot apply raises straight through
``send_delta_frame`` — the client stub rolls the send epoch back,
marks the template suspect, and the next send is a full resync, which
is exactly the live-HTTP fallback flow compressed into one call.
"""

from __future__ import annotations

from typing import List, Optional

from repro.hardening.limits import DEFAULT_LIMITS, ResourceLimits
from repro.wire.server import DeltaSession

__all__ = ["DeltaLoopback"]


class DeltaLoopback:
    """Transport + in-process delta peer (see module docstring)."""

    def __init__(
        self,
        *,
        limits: Optional[ResourceLimits] = None,
        keep_documents: bool = False,
    ) -> None:
        self.limits = limits if limits is not None else DEFAULT_LIMITS
        self.delta = DeltaSession(self.limits)
        self.keep_documents = keep_documents
        #: Every delivered document, in order (when keep_documents).
        self.documents: List[bytes] = []
        self.last_document: Optional[bytes] = None
        self.full_sends = 0
        self.delta_sends = 0
        #: Payload bytes that crossed the "wire" (bodies + frames).
        self.payload_bytes = 0
        #: Directory entries of the applied frames, by kind (a pad
        #: insertion is a widened field).
        self.typed_splices = 0
        self.byte_splices = 0
        self.insertions = 0
        self._announce: Optional[tuple] = None

    # -- client-transport surface --------------------------------------
    def set_delta_announce(self, template_id: int, epoch: int) -> None:
        self._announce = (template_id, epoch)

    def send_message(self, views, total_bytes: Optional[int] = None) -> int:
        body = b"".join(bytes(v) for v in views)
        if self._announce is not None:
            template_id, epoch = self._announce
            self._announce = None
            self.delta.store(template_id, epoch, body)
        self.full_sends += 1
        self.payload_bytes += len(body)
        self._deliver(body)
        return len(body)

    def send_delta_frame(self, frame: bytes) -> int:
        document = self.delta.apply(frame, self.limits)
        self.delta_sends += 1
        self.payload_bytes += len(frame)
        self.typed_splices += int(document.frame.typed_offsets.size)
        self.byte_splices += int(document.frame.offsets.size)
        self.insertions += int(document.frame.insert_offsets.size)
        # The mirror is patched in place (its typed splices rendered at
        # once: no decode holds them); the delivered documents are this
        # loopback's own copies.
        self._deliver(document.tobytes())
        return len(frame)

    def close(self) -> None:
        pass

    # ------------------------------------------------------------------
    def _deliver(self, document: bytes) -> None:
        self.last_document = document
        if self.keep_documents:
            self.documents.append(document)

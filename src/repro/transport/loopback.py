"""In-process sinks: Null (discard), Memcpy (drain copy), Collect, Latest.

These isolate serialization cost from network cost.  ``MemcpySink``
models what a kernel ``send()`` does to the caller — one copy of every
byte — without syscall or scheduling noise; ``NullSink`` measures pure
preparation; ``CollectSink`` keeps the bytes for tests; ``LatestSink``
keeps only the most recent message (bounded — for long-lived server
sessions).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.transport.base import ViewStream

__all__ = ["NullSink", "MemcpySink", "CollectSink", "LatestSink"]


class NullSink:
    """Counts and discards.  Zero per-byte cost."""

    def __init__(self) -> None:
        self.messages = 0
        self.bytes_total = 0

    def send_message(self, views: ViewStream, total_bytes: Optional[int] = None) -> int:
        sent = 0
        for view in views:
            sent += len(view)
        self.messages += 1
        self.bytes_total += sent
        return sent

    def close(self) -> None:
        pass


class MemcpySink:
    """Copies every segment into a reusable drain buffer.

    The drain is grown geometrically and reused across messages so the
    steady-state cost is exactly one memcpy per byte — the user-space
    analogue of the kernel socket-buffer copy.
    """

    def __init__(self, initial_capacity: int = 1 << 16) -> None:
        self._drain = bytearray(initial_capacity)
        self.messages = 0
        self.bytes_total = 0
        self.last_size = 0

    def send_message(self, views: ViewStream, total_bytes: Optional[int] = None) -> int:
        drain = self._drain
        pos = 0
        for view in views:
            n = len(view)
            end = pos + n
            if end > len(drain):
                grown = bytearray(max(end, 2 * len(drain)))
                grown[:pos] = drain[:pos]
                self._drain = drain = grown
            drain[pos:end] = view
            pos = end
        self.messages += 1
        self.bytes_total += pos
        self.last_size = pos
        return pos

    def last_message(self) -> bytes:
        """Copy of the most recent message (tests)."""
        return bytes(self._drain[: self.last_size])

    def close(self) -> None:
        pass


class CollectSink:
    """Keeps every message verbatim (tests and round-trip checks)."""

    def __init__(self) -> None:
        self.messages: List[bytes] = []

    def send_message(self, views: ViewStream, total_bytes: Optional[int] = None) -> int:
        data = b"".join(bytes(v) for v in views)
        self.messages.append(data)
        return len(data)

    @property
    def last(self) -> bytes:
        return self.messages[-1]

    def close(self) -> None:
        pass


class LatestSink:
    """Keeps only the most recent message — as its raw segment views.

    The bounded sibling of :class:`CollectSink`: a server session
    serializing responses for the lifetime of a connection must not
    retain every response it ever sent, only the one the front end is
    about to write.

    The message is retained as the *view list* the serializer emitted,
    not a flattened copy: a vectored front end reads :meth:`views` and
    hands the chunk views straight to ``socket.sendmsg``, so a
    steady-state structural resend never copies payload bytes.  The
    views alias the responder's live chunk buffers, which the next
    request on the same session rewrites in place — they are only
    valid until that session handles another request (front ends
    finish writing response *i* before dispatching request *i+1* on a
    connection, which is exactly that window).  :attr:`last` joins on
    demand for callers that want contiguous bytes.

    It also carries the delta-frame extensions
    (``set_delta_announce`` / ``send_delta_frame``, see
    :mod:`repro.wire.client`), so a responder whose policy offers
    delta can answer with a binary frame: :attr:`is_frame` says which
    kind the retained message is, :meth:`take_announce` hands over the
    baseline a full message announced.
    """

    def __init__(self) -> None:
        self._views: Optional[List[memoryview | bytes]] = None
        self._total = 0
        self._announce: Optional[Tuple[int, int]] = None
        #: True when the retained message is a delta frame, not XML.
        self.is_frame = False
        self.messages_sent = 0
        self.bytes_total = 0

    def send_message(self, views: ViewStream, total_bytes: Optional[int] = None) -> int:
        # Materializing a lazy stream drives the interleaved rewrite;
        # yielded chunk views are final once the iterator is exhausted.
        return self._retain([v for v in views if len(v)], False)

    def send_delta_frame(self, frame: bytes) -> int:
        """Retain one binary delta frame as the message."""
        return self._retain([frame], True)

    def _retain(self, parts: List[memoryview | bytes], is_frame: bool) -> int:
        total = sum(len(v) for v in parts)
        self._views = parts
        self._total = total
        self.is_frame = is_frame
        self.messages_sent += 1
        self.bytes_total += total
        return total

    def set_delta_announce(self, template_id: int, epoch: int) -> None:
        """The next full message is the baseline *(template_id, epoch)*."""
        self._announce = (template_id, epoch)

    def take_announce(self) -> Optional[Tuple[int, int]]:
        """The baseline armed since the last call, if any (clears it)."""
        announce, self._announce = self._announce, None
        return announce

    @property
    def last(self) -> bytes:
        if self._views is None:
            raise LookupError("no message sent yet")
        return b"".join(bytes(v) for v in self._views)

    def views(self) -> List[memoryview | bytes]:
        """The retained message's segment views (no copy)."""
        if self._views is None:
            raise LookupError("no message sent yet")
        return self._views

    def last_bytes(self) -> int:
        """Size of the retained message (0 before the first send)."""
        return self._total

    def close(self) -> None:
        pass

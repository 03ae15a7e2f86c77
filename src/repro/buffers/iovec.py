"""Scatter-gather helpers over chunked buffers.

The TCP transport sends a chunked message with ``socket.sendmsg`` —
one syscall over a list of buffers (an iovec) instead of one ``send``
per chunk or a costly coalescing copy.  These helpers build and bound
those lists.  :func:`row_window` is the in-memory counterpart: it
gathers or scatters fixed-width byte rows at arbitrary offsets of one
buffer in a single NumPy op.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Sequence

import numpy as np

__all__ = [
    "gather_bytes",
    "coalesce_views",
    "total_size",
    "batch_iovecs",
    "row_window",
    "IovecCursor",
    "IOV_MAX",
]

#: Conservative bound on iovec entries per sendmsg call (POSIX minimum
#: is 16; Linux allows 1024).
IOV_MAX = 1024


def row_window(buf, width: int) -> np.ndarray:
    """``(len(buf) - width + 1, width)`` ``uint8`` view of *buf* whose
    row ``i`` is ``buf[i : i + width]`` (no rows if *buf* is shorter).

    Rows overlap and alias *buf*: indexing the view with an offset array
    gathers those rows, and assigning through it scatters them (when
    *buf* is writable), without the ``rows x width`` index matrix a
    per-byte fancy index builds.  *buf* is any contiguous byte buffer.
    """
    rows = max(len(buf) - width + 1, 0)
    return np.ndarray((rows, width), np.uint8, buf, 0, (1, 1))


def total_size(views: Iterable[memoryview | bytes]) -> int:
    """Total byte count across buffer views."""
    return sum(len(v) for v in views)


def gather_bytes(views: Iterable[memoryview | bytes]) -> bytes:
    """Coalesce views into one bytes object (copying fallback path)."""
    return b"".join(bytes(v) for v in views)


def coalesce_views(
    views: Sequence[memoryview | bytes], max_copy: int = 4096
) -> List[memoryview | bytes]:
    """Merge runs of *small* views into single byte strings.

    Lots of tiny buffers make syscalls and iovec bookkeeping dominate;
    copying anything below ``max_copy`` into a joined buffer while
    passing large views through untouched is the standard trade.
    """
    out: List[memoryview | bytes] = []
    run: List[bytes] = []
    run_len = 0
    for view in views:
        n = len(view)
        if n == 0:
            continue
        if n < max_copy:
            run.append(bytes(view))
            run_len += n
        else:
            if run:
                out.append(b"".join(run))
                run = []
                run_len = 0
            out.append(view)
    if run:
        out.append(b"".join(run))
    return out


def batch_iovecs(
    views: Sequence[memoryview | bytes], limit: int = IOV_MAX
) -> List[Sequence[memoryview | bytes]]:
    """Split a view list into batches of at most *limit* entries."""
    if len(views) <= limit:
        return [views]
    return [views[i : i + limit] for i in range(0, len(views), limit)]


class IovecCursor:
    """Resumable scatter-gather write position over a view list.

    A non-blocking ``sendmsg`` may stop anywhere — mid-view, or exactly
    on a view boundary — and the next attempt must resume from that
    byte without copying payload.  The cursor tracks ``(view index,
    offset into that view)`` and hands out bounded iovec batches that
    start with a sliced head view, so partial sends resume across
    iovec boundaries with zero payload copies.
    """

    __slots__ = ("_views", "_index", "_offset", "total", "sent")

    def __init__(self, views: Sequence[memoryview | bytes]) -> None:
        self._views: List[memoryview | bytes] = [v for v in views if len(v)]
        self._index = 0
        self._offset = 0
        self.total = sum(len(v) for v in self._views)
        self.sent = 0

    @property
    def done(self) -> bool:
        return self.sent >= self.total

    def next_batch(self, limit: int = IOV_MAX) -> List[memoryview | bytes]:
        """The next iovec batch (≤ *limit* entries) from the cursor."""
        views = self._views
        if self._index >= len(views):
            return []
        head = views[self._index]
        if self._offset:
            head = memoryview(head)[self._offset :]
        batch: List[memoryview | bytes] = [head]
        batch.extend(views[self._index + 1 : self._index + limit])
        return batch

    def advance(self, n: int) -> None:
        """Record *n* bytes written from the front of the cursor."""
        if n < 0:
            raise ValueError("cannot advance by a negative byte count")
        self.sent += n
        views = self._views
        n += self._offset
        while self._index < len(views) and n >= len(views[self._index]):
            n -= len(views[self._index])
            self._index += 1
        self._offset = n

    def drain(
        self, send: Callable[[Sequence[memoryview | bytes]], int],
        limit: int = IOV_MAX,
    ) -> int:
        """Push batches through *send* until done or *send* returns 0.

        *send* is expected to return the bytes it accepted (0 meaning
        "try again later", e.g. a would-block socket).  Returns the
        bytes written by this call.
        """
        written = 0
        while not self.done:
            n = send(self.next_batch(limit))
            if n <= 0:
                break
            self.advance(n)
            written += n
        return written

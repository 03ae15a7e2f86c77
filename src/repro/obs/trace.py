"""Structured span tracing for the differential send path.

A *span* is one completed unit of mechanical work on the hot path —
``serialize``, ``match-classify``, ``rewrite``, ``shift``, ``stuff``,
``send``, ``recv`` — carrying the attributes
the paper's performance argument turns on (template id, match level,
dirty count, bytes).  Tracing answers the *why* question a counter
cannot: "this call was fast because it content-matched template 17".

Design constraints (see ``docs/observability.md``):

* **Zero disabled cost.**  The default tracer is the shared
  :data:`NULL_TRACER`; instrumented code guards every emission with a
  single ``enabled`` attribute check, so a build running with tracing
  off pays one boolean test per guarded site and allocates nothing.
* **Emit-on-completion.**  Spans are recorded as one ``emit()`` call
  after the work finishes, with the duration measured by the call
  site (only when enabled).  There is no open-span lifecycle to
  balance on error paths in the hot loop.
* **Thread safety.**  A :class:`RecordingTracer` may be shared by a
  pipelined sender/receiver pair or a server's connection threads;
  the span list is appended under a lock and snapshotted on read.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

__all__ = [
    "SPAN_NAMES",
    "Span",
    "NullTracer",
    "NULL_TRACER",
    "RecordingTracer",
]

#: The span taxonomy (one name per hot-path stage).  Emitting an
#: unknown name is allowed — the taxonomy is documentation, not a
#: schema — but everything the core emits is listed here.
SPAN_NAMES = (
    "serialize",  # full template build (first-time send cost)
    "match-classify",  # pre-send match classification
    "rewrite",  # differential rewrite pass over dirty entries
    "shift",  # one chunk rebuilt to widen the fields that outgrew it
    "stuff",  # whitespace stuffing applied at template build
    "send",  # one complete client send (any match level)
    "recv",  # one response received and decoded
    "delta-encode",  # one binary delta frame encoded from the dirty set
    "delta-apply",  # one delta frame applied to a server mirror
    "skipscan",  # one skip-scan apply over a session's seek table
    "overload",  # one pressure-relief shed (tier attr) or budget tick
)


class Span:
    """One completed, immutable trace record."""

    __slots__ = ("name", "duration_s", "attrs")

    def __init__(self, name: str, duration_s: float, attrs: Dict[str, object]) -> None:
        self.name = name
        self.duration_s = duration_s
        self.attrs = attrs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = " ".join(f"{k}={v!r}" for k, v in self.attrs.items())
        return f"<span {self.name} {self.duration_s * 1e6:.1f}us {body}>"


class NullTracer:
    """The do-nothing tracer every component holds by default.

    ``enabled`` is a plain class attribute so the hot-path guard
    (``if obs.tracer.enabled:``) is an attribute load and a branch —
    the *entire* cost of disabled tracing.
    """

    __slots__ = ()
    enabled = False

    def emit(self, name: str, duration_s: float = 0.0, **attrs: object) -> None:
        """No-op (never called by guarded sites; safe if called)."""

    def spans(self, name: Optional[str] = None) -> List[Span]:
        return []

    def clear(self) -> None:
        pass


#: Shared singleton — stateless, safe to hand to every client.
NULL_TRACER = NullTracer()


class RecordingTracer:
    """In-memory tracer for tests, debugging, and offline analysis.

    Parameters
    ----------
    capacity:
        Maximum retained spans; beyond it the *oldest* spans are
        dropped (the tail of a long run is usually what matters).
        ``None`` retains everything.
    """

    __slots__ = ("_spans", "_lock", "capacity", "dropped")
    enabled = True

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("tracer capacity must be >= 1")
        self._spans: List[Span] = []
        self._lock = threading.Lock()
        self.capacity = capacity
        #: Spans discarded to honor *capacity*.
        self.dropped = 0

    def emit(self, name: str, duration_s: float = 0.0, **attrs: object) -> None:
        span = Span(name, duration_s, attrs)
        with self._lock:
            self._spans.append(span)
            if self.capacity is not None and len(self._spans) > self.capacity:
                overflow = len(self._spans) - self.capacity
                del self._spans[:overflow]
                self.dropped += overflow

    # ------------------------------------------------------------------
    def spans(self, name: Optional[str] = None) -> List[Span]:
        """Snapshot of recorded spans, optionally filtered by name."""
        with self._lock:
            snapshot = list(self._spans)
        if name is None:
            return snapshot
        return [s for s in snapshot if s.name == name]

    def last(self, name: str) -> Optional[Span]:
        """Most recent span named *name* (``None`` when absent)."""
        with self._lock:
            for span in reversed(self._spans):
                if span.name == name:
                    return span
        return None

    def counts(self) -> Dict[str, int]:
        """Span count per name (quick sanity checks in tests)."""
        out: Dict[str, int] = {}
        for span in self.spans():
            out[span.name] = out.get(span.name, 0) + 1
        return out

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

"""Send statistics and match classification results.

The performance study needs to know *which* path a send took (the
paper's four matching possibilities, §3) and how much mechanical work
the differential rewrite did (values rewritten, closing-tag shifts,
chunk rebuilds, splits, reallocations).

Counters live here and nowhere else: a component adds to a plain
attribute under whatever lock or thread already serialises its work,
and readers — ``ClientPool.stats``, ``merged_counters``, ``GET
/metrics`` — sum the live members when asked (:class:`MemberTotals`).
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Mapping

__all__ = ["MatchKind", "RewriteStats", "SendReport", "ClientStats", "MemberTotals"]


class MatchKind(enum.Enum):
    """The paper's four matching possibilities (§3)."""

    #: Entire message identical — resent as-is, zero serialization.
    CONTENT_MATCH = "content"
    #: Same structure and all new values fit their fields — only dirty
    #: values rewritten, no shifting.
    PERFECT_STRUCTURAL = "perfect-structural"
    #: Same structure but some value outgrew its field — shifting was
    #: needed.
    PARTIAL_STRUCTURAL = "partial-structural"
    #: No usable template — full serialization.
    FIRST_TIME = "first-time"

    # Counters are keyed by kind on every send.  Members are singletons,
    # so identity is a valid hash, and object's runs in C where Enum's
    # hashes the member name in Python.
    __hash__ = object.__hash__


@dataclass(slots=True)
class RewriteStats:
    """Work performed by one differential rewrite pass."""

    #: Dirty values this pass committed (each once, written or deferred).
    values_rewritten: int = 0
    #: Of those, doubles a typed frame carried while their text stayed
    #: stale (``repro.core.differential``, "Deferred text"); a send that
    #: falls back to full XML writes that text and counts none.
    values_deferred: int = 0
    #: Closing-tag rewrites (value length changed within its field).
    tag_shifts: int = 0
    #: Field expansions resolved within their chunk's capacity (each
    #: counts once, in the mode its chunk's rebuild took).
    shifts_inplace: int = 0
    #: Field expansions whose chunk was reallocated.
    reallocs: int = 0
    #: Field expansions whose chunk was split.
    splits: int = 0
    #: Bytes of pad written (shrinks + stuffing maintenance).
    pad_bytes: int = 0
    #: Fields this pass widened by shifting, in document order, as
    #: ``(DUT entries, growth)`` array pairs: what the delta encoder
    #: frames as pad insertions.  Per pass; never merged.
    grown: tuple = field(default=(), repr=False)
    #: The buffer's layout epoch when the pass began (-1: no pass ran).
    layout_epoch: int = -1

    @property
    def expansions(self) -> int:
        """Total fields that outgrew their width."""
        return self.shifts_inplace + self.reallocs + self.splits

    def merge(self, other: "RewriteStats") -> None:
        self.values_rewritten += other.values_rewritten
        self.values_deferred += other.values_deferred
        self.tag_shifts += other.tag_shifts
        self.shifts_inplace += other.shifts_inplace
        self.reallocs += other.reallocs
        self.splits += other.splits
        self.pad_bytes += other.pad_bytes


@dataclass(slots=True)
class SendReport:
    """Outcome of one :meth:`BSoapClient.send`."""

    match_kind: MatchKind
    bytes_sent: int
    rewrite: RewriteStats = field(default_factory=RewriteStats)
    #: Bytes the buffer copied to widen fields (chunk rebuilds) for
    #: this template so far.
    buffer_bytes_moved: int = 0
    num_chunks: int = 0
    #: Identity of the template this send used (-1 when none survives
    #: the call, e.g. forced-full-every-time mode).  Joins the send
    #: with its ``serialize``/``rewrite`` spans in a trace stream.
    template_id: int = -1
    #: This send was a forced full serialization resynchronizing the
    #: peer after a rolled-back (failed) send epoch.
    forced_full: bool = False
    #: Failed attempts before this send succeeded (filled by the
    #: retrying caller, e.g. RPCChannel; 0 for direct sends).
    retries: int = 0
    #: This send went out as a binary delta frame instead of full XML
    #: (``bytes_sent`` is then the frame size, not the document size).
    delta: bool = False

    @property
    def serialized_everything(self) -> bool:
        return self.match_kind is MatchKind.FIRST_TIME


@dataclass(slots=True)
class ClientStats:
    """Aggregate counters across a client's lifetime."""

    sends: int = 0
    by_kind: Dict[MatchKind, int] = field(
        default_factory=lambda: {k: 0 for k in MatchKind}
    )
    #: Payload bytes handed to the transport (tx; delta frames count
    #: at their frame size, which is what makes the bandwidth win
    #: visible here).
    bytes_sent: int = 0
    #: Response body bytes received (rx; filled by RPCChannel).
    bytes_received: int = 0
    #: Sends shipped as binary delta frames.
    delta_sends: int = 0
    templates_built: int = 0
    #: Send epochs rolled back after a transport failure.
    rollbacks: int = 0
    #: Forced full serializations performed to resynchronize the peer.
    forced_full_sends: int = 0
    #: ``bytes_sent`` split by match level.
    bytes_by_kind: Dict[MatchKind, int] = field(
        default_factory=lambda: {k: 0 for k in MatchKind}
    )
    #: Every send's :class:`RewriteStats` summed, client-lifetime.
    rewrite: RewriteStats = field(default_factory=RewriteStats)
    #: Bytes copied to widen fields during this client's sends.
    buffer_bytes_moved: int = 0

    # The rewrite keeps no plan cache; ``benchmarks/ledger/child.py``
    # reads these two for ``core.plan_hit_share`` until the ledger
    # retires that row (ROADMAP item 1, "Retired rows").
    @property
    def plan_hits(self) -> int:
        return 0

    @property
    def plan_misses(self) -> int:
        return 0

    def record(self, report: SendReport) -> None:
        kind = report.match_kind
        self.sends += 1
        self.by_kind[kind] += 1
        self.bytes_sent += report.bytes_sent
        self.bytes_by_kind[kind] += report.bytes_sent
        if report.delta:
            self.delta_sends += 1
        if report.forced_full:
            self.forced_full_sends += 1
        if kind is not MatchKind.CONTENT_MATCH:  # no rewrite pass ran
            self.rewrite.merge(report.rewrite)

    def __add__(self, other: "ClientStats") -> "ClientStats":
        """A new ``ClientStats`` holding both operands' counters."""
        total = ClientStats()
        for part in (self, other):
            for name in self.__slots__:
                value = getattr(part, name)
                if isinstance(value, dict):
                    for kind, count in value.items():
                        getattr(total, name)[kind] += count
                elif isinstance(value, RewriteStats):
                    total.rewrite.merge(value)
                else:
                    setattr(total, name, getattr(total, name) + value)
        return total

    def metric_samples(self) -> Dict[tuple, int]:
        """These counters as ``{(series name, *label values): value}``."""
        rw = self.rewrite
        samples = {
            ("repro_bytes_sent_total",): self.bytes_sent,
            ("repro_bytes_received_total",): self.bytes_received,
            ("repro_values_rewritten_total",): rw.values_rewritten,
            ("repro_values_deferred_total",): rw.values_deferred,
            ("repro_tag_shifts_total",): rw.tag_shifts,
            ("repro_pad_bytes_total",): rw.pad_bytes,
            ("repro_expansions_total", "inplace"): rw.shifts_inplace,
            ("repro_expansions_total", "realloc"): rw.reallocs,
            ("repro_expansions_total", "split"): rw.splits,
            ("repro_buffer_bytes_shifted_total",): self.buffer_bytes_moved,
            ("repro_templates_built_total",): self.templates_built,
            ("repro_rollbacks_total",): self.rollbacks,
            ("repro_forced_full_sends_total",): self.forced_full_sends,
        }
        for kind in MatchKind:
            samples["repro_sends_total", kind.value] = self.by_kind[kind]
            samples["repro_send_bytes_total", kind.value] = self.bytes_by_kind[kind]
        return samples

    def summary(self) -> str:
        parts = [f"sends={self.sends}", f"bytes={self.bytes_sent}"]
        parts += [
            f"{kind.value}={count}" for kind, count in self.by_kind.items() if count
        ]
        parts.append(f"templates={self.templates_built}")
        if self.delta_sends:
            parts.append(f"delta={self.delta_sends}")
        if self.bytes_received:
            parts.append(f"rx={self.bytes_received}")
        if self.rollbacks:
            parts.append(f"rollbacks={self.rollbacks}")
        if self.forced_full_sends:
            parts.append(f"resyncs={self.forced_full_sends}")
        return " ".join(parts)


class MemberTotals:
    """Counters summed over a changing set of members, exact across death.

    The one implementation of "sum the live members, fold a member in
    when it dies" — behind ``ServerSessionManager.merged_counters``
    (members: sessions), ``ClientPool.stats`` (channels) and every
    counter ``MetricsRegistry`` renders (whatever registered itself).

    *read* turns one member into ``{key: value}``; values only need
    ``+``.  Members keep counting on their own attributes and are read
    when :meth:`totals` is called — racily, but each counter only
    grows, so every total is monotone.  :meth:`retire` keeps a member's
    final reading and drops the reference to it; :meth:`totals` takes
    the retired sums and the live set under one lock, so a retiring
    member is counted in exactly one of the two.
    """

    def __init__(self, read: Callable[[object], Mapping[Hashable, object]]) -> None:
        self._read = read
        self._lock = threading.Lock()
        self._live: Dict[int, object] = {}
        self._retired: Dict[Hashable, object] = {}

    def add(self, member: object) -> None:
        with self._lock:
            self._live[id(member)] = member

    def retire(self, member: object) -> None:
        """Fold *member*'s final counts in and forget it (no-op if unknown)."""
        with self._lock:
            if self._live.pop(id(member), None) is not None:
                _accumulate(self._retired, self._read(member))

    def members(self) -> List[object]:
        with self._lock:
            return list(self._live.values())

    def totals(self) -> Dict[Hashable, object]:
        """Retired + live, per key."""
        with self._lock:
            totals = dict(self._retired)
            live = list(self._live.values())
        for member in live:
            _accumulate(totals, self._read(member))
        return totals


def _accumulate(totals: Dict, part: Mapping) -> None:
    for key, value in part.items():
        totals[key] = totals[key] + value if key in totals else value

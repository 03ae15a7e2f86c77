"""Differential deserialization (paper §6, future work).

    "storing messages at a SOAP server could help in a completely
    different way, by suggesting the structure of future message
    arrivals.  This could help avoid complete server-side parsing and
    improve performance, through differential deserialization."

The deserializer keeps, per sender, the previous raw message, its
:class:`~repro.server.parser.ParseResult` (decoded values + leaf byte
spans) and a :class:`~repro.schema.skipscan.SeekTable` compiled from
the two.  For an incoming message of the *same length*:

1. vectorized byte comparison against the stored copy
   (``np.frombuffer`` + ``!=``),
2. if nothing differs → return the cached decoded message (the
   server-side content match — zero parsing),
3. if all differing bytes fall inside known leaf field regions → the
   seek table re-parses only those leaves (the structural match): it
   seeks directly to the changed regions, trie-validates the closing
   tags (the only movable skeleton tokens), batch-parses uniform
   double regions with NumPy and commits only when the whole batch is
   clean (see ``docs/skipscan.md``),
4. otherwise (length change, skeleton bytes differ, the seek table
   declines the bytes, or no seek table is armed) → full parse and
   refresh the cache.

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
from typing import Dict, Optional

import numpy as np

from repro.hardening.limits import ResourceLimits
from repro.obs import NULL_OBS, Observability
from repro.schema.registry import TypeRegistry
from repro.schema.skipscan import SeekTable, SkipScanFallback
from repro.server.parser import DecodedMessage, ParseResult, SOAPRequestParser

__all__ = ["DeserKind", "DeserReport", "DifferentialDeserializer"]


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
        # uint8 view of the last decoded message: *data* is immutable
        # bytes, so holding it is holding the template (no copy).
        self._last_raw: Optional[np.ndarray] = None
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

    def _full_parse(self, data: bytes) -> tuple[DecodedMessage, DeserReport]:
        result = self.parser.parse(data)
        self._result = result
        self._last_raw = np.frombuffer(data, dtype=np.uint8)
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

    def deserialize(self, data: bytes) -> tuple[DecodedMessage, DeserReport]:
        """Decode *data*, reusing the stored template when possible."""
        if not isinstance(data, bytes):
            data = bytes(data)  # the template aliases it: must not change
        last = self._last_raw
        result = self._result
        if last is None or result is None or len(data) != len(last):
            if self._table is not None and last is not None:
                self._skip_event("length-drift")
            return self._full_parse(data)

        incoming = np.frombuffer(data, dtype=np.uint8)
        diff_pos = np.flatnonzero(incoming != last)
        if diff_pos.size == 0:
            self.stats[DeserKind.CONTENT_MATCH] += 1
            return result.message, DeserReport(
                DeserKind.CONTENT_MATCH, 0, result.leaf_count
            )

        table = self._table
        if table is None:
            # Uncompilable or shed: the full parse is the only other
            # decoder, and it compiles again.
            return self._full_parse(data)
        # Each differing byte must fall inside some leaf field region
        # (value + closing tag + whitespace pad).
        owner = np.searchsorted(table.starts, diff_pos, side="right") - 1
        inside = (owner >= 0) & (diff_pos < table.ends[np.clip(owner, 0, None)])
        if not bool(inside.all()):
            # Skeleton bytes changed — not the same template.
            self._skip_event("skeleton-drift")
            return self._full_parse(data)

        changed = np.unique(owner)
        # Validate + parse everything, commit only when the whole
        # batch is clean; any drift or parse doubt answers with the
        # authoritative full parse instead of an error from
        # hand-computed offsets.
        trace = self.obs.enabled and self.obs.tracer.enabled
        t0 = time.perf_counter() if trace else 0.0
        try:
            parsed, vectorized = table.apply(data, incoming, changed)
        except SkipScanFallback as exc:
            self._skip_event(f"fallback-{exc.reason}")
            return self._full_parse(data)
        self._skip_event("hit-vector" if vectorized else "hit")
        if trace:
            self.obs.tracer.emit(
                "skipscan",
                duration_s=time.perf_counter() - t0,
                leaves=parsed,
                vectorized=vectorized,
            )
        # Every differing byte was inside a re-parsed region: the new
        # message is the template now.
        self._last_raw = incoming
        self.stats[DeserKind.DIFFERENTIAL] += 1
        return result.message, DeserReport(
            DeserKind.DIFFERENTIAL, int(changed.size), result.leaf_count
        )

    # ------------------------------------------------------------------
    @property
    def has_template(self) -> bool:
        return self._result is not None

    def reset(self) -> None:
        """Drop the stored template (and its compiled seek table)."""
        self._last_raw = None
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
        """Approximate retained template bytes (raw copy + decode).

        The decoded :class:`ParseResult` is dominated by its value
        containers, which scale with the raw document — fold them in
        as one extra raw-sized charge rather than walking every leaf.
        The seek table is accounted separately
        (:meth:`seek_table_bytes`) because it sheds on its own tier.
        """
        if self._last_raw is None:
            return 0
        return 2 * self._last_raw.nbytes

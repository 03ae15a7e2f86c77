"""Template stores: sharing and multi-variant caching (paper §6).

Two of the paper's future-work directions live here:

**Template sharing.**
    "For applications that send the same (or similar) data to
    different remote services, we plan to investigate the extent to
    which it would be beneficial for them to share message chunks
    across templates."
  A :class:`TemplateStore` can be handed to several
  :class:`~repro.core.client.BSoapClient` instances (one per remote
  service); the serialization cost of a message is then paid once and
  amortized across every service that receives it.

**Multiple templates per call type.**
    "It also may be useful to store multiple different message
    templates for the same remote service, rather than one per call
    type."
  With ``variants_per_signature > 1`` the store keeps up to *k*
  templates per structure signature.  On each send the client picks
  the variant whose stored values differ least from the outgoing
  message (one vectorized comparison per variant — far cheaper than
  re-formatting); an application alternating between a few recurring
  payloads gets a content match for each instead of rewriting
  everything on every alternation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Union

import numpy as np

from repro.core.template import MessageTemplate
from repro.dut.tracked import (
    TrackedArray,
    TrackedScalar,
    TrackedStringArray,
    TrackedStructArray,
)
from repro.errors import TemplateError
from repro.soap.message import Parameter, SOAPMessage, Signature

__all__ = ["TemplateStore", "count_differences"]


def count_differences(template: MessageTemplate, message: SOAPMessage) -> int:
    """Leaves whose values differ between *message* and the template.

    Pure read: no dirty bits are flipped.  Used to rank template
    variants; assumes the message matches the template's structure.
    """
    total = 0
    for p in message.params:
        tracked = template.tracked(p.name)
        value = p.value
        if value is tracked:
            continue
        if isinstance(tracked, TrackedArray):
            incoming = np.asarray(value, dtype=tracked.data.dtype)
            diff = incoming != tracked.data
            if tracked.data.dtype.kind == "f":
                diff &= ~(np.isnan(incoming) & np.isnan(tracked.data))
            total += int(diff.sum())
        elif isinstance(tracked, TrackedStructArray):
            struct = tracked.struct
            if isinstance(value, dict):
                columns = value
            else:
                columns = {
                    f.name: [
                        rec[i] if isinstance(rec, tuple) else getattr(rec, f.name)
                        for rec in value  # type: ignore[union-attr]
                    ]
                    for i, f in enumerate(struct.fields)
                }
            for f in struct.fields:
                col = tracked.column(f.name)
                incoming = np.asarray(columns[f.name], dtype=col.dtype)
                diff = incoming != col
                if col.dtype.kind == "f":
                    diff &= ~(np.isnan(incoming) & np.isnan(col))
                total += int(diff.sum())
        elif isinstance(tracked, TrackedStringArray):
            total += sum(
                1 for i, s in enumerate(value) if tracked[i] != s  # type: ignore[arg-type]
            )
        elif isinstance(tracked, TrackedScalar):
            total += int(tracked.value != value)
        else:  # pragma: no cover - exhaustive
            raise TemplateError(f"unknown tracked type {type(tracked)!r}")
    return total


class TemplateStore:
    """Signature-keyed template cache, shareable between clients.

    Parameters
    ----------
    variants_per_signature:
        Maximum templates retained per structure signature (≥ 1).
        Eviction is least-recently-used within a signature.
    """

    def __init__(self, variants_per_signature: int = 1) -> None:
        if variants_per_signature < 1:
            raise TemplateError("variants_per_signature must be >= 1")
        self.variants_per_signature = variants_per_signature
        self._by_sig: Dict[Signature, List[object]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def variants(self, signature: Signature) -> List[object]:
        """All cached templates for *signature*, most recent first."""
        return list(self._by_sig.get(signature, ()))

    def get(self, signature: Signature) -> Optional[object]:
        """Most recently used template for *signature*, if any."""
        entries = self._by_sig.get(signature)
        if not entries:
            self.misses += 1
            return None
        self.hits += 1
        return entries[0]

    def select(
        self, signature: Signature, message: SOAPMessage
    ) -> tuple[Optional[MessageTemplate], int]:
        """The variant needing the fewest rewrites, and that count.

        Only applies to in-memory :class:`MessageTemplate` variants;
        returns ``(None, -1)`` when nothing is cached.
        """
        entries = self._by_sig.get(signature)
        if not entries:
            self.misses += 1
            return None, -1
        self.hits += 1
        best: Optional[MessageTemplate] = None
        best_count = -1
        for candidate in entries:
            if not isinstance(candidate, MessageTemplate):
                continue
            count = count_differences(candidate, message)
            if best is None or count < best_count:
                best, best_count = candidate, count
            if count == 0:
                break
        if best is not None:
            self.touch(signature, best)
        return best, best_count

    def put(self, signature: Signature, template: object) -> None:
        """Insert a template (most-recent position), evicting LRU."""
        entries = self._by_sig.setdefault(signature, [])
        entries.insert(0, template)
        while len(entries) > self.variants_per_signature:
            entries.pop()
            self.evictions += 1

    def touch(self, signature: Signature, template: object) -> None:
        """Mark *template* most recently used."""
        entries = self._by_sig.get(signature, [])
        if template in entries:
            entries.remove(template)
            entries.insert(0, template)

    def forget(self, signature: Signature) -> None:
        self._by_sig.pop(signature, None)

    def clear(self) -> None:
        self._by_sig.clear()

    # ------------------------------------------------------------------
    @property
    def template_count(self) -> int:
        return sum(len(v) for v in self._by_sig.values())

    @property
    def signature_count(self) -> int:
        return len(self._by_sig)

    def layout_key(self) -> tuple:
        """Equal on two calls only if :meth:`approx_bytes` is too.

        Names each in-memory template's buffer and the buffer's layout
        epoch, which every change of a chunk's capacity bumps; DUT
        columns keep their size for the buffer's life.
        """
        return tuple(
            (template.buffer, template.buffer.layout_epoch)
            for entries in self._by_sig.values()
            for template in entries
            if isinstance(template, MessageTemplate)
        )

    def approx_bytes(self) -> int:
        """Approximate bytes retained across every cached template.

        Sums each in-memory template's ``memory_footprint()['total']``
        (serialized chunks + DUT columns); entries without a footprint
        (spilled handles and such) contribute nothing.
        """
        total = 0
        for entries in self._by_sig.values():
            for template in entries:
                footprint = getattr(template, "memory_footprint", None)
                if callable(footprint):
                    total += int(footprint()["total"])
        return total

    def __contains__(self, signature: Signature) -> bool:
        return bool(self._by_sig.get(signature))

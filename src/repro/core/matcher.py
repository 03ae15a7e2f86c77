"""Match classification: which of the paper's four cases a send hits.

The classifier is deliberately cheap — the whole point of differential
serialization is to avoid touching the values, so classification looks
only at the template store (structure signature) and the DUT dirty
column:

* no template for the signature        → FIRST_TIME,
* template exists, nothing dirty       → CONTENT_MATCH,
* template exists, something dirty     → structural match; whether it
  was *perfect* or *partial* is known only after the rewrite (did any
  value outgrow its field?), so :func:`refine` upgrades the verdict
  from the rewrite stats.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

import numpy as np

from repro.core.stats import MatchKind, RewriteStats
from repro.soap.message import Signature

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.template import MessageTemplate

__all__ = ["classify", "refine"]


def classify(
    template: Optional["MessageTemplate"],
    signature: Signature,
    obs=None,
) -> MatchKind:
    """Pre-send classification (structural vs content vs first-time).

    When *obs* traces, emits a ``match-classify`` span carrying the
    (provisional) verdict and the dirty count it was based on.
    """
    if template is None or template.signature != signature:
        kind = MatchKind.FIRST_TIME
        dirty = 0
        template_id = -1
    else:
        dirty = int(np.count_nonzero(template.dut.dirty))
        template_id = template.template_id
        kind = (
            MatchKind.CONTENT_MATCH
            if dirty == 0
            else MatchKind.PERFECT_STRUCTURAL  # provisional; refine() later
        )
    if obs is not None and obs.tracer.enabled:
        obs.tracer.emit(
            "match-classify",
            template_id=template_id,
            match_level=kind.value,
            dirty=dirty,
        )
    return kind


def refine(kind: MatchKind, rewrite: RewriteStats) -> MatchKind:
    """Post-rewrite refinement: expansion work ⇒ partial structural."""
    if kind is MatchKind.PERFECT_STRUCTURAL and rewrite.expansions > 0:
        return MatchKind.PARTIAL_STRUCTURAL
    return kind

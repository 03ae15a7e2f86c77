"""Configuration of the differential serializer.

Everything the paper calls a "configurable parameter" lives here:
chunking (size / split threshold / reserve), stuffing widths, float
formatting, and chunk overlaying.  A value that outgrows its field is
always shifted (``repro.core.differential``); the paper's stealing is
a baseline (:mod:`repro.baselines.paper_expansion`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from repro.buffers.config import ChunkPolicy
from repro.errors import SchemaError
from repro.lexical.floats import FloatFormat
from repro.schema.types import XSDType

__all__ = [
    "StuffMode",
    "StuffingPolicy",
    "OverlayPolicy",
    "DeltaPolicy",
    "DiffPolicy",
]


class StuffMode(enum.Enum):
    """How field widths are chosen at template-creation time."""

    #: ``field_width = serialized length`` — no pad, any growth shifts.
    NONE = "none"
    #: ``field_width = max(serialized length, per-type fixed width)``.
    FIXED = "fixed"
    #: ``field_width = type's maximum lexical width`` — shifting is
    #: impossible for stuffable types (strings still grow on demand).
    MAX = "max"


@dataclass(frozen=True, slots=True)
class StuffingPolicy:
    """Field-width selection (paper §3.2 "stuffing")."""

    mode: StuffMode = StuffMode.NONE
    #: Per-primitive-name widths used in FIXED mode (e.g.
    #: ``{"double": 18, "int": 6}`` for the paper's intermediate runs).
    fixed_widths: Mapping[str, int] = field(default_factory=dict)

    def widths_for(self, xsd_type: XSDType, lens: np.ndarray) -> np.ndarray:
        """Field widths to allocate for values of *lens* characters.

        The stuffing rule, a column at a time: MAX widens every value
        to the type's maximum, FIXED to the clamped per-type width, and
        NONE (or an unstuffable type, or FIXED without a width for the
        type) keeps each value's own length.  A width never falls
        below its value's length.
        """
        spec = xsd_type.widths
        if self.mode is StuffMode.NONE or not spec.stuffable:
            return lens
        if self.mode is StuffMode.MAX:
            return np.maximum(lens, spec.max_width)
        width = self.fixed_widths.get(xsd_type.name)
        if width is None:
            return lens
        if width < spec.min_width:
            raise SchemaError(
                f"fixed width {width} below minimum {spec.min_width} "
                f"for {xsd_type.name}"
            )
        return np.maximum(lens, spec.clamp(width))

    def width_for(self, xsd_type: XSDType, ser_len: int) -> int:
        """Field width for one value of *ser_len* characters."""
        return int(self.widths_for(xsd_type, np.array([ser_len]))[0])

    @property
    def guarantees_fixed_layout(self) -> bool:
        """Whether widths can never grow (required by chunk overlaying).

        True only for MAX mode: every stuffable value fits its field
        forever.  FIXED mode bounds *most* values but a wider value at
        template time (or later) still forces layout change.
        """
        return self.mode is StuffMode.MAX


@dataclass(frozen=True, slots=True)
class OverlayPolicy:
    """Chunk-overlaying configuration (paper §3.3).

    Overlaying streams successive portions of a large array through a
    single chunk, so only ~one chunk of serialized data and DUT rows
    exist at a time.  It requires max-stuffed (fixed) field widths.
    """

    enabled: bool = False
    #: Items per portion; ``None`` derives it from the chunk size.
    portion_items: Optional[int] = None
    #: Arrays shorter than this many items are not worth overlaying.
    min_items: int = 1024


@dataclass(frozen=True, slots=True)
class DeltaPolicy:
    """Negotiated binary delta frames for repro↔repro traffic.

    Off by default: ``offer=True`` makes the client add the
    ``X-Repro-Delta`` offer and baseline-announce headers to full-XML
    sends; binary frames flow only after the server's response
    acknowledges support *and* a baseline has been announced.  Content
    and perfect-structural sends frame under an unchanged buffer
    layout; a partial-structural send frames too, its widened fields
    as pad insertions, when its own rewrite explains the layout and
    length change.  Everything else — layout or length movement the
    send did not make, server resync — falls back to full XML with a
    fresh announce.  See ``docs/wire_protocol.md``.
    """

    offer: bool = False
    #: Sends needing more splices than this go full-XML
    #: (the client-side twin of ``ResourceLimits.max_delta_splices``).
    max_splices: int = 1 << 16
    #: A frame bigger than this fraction of the document goes
    #: full-XML instead: at high churn the patch approaches the
    #: document size and full XML re-announces a clean baseline for
    #: free, keeping calls/sec no worse than the full path.
    max_frame_fraction: float = 0.5


@dataclass(frozen=True, slots=True)
class DiffPolicy:
    """Top-level bSOAP client configuration."""

    chunk: ChunkPolicy = field(default_factory=ChunkPolicy)
    stuffing: StuffingPolicy = field(default_factory=StuffingPolicy)
    float_format: FloatFormat = FloatFormat.MINIMAL
    #: When False the client behaves as "bSOAP Full Serialization":
    #: every send rebuilds the message from scratch (still through the
    #: template machinery, as in the paper's baseline curve).
    differential_enabled: bool = True
    overlay: OverlayPolicy = field(default_factory=OverlayPolicy)
    #: Templates retained per structure signature (§6 future work:
    #: "store multiple different message templates for the same remote
    #: service").  With k > 1 the auto-diff send path picks the cached
    #: variant whose values differ least from the outgoing message.
    template_variants: int = 1
    #: When the best variant still differs in more than this fraction
    #: of its leaves (and there is room), a new variant is built
    #: instead of rewriting the old one.
    variant_miss_threshold: float = 0.5
    #: Negotiated binary delta frames (see :class:`DeltaPolicy`);
    #: defaults off — nothing changes on the wire unless offered *and*
    #: acknowledged by the server.
    delta: DeltaPolicy = field(default_factory=DeltaPolicy)

    def derived_portion_items(self, item_bytes: int) -> int:
        """Items per overlay portion given a serialized item size."""
        if self.overlay.portion_items is not None:
            return max(1, self.overlay.portion_items)
        return max(1, self.chunk.soft_limit // max(1, item_bytes))

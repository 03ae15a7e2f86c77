"""``repro.wire`` — the negotiated binary delta-frame protocol.

Converts the paper's CPU win into a bandwidth win: once client and
server have negotiated (``X-Repro-Delta`` headers) and the server
holds a mirror of the last full document, a steady-state resend ships
a compact binary patch frame — the splices the DUT dirty set already
identifies — instead of the full XML.  Any mismatch degrades to full
XML plus a resync, so correctness never depends on the optimization.

See ``docs/wire_protocol.md`` for the frame layout, the negotiation
state machine, and the fallback taxonomy.
"""

from repro.wire.client import DeltaEncoder
from repro.wire.frame import (
    DIR_ENTRY,
    HEADER,
    MAGIC,
    DeltaFrame,
    apply_frame,
    decode_frame,
    encode_frame,
)
from repro.wire.loopback import DeltaLoopback
from repro.wire.server import DeltaSession, MirroredDocument

__all__ = [
    "MAGIC",
    "HEADER",
    "DIR_ENTRY",
    "DeltaFrame",
    "encode_frame",
    "decode_frame",
    "apply_frame",
    "DeltaEncoder",
    "DeltaSession",
    "MirroredDocument",
    "DeltaLoopback",
]

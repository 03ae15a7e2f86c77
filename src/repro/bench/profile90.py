"""§2 cost decomposition: where full serialization spends its time.

    "The most critical factor is the cost of conversion between
    floating point numbers and their ASCII representations.  These
    conversion routines account for 90% of end-to-end time for a SOAP
    RPC call."

The decomposition times the four phases §2 enumerates over the same
double-array workload: (1) traversing the data structures, (2)
translating values to ASCII, (3) copying the XML representation
(including tags) into a buffer, (4) sending the buffer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.bench.workloads import random_doubles
from repro.lexical.floats import FloatFormat, format_double_array
from repro.soap.envelope import envelope_layout
from repro.transport.loopback import MemcpySink

__all__ = ["PHASES", "PhaseBreakdown", "phase_steps", "decompose_serialization"]

#: The four phases, in serialization order (also the ``sec2`` curve labels).
PHASES: Tuple[str, ...] = (
    "Traversal",
    "Conversion (float→ASCII)",
    "Tag emission + packing",
    "Send (memcpy)",
)


@dataclass(slots=True)
class PhaseBreakdown:
    """Mean per-call milliseconds of each serialization phase."""

    n: int
    traversal_ms: float
    conversion_ms: float
    packing_ms: float
    send_ms: float

    @property
    def total_ms(self) -> float:
        return self.traversal_ms + self.conversion_ms + self.packing_ms + self.send_ms

    @property
    def conversion_share(self) -> float:
        """Fraction of total serialization time spent converting."""
        total = self.total_ms
        return self.conversion_ms / total if total else 0.0


def phase_steps(
    n: int, fmt: FloatFormat = FloatFormat.MINIMAL
) -> Dict[str, Callable[[], object]]:
    """Each phase of serializing an *n*-double array message, by label.

    Every step redoes its phase on the previous phase's output, which
    is computed here once, so each can be timed alone.
    """
    values = random_doubles(n, seed=n)
    unboxed = values.tolist()
    texts = format_double_array(unboxed, fmt)
    layout = envelope_layout("urn:bsoap:bench", "sendDoubles")
    open_item, close_item = b"<item>", b"</item>"
    sink = MemcpySink()

    def pack() -> List[bytes]:
        body = b"".join(open_item + t + close_item for t in texts)
        return [layout.prefix, b"<data>", body, b"</data>", layout.suffix]

    message = pack()
    steps = (
        # (1) traverse the in-memory structure (unbox values),
        values.tolist,
        # (2) value → ASCII conversion,
        lambda: format_double_array(unboxed, fmt),
        # (3) copy the XML representation (tags + values) into a buffer,
        pack,
        # (4) send.
        lambda: sink.send_message(message),
    )
    return dict(zip(PHASES, steps))


def decompose_serialization(
    n: int, reps: int = 10, fmt: FloatFormat = FloatFormat.MINIMAL
) -> PhaseBreakdown:
    """Measure the four phases for an *n*-double array message."""
    steps = phase_steps(n, fmt)
    elapsed = dict.fromkeys(steps, 0.0)
    for _ in range(reps):
        for label, step in steps.items():
            t0 = time.perf_counter()
            step()
            elapsed[label] += time.perf_counter() - t0
    return PhaseBreakdown(n, *(elapsed[label] * 1000.0 / reps for label in PHASES))

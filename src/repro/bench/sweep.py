"""Policy-grid sweeps: how the knobs interact.

The paper lists its configurables (chunk size, split threshold,
reserve, stuffing widths) and notes they must be balanced against each
other (§3.2).  This module sweeps a grid of (chunk size × stuffing
mode) over a chosen workload and reports Send Time per cell — the
tool for answering "which configuration should *my* application
use?".

Run:  python -m repro.bench.sweep --workload structural --n 10000
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.runner import TransportRig, time_loop
from repro.bench.workloads import double_array_message, doubles_of_width
from repro.buffers.config import ChunkPolicy
from repro.core.client import BSoapClient
from repro.core.policy import DiffPolicy, StuffingPolicy, StuffMode

__all__ = ["SweepCell", "run_sweep", "WORKLOADS", "main"]

DEFAULT_CHUNK_SIZES = (8 * 1024, 32 * 1024, 128 * 1024)
DEFAULT_STUFFING = ("none", "fixed18", "max")


def _stuffing(name: str) -> StuffingPolicy:
    if name == "none":
        return StuffingPolicy()
    if name == "fixed18":
        return StuffingPolicy(StuffMode.FIXED, {"double": 18})
    if name == "max":
        return StuffingPolicy(StuffMode.MAX)
    raise ValueError(f"unknown stuffing {name!r}")


def _policy(chunk_size: int, stuffing: str) -> DiffPolicy:
    return DiffPolicy(
        chunk=ChunkPolicy(
            chunk_size=chunk_size,
            reserve=min(512, chunk_size // 8),
            split_threshold=chunk_size // 2,
        ),
        stuffing=_stuffing(stuffing),
    )


@dataclass(slots=True)
class SweepCell:
    """One grid point's result."""

    chunk_size: int
    stuffing: str
    mean_ms: float
    #: Fields widened by one send (the last timed one).
    expansions: int
    message_bytes: int


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def _structural_workload(n: int, policy: DiffPolicy, tp, reps: Optional[int]):
    """Steady-state: 25% of values rewritten per send, width-stable."""
    message = double_array_message(doubles_of_width(n, 14, seed=0))
    client = BSoapClient(tp, policy)
    call = client.prepare(message)
    call.send()
    pool = doubles_of_width(n, 14, seed=9)
    k = n // 4
    rng = np.random.default_rng(1)
    flip = [pool, np.roll(pool, 1)]
    state = {"i": 0, "expansions": 0}

    def mutate():
        idx = rng.choice(n, k, replace=False)
        call.tracked("data").update(idx, flip[state["i"] % 2][idx])
        state["i"] += 1

    def send():
        state["expansions"] = call.send().rewrite.expansions

    timer = time_loop(send, setup=mutate, reps=reps)
    return timer.mean_ms, state["expansions"], call.template.total_bytes


def _growth_workload(n: int, policy: DiffPolicy, tp, reps: Optional[int]):
    """Adversarial: 10% of values grow 14→24 chars per round, template
    rebuilt each round (expansion stress)."""
    message = double_array_message(doubles_of_width(n, 14, seed=0))
    big = doubles_of_width(n, 24, seed=7)
    rng = np.random.default_rng(1)
    idx = np.sort(rng.choice(n, n // 10, replace=False))
    state: Dict[str, object] = {"expansions": 0, "bytes": 0}

    def rebuild():
        client = BSoapClient(tp, policy)
        call = client.prepare(message)
        call.send()
        call.tracked("data").update(idx, big[idx])
        state["call"] = call

    def send():
        report = state["call"].send()  # type: ignore[attr-defined]
        state["expansions"] = report.rewrite.expansions
        state["bytes"] = report.bytes_sent

    timer = time_loop(send, setup=rebuild, reps=reps, max_reps=15)
    return timer.mean_ms, state["expansions"], state["bytes"]


WORKLOADS: Dict[str, Callable] = {
    "structural": _structural_workload,
    "growth": _growth_workload,
}


# ----------------------------------------------------------------------
def run_sweep(
    workload: str = "structural",
    n: int = 10_000,
    *,
    chunk_sizes: Sequence[int] = DEFAULT_CHUNK_SIZES,
    stuffing: Sequence[str] = DEFAULT_STUFFING,
    transport: str = "memcpy",
    reps: Optional[int] = None,
) -> List[SweepCell]:
    """Measure every grid cell; returns cells in grid order."""
    fn = WORKLOADS.get(workload)
    if fn is None:
        raise KeyError(f"unknown workload {workload!r}; have {sorted(WORKLOADS)}")
    cells: List[SweepCell] = []
    with TransportRig(transport) as tp:
        for chunk_size in chunk_sizes:
            for stuff in stuffing:
                mean_ms, expansions, nbytes = fn(
                    n, _policy(chunk_size, stuff), tp, reps
                )
                cells.append(SweepCell(chunk_size, stuff, mean_ms, expansions, nbytes))
    return cells


def format_sweep(cells: Sequence[SweepCell]) -> str:
    """Aligned grid table, best cell marked."""
    best = min(c.mean_ms for c in cells)
    lines = [
        f"{'chunk':>8} {'stuffing':>9} "
        f"{'mean ms':>10} {'expansions':>11} {'msg bytes':>11}"
    ]
    for c in cells:
        marker = "  <= best" if c.mean_ms == best else ""
        lines.append(
            f"{c.chunk_size // 1024:>6}K {c.stuffing:>9} "
            f"{c.mean_ms:>10.3f} {c.expansions:>11} {c.message_bytes:>11}{marker}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.sweep",
        description="Sweep bSOAP policy grids over a workload.",
    )
    parser.add_argument("--workload", default="structural", choices=sorted(WORKLOADS))
    parser.add_argument("--n", type=int, default=10_000)
    parser.add_argument("--reps", type=int, default=None)
    parser.add_argument(
        "--transport", default="memcpy", choices=TransportRig.KINDS
    )
    args = parser.parse_args(argv)
    cells = run_sweep(
        args.workload, args.n, transport=args.transport, reps=args.reps
    )
    print(f"workload={args.workload} n={args.n} transport={args.transport}")
    print(format_sweep(cells))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Ablation — stealing vs shifting for field expansion.

With fixed-width stuffing, neighbors hold whitespace slack; stealing
slides only a few bytes instead of moving the chunk tail.  Expand a
scattered 10% of the values and compare the two expansion strategies.

Finding (recorded in EXPERIMENTS.md): in this Python port stealing is
*not* faster.  Shifting rebuilds each growing chunk once per send
(``repro.core.differential``, "Slow path"), while stealing stays one
donor scan and one slide per expanding value, so on n=5000 with 500
expansions SHIFT takes ~3 ms against ~10 ms for STEAL (468 steals and
32 per-value shift fallbacks), ~3.5x.  Per-value shifting
(``write_entry``'s path) and stealing cost about the same here
(~10 ms).  In the paper's C setting stealing beats per-value shifting,
which is why the authors explore it in a companion paper.  The
mechanism is still fully implemented and correctness-tested; this
bench keeps the trade-off visible.
"""

import numpy as np
import pytest

from _common import prepared_call
from repro.bench.workloads import double_array_message, doubles_of_width
from repro.buffers.config import ChunkPolicy
from repro.core.policy import DiffPolicy, Expansion, StuffingPolicy, StuffMode

N = 5000
#: Field width: 14-char values leave 6 bytes of slack, and growing one
#: to 24 chars needs 4, so a single neighbour can donate (``try_steal``
#: takes one donor with slack >= delta).
WIDTH = 20


def _policy(expansion):
    return DiffPolicy(
        chunk=ChunkPolicy(chunk_size=32 * 1024),
        stuffing=StuffingPolicy(StuffMode.FIXED, {"double": WIDTH}),
        expansion=expansion,
    )


@pytest.mark.parametrize("expansion", [Expansion.STEAL, Expansion.SHIFT])
def test_scattered_expansion(benchmark, expansion):
    benchmark.group = f"ablation steal-vs-shift (n={N}, 10% expand 14→24 chars)"
    benchmark.name = f"test_scattered_expansion[{expansion.value}]"
    message = double_array_message(doubles_of_width(N, 14, seed=0))
    big = doubles_of_width(N, 24, seed=7)
    rng = np.random.default_rng(1)
    idx = np.sort(rng.choice(N, N // 10, replace=False))
    state = {}

    def rebuild():
        call = prepared_call(message, _policy(expansion))
        call.tracked("data").update(idx, big[idx])
        state["call"] = call

    def run():
        report = state["call"].send()
        return report

    benchmark.pedantic(run, setup=rebuild, rounds=5, iterations=1, warmup_rounds=1)


def test_steal_actually_steals():
    """Sanity: under this setup the STEAL strategy finds donors."""
    message = double_array_message(doubles_of_width(N, 14, seed=0))
    big = doubles_of_width(N, 24, seed=7)
    rng = np.random.default_rng(1)
    idx = np.sort(rng.choice(N, N // 10, replace=False))
    call = prepared_call(message, _policy(Expansion.STEAL))
    call.tracked("data").update(idx, big[idx])
    report = call.send()
    assert report.rewrite.steals > 0
    assert report.rewrite.steals >= report.rewrite.shifts_inplace

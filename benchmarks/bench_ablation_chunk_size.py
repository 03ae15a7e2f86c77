"""Ablation — chunk size vs worst-case shifting cost.

DESIGN.md: shifting is chunk-local, so the per-expansion memmove is
bounded by the chunk size.  Sweep chunk sizes over the
every-value-expands workload (Figure 7's protocol) to expose the
trade-off the paper discusses in §3.2.
"""

import numpy as np
import pytest

from _common import prepared_call
from repro.bench.figures import shift_policy
from repro.bench.workloads import double_array_message, doubles_of_width

N = 5000
CHUNK_SIZES = (4 * 1024, 8 * 1024, 32 * 1024, 128 * 1024)


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
def test_worst_case_shift(benchmark, chunk_size):
    benchmark.group = f"ablation chunk size (n={N}, all values 1→24 chars)"
    benchmark.name = f"test_worst_case_shift[{chunk_size // 1024}K]"
    small = double_array_message(doubles_of_width(N, 1, seed=0))
    big = doubles_of_width(N, 24, seed=7)
    idx = np.arange(N)
    state = {}

    def rebuild():
        call = prepared_call(small, shift_policy(chunk_size))
        call.tracked("data").update(idx, big)
        state["call"] = call

    benchmark.pedantic(
        lambda: state["call"].send(),
        setup=rebuild,
        rounds=5,
        iterations=1,
        warmup_rounds=1,
    )


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
def test_full_build(benchmark, chunk_size):
    """Chunk size barely affects initial serialization (sanity floor)."""
    benchmark.group = f"ablation chunk size: full build (n={N})"
    benchmark.name = f"test_full_build[{chunk_size // 1024}K]"
    from repro.core.client import BSoapClient
    from repro.core.policy import DiffPolicy
    from _common import sink

    message = double_array_message(doubles_of_width(N, 18, seed=0))
    client = BSoapClient(
        sink(),
        DiffPolicy(
            chunk=shift_policy(chunk_size).chunk, differential_enabled=False
        ),
    )
    benchmark(lambda: client.send(message))

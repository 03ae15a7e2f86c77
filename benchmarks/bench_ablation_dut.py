"""Ablation — NumPy SoA DUT vs per-entry Python objects.

DESIGN.md's implementation choice: the DUT's columns are NumPy arrays
(vectorized dirty scans and offset fix-ups) instead of the paper's
literal one-record-per-entry design.  This bench quantifies the gap on
the two hot operations: the dirty scan and the post-shift offset
fix-up.
"""

import numpy as np
import pytest

from repro.buffers.chunked import GapResult
from repro.dut.objects import PyDUTTable
from repro.dut.table import DUTTableBuilder

N = 50_000


def _soa_table():
    builder = DUTTableBuilder()
    offs = np.arange(0, N * 30, 30)
    builder.add_batch(0, offs, np.full(N, 10), np.full(N, 24), type_id=1, close_len=7)
    return builder.freeze()


def _py_table():
    table = PyDUTTable()
    for off in range(0, N * 30, 30):
        table.add(0, off, 10, 24, 1, 7)
    return table


@pytest.fixture(scope="module")
def soa():
    return _soa_table()


@pytest.fixture(scope="module")
def pyt():
    return _py_table()


def test_dirty_scan_soa(benchmark, soa):
    benchmark.group = f"ablation DUT: dirty scan ({N} entries, 1% dirty)"
    rng = np.random.default_rng(0)
    soa.dirty[rng.choice(N, N // 100, replace=False)] = True
    benchmark(soa.dirty_indices)


def test_dirty_scan_python(benchmark, pyt):
    benchmark.group = f"ablation DUT: dirty scan ({N} entries, 1% dirty)"
    rng = np.random.default_rng(0)
    for i in rng.choice(N, N // 100, replace=False):
        pyt.mark_dirty(int(i))
    benchmark(pyt.dirty_indices)


def test_gap_fixup_soa(benchmark, soa):
    benchmark.group = f"ablation DUT: offset fix-up ({N} entries)"
    gap = GapResult("inplace", 0, N * 15, 5, N * 15 - 10)
    benchmark(lambda: soa.apply_gap(gap))


def test_gap_fixup_python(benchmark, pyt):
    benchmark.group = f"ablation DUT: offset fix-up ({N} entries)"
    gap = GapResult("inplace", 0, N * 15, 5, N * 15 - 10)
    benchmark(lambda: pyt.apply_gap(gap))


def test_build_soa(benchmark):
    benchmark.group = f"ablation DUT: build ({N} entries)"
    benchmark(_soa_table)


def test_build_python(benchmark):
    benchmark.group = f"ablation DUT: build ({N} entries)"
    benchmark(_py_table)

"""Unit tests for DUT tables (SoA + Python-object ablation twin)."""

import numpy as np
import pytest

from repro.buffers.chunked import GapResult
from repro.dut.objects import PyDUTTable
from repro.dut.table import DUTTable, DUTTableBuilder
from repro.errors import DUTError


def build_simple(entries):
    """entries: list of (chunk_id, off, ser_len, width)."""
    b = DUTTableBuilder()
    for cid, off, ser, width in entries:
        b.add(cid, off, ser, width, type_id=1, close_len=7)
    return b.freeze()


class TestBuilder:
    def test_add_returns_index(self):
        b = DUTTableBuilder()
        assert b.add(0, 0, 1, 1, 0, 3) == 0
        assert b.add(0, 10, 2, 2, 0, 3) == 1
        assert len(b) == 2

    def test_ser_len_over_width_rejected(self):
        with pytest.raises(DUTError):
            DUTTableBuilder().add(0, 0, 5, 3, 0, 3)

    def test_add_batch(self):
        b = DUTTableBuilder()
        b.add_batch(0, [0, 10, 20], [1, 2, 3], [4, 4, 4], type_id=1, close_len=7)
        t = b.freeze()
        assert len(t) == 3
        assert t.entry(1).value_off == 10 and t.entry(1).type_id == 1

    def test_add_batch_mixed(self):
        b = DUTTableBuilder()
        b.add_batch(0, [0, 10], [1, 1], [2, 2], [0, 1], [4, 4])
        t = b.freeze()
        assert t.entry(0).type_id == 0 and t.entry(1).type_id == 1

    def test_batch_length_mismatch(self):
        with pytest.raises(DUTError):
            DUTTableBuilder().add_batch(0, [0], [1, 2], [3], 0, 3)

    def test_freeze_validates(self):
        b = DUTTableBuilder()
        b.add_batch(0, [0], [9], [3], 0, 3)  # ser_len > width sneaks in
        with pytest.raises(DUTError):
            b.freeze()


class TestTableStructure:
    def test_chunk_ranges(self):
        t = build_simple([(0, 0, 1, 1), (0, 10, 1, 1), (2, 0, 1, 1)])
        assert t.chunk_range(0) == (0, 2)
        assert t.chunk_range(2) == (2, 3)
        assert t.chunk_range(7) == (0, 0)

    def test_noncontiguous_chunk_rejected(self):
        with pytest.raises(DUTError):
            build_simple([(0, 0, 1, 1), (1, 0, 1, 1), (0, 20, 1, 1)])

    def test_first_at_or_after(self):
        t = build_simple([(0, 0, 1, 1), (0, 10, 1, 1), (0, 20, 1, 1)])
        assert t.first_at_or_after(0, 0) == 0
        assert t.first_at_or_after(0, 5) == 1
        assert t.first_at_or_after(0, 10) == 1
        assert t.first_at_or_after(0, 21) == 3

    def test_entry_view(self):
        t = build_simple([(0, 4, 2, 5)])
        e = t.entry(0)
        assert (e.chunk_id, e.value_off, e.ser_len, e.field_width) == (0, 4, 2, 5)
        assert e.slack == 3
        assert e.region_end_offset == 4 + 5 + 7
        with pytest.raises(DUTError):
            t.entry(5)

    def test_total_slack(self):
        t = build_simple([(0, 0, 1, 5), (0, 20, 2, 2)])
        assert t.total_slack == 4

    def test_validate_overlap_detection(self):
        t = build_simple([(0, 0, 2, 2), (0, 4, 1, 1)])  # region0 ends at 9 > 4
        with pytest.raises(DUTError, match="overlap"):
            t.validate()

    def test_validate_ok(self):
        t = build_simple([(0, 0, 2, 2), (0, 20, 1, 1)])
        t.validate()


class TestDirty:
    def test_dirty_scan(self):
        t = build_simple([(0, 0, 1, 1), (0, 10, 1, 1), (0, 20, 1, 1)])
        assert not t.any_dirty
        t.dirty[1] = True
        assert t.any_dirty
        assert t.dirty_indices().tolist() == [1]
        assert t.dirty_indices(0, 1).tolist() == []

    def test_mark_and_clear(self):
        t = build_simple([(0, 0, 1, 1), (0, 10, 1, 1)])
        t.mark_all_dirty()
        assert t.dirty_indices().tolist() == [0, 1]
        t.clear_dirty(0, 1)
        assert t.dirty_indices().tolist() == [1]
        t.clear_dirty()
        assert not t.any_dirty


class TestApplyGap:
    def _table(self):
        return build_simple(
            [(0, 0, 1, 1), (0, 10, 1, 1), (0, 20, 1, 1), (1, 0, 1, 1)]
        )

    def test_inplace_shifts_suffix(self):
        t = self._table()
        t.apply_gap(GapResult("inplace", 0, 10, 5, 8))
        assert t.value_off[:3].tolist() == [0, 15, 25]
        assert t.value_off[3] == 0  # other chunk untouched

    def test_realloc_same_rule(self):
        t = self._table()
        t.apply_gap(GapResult("realloc", 0, 21, 5, 20))
        assert t.value_off[:3].tolist() == [0, 10, 20]  # pos after all offs? 21>20 → entry2 at 20 unchanged
        t.apply_gap(GapResult("realloc", 0, 20, 5, 20))
        assert t.value_off[2] == 25

    def test_split_moves_entries(self):
        t = self._table()
        # Entry 1 (off=10) grows: split at region_start=10, gap at pos=19.
        t.apply_gap(GapResult("split", 0, 19, 5, 10, new_cid=7))
        assert t.chunk_id[:3].tolist() == [0, 7, 7]
        assert t.value_off[1] == 0  # rebased to region start
        assert t.value_off[2] == 20 - 10 + 5  # rebased + delta
        assert t.chunk_range(0) == (0, 1)
        assert t.chunk_range(7) == (1, 3)

    def test_split_entire_chunk(self):
        t = build_simple([(0, 5, 1, 1), (0, 10, 1, 1)])
        t.apply_gap(GapResult("split", 0, 14, 3, 5, new_cid=3))
        assert t.chunk_range(0) == (0, 0)
        assert t.chunk_range(3) == (0, 2)

    def test_zero_delta_noop(self):
        t = self._table()
        t.apply_gap(GapResult("inplace", 0, 0, 0, 0))
        assert t.value_off[:3].tolist() == [0, 10, 20]

    def test_unknown_mode(self):
        with pytest.raises(DUTError):
            self._table().apply_gap(GapResult("warp", 0, 0, 1, 0))

    def test_split_missing_new_cid(self):
        with pytest.raises(DUTError):
            self._table().apply_gap(GapResult("split", 0, 10, 1, 5))


class TestPyDUTTable:
    """The Python-object ablation twin must agree with the SoA table."""

    def _both(self):
        soa = build_simple(
            [(0, 0, 1, 1), (0, 10, 1, 1), (0, 20, 1, 1), (1, 0, 1, 1)]
        )
        py = PyDUTTable()
        for i in range(4):
            e = soa.entry(i)
            py.add(e.chunk_id, e.value_off, e.ser_len, e.field_width,
                   e.type_id, e.close_len)
        return soa, py

    @pytest.mark.parametrize(
        "gap",
        [
            GapResult("inplace", 0, 10, 5, 8),
            GapResult("realloc", 0, 0, 2, 0),
            GapResult("split", 0, 19, 5, 10, new_cid=9),
        ],
    )
    def test_gap_agreement(self, gap):
        soa, py = self._both()
        soa.apply_gap(gap)
        py.apply_gap(gap)
        for i, e in enumerate(py.entries):
            assert e.chunk_id == soa.chunk_id[i]
            assert e.value_off == soa.value_off[i]

    def test_dirty_agreement(self):
        _soa, py = self._both()
        py.mark_dirty(2)
        assert py.any_dirty
        assert py.dirty_indices() == [2]
        assert [i for i, _ in py.iter_dirty()] == [2]
        py.clear_dirty()
        assert not py.any_dirty

    def test_invalid_entry(self):
        with pytest.raises(DUTError):
            PyDUTTable().add(0, 0, 5, 3, 0, 3)

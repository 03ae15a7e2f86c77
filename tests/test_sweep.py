"""Unit tests for the policy-grid sweep tool."""

import pytest

from repro.bench.sweep import SweepCell, WORKLOADS, format_sweep, main, run_sweep


class TestRunSweep:
    def test_grid_shape(self):
        cells = run_sweep(
            "structural",
            200,
            chunk_sizes=(8 * 1024,),
            stuffing=("none", "max"),
            reps=2,
        )
        assert len(cells) == 2
        assert {c.stuffing for c in cells} == {"none", "max"}
        assert all(c.mean_ms > 0 for c in cells)

    def test_max_stuffing_eliminates_expansions_under_growth(self):
        cells = run_sweep(
            "growth",
            300,
            chunk_sizes=(32 * 1024,),
            stuffing=("none", "max"),
            reps=2,
        )
        by_stuffing = {c.stuffing: c for c in cells}
        assert by_stuffing["none"].expansions > 0
        assert by_stuffing["max"].expansions == 0
        # Stuffed messages are larger on the wire.
        assert by_stuffing["max"].message_bytes > by_stuffing["none"].message_bytes

    def test_expansions_count_one_send(self):
        """The repetition count never changes a cell's expansions: under
        growth 10 % of 300 values outgrow their fields on each send; the
        structural workload keeps every value's width, so none do."""
        expected = {"growth": 30, "structural": 0}
        for workload in WORKLOADS:
            cells = [
                run_sweep(
                    workload,
                    300,
                    chunk_sizes=(8 * 1024,),
                    stuffing=("none",),
                    reps=reps,
                )[0]
                for reps in (2, 5)
            ]
            assert [c.expansions for c in cells] == [expected[workload]] * 2

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            run_sweep("quantum", 10)

    def test_workload_registry(self):
        assert set(WORKLOADS) == {"structural", "growth"}


class TestFormatting:
    def test_table_marks_best(self):
        cells = [
            SweepCell(8192, "none", 2.0, 5, 100),
            SweepCell(8192, "max", 1.0, 0, 120),
        ]
        text = format_sweep(cells)
        assert "<= best" in text
        assert text.count("<= best") == 1
        assert "max" in text

    def test_cli(self, capsys):
        assert main(["--workload", "structural", "--n", "100", "--reps", "2"]) == 0
        out = capsys.readouterr().out
        assert "workload=structural" in out
        assert "<= best" in out

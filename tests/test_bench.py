"""Unit tests for the bench harness (workloads, runner, report, figures)."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.paper_expansion import PaperStats
from repro.bench.figures import FIGURES
from repro.bench.profile90 import decompose_serialization
from repro.bench.report import format_ratios, format_series, ratio
from repro.bench.runner import Sample, TransportRig, adaptive_reps, time_loop
from repro.bench.workloads import (
    MIO_INTERMEDIATE_SPLIT,
    MIO_MAX_SPLIT,
    MIO_MIN_SPLIT,
    PAPER_SIZES,
    double_array_message,
    doubles_of_width,
    int_array_message,
    ints_of_width,
    mio_columns_of_widths,
    mio_message,
    random_mio_columns,
)
from repro.core.stats import MatchKind, SendReport
from repro.errors import SchemaError, TransportError
from repro.lexical.floats import format_double
from repro.lexical.integers import format_int
from repro.transport.loopback import NullSink


class TestWidthGenerators:
    @pytest.mark.parametrize("width", [1, 2, 5, 10, 14, 18, 19, 20, 24])
    def test_doubles_exact_width(self, width):
        values = doubles_of_width(100, width, seed=4)
        assert all(len(format_double(float(v))) == width for v in values)

    def test_doubles_deterministic(self):
        a = doubles_of_width(20, 18, seed=1)
        b = doubles_of_width(20, 18, seed=1)
        assert (a == b).all()

    def test_doubles_bad_width(self):
        with pytest.raises(SchemaError):
            doubles_of_width(5, 0)
        with pytest.raises(SchemaError):
            doubles_of_width(5, 25)

    @pytest.mark.parametrize("width", [1, 3, 6, 10, 11])
    def test_ints_exact_width(self, width):
        values = ints_of_width(100, width, seed=4)
        assert all(len(format_int(int(v))) == width for v in values)

    def test_ints_within_int32(self):
        values = ints_of_width(100, 11)
        assert (values >= -(2**31)).all() and (values < 2**31).all()

    @pytest.mark.parametrize(
        "split,total", [(MIO_MIN_SPLIT, 3), (MIO_INTERMEDIATE_SPLIT, 36), (MIO_MAX_SPLIT, 46)]
    )
    def test_mio_splits_match_paper_totals(self, split, total):
        assert sum(split) == total
        cols = mio_columns_of_widths(10, split, seed=2)
        widths = (
            len(format_int(int(cols["x"][0])))
            + len(format_int(int(cols["y"][0])))
            + len(format_double(float(cols["v"][0])))
        )
        assert widths == total

    def test_paper_sizes(self):
        assert PAPER_SIZES == (1, 100, 500, 1000, 10000, 50000, 100000)

    def test_message_builders(self):
        assert double_array_message(np.zeros(3)).params[0].length == 3
        assert int_array_message(np.zeros(3, int)).operation == "sendInts"
        assert mio_message(random_mio_columns(4)).params[0].length == 4


class TestRunner:
    def test_time_loop_counts(self):
        calls = []
        timer = time_loop(lambda: calls.append(1), reps=5, warmup=2)
        assert timer.count == 5
        assert len(calls) == 7

    def test_time_loop_setup_untimed(self):
        import time as _time

        def slow_setup():
            _time.sleep(0.005)

        timer = time_loop(lambda: None, setup=slow_setup, reps=3, warmup=0)
        assert timer.mean_ms < 4.0  # setup excluded from timing

    def test_adaptive_reps_bounds(self):
        assert adaptive_reps(0.0001, target_s=0.1) == 100
        assert adaptive_reps(10.0, target_s=0.1, min_reps=3) == 3
        assert adaptive_reps(0) == 100

    def test_time_loop_adaptive(self):
        timer = time_loop(lambda: None, target_s=0.01)
        assert timer.count >= 3

    @pytest.mark.parametrize("kind", ["null", "memcpy"])
    def test_rig_sinks(self, kind):
        with TransportRig(kind) as transport:
            assert transport.send_message([b"abc"]) == 3

    def test_rig_tcp(self):
        with TransportRig("tcp") as transport:
            assert transport.send_message([b"hello"]) == 5

    def test_rig_http(self):
        with TransportRig("http") as transport:
            assert transport.send_message([b"hello"]) == 5

    def test_rig_unknown(self):
        with pytest.raises(TransportError):
            TransportRig("carrier-pigeon")

    def test_rig_stops_its_server_when_the_connect_fails(self, monkeypatch):
        import socket

        import repro.bench.runner as runner

        started = []

        class RecordingServer(runner.DummyServer):
            def start(self):
                started.append(self)
                return super().start()

        def refuse(*args, **kwargs):
            raise TransportError("connection refused")

        monkeypatch.setattr(runner, "DummyServer", RecordingServer)
        monkeypatch.setattr(runner, "TCPTransport", refuse)
        rig = TransportRig("tcp")
        with pytest.raises(TransportError):
            with rig:
                pass
        assert rig.server is None
        (server,) = started
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", server.port), timeout=2.0)


class TestReport:
    def _series(self):
        return {
            "fast": [(10, 1.0), (100, 10.0)],
            "slow": [(10, 5.0), (100, 50.0)],
        }

    def test_format_series_table(self):
        text = format_series("T", self._series())
        assert "T" in text and "fast" in text and "slow" in text
        assert "10" in text and "50.0000" in text

    def test_ratio(self):
        assert ratio(self._series(), "slow", "fast", 100) == 5.0

    def test_format_ratios(self):
        text = format_ratios(self._series(), [("slow", "fast")], [10, 100])
        assert "5.0x" in text

    def test_missing_points_dash(self):
        series = {"a": [(10, 1.0)], "b": [(20, 2.0)]}
        text = format_series("T", series)
        assert "-" in text


class TestProfile90:
    def test_decomposition_sums(self):
        phases = decompose_serialization(2000, reps=3)
        assert phases.total_ms > 0
        assert 0 < phases.conversion_share < 1

    def test_conversion_dominates_at_scale(self):
        """The §2 claim: conversion is the bottleneck for large arrays."""
        phases = decompose_serialization(20000, reps=3)
        assert phases.conversion_share > 0.6
        assert phases.conversion_ms > phases.packing_ms
        assert phases.conversion_ms > phases.send_ms


class TestFiguresSmoke:
    """Every figure runs end to end at tiny sizes."""

    def test_one_entry_per_paper_figure(self):
        expected = {f"fig{i:02d}" for i in range(1, 13)} | {"sec2"}
        assert set(FIGURES) == expected

    @pytest.mark.parametrize("name", sorted(FIGURES))
    def test_figure_runs(self, name):
        from repro.bench.figures import run_figure

        title, series = run_figure(name, sizes=(1, 50), reps=2)
        assert title
        assert series
        for label, points in series.items():
            assert len(points) == 2, label
            for n, ms in points:
                assert ms >= 0.0

    def test_unknown_figure(self):
        from repro.bench.figures import run_figure

        with pytest.raises(KeyError):
            run_figure("fig99")

    def test_cli_main(self, capsys):
        from repro.bench.figures import main

        assert main(["fig03", "--sizes", "1,20", "--reps", "2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out

    def test_cli_rejects_an_unknown_name_before_running_any(self, capsys):
        from repro.bench.figures import main

        with pytest.raises(SystemExit) as exc:
            main(["fig01", "fig4", "--sizes", "1", "--reps", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "Figure 1" not in captured.out
        assert "fig4" in captured.err


class TestCurveWork:
    """Each curve does the work its label says, at one small size."""

    N = 64

    @pytest.mark.parametrize(
        "name, curve",
        [
            pytest.param(name, curve, id=f"{name}-{curve.label}")
            for name, figure in FIGURES.items()
            for curve in figure.curves
        ],
    )
    def test_curve_does_its_labelled_work(self, name, curve):
        n = self.N
        timed, setup = curve.make(n, NullSink())
        if setup is not None:
            setup()
        report = timed()
        label = curve.label
        mios = "MIOs" in FIGURES[name].title or label.endswith("(MIOs)")
        leaves = n * (3 if mios else 1)
        if isinstance(report, PaperStats):
            # Figures 6–9's per-value shift: every value rewritten, one
            # tail shift per growing value, nothing stolen.
            assert report.values_rewritten == leaves
            assert report.shifts > 0 and report.steals == 0
            return
        if not isinstance(report, SendReport):
            # The gSOAP/XSOAP baselines and the §2 phases.
            assert not label.startswith("bSOAP"), label
            return
        rewrite = report.rewrite
        if "Full Serialization" in label:
            assert report.match_kind is MatchKind.FIRST_TIME
        elif "Content Match" in label or "No Closing Tag Shift" in label:
            assert report.match_kind is MatchKind.CONTENT_MATCH
            assert rewrite.values_rewritten == 0
        elif "Value Re-serialization" in label:
            # Figure 4 rewrites only the MIO doubles, Figure 12 every field.
            fields = 3 if label.endswith("(MIOs)") else 1
            frac = int(label.split("%")[0]) / 100
            assert report.match_kind is MatchKind.PERFECT_STRUCTURAL
            assert rewrite.values_rewritten == max(1, int(frac * n)) * fields
        elif "with Shifting" in label or "Worst Case" in label:
            assert report.match_kind is MatchKind.PARTIAL_STRUCTURAL
            assert rewrite.expansions > 0
        elif "No Shifting" in label:
            assert rewrite.expansions == 0
            assert rewrite.values_rewritten == leaves
        elif "Full Closing Tag Shift" in label:
            assert report.match_kind is MatchKind.PERFECT_STRUCTURAL
            assert rewrite.tag_shifts == rewrite.values_rewritten == leaves
        elif "Chunk Overlay" in label:
            assert rewrite.expansions == 0
            assert rewrite.values_rewritten == leaves
        else:
            pytest.fail(f"no expectation for curve {label!r}")


REPO_ROOT = Path(__file__).parents[1]


class TestDiffdeserBenchResult:
    """The checked-in skip-scan ablation archive (``BENCH_diffdeser.json``)
    conforms to ``repro-bench-result/1``, covers the full variant x
    dirty-fraction grid with both timer series, and carries the claimed
    headline: >= 5x parse speedup for skip-scan at 1% dirty on a
    full-size (64Ki-double, non-smoke) run."""

    @pytest.fixture(scope="class")
    def bench_mod(self):
        path = REPO_ROOT / "benchmarks" / "bench_ablation_diffdeser.py"
        spec = importlib.util.spec_from_file_location(
            "bench_ablation_diffdeser", path
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod

    @pytest.fixture(scope="class")
    def doc(self):
        return json.loads((REPO_ROOT / "BENCH_diffdeser.json").read_text())

    def test_schema(self, bench_mod, doc):
        from repro.bench.resultjson import validate_result

        validate_result(doc, required_columns=bench_mod.REQUIRED_COLUMNS)
        assert doc["bench"] == "ablation_diffdeser"

    def test_grid_complete(self, bench_mod, doc):
        cells = {(r["variant"], r["dirty_frac"]) for r in doc["results"]}
        assert cells == {
            (v, f) for v in bench_mod.VARIANTS for f in bench_mod.FRACTIONS
        }

    def test_split_timer_series(self, doc):
        for row in doc["results"]:
            assert row["mean_parse_ms"] > 0, row
            assert row["mean_dispatch_ms"] >= 0, row
            assert row["mean_handle_ms"] > 0, row

    def test_headline_archived_at_full_size(self, bench_mod, doc):
        assert not doc["params"]["smoke"]
        # Both entries of the one lane: whole documents, and the frames
        # steady-state delta traffic actually arrives as.
        for variant in ("skipscan", "skipscan-frame"):
            [row] = [
                r
                for r in doc["results"]
                if (r["variant"], r["dirty_frac"])
                == (variant, bench_mod.HEADLINE_FRAC)
            ]
            assert row["n"] >= 65536
            assert row["skipscan_hits"] == row["sends"], row
            assert row["parse_speedup_vs_full"] >= bench_mod.MIN_HEADLINE_SPEEDUP


class TestAsyncServerBenchResult:
    """The checked-in C10K comparison archive (``BENCH_async_server.json``)
    conforms to ``repro-bench-result/1`` and carries the perf-smoke
    headlines: a 2k+-connection async soak with zero errors that beats
    the threaded server at its own (much lower) peak on both calls/sec
    and p99.  (The archive's ``resend-ablation`` rows are history: the
    flattening write path they compared against has been deleted.)"""

    @pytest.fixture(scope="class")
    def bench_mod(self):
        path = REPO_ROOT / "benchmarks" / "bench_runtime_throughput.py"
        spec = importlib.util.spec_from_file_location(
            "bench_runtime_throughput", path
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod

    @pytest.fixture(scope="class")
    def doc(self):
        return json.loads((REPO_ROOT / "BENCH_async_server.json").read_text())

    def _soak(self, doc, server):
        [row] = [
            r
            for r in doc["results"]
            if r["mode"] == "soak" and r["server"] == server
        ]
        return row

    def test_schema(self, bench_mod, doc):
        from repro.bench.resultjson import validate_result

        validate_result(
            doc, required_columns=bench_mod.ASYNC_COMPARE_COLUMNS
        )
        assert doc["bench"] == "async_server"
        assert not doc["params"]["smoke"]

    def test_soak_at_c10k_scale_with_zero_errors(self, doc):
        row = self._soak(doc, "async")
        assert row["connections"] >= 2000
        assert row["errors"] == 0
        assert row["calls"] >= row["connections"]  # every socket served

    def test_async_at_scale_beats_threaded_at_its_peak(self, doc):
        threaded = self._soak(doc, "threaded")
        asynch = self._soak(doc, "async")
        # Threaded runs at its own (much lower) peak, same in-flight
        # window, same total timed calls.
        assert threaded["errors"] == 0
        assert asynch["connections"] >= 16 * threaded["connections"]
        assert asynch["calls_per_sec"] >= threaded["calls_per_sec"]
        assert asynch["p99_ms"] <= threaded["p99_ms"]

"""Goodput under overload: admission control on vs off.

Drives a live :class:`~repro.server.threaded_server.HTTPSoapServer` whose
handler does real (GIL-holding) CPU work, so server capacity is a hard
resource and excess offered load queues instead of overlapping.  The
grid crosses offered load (0.5x / 1x / 2x of measured peak capacity)
with admission control (on / off); paced worker fleets generate the
load and every call is timed end-to-end.

**Goodput** is calls that both succeeded *and* finished inside the SLO
(a multiple of the unloaded median — a late answer is as useless as an
error to a caller with a deadline).  The headline claim this benchmark
archives (``BENCH_overload.json``):

* with admission ON, goodput at 2x offered load stays >= 80% of peak —
  excess requests get a fast 503 + Retry-After and the admitted ones
  ride at unloaded latency;
* with admission OFF, the same load makes every request queue behind
  15 others: p99 blows through the SLO and goodput collapses, even
  though raw throughput looks healthy.

Usage::

    PYTHONPATH=src:benchmarks python benchmarks/bench_overload_soak.py \
        --out BENCH_overload.json
    PYTHONPATH=src:benchmarks python benchmarks/bench_overload_soak.py --smoke
"""

from __future__ import annotations

import argparse
import sys
import threading
import time
from typing import Dict, List, Optional

import numpy as np

from repro.bench.resultjson import dump_result, make_result, validate_result
from repro.bench.workloads import SERVICE_NS
from repro.channel import RPCChannel
from repro.errors import HTTPStatusError, ReproError
from repro.hardening.overload import AdmissionController, OverloadPolicy
from repro.resilience.retry import RetryPolicy
from repro.runtime.loadgen import message_sequence
from repro.schema.registry import TypeRegistry
from repro.schema.types import DOUBLE
from repro.server.service import SOAPService
from repro.server.threaded_server import HTTPSoapServer

REQUIRED_COLUMNS = (
    "load_factor",
    "admission",
    "workers",
    "calls",
    "ok",
    "rejected",
    "errors",
    "calls_per_sec",
    "goodput_per_sec",
    "p50_ms",
    "p99_ms",
    "slo_ms",
)

#: Paced fleet size at 1x load; scaled by the load factor per cell.
BASE_WORKERS = 8


def build_busy_service(busy_ms: float, admission=None) -> SOAPService:
    """A checksum service that burns *busy_ms* of CPU per call.

    A busy-wait (not ``sleep``) holds the GIL, so concurrent requests
    genuinely contend for one resource — the regime where admission
    control matters.  With ``sleep`` every worker would overlap and no
    overload would exist to shed.
    """
    service = SOAPService(SERVICE_NS, TypeRegistry(), admission=admission)

    @service.operation("checksum", result_type=DOUBLE)
    def checksum(data):  # noqa: ANN001 - SOAP handler signature
        end = time.perf_counter() + busy_ms / 1000.0
        while time.perf_counter() < end:
            pass
        return float(np.sum(data))

    return service


class _CellStats:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.latencies_ms: List[float] = []
        self.ok = 0
        self.rejected = 0
        self.errors = 0

    def merge(self, latencies, ok, rejected, errors) -> None:
        with self.lock:
            self.latencies_ms.extend(latencies)
            self.ok += ok
            self.rejected += rejected
            self.errors += errors


def _worker(
    host, port, n, calls, interval_s, phase_s, stats: _CellStats, seed: int
):
    """One paced fleet member: a call every *interval_s*, no retries.

    *phase_s* staggers the fleet so arrivals spread across the interval
    instead of landing in synchronized bursts.  ``max_delay`` caps how
    long a Retry-After hint can sideline the worker's transport — the
    bench measures the server's behavior, not a 1-second client nap.
    """
    messages = message_sequence("content", n, calls, seed=seed)
    channel = RPCChannel(
        host,
        port,
        retry=RetryPolicy(max_attempts=1, base_delay=0.001, max_delay=0.05),
    )
    latencies: List[float] = []
    ok = rejected = errors = 0
    try:
        t0 = time.perf_counter() + phase_s
        for k, message in enumerate(messages):
            target = t0 + k * interval_s
            delay = target - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            started = time.perf_counter()
            try:
                channel.call(message)
            except HTTPStatusError as exc:
                if exc.status == 503:
                    rejected += 1
                else:
                    errors += 1
                continue
            except ReproError:
                errors += 1
                continue
            latencies.append((time.perf_counter() - started) * 1000.0)
            ok += 1
    finally:
        channel.close()
        stats.merge(latencies, ok, rejected, errors)


def _run_cell(host, port, *, n, workers, calls_per_worker, interval_s, seed):
    stats = _CellStats()
    threads = [
        threading.Thread(
            target=_worker,
            args=(
                host, port, n, calls_per_worker, interval_s,
                interval_s * i / workers, stats, seed + i,
            ),
            daemon=True,
        )
        for i in range(workers)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    return stats, elapsed


def measure_peak(host, port, *, n, calls, seed) -> Dict[str, float]:
    """Unloaded capacity: one worker, back-to-back calls."""
    stats, elapsed = _run_cell(
        host, port, n=n, workers=1, calls_per_worker=calls,
        interval_s=0.0, seed=seed,
    )
    if stats.errors or not stats.latencies_ms:
        raise RuntimeError(f"peak measurement failed: {stats.errors} errors")
    lat = np.asarray(stats.latencies_ms)
    return {
        "calls_per_sec": stats.ok / elapsed,
        "p50_ms": float(np.percentile(lat, 50)),
        "p99_ms": float(np.percentile(lat, 99)),
    }


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--busy-ms", type=float, default=10.0,
                        help="per-call CPU work on the server (default 10.0)")
    parser.add_argument("--n", type=int, default=16,
                        help="double-array payload length (default 16; small\n"
                             "on purpose so client-side CPU stays negligible\n"
                             "next to the server busy time)")
    parser.add_argument("--duration", type=float, default=4.0,
                        help="seconds of offered load per cell (default 4.0)")
    parser.add_argument("--peak-calls", type=int, default=400,
                        help="calls for the unloaded capacity measurement")
    parser.add_argument("--load-factors", type=float, nargs="+",
                        default=[0.5, 1.0, 2.0])
    parser.add_argument("--slo-factor", type=float, default=6.0,
                        help="SLO = max(slo-factor * unloaded p50, 25ms)")
    parser.add_argument("--max-concurrent", type=int, default=1,
                        help="admission concurrency gate (on cells)")
    parser.add_argument("--queue-depth", type=int, default=2)
    parser.add_argument("--queue-timeout", type=float, default=0.005)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny CI run: short cells, no headline gate")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.smoke:
        args.duration = 1.0
        args.peak_calls = 60

    def admission_controller():
        return AdmissionController(
            OverloadPolicy(
                max_concurrent_requests=args.max_concurrent,
                max_queue_depth=args.queue_depth,
                queue_timeout=args.queue_timeout,
            )
        )

    # Peak capacity on an admission-free server (the gates admit a
    # single unloaded worker anyway; measuring without them keeps the
    # baseline pure).
    server = HTTPSoapServer(build_busy_service(args.busy_ms)).start()
    try:
        peak = measure_peak(
            server.host, server.port,
            n=args.n, calls=args.peak_calls, seed=args.seed,
        )
    finally:
        server.stop()
    slo_ms = max(args.slo_factor * peak["p50_ms"], 25.0)
    print(
        f"peak: {peak['calls_per_sec']:.0f} calls/s, "
        f"p50 {peak['p50_ms']:.2f}ms -> SLO {slo_ms:.1f}ms",
        file=sys.stderr,
    )

    rows: List[Dict[str, object]] = []
    for load in args.load_factors:
        workers = max(1, round(BASE_WORKERS * load))
        # Each worker paces at capacity/BASE_WORKERS, so the fleet
        # offers load * capacity in aggregate.
        interval_s = BASE_WORKERS / peak["calls_per_sec"]
        calls_per_worker = max(4, int(args.duration / interval_s))
        for admission in ("on", "off"):
            controller = admission_controller() if admission == "on" else None
            server = HTTPSoapServer(
                build_busy_service(args.busy_ms, admission=controller)
            ).start()
            try:
                stats, elapsed = _run_cell(
                    server.host, server.port,
                    n=args.n, workers=workers,
                    calls_per_worker=calls_per_worker,
                    interval_s=interval_s, seed=args.seed,
                )
            finally:
                server.stop()
            lat = np.asarray(stats.latencies_ms) if stats.latencies_ms else None
            good = (
                int(np.count_nonzero(lat <= slo_ms)) if lat is not None else 0
            )
            row = {
                "load_factor": load,
                "admission": admission,
                "workers": workers,
                "calls": workers * calls_per_worker,
                "ok": stats.ok,
                "rejected": stats.rejected,
                "errors": stats.errors,
                "calls_per_sec": round(stats.ok / elapsed, 1),
                "goodput_per_sec": round(good / elapsed, 1),
                "p50_ms": round(float(np.percentile(lat, 50)), 2) if lat is not None else 0.0,
                "p99_ms": round(float(np.percentile(lat, 99)), 2) if lat is not None else 0.0,
                "slo_ms": round(slo_ms, 1),
            }
            rows.append(row)
            print(
                f"load {load:>4}x admission={admission:3s}: "
                f"goodput {row['goodput_per_sec']:>6} /s  "
                f"p99 {row['p99_ms']:>7}ms  503s={stats.rejected}",
                file=sys.stderr,
            )

    doc = make_result(
        "overload_soak",
        params={
            "busy_ms": args.busy_ms,
            "n": args.n,
            "duration_s": args.duration,
            "load_factors": ",".join(map(str, args.load_factors)),
            "base_workers": BASE_WORKERS,
            "slo_factor": args.slo_factor,
            "max_concurrent": args.max_concurrent,
            "queue_depth": args.queue_depth,
            "queue_timeout": args.queue_timeout,
            "peak_calls_per_sec": round(peak["calls_per_sec"], 1),
            "peak_p50_ms": round(peak["p50_ms"], 2),
            "seed": args.seed,
            "smoke": args.smoke,
        },
        results=rows,
        notes=(
            "goodput = calls finishing inside the SLO; paced open-ish "
            "fleet against a GIL-bound busy handler on loopback"
        ),
    )
    validate_result(doc, required_columns=REQUIRED_COLUMNS)
    dump_result(doc, args.out)
    if args.out:
        print(f"wrote {args.out} ({len(rows)} rows)", file=sys.stderr)

    errors = sum(int(r["errors"]) for r in rows)
    if errors:
        print(f"ERROR: {errors} failed calls", file=sys.stderr)
        return 1
    if not args.smoke:
        # The headline gate: admission keeps 2x-load goodput near peak
        # while no-admission collapses under the same offered load.
        by = {(r["load_factor"], r["admission"]): r for r in rows}
        on2, off2 = by.get((2.0, "on")), by.get((2.0, "off"))
        if on2 and off2:
            floor = 0.8 * peak["calls_per_sec"]
            if float(on2["goodput_per_sec"]) < floor:
                print(
                    f"GATE FAILED: 2x admission-on goodput "
                    f"{on2['goodput_per_sec']}/s < 80% of peak ({floor:.0f}/s)",
                    file=sys.stderr,
                )
                return 1
            if float(off2["goodput_per_sec"]) >= float(on2["goodput_per_sec"]):
                print(
                    "GATE FAILED: admission-off goodput did not collapse "
                    f"({off2['goodput_per_sec']}/s vs {on2['goodput_per_sec']}/s)",
                    file=sys.stderr,
                )
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

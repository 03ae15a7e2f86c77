"""Closed-loop load generation for the runtime layer.

Drives an :class:`~repro.server.threaded_server.HTTPSoapServer` with
configurable concurrency (single channel, :class:`ClientPool`, or
:class:`PipelinedSender`) and per-call workloads pinned to one of the
paper's four match levels, measuring calls/sec and latency
percentiles.  The throughput bench
(``benchmarks/bench_runtime_throughput.py``) is a thin CLI over this
module; tests reuse the workload generators for oracle comparisons.

Match-level workloads (double-array payloads):

``content``
    The same values every call → server + client resend saved bytes.
``perfect-structural``
    ~25% of values flip between two equal-width pools → dirty-value
    rewrites only.
``partial-structural``
    ~25% of values change width (10–22 chars, no stuffing) → shifting
    and stealing on the client, skeleton changes server-side.
``first-time``
    The array grows by one element each call → a fresh structure
    signature, full serialization every time.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.bench.workloads import SERVICE_NS, doubles_of_width
from repro.channel import RPCChannel
from repro.core.policy import DiffPolicy, StuffingPolicy, StuffMode
from repro.core.stats import MatchKind
from repro.errors import ReproError
from repro.runtime.pipeline import PipelinedSender
from repro.runtime.pool import ClientPool
from repro.schema.composite import ArrayType
from repro.schema.registry import TypeRegistry
from repro.schema.types import DOUBLE
from repro.server.service import SOAPService
from repro.server.threaded_server import HTTPSoapServer
from repro.soap.message import Parameter, SOAPMessage

__all__ = [
    "MATCH_LEVELS",
    "LoadResult",
    "build_service",
    "serve",
    "ECHO_OPERATION",
    "EXPAND_OPERATION",
    "EXPAND_REPS",
    "level_policy",
    "message_sequence",
    "run_single",
    "run_pool",
    "run_pipelined",
]

MATCH_LEVELS = (
    "content",
    "perfect-structural",
    "partial-structural",
    "first-time",
)

OPERATION = "checksum"
ECHO_OPERATION = "echo"
EXPAND_OPERATION = "expand"

#: Response amplification for :data:`EXPAND_OPERATION` — the request
#: array comes back tiled this many times.
EXPAND_REPS = 256


def build_service(delay_ms: float = 0.0, **service_kw) -> SOAPService:
    """The loadgen target: one summing operation, fixed response shape.

    *delay_ms* adds a per-call service time (``time.sleep``, so the
    GIL is released).  Zero isolates protocol overhead; a small
    nonzero value models a service that does real work, which is the
    regime where pooling/pipelining overlap pays off — on a loopback
    no-op service every mode is serialized on the interpreter lock
    and concurrency cannot show through.

    Extra keyword arguments reach the :class:`SOAPService` constructor
    (``admission=``, ``limits=``, ``obs=`` — the chaos harness and the
    overload benchmark configure their targets this way).
    """
    service = SOAPService(SERVICE_NS, TypeRegistry(), **service_kw)

    @service.operation(OPERATION, result_type=DOUBLE)
    def checksum(data):  # noqa: ANN001 - SOAP handler signature
        if delay_ms > 0:
            time.sleep(delay_ms / 1000.0)
        return float(np.sum(data))

    @service.operation(ECHO_OPERATION, result_type=ArrayType(DOUBLE))
    def echo(data):  # noqa: ANN001 - SOAP handler signature
        # Response size tracks request size, so a large-array echo
        # spans several serializer chunks — the workload where the
        # async server's vectored send path differs from flattening.
        if delay_ms > 0:
            time.sleep(delay_ms / 1000.0)
        return data

    @service.operation(EXPAND_OPERATION, result_type=ArrayType(DOUBLE))
    def expand(data):  # noqa: ANN001 - SOAP handler signature
        # Small request, EXPAND_REPS-times-larger response: the
        # write-path ablation workload, where per-call cost is
        # dominated by shipping a multi-chunk steady-state resend and
        # not by parsing the request.
        if delay_ms > 0:
            time.sleep(delay_ms / 1000.0)
        return np.tile(np.asarray(data), EXPAND_REPS)

    return service


def serve(delay_ms: float = 0.0, server: str = "threaded"):
    """Start an HTTP server around :func:`build_service` (port 0 = ephemeral).

    *server* picks the front end: ``"threaded"`` (thread per
    connection) or ``"async"`` (the event-loop C10K server).
    """
    from repro.server.async_server import make_server

    return make_server(build_service(delay_ms), server=server).start()


def level_policy(level: str) -> DiffPolicy:
    """Client policy pinning the workload to its match level."""
    if level == "partial-structural":
        # No stuffing: width changes must shift, not fill slack.
        return DiffPolicy(stuffing=StuffingPolicy(StuffMode.NONE))
    return DiffPolicy(stuffing=StuffingPolicy(StuffMode.MAX))


def message_sequence(
    level: str, n: int, calls: int, seed: int = 0
) -> List[SOAPMessage]:
    """A deterministic per-client call sequence at *level*."""
    if level not in MATCH_LEVELS:
        raise ValueError(f"unknown match level {level!r}; have {MATCH_LEVELS}")
    rng = np.random.default_rng(seed)

    def msg(values: np.ndarray) -> SOAPMessage:
        return SOAPMessage(
            OPERATION, SERVICE_NS, [Parameter("data", ArrayType(DOUBLE), values)]
        )

    if level == "content":
        values = doubles_of_width(n, 14, seed=seed)
        return [msg(values) for _ in range(calls)]

    if level == "perfect-structural":
        pools = (
            doubles_of_width(n, 14, seed=seed),
            doubles_of_width(n, 14, seed=seed + 1),
        )
        out: List[SOAPMessage] = []
        current = pools[0].copy()
        for i in range(calls):
            k = max(1, n // 4)
            idx = rng.choice(n, k, replace=False)
            current = current.copy()
            current[idx] = pools[(i + 1) % 2][idx]
            out.append(msg(current))
        return out

    if level == "partial-structural":
        current = doubles_of_width(n, 14, seed=seed).copy()
        out = []
        for _ in range(calls):
            k = max(1, n // 4)
            idx = rng.choice(n, k, replace=False)
            width = int(rng.integers(10, 23))
            pool = doubles_of_width(k, width, seed=int(rng.integers(1 << 30)))
            current = current.copy()
            current[idx] = pool
            out.append(msg(current))
        return out

    # first-time: a new structure signature on every call.
    return [
        msg(doubles_of_width(n + i, 14, seed=seed + i)) for i in range(calls)
    ]


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
@dataclass(slots=True)
class LoadResult:
    """Outcome of one load run."""

    mode: str
    match_level: str
    pool_size: int
    calls: int
    errors: int
    duration_s: float
    latencies_ms: List[float] = field(default_factory=list)
    match_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def calls_per_sec(self) -> float:
        return self.calls / self.duration_s if self.duration_s > 0 else 0.0

    def percentile_ms(self, q: float) -> float:
        if not self.latencies_ms:
            return 0.0
        return float(np.percentile(np.asarray(self.latencies_ms), q))

    def to_row(self) -> Dict[str, object]:
        """Flat row in the standard bench-result shape."""
        row: Dict[str, object] = {
            "mode": self.mode,
            "match_level": self.match_level,
            "pool_size": self.pool_size,
            "calls": self.calls,
            "errors": self.errors,
            "duration_s": round(self.duration_s, 6),
            "calls_per_sec": round(self.calls_per_sec, 2),
            "p50_ms": round(self.percentile_ms(50), 4),
            "p99_ms": round(self.percentile_ms(99), 4),
            "mean_ms": round(
                float(np.mean(self.latencies_ms)) if self.latencies_ms else 0.0, 4
            ),
        }
        for kind in MatchKind:
            row[f"match_{kind.value}"] = self.match_counts.get(kind.value, 0)
        return row


def _record_match(counts: Dict[str, int], channel: RPCChannel) -> None:
    report = channel.last_send_report
    if report is not None:
        key = report.match_kind.value
        counts[key] = counts.get(key, 0) + 1


def run_single(
    host: str,
    port: int,
    *,
    level: str = "perfect-structural",
    calls: int = 100,
    n: int = 256,
    seed: int = 0,
) -> LoadResult:
    """Sequential calls over one channel — the 1-connection baseline."""
    messages = message_sequence(level, n, calls, seed)
    latencies: List[float] = []
    counts: Dict[str, int] = {}
    errors = 0
    with RPCChannel(
        host, port, registry=TypeRegistry(), policy=level_policy(level)
    ) as channel:
        started = time.perf_counter()
        for message in messages:
            t0 = time.perf_counter()
            try:
                channel.call(message)
            except ReproError:
                errors += 1
                continue
            latencies.append((time.perf_counter() - t0) * 1000.0)
            _record_match(counts, channel)
        duration = time.perf_counter() - started
    return LoadResult(
        "single", level, 1, len(latencies), errors, duration, latencies, counts
    )


def run_pool(
    host: str,
    port: int,
    *,
    pool_size: int = 4,
    level: str = "perfect-structural",
    calls: int = 100,
    n: int = 256,
    seed: int = 0,
) -> LoadResult:
    """Closed-loop concurrent clients, one per pooled channel.

    Each worker holds a checkout for the whole run (template
    affinity), so every call diffs against its own channel's
    last-sent bytes.
    """
    per_worker = max(1, calls // pool_size)
    lock = threading.Lock()
    latencies: List[float] = []
    counts: Dict[str, int] = {}
    errors = [0]

    pool = ClientPool(
        host,
        port,
        pool_size,
        registry=TypeRegistry(),
        policy=level_policy(level),
    )

    def worker(worker_id: int) -> None:
        messages = message_sequence(level, n, per_worker, seed + 1000 * worker_id)
        local_lat: List[float] = []
        local_counts: Dict[str, int] = {}
        local_errors = 0
        with pool.channel() as channel:
            for message in messages:
                t0 = time.perf_counter()
                try:
                    channel.call(message)
                except ReproError:
                    local_errors += 1
                    continue
                local_lat.append((time.perf_counter() - t0) * 1000.0)
                _record_match(local_counts, channel)
        with lock:
            latencies.extend(local_lat)
            for key, count in local_counts.items():
                counts[key] = counts.get(key, 0) + count
            errors[0] += local_errors

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(pool_size)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    duration = time.perf_counter() - started
    pool.close()
    return LoadResult(
        "pool", level, pool_size, len(latencies), errors[0], duration, latencies, counts
    )


def run_pipelined(
    host: str,
    port: int,
    *,
    pool_size: int = 4,
    level: str = "perfect-structural",
    calls: int = 100,
    n: int = 256,
    depth: int = 4,
    seed: int = 0,
) -> LoadResult:
    """Pipelined fan-out: overlap serialization with response waits."""
    messages = message_sequence(level, n, calls, seed)
    latencies: List[float] = []
    counts: Dict[str, int] = {}
    lock = threading.Lock()
    errors = [0]
    done = threading.Semaphore(0)

    pool = ClientPool(
        host,
        port,
        pool_size,
        registry=TypeRegistry(),
        policy=level_policy(level),
    )
    started = time.perf_counter()
    with PipelinedSender(pool, depth=depth) as sender:

        def resolved(t0: float, future) -> None:
            exc = future.exception()
            with lock:
                if exc is not None:
                    errors[0] += 1
                else:
                    latencies.append((time.perf_counter() - t0) * 1000.0)
                    call = future.result()
                    key = call.send_report.match_kind.value
                    counts[key] = counts.get(key, 0) + 1
            done.release()

        for message in messages:
            t0 = time.perf_counter()
            future = sender.submit(message)
            future.add_done_callback(lambda f, t0=t0: resolved(t0, f))
        for _ in messages:
            done.acquire()
    duration = time.perf_counter() - started
    pool.close()
    return LoadResult(
        "pipelined",
        level,
        pool_size,
        len(latencies),
        errors[0],
        duration,
        latencies,
        counts,
    )


RUNNERS: Dict[str, Callable[..., LoadResult]] = {
    "single": run_single,
    "pool": run_pool,
    "pipelined": run_pipelined,
}


def run_grid(
    host: str,
    port: int,
    *,
    modes: Sequence[str] = ("single", "pool"),
    pool_sizes: Sequence[int] = (1, 4),
    levels: Sequence[str] = MATCH_LEVELS,
    calls: int = 100,
    n: int = 256,
    depth: int = 4,
    seed: int = 0,
    progress: Optional[Callable[[str], None]] = None,
) -> List[LoadResult]:
    """Run the full (mode × pool size × match level) grid."""
    results: List[LoadResult] = []
    for level in levels:
        for mode in modes:
            sizes = (1,) if mode == "single" else pool_sizes
            for size in sizes:
                kwargs = dict(level=level, calls=calls, n=n, seed=seed)
                if mode != "single":
                    kwargs["pool_size"] = size
                if mode == "pipelined":
                    kwargs["depth"] = depth
                result = RUNNERS[mode](host, port, **kwargs)
                results.append(result)
                if progress is not None:
                    progress(
                        f"{mode:>9} size={size} {level:<19} "
                        f"{result.calls_per_sec:>9.1f} calls/s "
                        f"p50={result.percentile_ms(50):.2f}ms "
                        f"p99={result.percentile_ms(99):.2f}ms "
                        f"errors={result.errors}"
                    )
    return results

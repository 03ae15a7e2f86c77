"""One workload in one fresh interpreter: set-up, timed rounds, counters.

Spawned by ``run.py`` (never imported by it), so ``peak_rss_mb`` and
``setup_s`` belong to one workload.  Prints one JSON object as its last
line of standard output.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.channel import RPCChannel  # noqa: E402
from repro.core.policy import DeltaPolicy, DiffPolicy, StuffingPolicy  # noqa: E402
from repro.core.stats import MatchKind  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.hardening.overload import AdmissionController, OverloadPolicy  # noqa: E402
from repro.lexical.cache import memo_stats  # noqa: E402
from repro.resilience.reconnect import ReconnectingTCPTransport  # noqa: E402
from repro.runtime import loadgen  # noqa: E402
from repro.schema.composite import ArrayType  # noqa: E402
from repro.schema.registry import TypeRegistry  # noqa: E402
from repro.schema.types import DOUBLE  # noqa: E402
from repro.server.async_server import make_server  # noqa: E402
from repro.server.diffdeser import DeserKind  # noqa: E402

import tracing  # noqa: E402
from workloads import BY_NAME, WARM_CALLS, Stream, Workload, make_stream, reply_is_correct  # noqa: E402

HOST = "127.0.0.1"


def pin_to_one_cpu() -> int:
    """Run every thread of this interpreter on one CPU; returns which.

    Client and server threads take turns under the interpreter lock
    anyway, but left unpinned the scheduler spreads them over both cores
    in some runs and not in others, and with cross-core wake-ups the
    same code runs three to four times slower (first observations, README).
    So every end-to-end row is a single-core figure; the traced pass
    reports the unpinned rate beside it (``frontend.unpinned_calls_per_s``).
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # threads started later inherit it
    return cpu


def build_service(tracer: Optional[tracing.Tracer]):
    """The served service: ``loadgen.build_service``, or its timed twin."""
    admission = AdmissionController(OverloadPolicy())
    if tracer is None:
        return loadgen.build_service(admission=admission)
    service = tracing.TimedService(
        tracer, loadgen.SERVICE_NS, TypeRegistry(), admission=admission
    )
    handlers = tracing.timed_handlers(tracer)
    service.operation("checksum", result_type=DOUBLE)(handlers["checksum"])
    service.operation("echo", result_type=ArrayType(DOUBLE))(handlers["echo"])
    return service


def open_channel(port: int, spec: Workload, tracer: Optional[tracing.Tracer]) -> RPCChannel:
    policy = DiffPolicy(
        stuffing=StuffingPolicy(spec.stuffing), delta=DeltaPolicy(offer=True)
    )
    if tracer is None:
        return RPCChannel(HOST, port, policy=policy)
    raw = ReconnectingTCPTransport(HOST, port)
    raw.connect()
    transport = tracing.TimedTransport(raw, tracer)
    channel = RPCChannel(HOST, port, policy=policy, raw_transport=transport)
    tracing.trace_channel(channel, transport)
    return channel


def counters(channel: RPCChannel, service) -> Dict[str, int]:
    """Every monotonic public counter the ledger reads, as one flat dict."""
    stats = channel.client.stats
    deser = service.deserializer
    skip = deser.skipscan_stats
    memos = memo_stats().values()
    rejects = service.obs.metrics.get("repro_http_rejects_total")
    return {
        "sends": stats.sends,
        "content": stats.by_kind[MatchKind.CONTENT_MATCH],
        "perfect": stats.by_kind[MatchKind.PERFECT_STRUCTURAL],
        "partial": stats.by_kind[MatchKind.PARTIAL_STRUCTURAL],
        "first_time": stats.by_kind[MatchKind.FIRST_TIME],
        "request_bytes": stats.bytes_sent,
        "response_bytes": stats.bytes_received,
        "delta_sends": stats.delta_sends,
        "templates_built": stats.templates_built,
        "plan_hits": stats.plan_hits,
        "plan_misses": stats.plan_misses,
        "retries": channel.channel_stats()["retries"],
        "conv_hits": sum(m["hits"] for m in memos),
        "conv_misses": sum(m["misses"] for m in memos),
        "skipscan_hits": skip.get("hit", 0) + skip.get("hit-vector", 0),
        "full_parses": deser.stats[DeserKind.FULL],
        "resyncs": service.sessions.merged_counters()["delta_resyncs"],
        "sheds": sum(service.accountant.sheds.values()),
        "admission_rejected": sum(service.admission.rejected.values()),
        "http_rejects": int(sum(v for _, v in rejects.samples())) if rejects else 0,
    }


def count_metrics(total: Dict[str, int], calls: int, service) -> Dict[str, float]:
    """The per-layer metrics that are counts or ratios of counts."""

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    sends = total["sends"]
    return {
        "core.content_share": share(total["content"], sends),
        "core.perfect_share": share(total["perfect"], sends),
        "core.partial_share": share(total["partial"], sends),
        "core.first_time_share": share(total["first_time"], sends),
        "core.plan_hit_share": share(
            total["plan_hits"], total["plan_hits"] + total["plan_misses"]
        ),
        "core.templates_built": total["templates_built"],
        "lexical.conv_hit_share": share(
            total["conv_hits"], total["conv_hits"] + total["conv_misses"]
        ),
        "wire.frame_share": share(total["delta_sends"], sends),
        # A template existed, yet the send went out as full XML.
        "wire.fallback_share": share(
            sends - total["delta_sends"] - total["first_time"], sends
        ),
        "wire.resyncs": total["resyncs"],
        "wire.request_bytes_per_call": share(total["request_bytes"], calls),
        "wire.response_bytes_per_call": share(total["response_bytes"], calls),
        "frontend.rejects": total["http_rejects"],
        "server.skipscan_hit_share": share(total["skipscan_hits"], calls),
        "server.full_parse_share": share(total["full_parses"], calls),
        "sessions.state_bytes": service.accountant.usage_bytes,
        "sessions.sheds": total["sheds"],
        "admission.rejected": total["admission_rejected"],
        "channel.retries": total["retries"],
    }


def path_violations(spec: Workload, counts: Dict[str, float]) -> List[str]:
    """Where the run left the path the workload declares (empty = on it)."""
    wanted = dict(spec.path)
    for name in ("channel.retries", "admission.rejected", "frontend.rejects",
                 "wire.resyncs", "sessions.sheds"):
        wanted[name] = ("==", 0)
    out = []
    for name, (op, want) in wanted.items():
        got = counts[name]
        if not (got == want if op == "==" else got >= want):
            out.append(f"{name} = {got:g}, declared {op} {want:g}")
    return out


def percentile(ordered: List[float], q: float) -> float:
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def speed_kernel_s() -> float:
    """Fastest of three runs of a fixed kernel of plain interpreter work
    (about 0.2 ms each; no code under ``src/``).

    Its floor over a pass says how fast the box ran at best during that
    pass; ``run.py`` scales the pass's CPU time by it (README, "How a run
    is timed").
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        table = {}
        for i in range(4000):
            acc += i * 3 % 7
            table[i & 255] = acc
        best = min(best, time.perf_counter() - t0)
    return best


#: Per-layer times come from the calls of this share of rounds, fastest first.
QUIET_ROUNDS = 0.25


def measure(spec: Workload, stream: Stream, channel: RPCChannel, service,
            tracer: Optional[tracing.Tracer], rounds: int, seconds: float) -> dict:
    """Timed rounds on the warmed connection.

    *seconds* > 0 runs whole rounds until that much time has passed;
    otherwise exactly *rounds* rounds run, so counts repeat exactly.

    A round is a short slice (about 0.15 s, README) and gets one row:
    its calls, wall time, CPU time, median call latency and the speed
    kernel's time just before it.  ``run.py`` turns the rows of a pass
    into the timing metrics.
    """
    total: Counter = Counter()
    per_call: Counter = Counter()
    rows, pooled = [], []
    attempted = failed = 0
    moved_seen = (-1, 0)  # (template id, its cumulative buffer_bytes_moved)
    deadline = time.perf_counter() + seconds if seconds > 0 else None
    round_no = 0
    while (round_no < rounds) if deadline is None else (time.perf_counter() < deadline):
        stream.between_rounds(channel, round_no)
        steps = stream.round_inputs(round_no)
        before = counters(channel, service)
        latencies = []
        kernel = speed_kernel_s()
        if tracer is not None:
            tracer.enabled = True
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for step in steps:
            message, sent = stream.next_message(step)
            token = tracer.begin_call() if tracer is not None else None
            t0 = time.perf_counter()
            try:
                reply = channel.call(message)
            except ReproError:
                reply = None
            latencies.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.end(token)
            if reply is None or not reply_is_correct(spec, reply, sent):
                failed += 1
            elif tracer is not None:
                report = channel.last_send_report
                rewrite = report.rewrite
                per_call["values_rewritten"] += rewrite.values_rewritten
                per_call["expansions"] += rewrite.expansions
                if report.template_id != moved_seen[0]:
                    moved_seen = (report.template_id, 0)
                per_call["bytes_moved"] += report.buffer_bytes_moved - moved_seen[1]
                moved_seen = (report.template_id, report.buffer_bytes_moved)
                per_call["response_leaves"] += channel.last_deser_report.leaves_parsed
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if tracer is not None:
            tracer.enabled = False
        rows.append({
            "calls": len(steps),
            "wall_s": wall,
            "cpu_s": cpu,
            "kernel_s": kernel,
            "p50_ms": statistics.median(latencies) * 1e3,
        })
        after = counters(channel, service)
        total.update({k: after[k] - before[k] for k in after})
        attempted += len(steps)
        pooled += latencies
        round_no += 1

    counts = count_metrics(total, attempted, service)
    pooled.sort()
    result = {
        "attempted": attempted,
        "failed": failed,
        "rounds": rows,
        "violations": path_violations(spec, counts),
        "wire_bytes": total["request_bytes"] + total["response_bytes"],
        "counts": counts,
        "call_p90_ms": percentile(pooled, 0.90) * 1e3,
        "call_p99_ms": percentile(pooled, 0.99) * 1e3,
    }
    if tracer is not None:
        counts.update({
            "core.values_rewritten_per_call": per_call["values_rewritten"] / attempted,
            "core.bytes_moved_per_call": per_call["bytes_moved"] / attempted,
            "core.expansions_per_call": per_call["expansions"] / attempted,
            "server.leaves_parsed_per_call": tracer.counts["server.leaves_parsed"] / attempted,
            "channel.response_leaves_parsed_per_call": per_call["response_leaves"] / attempted,
        })
        fastest = sorted(range(len(rows)), key=lambda i: rows[i]["wall_s"])
        quiet_calls = set()
        for i in fastest[: max(1, int(QUIET_ROUNDS * len(rows)))]:
            # Traced call ids run 1, 2, ... through the rounds in order.
            quiet_calls.update(range(1 + i * spec.calls, 1 + (i + 1) * spec.calls))
        result["layer_times"] = tracing.layer_times(tracer.spans, quiet_calls)
        result["layer_calls"] = len(quiet_calls)
    return result


def main(args) -> int:
    cpu = None if args.unpinned else pin_to_one_cpu()
    spec = BY_NAME[args.workload]
    tracer = tracing.Tracer() if args.child == "traced" else None
    service = build_service(tracer)
    server = make_server(service, spec.server).start()
    uninstall = None
    try:
        stream = make_stream(spec, args.seed)
        channel = open_channel(server.port, spec, tracer)
        try:
            if tracer is not None:
                uninstall = tracing.install(tracer, channel)
            channel.call(stream.message)  # first-time send + delta negotiation
            for step in stream.round_inputs(-1, WARM_CALLS):
                channel.call(stream.next_message(step)[0])
            # Wall-clock since the parent spawned this interpreter, so
            # process start and the imports above are in it.
            result = {"setup_s": time.time() - args.spawned_at, "pinned_cpu": cpu}
            result.update(
                measure(spec, stream, channel, service, tracer, args.rounds, args.seconds)
            )
        finally:
            channel.close()
            if uninstall is not None:
                uninstall()
    finally:
        server.stop()
    if tracer is not None and args.spans:
        Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
        Path(args.spans).write_text(json.dumps(tracing.spans_as_rows(tracer.spans)))
        result["span_file"] = args.spans
        result["spans"] = len(tracer.spans)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0

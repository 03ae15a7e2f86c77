"""Concurrency stress: many clients, all match levels, oracle-checked.

Eight clients (two per match level) hammer one live
:class:`HTTPSoapServer` through :class:`ClientPool` checkouts while a
single-threaded oracle run of the *same* per-client sequences against
a fresh server provides the expected response bytes.  Byte-for-byte
equality proves the per-connection template isolation holds under
contention — a race on either side's template state would corrupt
serialized bytes or force resynchronizations.

The same run doubles as the observability reconciliation check: the
server's ``GET /metrics`` Prometheus counters must agree *exactly*
with the legacy :class:`ClientStats` totals on both sides
(``repro_sends_total{kind}`` vs ``by_kind``), because both are
incremented at the same call sites and the registry never resets —
even across retired server sessions and pooled channels.

Determinism: every workload sequence is seeded from the ``--rng-seed``
pytest option (fixed in CI's default job, randomized in the slow job),
and all synchronization is event-based (barrier + deadline joins); the
test never sleeps.
"""

import socket
import threading
import time

import pytest

from repro.channel import RPCChannel
from repro.core.stats import MatchKind
from repro.obs import Observability
from repro.obs.export import parse_prometheus
from repro.runtime.loadgen import (
    MATCH_LEVELS,
    build_service,
    level_policy,
    message_sequence,
)
from repro.runtime.pool import ClientPool
from repro.schema.registry import TypeRegistry
from repro.server.threaded_server import HTTPSoapServer

pytestmark = pytest.mark.slow

CLIENTS_PER_LEVEL = 2  # x4 levels = 8 concurrent clients
CALLS = 30
N = 48
JOIN_DEADLINE_S = 120.0


def _client_plan(rng_seed: int):
    """(client_id, level, sequence) for every concurrent client."""
    plan = []
    for li, level in enumerate(MATCH_LEVELS):
        for k in range(CLIENTS_PER_LEVEL):
            cid = li * CLIENTS_PER_LEVEL + k
            plan.append(
                (cid, level, message_sequence(level, N, CALLS, seed=rng_seed + cid))
            )
    return plan


def _oracle_bodies(plan):
    """Single-threaded run: each client's sequence on its own connection."""
    bodies = {}
    with HTTPSoapServer(build_service()) as httpd:
        for cid, level, messages in plan:
            with RPCChannel(
                httpd.host,
                httpd.port,
                registry=TypeRegistry(),
                policy=level_policy(level),
            ) as channel:
                bodies[cid] = []
                for message in messages:
                    channel.call(message)
                    bodies[cid].append(channel.last_response_body)
    return bodies


def _join_all(threads):
    """Deadline-based join; a hung worker fails loudly, not downstream."""
    deadline = time.monotonic() + JOIN_DEADLINE_S
    for t in threads:
        t.join(timeout=max(0.0, deadline - time.monotonic()))
    hung = [t.name for t in threads if t.is_alive()]
    assert not hung, f"workers still running after {JOIN_DEADLINE_S}s: {hung}"


def _fetch_metrics(host: str, port: int) -> str:
    """``GET /metrics`` over a raw socket; returns the exposition text."""
    with socket.create_connection((host, port), timeout=10) as conn:
        conn.sendall(
            b"GET /metrics HTTP/1.1\r\nHost: " + host.encode("ascii") + b"\r\n\r\n"
        )
        conn.settimeout(10)
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = conn.recv(1 << 16)
            if not chunk:
                break
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        status = head.split(b"\r\n", 1)[0]
        assert b"200" in status, status
        length = None
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value.strip())
        assert length is not None, head
        while len(body) < length:
            chunk = conn.recv(1 << 16)
            if not chunk:
                break
            body += chunk
    assert len(body) == length, (len(body), length)
    return body.decode("utf-8")


def _kind_counter(parsed, name: str, kind: MatchKind) -> float:
    return parsed.get(f'{name}{{kind="{kind.value}"}}', 0.0)


def test_concurrent_clients_match_single_threaded_oracle(rng_seed):
    plan = _client_plan(rng_seed)
    expected = _oracle_bodies(plan)

    client_obs = Observability.metrics_only()
    with HTTPSoapServer(build_service()) as httpd:
        # One pool per level (policies differ); every client holds its
        # checkout for the whole run, so call k on any client diffs
        # against that channel's call k-1 — exactly like the oracle.
        # All pools share one client-side metrics registry.
        pools = {
            level: ClientPool(
                httpd.host,
                httpd.port,
                CLIENTS_PER_LEVEL,
                registry=TypeRegistry(),
                policy=level_policy(level),
                obs=client_obs,
            )
            for level in MATCH_LEVELS
        }
        got = {}
        client_by_kind = {kind: 0 for kind in MatchKind}
        failures = []
        barrier = threading.Barrier(len(plan))
        lock = threading.Lock()

        def worker(cid, level, messages):
            try:
                with pools[level].channel() as channel:
                    barrier.wait(timeout=30)
                    bodies = []
                    for message in messages:
                        channel.call(message)
                        bodies.append(channel.last_response_body)
                    # Each channel is held by exactly one worker, so
                    # summing per-channel stats here covers every
                    # client-side send exactly once.
                    kinds = dict(channel.client.stats.by_kind)
                with lock:
                    got[cid] = bodies
                    for kind, count in kinds.items():
                        client_by_kind[kind] += count
            except Exception as exc:  # surfaced below, not swallowed
                with lock:
                    failures.append((cid, repr(exc)))

        threads = [
            threading.Thread(
                target=worker, args=spec, name=f"stress-client-{spec[0]}", daemon=True
            )
            for spec in plan
        ]
        for t in threads:
            t.start()
        _join_all(threads)
        stats = {level: pool.stats() for level, pool in pools.items()}
        for pool in pools.values():
            pool.close()
        service_counters = httpd.service.sessions.merged_counters()
        response_stats = httpd.service.response_stats
        metrics_text = _fetch_metrics(httpd.host, httpd.port)

    assert not failures, failures
    assert set(got) == {cid for cid, _, _ in plan}

    # Byte-equivalence: every response identical to the oracle's.
    for cid, level, messages in plan:
        assert len(got[cid]) == len(expected[cid]) == CALLS
        for k, (a, b) in enumerate(zip(got[cid], expected[cid])):
            assert a == b, (
                f"client {cid} ({level}) call {k}: concurrent response "
                f"differs from single-threaded oracle"
            )

    # Zero template corruption: no rollbacks, no forced full resyncs,
    # no retries, no channel replacements anywhere in the run.
    for level, s in stats.items():
        assert s["rollbacks"] == 0, (level, s)
        assert s["forced_full_sends"] == 0, (level, s)
        assert s["retries"] == 0, (level, s)
        assert s["replacements"] == 0, (level, s)
        assert s["breakers_open"] == 0, (level, s)

    assert service_counters["requests_handled"] == len(plan) * CALLS
    assert service_counters["faults_returned"] == 0

    # ------------------------------------------------------------------
    # Observability reconciliation (exact, not approximate)
    # ------------------------------------------------------------------
    parsed = parse_prometheus(metrics_text)

    # Server side: /metrics per-match-level response-send counters ==
    # ClientStats totals merged over every session, live and retired.
    for kind in MatchKind:
        assert _kind_counter(parsed, "repro_sends_total", kind) == (
            response_stats.by_kind[kind]
        ), f"server {kind.value} counter does not reconcile"
    assert (
        sum(
            _kind_counter(parsed, "repro_send_bytes_total", kind)
            for kind in MatchKind
        )
        == response_stats.bytes_sent
    )
    assert parsed["repro_requests_handled_total"] == len(plan) * CALLS
    assert parsed["repro_faults_returned_total"] == 0
    assert (
        parsed["repro_templates_built_total"] == response_stats.templates_built
    )
    assert parsed["repro_rollbacks_total"] == 0
    assert parsed.get("repro_forced_full_sends_total", 0.0) == 0

    # Client side: the registry shared by all four pools agrees with
    # the per-channel ClientStats summed across every worker.
    client_sends = client_obs.metrics.get("repro_sends_total")
    for kind in MatchKind:
        assert client_sends.value(kind=kind.value) == client_by_kind[kind], (
            f"client {kind.value} counter does not reconcile"
        )
    assert sum(client_by_kind.values()) == len(plan) * CALLS
    # Round-trip latency histogram saw every call exactly once.
    assert (
        client_obs.metrics.get("repro_call_latency_seconds").count_of()
        == len(plan) * CALLS
    )

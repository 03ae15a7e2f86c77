"""Every counter has one home: the component that counts it.

Two guards for the design ``docs/observability.md`` ("One home per
counter") describes:

* a source check — no module outside ``repro.obs`` pushes into a
  registry metric (``.inc(...)`` / ``.set(value)``) or keeps its own
  ``_retired*`` accumulator outside the shared
  :class:`~repro.core.stats.MemberTotals`, so the hand-synchronised
  twin of every counter cannot grow back;
* a scrape-under-load run on both front ends — sessions are evicted
  and retired continuously while ``GET /metrics`` is read: every
  ``*_total`` sample only ever grows, the final scrape equals what the
  owning components report, and an evicted session is garbage while its
  counts live on.
"""

from __future__ import annotations

import ast
import dataclasses
import gc
import threading
import weakref
from pathlib import Path

import pytest

from repro.channel import RPCChannel
from repro.core.policy import DeltaPolicy
from repro.core.stats import MatchKind
from repro.hardening.overload import AdmissionController, OverloadPolicy
from repro.obs.export import parse_prometheus
from repro.runtime.loadgen import (
    MATCH_LEVELS,
    build_service,
    level_policy,
    message_sequence,
)
from repro.schema.registry import TypeRegistry
from repro.server.async_server import make_server

from tests.test_async_server import _http_exchange, _wait_until

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


# ----------------------------------------------------------------------
# the push twin cannot grow back
# ----------------------------------------------------------------------
def _violations(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    where = f"{path.name}:{{}}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            # ``Event.set()`` takes nothing; a pushed gauge would take a value.
            pushes = node.func.attr == "inc" or (
                node.func.attr == "set" and (node.args or node.keywords)
            )
            if pushes:
                yield where.format(node.lineno) + f" pushes .{node.func.attr}(...)"
        name = getattr(node, "attr", None) or getattr(node, "id", None)
        if (
            isinstance(name, str)
            and name.startswith("_retired")
            and isinstance(getattr(node, "ctx", None), ast.Store)
        ):
            yield where.format(node.lineno) + f" keeps its own {name}"


def test_no_pushed_counters_or_private_retired_totals_outside_obs():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        if relative.parts[0] == "obs":
            continue
        for violation in _violations(path):
            # The one fold everybody shares.
            if relative.as_posix() == "core/stats.py" and "_retired" in violation:
                continue
            found.append(f"{relative.parent}/{violation}")
    assert not found, "\n".join(found)


def test_the_source_check_sees_what_it_forbids(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "class C:\n"
        "    def f(self):\n"
        "        self._retired_handled = 0\n"
        "        self._counter.inc(kind='x')\n"
        "        self._gauge.set(3)\n"
        "        self._running.set()\n"
    )
    assert len(list(_violations(bad))) == 3


# ----------------------------------------------------------------------
# scrape under load
# ----------------------------------------------------------------------
CLIENTS_PER_LEVEL = 2
CALLS = 30
ARRAY_N = 32


def _scrape(port: int):
    status, _headers, body = _http_exchange(
        port, b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"
    )
    assert status == 200
    return parse_prometheus(body.decode("utf-8"))


def _totals(parsed):
    return {
        key: value
        for key, value in parsed.items()
        if key.partition("{")[0].endswith("_total")
    }


@pytest.mark.parametrize("mode", ["threaded", "async"])
def test_scrape_under_load_is_monotone_and_exact(mode):
    admission = AdmissionController(OverloadPolicy())
    # Eight live connections, room for three sessions: an idle
    # connection's session is evicted between its own calls.
    service = build_service(admission=admission, max_sessions=3)
    plan = [
        (level, k)
        for level in MATCH_LEVELS
        for k in range(CLIENTS_PER_LEVEL)
    ]
    failures = []
    done = threading.Event()
    seen_sessions = []

    with make_server(service, mode) as server:

        def client(level: str, k: int) -> None:
            policy = dataclasses.replace(
                level_policy(level), delta=DeltaPolicy(offer=True)
            )
            try:
                with RPCChannel(
                    "127.0.0.1",
                    server.port,
                    registry=TypeRegistry(),
                    policy=policy,
                ) as channel:
                    for message in message_sequence(level, ARRAY_N, CALLS, seed=k):
                        channel.call(message)
            except Exception as exc:  # surfaced below, not swallowed
                failures.append((level, k, repr(exc)))

        def scraper() -> None:
            previous = {}
            try:
                while not done.is_set():
                    seen_sessions.extend(
                        weakref.ref(s) for s in service.sessions.sessions()
                    )
                    current = _totals(_scrape(server.port))
                    for key, value in previous.items():
                        assert current.get(key, -1) >= value, (
                            f"{key} went {value} -> {current.get(key)}"
                        )
                    previous = current
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(("scraper", 0, repr(exc)))

        threads = [
            threading.Thread(target=client, args=spec, daemon=True)
            for spec in plan
        ]
        watcher = threading.Thread(target=scraper, daemon=True)
        watcher.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
            assert not thread.is_alive()
        done.set()
        watcher.join(timeout=30.0)
        assert not watcher.is_alive()
        assert not failures, failures

        # Quiesce: every connection gone, so every session retired.
        assert _wait_until(lambda: server.open_connections() == 0)
        assert _wait_until(lambda: len(service.sessions) == 0)
        parsed = _scrape(server.port)
        merged = service.sessions.merged_counters()
        responses = service.response_stats
        skipscan = service.deserializer.skipscan_stats

    total_calls = len(plan) * CALLS
    assert merged["evictions"] > 0
    assert merged["requests_handled"] == total_calls

    def sample(name: str, **labels) -> float:
        inner = ",".join(f'{k}="{v}"' for k, v in labels.items())
        return parsed.get(f"{name}{{{inner}}}" if inner else name, 0.0)

    # /metrics == the owners' merged views, all sessions being retired.
    for kind in MatchKind:
        assert sample("repro_sends_total", kind=kind.value) == (
            responses.by_kind[kind]
        )
        assert sample("repro_send_bytes_total", kind=kind.value) == (
            responses.bytes_by_kind[kind]
        )
    assert sample("repro_bytes_sent_total") == responses.bytes_sent
    assert sample("repro_templates_built_total") == responses.templates_built
    assert sample("repro_values_rewritten_total") == (
        responses.rewrite.values_rewritten
    )
    assert sample("repro_requests_handled_total") == merged["requests_handled"]
    assert sample("repro_faults_returned_total") == merged["faults_returned"] == 0
    assert sample("repro_bytes_received_total") == merged["bytes_received"]
    assert sample("repro_delta_frames_total", outcome="applied") == (
        merged["delta_frames_applied"]
    )
    resyncs = sum(
        value
        for key, value in parsed.items()
        if key.startswith('repro_delta_frames_total{outcome="resync-')
    )
    assert resyncs == merged["delta_resyncs"] > 0  # evictions drop mirrors
    assert sample("repro_delta_bytes_saved_total") == merged["delta_bytes_saved"]
    assert skipscan and sum(service.deserializer.stats.values()) == total_calls
    for event, count in skipscan.items():
        assert sample("repro_skipscan_events_total", event=event) == count
    assert sample("repro_admission_total", outcome="admitted") == (
        admission.admitted
    )
    for gate, count in admission.rejected.items():
        assert sample("repro_admission_total", outcome=f"rejected-{gate}") == count
    for tier, count in service.accountant.sheds.items():
        assert sample("repro_overload_events_total", tier=tier) == count
    assert sample("repro_state_bytes", component="deser") == 0

    # The evicted sessions are garbage; their counts are not.
    assert len(seen_sessions) > 3
    gc.collect()
    assert all(ref() is None for ref in seen_sessions)

"""The chaos soak: a real server, a real fleet, a seeded fault diet.

One :func:`run_chaos` drives a live
:class:`~repro.server.threaded_server.HTTPSoapServer` (admission control on,
delta + skip-scan enabled, a deliberately small state budget) with a
fleet of :class:`~repro.channel.RPCChannel` workers pinned across all
four match levels, while a coordinator injects the fault schedule from
:mod:`repro.chaos.faults` phase by phase:

``baseline → network → session-kill → pressure → recovery``

After each phase the fleet quiesces and the invariants are checked:

* **correctness** — every completed call returned the exact checksum
  of the array it sent; failures are only the *allowed* kinds (503
  with Retry-After, 408, connection resets, resyncs that outlived the
  retry budget).  A wrong answer is a violation, no matter the chaos.
* **accounting** — the server must have handled at least as many
  requests as clients saw succeed.  (``/metrics`` reads the same
  attributes ``merged_counters`` does, so comparing the two would
  compare a number with itself.)
* **no poisoned state** — a pristine probe channel gets a correct
  answer after every phase (all four levels in the final phase).
* **memory** — once idle, accounted state is back under the budget.
* **degradation → recovery** — by the end of the soak every shed tier
  (mirror, seek table, session) has fired at least once, and calls
  kept succeeding afterwards (the recovery phase is all-green).

Everything derives from one seed; see ``python -m repro.chaos --help``.
"""

from __future__ import annotations

import dataclasses
import math
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.baselines.naive import NaiveClient
from repro.chaos.faults import (
    ghost_announce,
    inject_partial_write,
    inject_slowloris,
    inject_stall,
    kill_one_session,
)
from repro.core.policy import DeltaPolicy
from repro.errors import (
    DeltaResyncError,
    HTTPStatusError,
    SOAPFaultError,
    TransportError,
)
from repro.hardening.limits import ResourceLimits
from repro.hardening.overload import SHED_TIERS, AdmissionController, OverloadPolicy
from repro.resilience.budget import RetryBudget
from repro.resilience.retry import RetryPolicy
from repro.runtime.loadgen import (
    MATCH_LEVELS,
    build_service,
    level_policy,
    message_sequence,
)
from repro.channel import RPCChannel
from repro.transport.loopback import CollectSink

__all__ = ["ChaosConfig", "PhaseReport", "ChaosReport", "run_chaos", "PHASES"]

#: Phase order; each phase's fault diet is documented in the module
#: docstring and implemented in :func:`_run_phase`.
PHASES = ("baseline", "network", "session-kill", "pressure", "recovery")

#: HTTP statuses a client may legitimately see under chaos (everything
#: else surfacing from a call is a violation).
_ALLOWED_STATUSES = frozenset({408, 409, 503})


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs for one soak (defaults = the CI acceptance run)."""

    seed: int = 12345
    #: Worker channels; spread round-robin across the four match levels.
    clients: int = 8
    #: Calls per worker per phase (5 phases × clients × this = total).
    calls_per_phase: int = 26
    #: Doubles per worker request array.
    array_n: int = 64
    #: Per-call service time on the server (ms).
    delay_ms: float = 0.0
    #: State budget — small on purpose, so the pressure phase can blow
    #: it with a handful of ghost announces.
    budget_bytes: int = 384 * 1024
    #: Ghost announce documents per pressure pulse and their array
    #: size; sized so ghost deserializer+response state alone exceeds
    #: the budget (forcing the ladder past mirrors and seek tables
    #: into whole-session sheds).
    ghost_docs: int = 16
    ghost_n: int = 768
    #: Server read deadline (slow-loris must resolve quickly).
    read_deadline: float = 0.9
    #: Admission gates — tight enough that the fleet sees real 503s.
    max_concurrent_requests: int = 4
    max_queue_depth: int = 4
    queue_timeout: float = 0.1
    #: Client retry ceiling (Retry-After hints clamp to this).
    client_max_delay: float = 0.3
    #: Front end under test: ``"threaded"`` (thread per connection) or
    #: ``"async"`` (the event-loop server) — the whole fault diet must
    #: resolve identically on both.
    server: str = "threaded"

    def total_calls(self) -> int:
        return len(PHASES) * self.clients * self.calls_per_phase


@dataclass
class PhaseReport:
    """Outcome of one phase, fleet-wide."""

    name: str
    calls_ok: int = 0
    errors: Dict[str, int] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    duration_s: float = 0.0
    sheds: Dict[str, int] = field(default_factory=dict)

    def summary(self) -> str:
        err = sum(self.errors.values())
        shed = (
            " sheds=" + ",".join(f"{t}:{n}" for t, n in self.sheds.items())
            if self.sheds
            else ""
        )
        return (
            f"phase {self.name:12s} ok={self.calls_ok:4d} "
            f"allowed-errors={err:3d} violations={len(self.violations)}"
            f"{shed} ({self.duration_s:.1f}s)"
        )


@dataclass
class ChaosReport:
    """Whole-soak outcome: per-phase reports + final counters."""

    seed: int
    phases: List[PhaseReport] = field(default_factory=list)
    counters: Dict[str, object] = field(default_factory=dict)

    @property
    def violations(self) -> List[str]:
        return [v for p in self.phases for v in p.violations]

    @property
    def calls_ok(self) -> int:
        return sum(p.calls_ok for p in self.phases)

    def summary(self) -> str:
        lines = [f"chaos seed {self.seed}: {self.calls_ok} calls ok"]
        lines += [p.summary() for p in self.phases]
        sheds = {
            t: self.counters.get(f"sheds_{t}", 0) for t in SHED_TIERS
        }
        lines.append(
            "tiers exercised: "
            + ", ".join(f"{t}={n}" for t, n in sheds.items())
        )
        return "\n".join(lines)


class _Worker:
    """One fleet member: a channel pinned to a match level."""

    def __init__(
        self,
        index: int,
        config: ChaosConfig,
        host: str,
        port: int,
        retry_budget: RetryBudget,
    ) -> None:
        self.index = index
        self.level = MATCH_LEVELS[index % len(MATCH_LEVELS)]
        self.config = config
        self.rng = random.Random(config.seed * 7919 + index)
        policy = level_policy(self.level)
        if index % 2 == 0:
            # Half the fleet negotiates binary delta frames, so mirror
            # sheds and 409 resyncs happen against real traffic.
            policy = dataclasses.replace(policy, delta=DeltaPolicy(offer=True))
        self.channel = RPCChannel(
            host,
            port,
            policy=policy,
            retry=RetryPolicy(
                max_attempts=4,
                base_delay=0.01,
                max_delay=config.client_max_delay,
                seed=config.seed + index,
            ),
            budget=retry_budget,
        )
        self._seq = 0

    def run_phase(self, phase: str, report: PhaseReport, lock: threading.Lock) -> None:
        config = self.config
        messages = message_sequence(
            self.level,
            config.array_n,
            config.calls_per_phase,
            seed=config.seed + self.index * 1000 + self._seq,
        )
        self._seq += 1
        ok = 0
        errors: Dict[str, int] = {}
        violations: List[str] = []
        for message in messages:
            if phase == "network" and self.rng.random() < 0.10:
                # Client-side connection drop: redial + quarantine.
                self.channel._raw.disconnect()
            expected = float(np.sum(message.params[0].value))
            try:
                response = self.channel.call(message)
            except SOAPFaultError as exc:
                violations.append(
                    f"[{phase}] worker {self.index} ({self.level}): "
                    f"server faulted on valid input: {exc}"
                )
                continue
            except HTTPStatusError as exc:
                if exc.status in _ALLOWED_STATUSES:
                    key = f"http-{exc.status}"
                    errors[key] = errors.get(key, 0) + 1
                else:
                    violations.append(
                        f"[{phase}] worker {self.index}: unexpected "
                        f"status {exc.status}"
                    )
                continue
            except (DeltaResyncError, TransportError) as exc:
                key = type(exc).__name__
                errors[key] = errors.get(key, 0) + 1
                continue
            except Exception as exc:  # noqa: BLE001 - the invariant
                violations.append(
                    f"[{phase}] worker {self.index}: {type(exc).__name__}: {exc}"
                )
                continue
            got = response.values.get("return")
            if not isinstance(got, float) or not math.isclose(
                got, expected, rel_tol=1e-9, abs_tol=1e-6
            ):
                violations.append(
                    f"[{phase}] worker {self.index} ({self.level}): "
                    f"checksum {got!r} != expected {expected!r}"
                )
                continue
            ok += 1
        with lock:
            report.calls_ok += ok
            for key, count in errors.items():
                report.errors[key] = report.errors.get(key, 0) + count
            report.violations.extend(violations)

    def close(self) -> None:
        try:
            self.channel.close()
        except Exception:  # noqa: BLE001 - teardown best-effort
            pass


def _ghost_body(config: ChaosConfig) -> bytes:
    """A valid full-XML checksum request sized for pressure pulses."""
    sink = CollectSink()
    client = NaiveClient(sink)
    message = message_sequence("content", config.ghost_n, 1, seed=config.seed)[0]
    client.send(message)
    return sink.last


def _probe(host: str, port: int, config: ChaosConfig, levels) -> List[str]:
    """Pristine-channel probes: correct answers or the state is poisoned."""
    problems: List[str] = []
    for level in levels:
        message = message_sequence(level, 16, 1, seed=config.seed + 99)[0]
        expected = float(np.sum(message.params[0].value))
        try:
            channel = RPCChannel(
                host,
                port,
                policy=level_policy(level),
                retry=RetryPolicy(
                    max_attempts=6,
                    base_delay=0.02,
                    max_delay=config.client_max_delay,
                    seed=config.seed,
                ),
            )
        except TransportError as exc:
            problems.append(f"probe({level}): cannot connect: {exc}")
            continue
        try:
            response = channel.call(message)
            got = response.values.get("return")
            if not isinstance(got, float) or not math.isclose(
                got, expected, rel_tol=1e-9, abs_tol=1e-6
            ):
                problems.append(
                    f"probe({level}): checksum {got!r} != {expected!r}"
                )
        except Exception as exc:  # noqa: BLE001 - probes must succeed
            problems.append(f"probe({level}): {type(exc).__name__}: {exc}")
        finally:
            channel.close()
    return problems


def _check_invariants(
    phase: str,
    report: PhaseReport,
    service,
    host: str,
    port: int,
    config: ChaosConfig,
    fleet_ok_total: int,
) -> None:
    """Post-quiesce invariants (see module docstring)."""
    # Memory: after an explicit relief pass over an idle registry,
    # accounted state must fit the budget.
    service.sessions.relieve_pressure()
    accountant = service.accountant
    usage = accountant.usage_bytes
    if usage > accountant.budget_bytes:
        report.violations.append(
            f"[{phase}] state {usage}B over budget "
            f"{accountant.budget_bytes}B after idle relief"
        )

    # The server cannot have answered fewer requests than clients saw
    # succeed (lost responses make it strictly greater, never less).
    handled = service.sessions.merged_counters()["requests_handled"]
    if handled < fleet_ok_total:
        report.violations.append(
            f"[{phase}] server handled {handled} < "
            f"{fleet_ok_total} client-observed successes"
        )

    # Poisoned-state probe: every phase gets a content probe, the
    # final phase all four levels.
    levels = MATCH_LEVELS if phase == PHASES[-1] else ("content",)
    report.violations.extend(
        f"[{phase}] {p}" for p in _probe(host, port, config, levels)
    )
    report.sheds = {
        t: int(accountant.sheds.get(t, 0)) for t in SHED_TIERS
    }


def run_chaos(config: Optional[ChaosConfig] = None) -> ChaosReport:
    """Run the full soak; see the module docstring for the contract."""
    config = config or ChaosConfig()
    limits = ResourceLimits(
        max_state_bytes=config.budget_bytes,
        read_deadline=config.read_deadline,
    )
    admission = AdmissionController(
        OverloadPolicy(
            max_concurrent_requests=config.max_concurrent_requests,
            max_queue_depth=config.max_queue_depth,
            queue_timeout=config.queue_timeout,
        )
    )
    service = build_service(
        config.delay_ms, limits=limits, admission=admission
    )
    from repro.server.async_server import make_server

    server = make_server(service, server=config.server).start()
    report = ChaosReport(seed=config.seed)
    coordinator_rng = random.Random(config.seed)
    retry_budget = RetryBudget(deposit_per_success=0.2, capacity=30.0)
    ghost_body = _ghost_body(config)
    workers: List[_Worker] = []
    try:
        workers = [
            _Worker(i, config, server.host, server.port, retry_budget)
            for i in range(config.clients)
        ]
        fleet_ok = 0
        for phase in PHASES:
            phase_report = PhaseReport(name=phase)
            started = time.monotonic()
            _run_phase(
                phase,
                phase_report,
                workers,
                service,
                server,
                config,
                coordinator_rng,
                ghost_body,
            )
            phase_report.duration_s = time.monotonic() - started
            fleet_ok += phase_report.calls_ok
            _check_invariants(
                phase,
                phase_report,
                service,
                server.host,
                server.port,
                config,
                fleet_ok,
            )
            report.phases.append(phase_report)
        # Degradation → recovery: the soak must have pushed every tier
        # at least once, and the recovery phase proves service after.
        final = report.phases[-1]
        for tier in SHED_TIERS:
            if service.accountant.sheds.get(tier, 0) < 1:
                final.violations.append(
                    f"[recovery] shed tier {tier!r} never exercised"
                )
        report.counters = {
            **service.sessions.merged_counters(),
            **admission.counters(),
            **retry_budget.counters(),
        }
    finally:
        for worker in workers:
            worker.close()
        server.stop()
    return report


def _run_phase(
    phase: str,
    report: PhaseReport,
    workers: List[_Worker],
    service,
    server,  # HTTPSoapServer | AsyncHTTPSoapServer
    config: ChaosConfig,
    rng: random.Random,
    ghost_body: bytes,
) -> None:
    """Run the fleet for one phase with its fault diet active."""
    lock = threading.Lock()
    threads = [
        threading.Thread(
            target=worker.run_phase,
            args=(phase, report, lock),
            name=f"chaos-w{worker.index}",
            daemon=True,
        )
        for worker in workers
    ]
    for thread in threads:
        thread.start()

    if phase == "network":
        # Interleave socket abuse with live traffic.
        for kind in ("slowloris", "partial-write", "stall", "partial-write"):
            if kind == "slowloris":
                inject_slowloris(
                    server.host,
                    server.port,
                    read_deadline=config.read_deadline,
                    rng=rng,
                )
            elif kind == "partial-write":
                inject_partial_write(server.host, server.port, rng=rng)
            else:
                inject_stall(server.host, server.port)
    elif phase == "session-kill":
        deadline = time.monotonic() + 10.0
        kills = 0
        while any(t.is_alive() for t in threads):
            if time.monotonic() > deadline:
                break
            if kill_one_session(service, rng) is not None:
                kills += 1
            time.sleep(0.005)
        report.errors["sessions-killed"] = kills
    elif phase == "pressure":
        # Two pulses: mid-traffic and once more near the end, so sheds
        # race live requests and idle relief both.
        for pulse in range(2):
            for j in range(config.ghost_docs):
                status = ghost_announce(
                    service,
                    ghost_body,
                    session_id=f"ghost-{pulse}-{j}",
                    template_id=j,
                )
                if status != 200:
                    report.violations.append(
                        f"[pressure] ghost announce answered {status}"
                    )
            time.sleep(0.05)

    for thread in threads:
        thread.join(timeout=120.0)
        if thread.is_alive():
            report.violations.append(
                f"[{phase}] worker thread {thread.name} hung"
            )

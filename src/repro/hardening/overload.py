"""Overload control: admission gates + a memory budget with tiered relief.

PRs 6–8 multiplied the per-session state a server keeps to make
steady-state traffic cheap — response templates, delta mirrors,
compiled seek tables — without a global budget or an overload story.
This module adds the robustness layer that makes saturation survivable
instead of fatal:

* :class:`AdmissionController` sits in front of request handling and
  **rejects early** (HTTP ``503`` + ``Retry-After``) instead of
  queuing unboundedly.  Three gates, each cheap and independently
  configurable through :class:`OverloadPolicy`:

  - *concurrency* — at most ``max_concurrent_requests`` in flight;
  - *queue depth* — at most ``max_queue_depth`` callers waiting for a
    slot, each for at most ``queue_timeout`` seconds;
  - *rate* — a token bucket (``rate_per_sec`` refill, ``burst``
    capacity) smoothing arrival spikes.

* :class:`MemoryAccountant` is the ledger every piece of per-session
  state is charged against — deserializer templates, seek tables,
  delta mirrors, response templates — with one global byte budget
  (``ResourceLimits.max_state_bytes``).  When usage crosses the
  budget, :meth:`ServerSessionManager.relieve_pressure
  <repro.runtime.sessions.ServerSessionManager.relieve_pressure>`
  sheds state **in order of cheapest recovery**:

  1. ``mirror`` — delta mirrors (client recovers via the existing
     409-resync → full-XML re-announce);
  2. ``seektable`` — compiled seek tables (the next changed request
     costs one full parse, which compiles again);
  3. ``session`` — LRU idle sessions (the client falls back to a
     first-time send).

  Every shed counts in ``repro_overload_events_total{tier}`` and emits
  an ``overload`` span; nothing in the ladder can lose a request, only
  speed.  Relief stops at the low watermark
  (``shed_target_fraction`` × budget) to avoid shed/refill thrash.

The admission gates are optional and off by default; the accountant
is always on in a :class:`~repro.server.service.SOAPService` (its
relief ladder only engages past the budget).  ``docs/overload.md``
walks the whole recovery ladder; the chaos harness
(:mod:`repro.chaos`) proves it under deterministic fault schedules.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.errors import AdmissionRejectedError
from repro.obs import NULL_OBS, Observability

__all__ = [
    "OverloadPolicy",
    "AdmissionController",
    "MemoryAccountant",
    "SHED_TIERS",
    "STATE_COMPONENTS",
]

#: Pressure-relief tiers in shed order (cheapest client recovery
#: first).  ``over-budget`` is the extra metric label used when every
#: tier is exhausted and usage still exceeds the budget.
SHED_TIERS = ("mirror", "seektable", "session")

#: Ledger components a session's state is split into (also the
#: ``component`` label on the ``repro_state_bytes`` gauge).
STATE_COMPONENTS = ("deser", "seektable", "mirror", "response")


@dataclass(frozen=True)
class OverloadPolicy:
    """Knobs for :class:`AdmissionController` (see module docstring).

    The defaults are sized for the threaded
    :class:`~repro.server.threaded_server.HTTPSoapServer`: admit roughly as
    many concurrent requests as it has worker threads, keep a short
    bounded queue, and let the rate gate stay effectively open unless
    configured down.
    """

    #: Requests executing at once before new ones queue.
    max_concurrent_requests: int = 64
    #: Callers allowed to wait for a concurrency slot; beyond this the
    #: request is rejected immediately.
    max_queue_depth: int = 64
    #: Longest a queued caller waits for a slot before a 503.
    queue_timeout: float = 0.5
    #: Token-bucket refill rate (requests/second).
    rate_per_sec: float = 10_000.0
    #: Token-bucket capacity (burst tolerance).
    burst: float = 10_000.0
    #: Floor for the ``Retry-After`` hint (seconds; HTTP delta-seconds
    #: are integral, so hints round up to at least this).
    retry_after_min: int = 1
    #: Ceiling for the ``Retry-After`` hint.
    retry_after_max: int = 30
    #: Relief sheds until usage ≤ this fraction of the byte budget
    #: (the low watermark; 1.0 would shed exactly to the budget and
    #: thrash on the very next allocation).
    shed_target_fraction: float = 0.8

    def __post_init__(self) -> None:
        if self.max_concurrent_requests < 1:
            raise ValueError("max_concurrent_requests must be >= 1")
        if self.max_queue_depth < 0:
            raise ValueError("max_queue_depth must be >= 0")
        if self.queue_timeout < 0:
            raise ValueError("queue_timeout must be >= 0")
        if self.rate_per_sec <= 0 or self.burst <= 0:
            raise ValueError("rate_per_sec and burst must be positive")
        if not (1 <= self.retry_after_min <= self.retry_after_max):
            raise ValueError("need 1 <= retry_after_min <= retry_after_max")
        if not (0.0 < self.shed_target_fraction <= 1.0):
            raise ValueError("shed_target_fraction must be in (0, 1]")


class AdmissionController:
    """Concurrency + queue-depth + token-bucket admission gates.

    Usage::

        controller = AdmissionController(OverloadPolicy(...))
        try:
            with controller.admit():
                ...handle the request...
        except AdmissionRejectedError as exc:
            ...answer 503 with Retry-After: exc.retry_after...

    Thread-safe; one instance fronts one service.  ``clock`` is
    injectable so the token bucket and queue timeout are testable
    without sleeping.
    """

    def __init__(
        self,
        policy: Optional[OverloadPolicy] = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = policy if policy is not None else OverloadPolicy()
        self._clock = clock
        self._cond = threading.Condition()
        self._in_flight = 0
        self._queued = 0
        self._tokens = float(self.policy.burst)
        self._refilled_at = clock()
        #: Decision counters, written under ``_cond``; the service this
        #: controller fronts serves them as
        #: ``repro_admission_total{outcome}``.
        self.admitted = 0
        self.rejected: Dict[str, int] = {
            "concurrency": 0,
            "queue": 0,
            "rate": 0,
        }

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        with self._cond:
            return self._in_flight

    @property
    def queued(self) -> int:
        with self._cond:
            return self._queued

    def _refill_locked(self, now: float) -> None:
        elapsed = now - self._refilled_at
        if elapsed > 0:
            self._tokens = min(
                float(self.policy.burst),
                self._tokens + elapsed * self.policy.rate_per_sec,
            )
            self._refilled_at = now

    def _hint(self, seconds: float) -> int:
        """Clamp a backoff suggestion into the Retry-After bounds."""
        return max(
            self.policy.retry_after_min,
            min(self.policy.retry_after_max, int(math.ceil(seconds))),
        )

    def _reject(self, gate: str, hint_s: float) -> AdmissionRejectedError:
        self.rejected[gate] += 1
        retry_after = self._hint(hint_s)
        return AdmissionRejectedError(
            f"admission rejected at the {gate} gate", gate, retry_after
        )

    def try_admit(self) -> None:
        """Pass the gates or raise :class:`AdmissionRejectedError`.

        Callers must pair success with :meth:`release` — or use the
        :meth:`admit` context manager, which does.
        """
        policy = self.policy
        with self._cond:
            now = self._clock()
            self._refill_locked(now)
            if self._tokens < 1.0:
                # Refill time until a whole token exists.
                deficit = (1.0 - self._tokens) / policy.rate_per_sec
                raise self._reject("rate", deficit)
            if self._in_flight >= policy.max_concurrent_requests:
                if self._queued >= policy.max_queue_depth:
                    raise self._reject("queue", policy.queue_timeout)
                self._queued += 1
                deadline = now + policy.queue_timeout
                try:
                    while self._in_flight >= policy.max_concurrent_requests:
                        remaining = deadline - self._clock()
                        if remaining <= 0 or not self._cond.wait(remaining):
                            raise self._reject(
                                "concurrency", policy.queue_timeout
                            )
                finally:
                    self._queued -= 1
            self._tokens -= 1.0
            self._in_flight += 1
            self.admitted += 1

    def release(self) -> None:
        with self._cond:
            self._in_flight = max(0, self._in_flight - 1)
            self._cond.notify()

    def admit(self) -> "_AdmissionTicket":
        """Context-manager form of :meth:`try_admit` / :meth:`release`."""
        self.try_admit()
        return _AdmissionTicket(self)

    # ------------------------------------------------------------------
    def metric_samples(self) -> Dict[tuple, int]:
        """``repro_admission_total{outcome}`` samples."""
        samples = {("repro_admission_total", "admitted"): self.admitted}
        for gate, count in self.rejected.items():
            samples["repro_admission_total", f"rejected-{gate}"] = count
        return samples

    def counters(self) -> Dict[str, int]:
        with self._cond:
            out: Dict[str, int] = {"admitted": self.admitted}
            for gate, count in self.rejected.items():
                out[f"rejected_{gate}"] = count
            out["in_flight"] = self._in_flight
            out["queued"] = self._queued
            return out


class _AdmissionTicket:
    """Releases one admitted slot on exit (see ``admit()``)."""

    __slots__ = ("_controller",)

    def __init__(self, controller: AdmissionController) -> None:
        self._controller = controller

    def __enter__(self) -> "_AdmissionTicket":
        return self

    def __exit__(self, *exc) -> None:
        self._controller.release()


class MemoryAccountant:
    """Byte ledger for per-session server state, split by component.

    Holders (the session manager) push **deltas** through
    :meth:`charge` as state is created, resized, shed, or retired, so
    reading usage is O(1) — no walk over sessions on the hot path.
    The accountant is pure bookkeeping plus policy arithmetic; the
    shedding itself lives with the state's owner
    (:meth:`~repro.runtime.sessions.ServerSessionManager.relieve_pressure`),
    which knows locking and recovery semantics.

    Handed an ``obs`` with a registry, the ledger serves
    ``repro_state_bytes{component}`` and
    ``repro_overload_events_total{tier}`` from its own fields at scrape
    time, so ``GET /metrics`` shows what ``merged_counters`` does.
    """

    def __init__(
        self,
        budget_bytes: int,
        *,
        shed_target_fraction: float = 0.8,
        obs: Optional[Observability] = None,
    ) -> None:
        if budget_bytes < 1:
            raise ValueError("budget_bytes must be >= 1")
        if not (0.0 < shed_target_fraction <= 1.0):
            raise ValueError("shed_target_fraction must be in (0, 1]")
        self.budget_bytes = budget_bytes
        self.shed_target_fraction = shed_target_fraction
        self.obs = obs if obs is not None else NULL_OBS
        self._lock = threading.Lock()
        self._by_component: Dict[str, int] = {c: 0 for c in STATE_COMPONENTS}
        #: Running total of ``_by_component`` — maintained on every
        #: charge so :attr:`usage_bytes` is a read, not a sum.  At C10K
        #: scale the shed ladder probes usage thousands of times per
        #: relief pass; re-summing per probe was the hot path.
        self._usage = 0
        #: High-water mark of total usage (post-charge, pre-relief).
        self.peak_bytes = 0
        #: Sheds performed against this ledger, by tier (the owner
        #: reports them through :meth:`note_shed`).
        self.sheds: Dict[str, int] = {t: 0 for t in SHED_TIERS}
        self.over_budget_ticks = 0
        if self.obs.metrics is not None:
            self.obs.metrics.watch(self)
            self.obs.metrics.gauge("repro_state_bytes").bind(
                lambda: {(c,): n for c, n in self.usage_by_component().items()}
            )

    def metric_samples(self) -> Dict[tuple, int]:
        """``repro_overload_events_total{tier}`` samples."""
        samples = {
            ("repro_overload_events_total", tier): count
            for tier, count in self.sheds.copy().items()
        }
        samples["repro_overload_events_total", "over-budget"] = self.over_budget_ticks
        return samples

    # ------------------------------------------------------------------
    def charge(self, component: str, delta: int) -> None:
        """Add *delta* bytes (may be negative) to *component*."""
        if delta == 0:
            return
        with self._lock:
            old = self._by_component.get(component, 0)
            new_total = max(0, old + delta)
            self._by_component[component] = new_total
            self._usage += new_total - old
            if self._usage > self.peak_bytes:
                self.peak_bytes = self._usage

    @property
    def usage_bytes(self) -> int:
        with self._lock:
            return self._usage

    def usage_by_component(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._by_component)

    @property
    def over_budget(self) -> bool:
        return self.usage_bytes > self.budget_bytes

    @property
    def shed_target_bytes(self) -> int:
        """The low watermark relief sheds down to."""
        return int(self.budget_bytes * self.shed_target_fraction)

    def relief_needed(self) -> int:
        """Bytes to free to reach the low watermark (0 when under)."""
        usage = self.usage_bytes
        if usage <= self.budget_bytes:
            return 0
        return usage - self.shed_target_bytes

    # ------------------------------------------------------------------
    def note_shed(self, tier: str) -> None:
        """Record one shed at *tier* (counter + span)."""
        with self._lock:
            self.sheds[tier] = self.sheds.get(tier, 0) + 1
        self.obs.record_overload(tier)

    def note_over_budget(self) -> None:
        """Everything sheddable is gone and usage still exceeds the
        budget (all remaining state belongs to busy/pinned sessions)."""
        with self._lock:
            self.over_budget_ticks += 1
        self.obs.record_overload("over-budget")

    def counters(self) -> Dict[str, int]:
        with self._lock:
            out: Dict[str, int] = {
                "state_bytes": sum(self._by_component.values()),
                "state_budget_bytes": self.budget_bytes,
                "state_peak_bytes": self.peak_bytes,
                "over_budget_ticks": self.over_budget_ticks,
            }
            for component, nbytes in self._by_component.items():
                out[f"state_{component}_bytes"] = nbytes
            for tier, count in self.sheds.items():
                out[f"sheds_{tier}"] = count
            return out

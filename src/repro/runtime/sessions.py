"""Per-connection server sessions for differential deserialization.

The paper's server-side template matching (§6) is stateful: the
document a message is compared with must be the *previous message of
the same sender for the same template*, or the byte comparison degrades
to a full parse on every request.  A server with one shared
:class:`DifferentialDeserializer` under a thread-per-connection front
end has two problems at once:

* **correctness** — two connection threads interleaving
  ``deserialize()`` calls race on the stored documents and the parse
  results they both mutate in place;
* **performance** — even with a lock, interleaved streams from
  different clients never match each other, so the differential path
  is always missed.

A :class:`ServerSessionManager` fixes both by giving every accepted
connection its own :class:`ServerSession` — a private deserializer and
its document store (one entry per template, request direction),
response-template serializer, and counters — behind a registry with a
lock and LRU eviction.  The store-per-connection invariant this
enforces is the server-side mirror of the client pool's
template-per-channel invariant (see ``docs/runtime.md``).
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict
from typing import Callable, Dict, Hashable, Iterator, List, Optional

from repro.core.client import BSoapClient
from repro.core.policy import DiffPolicy
from repro.core.stats import ClientStats, MemberTotals
from repro.hardening.limits import ResourceLimits
from repro.hardening.overload import SHED_TIERS, MemoryAccountant
from repro.obs import NULL_OBS, Observability
from repro.schema.registry import TypeRegistry
from repro.server.diffdeser import DeserKind, DifferentialDeserializer
from repro.transport.loopback import LatestSink

__all__ = ["ServerSession", "ServerSessionManager", "DeserializerView"]

#: Key of the implicit session used when callers pass no session id
#: (direct ``SOAPService.handle(body)`` calls, single-client tests).
DEFAULT_SESSION = "__default__"


class ServerSession:
    """One connection's private deserializer/serializer state.

    Attributes
    ----------
    deserializer / delta:
        This session's request-side differential deserializer and the
        document store whose entries it decodes
        (:class:`~repro.wire.server.DeltaSession`): one entry per
        template id the client announced, per operation it sent as
        plain XML.
    responder / sink:
        The response-side bSOAP serializer and the sink holding the
        last serialized response.  Response templates are per session,
        so concurrent connections cannot corrupt each other's saved
        response bytes.  When *response_policy* offers delta the
        responder carries the same
        :class:`~repro.wire.client.DeltaEncoder` a client does and the
        sink may hold a reply frame (``docs/wire_protocol.md``, "Reply
        direction").
    lock:
        Serializes request handling within the session.  A connection
        is served by one thread, so this is normally uncontended; it
        exists so direct ``handle()`` callers sharing a session id
        stay safe.
    """

    __slots__ = (
        "key",
        "deserializer",
        "sink",
        "responder",
        "lock",
        "requests_handled",
        "faults_returned",
        "rejected",
        "bytes_received",
        "bytes_sent",
        "delta",
        "pinned",
        "in_use",
        "accounted",
        "accounted_key",
        "__weakref__",
    )

    def __init__(
        self,
        key: Hashable,
        registry: Optional[TypeRegistry],
        response_policy: Optional[DiffPolicy],
        *,
        pinned: bool = False,
        obs: Optional[Observability] = None,
        limits: Optional[ResourceLimits] = None,
        descriptors: Optional[Dict[str, type]] = None,
    ) -> None:
        self.key = key
        self.deserializer = DifferentialDeserializer(
            registry,
            limits,
            descriptors=descriptors,
            obs=obs,
        )
        self.sink = LatestSink()
        self.responder = BSoapClient(self.sink, response_policy, obs=obs)
        if self.responder.wire is not None:
            self.responder.wire.metric_prefix = "reply-"
        self.lock = threading.Lock()
        self.requests_handled = 0
        self.faults_returned = 0
        #: Requests faulted before dispatch, by reason (a resource
        #: limit's name or the exception class).
        self.rejected: Dict[str, int] = {}
        #: Request/response payload bytes seen by this session (the
        #: server-side half of the tx/rx accounting).
        self.bytes_received = 0
        self.bytes_sent = 0
        self.delta = self.deserializer.store
        #: Pinned sessions (the default one) are never LRU-evicted.
        self.pinned = pinned
        #: Number of threads currently between acquire() and release();
        #: guarded by the manager's registry lock.
        self.in_use = 0
        #: Per-component bytes last charged against the manager's
        #: :class:`~repro.hardening.overload.MemoryAccountant`; the
        #: manager's ``note_usage`` keeps it in sync after requests.
        self.accounted: Dict[str, int] = {}
        #: :meth:`size_key` when :attr:`accounted` was last measured.
        self.accounted_key: Optional[tuple] = None
        if obs is not None:
            obs.watch(self)

    def metric_samples(self) -> Dict[tuple, int]:
        """Request counters (responder and deserializer serve theirs)."""
        samples = {
            ("repro_requests_handled_total",): self.requests_handled,
            ("repro_faults_returned_total",): self.faults_returned,
            ("repro_bytes_received_total",): self.bytes_received,
            ("repro_delta_bytes_saved_total",): self.delta.bytes_saved,
        }
        for reason, count in self.rejected.copy().items():
            samples["repro_requests_rejected_total", reason] = count
        for outcome, count in self.delta.outcomes.copy().items():
            samples["repro_delta_frames_total", outcome] = count
        return samples

    # ------------------------------------------------------------------
    def state_components(self) -> Dict[str, int]:
        """Current state bytes split by ledger component.

        Keys match :data:`~repro.hardening.overload.STATE_COMPONENTS`:
        the store's entries (:meth:`DeltaSession.state_bytes
        <repro.wire.server.DeltaSession.state_bytes>` — mirror
        documents as ``mirror``, plain documents and decodes as
        ``deser``, compiled ``seektable``\\ s), and ``response``
        templates (store footprint + retained last response, XML or
        reply frame).
        """
        return dict(
            self.delta.state_bytes(),
            response=self.responder.store.approx_bytes() + self.sink.last_bytes(),
        )

    def size_key(self) -> tuple:
        """Equal on two calls only if :meth:`state_components` is too.

        Each part changes whenever its component may have: the store's
        generation, the response templates' layout key and the
        retained response's size.
        """
        return (
            self.delta.generation,
            self.responder.store.layout_key(),
            self.sink.last_bytes(),
        )

    def approx_bytes(self) -> int:
        """Total state bytes this session currently holds."""
        return sum(self.state_components().values())

    def shed_mirror(self) -> bool:
        """Let go of the least-recently-used mirror entry, its decode
        and seek table with it (pressure tier 1).  False when no mirror
        is held."""
        return self.delta.drop_lru() is not None


class DeserializerView:
    """Aggregate read-only facade over every session's deserializer.

    Presents the same ``stats`` / ``has_template`` / ``reset`` surface
    a single :class:`DifferentialDeserializer` offers, summed across
    sessions — so single-session callers see exactly the numbers they
    always did, and multi-connection servers see totals.
    """

    def __init__(self, manager: "ServerSessionManager") -> None:
        self._manager = manager

    @property
    def stats(self) -> Dict[DeserKind, int]:
        totals = self._manager.totals()
        return {kind: totals.get(kind, 0) for kind in DeserKind}

    @property
    def skipscan_stats(self) -> Dict[str, int]:
        """Skip-scan event counts summed over live + retired sessions."""
        return dict(self._manager.totals().get("skipscan", ()))

    @property
    def has_template(self) -> bool:
        return any(
            s.deserializer.has_template for s in self._manager.sessions()
        )

    def reset(self) -> None:
        """Drop every session's stored decodes."""
        for session in self._manager.sessions():
            session.deserializer.reset()


#: Integer keys of :func:`_session_counts` that ``merged_counters``
#: reports under the same name.
_COUNTER_KEYS = (
    "requests_handled",
    "faults_returned",
    "bytes_received",
    "bytes_sent",
    "delta_frames_applied",
    "delta_resyncs",
    "delta_bytes_saved",
)


def _session_counts(session: ServerSession) -> Dict[object, object]:
    """Everything one session has counted, as :class:`MemberTotals` reads
    it: :data:`_COUNTER_KEYS` ints, deserializer outcomes under their
    :class:`DeserKind`, and two values that add as a whole."""
    delta = session.delta
    wire = session.responder.wire
    return {
        "requests_handled": session.requests_handled,
        "faults_returned": session.faults_returned,
        "bytes_received": session.bytes_received,
        "bytes_sent": session.bytes_sent,
        "delta_frames_applied": delta.frames_applied,
        "delta_resyncs": delta.resyncs,
        # Both directions, as ``repro_delta_bytes_saved_total`` reads:
        # request frames applied plus reply frames encoded.
        "delta_bytes_saved": delta.bytes_saved
        + (wire.bytes_saved if wire is not None else 0),
        "responses": session.responder.stats,
        "skipscan": Counter(session.deserializer.skipscan_stats),
        **session.deserializer.stats,
    }


class ServerSessionManager:
    """Thread-safe registry of per-connection sessions with LRU eviction.

    Parameters
    ----------
    registry / response_policy:
        Passed through to each session's deserializer and responder.
    max_sessions:
        Upper bound on live sessions.  Beyond it the least recently
        *acquired* idle session is evicted (its document store and
        response templates are dropped; an evicted-then-returning
        session id simply pays one full parse to resynchronize).
        Sessions currently in use and the pinned default session are
        never evicted.
    descriptors:
        Passed to each session's deserializer: WSDL-generated message
        descriptors that gate its skip-scan seek table (see
        :mod:`repro.schema.skipscan`).
    accountant:
        Optional :class:`~repro.hardening.overload.MemoryAccountant`.
        When present, every session's state bytes are charged against
        it (:meth:`note_usage`) and :meth:`relieve_pressure` sheds
        state through the tier ladder whenever the budget is exceeded.
        When absent the manager behaves exactly as before.
    """

    def __init__(
        self,
        registry: Optional[TypeRegistry] = None,
        response_policy: Optional[DiffPolicy] = None,
        *,
        max_sessions: int = 256,
        obs: Optional[Observability] = None,
        limits: Optional[ResourceLimits] = None,
        descriptors: Optional[Dict[str, type]] = None,
        accountant: Optional[MemoryAccountant] = None,
    ) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        self.registry = registry
        self.response_policy = response_policy
        self.max_sessions = max_sessions
        self.descriptors = descriptors
        #: Resource limits handed to each session's deserializer, so
        #: every connection shares one inbound threat model.
        self.limits = limits
        #: Shared by every session and its responder/deserializer: a
        #: registry on it reads their counters at scrape time and is
        #: told when a session retires, so its totals match
        #: :meth:`merged_response_stats` (retired sessions included).
        self.obs: Observability = obs if obs is not None else NULL_OBS
        #: Byte ledger for the overload story (None = unaccounted).
        self.accountant = accountant
        #: Sessions evicted by the pressure ladder specifically (also
        #: counted in :attr:`evictions` and the accountant's sheds).
        self.pressure_evictions = 0
        self._lock = threading.Lock()
        self._sessions: "OrderedDict[Hashable, ServerSession]" = OrderedDict()
        self.sessions_created = 0
        self.evictions = 0
        # Retired (closed/evicted) sessions keep counting in aggregate
        # views: their final counts are folded in here at deletion.
        self._totals = MemberTotals(_session_counts)
        #: Optional front-end census callback (set by a serving front
        #: end on start): returns live connection/accept counters that
        #: :meth:`merged_counters` folds in, so one call reconciles
        #: session state *and* the socket layer above it.
        self._frontend_census: Optional[Callable[[], Dict[str, int]]] = None

    def set_frontend_census(
        self, census: "Optional[Callable[[], Dict[str, int]]]"
    ) -> None:
        """Attach (or with ``None`` detach) a front-end counter source."""
        self._frontend_census = census

    # ------------------------------------------------------------------
    def acquire(self, key: Optional[Hashable]) -> ServerSession:
        """Fetch (or create) the session for *key* and pin it in use.

        Callers must pair every ``acquire`` with a :meth:`release`.
        """
        if key is None:
            key = DEFAULT_SESSION
        with self._lock:
            session = self._sessions.get(key)
            if session is None:
                session = ServerSession(
                    key,
                    self.registry,
                    self.response_policy,
                    pinned=key == DEFAULT_SESSION,
                    obs=self.obs,
                    limits=self.limits,
                    descriptors=self.descriptors,
                )
                self._sessions[key] = session
                self._totals.add(session)
                self.sessions_created += 1
                # In use before evicting: with every older session busy
                # the newcomer would be the only idle candidate, and
                # the caller would get an orphan nobody folds.
                session.in_use += 1
                self._evict_locked()
            else:
                self._sessions.move_to_end(key)
                session.in_use += 1
            return session

    def release(self, session: ServerSession) -> None:
        with self._lock:
            session.in_use = max(0, session.in_use - 1)

    def _evict_locked(self) -> None:
        """Drop LRU idle sessions beyond :attr:`max_sessions`."""
        while len(self._sessions) > self.max_sessions:
            victim_key = None
            for key, session in self._sessions.items():  # LRU first
                if session.in_use == 0 and not session.pinned:
                    victim_key = key
                    break
            if victim_key is None:
                return  # everything is busy or pinned; stay over budget
            self._retire_locked(self._sessions.pop(victim_key))
            self.evictions += 1

    def _retire_locked(self, session: ServerSession) -> None:
        """Fold a dying session's counts into the retired totals, here
        and in the metrics registry, and let go of it."""
        if self.accountant is not None:
            for component, nbytes in session.accounted.items():
                if nbytes:
                    self.accountant.charge(component, -nbytes)
            session.accounted = {}
        self._totals.retire(session)
        self.obs.retire(session, session.responder, session.deserializer)

    def close_session(self, key: Optional[Hashable]) -> None:
        """Free *key*'s session eagerly (connection closed).

        A no-op for unknown keys, busy sessions, and the pinned
        default session.
        """
        if key is None:
            return
        with self._lock:
            session = self._sessions.get(key)
            if session is not None and session.in_use == 0 and not session.pinned:
                self._retire_locked(self._sessions.pop(key))

    # ------------------------------------------------------------------
    # memory accounting + pressure relief
    # ------------------------------------------------------------------
    def note_usage(self, session: ServerSession) -> None:
        """Re-measure *session* and charge the deltas to the ledger.

        O(this session) — callers invoke it for the session that just
        handled a request (while still holding its lock), so the global
        ledger stays current without ever walking the registry.  A
        request that changed no size (:meth:`ServerSession.size_key`)
        re-measures nothing.  A no-op without an accountant.
        """
        if self.accountant is not None:
            key = session.size_key()
            if key != session.accounted_key:
                self._recharge(session)
                session.accounted_key = key

    def _recharge(self, session: ServerSession) -> int:
        """Charge what *session* holds now against what it was charged;
        returns the bytes it let go of (negative: it grew)."""
        current = session.state_components()
        previous = session.accounted
        freed = 0
        for component, nbytes in current.items():
            delta = nbytes - previous.get(component, 0)
            if delta:
                self.accountant.charge(component, delta)
                freed -= delta
        session.accounted = current
        return freed

    def relieve_pressure(self) -> Dict[str, int]:
        """Shed state until usage is back under the low watermark.

        The tier ladder, cheapest client recovery first (every shed is
        a speed loss, never a correctness loss):

        1. ``mirror`` — LRU mirror entries from idle sessions, each
           with its decode and seek table; the client's next frame for
           it gets a 409 resync and re-announces full XML.  Plain
           entries are never taken here.
        2. ``seektable`` — compiled seek tables from idle sessions, LRU
           entry first; that entry's next changed request costs one
           full parse, which compiles a new table.
        3. ``session`` — LRU idle unpinned sessions retire outright;
           a returning client pays one first-time send.

        Only idle sessions (``in_use == 0``) are touched, so nothing
        sheds under an in-flight request.  What a shed freed is what
        re-measuring its session says it freed, never an estimate.
        Returns the sheds performed this call by tier; when every tier
        is exhausted and usage still exceeds the budget (all remaining
        state is busy/pinned), the accountant records an over-budget
        tick instead of failing anything.
        """
        accountant = self.accountant
        if accountant is None:
            return {}
        # One ledger query up front; the deficit is then tracked
        # locally as sheds free bytes (charge() keeps the ledger in
        # step).  Probing the locked ledger per session per tier made
        # an over-budget pass O(sessions) in lock round-trips — the
        # dominant cost at thousands of sessions.
        needed = accountant.relief_needed()
        if needed == 0:
            return {}
        sheds = {tier: 0 for tier in SHED_TIERS}
        with self._lock:
            # Tier 1: mirror entries, LRU-session-first then LRU-entry
            # within each session.
            for session in list(self._sessions.values()):
                if needed <= 0:
                    break
                if session.in_use:
                    continue
                while needed > 0 and session.shed_mirror():
                    accountant.note_shed("mirror")
                    sheds["mirror"] += 1
                    needed -= self._recharge(session)
            # Tier 2: compiled seek tables.
            if needed > 0:
                for session in list(self._sessions.values()):
                    if needed <= 0:
                        break
                    if session.in_use:
                        continue
                    while needed > 0 and session.deserializer.drop_seek_table():
                        accountant.note_shed("seektable")
                        sheds["seektable"] += 1
                        needed -= self._recharge(session)
            # Tier 3: LRU idle sessions retire outright.
            while needed > 0:
                victim_key = None
                for key, session in self._sessions.items():  # LRU first
                    if session.in_use == 0 and not session.pinned:
                        victim_key = key
                        break
                if victim_key is None:
                    break
                victim = self._sessions.pop(victim_key)
                freed = sum(victim.accounted.values())
                self._retire_locked(victim)
                self.evictions += 1
                self.pressure_evictions += 1
                accountant.note_shed("session")
                sheds["session"] += 1
                needed -= freed
            if needed > 0 and accountant.relief_needed() > 0:
                accountant.note_over_budget()
        return {tier: count for tier, count in sheds.items() if count}

    def state_bytes(self) -> int:
        """Accounted state bytes (0 without an accountant)."""
        return 0 if self.accountant is None else self.accountant.usage_bytes

    # ------------------------------------------------------------------
    # aggregate views
    # ------------------------------------------------------------------
    def sessions(self) -> List[ServerSession]:
        """Snapshot of live sessions (safe to iterate without the lock)."""
        with self._lock:
            return list(self._sessions.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def __iter__(self) -> Iterator[ServerSession]:
        return iter(self.sessions())

    def deserializer_view(self) -> DeserializerView:
        return DeserializerView(self)

    def totals(self) -> Dict[object, object]:
        """:func:`_session_counts` summed over all sessions, live and
        retired."""
        return self._totals.totals()

    def merged_response_stats(self) -> ClientStats:
        """Response-side ClientStats summed over all sessions, live
        and retired."""
        # ``+`` so the caller gets a copy even with one live session.
        return ClientStats() + self.totals().get("responses", ClientStats())

    def merged_counters(self) -> Dict[str, int]:
        totals = self.totals()
        out = {key: totals.get(key, 0) for key in _COUNTER_KEYS}
        out.update(
            sessions=len(self),
            sessions_created=self.sessions_created,
            evictions=self.evictions,
            pressure_evictions=self.pressure_evictions,
        )
        if self.accountant is not None:
            out.update(self.accountant.counters())
        census = self._frontend_census
        if census is not None:
            out.update(census())
        return out

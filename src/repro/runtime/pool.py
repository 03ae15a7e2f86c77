"""A pool of differential RPC channels.

Differential serialization makes connections *stateful*: each
:class:`~repro.channel.RPCChannel` owns a template store whose saved
bytes mirror what went out on **that** connection, and the server keeps
the matching per-connection deserializer session.  A call checked out
on channel *k* therefore diffs against channel *k*'s last-sent bytes —
templates must never migrate between connections mid-flight.  The pool
enforces that invariant structurally: a channel is exclusively owned
between :meth:`checkout` and :meth:`checkin`, and every channel has a
private :class:`~repro.core.store.TemplateStore`.

Health management rides on PR 1's resilience machinery: pooled
channels use reconnecting transports and circuit breakers, so most
failures self-heal (redial, degrade to full sends).  A channel that
reports itself unrecoverable (``broken`` — one-shot transport died) is
retired at checkin and replaced with a freshly dialed one; its
counters are folded into the pool totals (and, by ``channel.close()``,
into the metrics registry) so nothing is lost from :meth:`stats`.
"""

from __future__ import annotations

import queue
import threading
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

from repro.channel import RPCChannel
from repro.core.policy import DiffPolicy
from repro.core.stats import MemberTotals
from repro.errors import PoolError, PoolTimeoutError
from repro.obs import NULL_OBS, Observability
from repro.resilience.budget import RetryBudget
from repro.schema.registry import TypeRegistry
from repro.soap.message import SOAPMessage
from repro.soap.rpc import RPCResponse

__all__ = ["ClientPool"]

#: channel_stats keys that are summable counters.
_COUNTER_KEYS = (
    "calls",
    "faults",
    "retries",
    "retries_denied",
    "reconnects",
    "rollbacks",
    "forced_full_sends",
    "breaker_opens",
)


def _channel_counts(channel: RPCChannel) -> Dict[str, int]:
    stats = channel.channel_stats()
    return {key: int(stats.get(key, 0)) for key in _COUNTER_KEYS}  # type: ignore


class ClientPool:
    """``size`` exclusively-checked-out RPC channels to one server.

    Parameters
    ----------
    host, port:
        The HTTP SOAP server every pooled channel dials.
    size:
        Number of channels (= maximum concurrent in-flight calls for
        plain ``call``; the pipelined sender multiplies this by its
        per-channel window).
    registry, policy, http_mode, path:
        Forwarded to each :class:`RPCChannel`.  The policy object is
        shared (it is read-only configuration); template stores are
        never shared.
    channel_factory:
        Override channel construction — receives the channel index,
        must return an :class:`RPCChannel`.  Tests inject
        fault-wrapped transports here.
    checkout_timeout:
        Default :meth:`checkout` wait in seconds (``None`` = forever).
    retry_budget:
        Optional :class:`~repro.resilience.budget.RetryBudget` shared
        by **every** pooled channel (default-built ones; a custom
        ``channel_factory`` wires it itself via :attr:`retry_budget`).
        Bounds the fleet's aggregate retry rate so N channels backing
        off cannot multiply an overload.
    """

    def __init__(
        self,
        host: str = "",
        port: int = 0,
        size: int = 4,
        *,
        registry: Optional[TypeRegistry] = None,
        policy: Optional[DiffPolicy] = None,
        http_mode: str = "chunked",
        path: str = "/soap",
        channel_factory: Optional[Callable[[int], RPCChannel]] = None,
        checkout_timeout: Optional[float] = None,
        obs: Optional[Observability] = None,
        retry_budget: Optional[RetryBudget] = None,
    ) -> None:
        if size < 1:
            raise PoolError("pool size must be >= 1")
        self.host = host
        self.port = port
        self.size = size
        #: One Observability shared by every pooled channel: its
        #: registry sums the channels' counters at scrape time and
        #: keeps a replaced channel's final counts.
        self.obs: Observability = obs if obs is not None else NULL_OBS
        self.checkout_timeout = checkout_timeout
        self._registry = registry
        self._policy = policy
        self._http_mode = http_mode
        self._path = path
        #: Shared across channels (including replacements), so the
        #: budget's view of the fleet survives channel churn.
        self.retry_budget = retry_budget
        self._factory = channel_factory or self._default_factory
        self._lock = threading.Lock()
        self._idle: "queue.LifoQueue[RPCChannel]" = queue.LifoQueue()
        #: Live channels, plus the counters of every retired one.
        self._channels = MemberTotals(_channel_counts)
        self._closed = False
        self._next_index = 0
        self.checkouts = 0
        self.replacements = 0
        for _ in range(size):
            channel = self._spawn()
            self._idle.put(channel)

    def _default_factory(self, index: int) -> RPCChannel:
        return RPCChannel(
            self.host,
            self.port,
            registry=self._registry,
            policy=self._policy,
            http_mode=self._http_mode,
            path=self._path,
            obs=self.obs,
            budget=self.retry_budget,
        )

    def _spawn(self) -> RPCChannel:
        with self._lock:
            index = self._next_index
            self._next_index += 1
        channel = self._factory(index)
        # The template-per-connection invariant: a store shared between
        # pooled channels would let one channel's diff run against
        # bytes another connection sent.
        with self._lock:
            for other in self._channels.members():
                if channel.client.store is other.client.store:
                    raise PoolError(
                        "pooled channels must not share a TemplateStore"
                    )
            self._channels.add(channel)
        return channel

    # ------------------------------------------------------------------
    # checkout / checkin
    # ------------------------------------------------------------------
    def checkout(self, timeout: Optional[float] = None) -> RPCChannel:
        """Borrow an idle channel (blocks until one is available).

        Raises :class:`~repro.errors.PoolTimeoutError` if no channel
        frees up within *timeout* (default: the pool's
        ``checkout_timeout``).
        """
        if self._closed:
            raise PoolError("pool is closed")
        if timeout is None:
            timeout = self.checkout_timeout
        try:
            channel = self._idle.get(timeout=timeout)
        except queue.Empty:
            raise PoolTimeoutError(
                f"no channel free after {timeout}s (size={self.size})"
            ) from None
        with self._lock:
            self.checkouts += 1
        return channel

    def checkin(self, channel: RPCChannel) -> None:
        """Return a borrowed channel, replacing it if unrecoverable."""
        if channel not in self._channels.members():
            raise PoolError("channel does not belong to this pool")
        if self._closed:
            self._retire(channel)
            return
        if not self.healthy(channel):
            self._retire(channel)
            replacement = self._spawn()
            with self._lock:
                self.replacements += 1
            self._idle.put(replacement)
            return
        self._idle.put(channel)

    @staticmethod
    def healthy(channel: RPCChannel) -> bool:
        """Whether *channel* can still carry calls.

        Reconnecting transports and open breakers self-heal (redial /
        degrade to full serialization), so only a channel flagged
        ``broken`` — its one-shot transport died — is unhealthy.
        """
        return not channel.broken

    def _retire(self, channel: RPCChannel) -> None:
        self._channels.retire(channel)
        channel.close()

    @contextmanager
    def channel(self, timeout: Optional[float] = None) -> Iterator[RPCChannel]:
        """``with pool.channel() as ch:`` checkout/checkin guard."""
        borrowed = self.checkout(timeout)
        try:
            yield borrowed
        finally:
            self.checkin(borrowed)

    # ------------------------------------------------------------------
    # convenience call path
    # ------------------------------------------------------------------
    def call(
        self, message: SOAPMessage, timeout: Optional[float] = None
    ) -> RPCResponse:
        """Checkout → ``channel.call`` → checkin.

        Note the template-affinity cost: successive calls may land on
        different channels, each maintaining its own template for the
        message's structure.  Latency-sensitive callers running a long
        same-structure sequence should hold a checkout instead.
        """
        with self.channel(timeout) as ch:
            return ch.call(message)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Pool totals: summed channel counters + pool lifecycle."""
        totals: Dict[str, object] = {key: 0 for key in _COUNTER_KEYS}
        totals.update(self._channels.totals())
        totals["breakers_open"] = sum(
            channel.breaker.state == "open"
            for channel in self._channels.members()
        )
        with self._lock:
            totals.update(
                size=self.size,
                checkouts=self.checkouts,
                replacements=self.replacements,
            )
        if self.retry_budget is not None:
            totals.update(self.retry_budget.counters())
        return totals

    def close(self) -> None:
        """Close every channel (idle now; borrowed ones at checkin)."""
        self._closed = True
        while True:
            try:
                channel = self._idle.get_nowait()
            except queue.Empty:
                break
            self._retire(channel)

    def __enter__(self) -> "ClientPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

"""Unit tests for the concurrent runtime layer.

Covers the client pool (exclusive checkout, health replacement, the
template-per-connection invariant), pipelined channels (FIFO ordering,
backpressure, fault isolation), the server session manager (LRU
eviction, stat retention across session close), and connection-thread
reaping in both servers.
"""

import socket
import threading
import time

import numpy as np
import pytest

from repro.channel import RPCChannel
from repro.core.policy import DiffPolicy, StuffingPolicy, StuffMode
from repro.errors import PoolError, PoolTimeoutError, SOAPFaultError, TransportError
from repro.runtime.pipeline import PipelinedChannel, PipelinedSender
from repro.runtime.pool import ClientPool
from repro.runtime.sessions import DEFAULT_SESSION, ServerSessionManager
from repro.schema.composite import ArrayType
from repro.schema.registry import TypeRegistry
from repro.schema.types import DOUBLE, INT
from repro.server.diffdeser import DeserKind
from repro.server.service import SOAPService
from repro.server.threaded_server import HTTPSoapServer
from repro.soap.message import Parameter, SOAPMessage

NS = "urn:runtime-test"


def build_service(**kwargs) -> SOAPService:
    svc = SOAPService(NS, TypeRegistry(), **kwargs)

    @svc.operation("total", result_type=DOUBLE)
    def total(a):
        return float(np.sum(a))

    @svc.operation("boom", result_type=INT)
    def boom():
        raise RuntimeError("nope")

    return svc


@pytest.fixture(scope="module")
def server():
    with HTTPSoapServer(build_service()) as httpd:
        yield httpd


def _msg(values):
    return SOAPMessage(
        "total", NS, [Parameter("a", ArrayType(DOUBLE), np.asarray(values))]
    )


MAX_STUFF = DiffPolicy(stuffing=StuffingPolicy(StuffMode.MAX))


class _ScriptedChannel:
    """The channel surface a pipeline uses, scripted: send 2 fails
    while the receiver waits on reply 1, and that read fails only once
    send 3 is in flight (the worst order for the two threads)."""

    def __init__(self) -> None:
        self.reading = threading.Event()
        self.third_sent = threading.Event()
        self.lost_calls = []
        self.answered_calls = 0
        self._sends = 0
        self._reads = 0

    def send_request(self, message):
        self._sends += 1
        if self._sends == 2:
            raise TransportError("connection reset mid-send")
        if self._sends == 3:
            self.third_sent.set()
        return message

    def recv_response(self):
        self._reads += 1
        if self._reads == 1:
            self.reading.set()
            self.third_sent.wait(5)
            raise TransportError("connection closed")
        return "reply to m3"

    def answered(self, started, report=None) -> None:
        self.answered_calls += 1

    def lost(self, *messages) -> None:
        self.lost_calls.append(messages)


# ======================================================================
# ClientPool
# ======================================================================
class TestClientPool:
    def test_call_round_trip(self, server):
        with ClientPool(server.host, server.port, 2) as pool:
            assert pool.call(_msg([1.0, 2.0])).result() == 3.0
            assert pool.stats()["calls"] == 1

    def test_checkout_is_exclusive(self, server):
        with ClientPool(server.host, server.port, 1) as pool:
            channel = pool.checkout()
            with pytest.raises(PoolTimeoutError):
                pool.checkout(timeout=0.05)
            pool.checkin(channel)
            again = pool.checkout(timeout=1.0)
            assert again is channel
            pool.checkin(again)

    def test_channels_have_private_template_stores(self, server):
        with ClientPool(server.host, server.port, 3) as pool:
            stores = {id(ch.client.store) for ch in pool._channels.members()}
            assert len(stores) == 3

    def test_shared_store_rejected(self, server):
        probe = RPCChannel(server.host, server.port)

        def share_store(index):
            channel = RPCChannel(server.host, server.port)
            channel.client.store = probe.client.store
            return channel

        with pytest.raises(PoolError, match="TemplateStore"):
            ClientPool(server.host, server.port, 2, channel_factory=share_store)
        probe.close()

    def test_template_affinity_within_checkout(self, server):
        """Holding a checkout, consecutive sends diff on that channel."""
        from repro.core.stats import MatchKind

        with ClientPool(
            server.host, server.port, 2, policy=MAX_STUFF
        ) as pool:
            with pool.channel() as channel:
                channel.call(_msg([1.0, 2.0]))
                assert channel.last_send_report.match_kind is MatchKind.FIRST_TIME
                channel.call(_msg([1.0, 9.0]))
                assert (
                    channel.last_send_report.match_kind
                    is MatchKind.PERFECT_STRUCTURAL
                )

    def test_broken_channel_replaced_at_checkin(self, server):
        with ClientPool(server.host, server.port, 1) as pool:
            channel = pool.checkout()
            channel.call(_msg([2.0]))
            channel.broken = True  # simulate an unrecoverable transport
            pool.checkin(channel)
            assert pool.replacements == 1
            replacement = pool.checkout(timeout=1.0)
            assert replacement is not channel
            assert replacement.call(_msg([4.0])).result() == 4.0
            pool.checkin(replacement)
            # The retired channel's counters survive in the pool totals.
            assert pool.stats()["calls"] == 2

    def test_checkin_foreign_channel_rejected(self, server):
        with ClientPool(server.host, server.port, 1) as pool:
            foreign = RPCChannel(server.host, server.port)
            with pytest.raises(PoolError, match="belong"):
                pool.checkin(foreign)
            foreign.close()

    def test_closed_pool_rejects_checkout(self, server):
        pool = ClientPool(server.host, server.port, 1)
        pool.close()
        with pytest.raises(PoolError, match="closed"):
            pool.checkout()


# ======================================================================
# PipelinedChannel / PipelinedSender
# ======================================================================
class TestPipelinedChannel:
    def test_fifo_results(self, server):
        with ClientPool(
            server.host, server.port, 1, policy=MAX_STUFF
        ) as pool:
            channel = pool.checkout()
            with PipelinedChannel(channel, depth=4) as pipe:
                futures = pipe.map(_msg([float(i), 1.0]) for i in range(12))
                results = [f.result(timeout=10) for f in futures]
            pool.checkin(channel)
            assert [c.response.result() for c in results] == [
                float(i) + 1.0 for i in range(12)
            ]
            # One connection, one template: every call after the first
            # matched differentially.
            kinds = [c.send_report.match_kind.value for c in results]
            assert kinds[0] == "first-time"
            assert set(kinds[1:]) == {"perfect-structural"}

    def test_backpressure_blocks_submit(self):
        """submit() blocks once `depth` calls are unanswered."""
        service = build_service()

        # A server that stalls each response long enough to observe the
        # window filling.
        @service.operation("slow", result_type=DOUBLE)
        def slow(a):
            time.sleep(0.15)
            return float(np.sum(a))

        def slow_msg(x):
            return SOAPMessage(
                "slow", NS, [Parameter("a", ArrayType(DOUBLE), np.asarray([x]))]
            )

        with HTTPSoapServer(service) as httpd:
            with ClientPool(httpd.host, httpd.port, 1) as pool:
                channel = pool.checkout()
                with PipelinedChannel(channel, depth=2) as pipe:
                    t0 = time.perf_counter()
                    pipe.submit(slow_msg(1.0))
                    pipe.submit(slow_msg(2.0))
                    fast = time.perf_counter() - t0
                    third = pipe.submit(slow_msg(3.0))  # must wait for a slot
                    blocked = time.perf_counter() - t0
                    assert fast < 0.1
                    assert blocked >= 0.1
                    assert third.result(timeout=10).response.result() == 3.0
                pool.checkin(channel)

    def test_fault_fails_only_its_call(self, server):
        with ClientPool(server.host, server.port, 1) as pool:
            channel = pool.checkout()
            with PipelinedChannel(channel, depth=4) as pipe:
                before = pipe.submit(_msg([1.0]))
                fault = pipe.submit(SOAPMessage("boom", NS, []))
                after = pipe.submit(_msg([5.0]))
                assert before.result(timeout=10).response.result() == 1.0
                with pytest.raises(SOAPFaultError, match="nope"):
                    fault.result(timeout=10)
                assert after.result(timeout=10).response.result() == 5.0
            pool.checkin(channel)
            assert channel.channel_stats()["faults"] == 1

    def test_lost_connection_settles_once(self):
        """A failed send aborts the reply the receiver is waiting for;
        the receive error that follows on the dropped connection must
        not run the failure rule again, nor fail a call sent since."""
        ch = _ScriptedChannel()
        with PipelinedChannel(ch, depth=2) as pipe:
            first = pipe.submit("m1")
            assert ch.reading.wait(5)
            second = pipe.submit("m2")
            for future in (first, second):
                with pytest.raises(TransportError):
                    future.result(timeout=5)
            third = pipe.submit("m3")
            assert third.result(timeout=5).response == "reply to m3"
        assert ch.lost_calls == [("m2", "m1")]
        assert ch.answered_calls == 1
        assert pipe.failed == 2

    def test_submit_after_close_rejected(self, server):
        with ClientPool(server.host, server.port, 1) as pool:
            channel = pool.checkout()
            pipe = PipelinedChannel(channel, depth=2)
            pipe.close()
            with pytest.raises(PoolError, match="closed"):
                pipe.submit(_msg([1.0]))
            pool.checkin(channel)

    def test_sender_fans_out_across_pool(self, server):
        with ClientPool(
            server.host, server.port, 2, policy=MAX_STUFF
        ) as pool:
            with PipelinedSender(pool, depth=2) as sender:
                calls = sender.map([_msg([float(i)]) for i in range(20)])
            values = [c.response.result() for c in calls]
            assert values == [float(i) for i in range(20)]
            assert pool.stats()["calls"] == 20


# ======================================================================
# ServerSessionManager
# ======================================================================
class TestServerSessionManager:
    def test_sessions_are_isolated(self):
        manager = ServerSessionManager()
        a = manager.acquire("a")
        b = manager.acquire("b")
        assert a is not b
        assert a.deserializer is not b.deserializer
        assert a.responder is not b.responder
        manager.release(a)
        manager.release(b)
        assert len(manager) == 2

    def test_default_session_is_pinned(self):
        manager = ServerSessionManager(max_sessions=1)
        default = manager.acquire(None)
        assert default.key == DEFAULT_SESSION
        assert default.pinned
        manager.release(default)
        # Churning other keys never evicts the pinned default.
        for i in range(5):
            session = manager.acquire(f"conn-{i}")
            manager.release(session)
        assert manager.acquire(None) is default
        manager.release(default)

    def test_lru_eviction_skips_in_use(self):
        manager = ServerSessionManager(max_sessions=2)
        oldest = manager.acquire("old")  # held busy, must not be evicted
        recent = manager.acquire("recent")
        manager.release(recent)
        manager.acquire("newcomer")  # over budget → evict LRU idle
        assert manager.evictions == 1
        keys = {s.key for s in manager.sessions()}
        assert "old" in keys and "recent" not in keys
        manager.release(oldest)

    def test_new_session_is_not_its_own_eviction_victim(self):
        """Over budget with every older session busy: the session being
        handed out must stay registered, or its counts are never folded."""
        manager = ServerSessionManager(max_sessions=1)
        busy = manager.acquire("busy")
        fresh = manager.acquire("fresh")
        assert manager.evictions == 0
        assert fresh in manager.sessions()
        fresh.requests_handled += 1
        manager.release(fresh)
        manager.release(busy)
        manager.close_session("fresh")
        assert manager.merged_counters()["requests_handled"] == 1

    def test_closed_session_stats_survive(self):
        """Aggregate views keep counting after a connection closes."""
        svc = build_service()
        svc.handle(_body(_msg([1.0, 2.0])), "conn-1")
        svc.handle(_body(_msg([1.0, 5.0])), "conn-1")
        live = svc.deserializer.stats
        assert live[DeserKind.DIFFERENTIAL] >= 1
        handled = svc.requests_handled
        sends = svc.response_stats.sends
        svc.sessions.close_session("conn-1")
        assert len(svc.sessions) == 0
        assert svc.deserializer.stats == live
        assert svc.requests_handled == handled
        assert svc.response_stats.sends == sends

    def test_busy_session_not_closed(self):
        manager = ServerSessionManager()
        session = manager.acquire("k")
        manager.close_session("k")  # in use → no-op
        assert len(manager) == 1
        manager.release(session)
        manager.close_session("k")
        assert len(manager) == 0

    def test_merged_counters(self):
        svc = build_service()
        svc.handle(_body(_msg([1.0])), "a")
        svc.handle(_body(_msg([2.0])), "b")
        counters = svc.sessions.merged_counters()
        assert counters["requests_handled"] == 2
        assert counters["sessions_created"] == 2


def _body(message: SOAPMessage) -> bytes:
    """Serialize *message* to request bytes (fresh client each time)."""
    from repro.core.client import BSoapClient
    from repro.transport.loopback import CollectSink

    sink = CollectSink()
    BSoapClient(sink).send(message)
    return sink.last


# ======================================================================
# connection-thread reaping (satellite 1)
# ======================================================================
def _dial_and_close(host, port, payload=b""):
    conn = socket.create_connection((host, port), timeout=2.0)
    if payload:
        conn.sendall(payload)
    conn.close()


class TestThreadReaping:
    def test_dummy_server_reaps_finished_threads(self):
        from repro.transport.dummy_server import DummyServer

        with_server = DummyServer().start()
        try:
            for _ in range(12):
                _dial_and_close(with_server.host, with_server.port, b"x")
            deadline = time.time() + 5.0
            while time.time() < deadline:
                _dial_and_close(with_server.host, with_server.port, b"x")
                if len(with_server._conn_threads) <= 3:
                    break
                time.sleep(0.05)
            assert len(with_server._conn_threads) <= 3
            # accept() runs behind the dials; wait for the count.
            deadline = time.time() + 5.0
            while time.time() < deadline and with_server.connections < 13:
                time.sleep(0.05)
            assert with_server.connections >= 13
        finally:
            with_server.stop()

    def test_http_server_reaps_finished_threads(self, server):
        for _ in range(12):
            _dial_and_close(server.host, server.port)
        deadline = time.time() + 5.0
        while time.time() < deadline:
            _dial_and_close(server.host, server.port)
            if len(server._conn_threads) <= 3:
                break
            time.sleep(0.05)
        assert len(server._conn_threads) <= 3

    def test_http_server_sessions_freed_on_disconnect(self):
        with HTTPSoapServer(build_service()) as httpd:
            with RPCChannel(httpd.host, httpd.port) as channel:
                channel.call(_msg([1.0]))
                deadline = time.time() + 2.0
                while time.time() < deadline and len(httpd.service.sessions) == 0:
                    time.sleep(0.02)
                assert len(httpd.service.sessions) == 1
            # Closing the connection retires its session...
            deadline = time.time() + 5.0
            while time.time() < deadline and len(httpd.service.sessions) > 0:
                time.sleep(0.05)
            assert len(httpd.service.sessions) == 0
            # ...but not its contribution to the aggregate stats.
            assert httpd.service.requests_handled == 1

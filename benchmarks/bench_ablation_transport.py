"""Ablation — transport stack cost for content-match resends.

A content match's Send Time is pure transport: compare the null sink,
the memcpy drain, raw localhost TCP (paper socket options,
scatter-gather sendmsg), and both HTTP framings on top of TCP.

The socket-profile sweep at the bottom round-trips one identity-framed
request of each size under the paper's options and under the runtime
profile, against both peers a client can meet: the paper's
:class:`DummyServer` (accepted sockets carry the paper's options) and
the runtime's threaded front end (kernel-sized buffers).  Above one
64 KiB loopback segment the paper's 32 KiB ``SO_SNDBUF`` waits out a
delayed ACK per segment — but only against the runtime peer: the dummy
server's 32 KiB ``SO_RCVBUF`` makes every read a window update, which
ACKs at once (``docs/perf.md``, "socket profiles").  CI gates the
176 KiB runtime-peer cell (``-k profile_gate``).
"""

import time

import pytest

from repro.bench.workloads import double_array_message, random_doubles
from repro.core.client import BSoapClient
from repro.runtime.loadgen import build_service
from repro.server.threaded_server import HTTPSoapServer
from repro.transport.dummy_server import DummyServer
from repro.transport.http import HTTPTransport
from repro.transport.loopback import MemcpySink, NullSink
from repro.transport.tcp import (
    PAPER_SOCKET_OPTIONS,
    RUNTIME_SOCKET_OPTIONS,
    TCPTransport,
)

N = 10_000
PROFILES = {"paper": PAPER_SOCKET_OPTIONS, "runtime": RUNTIME_SOCKET_OPTIONS}
FRAME_KIB = (16, 64, 176, 440)


@pytest.fixture(scope="module")
def server():
    with DummyServer() as srv:
        yield srv


def _paper_tcp(server, **kw):
    """The paper's rig: its socket options on the client end too."""
    return TCPTransport(
        "127.0.0.1", server.port, socket_options=PAPER_SOCKET_OPTIONS, **kw
    )


def _prepared(transport):
    client = BSoapClient(transport)
    call = client.prepare(double_array_message(random_doubles(N, seed=1)))
    call.send()
    return call


def test_null_sink(benchmark):
    benchmark.group = f"ablation transport: content-match resend (n={N})"
    call = _prepared(NullSink())
    benchmark(call.send)


def test_memcpy_sink(benchmark):
    benchmark.group = f"ablation transport: content-match resend (n={N})"
    call = _prepared(MemcpySink())
    benchmark(call.send)


def test_tcp_gather(benchmark, server):
    benchmark.group = f"ablation transport: content-match resend (n={N})"
    tcp = _paper_tcp(server, gather=True)
    call = _prepared(tcp)
    benchmark(call.send)
    tcp.close()


def test_tcp_sendall(benchmark, server):
    benchmark.group = f"ablation transport: content-match resend (n={N})"
    tcp = _paper_tcp(server, gather=False)
    call = _prepared(tcp)
    benchmark(call.send)
    tcp.close()


def test_http_chunked(benchmark, server):
    benchmark.group = f"ablation transport: content-match resend (n={N})"
    tcp = _paper_tcp(server)
    call = _prepared(HTTPTransport(tcp, mode="chunked"))
    benchmark(call.send)
    tcp.close()


def test_http_content_length(benchmark, server):
    benchmark.group = f"ablation transport: content-match resend (n={N})"
    tcp = _paper_tcp(server)
    call = _prepared(HTTPTransport(tcp, mode="content-length"))
    benchmark(call.send)
    tcp.close()


# ----------------------------------------------------------------------
# socket profile x frame size, one request/response round trip
# ----------------------------------------------------------------------
@pytest.fixture(scope="module", params=["dummy", "threaded"])
def peer(request):
    if request.param == "dummy":
        server = DummyServer(respond=True)
    else:
        # Answers a non-SOAP body with a Client fault at its first
        # byte: what is timed is transport and framing.
        server = HTTPSoapServer(build_service())
    with server:
        yield request.param, server.port


def _round_trip(port, profile, kib):
    """A connected transport and a callable doing one round trip."""
    tcp = TCPTransport("127.0.0.1", port, socket_options=PROFILES[profile])
    http = HTTPTransport(tcp, mode="content-length")
    frame = [bytes(kib * 1024)]

    def call():
        http.send_message(frame, kib * 1024)
        tcp.recv_http_response()

    # The receiver ACKs the first few segments of a connection at
    # once (quick-ACK mode); the steady state starts after them.
    for _ in range(3):
        call()
    return tcp, call


@pytest.mark.parametrize("kib", FRAME_KIB)
@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_profile_round_trip(benchmark, peer, profile, kib):
    peer_name, port = peer
    benchmark.group = (
        f"ablation transport: socket profile round trip ({kib} KiB, {peer_name} peer)"
    )
    tcp, call = _round_trip(port, profile, kib)
    benchmark.pedantic(call, rounds=10, iterations=1)
    tcp.close()


def test_profile_gate_runtime_beats_paper_at_176k():
    """The runtime profile removes the delayed-ACK stall (Linux loopback)."""
    best = {}
    with HTTPSoapServer(build_service()) as server:
        for profile in PROFILES:
            tcp, call = _round_trip(server.port, profile, 176)
            samples = []
            for _ in range(5):
                started = time.perf_counter()
                call()
                samples.append(time.perf_counter() - started)
            tcp.close()
            best[profile] = min(samples)
    assert best["paper"] >= 3.0 * best["runtime"], best

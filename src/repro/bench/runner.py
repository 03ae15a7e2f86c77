"""Send-Time measurement and transport rigs.

Reproduces the paper's methodology: each reported point is the average
of repeated Send-Time samples (the paper used 100); the timed window
covers message preparation through the final ``send()`` (see
:class:`~repro.transport.timing.SendTimer`).  Mutating application
data between sends happens *outside* the timed window, matching the
paper's "starting a timer before preparing the message for sending".
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import TransportError
from repro.transport.dummy_server import DummyServer
from repro.transport.http import HTTPTransport
from repro.transport.loopback import MemcpySink, NullSink
from repro.transport.tcp import PAPER_SOCKET_OPTIONS, TCPTransport
from repro.transport.timing import SendTimer

__all__ = ["time_loop", "adaptive_reps", "TransportRig", "Sample"]


@dataclass(slots=True)
class Sample:
    """One measured point."""

    label: str
    n: int
    reps: int
    mean_ms: float
    min_ms: float
    max_ms: float


def adaptive_reps(
    estimate_s: float,
    *,
    target_s: float = 0.6,
    min_reps: int = 3,
    max_reps: int = 100,
) -> int:
    """Repetitions so a point costs roughly *target_s* wall seconds."""
    if estimate_s <= 0:
        return max_reps
    return max(min_reps, min(max_reps, int(target_s / estimate_s)))


def time_loop(
    timed: Callable[[], object],
    *,
    setup: Optional[Callable[[], object]] = None,
    reps: Optional[int] = None,
    warmup: int = 1,
    target_s: float = 0.6,
    max_reps: int = 100,
) -> SendTimer:
    """Measure ``timed()`` *reps* times; *setup()* runs untimed before
    each sample (data mutation, template rebuild...).

    When *reps* is None it is chosen adaptively from a first probe.
    """
    for _ in range(warmup):
        if setup is not None:
            setup()
        timed()

    if reps is None:
        if setup is not None:
            setup()
        t0 = time.perf_counter()
        timed()
        probe = time.perf_counter() - t0
        reps = adaptive_reps(probe, target_s=target_s, max_reps=max_reps)

    timer = SendTimer()
    for _ in range(reps):
        if setup is not None:
            setup()
        with timer:
            timed()
    return timer


class TransportRig:
    """Context manager building the requested transport stack.

    Kinds
    -----
    ``"null"``
        Discard sink — pure serialization cost.
    ``"memcpy"`` (default)
        Drain-copy sink — models the kernel send copy without socket
        noise; the most reproducible stand-in for the paper's setup.
    ``"tcp"``
        Real localhost TCP to an in-process dummy drain server with
        the paper's socket options (closest to the paper's rig).
    ``"http"`` / ``"http10"``
        HTTP/1.1 chunked (resp. HTTP/1.0 content-length) framing over
        the TCP transport.
    """

    KINDS = ("null", "memcpy", "tcp", "http", "http10")

    def __init__(self, kind: str = "memcpy") -> None:
        if kind not in self.KINDS:
            raise TransportError(f"unknown transport rig kind {kind!r}")
        self.kind = kind
        self.server: Optional[DummyServer] = None
        self.transport = None

    def __enter__(self):
        if self.kind == "null":
            self.transport = NullSink()
        elif self.kind == "memcpy":
            self.transport = MemcpySink()
        else:
            self.server = DummyServer().start()
            tcp = TCPTransport(
                "127.0.0.1", self.server.port, socket_options=PAPER_SOCKET_OPTIONS
            )
            if self.kind == "tcp":
                self.transport = tcp
            elif self.kind == "http":
                self.transport = HTTPTransport(tcp, mode="chunked")
            else:
                self.transport = HTTPTransport(tcp, mode="content-length")
        return self.transport

    def __exit__(self, *exc) -> None:
        if self.transport is not None:
            self.transport.close()
            self.transport = None
        if self.server is not None:
            self.server.stop()
            self.server = None

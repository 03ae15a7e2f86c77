"""Regression guards for the paper's performance-shape claims.

These are *loose* runtime assertions (factors of safety ≥ 2 below the
measured margins) so normal machine noise never trips them, but a
regression that destroys a reproduced shape — content matches no
longer beating full serialization, shifting becoming free, DOM beating
streaming — fails the suite.
"""

import time

import numpy as np
import pytest

from repro.baselines.gsoap_like import GSoapLikeClient
from repro.baselines.xsoap_like import XSoapLikeClient
from repro.bench.profile90 import decompose_serialization
from repro.bench.workloads import (
    MIO_MAX_SPLIT,
    MIO_MIN_SPLIT,
    double_array_message,
    doubles_of_width,
    mio_columns_of_widths,
    mio_message,
    random_doubles,
)
from repro.core.client import BSoapClient
from repro.core.policy import DiffPolicy
from repro.transport.loopback import MemcpySink

N = 10_000


def mean_ms(fn, reps=5, warmup=1):
    for _ in range(warmup):
        fn()
    t0 = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - t0) / reps * 1000


class TestHeadlineClaims:
    def test_content_match_beats_full_serialization(self):
        """Paper §4.1: content matches are ~4-10× faster; we require ≥5×."""
        message = double_array_message(random_doubles(N, seed=1))
        full = BSoapClient(MemcpySink(), DiffPolicy(differential_enabled=False))
        t_full = mean_ms(lambda: full.send(message))
        call = BSoapClient(MemcpySink()).prepare(message)
        call.send()
        t_match = mean_ms(call.send, reps=30)
        assert t_full / t_match > 5.0

    def test_quarter_rewrite_beats_full_rewrite(self):
        """Paper Fig. 5: Send Time scales with the dirty fraction."""
        message = double_array_message(doubles_of_width(N, 18, seed=1))
        pool = doubles_of_width(N, 18, seed=2)

        def run(frac):
            call = BSoapClient(MemcpySink()).prepare(message)
            call.send()
            k = int(frac * N)
            idx = np.arange(k)
            flip = [pool, np.roll(pool, 1)]
            state = {"i": 0}

            def once():
                call.tracked("data").update(idx, flip[state["i"] % 2][:k])
                state["i"] += 1
                call.send()

            return mean_ms(once)

        assert run(1.0) / run(0.25) > 1.8

    def test_dom_slower_than_streaming(self):
        """Paper Fig. 2: XSOAP (DOM) above gSOAP (streaming)."""
        message = double_array_message(random_doubles(N, seed=3))
        t_stream = mean_ms(lambda: GSoapLikeClient(MemcpySink()).send(message), reps=3)
        t_dom = mean_ms(lambda: XSoapLikeClient(MemcpySink()).send(message), reps=3)
        assert t_dom > 1.3 * t_stream

    def test_conversion_is_the_bottleneck(self):
        """Paper §2: conversion ≈ 90%; we require > 60% at 10K doubles."""
        phases = decompose_serialization(N, reps=3)
        assert phases.conversion_share > 0.6

    def test_worst_case_shifting_costs_one_rebuild(self):
        """Paper Figs. 6-7: all-values shifting against the paper's
        reference, every x, y and v re-serialized at its own width.

        The paper's C stub pays 4-5x there, one tail shift per expanding
        value; this port rebuilds each chunk once per send, so shifting
        must stay within 3x of the reference and copy the document
        about once."""
        from repro.core.serializer import build_template
        from repro.core.stats import MatchKind

        n = 2000
        small = mio_message(mio_columns_of_widths(n, MIO_MIN_SPLIT, seed=1))
        big = mio_columns_of_widths(n, MIO_MAX_SPLIT, seed=2)
        idx = np.arange(n)

        def shifted_send():
            call = BSoapClient(MemcpySink()).prepare(small)
            call.send()
            tracked = call.tracked("mesh")
            for col in ("x", "y", "v"):
                tracked.set_items(idx, col, big[col])
            t0 = time.perf_counter()
            report = call.send()
            elapsed = time.perf_counter() - t0
            assert report.match_kind is MatchKind.PARTIAL_STRUCTURAL
            assert report.rewrite.expansions == 3 * n
            assert report.buffer_bytes_moved <= 2 * report.bytes_sent
            assert call.template.tobytes() == build_template(mio_message(big)).tobytes()
            return elapsed

        t_shift = min(shifted_send() for _ in range(3)) * 1000

        ref_cols = mio_columns_of_widths(n, MIO_MAX_SPLIT, seed=3)
        call = BSoapClient(MemcpySink()).prepare(mio_message(ref_cols))
        call.send()
        other = doubles_of_width(n, MIO_MAX_SPLIT[2], seed=5)
        flip = [other, np.roll(other, 1)]

        def ref_send(i):
            tracked = call.tracked("mesh")
            tracked.set_items(idx, "x", ref_cols["x"])
            tracked.set_items(idx, "y", ref_cols["y"])
            tracked.set_items(idx, "v", flip[i % 2])
            t0 = time.perf_counter()
            report = call.send()
            elapsed = time.perf_counter() - t0
            assert report.rewrite.values_rewritten == 3 * n
            assert report.rewrite.expansions == 0
            return elapsed

        ref_send(0)
        t_ref = min(ref_send(i) for i in range(1, 4)) * 1000
        assert t_shift < 3.0 * t_ref

    def test_stuffing_prevents_shifting(self):
        """Paper §4.4: max-width stuffing makes expansion impossible."""
        from repro.core.policy import StuffingPolicy, StuffMode

        message = double_array_message(doubles_of_width(1000, 1, seed=1))
        call = BSoapClient(
            MemcpySink(), DiffPolicy(stuffing=StuffingPolicy(StuffMode.MAX))
        ).prepare(message)
        call.send()
        call.tracked("data").update(
            np.arange(1000), doubles_of_width(1000, 24, seed=2)
        )
        report = call.send()
        assert report.rewrite.expansions == 0
        assert report.rewrite.values_rewritten == 1000

    def test_overlay_memory_vs_plain(self):
        """Paper §3.3: overlaying bounds resident serialized state."""
        from repro.baselines.paper_overlay import build_overlay_template
        from repro.core.policy import StuffingPolicy, StuffMode
        from repro.core.serializer import build_template
        from repro.soap.message import Parameter, SOAPMessage
        from repro.schema.composite import ArrayType
        from repro.schema.types import DOUBLE

        values = random_doubles(20000, seed=1)
        message = SOAPMessage(
            "put", "urn:t", [Parameter("a", ArrayType(DOUBLE), values)]
        )
        stuffed = DiffPolicy(stuffing=StuffingPolicy(StuffMode.MAX))
        plain = build_template(message, stuffed)
        overlay = build_overlay_template(message, stuffed)
        assert overlay.resident_bytes * 5 < plain.memory_footprint()["serialized"]

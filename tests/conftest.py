"""Shared fixtures for the bSOAP reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.client import BSoapClient
from repro.core.policy import DiffPolicy
from repro.schema.composite import ArrayType
from repro.schema.mio import make_mio_array_type
from repro.schema.types import DOUBLE, INT
from repro.soap.message import Parameter, SOAPMessage
from repro.transport.loopback import CollectSink


def pytest_addoption(parser):
    parser.addoption(
        "--rng-seed",
        type=int,
        default=12345,
        help=(
            "Seed for every RNG-backed fixture and randomized test "
            "(oracle fuzzing, stress workloads).  CI's default job pins "
            "it for reproducibility; the slow job randomizes it."
        ),
    )
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help=(
            "Rewrite the golden-wire corpus under tests/golden/ from "
            "the current serializer output instead of comparing "
            "against it.  Inspect the diff before committing."
        ),
    )


def pytest_report_header(config):
    # Always surface the seed so any randomized failure (CI's slow job
    # uses a per-run seed) is reproducible locally with --rng-seed.
    return f"rng-seed: {config.getoption('--rng-seed')}"


@pytest.fixture
def rng_seed(request) -> int:
    return request.config.getoption("--rng-seed")


@pytest.fixture
def rng(rng_seed):
    return np.random.default_rng(rng_seed)


@pytest.fixture
def sink():
    return CollectSink()


@pytest.fixture
def scanner_events(monkeypatch):
    """A list that grows by one per ``XMLScanner`` event scanned
    (count-based perf guards: ``del events[:]``, act, ``len(events)``)."""
    from repro.xmlkit.scanner import XMLScanner

    events = []
    original = XMLScanner._next_event

    def counting(self):
        events.append(1)
        return original(self)

    monkeypatch.setattr(XMLScanner, "_next_event", counting)
    return events


@pytest.fixture
def client(sink):
    return BSoapClient(sink)


@pytest.fixture
def double_message(rng):
    """A 64-double array message."""
    return SOAPMessage(
        "putDoubles",
        "urn:test",
        [Parameter("data", ArrayType(DOUBLE), rng.random(64))],
    )


@pytest.fixture
def int_message(rng):
    return SOAPMessage(
        "putInts",
        "urn:test",
        [Parameter("data", ArrayType(INT), rng.integers(-1000, 1000, 64))],
    )


@pytest.fixture
def mio_message_small(rng):
    cols = {
        "x": rng.integers(0, 100, 16),
        "y": rng.integers(0, 100, 16),
        "v": rng.random(16),
    }
    return SOAPMessage(
        "putMesh", "urn:test", [Parameter("mesh", make_mio_array_type(), cols)]
    )


def fresh_full_bytes(message: SOAPMessage, policy: DiffPolicy | None = None) -> bytes:
    """From-scratch serialization of *message* (equivalence oracle)."""
    from repro.core.serializer import build_template

    return build_template(message, policy).tobytes()

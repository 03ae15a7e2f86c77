"""The names the ledger's traced pass wraps (``benchmarks/ledger/tracing.py``)
and the counters its child reads (``benchmarks/ledger/child.py``).

The ledger times each layer by replacing these attributes for the life
of a pass.  A missing name crashes the pass; a name the hot path no
longer goes through silently reads its per-layer row as zero.  Both
are pinned here, against the library alone.  So are the sources of two
retired rows (``lexical.conv_hit_share``, ``core.plan_hit_share``):
they read 0, and the child must keep importing and summing them until
the benchmark itself drops the rows.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.dut.tracked as tracked_mod
from repro.core.client import BSoapClient
from repro.core.policy import DiffPolicy, StuffingPolicy, StuffMode
from repro.core.stats import ClientStats
from repro.lexical.cache import memo_stats
from repro.lexical.floats import FloatFormat
from repro.schema.composite import ArrayType
from repro.schema.types import DOUBLE
from repro.server.diffdeser import DifferentialDeserializer
from repro.server.service import SOAPService
from repro.soap.message import Parameter, SOAPMessage
from repro.transport.loopback import CollectSink
from repro.wire.client import DeltaEncoder
from repro.wire.server import DeltaSession

HOOKS = [
    (BSoapClient, "send"),
    (DeltaEncoder, "try_encode"),
    (DeltaSession, "apply"),
    (DifferentialDeserializer, "deserialize"),
    (SOAPService, "handle_wire_vectored"),
    (tracked_mod, "format_double_array"),
    (tracked_mod, "format_double_fixed_blob"),
]


@pytest.mark.parametrize("owner, name", HOOKS, ids=lambda x: getattr(x, "__name__", x))
def test_every_wrapped_name_exists(owner, name):
    assert callable(getattr(owner, name))


def _message(values: np.ndarray) -> SOAPMessage:
    return SOAPMessage("op", "urn:hooks", [Parameter("data", ArrayType(DOUBLE), values)])


def test_deserialize_returns_a_report_with_leaves_parsed():
    sink = CollectSink()
    BSoapClient(sink).send(_message(np.arange(8) * 0.5))
    decoded, report = DifferentialDeserializer().deserialize(sink.last)
    assert report.leaves_parsed == 8
    assert np.array_equal(decoded.value("data"), np.arange(8) * 0.5)


@pytest.mark.parametrize("fmt", [FloatFormat.MINIMAL, FloatFormat.FIXED])
def test_a_dirty_resend_formats_through_the_wrapped_name(fmt, monkeypatch, rng):
    values = rng.random(64)
    message = _message(values)
    client = BSoapClient(
        CollectSink(), DiffPolicy(float_format=fmt, stuffing=StuffingPolicy(StuffMode.MAX))
    )
    client.send(message)

    calls = []
    real = tracked_mod.format_double_array

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(tracked_mod, "format_double_array", counting)
    values[::4] = rng.random(16)
    report = client.send(message)
    assert report.rewrite.values_rewritten == 16
    assert sum(calls) == 16


def test_retired_row_sources_still_read_as_the_child_sums_them():
    memos = memo_stats().values()
    assert sum(m["hits"] for m in memos) + sum(m["misses"] for m in memos) == 0
    stats = ClientStats()
    assert type(stats.plan_hits) is int and type(stats.plan_misses) is int

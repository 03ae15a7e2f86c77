"""The steady-state rewrite: NumPy store vs slice loop (repro.core.differential).

A chunk run of at least ``STORE_MIN_RUN`` dirty values whose new and
old lengths are all one length is written with one NumPy store; every
other value takes the slice loop.  Which one runs may only change how
fast the bytes are produced: every test here checks the template
against a fresh serialization, and the wire against the other path.
"""

import contextlib

import numpy as np
import pytest

from repro.buffers.config import ChunkPolicy
from repro.core import differential
from repro.core.client import BSoapClient
from repro.core.differential import STORE_MIN_RUN, rewrite_dirty
from repro.core.policy import DiffPolicy, Expansion, StuffingPolicy, StuffMode
from repro.core.serializer import build_template
from repro.lexical.floats import FloatFormat
from repro.obs import Observability
from repro.schema.composite import ArrayType
from repro.schema.mio import make_mio_array_type
from repro.schema.types import DOUBLE, INT
from repro.soap.message import Parameter, SOAPMessage
from repro.transport.loopback import CollectSink
from repro.xmlkit.canonical import diff_documents, documents_equivalent

FIXED_MAX = DiffPolicy(
    float_format=FloatFormat.FIXED, stuffing=StuffingPolicy(StuffMode.MAX)
)
MAX = DiffPolicy(stuffing=StuffingPolicy(StuffMode.MAX))


def msg(*params):
    return SOAPMessage("op", "urn:test", list(params))


def doubles(values):
    return msg(Parameter("a", ArrayType(DOUBLE), list(map(float, values))))


def oracle(template, message, policy=None):
    fresh = build_template(message, policy).tobytes()
    got = template.tobytes()
    assert documents_equivalent(got, fresh), diff_documents(got, fresh)


@contextlib.contextmanager
def store_min_run(value):
    """Run with another store threshold (1: store every eligible run;
    a huge value: slice loop only)."""
    saved = differential.STORE_MIN_RUN
    differential.STORE_MIN_RUN = value
    try:
        yield
    finally:
        differential.STORE_MIN_RUN = saved


@pytest.fixture
def stores(monkeypatch):
    """Lengths of the runs the NumPy store wrote."""
    runs = []
    real = differential._store_run

    def counting(data, offs, texts, length):
        runs.append(len(texts))
        real(data, offs, texts, length)

    monkeypatch.setattr(differential, "_store_run", counting)
    return runs


def test_fixed_run_takes_store_byte_exact(stores):
    n = 8 * STORE_MIN_RUN
    t = build_template(doubles([1.5] * n), FIXED_MAX)
    tr = t.tracked("a")
    idx = np.arange(0, n, 4)
    rng = np.random.default_rng(3)
    for scale in (1.0, 1e100, 1e-300):
        tr.update(idx, rng.random(len(idx)) * scale)
        rewrite_dirty(t, FIXED_MAX)
    assert stores == [len(idx)] * 3
    oracle(t, doubles(tr.data), FIXED_MAX)
    t.validate()


def test_short_runs_take_the_loop(stores):
    t = build_template(doubles([1.5] * 256), FIXED_MAX)
    tr = t.tracked("a")
    idx = np.arange(0, STORE_MIN_RUN - 1)
    tr.update(idx, np.full(len(idx), 2.5))
    rewrite_dirty(t, FIXED_MAX)
    assert stores == []
    oracle(t, doubles(tr.data), FIXED_MAX)


def test_uniform_width_minimal_values_take_store(stores):
    # The ledger's fixed-width readings under MINIMAL: new and old
    # lengths agree, so the run is stored though the format is not FIXED.
    n = 4 * STORE_MIN_RUN
    t = build_template(doubles([1.25] * n), MAX)
    tr = t.tracked("a")
    idx = np.array(sorted(np.random.default_rng(7).choice(n, 2 * STORE_MIN_RUN, replace=False)))
    tr.update(idx, np.full(len(idx), 7.75))
    rewrite_dirty(t, MAX)
    assert stores == [len(idx)]
    oracle(t, doubles(tr.data), MAX)


def test_store_refuses_run_with_mixed_old_lengths(stores):
    # After a shrink some fields hold shorter values than their
    # neighbours.  New values of one length still move those closing
    # tags, so the run must not be stored.
    n = 2 * STORE_MIN_RUN
    t = build_template(doubles([1.5] * n), MAX)
    tr = t.tracked("a")
    tr.update(np.arange(0, n, 2), np.full(n // 2, 7.0))  # "7": shrinks 3 -> 1
    rewrite_dirty(t, MAX)
    tr.update(np.arange(n), np.full(n, 2.5))  # all "2.5"; old lengths 1 and 3
    s = rewrite_dirty(t, MAX)
    assert stores == []
    assert s.tag_shifts == n // 2
    oracle(t, doubles(tr.data), MAX)
    t.validate()


def test_non_finite_falls_back_and_recovers(stores):
    n = 2 * STORE_MIN_RUN
    t = build_template(doubles([1.5] * n), FIXED_MAX)
    tr = t.tracked("a")
    idx = np.arange(n)
    tr.update(idx, np.full(n, 2.5))
    rewrite_dirty(t, FIXED_MAX)
    assert stores == [n]
    # INF is 3 chars in a 24-char field: lengths change, slice loop.
    tr.update(idx, np.full(n, np.inf))
    rewrite_dirty(t, FIXED_MAX)
    oracle(t, doubles([float("inf")] * n), FIXED_MAX)
    # Back to finite: the old lengths are 3, so the loop runs once more
    # and restores the 24-char forms...
    tr.update(idx, np.full(n, 3.5))
    rewrite_dirty(t, FIXED_MAX)
    oracle(t, doubles([3.5] * n), FIXED_MAX)
    assert stores == [n]
    # ...after which the store takes over again.
    tr.update(idx, np.full(n, 4.5))
    rewrite_dirty(t, FIXED_MAX)
    assert stores == [n, n]
    oracle(t, doubles([4.5] * n), FIXED_MAX)
    t.validate()


def test_struct_arrays_store_byte_exact(stores):
    # Same lengths in and out: no closing tag moves, so the per-field
    # close tags of a struct array do not matter to the store.
    items = 2 * STORE_MIN_RUN
    cols = {"x": list(range(items)), "y": list(range(items)), "v": [0.5] * items}
    pol = FIXED_MAX
    t = build_template(msg(Parameter("m", make_mio_array_type(), dict(cols))), pol)
    tr = t.tracked("m")
    for v in (7.5, 8.5):
        tr.set_column("v", [v] * items)
        rewrite_dirty(t, pol)
    assert stores == [items, items]
    cols["v"] = [8.5] * items
    oracle(t, msg(Parameter("m", make_mio_array_type(), cols)), pol)


def test_store_after_shift_byte_exact(stores):
    # A shift moves every later field of the chunk; the next store
    # reads the moved locations from the DUT.
    n = 3 * STORE_MIN_RUN
    pol = DiffPolicy()
    t = build_template(doubles([1.5] * n), pol)
    tr = t.tracked("a")
    tr[1] = -1.2345678901234567e-300  # outgrows its field
    assert rewrite_dirty(t, pol).expansions == 1
    idx = np.arange(2, n, 2)
    tr.update(idx, np.full(len(idx), 3.5))
    rewrite_dirty(t, pol)
    assert stores == [len(idx)]
    oracle(t, doubles(tr.data))


def test_store_after_steal_byte_exact(stores):
    n = 3 * STORE_MIN_RUN
    pol = DiffPolicy(
        stuffing=StuffingPolicy(StuffMode.FIXED, {"double": 12}),
        expansion=Expansion.STEAL,
    )
    t = build_template(doubles([1.5] * n), pol)
    tr = t.tracked("a")
    tr[4] = 0.12345678901234  # 16 chars > 12: steal or shift
    assert rewrite_dirty(t, pol).expansions == 1
    idx = np.arange(6, n, 2)
    tr.update(idx, np.full(len(idx), 3.5))
    rewrite_dirty(t, pol)
    assert stores == [len(idx)]
    oracle(t, doubles(tr.data), pol)


def test_rewrite_after_rebuild_byte_exact(stores):
    # A rebuild swaps in a fresh buffer and DUT; the rewrite must write
    # into them, not into anything it saw before.
    n = 2 * STORE_MIN_RUN
    pol = FIXED_MAX
    t = build_template(doubles([1.5] * n), pol)
    tr = t.tracked("a")
    idx = np.arange(n)
    tr.update(idx, np.full(n, 2.5))
    rewrite_dirty(t, pol)
    t.rebuild_in_place(pol)
    tr.update(idx, np.full(n, 3.5))
    rewrite_dirty(t, pol)
    assert stores == [n, n]
    oracle(t, doubles([3.5] * n), pol)


def test_multi_param_rewrite_byte_exact():
    t = build_template(
        msg(
            Parameter("a", ArrayType(DOUBLE), [1.5] * 16),
            Parameter("b", ArrayType(INT), list(range(16))),
        )
    )
    ta, tb = t.tracked("a"), t.tracked("b")
    for v in (2.5, 3.5, 4.5):
        ta.update(np.arange(0, 16, 2), np.full(8, v))
        tb.update(np.arange(0, 16, 4), np.arange(4) + int(v) + 5)
        with store_min_run(1):
            rewrite_dirty(t, DiffPolicy())
    oracle(
        t,
        msg(
            Parameter("a", ArrayType(DOUBLE), [4.5 if i % 2 == 0 else 1.5 for i in range(16)]),
            Parameter("b", ArrayType(INT), [i // 4 + 9 if i % 4 == 0 else i for i in range(16)]),
        ),
    )


# ----------------------------------------------------------------------
# client level: store and loop put the same bytes on the wire
# ----------------------------------------------------------------------
def _drive(policy, ops, n=4 * STORE_MIN_RUN):
    sink = CollectSink()
    client = BSoapClient(sink, policy)
    call = client.prepare(msg(Parameter("a", ArrayType(DOUBLE), [1.5] * n)))
    call.send()
    tr = call.tracked("a")
    rng = np.random.default_rng(11)
    for op in ops:
        if op == "repeat":
            idx = np.arange(0, n, 3)
            tr.update(idx, rng.random(len(idx)))
        elif op == "other":
            idx = np.arange(1, n, 7)
            tr.update(idx, rng.random(len(idx)))
        elif op == "grow":
            tr[int(rng.integers(n))] = -1.2345678901234567e-300
        elif op == "all":
            tr.update(np.arange(n), rng.random(n))
        elif op == "special":
            tr[int(rng.integers(n))] = float(rng.choice([np.inf, -np.inf, np.nan, 0.0, -0.0]))
        call.send()
    return sink.messages, client


OPS = ["repeat", "repeat", "grow", "repeat", "other", "special", "repeat", "all", "repeat", "repeat"]


@pytest.mark.parametrize(
    "base",
    [
        DiffPolicy(),
        FIXED_MAX,
        DiffPolicy(chunk=ChunkPolicy(chunk_size=256, reserve=16, split_threshold=128)),
    ],
    ids=["default", "fixed-max", "small-chunks"],
)
def test_store_and_loop_wire_identical(base):
    with store_min_run(1):
        stored, _ = _drive(base, OPS)
    with store_min_run(1 << 30):
        looped, _ = _drive(base, OPS)
    assert stored == looped


def test_client_stats_plan_counters_read_zero():
    # Kept for the ledger's ``core.plan_hit_share`` row; nothing counts them.
    _, client = _drive(FIXED_MAX, ["repeat", "repeat", "repeat"])
    st = client.stats
    assert (st.plan_hits, st.plan_misses) == (0, 0)
    assert st.rewrite.values_rewritten > 0
    assert "plan" not in st.summary()


def test_rewrite_span_has_duration():
    obs = Observability.recording()
    client = BSoapClient(CollectSink(), FIXED_MAX, obs=obs)
    call = client.prepare(msg(Parameter("a", ArrayType(DOUBLE), [1.5] * 64)))
    call.send()
    call.tracked("a").update(np.arange(0, 64, 2), np.full(32, 2.5))
    call.send()
    span = obs.tracer.last("rewrite")
    assert span.attrs["values"] == 32
    assert span.duration_s > 0
    assert not any(key.startswith("plan") for key in span.attrs)

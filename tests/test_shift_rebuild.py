"""The batched shift rewrite ≡ the paper's per-value shift.

A partial structural match rebuilds each growing chunk once
(``repro.core.differential``, "Slow path").  The reference is
:class:`~repro.baselines.paper_expansion.PaperTemplate`, a copy of the
template taken before the sends, written entry by entry with the
paper's one tail shift per expanding value.  Chunk boundaries may
differ between the two; the document bytes, the lengths and widths,
every entry's document offset and the expansion count may not.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import (
    MIO_MAX_SPLIT,
    MIO_MIN_SPLIT,
    mio_columns_of_widths,
    mio_message,
)
from repro.baselines.paper_expansion import PaperStats, PaperTemplate, pending_writes
from repro.buffers.config import ChunkPolicy
from repro.core.client import BSoapClient
from repro.core.differential import rewrite_dirty
from repro.core.policy import DiffPolicy
from repro.core.serializer import build_template
from repro.core.stats import MatchKind
from repro.schema.composite import ArrayType
from repro.schema.mio import make_mio_array_type
from repro.schema.types import DOUBLE, INT, STRING
from repro.soap.message import Parameter, SOAPMessage
from repro.transport.loopback import MemcpySink

# (narrow, wide) value pools per leaf type: a narrow value written over
# a wide one shrinks its field's text, a wide one over a narrow expands.
POOLS = {
    "d": ([0.5, 1.0, 7.0], [-1.2345678901234567e-300, 0.1234567890123456, 1e200]),
    "i": ([0, 3, -1], [-2147483648, 2147483647, 123456789]),
    "s": (["a", "", "bc"], ["w" * 70, "x" * 150, "long <&> text " * 6]),
}


def rewrite_both(template, reference, policy):
    """One send's rewrite of *template*; the same writes are made value
    by value on *reference* (each expansion shifts its chunk tail),
    counted afresh in ``reference.stats``."""
    writes = pending_writes(template, policy.float_format)
    reference.stats = PaperStats()
    reference.write_all(writes)
    return rewrite_dirty(template, policy)


def doc_offsets(template):
    """Each entry's offset in the whole document: chunk-order prefix
    plus ``value_off``."""
    prefix = {}
    total = 0
    for chunk in template.buffer.iter_chunks():
        prefix[chunk.cid] = total
        total += chunk.used
    dut = template.dut
    base = np.array([prefix[c] for c in dut.chunk_id.tolist()], dtype=np.int64)
    return base + dut.value_off


def assert_same(batched, reference, b_stats):
    batched.validate()
    assert batched.tobytes() == reference.tobytes()
    np.testing.assert_array_equal(batched.dut.ser_len, reference.length)
    np.testing.assert_array_equal(batched.dut.field_width, reference.width)
    np.testing.assert_array_equal(doc_offsets(batched), reference.doc_offsets())
    r_stats = reference.stats
    assert b_stats.expansions == r_stats.expansions
    assert b_stats.values_rewritten == r_stats.values_rewritten
    assert b_stats.tag_shifts == r_stats.tag_shifts
    assert b_stats.pad_bytes == r_stats.pad_bytes


def _mutate(data, templates, sizes):
    """Draw one send's changes and apply them to every template alike.

    Per parameter: a share of its values to change (none to all) and
    the odds that a changed value is wide, so sends range from a few
    scattered expansions to every field growing past its chunk.
    """
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    changes = []
    for name, n in sizes.items():
        share = data.draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
        wide_odds = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
        for i in np.flatnonzero(rng.random(n) < share).tolist():
            col = rng.choice(["x", "y", "v"]) if name == "m" else None
            kind = {"m": "d" if col == "v" else "i"}.get(name, name)
            pool = POOLS[kind][int(rng.random() < wide_odds)]
            changes.append((name, i, col, pool[rng.integers(len(pool))]))
    for t in templates:
        for name, i, col, value in changes:
            if col is None:
                t.tracked(name)[i] = value
            else:
                t.tracked(name).set(i, col, value)


@given(
    st.sampled_from([4, 8, 16, 32, 64, 128]),
    st.sampled_from([16, 512]),
    st.sampled_from([1024, 4096, 1 << 20]),
    st.sampled_from([1, 40, 600, 2000]),
    st.sampled_from([1, 40, 300]),
    st.sampled_from([1, 20, 60]),
    st.sampled_from([1, 40, 400]),
    st.integers(2, 4),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_batched_shift_equals_sequential(
    kib, reserve, split_threshold, nd, ni, ns, nm, sends, data
):
    chunk = ChunkPolicy(
        chunk_size=kib * 1024, reserve=reserve, split_threshold=split_threshold
    )
    policy = DiffPolicy(chunk=chunk)
    message = SOAPMessage(
        "op",
        "urn:test",
        [
            Parameter("d", ArrayType(DOUBLE), [1.0] * nd),
            Parameter("i", ArrayType(INT), [7] * ni),
            Parameter("s", ArrayType(STRING), ["ab"] * ns),
            Parameter(
                "m",
                make_mio_array_type(),
                {"x": [1] * nm, "y": [2] * nm, "v": [0.5] * nm},
            ),
        ],
    )
    batched = build_template(message, policy)
    reference = PaperTemplate(batched)
    sizes = {"d": nd, "i": ni, "s": ns, "m": nm}
    for _ in range(sends):
        _mutate(data, (batched,), sizes)
        b_stats = rewrite_both(batched, reference, policy)
        assert_same(batched, reference, b_stats)


def test_splits_and_reallocs_match_sequential():
    """Growth past a chunk's capacity: a split (chunk past the split
    threshold) and a realloc (below it) give the reference's bytes."""
    for chunk in (
        ChunkPolicy(chunk_size=4096, reserve=64, split_threshold=1024),
        ChunkPolicy(chunk_size=4096, reserve=64, split_threshold=1 << 20),
    ):
        policy = DiffPolicy(chunk=chunk)
        message = SOAPMessage(
            "op", "urn:test", [Parameter("d", ArrayType(DOUBLE), [1.0] * 600)]
        )
        batched = build_template(message, policy)
        reference = PaperTemplate(batched)
        wide = np.full(600, -1.2345678901234567e-300)
        batched.tracked("d").update(np.arange(600), wide)
        b_stats = rewrite_both(batched, reference, policy)
        assert_same(batched, reference, b_stats)
        assert b_stats.expansions == 600
        mode = b_stats.splits if chunk.split_threshold == 1024 else b_stats.reallocs
        assert mode > 0
        if chunk.split_threshold == 1024:
            # Split pieces stay within the chunk size.
            assert max(c.used for c in batched.buffer.iter_chunks()) <= 4096


def test_worst_case_mio_moves_each_byte_about_once():
    """The paper's worst-case MIO send (every field expands) copies at
    most twice the document, not once per expansion."""
    n = 2000
    call = BSoapClient(MemcpySink()).prepare(
        mio_message(mio_columns_of_widths(n, MIO_MIN_SPLIT, seed=1))
    )
    call.send()
    big = mio_columns_of_widths(n, MIO_MAX_SPLIT, seed=2)
    tracked = call.tracked("mesh")
    idx = np.arange(n)
    for col in ("x", "y", "v"):
        tracked.set_items(idx, col, big[col])
    report = call.send()
    assert report.match_kind is MatchKind.PARTIAL_STRUCTURAL
    assert report.rewrite.expansions == 3 * n
    assert report.buffer_bytes_moved <= 2 * report.bytes_sent


@pytest.mark.parametrize("kib", [4, 32])
def test_shift_spans_one_per_rebuilt_chunk(kib):
    from repro.obs import Observability

    obs = Observability.recording()
    policy = DiffPolicy(chunk=ChunkPolicy().with_chunk_size(kib * 1024))
    message = SOAPMessage(
        "op", "urn:test", [Parameter("d", ArrayType(DOUBLE), [1.0] * 800)]
    )
    t = build_template(message, policy)
    t.tracked("d").update(np.arange(800), np.full(800, 0.1234567890123456))
    stats = rewrite_dirty(t, policy, obs)
    spans = obs.tracer.spans("shift")
    assert len({s.attrs["chunk"] for s in spans}) == len(spans)
    assert sum(s.attrs["expansions"] for s in spans) == stats.expansions == 800
    assert all(s.attrs["bytes"] > 0 and s.attrs["mode"] for s in spans)
    assert sum(s.attrs["bytes"] for s in spans) == t.buffer.bytes_moved

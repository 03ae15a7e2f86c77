"""Oracle-based wire fuzzing across all four match levels.

Every envelope a :class:`BSoapClient` produces — whatever differential
path it took (content resend, dirty-value rewrite, shifting/stealing,
full serialization) — must be parse-equal to what the naive
serialize-everything baseline emits for the same message.  The
:class:`~repro.obs.trace.RecordingTracer` span stream must report the
match level the client actually chose, agreeing with the
:class:`SendReport`.

The reply direction gets the same treatment over live servers
(:func:`reply_lockstep`): an offering channel, whose replies arrive as
RDF1 frames against its mirror, runs in lockstep with a plain one, and
what it reconstructs must be byte-identical to the full-XML reply at
each of the *responder's* four match levels, on both front ends.

Each parametrized level runs enough randomized (schema, mutation
sequence) rounds for the suite to total 200 oracle-checked calls
(4 levels x 50), per the acceptance criterion.  Schemas are
randomized: the mutated double array rides with a random set of fixed
extra parameters (int arrays, string arrays, scalars, MIO struct
arrays) and a random operation name.  ``--rng-seed`` reseeds the whole
corpus; CI's slow job randomizes it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.naive import NaiveClient
from repro.bench.workloads import doubles_of_width
from repro.core.client import BSoapClient
from repro.core.policy import DiffPolicy, StuffingPolicy, StuffMode
from repro.core.stats import MatchKind
from repro.obs import Observability
from repro.schema.composite import ArrayType
from repro.schema.mio import make_mio_array_type
from repro.schema.types import DOUBLE, INT, STRING
from repro.soap.message import Parameter, SOAPMessage
from repro.transport.loopback import CollectSink
from repro.xmlkit.canonical import diff_documents, documents_equivalent

#: Oracle-checked calls per level; 4 levels x 50 = the 200-iteration
#: fuzz budget.
CALLS_PER_LEVEL = 50

LEVELS = (
    "content",
    "perfect-structural",
    "partial-structural",
    "first-time",
)


def _level_policy(level: str) -> DiffPolicy:
    if level == "partial-structural":
        # No stuffing: a wider value cannot fit slack, it must shift.
        return DiffPolicy(stuffing=StuffingPolicy(StuffMode.NONE))
    return DiffPolicy(stuffing=StuffingPolicy(StuffMode.MAX))


def _random_extra_params(rng: np.random.Generator) -> list:
    """A random set of parameters that stay fixed across a sequence."""
    params = []
    if rng.random() < 0.5:
        params.append(Parameter("tag", INT, int(rng.integers(-999, 999))))
    if rng.random() < 0.5:
        params.append(
            Parameter(
                "counts",
                ArrayType(INT),
                rng.integers(-50, 50, int(rng.integers(1, 6))),
            )
        )
    if rng.random() < 0.4:
        n = int(rng.integers(1, 4))
        params.append(
            Parameter(
                "labels",
                ArrayType(STRING),
                ["s%d" % rng.integers(0, 100) for _ in range(n)],
            )
        )
    if rng.random() < 0.3:
        k = int(rng.integers(1, 4))
        params.append(
            Parameter(
                "mesh",
                make_mio_array_type(),
                {
                    "x": rng.integers(0, 100, k),
                    "y": rng.integers(0, 100, k),
                    "v": rng.random(k),
                },
            )
        )
    return params


def _sequence(level: str, rng: np.random.Generator, length: int):
    """One randomized same-structure mutation sequence at *level*.

    Yields ``length`` messages; call 0 is always a first-time send,
    later calls hit *level* by construction (see
    :mod:`repro.runtime.loadgen` for the width/pool reasoning).
    """
    op = "op%d" % rng.integers(0, 1000)
    ns = "urn:oracle"
    n = int(rng.integers(4, 24))
    seed = int(rng.integers(1 << 30))
    extra = _random_extra_params(rng)

    def msg(values: np.ndarray, name: str = op) -> SOAPMessage:
        return SOAPMessage(
            name, ns, [Parameter("data", ArrayType(DOUBLE), values)] + extra
        )

    if level == "content":
        values = doubles_of_width(n, 14, seed=seed)
        return [msg(values) for _ in range(length)]

    if level == "perfect-structural":
        pools = (
            doubles_of_width(n, 14, seed=seed),
            doubles_of_width(n, 14, seed=seed + 1),
        )
        # Flip each chosen position to the *other* pool's value so a
        # mutation is never a no-op (which would be a content match).
        eligible = np.nonzero(pools[0] != pools[1])[0]
        assert len(eligible) > 0
        out = [msg(pools[0].copy())]
        current = pools[0].copy()
        for _ in range(1, length):
            k = min(len(eligible), max(1, n // 4))
            idx = rng.choice(eligible, k, replace=False)
            current = current.copy()
            for j in idx:
                current[j] = (
                    pools[1][j] if current[j] == pools[0][j] else pools[0][j]
                )
            out.append(msg(current))
        return out

    if level == "partial-structural":
        # Strictly growing widths: every mutated value outgrows the
        # unstuffed field it replaced, forcing shift/steal work.
        current = doubles_of_width(n, 10, seed=seed).copy()
        out = []
        for i in range(length):
            if i > 0:
                width = 10 + 2 * i  # 12, 14, ... (<= 22 for length 7)
                k = max(1, n // 4)
                idx = rng.choice(n, k, replace=False)
                current = current.copy()
                current[idx] = doubles_of_width(k, width, seed=seed + i)
            out.append(msg(current))
        return out

    # first-time: a fresh structure signature on every call.
    return [
        msg(doubles_of_width(n + i, 14, seed=seed + i)) for i in range(length)
    ]


def _expected_level(level: str, call_index: int) -> str:
    if call_index == 0 or level == "first-time":
        return MatchKind.FIRST_TIME.value
    return level


@pytest.mark.parametrize("level", LEVELS)
def test_oracle_fuzz_parse_equal_and_spans(level, rng_seed):
    rng = np.random.default_rng(rng_seed + LEVELS.index(level))
    seq_len = 6 if level == "partial-structural" else 5
    naive_sink = CollectSink()
    naive = NaiveClient(naive_sink)
    checked = 0
    while checked < CALLS_PER_LEVEL:
        obs = Observability.recording()
        sink = CollectSink()
        client = BSoapClient(sink, _level_policy(level), obs=obs)
        for i, message in enumerate(_sequence(level, rng, seq_len)):
            report = client.send(message)
            expected = _expected_level(level, i)
            assert report.match_kind.value == expected, (
                f"call {i} at {level}: report says {report.match_kind.value}"
            )
            span = obs.tracer.last("send")
            assert span is not None
            assert span.attrs["match_level"] == expected
            assert span.attrs["bytes"] == report.bytes_sent
            naive.send(message)
            assert documents_equivalent(sink.last, naive_sink.last), (
                f"call {i} at {level} diverged from naive oracle: "
                + diff_documents(sink.last, naive_sink.last)
            )
            checked += 1
            if checked >= CALLS_PER_LEVEL:
                break
        # The metrics side of the same story: per-kind counters match
        # the client's own ClientStats for the sequence.
        sends = obs.metrics.get("repro_sends_total")
        for kind, count in client.stats.by_kind.items():
            assert sends.value(kind=kind.value) == count


@pytest.mark.parametrize("level", LEVELS)
def test_oracle_delta_wire_reconstruction(level, rng_seed):
    """Delta-frame reconstructions are byte-identical to the plain
    differential client's wire, at every level and through fallbacks.

    A delta client (over :class:`DeltaLoopback`) and a plain client
    with the same policy run the same randomized sequences in
    lockstep: whatever the server *reconstructs* (from a frame) or
    receives (full XML fallback) must equal the plain client's bytes
    exactly, and stay parse-equal to the naive oracle.
    """
    from repro.core.policy import DeltaPolicy
    from repro.wire.loopback import DeltaLoopback

    rng = np.random.default_rng(rng_seed + 17 + LEVELS.index(level))
    seq_len = 6 if level == "partial-structural" else 5
    naive_sink = CollectSink()
    naive = NaiveClient(naive_sink)
    checked = 0
    delta_sends = 0
    while checked < CALLS_PER_LEVEL:
        base = _level_policy(level)
        policy = DiffPolicy(stuffing=base.stuffing, delta=DeltaPolicy(offer=True))
        loop = DeltaLoopback(keep_documents=True)
        client = BSoapClient(loop, policy)
        client.wire.negotiated = True  # the loopback peer accepts
        plain_sink = CollectSink()
        plain = BSoapClient(plain_sink, policy)
        for i, message in enumerate(_sequence(level, rng, seq_len)):
            report = client.send(message)
            plain.send(message)
            assert loop.last_document == plain_sink.last, (
                f"call {i} at {level}: delta reconstruction diverged "
                f"from the plain differential wire "
                f"(delta={report.delta}, kind={report.match_kind.value})"
            )
            naive.send(message)
            assert documents_equivalent(loop.last_document, naive_sink.last), (
                f"call {i} at {level} diverged from naive oracle: "
                + diff_documents(loop.last_document, naive_sink.last)
            )
            if report.delta:
                delta_sends += 1
            checked += 1
            if checked >= CALLS_PER_LEVEL:
                break
    if level in ("content", "perfect-structural"):
        # Steady-state sends at these levels must actually use frames,
        # otherwise this test exercises nothing.
        assert delta_sends > 0


def test_oracle_delta_mid_session_resync(rng_seed):
    """Mirror loss mid-sequence: the resync error surfaces once, the
    recovery send is full XML, and reconstructions stay byte-exact."""
    from repro.core.policy import DeltaPolicy
    from repro.errors import DeltaResyncError
    from repro.wire.loopback import DeltaLoopback

    rng = np.random.default_rng(rng_seed + 99)
    policy = DiffPolicy(
        stuffing=StuffingPolicy(StuffMode.MAX), delta=DeltaPolicy(offer=True)
    )
    loop = DeltaLoopback(keep_documents=True)
    client = BSoapClient(loop, policy)
    client.wire.negotiated = True
    plain_sink = CollectSink()
    plain = BSoapClient(plain_sink, policy)
    naive_sink = CollectSink()
    naive = NaiveClient(naive_sink)
    messages = _sequence("perfect-structural", rng, 8)
    for i, message in enumerate(messages):
        if i == 4:
            loop.delta.clear()  # the peer lost every mirror
            with pytest.raises(DeltaResyncError):
                client.send(message)
        report = client.send(message)
        if i == 4:
            assert not report.delta  # recovery is a full resend
        plain.send(message)
        naive.send(message)
        assert loop.last_document == plain_sink.last
        assert documents_equivalent(loop.last_document, naive_sink.last)
    # after the resync, frames flow again
    assert client.send(messages[-2]).delta


def test_partial_sequences_actually_expand(rng_seed):
    """Guard the fuzz construction: the partial level must shift/steal."""
    rng = np.random.default_rng(rng_seed)
    client = BSoapClient(CollectSink(), _level_policy("partial-structural"))
    expansions = 0
    for message in _sequence("partial-structural", rng, 6):
        expansions += client.send(message).rewrite.expansions
    assert expansions > 0


# ----------------------------------------------------------------------
# the reply direction, over live servers
# ----------------------------------------------------------------------
#: The responder's match level for a reply that echoes a request of
#: *level*: its default policy is unstuffed, so a wider value outgrows
#: its field (partial) and a new array length is a new structure.
_RESPONDER_KIND = {
    "content": MatchKind.CONTENT_MATCH,
    "perfect-structural": MatchKind.PERFECT_STRUCTURAL,
    "partial-structural": MatchKind.PARTIAL_STRUCTURAL,
    "first-time": MatchKind.FIRST_TIME,
}


def reply_lockstep(level: str, front: str, rng: np.random.Generator):
    """Drive ``CALLS_PER_LEVEL`` echo calls through an offering and a
    plain channel in lockstep; yields ``(call index, sent values,
    offering channel, its response, plain channel, its response)``
    after checking the responder took *level*'s path for both."""
    from repro.channel import RPCChannel
    from repro.core.policy import DeltaPolicy
    from repro.schema.registry import TypeRegistry
    from repro.server.async_server import make_server
    from repro.server.service import SOAPService

    service = SOAPService("urn:oracle", TypeRegistry())

    @service.operation("echo", result_type=ArrayType(DOUBLE))
    def echo(data):
        return data

    def echo_of(message: SOAPMessage) -> SOAPMessage:
        data = message.params[0]
        return SOAPMessage("echo", "urn:oracle", [data])

    seq_len = 6 if level == "partial-structural" else 5
    base = _level_policy(level)
    offer = DiffPolicy(stuffing=base.stuffing, delta=DeltaPolicy(offer=True))
    checked = 0
    with make_server(service, front) as server:
        while checked < CALLS_PER_LEVEL:
            with RPCChannel(
                "127.0.0.1", server.port, policy=offer
            ) as offering, RPCChannel(
                "127.0.0.1", server.port, policy=base
            ) as plain:
                for i, message in enumerate(_sequence(level, rng, seq_len)):
                    message = echo_of(message)
                    before = service.response_stats.by_kind
                    got = offering.call(message)
                    want = plain.call(message)
                    after = service.response_stats.by_kind
                    kind = (
                        MatchKind.FIRST_TIME if i == 0 else _RESPONDER_KIND[level]
                    )
                    assert after[kind] - before[kind] == 2, (
                        f"call {i} at {level}: responder took "
                        f"{ {k.value: after[k] - before[k] for k in after} }"
                    )
                    yield i, message.params[0].value, offering, got, plain, want
                    checked += 1
                    if checked >= CALLS_PER_LEVEL:
                        break


@pytest.mark.parametrize("front", ("threaded", "async"))
@pytest.mark.parametrize("level", LEVELS)
def test_oracle_reply_frame_reconstruction(level, front, rng_seed):
    """What the offering channel reconstructs from reply frames is
    byte-identical to the full-XML reply the plain channel receives,
    and both decode to the echoed values."""
    rng = np.random.default_rng(rng_seed + 41 + LEVELS.index(level))
    framed = 0
    for i, values, offering, got, plain, want in reply_lockstep(level, front, rng):
        assert np.array_equal(got.result(), values), f"call {i} at {level}"
        assert np.array_equal(want.result(), values), f"call {i} at {level}"
        assert offering.last_response_body == plain.last_response_body, (
            f"call {i} at {level}: reply reconstruction diverged from the "
            "full-XML reply"
        )
        assert offering.last_send_report.retries == 0
        applied = offering.replies.frames_applied
        if i == 0:
            seen = 0
        # Steady-state content/perfect/partial replies must be frames
        # (a partial reply's widenings ride as pad insertions), every
        # first-time reply full XML with a fresh announce.
        expect_frame = i > 0 and level != "first-time"
        assert applied - seen == int(expect_frame), f"call {i} at {level}"
        seen = applied
        framed += int(expect_frame)
        assert not any(
            outcome.startswith("reply-resync")
            for outcome in offering.replies.outcomes
        )
    if level in ("content", "perfect-structural"):
        assert framed >= CALLS_PER_LEVEL * 3 // 4

"""Lazy template text: a typed-frame sender leaves dirty doubles stale.

When a MINIMAL client's delta encoder will carry a send's dirty doubles
as binary64, the rewrite does not format them: the template marks them
*stale* and every reader of its bytes renders them first
(``repro.core.differential``, "Deferred text").  Each test drives such a
client over a :class:`~repro.wire.loopback.DeltaLoopback` beside a
plain differential client and the naive serializer, and after every
send checks that the delivered document, the sender's template bytes
and the plain client's bytes are one byte string, parse-equal to the
naive client's.  Covered:

* each fallback to full XML after deferred sends (frame too large, too
  many splices, no baseline, a layout change, a send through another
  client, a resync after a failed frame), and an expansion, which
  frames its widening beside the deferred doubles;
* each reader of template text: ``views()``, ``tobytes()``,
  ``validate()``;
* a ``TransportError`` on the frame, then the rebuild;
* an out-of-range ``xsd:int`` beside deferred doubles (the
  ``LexicalError`` rollback);
* a template store shared with an un-negotiated client;
* an un-negotiated client, which defers nothing;
* echo replies on both front ends;

and one Hypothesis test draws sequences of these steps.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.naive import NaiveClient
from repro.channel import RPCChannel
from repro.core.client import BSoapClient
from repro.core.differential import rewrite_dirty
from repro.core.policy import DeltaPolicy, DiffPolicy, StuffingPolicy, StuffMode
from repro.core.stats import MatchKind
from repro.errors import LexicalError, TransportError
from repro.lexical.floats import FloatFormat
from repro.schema.composite import ArrayType
from repro.schema.registry import TypeRegistry
from repro.schema.types import DOUBLE, INT, STRING
from repro.server.async_server import make_server
from repro.server.parser import SOAPRequestParser
from repro.server.service import SOAPService
from repro.soap.message import Parameter, SOAPMessage, structure_signature
from repro.transport.loopback import CollectSink
from repro.wire.loopback import DeltaLoopback
from repro.xmlkit.canonical import diff_documents, documents_equivalent

NS = "urn:lazy"
MAX = StuffingPolicy(StuffMode.MAX)
#: Frames of at most 16 entries and a tenth of the ~2.4 kB document: 3
#: typed doubles frame, 12 are too large, 20 too many.
OFFER = DeltaPolicy(offer=True, max_splices=16, max_frame_fraction=0.1)
FEW, LARGE, MANY = 3, 12, 20
N = 48
#: A double whose MINIMAL text fills a MAX-stuffed field (24 bytes).
LONG = -1.2345678901234567e-300


def _policy(delta: DeltaPolicy = DeltaPolicy()):
    return DiffPolicy(stuffing=MAX, delta=delta)


class FlakyLoopback(DeltaLoopback):
    """A delta loopback whose next *fail_frames* frames are lost."""

    fail_frames = 0

    def send_delta_frame(self, frame: bytes) -> int:
        if self.fail_frames:
            self.fail_frames -= 1
            raise TransportError("frame lost")
        return super().send_delta_frame(frame)


def _rendered(template) -> bytes:
    """The template's text with its stale entries rendered, and still
    marked stale.  No reader sees a stale entry's text and rendering is
    idempotent, so the client goes on as if it had never been read."""
    stale = template.stale
    text = template.tobytes()
    template.stale = stale
    return text


class Side:
    """A deferring client on a delta loopback, and an un-negotiated
    client sharing its template store."""

    def __init__(self, delta, negotiated) -> None:
        self.loop = FlakyLoopback()
        self.client = BSoapClient(self.loop, _policy(delta))
        if self.client.wire is not None:
            self.client.wire.negotiated = negotiated
        self.sharer = BSoapClient(
            DeltaLoopback(),
            _policy(DeltaPolicy(offer=True)),
            store=self.client.store,
        )


class Rig:
    """Two deferring clients, a plain one and the naive one, in lockstep.

    The *shadow* client's template is read (:func:`_rendered`) after
    every send, the first client's only when a test says so; both must
    deliver the plain client's bytes.
    """

    def __init__(self, negotiated=True, delta=OFFER, seed=0) -> None:
        self.rng = np.random.default_rng(seed)
        self.sides = [Side(delta, negotiated) for _ in range(2)]
        self.loop, self.client = self.sides[0].loop, self.sides[0].client
        self.plain_sink = CollectSink()
        self.plain = BSoapClient(self.plain_sink, _policy())
        self.naive_sink = CollectSink()
        self.naive = NaiveClient(self.naive_sink)
        self.values = np.full(N, 0.5)
        self.label = "a"
        self.count = 7
        self.last = b""

    def message(self) -> SOAPMessage:
        return SOAPMessage(
            "put",
            NS,
            [
                Parameter("label", STRING, self.label),
                Parameter("data", ArrayType(DOUBLE), self.values.copy()),
                Parameter("count", INT, self.count),
            ],
        )

    def template_of(self, side: Side):
        return side.client.store.get(structure_signature(self.message()))

    @property
    def template(self):
        return self.template_of(self.sides[0])

    def mutate(self, k: int) -> None:
        """New values, of every text length, for *k* random doubles."""
        idx = self.rng.choice(N, k, replace=False)
        fresh = self.rng.standard_normal(k) * 10.0 ** self.rng.integers(-300, 300, k)
        fresh[: k // 3] = np.round(fresh[: k // 3], 1)
        self.values[idx] = fresh

    def send(self, read: bool = False, sharer: bool = False, where: str = ""):
        """Send the current message through every client; check."""
        message = self.message()
        senders = [side.sharer if sharer else side.client for side in self.sides]
        report = senders[0].send(message)
        senders[1].send(message)
        self.plain.send(message)
        self.naive.send(message)
        delivered, shadow = (c.transport.last_document for c in senders)
        assert delivered == shadow, f"{where}: the two deferring clients differ"
        assert delivered == _rendered(self.template_of(self.sides[1])), (
            f"{where}: delivered document != sender's text"
        )
        assert delivered == self.plain_sink.last, f"{where}: != plain wire"
        assert documents_equivalent(delivered, self.naive_sink.last), (
            f"{where}: " + diff_documents(delivered, self.naive_sink.last)
        )
        if read:
            assert self.template.tobytes() == delivered, f"{where}: template text"
            assert self.template.stale is None
        self.last = delivered
        return report

    def fail(self) -> int:
        """Send the current message through both deferring clients,
        losing any frame; the number of sends that raised."""
        lost = 0
        for side in self.sides:
            side.loop.fail_frames = 1
            try:
                side.client.send(self.message())
            except TransportError:
                lost += 1
            side.loop.fail_frames = 0
        if lost:
            # The failed sends rebuild: so does the reference.
            self.plain.quarantine(self.message())
        return lost

    def defer(self, sends: int = 2, k: int = FEW) -> None:
        """*sends* framed sends of *k* new doubles each, text left stale."""
        for _ in range(sends):
            self.mutate(k)
            report = self.send()
            assert report.delta and report.rewrite.values_deferred == k
        assert self.template.stale is not None
        assert self.template.buffer.tobytes() != self.last


def _started(**kw) -> Rig:
    rig = Rig(**kw)
    rig.send(read=True, where="first send")
    return rig


# ----------------------------------------------------------------------
# readers
# ----------------------------------------------------------------------
def _read(template, reader: str) -> bytes:
    if reader == "views":
        return b"".join(bytes(v) for v in template.views())
    if reader == "tobytes":
        return template.tobytes()
    template.validate()
    return template.buffer.tobytes()


@pytest.mark.parametrize("reader", ["views", "tobytes", "validate"])
def test_each_reader_renders_stale_text(reader):
    rig = _started()
    rig.defer()
    template = rig.template
    # Two sends of three doubles each; one may be drawn twice.
    assert 3 <= int(np.count_nonzero(template.stale)) <= 6
    assert _read(template, reader) == rig.last == rig.plain_sink.last
    assert template.stale is None
    stats = rig.client.stats.rewrite
    assert stats.values_deferred == 6 and stats.values_rewritten == 6


def test_deferred_values_are_counted_once_and_served():
    rig = _started()
    rig.defer(sends=3, k=4)
    rig.template.tobytes()  # the render counts nothing
    stats = rig.client.stats
    assert stats.rewrite.values_rewritten == stats.rewrite.values_deferred == 12
    assert stats.rewrite.tag_shifts == 0
    samples = rig.client.metric_samples()
    assert samples["repro_values_deferred_total",] == 12
    assert samples["repro_values_rewritten_total",] == 12


# ----------------------------------------------------------------------
# fallbacks to full XML
# ----------------------------------------------------------------------
def _layout_change(rig: Rig) -> None:
    # A rewrite outside any send moves the layout under the baseline.
    rig.label = "a" * 9
    for side in rig.sides:
        template = rig.template_of(side)
        template.absorb(rig.message())
        rewrite_dirty(template, side.client.policy)


def _reset(rig: Rig) -> None:
    for side in rig.sides:
        side.client.wire.reset_baselines()
    rig.mutate(FEW)


TRIGGERS = {
    "frame-too-large": lambda rig: rig.mutate(LARGE),
    "too-many-splices": lambda rig: rig.mutate(MANY),
    "no-baseline": _reset,
    "layout-epoch": _layout_change,
    "foreign-send": lambda rig: (rig.send(sharer=True), rig.mutate(FEW)),
}


@pytest.mark.parametrize("reason", sorted(TRIGGERS))
def test_fallback_after_deferred_sends_carries_rendered_text(reason):
    rig = _started()
    rig.defer()
    TRIGGERS[reason](rig)
    deferred = rig.client.stats.rewrite.values_deferred
    report = rig.send(where=reason)
    assert not report.delta
    # The fallback wrote this send's dirty doubles: none counts deferred.
    assert report.rewrite.values_deferred == 0
    assert rig.client.stats.rewrite.values_deferred == deferred
    assert rig.client.wire.fallbacks == {reason: 1}
    assert rig.template.stale is None
    rig.mutate(FEW)
    assert rig.send(read=True, where=f"after {reason}").delta


def test_expansion_after_deferred_sends_frames_with_insertions():
    """A label outgrowing its field beside stale doubles is a partial
    match that frames: the widening as a pad insertion, this
    send's dirty doubles typed and still deferred."""
    rig = _started()
    rig.defer()
    rig.label = "a" * 30
    rig.mutate(FEW)
    report = rig.send(where="expansion")
    assert report.match_kind is MatchKind.PARTIAL_STRUCTURAL
    assert report.delta and rig.client.wire.fallbacks == {}
    assert report.rewrite.values_deferred == FEW
    assert rig.loop.insertions == 1
    assert rig.template.stale is not None
    # The peer's mirror decodes to what was sent.
    decoded = SOAPRequestParser().parse(rig.loop.last_document).message
    assert decoded.value("label") == rig.label
    assert np.array_equal(decoded.value("data"), rig.values)
    assert decoded.value("count") == rig.count
    rig.mutate(FEW)
    assert rig.send(read=True, where="after expansion").delta


def test_lost_frame_rolls_back_then_rebuilds():
    rig = _started()
    rig.defer()
    snapshot = rig.template.stale.copy()
    rig.mutate(FEW)
    assert rig.fail() == 2
    template = rig.template
    assert template.suspect
    # The rollback keeps the mask (the rebuild drops it).
    assert bool(template.stale[snapshot].all())
    assert np.count_nonzero(template.dut.dirty) >= 1
    report = rig.send(where="rebuild")
    assert report.forced_full and not report.delta
    assert template.stale is None
    rig.mutate(FEW)
    assert rig.send(read=True).delta


def test_out_of_range_int_rolls_back_deferred_doubles():
    rig = _started()
    rig.defer()
    report = _lexical(rig, 5)
    assert report.forced_full and not report.delta
    rig.mutate(FEW)
    assert rig.send(read=True).delta


# ----------------------------------------------------------------------
# clients that do not defer
# ----------------------------------------------------------------------
def test_shared_store_with_unnegotiated_client():
    rig = _started()
    rig.defer()
    rig.mutate(FEW)
    report = rig.send(sharer=True, where="sharer")
    assert not report.delta
    assert rig.sides[0].sharer.stats.rewrite.values_deferred == 0
    assert rig.template.stale is None
    rig.mutate(FEW)
    report = rig.send(read=True, where="after the sharer")
    assert not report.delta
    assert rig.client.wire.fallbacks == {"foreign-send": 1}
    rig.defer()
    assert rig.template.tobytes() == rig.last


@pytest.mark.parametrize("offer", [True, False])
def test_unnegotiated_client_defers_nothing(offer):
    delta = OFFER if offer else DeltaPolicy()
    rig = _started(negotiated=False, delta=delta)
    for _ in range(4):
        rig.mutate(5)
        rig.send()
        assert rig.template.stale is None
    assert rig.client.stats.rewrite.values_deferred == 0
    assert rig.client.stats.delta_sends == 0


def test_fixed_format_and_narrow_fields_are_written_eagerly():
    """Only a double whose field holds any MINIMAL text defers."""
    fixed = BSoapClient(
        DeltaLoopback(),
        DiffPolicy(
            stuffing=MAX, float_format=FloatFormat.FIXED, delta=DeltaPolicy(offer=True)
        ),
    )
    unstuffed = BSoapClient(DeltaLoopback(), DiffPolicy(delta=DeltaPolicy(offer=True)))
    for client in (fixed, unstuffed):
        client.wire.negotiated = True
        values = np.full(16, 0.5)
        for step in range(3):
            values = values.copy()
            values[step] = 1.5 + step  # same text length: no expansion
            client.send(
                SOAPMessage("put", NS, [Parameter("data", ArrayType(DOUBLE), values)])
            )
        assert client.stats.rewrite.values_deferred == 0
        assert client.stats.delta_sends == 2


# ----------------------------------------------------------------------
# echo replies
# ----------------------------------------------------------------------
@pytest.mark.parametrize("front", ["threaded", "async"])
def test_echo_replies_render(front):
    service = SOAPService(NS, TypeRegistry(), response_policy=_policy())

    @service.operation("echo", result_type=ArrayType(DOUBLE))
    def echo(data):
        return data

    rng = np.random.default_rng(5)
    values = np.full(64, 0.5)
    with make_server(service, front) as server:
        offer = RPCChannel(
            "127.0.0.1", server.port, policy=_policy(DeltaPolicy(offer=True))
        )
        plain = RPCChannel("127.0.0.1", server.port, policy=_policy())
        with offer, plain:
            # 64 dirty: the reply frame is too large, full XML renders.
            for k in (0, 3, 5, 64, 2, 0, 4):
                values = values.copy()
                values[rng.choice(64, k, replace=False)] = rng.standard_normal(k)
                message = SOAPMessage(
                    "echo", NS, [Parameter("data", ArrayType(DOUBLE), values)]
                )
                assert np.array_equal(offer.call(message).result(), values)
                plain.call(message)
                assert offer.last_response_body == plain.last_response_body
        stats = server.service.response_stats
        assert stats.rewrite.values_deferred > 0
        assert stats.delta_sends >= 3


# ----------------------------------------------------------------------
# sequences of steps
# ----------------------------------------------------------------------
def _lexical(rig: Rig, k: int = FEW):
    """*k* new doubles beside an out-of-range ``xsd:int``: every client
    refuses the send and rolls it back; then the int is put right."""
    rig.mutate(k)
    saved, rig.count = rig.count, 2**40
    for client in (*(side.client for side in rig.sides), rig.plain):
        with pytest.raises(LexicalError):
            client.send(rig.message())
    assert rig.template.suspect
    rig.count = saved
    return rig.send(where="lexical")


def _relabel(rig: Rig) -> None:
    rig.label = "a" * int(rig.rng.integers(1, 30))
    rig.mutate(2)
    rig.send(where="label")


def _long(rig: Rig) -> None:
    rig.values[rig.rng.choice(N, 4, replace=False)] = LONG
    rig.send(where="long")


def _lost_frame(rig: Rig) -> None:
    rig.mutate(FEW)
    rig.fail()
    rig.send(where="lost-frame")


def _reader(name: str):
    def read(rig: Rig) -> None:
        assert _read(rig.template, name) == rig.last, name

    return read


STEPS = {
    "few": lambda rig: (rig.mutate(FEW), rig.send(where="few")),
    "large": lambda rig: (rig.mutate(LARGE), rig.send(where="large")),
    "many": lambda rig: (rig.mutate(MANY), rig.send(where="many")),
    "content": lambda rig: rig.send(where="content"),
    "label": _relabel,
    "long": _long,
    "views": _reader("views"),
    "tobytes": _reader("tobytes"),
    "validate": _reader("validate"),
    "lost-frame": _lost_frame,
    "reset": lambda rig: (_reset(rig), rig.send(where="reset")),
    "sharer": lambda rig: (rig.mutate(FEW), rig.send(sharer=True, where="sharer")),
    "lexical": _lexical,
}


@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(
        st.tuples(st.sampled_from(sorted(STEPS)), st.booleans()),
        min_size=1,
        max_size=14,
    ),
    seed=st.integers(0, 2**16),
)
def test_any_step_sequence_keeps_every_reader_exact(steps, seed):
    """Every send is checked inside its step; *read* also compares the
    sender's own text (and ends its staleness), so stale text both
    survives and meets each step."""
    rig = _started(seed=seed)
    for i, (step, read) in enumerate(steps):
        STEPS[step](rig)
        if read:
            assert rig.template.tobytes() == rig.last, f"step {i}: {step}"
    rig.template.validate()
    assert rig.template.tobytes() == rig.last

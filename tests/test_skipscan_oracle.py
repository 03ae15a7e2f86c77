"""Lockstep skip-scan oracle: 200 calls across all four match levels.

For every wire a differential client emits — content resend, stuffed
structural rewrite, shifting partial rewrite, first-time send — a
skip-scan deserializer and a fresh full parse of the same bytes must
decode the same message, field for field.  4 levels x 50 calls = the
200-call acceptance budget, reusing the randomized schema/mutation
sequences from ``test_oracle_wire`` (``--rng-seed`` reseeds the whole
corpus).

The mid-session skeleton-drift drill injects corrupted wires into a
hot session — at the deserializer and again through a live
:class:`SOAPService` — and proves the fallback full parse answers
authoritatively without poisoning the template: every subsequent clean
call still decodes oracle-equal and the fast lane re-arms.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.client import BSoapClient
from repro.errors import XMLError
from repro.schema import INT, MIO_TYPE, TypeRegistry
from repro.server.diffdeser import DeserKind, DifferentialDeserializer
from repro.server.parser import SOAPRequestParser
from repro.server.service import SOAPService
from repro.transport.loopback import CollectSink
from tests.test_oracle_wire import (
    CALLS_PER_LEVEL,
    LEVELS,
    _level_policy,
    _sequence,
    reply_lockstep,
)
from tests.test_skipscan_property import _assert_decoded_equal

SEQ_LEN = {"partial-structural": 6}


def _registry() -> TypeRegistry:
    reg = TypeRegistry()
    reg.register_struct(MIO_TYPE)
    return reg


def _expected_kind(level: str, call_index: int) -> DeserKind:
    if call_index == 0 or level == "first-time":
        return DeserKind.FULL
    if level == "content":
        return DeserKind.CONTENT_MATCH
    if level == "partial-structural":
        # Unstuffed growing widths change the wire length every call:
        # skip-scan must refuse (length drift) and full-parse.
        return DeserKind.FULL
    return DeserKind.DIFFERENTIAL


@pytest.mark.parametrize("level", LEVELS)
def test_skipscan_lockstep_oracle(level, rng_seed):
    rng = np.random.default_rng(rng_seed + 31 * LEVELS.index(level))
    seq_len = SEQ_LEN.get(level, 5)
    checked = 0
    skipscan_hits = 0
    while checked < CALLS_PER_LEVEL:
        sink = CollectSink()
        client = BSoapClient(sink, _level_policy(level))
        deser = DifferentialDeserializer(_registry())
        for i, message in enumerate(_sequence(level, rng, seq_len)):
            client.send(message)
            wire = sink.last
            decoded, report = deser.deserialize(wire)
            reference = SOAPRequestParser(_registry()).parse(wire).message
            _assert_decoded_equal(decoded, reference)
            assert report.kind is _expected_kind(level, i), (
                f"call {i} at {level}: {report.kind}"
            )
            skipscan_hits += report.kind is DeserKind.DIFFERENTIAL
            checked += 1
            if checked >= CALLS_PER_LEVEL:
                break
    if level == "perfect-structural":
        # Every differential call must have gone through the seek
        # table, or the oracle is not exercising the new engine.
        stats = deser.skipscan_stats
        assert skipscan_hits > 0
        assert stats.get("hit", 0) + stats.get("hit-vector", 0) > 0


@pytest.mark.parametrize("front", ("threaded", "async"))
@pytest.mark.parametrize("level", LEVELS)
def test_skipscan_reply_lockstep_oracle(level, front, rng_seed):
    """The client side of the same oracle: whatever the channel's
    skip-scan deserializer decoded from a reply — full XML or a
    reconstruction from a reply frame — equals a fresh full parse of
    the same bytes, and steady-state replies ride the seek table."""
    rng = np.random.default_rng(rng_seed + 53 * LEVELS.index(level))
    hits = 0
    for i, values, offering, got, plain, want in reply_lockstep(level, front, rng):
        for channel, response in ((offering, got), (plain, want)):
            reference = SOAPRequestParser(_registry()).parse(
                channel.last_response_body
            ).message
            assert response.operation == reference.operation
            assert list(response.values) == [p.name for p in reference.params]
            for param in reference.params:
                assert np.array_equal(response.values[param.name], param.value)
            report = channel.last_deser_report
            if report.kind is DeserKind.CONTENT_MATCH:
                assert level == "content" and i > 0
            if level == "perfect-structural" and i > 0:
                assert report.kind is DeserKind.DIFFERENTIAL
                hits += 1
    if level == "perfect-structural":
        assert hits > 0


def test_mid_session_skeleton_drift_drill(rng_seed):
    """Corrupt skeleton bytes mid-sequence: the deserializer answers
    with the authoritative full-parse error, keeps the pre-drift
    template intact, and resumes skip-scanning on clean traffic."""
    rng = np.random.default_rng(rng_seed + 7)
    sink = CollectSink()
    client = BSoapClient(sink, _level_policy("perfect-structural"))
    deser = DifferentialDeserializer(_registry())
    messages = _sequence("perfect-structural", rng, 8)
    for i, message in enumerate(messages):
        client.send(message)
        wire = sink.last
        if i in (3, 5):
            # Flip one open-tag byte — skeleton drift by construction.
            pos = wire.index(b"<item>")
            bad = wire[:pos] + b"<jtem>" + wire[pos + 6 :]
            with pytest.raises(XMLError):
                deser.deserialize(bad)
            with pytest.raises(XMLError):
                SOAPRequestParser(_registry()).parse(bad)
        decoded, report = deser.deserialize(wire)
        reference = SOAPRequestParser(_registry()).parse(wire).message
        _assert_decoded_equal(decoded, reference)
        if i > 0:
            # The drift never cost the session its template: clean
            # wires still ride the differential path.
            assert report.kind is DeserKind.DIFFERENTIAL
    assert deser.skipscan_stats.get("skeleton-drift") == 2


def test_mid_session_drift_through_live_service(rng_seed):
    """The same drill through ``SOAPService.handle``: corrupt wires
    fault (never crash), clean traffic keeps skip-scanning, and the
    session's responses stay correct afterwards."""
    rng = np.random.default_rng(rng_seed + 13)
    sink = CollectSink()
    client = BSoapClient(sink, _level_policy("perfect-structural"))
    service = SOAPService("urn:oracle", registry=_registry())
    seen = []
    messages = _sequence("perfect-structural", rng, 8)

    @service.operation(messages[0].operation, result_type=INT, result_name="n")
    def handler(**params):
        seen.append(sorted(params))
        return len(params)

    for i, message in enumerate(messages):
        client.send(message)
        wire = sink.last
        if i == 4:
            pos = wire.index(b"<item>")
            bad = wire[:pos] + b"<jtem>" + wire[pos + 6 :]
            fault = service.handle(bad, "drill")
            assert b"Fault" in fault
        response = service.handle(wire, "drill")
        assert b"Fault" not in response
    stats = service.deserializer.skipscan_stats
    assert stats.get("skeleton-drift", 0) >= 1
    assert stats.get("hit", 0) + stats.get("hit-vector", 0) >= 5
    assert len(seen) == len(messages)

"""The leaf-run lane's proof of one closing tag (docs/skipscan.md,
"Seek-table layout").

A full parse whose every leaf came from lane runs that share one
closing tag carries a :class:`~repro.server.parser.LaneProof`, and
``SeekTable.compile`` takes the tag from it instead of re-gathering
every tag.  Pinned here: only the lane makes one, compile trusts it for
exactly the document and arrays it was proven on, serves one compile
only, and anything else takes the re-proving path, where the one-tag
gather and the per-leaf walk compile the same table.  That the proven
and re-proving paths compile the same table is ``parse_divergence``'s
job (tests/test_leaf_run_lane.py, the CI fuzz).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.client import BSoapClient
from repro.core.policy import DiffPolicy, StuffingPolicy, StuffMode
from repro.schema import DOUBLE, INT, ArrayType
from repro.schema.skipscan import SeekTable, SkipScanFallback
from repro.server.diffdeser import DifferentialDeserializer
from repro.server.parser import LaneProof, SOAPRequestParser
from repro.soap.message import Parameter, SOAPMessage
from repro.transport.loopback import CollectSink

PARSER = SOAPRequestParser()


def _wire(*params) -> bytes:
    sink = CollectSink()
    policy = DiffPolicy(stuffing=StuffingPolicy(StuffMode.MAX))
    BSoapClient(sink, policy).send(SOAPMessage("op", "urn:proof", list(params)))
    return bytes(sink.last)


def _doubles(name: str, n: int) -> Parameter:
    return Parameter(name, ArrayType(DOUBLE), np.linspace(-1.5, 2.5, n))


def _refuse_reproof(monkeypatch):
    def reproved(*args):
        raise AssertionError("compile re-proved a tag the lane had proven")

    monkeypatch.setattr(SeekTable, "_single_close_tag", staticmethod(reproved))


def test_compile_takes_the_lane_proven_tag(monkeypatch):
    wire = _wire(_doubles("a", 40), _doubles("b", 3))
    result = PARSER.parse(wire)
    proof = result.lane_proof
    assert isinstance(proof, LaneProof) and proof.covers(wire, result.spans, result.regions)
    # Another object than the one proven: compile re-proves.
    reproved = SeekTable.compile(bytes(bytearray(wire)), PARSER.parse(wire))
    mutable = bytearray(wire)  # could change between parse and compile
    other = PARSER.parse(mutable)
    assert not other.lane_proof.covers(mutable, other.spans, other.regions)
    _refuse_reproof(monkeypatch)
    table = SeekTable.compile(wire, result)
    assert sorted(table.trie.items()) == sorted(reproved.trie.items()) == [(proof.tag, 0)]
    assert np.array_equal(table.tag_lens, reproved.tag_lens)
    assert table.region_len == reproved.region_len is not None


def test_a_proof_serves_one_compile(monkeypatch):
    wire = _wire(_doubles("a", 8))
    result = PARSER.parse(wire)
    SeekTable.compile(wire, result)
    assert result.lane_proof is None
    refused = PARSER.parse(wire)
    with pytest.raises(SkipScanFallback):  # refused before the tag is read
        SeekTable.compile(wire, refused, _Refuse)
    assert refused.lane_proof is None
    _refuse_reproof(monkeypatch)
    with pytest.raises(AssertionError):
        SeekTable.compile(wire, result)


class _Refuse:
    @staticmethod
    def check(message):
        return "never matches"


def test_a_stored_decode_does_not_keep_the_proven_copy(monkeypatch):
    """A mirrored entry holds a ``bytearray``; its full parse reads an
    immutable copy, which the stored result must not keep."""
    deser = DifferentialDeserializer()
    _refuse_reproof(monkeypatch)
    deser.deserialize(deser.store.store(1, 0, _wire(_doubles("a", 16))))
    entry = deser.store.entries[1]
    assert isinstance(entry.data, bytearray) and entry.table is not None
    assert entry.result.lane_proof is None
    assert deser.skipscan_stats.get("compiled") == 1


def test_single_tag_gather_equals_the_per_leaf_walk(monkeypatch):
    """The re-proving path's two ways — one gather of the one closing
    tag, and the leaf-by-leaf walk — compile the same table."""
    wire = _wire(_doubles("a", 9), _doubles("b", 4))
    copy = bytes(bytearray(wire))  # not the proven object: no proof applies
    gather, gathered = SeekTable._single_close_tag, []

    def spy(*args):
        gathered.append(gather(*args))
        return gathered[-1]

    monkeypatch.setattr(SeekTable, "_single_close_tag", staticmethod(spy))
    fast = SeekTable.compile(copy, PARSER.parse(wire))
    assert gathered == [{b"</item": 0}]
    monkeypatch.setattr(SeekTable, "_single_close_tag", staticmethod(lambda *a: None))
    slow = SeekTable.compile(copy, PARSER.parse(wire))
    assert np.array_equal(fast.tag_ids, slow.tag_ids) and fast.tag_ids.dtype == slow.tag_ids.dtype
    assert np.array_equal(fast.tag_lens, slow.tag_lens)
    assert sorted(fast.trie.items()) == sorted(slow.trie.items()) == [(b"</item", 0)]
    assert fast._vec_len == slow._vec_len is not None
    assert fast.approx_bytes() == slow.approx_bytes()


def test_only_the_lane_constructs_a_proof():
    empty = np.empty((0, 2), dtype=np.int64)
    with pytest.raises(TypeError):
        LaneProof(object(), b"", empty, empty.copy(), b"</item")


def test_proven_arrays_are_frozen():
    result = PARSER.parse(_wire(_doubles("a", 5)))
    assert result.lane_proof is not None
    for arr in (result.spans, result.regions):
        with pytest.raises(ValueError):
            arr[0, 1] += 1


def test_a_param_of_no_leaves_leaves_the_proof_to_the_others():
    # An empty int array is read by the events but adds no leaf.
    empty = Parameter("e", ArrayType(INT), np.empty(0, dtype=np.int32))
    wire = _wire(empty, _doubles("a", 4), Parameter("z", ArrayType(DOUBLE), np.empty(0)))
    result = PARSER.parse(wire)
    assert result.lane_proof is not None and result.lane_proof.tag == b"</item"
    assert np.array_equal(result.regions, PARSER._parse_generic(wire).regions)


def test_no_proof_when_the_events_read_a_leaf():
    wire = _wire(Parameter("n", INT, 7), _doubles("a", 6))
    result = PARSER.parse(wire)
    assert result.lane_proof is None
    assert np.array_equal(result.regions, PARSER._parse_generic(wire).regions)
    assert PARSER._parse_generic(_wire(_doubles("a", 6))).lane_proof is None

"""The full parse's leaf-run lane (docs/skipscan.md, "The full parse's
leaf-run lane").

``SOAPRequestParser.parse`` hands a declared double array to one
vectorized routine instead of ``4N`` scanner events.  The contract
pinned here: whatever the lane accepts it decodes exactly as the
generic event path would (values bit for bit, spans, regions,
layouts), everything else it declines without side effects so the
generic path produces the value or the authoritative error, limits
hold to the unit, and the work it saves is counted, not timed.
"""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.client import BSoapClient
from repro.core.policy import DiffPolicy, StuffingPolicy, StuffMode
from repro.errors import LexicalError, ResourceLimitError, SOAPError
from repro.hardening.fuzz import WireFuzzer, load_corpus, parse_divergence
from repro.hardening.limits import DEFAULT_LIMITS
from repro.lexical.floats import (
    FloatFormat,
    parse_double,
    parse_double_column,
    whitespace_run_ends,
)
from repro.schema import DOUBLE, INT, STRING, ArrayType, MIO_TYPE, TypeRegistry
from repro.schema.skipscan import SeekTable
from repro.server import parser as parser_module
from repro.server.diffdeser import DeserKind, DifferentialDeserializer
from repro.server.parser import SOAPRequestParser
from repro.soap.message import Parameter, SOAPMessage
from repro.transport.loopback import CollectSink
from repro.xmlkit.scanner import XMLScanner

HERE = Path(__file__).resolve().parent


def _registry() -> TypeRegistry:
    reg = TypeRegistry()
    reg.register_struct(MIO_TYPE)
    return reg


PARSER = SOAPRequestParser(_registry())


def _serialize(params, fmt=FloatFormat.MINIMAL, mode=StuffMode.NONE) -> bytes:
    sink = CollectSink()
    policy = DiffPolicy(float_format=fmt, stuffing=StuffingPolicy(mode))
    BSoapClient(sink, policy).prepare(SOAPMessage("op", "urn:lane", params)).send()
    return sink.last


@pytest.fixture
def lane(monkeypatch):
    """Verdicts of the lane, in order: True = took the array in bulk."""
    verdicts = []
    scan, skip = parser_module._scan_double_run, XMLScanner.skip_leaf_children

    def scanning(*args):
        run = scan(*args)
        if run is None:
            verdicts.append(False)
        return run

    def skipping(self, end, count):
        verdicts.append(skip(self, end, count))
        return verdicts[-1]

    monkeypatch.setattr(parser_module, "_scan_double_run", scanning)
    monkeypatch.setattr(XMLScanner, "skip_leaf_children", skipping)
    return verdicts


def _doc(body: str, decl: str = "xsd:double[3]", head: str = "") -> bytes:
    """A hand-written request whose one parameter holds *body*."""
    return (
        '<?xml version="1.0"?><E:Envelope xmlns:E="urn:e">%s<E:Body><op>'
        '<data arrayType="%s">%s</data></op></E:Body></E:Envelope>'
        % (head, decl, body)
    ).encode()


def _items(*texts: str) -> str:
    return "".join(f"<item>{t}</item>" for t in texts)


# ----------------------------------------------------------------------
# lane == generic, generated
# ----------------------------------------------------------------------
_DOUBLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]),
)
_LENGTHS = st.sampled_from([0, 1, 2, 3, 7, 40])


@st.composite
def _messages(draw):
    params = []
    for i in range(draw(st.integers(1, 3))):
        n = draw(_LENGTHS)
        values = draw(st.lists(_DOUBLES, min_size=n, max_size=n))
        if values and draw(st.integers(0, 9)) == 0:
            values[draw(st.integers(0, n - 1))] = draw(
                st.sampled_from([float("inf"), float("-inf"), float("nan")])
            )
        params.append(Parameter(f"a{i}", ArrayType(DOUBLE), np.asarray(values, dtype=float)))
    siblings = [
        Parameter("scale", DOUBLE, 0.125),
        Parameter("n", INT, -42),
        Parameter("label", STRING, "b<c & d"),
        Parameter("names", ArrayType(STRING), ["x", "y&z"]),
        Parameter("counts", ArrayType(INT), np.array([1, -2, 3])),
        Parameter(
            "mesh",
            ArrayType(MIO_TYPE),
            {"x": np.array([1, 2]), "y": np.array([3, 4]), "v": np.array([0.5, 1.5])},
        ),
    ]
    params += [s for s in siblings if draw(st.booleans())]
    params = draw(st.permutations(params))
    fmt = draw(st.sampled_from(list(FloatFormat)))
    mode = draw(st.sampled_from(list(StuffMode)))
    return params, fmt, mode, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(_messages())
def test_lane_equals_generic_on_generated_messages(case):
    params, fmt, mode, header = case
    wire = _serialize(params, fmt, mode)
    if header:
        wire = wire.replace(
            b"<SOAP-ENV:Body>",
            b'<SOAP-ENV:Header><t:trace xmlns:t="urn:t" arrayType="xsd:double[1]">'
            b"<item>7</item></t:trace></SOAP-ENV:Header><SOAP-ENV:Body>",
            1,
        )
    assert parse_divergence(PARSER, wire) is None
    # Not vacuous: every all-finite array went through the lane (the
    # Header's look-alike did not), and decodes to the bits sent.
    finite = [
        p for p in params if p.name.startswith("a") and np.isfinite(p.value).all()
    ]
    taken = []
    skip = XMLScanner.skip_leaf_children
    try:
        XMLScanner.skip_leaf_children = lambda s, e, c: taken.append(c) or skip(s, e, c)
        result = PARSER.parse(wire)
    finally:
        XMLScanner.skip_leaf_children = skip
    assert taken == [len(p.value) for p in finite]
    for p in finite:
        got = result.message.value(p.name)
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), p.value.view(np.uint64))


LEXICAL_EDGE = [
    "1e400", "-1e400", "1e-400", "-0.0", "-0", "4.9e-324", "2.2250738585072014e-308",
    "1.7976931348623157e308", "1E5", "+.5", "5.", "00012", "  1.5", "1.5  ",
    "\t2.5\r\n", "\n-3e-7 ", "1e0000000000000000005",
]  # fmt: skip


def test_lane_takes_every_lexical_edge_bit_for_bit(lane):
    wire = _doc(_items(*LEXICAL_EDGE), f"xsd:double[{len(LEXICAL_EDGE)}]")
    assert parse_divergence(PARSER, wire) is None
    lane.clear()
    got = PARSER.parse(wire).message.value("data")
    assert lane == [True]
    want = np.array([parse_double(t.encode()) for t in LEXICAL_EDGE])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.isinf(got[:2]).all() and np.signbit(got[3])


@pytest.mark.parametrize("fmt", list(FloatFormat))
@pytest.mark.parametrize("mode", list(StuffMode))
def test_lane_fires_on_every_format_and_stuffing(fmt, mode, lane, rng):
    values = rng.standard_normal(33) * 10.0 ** rng.integers(-300, 300, 33)
    wire = _serialize([Parameter("data", ArrayType(DOUBLE), values)], fmt, mode)
    result = PARSER.parse(wire)
    assert lane == [True]
    assert np.array_equal(result.message.value("data").view(np.uint64), values.view(np.uint64))
    assert parse_divergence(PARSER, wire) is None


def test_lane_accepted_shapes(lane):
    for wire in (
        _doc("", "xsd:double[0]"),
        _doc(_items("1", "2", "3")).replace(b"</data>", b"</data >"),
        _doc("<a:b.c-d_e>1</a:b.c-d_e>" * 3),
        _doc(_items("1", "2", "3"), head="<E:Header><h>x</h></E:Header>"),
        _doc("<item>1</item> \r\n<item>2</item>\t<item>3</item>  "),
    ):
        lane.clear()
        assert parse_divergence(PARSER, wire) is None
        assert lane == [True]
    two = _doc(_items("1", "2", "3")).replace(
        b"</data>", b'</data><more arrayType="xsd:double[1]"><v>9</v></more>'
    )
    lane.clear()
    result = PARSER.parse(two)
    assert lane == [True, True]
    assert [p.name for p in result.message.params] == ["data", "more"]
    assert result.leaf_count == 4 and result.layouts[1].leaf_base == 3


# ----------------------------------------------------------------------
# every refusal, deterministically: the generic path decides
# ----------------------------------------------------------------------
_LONG = "0" * 40 + "1.5"
REFUSALS = {
    "empty-value": (_doc(_items("1", "", "3")), LexicalError),
    "inf": (_doc(_items("1", "INF", "-INF")), None),
    "nan": (_doc(_items("1", "NaN", "3")), None),
    "entity": (_doc(_items("1", "1&#46;5", "3")), None),
    "bad-entity": (_doc(_items("1", "&bogus;", "3")), Exception),
    "outside-charset": (_doc(_items("1", "1x5", "3")), LexicalError),
    "interior-blank": (_doc(_items("1", "1 5", "3")), LexicalError),
    "numpy-refuses-1e5e5": (_doc(_items("1", "1e5e5", "3")), LexicalError),
    "numpy-refuses-dot": (_doc(_items("1", ".", "3")), LexicalError),
    "underscore": (_doc(_items("1", "1_0", "3")), LexicalError),
    "item-attribute": (_doc('<item a="b">1</item><item>2</item><item>3</item>'), None),
    "item-tag-whitespace": (_doc("<item >1</item ><item>2</item><item>3</item>"), None),
    "self-closing-item": (_doc("<item>1</item><item/><item>3</item>"), LexicalError),
    "comment-between": (_doc("<item>1</item><!-- c --><item>2</item><item>3</item>"), None),
    "comment-inside": (_doc("<item>1<!-- c --></item><item>2</item><item>3</item>"), None),
    "cdata-inside": (_doc("<item><![CDATA[1]]></item><item>2</item><item>3</item>"), None),
    "pi-between": (_doc("<item>1</item><?p q?><item>2</item><item>3</item>"), None),
    "child-element": (_doc("<item>1<x/></item><item>2</item><item>3</item>"), None),
    "leading-text": (_doc("x" + _items("1", "2", "3")), None),
    "leading-whitespace": (_doc(" " + _items("1", "2", "3")), None),
    "text-between": (_doc("<item>1</item>x<item>2</item><item>3</item>"), None),
    "fewer-than-declared": (_doc(_items("1", "2")), SOAPError),
    "more-than-declared": (_doc(_items("1", "2", "3", "4")), SOAPError),
    "undeclared-length": (_doc(_items("1", "2", "3"), "xsd:double[]"), None),
    "malformed-arraytype": (_doc(_items("1", "2", "3"), "xsd:double[x]"), SOAPError),
    "not-double": (_doc(_items("1", "2", "3"), "xsd:int[3]"), None),
    "mixed-item-names": (_doc("<a>1</a><b>2</b><a>3</a>"), None),
    "exotic-item-name": (_doc("<it€m>1</it€m>" * 3), None),
    "value-too-wide": (_doc(_items("1", _LONG, "3")), None),
    "item-named-like-parent": (_doc("<data>1</data>" * 3), None),
    "parent-prefixes-item": (_doc("<datum>1</datum>" * 3).replace(b"data", b"dat"), None),
    "mismatched-item-close": (_doc("<item>1</item><item>2</itex><item>3</item>"), Exception),
    "unterminated": (_doc(_items("1", "2", "3")).split(b"</data>")[0], Exception),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_every_refusal_defers_to_the_generic_path(name, lane):
    wire, error = REFUSALS[name]
    if error is None:
        result = PARSER.parse(wire)
        assert result.leaf_count == 3
    else:
        with pytest.raises(error):
            PARSER.parse(wire)
    assert True not in lane, f"{name}: the lane took what it must decline"
    assert parse_divergence(PARSER, wire) is None


def test_refusal_values_are_the_generic_values(lane):
    got = PARSER.parse(REFUSALS["inf"][0]).message.value("data")
    assert got[1] == np.inf and got[2] == -np.inf
    assert PARSER.parse(REFUSALS["entity"][0]).message.value("data")[1] == 1.5
    assert PARSER.parse(REFUSALS["value-too-wide"][0]).message.value("data")[1] == 1.5
    assert PARSER.parse(REFUSALS["not-double"][0]).message.value("data").dtype == np.int64
    assert True not in lane


def test_lane_only_fires_at_parameter_depth(lane):
    # The same declaration one level up (the operation) or one level
    # down (inside a parameter) is never decoded as an array: events.
    deeper = _doc('<wrap arrayType="xsd:double[2]"><item>1</item><item>2</item></wrap>', "ns:MIO[1]")
    with pytest.raises(Exception):
        PARSER.parse(deeper)
    assert lane == []
    assert parse_divergence(PARSER, deeper) is None


# ----------------------------------------------------------------------
# corpora: every mutator over the goldens, every malformed file
# ----------------------------------------------------------------------
def test_lane_equals_generic_over_every_mutator(rng_seed):
    from repro.hardening.fuzz import build_fuzz_service

    service = build_fuzz_service()
    parser = SOAPRequestParser(service.registry, service.limits)
    corpus = load_corpus(HERE / "golden")
    fuzzer = WireFuzzer(corpus, limits=service.limits)
    rng = random.Random(rng_seed)
    for name, mutate in fuzzer._mutators:
        for wire in corpus:
            for _ in range(6):
                mutated = mutate(rng, wire)
                assert parse_divergence(parser, mutated) is None, (name, mutated[:80])


@pytest.mark.parametrize(
    "path",
    sorted(p for p in (HERE / "malformed").iterdir() if p.suffix != ".json"),
    ids=lambda p: p.name,
)
def test_lane_equals_generic_on_the_malformed_corpus(path):
    assert parse_divergence(PARSER, path.read_bytes()) is None


# ----------------------------------------------------------------------
# limits: to the unit, through the lane
# ----------------------------------------------------------------------
def _limited(**overrides) -> SOAPRequestParser:
    return SOAPRequestParser(_registry(), DEFAULT_LIMITS.replace(**overrides))


class TestLimitsThroughTheLane:
    WIRE = _doc(_items(*["1.5"] * 50), "xsd:double[50]")
    ELEMENTS = 4 + 50  # Envelope, Body, op, data + items
    DEPTH = 5  # ... with the items one level below data

    def test_max_xml_elements_at_and_past(self, lane):
        at = _limited(max_xml_elements=self.ELEMENTS)
        assert at.parse(self.WIRE).leaf_count == 50
        assert lane == [True]
        past = _limited(max_xml_elements=self.ELEMENTS - 1)
        with pytest.raises(ResourceLimitError, match="max_xml_elements") as lane_err:
            past.parse(self.WIRE)
        assert lane == [True, False]
        with pytest.raises(ResourceLimitError) as generic_err:
            past._parse_generic(self.WIRE)
        assert str(lane_err.value) == str(generic_err.value)
        assert lane_err.value.limit_name == generic_err.value.limit_name == "max_xml_elements"

    def test_elements_after_the_run_still_count(self, lane):
        wire = self.WIRE.replace(b"</data>", b"</data><tail>x</tail>")
        assert _limited(max_xml_elements=self.ELEMENTS + 1).parse(wire).leaf_count == 51
        with pytest.raises(ResourceLimitError, match="max_xml_elements"):
            _limited(max_xml_elements=self.ELEMENTS).parse(wire)
        assert lane == [True, True]

    def test_max_xml_depth_at_and_past(self, lane):
        assert _limited(max_xml_depth=self.DEPTH).parse(self.WIRE).leaf_count == 50
        assert lane == [True]
        past = _limited(max_xml_depth=self.DEPTH - 1)
        with pytest.raises(ResourceLimitError, match="max_xml_depth") as lane_err:
            past.parse(self.WIRE)
        assert lane == [True, False]
        with pytest.raises(ResourceLimitError) as generic_err:
            past._parse_generic(self.WIRE)
        assert str(lane_err.value) == str(generic_err.value)

    def test_empty_array_needs_no_depth(self, lane):
        wire = _doc("", "xsd:double[0]")
        assert _limited(max_xml_depth=4).parse(wire).leaf_count == 0
        assert lane == [True]

    def test_max_token_bytes_bounds_the_item_name(self, lane):
        # Longest other token: the 13-byte arrayType value.
        wire = _doc("<abcdefghijklm>1</abcdefghijklm>" * 3)
        assert _limited(max_token_bytes=13).parse(wire).leaf_count == 3
        assert lane == [True]
        wire = _doc("<abcdefghijklmn>1</abcdefghijklmn>" * 3)
        with pytest.raises(ResourceLimitError, match="max_token_bytes"):
            _limited(max_token_bytes=13).parse(wire)
        assert lane == [True, False]

    def test_max_body_bytes_is_checked_first(self, lane):
        with pytest.raises(ResourceLimitError, match="max_body_bytes"):
            _limited(max_body_bytes=len(self.WIRE) - 1).parse(self.WIRE)
        assert lane == []
        assert _limited(max_body_bytes=len(self.WIRE)).parse(self.WIRE).leaf_count == 50


# ----------------------------------------------------------------------
# counted work, not time
# ----------------------------------------------------------------------
def _first_time_events(n, scanner_events, monkeypatch, fmt=FloatFormat.MINIMAL):
    leaves = []
    real = parser_module._leaf_from_text
    monkeypatch.setattr(
        parser_module, "_leaf_from_text", lambda t, s: leaves.append(1) or real(t, s)
    )
    wire = _serialize(
        [Parameter("data", ArrayType(DOUBLE), np.arange(n) * 0.37)], fmt, StuffMode.MAX
    )
    deser = DifferentialDeserializer()
    del scanner_events[:]
    decoded, report = deser.deserialize(wire)
    assert report.kind is DeserKind.FULL and report.leaves_parsed == n
    assert deser.skipscan_stats == {"compiled": 1}
    assert np.array_equal(decoded.value("data"), np.arange(n) * 0.37)
    return len(scanner_events), len(leaves)


def test_16ki_double_first_time_document_costs_tens_of_events(
    scanner_events, monkeypatch
):
    # Parent: ~4 events and one parse_double per leaf (~65,000 / 16,384).
    events, per_leaf_parses = _first_time_events(16384, scanner_events, monkeypatch)
    assert events <= 40
    assert per_leaf_parses == 0
    small, _ = _first_time_events(16, scanner_events, monkeypatch)
    assert small == events, "event count must not depend on N"
    fixed, per_leaf_parses = _first_time_events(
        1024, scanner_events, monkeypatch, FloatFormat.FIXED
    )
    assert fixed == events and per_leaf_parses == 0


# ----------------------------------------------------------------------
# the vectorized helpers against their loop references
# ----------------------------------------------------------------------
def _field_regions_reference(data: bytes, spans: np.ndarray) -> np.ndarray:
    """The per-leaf loop ``_field_regions`` replaced."""
    regions = spans.copy()
    for j in range(spans.shape[0]):
        gt = data.find(b">", int(spans[j, 1]))
        if gt < 0:
            continue
        pos = gt + 1
        while pos < len(data) and data[pos] in b" \t\r\n":
            pos += 1
        regions[j, 1] = pos
    return regions


@pytest.mark.parametrize(
    "body",
    [
        _items("1", "2", "3"),
        "<item>1</item>  <item>2</item>\r\n<item>3</item>\t",
        "<item>1</item> x <item>2</item>y<item>3</item>",
        "<item>1<!-- c --></item><item/><item></item>",
        "<item>1</item><!-- > --> <item>2 > 1</item><item>3</item>",
    ],
)
def test_field_regions_match_the_loop_reference(body):
    wire = _doc(body, "xsd:string[3]") + b"  \n"
    result = PARSER.parse(wire)
    assert result.spans.shape == (3, 2) and result.regions.dtype == np.int64
    assert np.array_equal(result.regions, _field_regions_reference(wire, result.spans))


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=1, max_size=60), st.data())
def test_field_regions_and_whitespace_runs_on_arbitrary_bytes(raw, data):
    alphabet = b" \t\r\n<>ab"
    doc = bytes(alphabet[b % len(alphabet)] for b in raw)
    buf = np.frombuffer(doc, dtype=np.uint8)
    starts = np.array(
        sorted(data.draw(st.lists(st.integers(0, len(doc)), min_size=1, max_size=8))),
        dtype=np.int64,
    )
    want = [s + len(doc[s:]) - len(doc[s:].lstrip(b" \t\r\n")) for s in starts.tolist()]
    assert whitespace_run_ends(buf, starts).tolist() == want
    spans = np.stack([starts, starts], axis=1)
    assert np.array_equal(
        SOAPRequestParser._field_regions(doc, spans), _field_regions_reference(doc, spans)
    )


def _column(texts):
    """``(buf, starts, lens)`` for *texts* laid out with ``#`` between."""
    buf = b"#".join(texts) + b"#"
    lens = np.array([len(t) for t in texts], dtype=np.int64)
    starts = np.cumsum(lens + 1) - lens - 1
    return np.frombuffer(buf, dtype=np.uint8), starts, lens


def test_parse_double_column_is_parse_double_or_none():
    good = [t.encode() for t in LEXICAL_EDGE]
    got = parse_double_column(*_column(good))
    want = np.array([parse_double(t) for t in good])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    for bad in (b"", b"  ", b"1 5", b"1&2", b"1e5e5", b".", b"--1", b"1_0", b"1\x005"):
        with pytest.raises(LexicalError):
            parse_double(bad)
        assert parse_double_column(*_column([b"1.5", bad])) is None
    for special in (b"INF", b"-INF", b"NaN"):  # legal, but not the batch's
        assert parse_double_column(*_column([b"1.5", special])) is None
    empty = np.empty(0, dtype=np.int64)
    assert parse_double_column(np.empty(0, np.uint8), empty, empty).shape == (0,)


def test_seek_table_single_tag_compile_equals_the_per_leaf_walk(monkeypatch, rng):
    wire = _serialize(
        [
            Parameter("a", ArrayType(DOUBLE), rng.random(9)),
            Parameter("b", ArrayType(DOUBLE), rng.random(4)),
        ],
        FloatFormat.FIXED,
        StuffMode.MAX,
    )
    result = PARSER.parse(wire)
    fast = SeekTable.compile(wire, result)
    monkeypatch.setattr(SeekTable, "_single_close_tag", staticmethod(lambda *a: None))
    slow = SeekTable.compile(wire, result)
    assert np.array_equal(fast.tag_ids, slow.tag_ids) and fast.tag_ids.dtype == slow.tag_ids.dtype
    assert np.array_equal(fast.tag_lens, slow.tag_lens)
    assert fast.trie.match_at(wire, int(result.spans[0, 1]), terminators=b">") == slow.trie.match_at(
        wire, int(result.spans[0, 1]), terminators=b">"
    )
    assert fast._vec_len == slow._vec_len is not None
    assert fast.approx_bytes() == slow.approx_bytes()


def test_seek_table_mixed_tags_still_take_the_walk():
    wire = _serialize(
        [Parameter("n", INT, 7), Parameter("a", ArrayType(DOUBLE), np.array([1.5, 2.5]))]
    )
    result = PARSER.parse(wire)
    table = SeekTable.compile(wire, result)
    assert sorted(set(table.tag_ids.tolist())) == [0, 1]
    assert [result.leaf_type(j) for j in range(3)] == [INT, DOUBLE, DOUBLE]

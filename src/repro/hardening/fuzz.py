"""Seeded wire fuzzer for the fault-not-crash contract.

One loop, :func:`run`, drives one *entry* of :data:`ENTRIES` — an
adapter over one way into the stack: the service, its delta-frame
entry, live HTTP on each front end of ``SERVER_MODES`` (bodies, and
delta frames), the reply channel, and the parser — through cases drawn
from one ``random.Random(seed)``, so a failing case replays from the
printed seed.  No case may raise, hang or go unanswered; each adapter
names the answers it allows.

One probe rule holds for every entry: every ``probe_every`` cases, and
once at the end, a pristine input through the same entry must decode to
the values a full parse gives.  A frame entry's probe frame changes one
leaf's value and expects the full parse of the patched document, so a
mirror that drops or misplaces a splice is caught, not only one that
faults.  Probes draw nothing from the case RNG.

Mutators are corpus-based byte edits plus structure-aware ones aimed at
what the stack trusts (:class:`WireFuzzer`, :class:`HTTPFuzzer`,
:class:`DeltaFrameFuzzer`).  CI's ``fuzz-smoke`` job::

    PYTHONPATH=src python -m repro.hardening.fuzz --corpus tests/golden \
        --seed 12345 --entry service=2000 --entry service-delta=600 \
        --entry http:threaded=200 --entry http:async=200 \
        --entry delta-http:threaded=60 --entry delta-http:async=60 \
        --entry delta-reply=600 --entry parse=2000

Outcome counts are served on the service's metrics registry as
``repro_fuzz_cases_total{mode,outcome}``, ``mode`` being the entry.
"""

from __future__ import annotations

import argparse
import functools
import random
import re
import socket
import struct
import sys
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.hardening.limits import DEFAULT_LIMITS, ResourceLimits
from repro.schema.skipscan import SeekTable, SkipScanFallback
from repro.schema.types import DOUBLE, INT
from repro.server.async_server import SERVER_MODES, make_server
from repro.server.parser import SOAPRequestParser
from repro.server.service import Operation, SOAPService
from repro.soap.fault import SOAPFault
from repro.transport.http import parse_http_response
from repro.transport.loopback import NullSink
from repro.wire import frame as wire_frame
from repro.wire.frame import INSERT_FLAG, encode_frame

__all__ = [
    "WireFuzzer", "HTTPFuzzer", "DeltaFrameFuzzer", "FuzzReport", "ENTRIES",
    "run", "raw_exchange", "build_fuzz_service", "load_corpus",
    "default_corpus", "parse_divergence", "ALLOWED_HTTP_STATUSES", "main",
]

#: Statuses a hardened front end may legitimately answer with
#: (409 is the delta protocol's resync signal).
ALLOWED_HTTP_STATUSES = frozenset({200, 400, 404, 408, 409, 413, 503})

#: Operations appearing in the golden corpus — the fuzz service
#: registers a handler for each so pristine wires dispatch cleanly.
CORPUS_OPERATIONS = ("putDoubles", "putMesh", "exchangeAds", "shareArrays", "configure")

_DIGIT_RUN = re.compile(rb"[0-9][0-9.eE+\-]{0,30}")
_ARRAYTYPE = re.compile(rb'arrayType="[^"]*"')
_TAG_NAME = re.compile(rb"</?([A-Za-z][A-Za-z0-9:_\-]*)")
_ITEM_VALUE = re.compile(rb"<item>([^<]{1,64})</item>")
_CLOSE_PAD = re.compile(rb"(</[A-Za-z][A-Za-z0-9:]*>)([ \t]{2,64})")
#: Leaf text, its closing tag and the pad behind it (group 1).
_LEAF_REGION = re.compile(rb">([^<>]+</[^<>]+>[ \t\r\n]*)")


# ----------------------------------------------------------------------
# Corpus and service
# ----------------------------------------------------------------------
def load_corpus(path) -> List[bytes]:
    """Load every ``*.xml``/``*.bin`` wire under *path*, sorted by name."""
    directory = Path(path)
    files = sorted(p for p in directory.glob("*") if p.suffix in (".xml", ".bin"))
    if not files:
        raise FileNotFoundError(f"no corpus wires under {directory}")
    return [p.read_bytes() for p in files]


def _synthetic_corpus() -> List[bytes]:
    """Deterministic fallback wires when no golden corpus is on disk."""
    import numpy as np

    from repro.core.serializer import build_template
    from repro.schema.composite import ArrayType
    from repro.schema.types import DOUBLE, STRING
    from repro.soap.message import Parameter, SOAPMessage

    doubles = np.array([0.0, 1.5, -2.25, 3.141592653589793])
    messages = {
        "putDoubles": [Parameter("data", ArrayType(DOUBLE), doubles)],
        "configure": [
            Parameter("n", INT, -42),
            Parameter("scale", DOUBLE, 0.125),
            Parameter("names", ArrayType(STRING), ["alpha", "b<c"]),
        ],
    }
    return [
        build_template(SOAPMessage(op, "urn:golden", params)).tobytes()
        for op, params in messages.items()
    ]


def default_corpus() -> List[bytes]:
    """``tests/golden`` when running from a checkout, else synthetic."""
    golden = Path(__file__).resolve().parents[3] / "tests" / "golden"
    try:
        return load_corpus(golden)
    except FileNotFoundError:
        return _synthetic_corpus()


def _checksum_handler(**params: object) -> int:
    """Deterministic CRC over every decoded value, not just a count.

    Probes compare this answer with the checksum of a full parse's
    values, so a session whose skip-scan lane or mirror silently
    committed *wrong values* (not just a fault) flips the probe.
    """
    import numpy as np

    acc = 0
    for name in sorted(params):
        value = params[name]
        acc = zlib.crc32(name.encode(), acc)
        if isinstance(value, dict):  # struct array: field -> column
            for key in sorted(value):
                acc = zlib.crc32(key.encode(), acc)
                acc = zlib.crc32(np.asarray(value[key]).tobytes(), acc)
        elif isinstance(value, np.ndarray):
            acc = zlib.crc32(value.tobytes(), acc)
        else:
            acc = zlib.crc32(repr(value).encode(), acc)
    return acc & 0x7FFFFFFF


def build_fuzz_service(
    *, limits: Optional[ResourceLimits] = None, obs=None
) -> SOAPService:
    """A service accepting every corpus operation (``urn:golden``).

    Handlers take arbitrary keyword parameters and return a checksum,
    so any well-formed corpus wire dispatches without a fault while the
    response side still exercises the differential serializer.
    """
    from repro.apps.classads import MACHINE_AD_TYPE
    from repro.schema.mio import MIO_TYPE
    from repro.schema.registry import TypeRegistry

    registry = TypeRegistry()
    registry.register_struct(MIO_TYPE)
    registry.register_struct(MACHINE_AD_TYPE)
    service = SOAPService("urn:golden", registry, limits=limits, obs=obs)
    for name in CORPUS_OPERATIONS:
        service.register(
            Operation(name, _checksum_handler, result_type=INT, result_name="count")
        )
    return service


# ----------------------------------------------------------------------
# Mutation engine
# ----------------------------------------------------------------------
def _pick(rng: random.Random, pattern: re.Pattern, wire: bytes):
    """A random match of *pattern* in *wire* (``None`` if none)."""
    matches = list(pattern.finditer(wire))
    return rng.choice(matches) if matches else None


def _digits(rng: random.Random, low: int, high: int) -> bytes:
    return bytes(rng.choice(b"0123456789") for _ in range(rng.randint(low, high)))


class _Mutators:
    """A table of named mutators: ``_<name>`` for each name in
    :attr:`MUTATORS`, drawn in that order.  The byte-level ones are
    shared by the wire and the frame fuzzer (a frame mutator also gets
    the case context, which these ignore)."""

    MUTATORS: Tuple[str, ...] = ()

    def __init__(self, limits: Optional[ResourceLimits] = None) -> None:
        self.limits = limits if limits is not None else DEFAULT_LIMITS
        self._mutators = [(name, getattr(self, "_" + name)) for name in self.MUTATORS]

    @staticmethod
    def _identity(rng: random.Random, data: bytes, ctx=None) -> bytes:
        return data

    @staticmethod
    def _bit_flip(rng: random.Random, data: bytes, ctx=None) -> bytes:
        out = bytearray(data)
        for _ in range(rng.randint(1, 8)):
            out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
        return bytes(out)

    @staticmethod
    def _truncate(rng: random.Random, data: bytes, ctx=None) -> bytes:
        return data[: rng.randrange(len(data))]

    @staticmethod
    def _pure_garbage(rng: random.Random, data: bytes, ctx=None) -> bytes:
        return bytes(rng.getrandbits(8) for _ in range(rng.randint(1, 256)))


class WireFuzzer(_Mutators):
    """Corpus mutator; every draw comes from the :class:`random.Random`
    handed to :meth:`next_case`.

    Structure-aware mutators are sized off *limits* so the bombs land
    just past the configured bounds — the interesting side of each
    limit.
    """

    MUTATORS = (
        "identity", "bit_flip", "truncate", "delete_slice", "duplicate_slice",
        "tag_splice", "digit_perturb", "width_perturb", "arraytype_lie",
        "skeleton_flip", "span_length_lie", "offset_desync", "pad_crlf",
        "entity_garbage", "utf8_garbage", "nest_bomb", "attr_bomb", "token_bomb",
        "pure_garbage",
    )

    def __init__(
        self, corpus: Sequence[bytes], *, limits: Optional[ResourceLimits] = None
    ) -> None:
        super().__init__(limits)
        self.corpus = [bytes(w) for w in corpus if w]
        if not self.corpus:
            raise ValueError("fuzz corpus is empty")

    def next_case(self, rng: random.Random) -> Tuple[bytes, str]:
        """One mutated wire plus the mutator name that produced it."""
        wire = rng.choice(self.corpus)
        name, mutate = rng.choice(self._mutators)
        return mutate(rng, wire), name

    # -- byte-level ----------------------------------------------------
    @staticmethod
    def _slice(rng: random.Random, wire: bytes) -> Tuple[int, int]:
        i = rng.randrange(len(wire))
        return i, min(len(wire), i + rng.randint(1, 64))

    def _delete_slice(self, rng: random.Random, wire: bytes) -> bytes:
        i, j = self._slice(rng, wire)
        return wire[:i] + wire[j:]

    def _duplicate_slice(self, rng: random.Random, wire: bytes) -> bytes:
        i, j = self._slice(rng, wire)
        return wire[:j] + wire[i:j] + wire[j:]

    @staticmethod
    def _insert(rng: random.Random, wire: bytes, junk: Sequence[bytes]) -> bytes:
        piece = rng.choice(junk)
        pos = rng.randrange(len(wire))
        return wire[:pos] + piece + wire[pos:]

    # -- structure-aware -----------------------------------------------
    def _tag_splice(self, rng: random.Random, wire: bytes) -> bytes:
        """Copy one tag-ish region over another (mismatched tag soup)."""
        starts = [m.start() for m in re.finditer(rb"<", wire)]
        if len(starts) < 2:
            return self._bit_flip(rng, wire)
        src, dst = rng.sample(starts, 2)
        return wire[:dst] + wire[src : src + rng.randint(2, 40)] + wire[dst:]

    def _digit_perturb(self, rng: random.Random, wire: bytes) -> bytes:
        """Corrupt characters inside a numeric run (DUT field region)."""
        run = _pick(rng, _DIGIT_RUN, wire)
        if run is None:
            return self._bit_flip(rng, wire)
        out = bytearray(wire)
        for _ in range(rng.randint(1, 3)):
            pos = rng.randrange(run.start(), run.end())
            out[pos] = rng.choice(b"0123456789.-+eEZ#")
        return bytes(out)

    def _width_perturb(self, rng: random.Random, wire: bytes) -> bytes:
        """Grow or shrink a numeric run (breaks stuffed-width framing)."""
        run = _pick(rng, _DIGIT_RUN, wire)
        if run is None:
            return self._truncate(rng, wire)
        if rng.random() < 0.5:
            return wire[: run.end()] + _digits(rng, 1, 24) + wire[run.end() :]
        keep = rng.randrange(run.end() - run.start())
        return wire[: run.start() + keep] + wire[run.end() :]

    def _arraytype_lie(self, rng: random.Random, wire: bytes) -> bytes:
        """Make ``arrayType`` disagree with the actual item count."""
        match = _ARRAYTYPE.search(wire)
        if match is None:
            return self._tag_splice(rng, wire)
        count = b"xsd:double[%d]" % rng.randrange(0, 1 << 16)
        lie = rng.choice([count, b"xsd:double[-1]", b"garbage", b""])
        return wire[: match.start()] + b'arrayType="%s"' % lie + wire[match.end() :]

    # -- skip-scan-aware (trusted-offset deserialization) --------------
    def _skeleton_flip(self, rng: random.Random, wire: bytes) -> bytes:
        """Flip one tag-name byte behind still-valid ``<``/``>`` framing
        — exactly the skeleton bytes a compiled seek table trusts."""
        match = _pick(rng, _TAG_NAME, wire)
        if match is None:
            return self._bit_flip(rng, wire)
        out = bytearray(wire)
        out[rng.randrange(match.start(1), match.end(1))] = rng.choice(b"abcdefghijkz")
        return bytes(out)

    def _span_length_lie(self, rng: random.Random, wire: bytes) -> bytes:
        """Grow or truncate one ``<item>`` value without adjusting the
        pad, so the wire length lies to any armed seek table."""
        match = _pick(rng, _ITEM_VALUE, wire)
        if match is None:
            return self._width_perturb(rng, wire)
        value = match.group(1)
        if rng.random() < 0.5 and len(value) > 1:
            new = value[: rng.randrange(1, len(value))]
        else:
            new = value + _digits(rng, 1, 12)
        return wire[: match.start(1)] + new + wire[match.end(1) :]

    def _offset_desync(self, rng: random.Random, wire: bytes) -> bytes:
        """Slide a close tag within its stuffing pad: same length, same
        dirty regions, but every offset the seek table computed from
        its template is now wrong by a few bytes."""
        match = _pick(rng, _CLOSE_PAD, wire)
        if match is None:
            return self._span_length_lie(rng, wire)
        tag, pad = match.group(1), match.group(2)
        shift = rng.randint(1, len(pad))
        moved = pad[:shift] + tag + pad[shift:]
        return wire[: match.start()] + moved + wire[match.end() :]

    def _pad_crlf(self, rng: random.Random, wire: bytes) -> bytes:
        """Rewrite stuffing pad with CRLF/TAB soup (legal whitespace the
        vectorized pad check must accept) or sneak in one non-WS byte
        (which it must refuse)."""
        match = _pick(rng, _CLOSE_PAD, wire)
        if match is None:
            return self._bit_flip(rng, wire)
        pad = bytearray(match.group(2))
        alphabet = b"\r\n\t " if rng.random() < 0.7 else b"\r\n\t x"
        for _ in range(rng.randint(1, len(pad))):
            pad[rng.randrange(len(pad))] = rng.choice(alphabet)
        return wire[: match.start(2)] + bytes(pad) + wire[match.end(2) :]

    def _entity_garbage(self, rng: random.Random, wire: bytes) -> bytes:
        junk = [b"&bogus;", b"&#xFFFFFFFF;", b"&#x110000;", b"&#-1;", b"&#;", b"&"]
        return self._insert(rng, wire, junk)

    def _utf8_garbage(self, rng: random.Random, wire: bytes) -> bytes:
        return self._insert(rng, wire, [b"\xff\xfe", b"\xc3", b"\xe2\x28\xa1", b"\x80"])

    # -- limits-shaped bombs -------------------------------------------
    def _nest_bomb(self, rng: random.Random, wire: bytes) -> bytes:
        depth = self.limits.max_xml_depth + rng.randint(1, 64)
        return b"<d>" * depth + b"x" + b"</d>" * depth

    def _attr_bomb(self, rng: random.Random, wire: bytes) -> bytes:
        count = self.limits.max_attributes + rng.randint(1, 64)
        return b"<e " + b" ".join(b'a%d="v"' % i for i in range(count)) + b"/>"

    def _token_bomb(self, rng: random.Random, wire: bytes) -> bytes:
        name = b"t" * (self.limits.max_token_bytes + rng.randint(1, 64))
        return b"<" + name + b">x</" + name + b">"


def _encode(
    ctx: dict,
    offsets: List[int],
    widths: List[int],
    payload: bytes,
    inserts: Sequence[Tuple[int, int]] = (),
    doc_len: Optional[int] = None,
) -> bytes:
    """A frame for the case *ctx* with the given splice directory, led
    by the pad insertions *inserts* (``(new offset, bytes)`` each); its
    ``doc_len`` is the body's length plus theirs unless given."""
    if doc_len is None:
        doc_len = len(ctx["body"]) + sum(count for _at, count in inserts)
    return encode_frame(
        ctx["template_id"], ctx["epoch"], ctx["seq"], doc_len,
        [at for at, _count in inserts] + list(offsets),
        [INSERT_FLAG | count for _at, count in inserts] + list(widths),
        payload,
    )


def _fixed(offsets: List[int], widths: List[int], payload: bytes):
    """A frame mutator whose splice directory is always the one given."""
    return staticmethod(lambda rng, frame, ctx: _encode(ctx, offsets, widths, payload))


def _header_lie(offset: int, fmt: str, lie: Callable):
    """A frame mutator writing ``lie(rng, true_value, limits)`` over the
    header field at *offset* (``"<4sQIIQII"``).  The header is not
    CRC-covered, so the frame lands on the decoder's semantic checks."""
    size = struct.calcsize(fmt)

    def mutate(self, rng: random.Random, frame: bytes, ctx: dict) -> bytes:
        (now,) = struct.unpack_from(fmt, frame, offset)
        value = lie(rng, now, self.limits) % (1 << 8 * size)
        return frame[:offset] + struct.pack(fmt, value) + frame[offset + size :]

    return mutate


class DeltaFrameFuzzer(_Mutators):
    """Structure-aware mutator for binary delta frames.

    Each case starts from a freshly encoded *valid* frame (splices
    copying bytes of the mirror body, so pristine application is a
    no-op) and applies one mutation aimed at one decoder or mirror
    check: framing lies (magic, truncation, CRC), header lies (splice
    count, epochs, sequence, doc_len, template), directory lies
    (out-of-bounds and overlapping offsets, widths, payload length),
    and directories aimed at the body's leaf field regions — what the
    deserializer's frame lane trusts — whole, partial, straddling two,
    or filled with garbage; typed splices; and pad insertions (a widened
    field): honest ones, and ones in markup, in a value (a typed one
    too), past the end, unsorted, under a lying ``doc_len``, or growing
    the document past ``max_body_bytes``.  A mutator takes ``(rng,
    frame, ctx)``, *ctx* holding the case's ``template_id``, ``epoch``,
    ``seq`` and ``body``.
    """

    MUTATORS = (
        "identity", "truncate", "bit_flip", "bad_magic", "splice_count_lie",
        "giant_splice_count", "stale_epoch", "future_epoch", "sequence_gap",
        "doc_len_lie", "unknown_template", "oob_offset", "overlapping_splices",
        "zero_width_splice", "payload_length_lie", "payload_garbage",
        "region_splices", "region_garbage", "pure_garbage",
        "typed_values", "typed_nan", "typed_off_start", "typed_in_skeleton",
        "typed_other_leaf", "typed_payload_lie", "typed_byte_overlap",
        "insert_pad", "insert_in_skeleton", "insert_in_value", "insert_past_end",
        "insert_growth_lie", "insert_unsorted", "insert_in_typed_value",
        "insert_body_bomb", "many_entries",
    )

    #: Mutators whose frames decode cleanly but splice bytes the body
    #: never held, or set leaves to new values: the reconstruction may
    #: parse to other values.
    REWRITES_VALUES = frozenset(
        {
            "payload_garbage", "region_garbage", "typed_values", "typed_nan",
            "insert_in_value", "insert_in_typed_value",
        }
    )

    #: Bit patterns of NaNs a text sender can never produce: signalling,
    #: negative, and with a payload.  Each must decode as ``NaN`` does.
    ODD_NANS = (
        0x7FF0000000000001, 0xFFF8000000000000, 0xFFF0000000000001,
        0x7FF8DEADBEEF0000, 0x7FFFFFFFFFFFFFFF,
    )
    #: Well-formed typed values: signed zeros, infinities, subnormals,
    #: the extremes.
    TYPED_VALUES = (
        0.0, -0.0, float("inf"), float("-inf"), 5e-324, -2.2250738585072014e-308,
        1.7976931348623157e308, -1.7976931348623157e308, 1.5, -0.1,
    )

    def __init__(self, limits: Optional[ResourceLimits] = None, registry=None) -> None:
        super().__init__(limits)
        self._parser = SOAPRequestParser(registry, self.limits)
        self._leaf_cache: Dict[bytes, list] = {}

    @staticmethod
    def valid_frame(
        rng: random.Random, template_id: int, epoch: int, seq: int, body: bytes
    ) -> bytes:
        """A decodable frame whose splices copy *body*'s own bytes."""
        offsets: List[int] = []
        widths: List[int] = []
        n = rng.randint(0, 4)
        if n and len(body) >= 8:
            for start in sorted(rng.sample(range(len(body)), n)):
                if not offsets or start >= offsets[-1] + widths[-1]:
                    offsets.append(start)
                    widths.append(min(rng.randint(1, 16), len(body) - start))
        payload = b"".join(body[o : o + w] for o, w in zip(offsets, widths))
        doc_len = len(body)
        return encode_frame(template_id, epoch, seq, doc_len, offsets, widths, payload)

    def next_case(
        self, rng: random.Random, template_id: int, epoch: int, seq: int, body: bytes
    ) -> Tuple[bytes, str]:
        """One mutated frame plus the mutator name that produced it."""
        frame = self.valid_frame(rng, template_id, epoch, seq, body)
        ctx = {"template_id": template_id, "epoch": epoch, "seq": seq, "body": body}
        name, mutate = rng.choice(self._mutators)
        return mutate(rng, frame, ctx), name

    _splice_count_lie = _header_lie(
        28, "<I", lambda r, n, lim: r.choice([0, 1, 7, 0xFFFF])
    )
    _giant_splice_count = _header_lie(
        28, "<I", lambda r, n, lim: lim.max_delta_splices + r.randint(1, 1 << 10)
    )
    _stale_epoch = _header_lie(12, "<I", lambda r, n, lim: max(0, n - 1))
    _future_epoch = _header_lie(12, "<I", lambda r, n, lim: n + r.randint(1, 5))
    _sequence_gap = _header_lie(
        16, "<I", lambda r, n, lim: r.choice([0, n + r.randint(1, 10)])
    )
    _doc_len_lie = _header_lie(
        20, "<Q", lambda r, n, lim: r.choice([0, n - 1, n + 1, n * 2, 1 << 40])
    )
    _unknown_template = _header_lie(4, "<Q", lambda r, n, lim: n + 1000)
    _overlapping_splices = _fixed([5, 8], [8, 4], b"Y" * 12)
    _zero_width_splice = _fixed([3], [0], b"")
    _payload_length_lie = _fixed([2], [6], b"zz")

    @staticmethod
    def _bad_magic(rng: random.Random, frame: bytes, ctx: dict) -> bytes:
        return bytes(rng.getrandbits(8) for _ in range(4)) + frame[4:]

    @staticmethod
    def _oob_offset(rng: random.Random, frame: bytes, ctx: dict) -> bytes:
        doc_len = len(ctx["body"])
        offsets = [doc_len, doc_len + 1, doc_len * 2 + 17, 1 << 63, (1 << 64) - 1]
        return _encode(ctx, [rng.choice(offsets)], [4], b"XXXX")

    @staticmethod
    def _payload_garbage(rng: random.Random, frame: bytes, ctx: dict) -> bytes:
        """Structurally valid frame splicing random bytes into the
        mirror — exercises parsing of a corrupted reconstruction."""
        body = ctx["body"]
        width = min(rng.randint(1, 32), len(body))
        offset = rng.randrange(len(body) - width + 1)
        junk = bytes(rng.getrandbits(8) for _ in range(width))
        return _encode(ctx, [offset], [width], junk)

    # -- directories aimed at leaf regions -----------------------------
    @staticmethod
    def _regions(body: bytes) -> List[Tuple[int, int]]:
        """``(start, end)`` of each run of text followed by its closing
        tag and whitespace pad: the leaf field regions, near enough."""
        return [m.span(1) for m in _LEAF_REGION.finditer(body)]

    def _region_splices(self, rng: random.Random, frame: bytes, ctx: dict) -> bytes:
        """Splices copying the body's own bytes over leaf regions —
        whole regions, slices of one, or a run straddling two — so the
        document never changes and the decode must not either."""
        body = ctx["body"]
        regions = self._regions(body)
        if not regions:
            return frame
        shape = rng.choice(("whole", "partial", "straddle"))
        count = min(len(regions), rng.randint(1, 4))
        spans: List[Tuple[int, int]] = []
        for j in sorted(rng.sample(range(len(regions)), count)):
            start, end = regions[j]
            if shape == "partial" and end - start > 1:
                start = rng.randrange(start, end - 1)
                end = rng.randrange(start + 1, end + 1)
            elif shape == "straddle" and j + 1 < len(regions):
                end = regions[j + 1][1]
            if not spans or start >= spans[-1][1]:
                spans.append((start, end))
        return _encode(
            ctx,
            [start for start, _ in spans],
            [end - start for start, end in spans],
            b"".join(body[start:end] for start, end in spans),
        )

    # -- typed splices ---------------------------------------------------
    def _leaves(self, body: bytes) -> List[Tuple[int, int, bool, int, object]]:
        """``(region start, region end, is a double, value end, decoded
        value of a double)`` of each leaf of a full parse of *body* (none
        when it does not parse)."""
        leaves = self._leaf_cache.get(body)
        if leaves is None:
            try:
                result = self._parser.parse(body)
            except ReproError:
                leaves = []
            else:
                leaves = []
                for j, ((start, end), (_s, vend)) in enumerate(
                    zip(result.regions.tolist(), result.spans.tolist())
                ):
                    double = result.leaf_type(j) is DOUBLE
                    value = float(result.load_leaf(j)) if double else None
                    leaves.append((start, end, double, vend, value))
            if len(self._leaf_cache) < 64:
                self._leaf_cache[body] = leaves
        return leaves

    def _pick(self, rng: random.Random, body: bytes, double: bool):
        """A random leaf, a double one if *double* (else any other kind);
        ``None`` when the body has no such leaf."""
        leaves = [leaf for leaf in self._leaves(body) if leaf[2] == double]
        return rng.choice(leaves) if leaves else None

    def _typed(self, rng: random.Random, ctx: dict, bits: Sequence[int]) -> bytes:
        """Typed splices with the values *bits* on up to three distinct
        double leaves (on any leaf when the body has no double)."""
        body = ctx["body"]
        leaves = [leaf for leaf in self._leaves(body) if leaf[2]] or self._leaves(body)
        if not leaves:
            return _encode(ctx, [0], [0], struct.pack("<Q", bits[0]))
        chosen = sorted(rng.sample(leaves, min(len(leaves), rng.randint(1, 3))))
        payload = b"".join(struct.pack("<Q", rng.choice(bits)) for _ in chosen)
        return _encode(ctx, [leaf[0] for leaf in chosen], [0] * len(chosen), payload)

    def _typed_values(self, rng: random.Random, frame: bytes, ctx: dict) -> bytes:
        bits = [struct.unpack("<Q", struct.pack("<d", v))[0] for v in self.TYPED_VALUES]
        return self._typed(rng, ctx, bits)

    def _typed_nan(self, rng: random.Random, frame: bytes, ctx: dict) -> bytes:
        return self._typed(rng, ctx, self.ODD_NANS)

    def _typed_off_start(self, rng: random.Random, frame: bytes, ctx: dict) -> bytes:
        """A typed splice inside a double leaf's region, past its start."""
        leaf = self._pick(rng, ctx["body"], True)
        if leaf is None or leaf[1] - leaf[0] < 2:
            return frame
        offset = rng.randrange(leaf[0] + 1, leaf[1])
        return _encode(ctx, [offset], [0], struct.pack("<d", 1.5))

    def _typed_in_skeleton(self, rng: random.Random, frame: bytes, ctx: dict) -> bytes:
        """A typed splice on markup: the document's first byte or the
        first byte after a leaf's region."""
        ends = [leaf[1] for leaf in self._leaves(ctx["body"])]
        offset = rng.choice([0] + [end for end in ends if end < len(ctx["body"])])
        return _encode(ctx, [offset], [0], struct.pack("<d", 1.5))

    def _typed_other_leaf(self, rng: random.Random, frame: bytes, ctx: dict) -> bytes:
        """A typed splice at the start of an int, string or boolean leaf."""
        leaf = self._pick(rng, ctx["body"], False)
        if leaf is None:
            return frame
        return _encode(ctx, [leaf[0]], [0], struct.pack("<d", 7.0))

    def _typed_payload_lie(self, rng: random.Random, frame: bytes, ctx: dict) -> bytes:
        """One typed splice with 7 or 9 payload bytes."""
        leaf = self._pick(rng, ctx["body"], True)
        offset = 0 if leaf is None else leaf[0]
        return _encode(ctx, [offset], [0], b"\x01" * rng.choice((7, 9)))

    def _typed_byte_overlap(self, rng: random.Random, frame: bytes, ctx: dict) -> bytes:
        """A typed splice and a byte splice inside the same leaf's region
        (the body's own bytes)."""
        leaf = self._pick(rng, ctx["body"], True)
        if leaf is None or leaf[1] - leaf[0] < 2:
            return frame
        start, end = leaf[0], leaf[1]
        offset = rng.randrange(start + 1, end)
        width = rng.randint(1, end - offset)
        payload = ctx["body"][offset : offset + width] + struct.pack("<d", 2.5)
        return _encode(ctx, [start, offset], [0, width], payload)

    def _many_entries(self, rng: random.Random, frame: bytes, ctx: dict) -> bytes:
        """An honest frame of more than ``SMALL_FRAME`` directory entries
        whenever the body's leaf regions have the bytes: some double
        leaves typed with their own decoded values, every other leaf
        region copied over itself in pieces of one to three bytes.  It
        changes no value, and takes the vector lane of the decoder."""
        body = ctx["body"]
        leaves = self._leaves(body)
        if not leaves:
            return frame
        typed = [leaf for leaf in leaves if leaf[2] and rng.random() < 0.5]
        copied = [leaf[:2] for leaf in leaves if leaf not in typed]
        want = wire_frame.SMALL_FRAME + rng.randint(1, 16) - len(typed)
        room = sum(end - start for start, end in copied)
        # Pieces as fine as the entry count needs: one byte at the finest.
        widest = max(1, min(3, room // max(1, want)))
        entries = [(leaf[0], 0) for leaf in typed]
        for start, end in copied:
            at = start
            while at < end:
                width = min(rng.randint(1, widest), end - at)
                entries.append((at, width))
                at += width
        entries.sort()
        return _encode(
            ctx,
            [at for at, _width in entries],
            [width for _at, width in entries],
            b"".join(body[at : at + width] for at, width in entries)
            + struct.pack("<%dd" % len(typed), *(leaf[4] for leaf in typed)),
        )

    # -- pad insertions ------------------------------------------------
    def _insert_pad(self, rng: random.Random, frame: bytes, ctx: dict) -> bytes:
        """Pad inserted at the end of up to three leaf regions, each
        shifting the next: the document's values never change."""
        ends = sorted({leaf[1] for leaf in self._leaves(ctx["body"])})
        if not ends:
            return frame
        inserts, grown = [], 0
        for end in sorted(rng.sample(ends, min(len(ends), rng.randint(1, 3)))):
            count = rng.randint(1, 40)
            inserts.append((end + grown, count))
            grown += count
        return _encode(ctx, [], [], b"", inserts)

    def _insert_in_skeleton(self, rng: random.Random, frame: bytes, ctx: dict) -> bytes:
        """Pad inserted into markup: before the document's first byte, or
        just past the ``<`` that follows a leaf's region."""
        body = ctx["body"]
        spots = [0] + [
            leaf[1] + 1 for leaf in self._leaves(body) if leaf[1] + 1 < len(body)
        ]
        return _encode(ctx, [], [], b"", [(rng.choice(spots), rng.randint(1, 8))])

    def _insert_in_value(self, rng: random.Random, frame: bytes, ctx: dict) -> bytes:
        """Pad inserted inside a leaf's value text."""
        leaves = [leaf for leaf in self._leaves(ctx["body"]) if leaf[3] - leaf[0] >= 2]
        if not leaves:
            return frame
        start, _end, _double, vend, _value = rng.choice(leaves)
        return _encode(ctx, [], [], b"", [(rng.randrange(start + 1, vend), 3)])

    @staticmethod
    def _insert_past_end(rng: random.Random, frame: bytes, ctx: dict) -> bytes:
        """An insertion reaching past the new document's end."""
        count = rng.randint(1, 16)
        doc_len = len(ctx["body"]) + count
        at = rng.choice([doc_len - count + 1, doc_len, doc_len + 7, (1 << 63) - 1])
        return _encode(ctx, [], [], b"", [(at, count)])

    def _insert_growth_lie(self, rng: random.Random, frame: bytes, ctx: dict) -> bytes:
        """A pad insertion under a ``doc_len`` its growth does not explain."""
        ends = [leaf[1] for leaf in self._leaves(ctx["body"])] or [0]
        count = rng.randint(1, 16)
        lie = len(ctx["body"]) + count + rng.choice([-count, -1, 1, count, 999])
        return _encode(ctx, [], [], b"", [(rng.choice(ends), count)], lie)

    def _insert_unsorted(self, rng: random.Random, frame: bytes, ctx: dict) -> bytes:
        """Two insertions out of order, or the second inside the first."""
        ends = sorted({leaf[1] for leaf in self._leaves(ctx["body"])}) or [0, 1]
        first = rng.choice(ends)
        second = rng.choice([first - 1, first, first + 2]) if first else 0
        return _encode(ctx, [], [], b"", [(first, 4), (max(0, second), 3)])

    def _insert_in_typed_value(self, rng: random.Random, frame: bytes, ctx: dict) -> bytes:
        """A typed splice on a double leaf, and pad inserted inside that
        leaf's value text."""
        leaves = [
            leaf for leaf in self._leaves(ctx["body"]) if leaf[2] and leaf[3] - leaf[0] >= 2
        ]
        if not leaves:
            return frame
        start, _end, _double, vend, _value = rng.choice(leaves)
        value = struct.pack("<d", rng.choice(self.TYPED_VALUES))
        at = rng.randrange(start + 1, vend)
        return _encode(ctx, [start], [0], value, [(at, rng.randint(1, 4))])

    def _insert_body_bomb(self, rng: random.Random, frame: bytes, ctx: dict) -> bytes:
        """One insertion growing the document past ``max_body_bytes``."""
        body = ctx["body"]
        count = self.limits.max_body_bytes - len(body) + rng.randint(1, 64)
        return _encode(ctx, [], [], b"", [(len(body), min(count, INSERT_FLAG - 1))])

    def _region_garbage(self, rng: random.Random, frame: bytes, ctx: dict) -> bytes:
        """One whole-region splice whose bytes are the region's own
        with a few replaced — digits, markup, entity starts, junk."""
        regions = self._regions(ctx["body"])
        if not regions:
            return frame
        start, end = rng.choice(regions)
        data = bytearray(ctx["body"][start:end])
        for _ in range(rng.randint(1, 3)):
            junk = rng.choice(b"0123456789.-eE <>/&;x\x00\xff")
            data[rng.randrange(len(data))] = junk
        return _encode(ctx, [start], [len(data)], bytes(data))


def _post(length: int, headers: bytes = b"") -> bytes:
    """A POST request head declaring *length* body bytes."""
    return (
        b"POST / HTTP/1.1\r\nContent-Type: text/xml\r\n%s"
        b"Content-Length: %d\r\n\r\n" % (headers, length)
    )


class HTTPFuzzer:
    """Wraps :class:`WireFuzzer` bodies in (possibly broken) framing."""

    #: ``_frame_<name>`` each; "valid" twice, so most cases exercise body
    #: parsing, not framing.
    FRAMINGS = (
        "valid", "valid", "chunked", "lying_short", "lying_long", "chunk_truncated",
        "chunk_bad_size", "garbage_request_line", "header_bomb", "oversize_declared",
    )

    def __init__(self, wire_fuzzer: WireFuzzer) -> None:
        self.wires = wire_fuzzer
        self.limits = wire_fuzzer.limits

    def next_case(self, rng: random.Random) -> Tuple[bytes, str]:
        """One raw request byte-string plus a ``framing/mutator`` label."""
        body, mutator = self.wires.next_case(rng)
        framing = rng.choice(self.FRAMINGS)
        raw = getattr(self, "_frame_" + framing)(rng, body)
        return raw, f"{framing}/{mutator}"

    def _frame_valid(self, rng: random.Random, body: bytes) -> bytes:
        return _post(len(body)) + body

    def _frame_chunked(self, rng: random.Random, body: bytes) -> bytes:
        out = [b"POST / HTTP/1.1\r\nContent-Type: text/xml\r\n"
               b"Transfer-Encoding: chunked\r\n\r\n"]
        pos = 0
        while pos < len(body):
            size = min(len(body) - pos, rng.randint(1, 512))
            out.append(b"%x\r\n" % size + body[pos : pos + size] + b"\r\n")
            pos += size
        return b"".join(out) + b"0\r\n\r\n"

    def _frame_lying_short(self, rng: random.Random, body: bytes) -> bytes:
        """Declare more bytes than are sent (EOF mid-body)."""
        return _post(len(body) + rng.randint(1, 512)) + body

    def _frame_lying_long(self, rng: random.Random, body: bytes) -> bytes:
        """Declare fewer bytes than are sent (tail parsed as garbage)."""
        return _post(rng.randrange(len(body)) if body else 0) + body

    def _frame_chunk_truncated(self, rng: random.Random, body: bytes) -> bytes:
        """Chunked framing cut at a chunk boundary or mid-chunk."""
        whole = self._frame_chunked(rng, body)
        return whole[: rng.randrange(whole.index(b"\r\n\r\n") + 4, len(whole))]

    def _frame_chunk_bad_size(self, rng: random.Random, body: bytes) -> bytes:
        bad = rng.choice([b"ZZZ", b"-5", b"1x", b""])
        head = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        return head + bad + b"\r\n" + body[:16]

    def _frame_garbage_request_line(self, rng: random.Random, body: bytes) -> bytes:
        line = bytes(rng.getrandbits(8) for _ in range(rng.randint(1, 64)))
        return line.replace(b"\r", b"?").replace(b"\n", b"?") + b"\r\n\r\n"

    def _frame_header_bomb(self, rng: random.Random, body: bytes) -> bytes:
        filler = b"X-Junk: " + b"j" * 1024 + b"\r\n"
        count = self.limits.max_header_bytes // len(filler) + 2
        return b"POST / HTTP/1.1\r\n" + filler * count + b"Content-Length: 0\r\n\r\n"

    def _frame_oversize_declared(self, rng: random.Random, body: bytes) -> bytes:
        return _post(self.limits.max_body_bytes + rng.randint(1, 1 << 16)) + body[:64]


# ----------------------------------------------------------------------
# Decoded values
# ----------------------------------------------------------------------
def _same_leaves(a: object, b: object) -> bool:
    """Decoded values equal down to the bit pattern of every double
    (``-0.0``, denormals and ``inf`` all distinguish)."""
    import numpy as np

    if isinstance(a, dict) and isinstance(b, dict):
        return list(a) == list(b) and all(_same_leaves(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same_leaves, a, b))
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, float) and isinstance(b, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    return type(a) is type(b) and a == b


def _signature(result) -> Dict[str, object]:
    """What :func:`parse_divergence` compares of a ``ParseResult``."""
    params = result.message.params
    return {
        "operation": result.message.operation,
        "parameter names/kinds/types": [
            (p.name, p.kind, p.element_type) for p in params
        ],
        "values": [p.value for p in params],
        "spans": result.spans,
        "regions": result.regions,
        "layouts": [
            (l.leaf_base, l.leaf_count, l.arity, l.leaf_types, l.field_names)
            for l in result.layouts
        ],
    }


def _table_signature(wire: bytes, result) -> Dict[str, object]:
    """What :func:`parse_divergence` compares of the
    :class:`~repro.schema.skipscan.SeekTable` compiled from *result*:
    its arrays and derived layout, or the reason compile refused."""
    try:
        table = SeekTable.compile(wire, result)
    except SkipScanFallback as exc:
        return {"seek-table refusal": exc.reason}
    return {
        "table starts": table.starts,
        "table ends": table.ends,
        "table tag_ids": table.tag_ids,
        "table tag_lens": table.tag_lens,
        "table closing tags": sorted(table.trie.items()),
        "table rooms": table._rooms,
        "table stride": table._stride,
        "table region_len": table.region_len,
        "table commit map": (
            len(table._containers), table._param_of, table._item_of
        ),
    }


def parse_divergence(parser, wire: bytes) -> Optional[str]:
    """How ``parser.parse`` and its generic event path disagree on
    *wire* — ``None`` when they do not.

    Agreement is the same :class:`~repro.server.parser.ParseResult`
    (operation, parameter names/kinds/element types, values bit for
    bit, ``spans``, ``regions``, layouts) and the same
    :class:`~repro.schema.skipscan.SeekTable` compiled from it (regions,
    closing tags, rooms, stride, region length, commit map — or the
    same refusal reason), or the same exception type and message.  The
    oracle of the full parse's leaf-run lane, and of a compile that
    takes its closing tag from the lane's proof instead of re-proving
    it.
    """

    def outcome(parse) -> tuple:
        try:
            result = parse(wire)
        except Exception as exc:  # noqa: BLE001 - compared, not handled
            return ("raised", type(exc), str(exc))
        return ("ok", {**_signature(result), **_table_signature(wire, result)})

    lane, generic = outcome(parser.parse), outcome(parser._parse_generic)
    if lane[0] == generic[0] == "ok":
        a, b = lane[1], generic[1]
        differ = [
            key for key in {**a, **b}
            if key not in a or key not in b or not _same_leaves(a[key], b[key])
        ]
        return f"{', '.join(differ)} differ" if differ else None
    if lane == generic:
        return None
    lane_said, generic_said = (
        "ok" if o[0] == "ok" else f"{o[1].__name__}: {o[2]}" for o in (lane, generic)
    )
    return f"lane {lane_said} but generic {generic_said}"


def _values(parser: SOAPRequestParser, document) -> Dict[str, object]:
    """``name -> value`` of a full parse of *document*."""
    return {p.name: p.value for p in parser.parse(bytes(document)).message.params}


def _value_splice(parser: SOAPRequestParser, body: bytes):
    """A frame entry's probe for *body*: ``(body, (offset, byte),
    values)``, one digit of a leaf's text changed so that the document
    still parses, to other *values* (the full parse of the patched
    document); ``None`` when no digit does that."""
    pristine = _values(parser, body)
    for start, end in parser.parse(body).spans.tolist():
        for pos in range(start, end):
            if not 0x30 <= body[pos] <= 0x39:
                continue
            byte = bytes([body[pos] - 1 if body[pos] > 0x30 else body[pos] + 1])
            try:
                values = _values(parser, body[:pos] + byte + body[pos + 1 :])
            except ReproError:
                continue
            if not _same_leaves(values, pristine):
                return body, (pos, byte), values
    return None


def _classify_response(response: object) -> str:
    """``ok``/``fault`` for a parseable envelope; raises otherwise."""
    if not isinstance(response, (bytes, bytearray)) or not response:
        raise ValueError(f"non-bytes response: {type(response).__name__}")
    return "fault" if SOAPFault.from_xml(bytes(response)) is not None else "ok"


def _poisoned(parser: SOAPRequestParser, response, values) -> Optional[str]:
    """What is wrong with *response* as the fuzz service's answer to a
    request decoding to *values* (``None``: nothing)."""
    if _classify_response(response) != "ok":
        return "faulted: session state poisoned"
    answer = {"count": _checksum_handler(**values)}
    if not _same_leaves(_values(parser, response), answer):
        return "answered another checksum than the full parse: state poisoned"
    return None


# ----------------------------------------------------------------------
# Live HTTP
# ----------------------------------------------------------------------
def raw_exchange(
    host: str, port: int, raw: bytes, timeout: float = 10.0
) -> Tuple[str, bytes]:
    """Send *raw* on a fresh connection, half-close, read to EOF:
    ``(disposition, bytes)``, disposition ``"hang"`` when a read timed
    out, else ``"closed"``."""
    chunks: List[bytes] = []
    with socket.create_connection((host, port), timeout=timeout) as sock:
        try:
            sock.sendall(raw)
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            # The server may reject and close while we are still
            # writing (e.g. oversized framing) — whatever it answered
            # before the reset is still on our receive queue.
            pass
        while True:
            try:
                data = sock.recv(65536)
            except socket.timeout:
                return "hang", b"".join(chunks)
            except OSError:
                break
            if not data:
                break
            chunks.append(data)
    return "closed", b"".join(chunks)


def _http_outcome(disposition: str, payload: bytes, requests: int):
    """``(outcome, violation, answers)`` of one exchange of *requests*
    pipelined requests, *answers* its ``(status, body)`` pairs.  The
    outcome names the first *requests* statuses; every status must be
    allowed and every request answered."""
    if disposition == "hang":
        return "hang", "server hung", []
    answers: List[Tuple[int, bytes]] = []
    rest = payload
    while rest:
        try:
            status, _headers, body, consumed = parse_http_response(rest)
        except ReproError:
            break
        answers.append((status, body))
        rest = rest[consumed:]
    statuses = [status for status, _body in answers]
    outcome = "_".join(["http"] + [str(s) for s in statuses[:requests]])
    bad = [s for s in statuses if s not in ALLOWED_HTTP_STATUSES]
    if not payload:
        return "silent_drop", "connection closed with no response", answers
    if not answers:
        return "garbled", f"unparseable response {payload[:60]!r}", answers
    if bad:
        return outcome, f"unexpected status(es) {bad}", answers
    if len(answers) < requests:
        return "missing_response", f"{len(answers)} answers to {requests}", answers
    return outcome, None, answers


def _delta_requests(epoch: int, body: bytes, frame: bytes) -> bytes:
    """A full-XML announce of *body* pipelined with *frame*."""
    announce = _post(
        len(body),
        b"X-Repro-Delta: 1\r\nX-Repro-Delta-Template: %d\r\n"
        b"X-Repro-Delta-Epoch: %d\r\n" % (_FUZZ_TEMPLATE_ID, epoch),
    )
    framed = _post(len(frame), b"X-Repro-Delta: 1\r\nX-Repro-Delta-Frame: 1\r\n")
    return announce + body + framed + frame


# ----------------------------------------------------------------------
# Entries and the loop
# ----------------------------------------------------------------------
#: Headers marking a request body as a binary delta frame.
_FRAME_HEADERS = {"x-repro-delta": "1", "x-repro-delta-frame": "1"}

#: Template id the frame entries announce their mirrors under
#: (``service-delta``: the first of ``max_delta_mirrors + 1``).
_FUZZ_TEMPLATE_ID = 71


def _announce_headers(template_id: int, epoch: int) -> Dict[str, str]:
    return {
        "x-repro-delta": "1",
        "x-repro-delta-template": str(template_id),
        "x-repro-delta-epoch": str(epoch),
    }


def _probe_frame(template_id: int, epoch: int, probe) -> bytes:
    """The frame of a frame entry's *probe*: its one splice."""
    body, (offset, byte), _values = probe
    return encode_frame(template_id, epoch, 1, len(body), [offset], [1], byte)


class _Entry:
    """One entry point under fuzz: calibration, one exchange with its
    outcome, and the probe; :func:`run` owns everything else.

    Calibration keeps the corpus wires the service answers without a
    fault when pristine (:attr:`pristine`, the answers :attr:`replies`)
    and builds :attr:`probes`, ``(input, splice, values)``: *values* are
    what a full parse of *input* decodes — for a frame entry
    (:attr:`frames`), of *input* patched by *splice* ``(offset, byte)``,
    which changes one leaf's value.  Subclasses define ``exchange(case)
    -> (outcome, violation or None)``, which may raise, and
    ``probe(index) -> violation or None``, which sends ``probes[index]``.
    """

    frames = False

    def __init__(self, service: SOAPService, wires: List[bytes]) -> None:
        self.service = service
        self.wires = wires
        self.parser = SOAPRequestParser(service.registry, service.limits)
        answers = [(wire, service.handle(wire)) for wire in wires]
        ok = [(w, bytes(a)) for w, a in answers if _classify_response(a) == "ok"]
        self.pristine = [wire for wire, _answer in ok]
        self.replies = [answer for _wire, answer in ok]
        self.probes = self._probes(self.pristine)
        if self.frames:
            self.fuzzer = DeltaFrameFuzzer(service.limits, service.registry)
        else:
            self.fuzzer = WireFuzzer(wires, limits=service.limits)
        self.epoch = 0

    def _probes(self, bodies: List[bytes]) -> list:
        if not self.frames:
            return [(body, None, _values(self.parser, body)) for body in bodies]
        return [p for p in (_value_splice(self.parser, b) for b in bodies) if p]

    def draw(self, rng: random.Random) -> Tuple[object, str]:
        """One case and its mutator label; every draw is from *rng*."""
        return self.fuzzer.next_case(rng)

    def close(self) -> None:
        pass


class _Service(_Entry):
    """``handle`` never raises and answers a parseable envelope."""

    def exchange(self, wire: bytes):
        return _classify_response(self.service.handle(wire)), None

    def probe(self, index: int):
        wire, _splice, values = self.probes[index]
        return _poisoned(self.parser, self.service.handle(wire), values)


class _ServiceDelta(_Entry):
    """An announce under one of ``max_delta_mirrors + 1`` template ids,
    then a frame through ``handle_wire``: 200 with an envelope, or 409."""

    frames = True
    SESSION = "fuzz-delta"

    def __init__(self, service: SOAPService, wires: List[bytes]) -> None:
        super().__init__(service, wires)
        count = service.limits.max_delta_mirrors + 1
        self.ids = [_FUZZ_TEMPLATE_ID + i for i in range(count)]
        self.fuzzed = self.ids[0]

    def draw(self, rng: random.Random):
        body = rng.choice(self.pristine)
        self.fuzzed = rng.choice(self.ids)
        self.epoch += 1
        frame, mutator = self.fuzzer.next_case(rng, self.fuzzed, self.epoch, 1, body)
        return (self.fuzzed, self.epoch, body, frame), mutator

    def _send(self, template_id: int, epoch: int, body: bytes, frame: bytes):
        headers = _announce_headers(template_id, epoch)
        self.service.handle_wire(body, headers, self.SESSION)
        return self.service.handle_wire(frame, _FRAME_HEADERS, self.SESSION)

    def exchange(self, case):
        status, _extra, response = self._send(*case)
        if status == 200:
            return _classify_response(response), None
        if status == 409:
            return "resync", None
        return f"status_{status}", f"unexpected status {status}"

    def probe(self, index: int):
        # Any id but the one just fuzzed: each is a store entry of its own.
        ids = self.ids
        step = 1 + index % (len(ids) - 1)
        template_id = ids[(ids.index(self.fuzzed) + step) % len(ids)]
        self.epoch += 1
        body, _splice, values = probe = self.probes[index]
        frame = _probe_frame(template_id, self.epoch, probe)
        status, _extra, response = self._send(template_id, self.epoch, body, frame)
        if status != 200:
            return f"rejected (status {status}): delta state poisoned"
        return _poisoned(self.parser, response, values)


class _Http(_Entry):
    """A live :func:`make_server` front end, one half-closed connection
    per case: every one of its :attr:`REQUESTS` requests answered with a
    status in :data:`ALLOWED_HTTP_STATUSES` — no hang, no silent drop."""

    REQUESTS = 1

    def __init__(self, service: SOAPService, wires: List[bytes], mode: str) -> None:
        super().__init__(service, wires)
        if not self.frames:
            self.fuzzer = HTTPFuzzer(self.fuzzer)
        self.server = make_server(service, mode).start()

    def _send(self, raw: bytes):
        disposition, payload = raw_exchange("127.0.0.1", self.server.port, raw)
        return _http_outcome(disposition, payload, self.REQUESTS)

    def exchange(self, raw: bytes):
        return self._send(raw)[:2]

    def _request(self, probe) -> bytes:
        return _post(len(probe[0])) + probe[0]

    def probe(self, index: int):
        probe = self.probes[index]
        outcome, violation, answers = self._send(self._request(probe))
        if violation is None and outcome != "http" + "_200" * self.REQUESTS:
            violation = f"answered {outcome}: front-end state poisoned"
        if violation is not None:
            return violation
        return _poisoned(self.parser, answers[self.REQUESTS - 1][1], probe[2])

    def close(self) -> None:
        self.server.stop()


class _DeltaHttp(_Http):
    """Per connection, an announce pipelined with a frame."""

    frames = True
    REQUESTS = 2

    def draw(self, rng: random.Random):
        body = rng.choice(self.wires)
        self.epoch += 1
        frame, mutator = self.fuzzer.next_case(
            rng, _FUZZ_TEMPLATE_ID, self.epoch, 1, body
        )
        return _delta_requests(self.epoch, body, frame), mutator

    def _request(self, probe) -> bytes:
        # Each connection is a session of its own: epoch 1 is fresh.
        return _delta_requests(1, probe[0], _probe_frame(_FUZZ_TEMPLATE_ID, 1, probe))


class _ScriptedReplies(NullSink):
    """``raw_transport=`` stub: swallows sends, serves queued replies."""

    replies: List[Tuple[int, Dict[str, str], bytes]]

    def recv_http_response(self, limit: Optional[int] = None):
        return self.replies.pop(0)

    def disconnect(self) -> None:
        pass


class _DeltaReply(_Entry):
    """An ``RPCChannel`` over a scripted transport gets an announced full
    reply, then a mutated reply frame with the full reply queued for the
    resync retry: the call never raises and returns the reply's values,
    unless the frame spliced CRC-valid garbage into the document."""

    frames = True

    def __init__(self, service: SOAPService, wires: List[bytes]) -> None:
        from repro.channel import RPCChannel
        from repro.core.policy import DeltaPolicy, DiffPolicy
        from repro.resilience.retry import RetryPolicy
        from repro.soap.message import SOAPMessage

        super().__init__(service, wires)
        self.probes = self._probes(self.replies)
        self.transport = _ScriptedReplies()
        self.channel = RPCChannel(
            "fuzz", 0, registry=service.registry,
            policy=DiffPolicy(delta=DeltaPolicy(offer=True)),
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
            raw_transport=self.transport,
        )
        self.request = SOAPMessage("probe", service.namespace, [])

    def draw(self, rng: random.Random):
        body = rng.choice(self.replies)
        self.epoch += 1
        frame, mutator = self.fuzzer.next_case(
            rng, _FUZZ_TEMPLATE_ID, self.epoch, 1, body
        )
        return (self.epoch, body, frame, mutator), mutator

    def _calls(self, epoch: int, body: bytes, frame: bytes):
        """``(announced values, values, retries)`` of a call answered by
        *body* announced as a fresh baseline, then one answered by
        *frame* with *body* queued behind it."""
        headers = _announce_headers(_FUZZ_TEMPLATE_ID, epoch)
        self.transport.replies = [(200, headers, body)]
        announced = self.channel.call(self.request).values
        self.transport.replies = [(200, _FRAME_HEADERS, frame), (200, {}, body)]
        values = self.channel.call(self.request).values
        return announced, values, self.channel.last_send_report.retries

    def exchange(self, case):
        epoch, body, frame, mutator = case
        announced, values, retries = self._calls(epoch, body, frame)
        outcome = "resync" if retries else "ok"
        rewrites = mutator in DeltaFrameFuzzer.REWRITES_VALUES
        if rewrites or _same_leaves(values, announced):
            return outcome, None
        return "wrong_value", f"decoded a wrong value from a reply frame ({outcome})"

    def probe(self, index: int):
        self.epoch += 1
        body, _splice, expected = probe = self.probes[index]
        frame = _probe_frame(_FUZZ_TEMPLATE_ID, self.epoch, probe)
        _announced, values, retries = self._calls(self.epoch, body, frame)
        if retries or not _same_leaves(values, expected):
            return f"{retries} retries or other values than the full parse: poisoned"
        return None

    def close(self) -> None:
        self.channel.close()


class _Parse(_Entry):
    """The parser's leaf-run lane agrees with its generic event path."""

    def exchange(self, wire: bytes):
        divergence = parse_divergence(self.parser, wire)
        return ("diverged" if divergence else "agreed"), divergence

    def probe(self, index: int):
        return parse_divergence(self.parser, self.probes[index][0])


#: Entry name -> adapter factory ``(service, corpus wires) -> entry``.
ENTRIES: Dict[str, Callable[[SOAPService, List[bytes]], _Entry]] = {
    "service": _Service,
    "service-delta": _ServiceDelta,
    **{f"http:{m}": functools.partial(_Http, mode=m) for m in SERVER_MODES},
    **{f"delta-http:{m}": functools.partial(_DeltaHttp, mode=m) for m in SERVER_MODES},
    "delta-reply": _DeltaReply,
    "parse": _Parse,
}


@dataclass
class FuzzReport:
    """Aggregated result of one fuzz run (one entry, one seed)."""

    seed: int
    mode: str = "service"
    iterations: int = 0
    outcomes: Dict[str, int] = field(default_factory=dict)
    mutators: Dict[str, int] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def export_to(self, obs) -> "FuzzReport":
        """Serve :attr:`outcomes` as ``repro_fuzz_cases_total``."""
        if obs.metrics is not None:
            obs.metrics.counter(
                "repro_fuzz_cases_total",
                "Fuzz cases by entry and outcome",
                ("mode", "outcome"),
            )
            obs.metrics.watch(self)
        return self

    def metric_samples(self) -> Dict[tuple, int]:
        return {
            ("repro_fuzz_cases_total", self.mode, outcome): count
            for outcome, count in self.outcomes.copy().items()
        }

    def record(self, outcome: str, mutator: str) -> None:
        self.iterations += 1
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        self.mutators[mutator] = self.mutators.get(mutator, 0) + 1

    def violate(self, description: str) -> None:
        self.violations.append(f"[seed={self.seed}] {description}")

    def summary(self) -> str:
        mix = ", ".join(f"{name}={n}" for name, n in sorted(self.outcomes.items()))
        verdict = "OK" if self.ok else f"{len(self.violations)} VIOLATIONS"
        return (
            f"{self.mode} fuzz: {self.iterations} cases (seed {self.seed}) "
            f"[{mix}] -> {verdict}"
        )


def run(
    entry: str, seed: int = 0, iterations: int = 200, probe_every: int = 50, *,
    service: Optional[SOAPService] = None, corpus: Optional[Sequence[bytes]] = None,
) -> FuzzReport:
    """Fuzz *entry* (a key of :data:`ENTRIES`) for *iterations* cases.

    Every case is drawn from ``random.Random(seed)``; an exchange that
    raises is a ``crash``.  After every *probe_every* cases, and once
    at the end, the entry's next probe must decode to its full-parse
    values.
    """
    service = service if service is not None else build_fuzz_service()
    wires = list(corpus) if corpus is not None else default_corpus()
    report = FuzzReport(seed=seed, mode=entry).export_to(service.obs)
    adapter = ENTRIES[entry](service, wires)
    rng = random.Random(seed)

    def probe(case_no: int) -> None:
        index = (case_no // max(1, probe_every)) % len(adapter.probes)
        try:
            violation = adapter.probe(index)
        except Exception as exc:  # noqa: BLE001 - the invariant under test
            violation = f"raised {exc!r}"
        if violation is not None:
            report.violate(f"probe after case {case_no}: {violation}")

    try:
        if not adapter.probes:
            report.violate("no corpus wire makes a pristine probe")
            return report
        for case_no in range(iterations):
            case, label = adapter.draw(rng)
            try:
                outcome, violation = adapter.exchange(case)
            except Exception as exc:  # noqa: BLE001 - the invariant under test
                outcome, violation = "crash", f"escaped: {type(exc).__name__}: {exc}"
            if violation is not None:
                report.violate(f"case {case_no} ({label}): {violation}")
            report.record(outcome, label)
            if probe_every and (case_no + 1) % probe_every == 0:
                probe(case_no)
        probe(iterations)
    finally:
        adapter.close()
    return report


# ----------------------------------------------------------------------
# CLI (the CI fuzz-smoke job)
# ----------------------------------------------------------------------
def _entry_arg(text: str) -> Tuple[str, int]:
    name, _, count = text.partition("=")
    if name not in ENTRIES or not (count or "0").isdigit():
        raise argparse.ArgumentTypeError(
            f"want NAME[=N], NAME one of {', '.join(ENTRIES)}; got {text!r}"
        )
    return name, int(count or 200)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.hardening.fuzz",
        description="Seeded wire fuzzer for the hardened SOAP stack.",
    )
    parser.add_argument(
        "--corpus",
        help="directory of seed wires (default: tests/golden, else synthetic)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--entry", action="append", type=_entry_arg, metavar="NAME[=N]",
        help="fuzz entry NAME for N cases (default 200); repeatable; "
        f"without it every entry runs: {', '.join(ENTRIES)}",
    )
    args = parser.parse_args(argv)

    corpus = load_corpus(args.corpus) if args.corpus else default_corpus()
    print(f"fuzz seed: {args.seed} ({len(corpus)} corpus wires)")
    failed: List[str] = []
    for name, iterations in args.entry or [(name, 200) for name in ENTRIES]:
        report = run(name, args.seed, iterations, corpus=corpus)
        print(report.summary())
        failed.extend(report.violations)
    for violation in failed[:25]:
        print(f"VIOLATION: {violation}")
    if failed:
        print(f"FAILED with {len(failed)} violations (replay with --seed {args.seed})")
        return 1
    print("fault-not-crash invariant held for every case")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by CI job
    sys.exit(main())

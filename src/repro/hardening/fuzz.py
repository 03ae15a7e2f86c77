"""Seeded wire fuzzer for the fault-not-crash contract.

Two drivers share one corpus-mutation engine:

* :func:`fuzz_service` pushes mutated SOAP bodies straight through
  :meth:`SOAPService.handle` — the invariant is that ``handle`` never
  raises, always returns a parseable envelope (response or Fault), and
  that a pristine *probe* wire still gets a non-fault answer after any
  amount of garbage (no poisoned session state).
* :func:`fuzz_http` wraps mutated bodies in (sometimes deliberately
  broken) HTTP framing and drives them through a live
  :class:`HTTPSoapServer` over real sockets — the invariant is that
  every connection gets an answer (no hangs, no silent drops) with a
  status from the allowed set.

Two more target the binary delta-frame protocol (``repro.wire``),
sharing a :class:`DeltaFrameFuzzer` whose mutators aim at each
decoder/mirror check individually (truncations, splice-count and
doc-len lies, out-of-bounds offsets, stale epochs, sequence gaps):

* :func:`fuzz_delta` announces a baseline under one of several
  template ids, then pushes mutated frames through
  :meth:`SOAPService.handle_wire` — only 200/409 may come back,
  nothing raises, and a pristine frame against another id still
  decodes to its pristine values after any garbage;
* :func:`fuzz_delta_http` does the same over real sockets, one
  connection per case carrying a well-formed announce plus a mutated
  frame;
* :func:`fuzz_delta_reply` turns the same mutators on the *reply*
  direction: an :class:`~repro.channel.RPCChannel` is fed an announced
  full reply and then a mutated reply frame — the call must come back
  with the right values (frame accepted, or one resync retry answered
  by a full reply) and never raise or return a wrong value.

One more works below the service, on the parser alone:

* :func:`fuzz_parse` decodes every mutated wire twice — through
  ``SOAPRequestParser.parse`` (leaf-run lane on) and through the
  generic event path the lane defers to — and requires the same
  values, spans, regions and layouts, or the same exception type and
  message (:func:`parse_divergence`).

Everything is driven by one ``random.Random(seed)``: a failing case
replays exactly from the printed seed.  Mutations are corpus-based
(byte-level: bit flips, truncations, slice splices) plus
structure-aware ones that target what this codebase actually relies
on: tag splices, digit/width perturbation of the stuffed DUT field
regions, ``arrayType`` count lies, entity garbage, and
limits-shaped bombs (nesting depth, attribute count, token length)
sized just past the service's :class:`ResourceLimits`.

Run standalone (CI ``fuzz-smoke`` job)::

    PYTHONPATH=src python -m repro.hardening.fuzz \
        --corpus tests/golden --seed 12345 \
        --service-iterations 2000 --http-iterations 200 \
        --delta-iterations 600 --delta-http-iterations 100 \
        --delta-reply-iterations 600 --parse-iterations 2000

Outcome counts are exported through the service's
:class:`~repro.obs.MetricsRegistry` as
``repro_fuzz_cases_total{mode,outcome}`` so a fuzzed server's
``/metrics`` endpoint shows the rejection mix.
"""

from __future__ import annotations

import argparse
import random
import re
import socket
import struct
import sys
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.hardening.limits import DEFAULT_LIMITS, ResourceLimits
from repro.schema.types import INT
from repro.server.service import Operation, SOAPService
from repro.server.threaded_server import HTTPSoapServer
from repro.soap.fault import SOAPFault
from repro.wire.frame import HEADER, encode_frame

__all__ = [
    "WireFuzzer",
    "HTTPFuzzer",
    "DeltaFrameFuzzer",
    "FuzzReport",
    "build_fuzz_service",
    "load_corpus",
    "default_corpus",
    "fuzz_service",
    "fuzz_http",
    "fuzz_delta",
    "fuzz_delta_http",
    "fuzz_delta_reply",
    "fuzz_parse",
    "parse_divergence",
    "ALLOWED_HTTP_STATUSES",
    "main",
]

#: Statuses a hardened front end may legitimately answer with
#: (409 is the delta protocol's resync signal).
ALLOWED_HTTP_STATUSES = frozenset({200, 400, 404, 408, 409, 413, 503})

#: Operations appearing in the golden corpus — the fuzz service
#: registers a handler for each so pristine wires dispatch cleanly.
CORPUS_OPERATIONS = (
    "putDoubles",
    "putMesh",
    "exchangeAds",
    "shareArrays",
    "configure",
)

_DIGIT_RUN = re.compile(rb"[0-9][0-9.eE+\-]{0,30}")
_ARRAYTYPE = re.compile(rb'arrayType="[^"]*"')
_TAG_NAME = re.compile(rb"</?([A-Za-z][A-Za-z0-9:_\-]*)")
_ITEM_VALUE = re.compile(rb"<item>([^<]{1,64})</item>")
_CLOSE_PAD = re.compile(rb"(</[A-Za-z][A-Za-z0-9:]*>)([ \t]{2,64})")
#: Leaf text, its closing tag and the pad behind it (group 1).
_LEAF_REGION = re.compile(rb">([^<>]+</[^<>]+>[ \t\r\n]*)")


# ----------------------------------------------------------------------
# Corpus
# ----------------------------------------------------------------------
def load_corpus(path) -> List[bytes]:
    """Load every ``*.xml``/``*.bin`` wire under *path*, sorted by name."""
    directory = Path(path)
    files = sorted(
        p for p in directory.glob("*") if p.suffix in (".xml", ".bin")
    )
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

    doubles = SOAPMessage(
        "putDoubles",
        "urn:golden",
        [
            Parameter(
                "data",
                ArrayType(DOUBLE),
                np.array([0.0, 1.5, -2.25, 3.141592653589793]),
            )
        ],
    )
    mixed = SOAPMessage(
        "configure",
        "urn:golden",
        [
            Parameter("n", INT, -42),
            Parameter("scale", DOUBLE, 0.125),
            Parameter("names", ArrayType(STRING), ["alpha", "b<c"]),
        ],
    )
    return [build_template(m).tobytes() for m in (doubles, mixed)]


def default_corpus() -> List[bytes]:
    """``tests/golden`` when running from a checkout, else synthetic."""
    golden = Path(__file__).resolve().parents[3] / "tests" / "golden"
    try:
        return load_corpus(golden)
    except FileNotFoundError:
        return _synthetic_corpus()


def _checksum_handler(**params: object) -> int:
    """Deterministic CRC over every decoded value, not just a count.

    The pristine-probe poisoning check compares this answer against a
    calibration baseline, so a session whose skip-scan lane silently
    committed *wrong values* (not just a fault) flips the probe — the
    failure mode trusted-offset parsing has to prove it does not have.
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
    *,
    limits: Optional[ResourceLimits] = None,
    obs=None,
) -> SOAPService:
    """A service accepting every corpus operation (``urn:golden``).

    Handlers take arbitrary keyword parameters and return a count, so
    any well-formed corpus wire dispatches without a fault while the
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
            Operation(
                name, _checksum_handler, result_type=INT, result_name="count"
            )
        )
    return service


# ----------------------------------------------------------------------
# Mutation engine
# ----------------------------------------------------------------------
class WireFuzzer:
    """Deterministic corpus mutator (one :class:`random.Random`).

    Structure-aware mutators are sized off *limits* so the bombs land
    just past the configured bounds — the interesting side of each
    limit.
    """

    def __init__(
        self,
        corpus: Sequence[bytes],
        seed: int = 0,
        *,
        limits: Optional[ResourceLimits] = None,
    ) -> None:
        self.corpus = [bytes(w) for w in corpus if w]
        if not self.corpus:
            raise ValueError("fuzz corpus is empty")
        self.seed = seed
        self.limits = limits if limits is not None else DEFAULT_LIMITS
        self._rng = random.Random(seed)
        self._mutators: List[Tuple[str, Callable[[random.Random, bytes], bytes]]] = [
            ("identity", lambda rng, w: w),
            ("bit_flip", self._bit_flip),
            ("truncate", self._truncate),
            ("delete_slice", self._delete_slice),
            ("duplicate_slice", self._duplicate_slice),
            ("tag_splice", self._tag_splice),
            ("digit_perturb", self._digit_perturb),
            ("width_perturb", self._width_perturb),
            ("arraytype_lie", self._arraytype_lie),
            ("skeleton_flip", self._skeleton_flip),
            ("span_length_lie", self._span_length_lie),
            ("offset_desync", self._offset_desync),
            ("pad_crlf", self._pad_crlf),
            ("entity_garbage", self._entity_garbage),
            ("utf8_garbage", self._utf8_garbage),
            ("nest_bomb", self._nest_bomb),
            ("attr_bomb", self._attr_bomb),
            ("token_bomb", self._token_bomb),
            ("pure_garbage", self._pure_garbage),
        ]

    def next_case(self) -> Tuple[bytes, str]:
        """One mutated wire plus the mutator name that produced it."""
        rng = self._rng
        wire = rng.choice(self.corpus)
        name, mutate = rng.choice(self._mutators)
        return mutate(rng, wire), name

    # -- byte-level ----------------------------------------------------
    @staticmethod
    def _bit_flip(rng: random.Random, wire: bytes) -> bytes:
        out = bytearray(wire)
        for _ in range(rng.randint(1, 8)):
            out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
        return bytes(out)

    @staticmethod
    def _truncate(rng: random.Random, wire: bytes) -> bytes:
        return wire[: rng.randrange(len(wire))]

    @staticmethod
    def _delete_slice(rng: random.Random, wire: bytes) -> bytes:
        i = rng.randrange(len(wire))
        j = min(len(wire), i + rng.randint(1, 64))
        return wire[:i] + wire[j:]

    @staticmethod
    def _duplicate_slice(rng: random.Random, wire: bytes) -> bytes:
        i = rng.randrange(len(wire))
        j = min(len(wire), i + rng.randint(1, 64))
        return wire[:j] + wire[i:j] + wire[j:]

    # -- structure-aware -----------------------------------------------
    def _tag_splice(self, rng: random.Random, wire: bytes) -> bytes:
        """Copy one tag-ish region over another (mismatched tag soup)."""
        starts = [m.start() for m in re.finditer(rb"<", wire)]
        if len(starts) < 2:
            return self._bit_flip(rng, wire)
        src, dst = rng.sample(starts, 2)
        piece = wire[src : src + rng.randint(2, 40)]
        return wire[:dst] + piece + wire[dst:]

    def _digit_perturb(self, rng: random.Random, wire: bytes) -> bytes:
        """Corrupt characters inside a numeric run (DUT field region)."""
        runs = list(_DIGIT_RUN.finditer(wire))
        if not runs:
            return self._bit_flip(rng, wire)
        run = rng.choice(runs)
        out = bytearray(wire)
        for _ in range(rng.randint(1, 3)):
            pos = rng.randrange(run.start(), run.end())
            out[pos] = rng.choice(b"0123456789.-+eEZ#")
        return bytes(out)

    def _width_perturb(self, rng: random.Random, wire: bytes) -> bytes:
        """Grow or shrink a numeric run (breaks stuffed-width framing)."""
        runs = list(_DIGIT_RUN.finditer(wire))
        if not runs:
            return self._truncate(rng, wire)
        run = rng.choice(runs)
        if rng.random() < 0.5:
            extra = bytes(rng.choice(b"0123456789") for _ in range(rng.randint(1, 24)))
            return wire[: run.end()] + extra + wire[run.end() :]
        keep = rng.randrange(run.end() - run.start())
        return wire[: run.start() + keep] + wire[run.end() :]

    def _arraytype_lie(self, rng: random.Random, wire: bytes) -> bytes:
        """Make ``arrayType`` disagree with the actual item count."""
        match = _ARRAYTYPE.search(wire)
        if match is None:
            return self._tag_splice(rng, wire)
        lie = rng.choice(
            [
                b'arrayType="xsd:double[%d]"' % rng.randrange(0, 1 << 16),
                b'arrayType="xsd:double[-1]"',
                b'arrayType="garbage"',
                b'arrayType=""',
            ]
        )
        return wire[: match.start()] + lie + wire[match.end() :]

    # -- skip-scan-aware (trusted-offset deserialization) --------------
    def _skeleton_flip(self, rng: random.Random, wire: bytes) -> bytes:
        """Flip one tag-name byte behind still-valid ``<``/``>`` framing
        — exactly the skeleton bytes a compiled seek table trusts."""
        tags = list(_TAG_NAME.finditer(wire))
        if not tags:
            return self._bit_flip(rng, wire)
        match = rng.choice(tags)
        out = bytearray(wire)
        out[rng.randrange(match.start(1), match.end(1))] = rng.choice(
            b"abcdefghijkz"
        )
        return bytes(out)

    def _span_length_lie(self, rng: random.Random, wire: bytes) -> bytes:
        """Grow or truncate one ``<item>`` value without adjusting the
        pad, so the wire length lies to any armed seek table."""
        runs = list(_ITEM_VALUE.finditer(wire))
        if not runs:
            return self._width_perturb(rng, wire)
        match = rng.choice(runs)
        value = match.group(1)
        if rng.random() < 0.5 and len(value) > 1:
            new = value[: rng.randrange(1, len(value))]
        else:
            new = value + bytes(
                rng.choice(b"0123456789") for _ in range(rng.randint(1, 12))
            )
        return wire[: match.start(1)] + new + wire[match.end(1) :]

    def _offset_desync(self, rng: random.Random, wire: bytes) -> bytes:
        """Slide a close tag within its stuffing pad: same length, same
        dirty regions, but every offset the seek table computed from
        its template is now wrong by a few bytes."""
        runs = list(_CLOSE_PAD.finditer(wire))
        if not runs:
            return self._span_length_lie(rng, wire)
        match = rng.choice(runs)
        tag, pad = match.group(1), match.group(2)
        shift = rng.randint(1, len(pad))
        return (
            wire[: match.start()]
            + pad[:shift]
            + tag
            + pad[shift:]
            + wire[match.end() :]
        )

    def _pad_crlf(self, rng: random.Random, wire: bytes) -> bytes:
        """Rewrite stuffing pad with CRLF/TAB soup (legal whitespace the
        vectorized pad check must accept) or sneak in one non-WS byte
        (which it must refuse)."""
        runs = list(_CLOSE_PAD.finditer(wire))
        if not runs:
            return self._bit_flip(rng, wire)
        match = rng.choice(runs)
        pad = bytearray(match.group(2))
        alphabet = b"\r\n\t " if rng.random() < 0.7 else b"\r\n\t x"
        for _ in range(rng.randint(1, len(pad))):
            pad[rng.randrange(len(pad))] = rng.choice(alphabet)
        return wire[: match.start(2)] + bytes(pad) + wire[match.end(2) :]

    def _entity_garbage(self, rng: random.Random, wire: bytes) -> bytes:
        junk = rng.choice(
            [b"&bogus;", b"&#xFFFFFFFF;", b"&#x110000;", b"&#-1;", b"&#;", b"&"]
        )
        pos = rng.randrange(len(wire))
        return wire[:pos] + junk + wire[pos:]

    def _utf8_garbage(self, rng: random.Random, wire: bytes) -> bytes:
        junk = rng.choice([b"\xff\xfe", b"\xc3", b"\xe2\x28\xa1", b"\x80"])
        pos = rng.randrange(len(wire))
        return wire[:pos] + junk + wire[pos:]

    # -- limits-shaped bombs -------------------------------------------
    def _nest_bomb(self, rng: random.Random, wire: bytes) -> bytes:
        depth = self.limits.max_xml_depth + rng.randint(1, 64)
        return b"<d>" * depth + b"x" + b"</d>" * depth

    def _attr_bomb(self, rng: random.Random, wire: bytes) -> bytes:
        count = self.limits.max_attributes + rng.randint(1, 64)
        attrs = b" ".join(b'a%d="v"' % i for i in range(count))
        return b"<e " + attrs + b"/>"

    def _token_bomb(self, rng: random.Random, wire: bytes) -> bytes:
        name = b"t" * (self.limits.max_token_bytes + rng.randint(1, 64))
        return b"<" + name + b">x</" + name + b">"

    @staticmethod
    def _pure_garbage(rng: random.Random, wire: bytes) -> bytes:
        return bytes(rng.getrandbits(8) for _ in range(rng.randint(1, 256)))


# Byte offsets of the delta-frame header fields ("<4sQIIQII"): the
# header is not CRC-covered, so patching these fields yields frames
# that pass the CRC check and land on the decoder's semantic checks.
_F_TEMPLATE = 4
_F_EPOCH = 12
_F_SEQ = 16
_F_DOC_LEN = 20
_F_COUNT = 28


def _patch_u32(frame: bytes, offset: int, value: int) -> bytes:
    return frame[:offset] + struct.pack("<I", value & 0xFFFFFFFF) + frame[offset + 4:]


def _patch_u64(frame: bytes, offset: int, value: int) -> bytes:
    return (
        frame[:offset]
        + struct.pack("<Q", value & 0xFFFFFFFFFFFFFFFF)
        + frame[offset + 8:]
    )


class DeltaFrameFuzzer:
    """Structure-aware mutator for binary delta frames.

    Each case starts from a freshly encoded *valid* frame (splices
    copying bytes of the mirror body, so pristine application is a
    no-op reconstruction) and applies one mutation targeting a
    specific decoder or mirror-matching check: framing lies (magic,
    truncation, CRC), directory lies (splice-count, widths,
    out-of-bounds and overlapping offsets, payload length), state
    lies (stale/future epochs, sequence gaps, unknown templates,
    doc_len disagreement), and directories aimed at the body's leaf
    field regions — what the deserializer's frame lane trusts a
    directory to name — whole, partial, straddling two, or filled
    with garbage.
    """

    def __init__(
        self, rng: random.Random, limits: Optional[ResourceLimits] = None
    ) -> None:
        self._rng = rng
        self.limits = limits if limits is not None else DEFAULT_LIMITS
        self._mutators: List[
            Tuple[str, Callable[[random.Random, bytes, dict], bytes]]
        ] = [
            ("identity", lambda rng, f, ctx: f),
            ("truncate", self._truncate),
            ("bit_flip", self._bit_flip),
            ("bad_magic", self._bad_magic),
            ("splice_count_lie", self._splice_count_lie),
            ("giant_splice_count", self._giant_splice_count),
            ("stale_epoch", self._stale_epoch),
            ("future_epoch", self._future_epoch),
            ("sequence_gap", self._sequence_gap),
            ("doc_len_lie", self._doc_len_lie),
            ("unknown_template", self._unknown_template),
            ("oob_offset", self._oob_offset),
            ("overlapping_splices", self._overlapping_splices),
            ("zero_width_splice", self._zero_width_splice),
            ("payload_length_lie", self._payload_length_lie),
            ("payload_garbage", self._payload_garbage),
            ("region_splices", self._region_splices),
            ("region_garbage", self._region_garbage),
            ("pure_garbage", self._pure_garbage),
        ]

    #: Mutators whose frames decode cleanly but splice bytes the body
    #: never held: the reconstruction may parse to other values.
    REWRITES_VALUES = frozenset({"payload_garbage", "region_garbage"})

    # ------------------------------------------------------------------
    def valid_frame(
        self, template_id: int, epoch: int, seq: int, body: bytes
    ) -> bytes:
        """A decodable frame whose splices copy *body*'s own bytes."""
        rng = self._rng
        offsets: List[int] = []
        widths: List[int] = []
        pieces: List[bytes] = []
        n = rng.randint(0, 4)
        if n and len(body) >= 8:
            prev_end = 0
            for start in sorted(rng.sample(range(len(body)), n)):
                if start < prev_end:
                    continue
                width = min(rng.randint(1, 16), len(body) - start)
                offsets.append(start)
                widths.append(width)
                pieces.append(body[start : start + width])
                prev_end = start + width
        return encode_frame(
            template_id, epoch, seq, len(body), offsets, widths, b"".join(pieces)
        )

    def next_case(
        self, template_id: int, epoch: int, seq: int, body: bytes
    ) -> Tuple[bytes, str]:
        """One mutated frame plus the mutator name that produced it."""
        rng = self._rng
        frame = self.valid_frame(template_id, epoch, seq, body)
        ctx = {
            "template_id": template_id,
            "epoch": epoch,
            "seq": seq,
            "body": body,
        }
        name, mutate = rng.choice(self._mutators)
        return mutate(rng, frame, ctx), name

    # -- framing lies --------------------------------------------------
    @staticmethod
    def _truncate(rng: random.Random, frame: bytes, ctx: dict) -> bytes:
        return frame[: rng.randrange(len(frame))]

    @staticmethod
    def _bit_flip(rng: random.Random, frame: bytes, ctx: dict) -> bytes:
        out = bytearray(frame)
        for _ in range(rng.randint(1, 8)):
            out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
        return bytes(out)

    @staticmethod
    def _bad_magic(rng: random.Random, frame: bytes, ctx: dict) -> bytes:
        return bytes(rng.getrandbits(8) for _ in range(4)) + frame[4:]

    # -- directory lies ------------------------------------------------
    @staticmethod
    def _splice_count_lie(rng: random.Random, frame: bytes, ctx: dict) -> bytes:
        lie = rng.choice([0, 1, 7, 0xFFFF])
        return _patch_u32(frame, _F_COUNT, lie)

    def _giant_splice_count(
        self, rng: random.Random, frame: bytes, ctx: dict
    ) -> bytes:
        lie = self.limits.max_delta_splices + rng.randint(1, 1 << 10)
        return _patch_u32(frame, _F_COUNT, lie)

    @staticmethod
    def _oob_offset(rng: random.Random, frame: bytes, ctx: dict) -> bytes:
        doc_len = len(ctx["body"])
        offset = rng.choice(
            [doc_len, doc_len + 1, doc_len * 2 + 17, (1 << 63), (1 << 64) - 1]
        )
        return encode_frame(
            ctx["template_id"], ctx["epoch"], ctx["seq"], doc_len,
            [offset], [4], b"XXXX",
        )

    @staticmethod
    def _overlapping_splices(
        rng: random.Random, frame: bytes, ctx: dict
    ) -> bytes:
        return encode_frame(
            ctx["template_id"], ctx["epoch"], ctx["seq"], len(ctx["body"]),
            [5, 8], [8, 4], b"Y" * 12,
        )

    @staticmethod
    def _zero_width_splice(rng: random.Random, frame: bytes, ctx: dict) -> bytes:
        return encode_frame(
            ctx["template_id"], ctx["epoch"], ctx["seq"], len(ctx["body"]),
            [3], [0], b"",
        )

    @staticmethod
    def _payload_length_lie(
        rng: random.Random, frame: bytes, ctx: dict
    ) -> bytes:
        return encode_frame(
            ctx["template_id"], ctx["epoch"], ctx["seq"], len(ctx["body"]),
            [2], [6], b"zz",
        )

    @staticmethod
    def _payload_garbage(rng: random.Random, frame: bytes, ctx: dict) -> bytes:
        """Structurally valid frame splicing random bytes into the
        mirror — exercises parsing of a corrupted reconstruction."""
        body = ctx["body"]
        width = min(rng.randint(1, 32), len(body))
        offset = rng.randrange(len(body) - width + 1)
        junk = bytes(rng.getrandbits(8) for _ in range(width))
        return encode_frame(
            ctx["template_id"], ctx["epoch"], ctx["seq"], len(body),
            [offset], [width], junk,
        )

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
        picks = sorted(rng.sample(range(len(regions)), min(len(regions), rng.randint(1, 4))))
        spans: List[Tuple[int, int]] = []
        for j in picks:
            start, end = regions[j]
            if shape == "partial" and end - start > 1:
                start = rng.randrange(start, end - 1)
                end = rng.randrange(start + 1, end + 1)
            elif shape == "straddle" and j + 1 < len(regions):
                end = regions[j + 1][1]
            if not spans or start >= spans[-1][1]:
                spans.append((start, end))
        return encode_frame(
            ctx["template_id"], ctx["epoch"], ctx["seq"], len(body),
            [start for start, _ in spans],
            [end - start for start, end in spans],
            b"".join(body[start:end] for start, end in spans),
        )

    def _region_garbage(self, rng: random.Random, frame: bytes, ctx: dict) -> bytes:
        """One whole-region splice whose bytes are the region's own
        with a few replaced — digits, markup, entity starts, junk."""
        body = ctx["body"]
        regions = self._regions(body)
        if not regions:
            return frame
        start, end = rng.choice(regions)
        data = bytearray(body[start:end])
        for _ in range(rng.randint(1, 3)):
            data[rng.randrange(len(data))] = rng.choice(b"0123456789.-eE <>/&;x\x00\xff")
        return encode_frame(
            ctx["template_id"], ctx["epoch"], ctx["seq"], len(body),
            [start], [len(data)], bytes(data),
        )

    # -- state lies ----------------------------------------------------
    @staticmethod
    def _stale_epoch(rng: random.Random, frame: bytes, ctx: dict) -> bytes:
        return _patch_u32(frame, _F_EPOCH, max(0, ctx["epoch"] - 1))

    @staticmethod
    def _future_epoch(rng: random.Random, frame: bytes, ctx: dict) -> bytes:
        return _patch_u32(frame, _F_EPOCH, ctx["epoch"] + rng.randint(1, 5))

    @staticmethod
    def _sequence_gap(rng: random.Random, frame: bytes, ctx: dict) -> bytes:
        lie = rng.choice([0, ctx["seq"] + rng.randint(1, 10)])
        return _patch_u32(frame, _F_SEQ, lie)

    @staticmethod
    def _doc_len_lie(rng: random.Random, frame: bytes, ctx: dict) -> bytes:
        doc_len = len(ctx["body"])
        lie = rng.choice([0, doc_len - 1, doc_len + 1, doc_len * 2, 1 << 40])
        return _patch_u64(frame, _F_DOC_LEN, lie)

    @staticmethod
    def _unknown_template(rng: random.Random, frame: bytes, ctx: dict) -> bytes:
        return _patch_u64(frame, _F_TEMPLATE, ctx["template_id"] + 1000)

    @staticmethod
    def _pure_garbage(rng: random.Random, frame: bytes, ctx: dict) -> bytes:
        return bytes(rng.getrandbits(8) for _ in range(rng.randint(1, 256)))


class HTTPFuzzer:
    """Wraps :class:`WireFuzzer` bodies in (possibly broken) framing."""

    FRAMINGS = (
        "valid",
        "valid",  # weighted: most cases exercise body parsing, not framing
        "chunked",
        "lying_short",
        "lying_long",
        "chunk_truncated",
        "chunk_bad_size",
        "garbage_request_line",
        "header_bomb",
        "oversize_declared",
    )

    def __init__(self, wire_fuzzer: WireFuzzer) -> None:
        self.wires = wire_fuzzer
        self.limits = wire_fuzzer.limits
        self._rng = wire_fuzzer._rng

    def next_case(self) -> Tuple[bytes, str]:
        """One raw request byte-string plus a ``framing/mutator`` label."""
        rng = self._rng
        body, mutator = self.wires.next_case()
        framing = rng.choice(self.FRAMINGS)
        raw = getattr(self, "_frame_" + framing)(rng, body)
        return raw, f"{framing}/{mutator}"

    @staticmethod
    def _head(length: int) -> bytes:
        return (
            b"POST / HTTP/1.1\r\nContent-Type: text/xml\r\n"
            b"Content-Length: %d\r\n\r\n" % length
        )

    def _frame_valid(self, rng: random.Random, body: bytes) -> bytes:
        return self._head(len(body)) + body

    def _frame_chunked(self, rng: random.Random, body: bytes) -> bytes:
        out = [
            b"POST / HTTP/1.1\r\nContent-Type: text/xml\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
        ]
        pos = 0
        while pos < len(body):
            size = min(len(body) - pos, rng.randint(1, 512))
            out.append(b"%x\r\n" % size + body[pos : pos + size] + b"\r\n")
            pos += size
        out.append(b"0\r\n\r\n")
        return b"".join(out)

    def _frame_lying_short(self, rng: random.Random, body: bytes) -> bytes:
        """Declare more bytes than are sent (EOF mid-body)."""
        return self._head(len(body) + rng.randint(1, 512)) + body

    def _frame_lying_long(self, rng: random.Random, body: bytes) -> bytes:
        """Declare fewer bytes than are sent (tail parsed as garbage)."""
        declared = rng.randrange(len(body)) if body else 0
        return self._head(declared) + body

    def _frame_chunk_truncated(self, rng: random.Random, body: bytes) -> bytes:
        """Chunked framing cut at a chunk boundary or mid-chunk."""
        whole = self._frame_chunked(rng, body)
        header_end = whole.index(b"\r\n\r\n") + 4
        cut = rng.randrange(header_end, len(whole))
        return whole[:cut]

    def _frame_chunk_bad_size(self, rng: random.Random, body: bytes) -> bytes:
        bad = rng.choice([b"ZZZ", b"-5", b"1x", b""])
        return (
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            + bad
            + b"\r\n"
            + body[:16]
        )

    def _frame_garbage_request_line(
        self, rng: random.Random, body: bytes
    ) -> bytes:
        line = bytes(rng.getrandbits(8) for _ in range(rng.randint(1, 64)))
        return line.replace(b"\r", b"?").replace(b"\n", b"?") + b"\r\n\r\n"

    def _frame_header_bomb(self, rng: random.Random, body: bytes) -> bytes:
        filler = b"X-Junk: " + b"j" * 1024 + b"\r\n"
        count = self.limits.max_header_bytes // len(filler) + 2
        return (
            b"POST / HTTP/1.1\r\n" + filler * count
            + b"Content-Length: 0\r\n\r\n"
        )

    def _frame_oversize_declared(self, rng: random.Random, body: bytes) -> bytes:
        declared = self.limits.max_body_bytes + rng.randint(1, 1 << 16)
        return self._head(declared) + body[:64]


# ----------------------------------------------------------------------
# Reports and drivers
# ----------------------------------------------------------------------
@dataclass
class FuzzReport:
    """Aggregated result of one fuzz run (one seed)."""

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
                "Fuzz cases by driver mode and outcome",
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
        mix = ", ".join(
            f"{name}={count}" for name, count in sorted(self.outcomes.items())
        )
        verdict = "OK" if self.ok else f"{len(self.violations)} VIOLATIONS"
        return (
            f"{self.mode} fuzz: {self.iterations} cases (seed {self.seed}) "
            f"[{mix}] -> {verdict}"
        )


def _classify_response(response: object) -> str:
    """``ok``/``fault`` for a parseable envelope; raises otherwise."""
    if not isinstance(response, (bytes, bytearray)) or not response:
        raise ValueError(f"non-bytes response: {type(response).__name__}")
    fault = SOAPFault.from_xml(bytes(response))
    return "fault" if fault is not None else "ok"


def _response_values(response: bytes) -> list:
    """Decoded ``(name, value)`` pairs of a non-fault response body.

    The probe identity check: the checksum handler folds every decoded
    request value into its answer, so comparing this against the
    calibration baseline detects sessions that silently decode wrong
    values, not only sessions that fault."""
    from repro.server.parser import SOAPRequestParser

    message = SOAPRequestParser().parse(bytes(response)).message
    return [(p.name, p.value) for p in message.params]


def fuzz_service(
    service: Optional[SOAPService] = None,
    corpus: Optional[Sequence[bytes]] = None,
    *,
    iterations: int = 2000,
    seed: int = 0,
    probe_every: int = 100,
) -> FuzzReport:
    """Drive mutated wires through ``service.handle``; see module doc.

    Every *probe_every* cases (and once at the end) a pristine corpus
    wire is replayed and must get a non-fault response — garbage must
    never poison the session for the next legitimate caller.
    """
    service = service if service is not None else build_fuzz_service()
    wires = list(corpus) if corpus is not None else default_corpus()
    fuzzer = WireFuzzer(wires, seed, limits=service.limits)
    report = FuzzReport(seed=seed, mode="service").export_to(service.obs)

    # Calibrate the probe set: corpus wires the service answers
    # without a fault when pristine, with the checksum answer each one
    # must keep producing for the rest of the run.  There must be at
    # least one, otherwise the "recovers after garbage" invariant is
    # vacuous.
    probes: List[bytes] = []
    baselines: List[list] = []
    for wire in fuzzer.corpus:
        response = service.handle(wire)
        if _classify_response(response) == "ok":
            probes.append(wire)
            baselines.append(_response_values(bytes(response)))
    if not probes:
        report.violate("no corpus wire gets a non-fault response pristine")
        return report

    def _probe(case_no: int) -> None:
        index = (case_no // max(1, probe_every)) % len(probes)
        try:
            response = service.handle(probes[index])
            outcome = _classify_response(response)
        except Exception as exc:  # noqa: BLE001 - the invariant under test
            report.violate(f"probe after case {case_no} raised {exc!r}")
            return
        if outcome != "ok":
            report.violate(
                f"probe after case {case_no} faulted: session state poisoned"
            )
        elif _response_values(bytes(response)) != baselines[index]:
            # The checksum handler folds every decoded request value
            # into the answer: a different answer means garbage made a
            # later pristine request *decode differently* — values
            # poisoned without a fault, the worst skip-scan failure.
            report.violate(
                f"probe after case {case_no} returned a different value "
                "checksum: decoded state poisoned"
            )

    for case_no in range(iterations):
        wire, mutator = fuzzer.next_case()
        try:
            response = service.handle(wire)
            outcome = _classify_response(response)
        except Exception as exc:  # noqa: BLE001 - the invariant under test
            report.violate(
                f"case {case_no} ({mutator}, {len(wire)}B) escaped handle(): "
                f"{type(exc).__name__}: {exc}"
            )
            outcome = "crash"
        report.record(outcome, mutator)
        if probe_every and (case_no + 1) % probe_every == 0:
            _probe(case_no)
    _probe(iterations)
    return report


def _one_exchange(
    host: str, port: int, raw: bytes, timeout: float
) -> Tuple[str, bytes]:
    """Send *raw*, half-close, read to EOF.  ``(disposition, bytes)``."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.settimeout(timeout)
        try:
            sock.sendall(raw)
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            # The server may reject and close while we are still
            # writing (e.g. oversized framing) — whatever it answered
            # before the reset is still on our receive queue.
            pass
        chunks: List[bytes] = []
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


def fuzz_http(
    service: Optional[SOAPService] = None,
    corpus: Optional[Sequence[bytes]] = None,
    *,
    iterations: int = 200,
    seed: int = 0,
    host: str = "127.0.0.1",
    timeout: float = 10.0,
) -> FuzzReport:
    """Fuzz a live :class:`HTTPSoapServer` over real sockets.

    One fresh connection per case (half-closed after sending, so the
    server's EOF handling is on the hook every time).  Violations:
    read timeout (hang), empty response (silent drop), or a status
    outside :data:`ALLOWED_HTTP_STATUSES`.
    """
    service = service if service is not None else build_fuzz_service()
    wires = list(corpus) if corpus is not None else default_corpus()
    fuzzer = HTTPFuzzer(WireFuzzer(wires, seed, limits=service.limits))
    report = FuzzReport(seed=seed, mode="http").export_to(service.obs)
    with HTTPSoapServer(service, host) as server:
        for case_no in range(iterations):
            raw, label = fuzzer.next_case()
            disposition, payload = _one_exchange(host, server.port, raw, timeout)
            if disposition == "hang":
                report.violate(f"case {case_no} ({label}): server hung")
                outcome = "hang"
            elif not payload:
                report.violate(
                    f"case {case_no} ({label}): connection closed with no "
                    "response (silent drop)"
                )
                outcome = "silent_drop"
            else:
                status = _first_status(payload)
                if status is None:
                    report.violate(
                        f"case {case_no} ({label}): unparseable response "
                        f"{payload[:60]!r}"
                    )
                    outcome = "garbled"
                elif status not in ALLOWED_HTTP_STATUSES:
                    report.violate(
                        f"case {case_no} ({label}): unexpected status {status}"
                    )
                    outcome = f"http_{status}"
                else:
                    outcome = f"http_{status}"
            report.record(outcome, label)
    return report


#: Headers marking a request body as a binary delta frame.
_FRAME_HEADERS = {"x-repro-delta": "1", "x-repro-delta-frame": "1"}

#: Template id the delta fuzzers announce their mirrors under
#: (:func:`fuzz_delta`: the first of ``max_delta_mirrors + 1``).
_FUZZ_TEMPLATE_ID = 71


def _announce_headers(template_id: int, epoch: int) -> Dict[str, str]:
    return {
        "x-repro-delta": "1",
        "x-repro-delta-template": str(template_id),
        "x-repro-delta-epoch": str(epoch),
    }


def fuzz_delta(
    service: Optional[SOAPService] = None,
    corpus: Optional[Sequence[bytes]] = None,
    *,
    iterations: int = 600,
    seed: int = 0,
    probe_every: int = 50,
) -> FuzzReport:
    """Drive mutated delta frames through ``service.handle_wire``.

    Each case announces a fresh full-XML baseline (new epoch) under one
    of ``max_delta_mirrors + 1`` template ids, drawn from the seed, then
    submits one mutated frame against it.  Invariants: ``handle_wire``
    never raises, answers only 200 (with a parseable envelope) or 409
    (resync), and — the probe — a pristine zero-splice frame against a
    fresh announce under *another* id than the case just fuzzed still
    reconstructs and dispatches to the values the pristine wire decodes
    to, after any amount of garbage: poisoning must not cross entries.
    """
    service = service if service is not None else build_fuzz_service()
    wires = list(corpus) if corpus is not None else default_corpus()
    rng = random.Random(seed)
    fuzzer = DeltaFrameFuzzer(rng, service.limits)
    report = FuzzReport(seed=seed, mode="delta").export_to(service.obs)
    session_id = "fuzz-delta"
    probes: List[bytes] = []
    baselines: List[list] = []
    for wire in wires:
        response = service.handle(wire)
        if _classify_response(response) == "ok":
            probes.append(wire)
            baselines.append(_response_values(response))
    if not probes:
        report.violate("no corpus wire gets a non-fault response pristine")
        return report
    ids = [
        _FUZZ_TEMPLATE_ID + i for i in range(service.limits.max_delta_mirrors + 1)
    ]
    epoch = 0
    fuzzed = ids[0]

    def _announce(template_id: int, body: bytes) -> None:
        nonlocal epoch
        epoch += 1
        service.handle_wire(body, _announce_headers(template_id, epoch), session_id)

    def _probe(case_no: int) -> None:
        index = (case_no // max(1, probe_every)) % len(probes)
        body = probes[index]
        # Any id but the one just fuzzed: each is a store entry of its own.
        template_id = ids[(ids.index(fuzzed) + 1 + index % (len(ids) - 1)) % len(ids)]
        _announce(template_id, body)
        frame = encode_frame(template_id, epoch, 1, len(body), [], [], b"")
        try:
            status, _extra, response = service.handle_wire(
                frame, _FRAME_HEADERS, session_id
            )
        except Exception as exc:  # noqa: BLE001 - the invariant under test
            report.violate(f"probe after case {case_no} raised {exc!r}")
            return
        if status != 200 or _classify_response(response) != "ok":
            report.violate(
                f"probe after case {case_no} rejected (status {status}): "
                "delta state poisoned"
            )
        elif _response_values(response) != baselines[index]:
            report.violate(
                f"probe after case {case_no} returned a different value "
                "checksum: decoded state poisoned"
            )

    for case_no in range(iterations):
        body = rng.choice(probes)
        fuzzed = rng.choice(ids)
        _announce(fuzzed, body)
        frame, mutator = fuzzer.next_case(fuzzed, epoch, 1, body)
        try:
            status, _extra, response = service.handle_wire(
                frame, _FRAME_HEADERS, session_id
            )
            if status == 200:
                outcome = _classify_response(response)
            elif status == 409:
                outcome = "resync"
            else:
                report.violate(
                    f"case {case_no} ({mutator}): unexpected status {status}"
                )
                outcome = f"status_{status}"
        except Exception as exc:  # noqa: BLE001 - the invariant under test
            report.violate(
                f"case {case_no} ({mutator}, {len(frame)}B) escaped "
                f"handle_wire(): {type(exc).__name__}: {exc}"
            )
            outcome = "crash"
        report.record(outcome, mutator)
        if probe_every and (case_no + 1) % probe_every == 0:
            _probe(case_no)
    _probe(iterations)
    return report


def fuzz_delta_http(
    service: Optional[SOAPService] = None,
    corpus: Optional[Sequence[bytes]] = None,
    *,
    iterations: int = 100,
    seed: int = 0,
    host: str = "127.0.0.1",
    timeout: float = 10.0,
) -> FuzzReport:
    """Fuzz delta frames against a live :class:`HTTPSoapServer`.

    One fresh connection per case carrying two pipelined POSTs: a
    well-formed full-XML announce, then a mutated binary frame.
    Violations: hang, silent drop, fewer than two responses, or any
    status outside :data:`ALLOWED_HTTP_STATUSES`.
    """
    service = service if service is not None else build_fuzz_service()
    wires = list(corpus) if corpus is not None else default_corpus()
    rng = random.Random(seed)
    fuzzer = DeltaFrameFuzzer(rng, service.limits)
    report = FuzzReport(seed=seed, mode="delta-http").export_to(service.obs)
    with HTTPSoapServer(service, host) as server:
        for case_no in range(iterations):
            body = rng.choice(wires)
            epoch = case_no + 1
            announce = (
                b"POST /soap HTTP/1.1\r\nContent-Type: text/xml\r\n"
                b"X-Repro-Delta: 1\r\n"
                b"X-Repro-Delta-Template: %d\r\n"
                b"X-Repro-Delta-Epoch: %d\r\n"
                b"Content-Length: %d\r\n\r\n"
                % (_FUZZ_TEMPLATE_ID, epoch, len(body))
            ) + body
            frame, mutator = fuzzer.next_case(
                _FUZZ_TEMPLATE_ID, epoch, 1, body
            )
            frame_req = (
                b"POST /soap HTTP/1.1\r\n"
                b"Content-Type: application/x-repro-delta\r\n"
                b"X-Repro-Delta: 1\r\nX-Repro-Delta-Frame: 1\r\n"
                b"Content-Length: %d\r\n\r\n" % len(frame)
            ) + frame
            disposition, payload = _one_exchange(
                host, server.port, announce + frame_req, timeout
            )
            if disposition == "hang":
                report.violate(f"case {case_no} ({mutator}): server hung")
                outcome = "hang"
            elif not payload:
                report.violate(
                    f"case {case_no} ({mutator}): connection closed with "
                    "no response (silent drop)"
                )
                outcome = "silent_drop"
            else:
                statuses = [
                    int(s)
                    for s in re.findall(rb"HTTP/1\.1 (\d{3})", payload)
                ]
                bad = [s for s in statuses if s not in ALLOWED_HTTP_STATUSES]
                if bad:
                    report.violate(
                        f"case {case_no} ({mutator}): unexpected "
                        f"status(es) {bad}"
                    )
                    outcome = "bad_status"
                elif len(statuses) < 2:
                    report.violate(
                        f"case {case_no} ({mutator}): only "
                        f"{len(statuses)} responses to 2 requests"
                    )
                    outcome = "missing_response"
                else:
                    outcome = "http_" + "_".join(str(s) for s in statuses)
            report.record(outcome, mutator)
    return report


class _ScriptedReplies:
    """``raw_transport=`` stub: swallows sends, serves queued replies."""

    def __init__(self) -> None:
        self.replies: List[Tuple[int, Dict[str, str], bytes]] = []

    def send_message(self, views, total_bytes: Optional[int] = None) -> int:
        return sum(len(view) for view in views)

    def recv_http_response(self, limit: Optional[int] = None):
        return self.replies.pop(0)

    def disconnect(self) -> None:
        pass

    def close(self) -> None:
        pass


def _same_values(a: Dict[str, object], b: Dict[str, object]) -> bool:
    """Decoded reply values equal, arrays compared element-wise."""
    import numpy as np

    if a.keys() != b.keys():
        return False
    for name, left in a.items():
        right = b[name]
        if isinstance(left, dict) and isinstance(right, dict):
            if not _same_values(left, right):
                return False
        elif not np.array_equal(left, right):
            return False
    return True


def fuzz_delta_reply(
    service: Optional[SOAPService] = None,
    corpus: Optional[Sequence[bytes]] = None,
    *,
    iterations: int = 600,
    seed: int = 0,
    probe_every: int = 50,
) -> FuzzReport:
    """Drive mutated *reply* frames through an ``RPCChannel``'s decode.

    The channel reads from a scripted transport.  Each case is two
    calls: the first is answered by a full reply announcing a fresh
    baseline (new epoch), the second by one mutated frame against it,
    with a full reply queued behind for the resync retry.  Invariants:
    ``call`` never raises; what it returns decodes to the reply's
    values — through the frame, or through exactly one retry — unless
    the mutator spliced CRC-valid garbage into the document (frames
    whose directory names leaf regions reach the channel's frame lane:
    the store entry a reply is deposited in holds its decode); and the
    probe, a pristine header-only frame after a fresh announce, still
    decodes without a retry after any amount of garbage.
    """
    from repro.channel import RPCChannel
    from repro.core.policy import DeltaPolicy, DiffPolicy
    from repro.resilience.retry import RetryPolicy
    from repro.soap.message import SOAPMessage

    service = service if service is not None else build_fuzz_service()
    wires = list(corpus) if corpus is not None else default_corpus()
    rng = random.Random(seed)
    fuzzer = DeltaFrameFuzzer(rng, service.limits)
    report = FuzzReport(seed=seed, mode="delta-reply").export_to(service.obs)
    bodies = [
        bytes(response)
        for response in (service.handle(wire) for wire in wires)
        if _classify_response(response) == "ok"
    ]
    if not bodies:
        report.violate("no corpus wire gets a non-fault response pristine")
        return report

    transport = _ScriptedReplies()
    channel = RPCChannel(
        "fuzz",
        0,
        registry=service.registry,
        policy=DiffPolicy(delta=DeltaPolicy(offer=True)),
        retry=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
        raw_transport=transport,
    )
    request = SOAPMessage("probe", service.namespace, [])
    epoch = 0

    def _announce(body: bytes) -> Dict[str, object]:
        """Deliver *body* as a full reply announcing a fresh baseline."""
        nonlocal epoch
        epoch += 1
        transport.replies = [
            (200, _announce_headers(_FUZZ_TEMPLATE_ID, epoch), body)
        ]
        return channel.call(request).values

    def _framed(frame: bytes, body: bytes) -> Tuple[Dict[str, object], int]:
        """One call answered by *frame*; a full reply awaits the retry."""
        transport.replies = [(200, _FRAME_HEADERS, frame), (200, {}, body)]
        values = channel.call(request).values
        return values, channel.last_send_report.retries

    def _probe(case_no: int) -> None:
        body = bodies[(case_no // max(1, probe_every)) % len(bodies)]
        try:
            expected = _announce(body)
            frame = encode_frame(
                _FUZZ_TEMPLATE_ID, epoch, 1, len(body), [], [], b""
            )
            values, retries = _framed(frame, body)
        except Exception as exc:  # noqa: BLE001 - the invariant under test
            report.violate(f"probe after case {case_no} raised {exc!r}")
            return
        if retries or not _same_values(values, expected):
            report.violate(
                f"probe after case {case_no} needed {retries} retries or "
                "decoded differently: reply mirror poisoned"
            )

    for case_no in range(iterations):
        body = rng.choice(bodies)
        mutator = "announce"
        try:
            expected = _announce(body)
            frame, mutator = fuzzer.next_case(_FUZZ_TEMPLATE_ID, epoch, 1, body)
            values, retries = _framed(frame, body)
        except Exception as exc:  # noqa: BLE001 - the invariant under test
            report.violate(
                f"case {case_no} ({mutator}) escaped call(): "
                f"{type(exc).__name__}: {exc}"
            )
            outcome = "crash"
        else:
            outcome = "resync" if retries else "ok"
            if (
                mutator not in DeltaFrameFuzzer.REWRITES_VALUES
                and not _same_values(values, expected)
            ):
                report.violate(
                    f"case {case_no} ({mutator}, {outcome}): decoded a "
                    "wrong value from a reply frame"
                )
                outcome = "wrong_value"
        report.record(outcome, mutator)
        if probe_every and (case_no + 1) % probe_every == 0:
            _probe(case_no)
    _probe(iterations)
    channel.close()
    return report


def _parse_outcome(parse: Callable[[bytes], object], wire: bytes):
    """``("ok", ParseResult)`` or ``("raised", type, message)``."""
    try:
        return ("ok", parse(wire))
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return ("raised", type(exc), str(exc))


def _same_leaves(a: object, b: object) -> bool:
    """Decoded values equal down to the bit pattern of every double
    (``-0.0``, denormals and ``inf`` all distinguish)."""
    import numpy as np

    if isinstance(a, dict) and isinstance(b, dict):
        return list(a) == list(b) and all(_same_leaves(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return (
            a.dtype == b.dtype
            and a.shape == b.shape
            and a.tobytes() == b.tobytes()
        )
    if isinstance(a, float) and isinstance(b, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    return type(a) is type(b) and a == b


def parse_divergence(parser, wire: bytes) -> Optional[str]:
    """How ``parser.parse`` and its generic event path disagree on
    *wire* — ``None`` when they do not.

    Agreement is the same :class:`~repro.server.parser.ParseResult`
    (operation, parameter names/kinds/element types, values bit for
    bit, ``spans``, ``regions``, layouts) or the same exception type
    and message.  The oracle of the full parse's leaf-run lane.
    """
    import numpy as np

    lane = _parse_outcome(parser.parse, wire)
    generic = _parse_outcome(parser._parse_generic, wire)
    if lane[0] != generic[0]:
        return f"lane {lane[:2]} but generic {generic[:2]}"
    if lane[0] == "raised":
        return None if lane == generic else f"lane {lane[1:]} != generic {generic[1:]}"
    a, b = lane[1], generic[1]
    if a.message.operation != b.message.operation:
        return "operation differs"
    if len(a.message.params) != len(b.message.params):
        return "parameter count differs"
    for p, q in zip(a.message.params, b.message.params):
        if (p.name, p.kind, p.element_type) != (q.name, q.kind, q.element_type):
            return f"parameter {p.name!r}: name/kind/element type differs"
        if not _same_leaves(p.value, q.value):
            return f"parameter {p.name!r}: values differ"
    for label in ("spans", "regions"):
        x, y = getattr(a, label), getattr(b, label)
        if x.dtype != y.dtype or x.shape != y.shape or not np.array_equal(x, y):
            return f"{label} differ"
    shapes = [
        [
            (l.leaf_base, l.leaf_count, l.arity, l.leaf_types, l.field_names)
            for l in result.layouts
        ]
        for result in (a, b)
    ]
    if shapes[0] != shapes[1]:
        return "layouts differ"
    return None


def fuzz_parse(
    corpus: Optional[Sequence[bytes]] = None,
    *,
    iterations: int = 2000,
    seed: int = 0,
    limits: Optional[ResourceLimits] = None,
) -> FuzzReport:
    """Lane ≡ generic on mutated wires; see :func:`parse_divergence`."""
    from repro.server.parser import SOAPRequestParser

    service = build_fuzz_service(limits=limits)
    parser = SOAPRequestParser(service.registry, service.limits)
    wires = list(corpus) if corpus is not None else default_corpus()
    fuzzer = WireFuzzer(wires, seed, limits=service.limits)
    report = FuzzReport(seed=seed, mode="parse")
    for case_no in range(iterations):
        wire, mutator = fuzzer.next_case()
        divergence = parse_divergence(parser, wire)
        if divergence is not None:
            report.violate(f"case {case_no} ({mutator}, {len(wire)}B): {divergence}")
        report.record("diverged" if divergence else "agreed", mutator)
    return report


def _first_status(payload: bytes) -> Optional[int]:
    """Status code of the first HTTP response in *payload* (or None)."""
    line, _, _ = payload.partition(b"\r\n")
    parts = line.split()
    if len(parts) < 2 or not parts[0].startswith(b"HTTP/"):
        return None
    try:
        return int(parts[1])
    except ValueError:
        return None


# ----------------------------------------------------------------------
# CLI (the CI fuzz-smoke job)
# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.hardening.fuzz",
        description="Seeded wire fuzzer for the hardened SOAP stack.",
    )
    parser.add_argument(
        "--corpus",
        default=None,
        help="directory of seed wires (default: tests/golden, else synthetic)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--service-iterations", type=int, default=2000)
    parser.add_argument("--http-iterations", type=int, default=200)
    parser.add_argument("--delta-iterations", type=int, default=0)
    parser.add_argument("--delta-http-iterations", type=int, default=0)
    parser.add_argument("--delta-reply-iterations", type=int, default=0)
    parser.add_argument("--parse-iterations", type=int, default=0)
    args = parser.parse_args(argv)

    corpus = load_corpus(args.corpus) if args.corpus else default_corpus()
    print(f"fuzz seed: {args.seed} ({len(corpus)} corpus wires)")

    reports = []
    if args.service_iterations > 0:
        reports.append(
            fuzz_service(
                corpus=corpus, iterations=args.service_iterations, seed=args.seed
            )
        )
        print(reports[-1].summary())
    if args.http_iterations > 0:
        reports.append(
            fuzz_http(
                corpus=corpus, iterations=args.http_iterations, seed=args.seed
            )
        )
        print(reports[-1].summary())
    if args.delta_iterations > 0:
        reports.append(
            fuzz_delta(
                corpus=corpus, iterations=args.delta_iterations, seed=args.seed
            )
        )
        print(reports[-1].summary())
    if args.delta_http_iterations > 0:
        reports.append(
            fuzz_delta_http(
                corpus=corpus,
                iterations=args.delta_http_iterations,
                seed=args.seed,
            )
        )
        print(reports[-1].summary())
    if args.delta_reply_iterations > 0:
        reports.append(
            fuzz_delta_reply(
                corpus=corpus,
                iterations=args.delta_reply_iterations,
                seed=args.seed,
            )
        )
        print(reports[-1].summary())

    if args.parse_iterations > 0:
        reports.append(
            fuzz_parse(
                corpus=corpus, iterations=args.parse_iterations, seed=args.seed
            )
        )
        print(reports[-1].summary())

    failed = [v for r in reports for v in r.violations]
    for violation in failed[:25]:
        print(f"VIOLATION: {violation}")
    if failed:
        print(f"FAILED with {len(failed)} violations (replay with --seed {args.seed})")
        return 1
    print("fault-not-crash invariant held for every case")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by CI job
    sys.exit(main())

"""Ablation — server-side deserialization: full parse vs skip-scan.

The server mirrors the client's trick (DESIGN.md §4b, docs/skipscan.md):
when a request is a byte-diff away from the previous
one, only the changed spans need parsing.  This bench isolates what the
seek table is worth across dirty fractions on a 64Ki-double request:

* ``full-parse`` — a fresh :class:`SOAPRequestParser` pass over every
  wire (the fallback path every miss lands on; its leaf-run lane takes
  the double array in bulk);
* ``full-parse-generic`` — the same parser's private generic event
  path, the authority the lane defers to, on the same wires with
  lockstep-equal output asserted (nothing in ``src/`` selects this
  path, so its service round trip runs with ``parse`` class-patched to
  it for the duration of the timer);
* ``skipscan`` — :class:`DifferentialDeserializer`, whose structural
  lane is a compiled :class:`~repro.schema.skipscan.SeekTable`: seek
  straight to the dirty spans, trie-check the close tags, never
  re-tokenize the skeleton.  Document entry: each wire arrives whole
  and is byte-compared with the template to find what changed (what a
  client that negotiated no delta frames gets).
* ``skipscan-frame`` — the same deserializer entered the way
  steady-state repro↔repro traffic enters it: the same sends encoded
  as RDF2 frames, through ``DeltaSession.apply`` → ``deserialize`` of
  the store entry holding the mirror and its decode.  The frame's splice
  directory names the changed leaves; nothing document-sized is
  compared or copied.

The timers are split: ``mean_parse_ms`` times the decoder alone on
pre-captured traffic (for ``skipscan-frame`` that is frame validation +
mirror patch + deserialize, everything that stands in for the
document entry's compare), while ``mean_handle_ms`` times the full
``SOAPService`` round trip (parse + dispatch + response) over the
same traffic — ``mean_dispatch_ms`` is their difference, so the
skip-scan ablation measures parse, not handler noise.  A service has no
full-parse mode, so the ``full-parse*`` handle series drops the session
template before each call: every request is a miss, which also pays the
seek-table compile a real miss pays.

Before timing, two sanity gates run on small copies:

* lockstep equality — frame entry, document entry and a fresh full
  parse decode every send identically, at the match kind the traffic
  was built for, and what the frames reconstruct is byte for byte the
  wire the plain client sends;
* drift drill — a flipped skeleton byte mid-session raises the same
  error class as a full parse and the fast lane re-arms on the next
  clean wire (no session poisoning).

Emits one ``repro-bench-result/1`` document.  The headline row
(``skipscan`` at ``dirty_frac=0.01``) is what the CI ``perf-smoke`` job
checks against ``BENCH_diffdeser.json`` (>= 5x parse speedup full run,
>= 3x in ``--smoke``); the same job requires ``full-parse`` to be
>= 3x ``full-parse-generic`` in every cell (the lane's own gate).

Usage::

    PYTHONPATH=src:benchmarks python benchmarks/bench_ablation_diffdeser.py \
        --out BENCH_diffdeser.json
    PYTHONPATH=src:benchmarks python benchmarks/bench_ablation_diffdeser.py --smoke
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bench.resultjson import dump_result, make_result, validate_result
from repro.bench.workloads import double_array_message, doubles_of_width
from repro.core.client import BSoapClient
from repro.core.policy import DeltaPolicy, DiffPolicy, StuffingPolicy, StuffMode
from repro.errors import XMLError
from repro.hardening.fuzz import parse_divergence
from repro.hardening.limits import DEFAULT_LIMITS
from repro.lexical.floats import FloatFormat
from repro.schema import INT, TypeRegistry
from repro.server.diffdeser import DeserKind, DifferentialDeserializer
from repro.server.parser import SOAPRequestParser
from repro.server.service import SOAPService
from repro.transport.loopback import CollectSink
from repro.wire.loopback import DeltaLoopback
from repro.wire.server import DeltaSession

REQUIRED_COLUMNS = (
    "variant",
    "n",
    "dirty_frac",
    "sends",
    "kind",
    "mean_parse_ms",
    "mean_handle_ms",
    "mean_dispatch_ms",
    "parses_per_sec",
    "parse_speedup_vs_full",
    "skipscan_hits",
)

VARIANTS = ("full-parse", "full-parse-generic", "skipscan", "skipscan-frame")
FRACTIONS = (0.0, 0.01, 0.25)

#: Headline cell for the CI gate: sparse dirty set, seek table at its best.
HEADLINE_FRAC = 0.01
MIN_HEADLINE_SPEEDUP = 5.0
MIN_SMOKE_SPEEDUP = 3.0
#: The leaf-run lane against the generic event path, every cell.
MIN_LANE_SPEEDUP = 3.0

#: Fixed-format MAX stuffing keeps every span width constant, so each
#: resend is a perfect structural match and the engines differ only in
#: how much of the wire they re-parse.
POLICY = DiffPolicy(
    float_format=FloatFormat.FIXED, stuffing=StuffingPolicy(StuffMode.MAX)
)


FRAME_HEADERS = {"x-repro-delta": "1", "x-repro-delta-frame": "1"}


def _announce_headers(announce: Tuple[int, int]) -> Dict[str, str]:
    return {
        "x-repro-delta": "1",
        "x-repro-delta-template": str(announce[0]),
        "x-repro-delta-epoch": str(announce[1]),
    }


class _FrameCapture(DeltaLoopback):
    """The in-process delta peer, keeping each frame (and the baseline
    it was announced under) beside the document it reconstructs."""

    def __init__(self) -> None:
        super().__init__(keep_documents=True)
        self.frames: List[bytes] = []
        self.announce: Optional[Tuple[int, int]] = None

    def set_delta_announce(self, template_id: int, epoch: int) -> None:
        self.announce = (template_id, epoch)
        super().set_delta_announce(template_id, epoch)

    def send_delta_frame(self, frame: bytes) -> int:
        self.frames.append(bytes(frame))
        return super().send_delta_frame(frame)


def _drive(client: BSoapClient, n: int, frac: float, sends: int, seed: int, sent) -> None:
    """One first-time send, then *sends* resends with ``frac`` of the
    array rewritten; *sent* is called after each."""
    rng = np.random.default_rng(seed)
    call = client.prepare(double_array_message(doubles_of_width(n, 18, seed=seed)))
    call.send()
    sent()
    tracked = call.tracked("data")
    k = max(1, int(frac * n)) if frac > 0 else 0
    for i in range(sends):
        if k:
            idx = np.sort(rng.choice(n, k, replace=False))
            tracked.update(idx, doubles_of_width(k, 18, seed=seed + 1 + i))
        call.send()
        sent()


def _wires(n: int, frac: float, sends: int, seed: int) -> List[bytes]:
    """Pre-capture ``sends + 1`` wires (first is the first-time send);
    every engine replays the identical byte traffic."""
    sink = CollectSink()
    out: List[bytes] = []
    _drive(BSoapClient(sink, POLICY), n, frac, sends, seed, lambda: out.append(sink.last))
    return out


def _frames(
    n: int, frac: float, sends: int, seed: int
) -> Tuple[Tuple[int, int], List[bytes]]:
    """The same sends as a delta-negotiated client puts them on the
    wire: ``(announced baseline, [first-time body] + RDF2 frames)``.
    What the frames reconstruct is checked to be :func:`_wires`."""
    peer = _FrameCapture()
    client = BSoapClient(peer, replace(POLICY, delta=DeltaPolicy(offer=True)))
    client.wire.negotiated = True  # the capture peer takes frames
    _drive(client, n, frac, sends, seed, lambda: None)
    assert len(peer.frames) == sends, "a resend fell back to full XML"
    assert peer.documents == _wires(n, frac, sends, seed), (
        "frames do not reconstruct the plain client's wires"
    )
    return peer.announce, [peer.documents[0]] + peer.frames


def _time_parse(
    variant: str, wires: List[bytes], announce: Optional[Tuple[int, int]] = None
) -> Tuple[float, str, int]:
    """Time the deserializer alone.  Returns (seconds, last kind,
    skip-scan hit count) over ``wires[1:]``; ``wires[0]`` warms the
    template untimed.  With *announce*, ``wires[1:]`` are frames
    against ``wires[0]`` deposited under that baseline."""
    registry = TypeRegistry()
    if variant in ("full-parse", "full-parse-generic"):
        parser = SOAPRequestParser(registry)
        fn = lambda wire: parser.parse(wire).message  # noqa: E731
        if variant == "full-parse-generic":
            for i, wire in enumerate(wires[:3]):
                divergence = parse_divergence(parser, wire)
                assert divergence is None, f"lane != generic on wire {i}: {divergence}"
            fn = lambda wire: parser._parse_generic(wire).message  # noqa: E731
        deser = None
    else:
        deser = DifferentialDeserializer(registry)
        fn = lambda wire: deser.deserialize(wire)  # noqa: E731
    if announce is not None:
        mirrors = DeltaSession()
        deser.deserialize(mirrors.store(*announce, wires[0]))
        fn = lambda frame: deser.deserialize(  # noqa: E731
            mirrors.apply(frame, DEFAULT_LIMITS)
        )
    else:
        fn(wires[0])
    t0 = time.perf_counter()
    for wire in wires[1:]:
        result = fn(wire)
    elapsed = time.perf_counter() - t0
    kind, hits = "full", 0
    if deser is not None:
        kind = result[1].kind.name.lower().replace("_", "-")
        stats = deser.skipscan_stats
        hits = stats.get("hit", 0) + stats.get("hit-vector", 0)
    return elapsed, kind, hits


def _time_handle(
    variant: str, wires: List[bytes], announce: Optional[Tuple[int, int]] = None
) -> float:
    """Time the full ``SOAPService`` round trip on the same traffic
    (parse + dispatch + response serialization).  The ``full-parse*``
    variants forget the template before each call; with *announce* the
    traffic is frames through ``handle_wire``."""
    service = SOAPService("urn:diffdeser", registry=TypeRegistry())

    @service.operation("sendDoubles", result_type=INT, result_name="n")
    def handler(data):
        return len(data)

    lane = SOAPRequestParser.parse
    if variant == "full-parse-generic":
        SOAPRequestParser.parse = SOAPRequestParser._parse_generic
    try:
        if announce is not None:
            first = _announce_headers(announce)
            assert b"Fault" not in service.handle_wire(wires[0], first, "bench")[2]
            t0 = time.perf_counter()
            for frame in wires[1:]:
                status, _extra, response = service.handle_wire(
                    frame, FRAME_HEADERS, "bench"
                )
            elapsed = time.perf_counter() - t0
            assert status == 200
            return elapsed
        assert b"Fault" not in service.handle(wires[0], "bench")
        (session,) = service.sessions.sessions()
        forget = variant.startswith("full-parse")
        t0 = time.perf_counter()
        for wire in wires[1:]:
            if forget:
                session.deserializer.reset()
            response = service.handle(wire, "bench")
        elapsed = time.perf_counter() - t0
    finally:
        SOAPRequestParser.parse = lane
    assert b"Fault" not in response
    return elapsed


def _run_cell(
    variant: str, n: int, frac: float, sends: int, seed: int
) -> Dict[str, object]:
    announce = None
    if variant == "skipscan-frame":
        announce, wires = _frames(n, frac, sends, seed)
    else:
        wires = _wires(n, frac, sends, seed)
    parse_s, kind, hits = _time_parse(variant, wires, announce)
    handle_s = _time_handle(variant, wires, announce)
    # The in-bench invariant the ablation rests on: the skip-scan cells
    # must actually ride the seek table on steady-state resends.
    if variant.startswith("skipscan") and frac > 0:
        assert hits == sends, f"{variant} hit {hits}/{sends} resends"
    return {
        "variant": variant,
        "n": n,
        "dirty_frac": frac,
        "sends": sends,
        "kind": kind,
        "mean_parse_ms": round(parse_s / sends * 1e3, 4),
        "mean_handle_ms": round(handle_s / sends * 1e3, 4),
        "mean_dispatch_ms": round(max(handle_s - parse_s, 0.0) / sends * 1e3, 4),
        "parses_per_sec": round(sends / parse_s, 1),
        "parse_speedup_vs_full": 1.0,
        "skipscan_hits": hits,
    }


def _decoded_equal(a, b) -> bool:
    if a.operation != b.operation or len(a.params) != len(b.params):
        return False
    return all(
        p.name == q.name
        and np.array_equal(
            np.asarray(p.value), np.asarray(q.value), equal_nan=True
        )
        for p, q in zip(a.params, b.params)
    )


def _assert_lockstep(n: int, frac: float, seed: int) -> None:
    """Frame entry == document entry == fresh full parse, send for
    send, at the match kind the traffic was built for — on the
    bench's own traffic."""
    wires = _wires(n, frac, 6, seed)
    announce, framed = _frames(n, frac, 6, seed)
    registry = TypeRegistry()
    skip = DifferentialDeserializer(registry)
    by_frame = DifferentialDeserializer(registry)
    mirrors = DeltaSession()
    steady = DeserKind.DIFFERENTIAL if frac > 0 else DeserKind.CONTENT_MATCH
    for i, wire in enumerate(wires):
        document = (
            mirrors.apply(framed[i], DEFAULT_LIMITS)
            if i
            else mirrors.store(*announce, framed[0])
        )
        reference = SOAPRequestParser(registry).parse(wire).message
        expected = steady if i else DeserKind.FULL
        for entry, data in (("document", wire), ("frame", document)):
            deser = skip if entry == "document" else by_frame
            decoded, report = deser.deserialize(data)
            if not _decoded_equal(decoded, reference):
                raise AssertionError(
                    f"{entry} entry != full parse at dirty_frac={frac}, send {i}"
                )
            if report.kind is not expected:
                raise AssertionError(
                    f"{entry} entry match kind at dirty_frac={frac}, send {i}: "
                    f"{report.kind} != {expected}"
                )
        if document.entry.decoded != document.entry.seq:
            raise AssertionError("frame entry's decode lags its mirror")


def _assert_drift_recovers(n: int, seed: int) -> None:
    """A flipped skeleton byte mid-session: same error class as a full
    parse, and the fast lane re-arms on the next clean wire."""
    wires = _wires(n, 0.01, 4, seed)
    registry = TypeRegistry()
    deser = DifferentialDeserializer(registry)
    deser.deserialize(wires[0])
    deser.deserialize(wires[1])
    pos = wires[2].index(b"<item>")
    bad = wires[2][:pos] + b"<jtem>" + wires[2][pos + 6 :]
    for attempt in (
        lambda: deser.deserialize(bad),
        lambda: SOAPRequestParser(registry).parse(bad),
    ):
        try:
            attempt()
            raise AssertionError("skeleton drift should have raised")
        except XMLError:
            pass
    _, report = deser.deserialize(wires[3])
    assert report.kind is DeserKind.DIFFERENTIAL, (
        "fast lane did not re-arm after skeleton drift"
    )
    assert deser.skipscan_stats.get("skeleton-drift") == 1


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=65536,
                        help="double-array length (default 65536)")
    parser.add_argument("--sends", type=int, default=20,
                        help="timed resends per grid cell (default 20)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None,
                        help="output JSON path (default: stdout)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny CI run: small array, few sends, 3x gate")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.smoke:
        args.n = 4096
        args.sends = 8
    min_speedup = MIN_SMOKE_SPEEDUP if args.smoke else MIN_HEADLINE_SPEEDUP

    for frac in FRACTIONS:
        _assert_lockstep(256, frac, args.seed)
    _assert_drift_recovers(256, args.seed)
    print(
        "lockstep: frame entry == document entry == full parse "
        "(all fractions); skeleton-drift drill passed",
        file=sys.stderr,
    )

    rows: List[Dict[str, object]] = []
    headline = None
    lane_speedups: List[float] = []
    for frac in FRACTIONS:
        base_ms = None
        for variant in VARIANTS:
            row = _run_cell(variant, args.n, frac, args.sends, args.seed)
            if variant == "full-parse":
                base_ms = row["mean_parse_ms"]
            row["parse_speedup_vs_full"] = round(
                base_ms / max(row["mean_parse_ms"], 1e-9), 2
            )
            if variant == "skipscan" and frac == HEADLINE_FRAC:
                headline = row
            if variant == "full-parse-generic":
                lane_speedups.append(row["mean_parse_ms"] / max(base_ms, 1e-9))
            rows.append(row)
            print(
                f"frac={frac:<5} {variant:<18} "
                f"parse {row['mean_parse_ms']:>9.3f} ms  "
                f"x{row['parse_speedup_vs_full']:.2f} vs full  "
                f"(dispatch {row['mean_dispatch_ms']:.3f} ms, "
                f"{row['kind']}, {row['skipscan_hits']} skip-scan hits)",
                file=sys.stderr,
            )

    if min(lane_speedups) < MIN_LANE_SPEEDUP:
        print(
            f"FAIL: leaf-run lane only {min(lane_speedups):.2f}x the generic "
            f"full parse (gate {MIN_LANE_SPEEDUP}x)",
            file=sys.stderr,
        )
        return 1

    if headline is None or headline["parse_speedup_vs_full"] < min_speedup:
        got = None if headline is None else headline["parse_speedup_vs_full"]
        print(
            f"FAIL: headline parse speedup {got} < {min_speedup}x "
            f"at dirty_frac={HEADLINE_FRAC}",
            file=sys.stderr,
        )
        return 1

    doc = make_result(
        "ablation_diffdeser",
        params={
            "n": args.n,
            "sends": args.sends,
            "seed": args.seed,
            "smoke": args.smoke,
            "headline": f"variant=skipscan dirty_frac={HEADLINE_FRAC}",
            "lane_vs_generic_min": round(min(lane_speedups), 2),
        },
        results=rows,
        notes=(
            "pre-captured perfect-structural resend traffic replayed "
            "through each engine; parse timer is the decoder alone "
            "(SOAPRequestParser.parse for full-parse*), handle timer is the "
            "full SOAPService round trip, with the session template reset "
            "before each call for full-parse* (every request a miss, "
            "seek-table compile included); skipscan is the document entry "
            "(whole wire in, byte compare against the template), "
            "skipscan-frame the same sends as RDF2 frames through "
            "DeltaSession.apply -> deserialize on the shared mirror/template "
            "buffer (its parse timer includes frame validation and the "
            "mirror patch; its handle timer is handle_wire), frames checked "
            "to reconstruct the document entry's wires byte for byte; lockstep "
            "equality of both entries with a fresh full parse and a "
            "skeleton-drift recovery drill asserted before "
            "timing; dirty_frac=0.0 rows show the content-match ceiling "
            "(a header-only frame for skipscan-frame); "
            "full-parse is the parser with its leaf-run lane (FIXED-format "
            "wires), full-parse-generic its private event path on the same "
            "wires, lane == generic asserted (parse_divergence) before timing"
        ),
    )
    validate_result(doc, required_columns=REQUIRED_COLUMNS)
    dump_result(doc, args.out)
    if args.out:
        print(f"wrote {args.out} ({len(rows)} rows)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Ablation — bytes on the wire: delta frames vs full-XML resends.

The delta wire protocol (``repro.wire``, docs/wire_protocol.md) trades
a negotiated binary patch frame for the full stuffed document on
steady-state resends.  This bench measures what that is worth in
payload bytes and send latency across dirty fractions:

* ``full-xml`` — the plain differential client; every resend ships the
  whole (rewritten-in-place) document;
* ``delta`` — the same client with ``DeltaPolicy(offer=True)`` over a
  negotiated :class:`~repro.wire.loopback.DeltaLoopback` peer; eligible
  resends ship RDF2 frames, the peer reconstructs from its mirror.

Both variants run the identical mutation schedule (MINIMAL-format MAX
stuffing, so every resend is a perfect structural match and the grid
isolates *wire bytes*, not match level).  Every dirty double of a
MINIMAL sender crosses as a typed splice (8 bytes of binary64 and a
12-byte directory entry); ``typed_share`` is the share of the frames'
directory entries that were typed, 1.0 unless the encoder silently fell
back to byte splices.  Nor does the sender format those doubles: the
rewrite leaves their text stale in the template and writes it only
when something reads it (a full-XML fallback, which then counts none of
them deferred); ``deferred_share`` is the share of the timed sends'
rewritten values a frame carried unformatted, 1.0 on a delta row that
framed unless the client silently went back to formatting them.  At
``dirty_frac=1.0`` the frame outgrows
``max_frame_fraction`` and the encoder voluntarily falls back to full
XML — the grid keeps that cell to show the degradation floor is ~1.0x,
never worse.

Before timing, two sanity gates run on small copies:

* wire identity — every document the delta peer reconstructs is
  byte-identical to the plain client's serialization, per call, at
  ``IDENTITY_N`` doubles (six 32 KiB chunks, so frames are harvested
  and applied across chunk boundaries) and ``IDENTITY_FRACTIONS``;
* fallback drill — a structural change and a wiped-mirror resync
  (epoch loss) both degrade to full XML and then resume framing;
* widening drill — unstuffed doubles that outgrow their fields
  (partial structural matches) frame every send with pad insertions,
  and the peer's reconstruction is byte-identical to the plain
  client's document.  Its counts go into the result's ``params``
  (``widening_drill``), not into a row.

A fixed-cost table goes into ``params`` (``frame_costs``): at 0 to 163
typed entries per frame, the median µs of the send (rewrite and frame),
of ``decode_frame`` and of ``DeltaSession.apply`` in each lane of the
frame codec (``repro.wire.frame.SMALL_FRAME`` is read off it), the two
lanes taking turns frame by frame on a responder-shaped sender.  Every
row's frames decode to the values sent and are byte-identical across
the lanes; the timings are not gated.

Emits one ``repro-bench-result/1`` document.  The headline row
(``delta`` at ``dirty_frac=0.01``) is what the CI ``perf-smoke`` job
checks against ``BENCH_delta_wire.json`` (>= 50x payload reduction),
with ``typed_share`` and ``deferred_share`` 1.0 on every delta row that
framed.

Usage::

    PYTHONPATH=src:benchmarks python benchmarks/bench_ablation_delta_wire.py \
        --out BENCH_delta_wire.json
    PYTHONPATH=src:benchmarks python benchmarks/bench_ablation_delta_wire.py --smoke
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from dataclasses import replace
from typing import Dict, List, Optional

import numpy as np

from repro.bench.resultjson import dump_result, make_result, validate_result
from repro.bench.workloads import double_array_message, doubles_of_width
from repro.core.client import BSoapClient
from repro.core.policy import DeltaPolicy, DiffPolicy, StuffingPolicy, StuffMode
from repro.errors import DeltaResyncError
from repro.hardening.limits import DEFAULT_LIMITS
from repro.lexical.floats import FloatFormat
from repro.server.diffdeser import DifferentialDeserializer
from repro.transport.loopback import CollectSink, LatestSink
from repro.wire import frame as wire_frame
from repro.wire.frame import DeltaFrame, decode_frame, forced_lane
from repro.wire.loopback import DeltaLoopback

REQUIRED_COLUMNS = (
    "variant",
    "n",
    "dirty_frac",
    "sends",
    "delta_sends",
    "full_sends",
    "mean_payload_bytes",
    "mean_send_ms",
    "calls_per_sec",
    "reduction_vs_full",
    "typed_share",
    "deferred_share",
)

VARIANTS = ("full-xml", "delta")
FRACTIONS = (0.01, 0.1, 1.0)

#: Wire-identity drill: an array spanning several chunks, and the
#: paper's 25 % point beside the timing grid's fractions.
IDENTITY_N = 4096
IDENTITY_FRACTIONS = (0.01, 0.1, 0.25, 1.0)

#: Headline cell for the CI gate: sparse dirty set, frames at their best.
HEADLINE_FRAC = 0.01
MIN_HEADLINE_REDUCTION = 50.0

#: Typed entries per frame of the fixed-cost table (``params.frame_costs``):
#: the one-double reply, small directories, and the 163 doubles of the
#: ledger's ``large_sparse`` request.
FRAME_ENTRIES = (0, 1, 2, 4, 8, 12, 16, 32, 64, 163)
#: Doubles in the fixed-cost table's message, and their lexical width.
FRAME_DOC_DOUBLES = 512
FRAME_WIDTH = 14
#: Timed frames per cell of the fixed-cost table (``--smoke``: 20).
FRAME_REPS = 400
#: The frame codec's lanes (``repro.wire.frame.forced_lane``).
LANES = ("small", "large")


def _policy(variant: str) -> DiffPolicy:
    # MAX stuffing gives every double the widest text MINIMAL writes,
    # so each resend is a perfect structural match and the two variants
    # differ only in what crosses the wire.
    return DiffPolicy(
        float_format=FloatFormat.MINIMAL,
        stuffing=StuffingPolicy(StuffMode.MAX),
        delta=DeltaPolicy(offer=(variant == "delta")),
    )


def _make_client(variant: str, n: int, seed: int, *, keep_documents=False):
    loop = DeltaLoopback(keep_documents=keep_documents)
    client = BSoapClient(loop, _policy(variant))
    if client.wire is not None:
        client.wire.negotiated = True  # the loopback peer always accepts
    call = client.prepare(double_array_message(doubles_of_width(n, 18, seed=seed)))
    call.send()
    return loop, client, call


def _mutation_schedule(n: int, frac: float, sends: int, seed: int):
    """Deterministic (idx, values) pairs shared by both variants."""
    rng = np.random.default_rng(seed)
    k = max(1, int(frac * n))
    out = []
    for i in range(sends):
        idx = np.sort(rng.choice(n, k, replace=False)) if k < n else np.arange(n)
        out.append((idx, doubles_of_width(k, 18, seed=seed + 1 + i)))
    return out


def _run_cell(
    variant: str, n: int, frac: float, sends: int, seed: int
) -> Dict[str, object]:
    loop, client, call = _make_client(variant, n, seed)
    tracked = call.tracked("data")
    schedule = _mutation_schedule(n, frac, sends + 1, seed + 7)
    # One untimed warm send covers frame-path setup (baseline snapshot).
    tracked.update(*schedule[0])
    call.send()
    bytes0, delta0, full0 = loop.payload_bytes, loop.delta_sends, loop.full_sends
    typed0, byte0 = loop.typed_splices, loop.byte_splices
    rewritten0 = client.stats.rewrite.values_rewritten
    deferred0 = client.stats.rewrite.values_deferred
    elapsed = 0.0
    for idx, vals in schedule[1:]:
        tracked.update(idx, vals)
        t0 = time.perf_counter()
        call.send()
        elapsed += time.perf_counter() - t0
    payload = loop.payload_bytes - bytes0
    typed = loop.typed_splices - typed0
    entries = typed + loop.byte_splices - byte0
    rewritten = client.stats.rewrite.values_rewritten - rewritten0
    deferred = client.stats.rewrite.values_deferred - deferred0
    return {
        "variant": variant,
        "n": n,
        "dirty_frac": frac,
        "sends": sends,
        "delta_sends": loop.delta_sends - delta0,
        "full_sends": loop.full_sends - full0,
        "mean_payload_bytes": round(payload / sends, 1),
        "mean_send_ms": round(elapsed / sends * 1e3, 4),
        "calls_per_sec": round(sends / elapsed, 1),
        "reduction_vs_full": 1.0,
        "typed_share": round(typed / entries, 4) if entries else 0.0,
        "deferred_share": round(deferred / rewritten, 4) if rewritten else 0.0,
    }


def _assert_wire_identical(n: int, frac: float, seed: int) -> None:
    """Every reconstructed document == the plain client's bytes."""
    loop, client, call = _make_client("delta", n, seed, keep_documents=True)
    plain_sink = CollectSink()
    plain = BSoapClient(plain_sink, _policy("full-xml"))
    plain_call = plain.prepare(
        double_array_message(doubles_of_width(n, 18, seed=seed))
    )
    plain_call.send()
    plain_tracked = plain_call.tracked("data")
    tracked = call.tracked("data")
    for i, (idx, vals) in enumerate(_mutation_schedule(n, frac, 6, seed + 7)):
        tracked.update(idx, vals)
        plain_tracked.update(idx, vals)
        call.send()
        plain_call.send()
        if loop.last_document != plain_sink.last:
            raise AssertionError(
                f"delta reconstruction diverged from the plain wire "
                f"(dirty_frac={frac}, call {i})"
            )
    if frac <= 0.25 and loop.delta_sends == 0:
        raise AssertionError(
            f"identity check at dirty_frac={frac} never framed - "
            "the bench would not be measuring the delta path"
        )


def _assert_fallback_recovers(n: int, seed: int) -> None:
    """Structural change and mirror loss both degrade, then resume."""
    loop, client, call = _make_client("delta", n, seed)
    tracked = call.tracked("data")
    schedule = _mutation_schedule(n, 0.05, 6, seed + 7)
    tracked.update(*schedule[0])
    assert call.send().delta, "steady state should frame"
    # Structural change: a fresh message shape is a first-time full send.
    wide = client.prepare(
        double_array_message(doubles_of_width(n + 3, 18, seed=seed + 1))
    )
    assert not wide.send().delta, "structural change must ship full XML"
    # Epoch loss: the peer forgets its mirrors; the client sees a resync
    # error, resends full, and frames again on the next dirty send.
    tracked.update(*schedule[1])
    loop.delta.clear()
    try:
        call.send()
        raise AssertionError("wiped mirror should have raised a resync")
    except DeltaResyncError:
        pass
    assert not call.send().delta, "post-resync recovery must be full XML"
    tracked.update(*schedule[2])
    assert call.send().delta, "framing must resume after resync"


def _assert_widening_frames(n: int, seed: int, sends: int = 6) -> Dict[str, int]:
    """Every send whose values outgrow their unstuffed fields frames
    with pad insertions, reconstructed byte for byte; returns the
    drill's counts."""
    unstuffed = DiffPolicy(
        float_format=FloatFormat.MINIMAL, stuffing=StuffingPolicy(StuffMode.NONE)
    )
    loop = DeltaLoopback()
    client = BSoapClient(loop, replace(unstuffed, delta=DeltaPolicy(offer=True)))
    client.wire.negotiated = True
    plain_sink = CollectSink()
    plain = BSoapClient(plain_sink, unstuffed)
    values = doubles_of_width(n, 10, seed=seed)
    rng = np.random.default_rng(seed + 11)
    for sink_client in (client, plain):
        sink_client.send(double_array_message(values))
    framed = 0
    for i in range(1, sends + 1):
        values = values.copy()
        idx = rng.choice(n, n // 4, replace=False)
        # Each send wider than any before: every rewritten field grows.
        values[idx] = doubles_of_width(idx.size, 10 + 2 * i, seed=seed + i)
        before = loop.insertions
        report = client.send(double_array_message(values))
        plain.send(double_array_message(values))
        if not (report.delta and report.rewrite.expansions):
            raise AssertionError(f"widening send {i} did not frame its expansions")
        if loop.insertions - before != report.rewrite.expansions:
            raise AssertionError(f"widening send {i}: insertions != expansions")
        if loop.last_document != plain_sink.last:
            raise AssertionError(
                f"widening send {i}: reconstruction diverged from the plain wire"
            )
        framed += 1
    return {"sends": sends, "framed": framed, "insertions": loop.insertions}


class _FramePair:
    """A responder-shaped sender (MINIMAL, unstuffed: its rewrite
    formats each changed double, as the server's reply does) and a
    receiver holding its mirror and decode, for the fixed-cost table."""

    def __init__(self, seed: int) -> None:
        self.sink = LatestSink()
        client = BSoapClient(
            self.sink,
            DiffPolicy(
                float_format=FloatFormat.MINIMAL,
                stuffing=StuffingPolicy(StuffMode.NONE),
                delta=DeltaPolicy(offer=True),
            ),
        )
        values = doubles_of_width(FRAME_DOC_DOUBLES, FRAME_WIDTH, seed=seed)
        self.call = client.prepare(double_array_message(values))
        self.call.send()
        template_id, epoch = self.sink.take_announce()
        self.deser = DifferentialDeserializer()
        self.deser.deserialize(self.deser.store.store(template_id, epoch, self.sink.last))
        client.wire.negotiated = True
        self.tracked = self.call.tracked("data")
        self.frames: List[bytes] = []
        self.times: Dict[str, List[float]] = {"encode": [], "decode": [], "apply": []}

    def step(self, idx: np.ndarray, values: np.ndarray, timed: bool) -> DeltaFrame:
        """One send of *values* at *idx*, its decode and its apply."""
        if idx.size:
            self.tracked.update(idx, values)
        t0 = time.perf_counter()
        self.call.send()
        t1 = time.perf_counter()
        frame = self.sink.last
        decoded = decode_frame(frame)
        t2 = time.perf_counter()
        document = self.deser.store.apply(frame, DEFAULT_LIMITS)
        t3 = time.perf_counter()
        message, _report = self.deser.deserialize(document)
        if not np.array_equal(message.params[0].value, np.asarray(self.tracked)):
            raise AssertionError("the receiver's decode differs from the sender's values")
        self.frames.append(frame)
        if timed:
            for name, dt in zip(self.times, (t1 - t0, t2 - t1, t3 - t2)):
                self.times[name].append(dt)
        return decoded


def frame_costs(reps: int, seed: int) -> Dict[str, object]:
    """The per-frame fixed-cost table: at each :data:`FRAME_ENTRIES`
    count of typed splices per frame, the median µs of the send
    (``encode_us``: rewrite and frame), :func:`decode_frame`
    (``decode_us``) and :meth:`DeltaSession.apply` (``apply_us``:
    decode, seek-table checks, commit) in each lane, the two lanes
    taking turns frame by frame; and the smallest count from which the
    vector lane costs less at both ends together (``crossover``), which
    ``SMALL_FRAME`` is chosen from.  Every frame's receiver must decode
    the sender's values, and the two lanes must send byte-identical
    frames (the header's template id aside)."""
    rows = []
    crossover = None
    for entries in FRAME_ENTRIES:
        pairs = {lane: _FramePair(seed) for lane in LANES}
        idx = np.linspace(0, FRAME_DOC_DOUBLES - 1, entries).astype(np.int64)
        fresh = doubles_of_width(max(entries, 1) * (reps + 1), FRAME_WIDTH, seed=seed + 1)
        decoded = {}
        for i in range(reps + 1):
            values = fresh[i * entries : (i + 1) * entries]
            for lane, pair in pairs.items():
                with forced_lane(lane):
                    # The first send of each lane warms it.
                    decoded[lane] = pair.step(idx, values, timed=i > 0)
        small, large = pairs["small"], pairs["large"]
        identical = all(a[12:] == b[12:] for a, b in zip(small.frames, large.frames))
        cost = {}
        for lane, pair in pairs.items():
            row = {"entries": entries, "lane": lane}
            row.update(
                (f"{name}_us", round(statistics.median(ts) * 1e6, 2))
                for name, ts in pair.times.items()
            )
            row["decoded_entries"] = decoded[lane].splice_count
            row["typed_entries"] = int(decoded[lane].typed_offsets.size)
            row["lanes_identical"] = identical
            cost[lane] = row["encode_us"] + row["apply_us"]
            rows.append(row)
        if crossover is None and entries and cost["large"] <= cost["small"]:
            crossover = entries
    return {
        "reps": reps,
        "entries": list(FRAME_ENTRIES),
        "small_frame": wire_frame.SMALL_FRAME,
        "crossover": crossover,
        "rows": rows,
    }


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=65536,
                        help="double-array length (default 65536)")
    parser.add_argument("--sends", type=int, default=30,
                        help="timed sends per grid cell (default 30)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None,
                        help="output JSON path (default: stdout)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny CI run: small array, few sends")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    frame_reps = FRAME_REPS
    if args.smoke:
        args.n = 4096
        args.sends = 8
        frame_reps = 20

    for frac in IDENTITY_FRACTIONS:
        _assert_wire_identical(IDENTITY_N, frac, args.seed)
    _assert_fallback_recovers(512, args.seed)
    widening = _assert_widening_frames(1024, args.seed)
    print(
        "wire identity: delta reconstruction == full wire (all fractions); "
        f"fallback drill passed; widening drill framed {widening['framed']} of "
        f"{widening['sends']} sends with {widening['insertions']} insertions",
        file=sys.stderr,
    )
    costs = frame_costs(frame_reps, args.seed)
    for row in costs["rows"]:
        print(
            f"frame of {row['entries']:>3} entries, {row['lane']:<5} lane: "
            f"encode {row['encode_us']:8.1f} us  decode {row['decode_us']:7.1f} us  "
            f"apply {row['apply_us']:7.1f} us",
            file=sys.stderr,
        )
    print(
        f"vector lane cheaper from {costs['crossover']} entries "
        f"(SMALL_FRAME = {costs['small_frame']})",
        file=sys.stderr,
    )

    rows: List[Dict[str, object]] = []
    headline = None
    for frac in FRACTIONS:
        base_bytes = None
        for variant in VARIANTS:
            row = _run_cell(variant, args.n, frac, args.sends, args.seed)
            if variant == "full-xml":
                base_bytes = row["mean_payload_bytes"]
            row["reduction_vs_full"] = round(
                base_bytes / max(row["mean_payload_bytes"], 1e-9), 2
            )
            if variant == "delta" and frac == HEADLINE_FRAC:
                headline = row
            rows.append(row)
            print(
                f"frac={frac:<5} {variant:<9} "
                f"{row['mean_payload_bytes']:>12.1f} B/send  "
                f"x{row['reduction_vs_full']:.1f} vs full  "
                f"({row['delta_sends']} frames, {row['full_sends']} full, "
                f"typed {row['typed_share']:.2f}, "
                f"deferred {row['deferred_share']:.2f}, "
                f"{row['mean_send_ms']:.3f} ms/send)",
                file=sys.stderr,
            )

    if headline is None or headline["reduction_vs_full"] < MIN_HEADLINE_REDUCTION:
        got = None if headline is None else headline["reduction_vs_full"]
        print(
            f"FAIL: headline reduction {got} < {MIN_HEADLINE_REDUCTION}x "
            f"at dirty_frac={HEADLINE_FRAC}",
            file=sys.stderr,
        )
        return 1

    doc = make_result(
        "ablation_delta_wire",
        params={
            "n": args.n,
            "sends": args.sends,
            "seed": args.seed,
            "smoke": args.smoke,
            "headline": f"variant=delta dirty_frac={HEADLINE_FRAC}",
            "widening_drill": widening,
            "frame_costs": costs,
        },
        results=rows,
        notes=(
            "perfect-structural resends over DeltaLoopback; mutation "
            "untimed; per-call byte identity vs the plain client and a "
            "structural+resync fallback drill asserted before timing; "
            "dirty_frac=1.0 shows the max_frame_fraction degradation floor"
        ),
    )
    validate_result(doc, required_columns=REQUIRED_COLUMNS)
    dump_result(doc, args.out)
    if args.out:
        print(f"wrote {args.out} ({len(rows)} rows)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

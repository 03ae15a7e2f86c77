"""The paper's figures (§4) and the §2 phase split, declared once as data.

:data:`FIGURES` maps each name to a :class:`Figure`: a title and its
curves.  A :class:`Curve` builds the workload and client for one array
size and returns the send to time plus the untimed step that runs
before each sample.  Two runners read the table: this module's CLI,
which prints the tables EXPERIMENTS.md records::

    python -m repro.bench.figures              # every figure, quick sizes
    python -m repro.bench.figures fig04 fig05  # a subset
    python -m repro.bench.figures --sizes 1,100,1000,10000 --transport tcp

and ``benchmarks/bench_figures.py``, which runs every curve as a
pytest-benchmark case at CI sizes.

Absolute times are Python-scale, not the paper's C-scale; the claims
under reproduction are the *shapes*: who wins, by what factor, and
where curves sit relative to each other.  EXPERIMENTS.md records the
comparison.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.baselines.gsoap_like import GSoapLikeClient
from repro.baselines.xsoap_like import XSoapLikeClient
from repro.bench.profile90 import PHASES, phase_steps
from repro.bench.report import Series, format_ratios, format_series
from repro.bench.runner import TransportRig, time_loop
from repro.bench.workloads import (
    MIO_INTERMEDIATE_SPLIT,
    MIO_MAX_SPLIT,
    MIO_MIN_SPLIT,
    double_array_message,
    doubles_of_width,
    int_array_message,
    ints_of_width,
    mio_columns_of_widths,
    mio_message,
    random_doubles,
    random_ints,
    random_mio_columns,
)
from repro.buffers.config import ChunkPolicy
from repro.core.client import BSoapClient
from repro.core.policy import DiffPolicy, OverlayPolicy, StuffMode, StuffingPolicy
from repro.soap.message import SOAPMessage
from repro.transport.base import Transport

__all__ = ["Curve", "Figure", "FIGURES", "shift_policy", "run_figure", "main"]

#: Default quick sizes (full paper sweep: 1,100,500,1K,10K,50K,100K).
DEFAULT_SIZES: Tuple[int, ...] = (1, 100, 500, 1000, 10000)

#: A double or int array, or MIO columns keyed ``x``/``y``/``v``.
Values = Union[np.ndarray, Dict[str, np.ndarray]]
Step = Callable[[], object]
Make = Callable[[int, Transport], Tuple[Step, Optional[Step]]]


@dataclasses.dataclass(frozen=True)
class Curve:
    """One line of a figure.

    ``make(n, transport)`` builds the workload and client for arrays of
    *n* items and returns ``(timed, setup)``: the send to time, and the
    step run untimed before each sample (``None`` when there is none).
    ``rebuilds`` marks a setup that rebuilds the template, which makes
    a sample expensive: both runners take fewer of them.
    """

    label: str
    make: Make
    rebuilds: bool = False


@dataclasses.dataclass(frozen=True)
class Figure:
    """A paper figure: its title, its curves in legend order, and the
    summary lines (if any) printed under its table."""

    title: str
    curves: Tuple[Curve, ...]
    summary: Optional[Callable[[Series, Sequence[int]], str]] = None


# ----------------------------------------------------------------------
# Protocol pieces
# ----------------------------------------------------------------------
#: bSOAP with differential serialization off: the "Full Serialization" curves.
_FULL = DiffPolicy(differential_enabled=False)
#: Dirty fractions of Figures 4/5/8/9, in legend order.
_FRACTIONS = (1.0, 0.75, 0.5, 0.25)


def shift_policy(chunk_size: int = 32 * 1024) -> DiffPolicy:
    """The shifting figures' chunking: *chunk_size* chunks, a 1/8 reserve
    (at most 512 bytes) and splits at half a chunk."""
    return DiffPolicy(
        chunk=ChunkPolicy(
            chunk_size=chunk_size,
            reserve=min(512, chunk_size // 8),
            split_threshold=chunk_size // 2,
        )
    )


def _message(values: Values) -> Tuple[SOAPMessage, str]:
    """The message carrying *values*, and its array parameter's name."""
    if isinstance(values, dict):
        return mio_message(values), "mesh"
    if values.dtype.kind == "f":
        return double_array_message(values), "data"
    return int_array_message(values), "data"


def _prepared(tp: Transport, message: SOAPMessage, param: str, policy=None):
    """A call whose template is built and first send committed, and its
    tracked array."""
    call = BSoapClient(tp, policy).prepare(message)
    call.send()
    return call, call.tracked(param)


def _write(tracked, idx: np.ndarray, src: Values) -> None:
    """Write ``src[idx]`` at *idx*; for MIOs, each column *src* holds."""
    if isinstance(src, dict):
        for col, values in src.items():
            tracked.set_items(idx, col, values[idx])
    else:
        tracked.update(idx, src[idx])


def _flip(pool: Callable[[int], Values]) -> Callable[[int], Tuple[Values, Values]]:
    """Two value sets: *pool* and *pool* rolled by one item."""

    def sources(n: int) -> Tuple[Values, Values]:
        first = pool(n)
        if isinstance(first, dict):
            return first, {col: np.roll(v, 1) for col, v in first.items()}
        return first, np.roll(first, 1)

    return sources


def _all_items(n: int) -> Callable[[], np.ndarray]:
    idx = np.arange(n)
    return lambda: idx


def _random_fraction(frac: float) -> Callable[[int], Callable[[], np.ndarray]]:
    """A new random *frac* of the items on every draw (seeded by n)."""

    def draws(n: int) -> Callable[[], np.ndarray]:
        k = max(1, int(frac * n))
        if k >= n:
            return _all_items(n)
        rng = np.random.default_rng(n)
        return lambda: rng.choice(n, k, replace=False)

    return draws


def _fixed_fraction(n: int, frac: float) -> np.ndarray:
    """One random *frac* of the items (seeded by n and the count), sorted."""
    k = max(1, int(frac * n))
    if k >= n:
        return np.arange(n)
    return np.sort(np.random.default_rng(n + k).choice(n, k, replace=False))


# ----------------------------------------------------------------------
# Curve kinds
# ----------------------------------------------------------------------
def _send(client: Callable[[Transport], object], values) -> Make:
    """Every sample sends the whole message through *client* (one
    untimed send first, so an overlay client has built its template)."""

    def make(n, tp):
        message, _ = _message(values(n))
        sender = client(tp)
        sender.send(message)
        return (lambda: sender.send(message)), None

    return make


def _full(tp: Transport) -> BSoapClient:
    return BSoapClient(tp, _FULL)


def _resend(values, policy: Optional[DiffPolicy] = None) -> Make:
    """Every sample resends the unchanged message: a content match."""

    def make(n, tp):
        call, _ = _prepared(tp, *_message(values(n)), policy)
        return call.send, None

    return make


def _alternate(values, sources, draws=_all_items, policy=None) -> Make:
    """Before each sample, write the next of two alternating value sets
    at the drawn indices; the template stays, so no value shifts."""

    def make(n, tp):
        call, tracked = _prepared(tp, *_message(values(n)), policy)
        turn = itertools.cycle(sources(n))
        draw = draws(n)

        def setup() -> None:
            _write(tracked, draw(), next(turn))

        return call.send, setup

    return make


def _expand(values, wider, frac: float = 1.0, chunk_size: int = 32 * 1024) -> Make:
    """Before each sample, rebuild the template under :func:`shift_policy`
    and write wider values over a fixed *frac* of the items, so each of
    those fields expands on the timed send."""

    def make(n, tp):
        message, param = _message(values(n))
        replacement = wider(n)
        idx = _fixed_fraction(n, frac)
        state = {}

        def setup() -> None:
            state["call"], tracked = _prepared(
                tp, message, param, shift_policy(chunk_size)
            )
            _write(tracked, idx, replacement)

        return (lambda: state["call"].send()), setup

    return make


# ----------------------------------------------------------------------
# Figure families
# ----------------------------------------------------------------------
def _content_ratios(series: Series, sizes: Sequence[int]) -> str:
    pair = ("bSOAP Full Serialization", "bSOAP Content Match")
    return format_ratios(series, [pair], sizes)


def _content(title: str, values, *baselines) -> Figure:
    """Figures 1–3: whole-message sends against an unchanged resend."""
    return Figure(
        title,
        (
            *(Curve(label, _send(client, values)) for label, client in baselines),
            Curve("bSOAP Full Serialization", _send(_full, values)),
            Curve("bSOAP Content Match", _resend(values)),
        ),
        _content_ratios,
    )


def _structural(title: str, values, pool) -> Figure:
    """Figures 4–5: a new random fraction of the values gets same-width
    replacements from *pool* before every send."""
    return Figure(
        title,
        (
            Curve("bSOAP Full Serialization", _send(_full, values)),
            *(
                Curve(
                    f"{int(f * 100)}% Value Re-serialization",
                    _alternate(values, _flip(pool), _random_fraction(f)),
                )
                for f in _FRACTIONS
            ),
            Curve("Message Content Match", _resend(values)),
        ),
    )


def _no_shift(values, sources) -> Curve:
    """Figures 6–9's reference: every value rewritten at its own width."""
    return Curve("100% Re-serialization, No Shifting", _alternate(values, sources))


def _worst_shift(title: str, smallest, largest, reference: Curve) -> Figure:
    """Figures 6–7: every value grows from the smallest to the largest
    width, with 32 KiB and with 8 KiB chunks."""
    return Figure(
        title,
        tuple(
            Curve(
                f"Worst Case Shifting, {kib}K Chunks",
                _expand(smallest, largest, chunk_size=kib * 1024),
                rebuilds=True,
            )
            for kib in (32, 8)
        )
        + (reference,),
    )


def _partial_shift(title: str, values, wider, reference: Curve) -> Figure:
    """Figures 8–9: a fixed fraction of intermediate-width values grows
    to the largest width."""
    return Figure(
        title,
        tuple(
            Curve(
                f"{int(f * 100)}% Re-serialization with Shifting",
                _expand(values, wider, frac=f),
                rebuilds=True,
            )
            for f in _FRACTIONS
        )
        + (reference,),
    )


def _stuffing(title: str, smallest, largest, intermediate: StuffingPolicy) -> Figure:
    """Figures 10–11: fields stuffed to the largest, an intermediate and
    the smallest width.  The no-shift curves resend the smallest values;
    the tag-shift curve alternately writes the smallest and the largest
    values into largest-width fields, moving every closing tag."""
    max_stuff = DiffPolicy(stuffing=StuffingPolicy(StuffMode.MAX))
    return Figure(
        title,
        (
            Curve(
                "Max Field Width: Full Closing Tag Shift",
                _alternate(
                    largest, lambda n: (smallest(n), largest(n)), policy=max_stuff
                ),
            ),
            Curve(
                "Max Field Width: No Closing Tag Shift", _resend(smallest, max_stuff)
            ),
            Curve(
                "Intermediate Field Width: No Closing Tag Shift",
                _resend(smallest, DiffPolicy(stuffing=intermediate)),
            ),
            Curve(
                "Min Field Width: No Closing Tag Shift",
                _resend(smallest, DiffPolicy(stuffing=StuffingPolicy())),
            ),
        ),
    )


def _overlay(kind: str, values) -> Tuple[Curve, Curve]:
    """Figure 12: sends from one overlaid 32 KiB chunk against rewriting
    every value of a materialized template (two alternating value sets)."""
    plain = DiffPolicy(
        chunk=ChunkPolicy(chunk_size=32 * 1024), stuffing=StuffingPolicy(StuffMode.MAX)
    )
    overlay = dataclasses.replace(
        plain, overlay=OverlayPolicy(enabled=True, min_items=1)
    )
    return (
        Curve(
            f"Chunk Overlay ({kind})",
            _send(lambda tp: BSoapClient(tp, overlay), values),
        ),
        Curve(
            f"100% Value Re-serialization ({kind})",
            _alternate(values, _flip(values), policy=plain),
        ),
    )


def _conversion_share(series: Series, sizes: Sequence[int]) -> str:
    """§2's claim, per size: conversion's share of the four phases."""
    by_n = [dict(series[label]) for label in PHASES]
    shares = []
    for n in sizes:
        total = sum(points[n] for points in by_n)
        share = f"{100 * by_n[1][n] / total:.1f}%" if total else "-"
        shares.append(f"n={n}: {share}")
    return "Conversion share: " + ", ".join(shares)


def _phase(label: str) -> Make:
    return lambda n, tp: (phase_steps(n)[label], None)


# ----------------------------------------------------------------------
# Workloads: each figure's values, widths and seeds
# ----------------------------------------------------------------------
def _mio_wider(n: int) -> Values:
    """Figure 8: 36-character MIOs grow to 46 (``v`` 14 → 24 characters;
    ``x`` and ``y`` get new 11-character values)."""
    xy = ints_of_width(n, 11, seed=n + 9)
    return {
        "x": xy,
        "y": np.roll(xy, 3),
        "v": doubles_of_width(n, MIO_MAX_SPLIT[2], seed=n + 7),
    }


def _mio_largest(n: int) -> Values:
    return mio_columns_of_widths(n, MIO_MAX_SPLIT, seed=n)


def _mio_no_shift_sources(n: int) -> Tuple[Values, Values]:
    """46-character MIOs: ``v`` flips between two 24-character sets, and
    ``x`` and ``y`` are rewritten with their own values."""
    cols = _mio_largest(n)
    other = doubles_of_width(n, MIO_MAX_SPLIT[2], seed=n + 31)
    return {**cols, "v": other}, {**cols, "v": np.roll(other, 1)}


_MIO_NO_SHIFT = _no_shift(_mio_largest, _mio_no_shift_sources)
_DOUBLE_NO_SHIFT = _no_shift(
    lambda n: doubles_of_width(n, 24, seed=n),
    _flip(lambda n: doubles_of_width(n, 24, seed=n + 31)),
)


FIGURES: Dict[str, Figure] = {
    "fig01": _content(
        "Figure 1 — Message Content Matches: MIOs (Send Time, ms)",
        lambda n: random_mio_columns(n, seed=n),
        ("gSOAP-like", GSoapLikeClient),
    ),
    "fig02": _content(
        "Figure 2 — Message Content Matches: Doubles (Send Time, ms)",
        lambda n: random_doubles(n, seed=n),
        ("XSOAP-like", XSoapLikeClient),
        ("gSOAP-like", GSoapLikeClient),
    ),
    "fig03": _content(
        "Figure 3 — Message Content Matches: Integers (Send Time, ms)",
        lambda n: random_ints(n, seed=n),
        ("gSOAP-like", GSoapLikeClient),
    ),
    # Paper: only the MIO doubles are re-serialized.
    "fig04": _structural(
        "Figure 4 — Perfect Structural Matches: MIOs (Send Time, ms)",
        lambda n: mio_columns_of_widths(n, MIO_INTERMEDIATE_SPLIT, seed=n),
        lambda n: {
            "v": doubles_of_width(n, MIO_INTERMEDIATE_SPLIT[2], seed=n + 999)
        },
    ),
    "fig05": _structural(
        "Figure 5 — Perfect Structural Matches: Doubles (Send Time, ms)",
        lambda n: doubles_of_width(n, 18, seed=n),
        lambda n: doubles_of_width(n, 18, seed=n + 999),
    ),
    "fig06": _worst_shift(
        "Figure 6 — Worst Case Shifting: MIOs (Send Time, ms)",
        lambda n: mio_columns_of_widths(n, MIO_MIN_SPLIT, seed=n),
        lambda n: mio_columns_of_widths(n, MIO_MAX_SPLIT, seed=n + 7),
        _MIO_NO_SHIFT,
    ),
    "fig07": _worst_shift(
        "Figure 7 — Worst Case Shifting: Doubles (Send Time, ms)",
        lambda n: doubles_of_width(n, 1, seed=n),
        lambda n: doubles_of_width(n, 24, seed=n + 7),
        _DOUBLE_NO_SHIFT,
    ),
    "fig08": _partial_shift(
        "Figure 8 — Shifting Performance: MIOs (Send Time, ms)",
        lambda n: mio_columns_of_widths(n, MIO_INTERMEDIATE_SPLIT, seed=n),
        _mio_wider,
        _MIO_NO_SHIFT,
    ),
    "fig09": _partial_shift(
        "Figure 9 — Shifting Performance: Doubles (Send Time, ms)",
        lambda n: doubles_of_width(n, 18, seed=n),
        lambda n: doubles_of_width(n, 24, seed=n + 7),
        _DOUBLE_NO_SHIFT,
    ),
    "fig10": _stuffing(
        "Figure 10 — Stuffing Performance: MIOs (Send Time, ms)",
        lambda n: mio_columns_of_widths(n, MIO_MIN_SPLIT, seed=1),
        lambda n: mio_columns_of_widths(n, MIO_MAX_SPLIT, seed=2),
        StuffingPolicy(
            StuffMode.FIXED,
            {"int": MIO_INTERMEDIATE_SPLIT[0], "double": MIO_INTERMEDIATE_SPLIT[2]},
        ),
    ),
    "fig11": _stuffing(
        "Figure 11 — Stuffing Performance: Doubles (Send Time, ms)",
        lambda n: doubles_of_width(n, 1, seed=1),
        lambda n: doubles_of_width(n, 24, seed=2),
        StuffingPolicy(StuffMode.FIXED, {"double": 18}),
    ),
    "fig12": Figure(
        "Figure 12 — Chunk Overlaying Performance (Send Time, ms)",
        _overlay("doubles", lambda n: random_doubles(n, seed=n))
        + _overlay("MIOs", lambda n: random_mio_columns(n, seed=n)),
    ),
    "sec2": Figure(
        "Section 2 — Serialization cost decomposition (ms; share in %)",
        tuple(Curve(label, _phase(label)) for label in PHASES),
        _conversion_share,
    ),
}


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def run_figure(
    name: str,
    sizes: Sequence[int] = DEFAULT_SIZES,
    reps: Optional[int] = None,
    transport: str = "memcpy",
) -> Tuple[str, Series]:
    """Run one figure by name: every curve at every size."""
    figure = FIGURES.get(name)
    if figure is None:
        raise KeyError(f"unknown figure {name!r}; have {sorted(FIGURES)}")
    series: Series = {curve.label: [] for curve in figure.curves}
    with TransportRig(transport) as tp:
        for n in sizes:
            for curve in figure.curves:
                timed, setup = curve.make(n, tp)
                timer = time_loop(
                    timed,
                    setup=setup,
                    reps=reps,
                    max_reps=20 if curve.rebuilds else 100,
                )
                series[curve.label].append((n, timer.mean_ms))
    return figure.title, series


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.figures",
        description="Reproduce the paper's evaluation figures.",
    )
    parser.add_argument(
        "figures",
        nargs="*",
        default=sorted(FIGURES),
        help=f"figures to run (default: all of {sorted(FIGURES)})",
    )
    parser.add_argument(
        "--sizes",
        default=",".join(str(s) for s in DEFAULT_SIZES),
        help="comma-separated array sizes (paper: 1,100,500,1000,10000,50000,100000)",
    )
    parser.add_argument("--reps", type=int, default=None, help="fixed repetitions")
    parser.add_argument(
        "--transport",
        default="memcpy",
        choices=TransportRig.KINDS,
        help="transport rig (tcp = localhost dummy server, as in the paper)",
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="render each figure as an ASCII log-log chart too",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="also append the rendered tables to this file "
        "(for regenerating EXPERIMENTS.md data)",
    )
    args = parser.parse_args(argv)
    unknown = [name for name in args.figures if name not in FIGURES]
    if unknown:
        parser.error(f"unknown figure(s) {unknown}; choose from {sorted(FIGURES)}")
    sizes = tuple(int(s) for s in args.sizes.split(","))

    sink_file = open(args.out, "a") if args.out else None
    try:
        for name in args.figures:
            title, series = run_figure(name, sizes, args.reps, args.transport)
            blocks = [format_series(title, series)]
            summary = FIGURES[name].summary
            if summary is not None:
                blocks.append(summary(series, sizes))
            if args.plot:
                from repro.bench.plots import ascii_plot

                blocks.append(ascii_plot(title, series))
            text = "\n".join(blocks)
            print()
            print(text)
            if sink_file is not None:
                sink_file.write("\n" + text + "\n")
                sink_file.flush()
    finally:
        if sink_file is not None:
            sink_file.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

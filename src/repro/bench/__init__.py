"""Benchmark harness: workloads, measurement, per-figure experiments.

The paper's evaluation (§4) is reproduced figure by figure:

* :mod:`repro.bench.workloads` — arrays of ints/doubles/MIOs with
  *controlled serialized widths* (the studies depend on values being
  exactly 1/18/24 characters etc.),
* :mod:`repro.bench.runner` — Send-Time measurement (averages over
  repetitions, per the paper's 100-sample methodology) and transport
  rigs (memcpy sink / TCP to a dummy server / HTTP framing),
* :mod:`repro.bench.figures` — one declaration per paper figure
  (:data:`~repro.bench.figures.FIGURES`), run by
  ``python -m repro.bench.figures`` and ``benchmarks/bench_figures.py``,
* :mod:`repro.bench.report` — series/ratio pretty-printing,
* :mod:`repro.bench.profile90` — the §2 cost-decomposition experiment
  (conversion ≈ 90% of serialization).
"""

from repro.bench.workloads import (
    PAPER_SIZES,
    SERVICE_NS,
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
from repro.bench.runner import TransportRig, adaptive_reps, time_loop
from repro.bench.report import Series, format_series, ratio

__all__ = [
    "PAPER_SIZES",
    "SERVICE_NS",
    "doubles_of_width",
    "ints_of_width",
    "mio_columns_of_widths",
    "random_doubles",
    "random_ints",
    "random_mio_columns",
    "double_array_message",
    "int_array_message",
    "mio_message",
    "TransportRig",
    "time_loop",
    "adaptive_reps",
    "Series",
    "format_series",
    "ratio",
]

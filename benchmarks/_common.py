"""Shared helpers for the ablation benches.

The paper's figures (§4) and the §2 phase split run from
``bench_figures.py``, which reads their one declaration in
:data:`repro.bench.figures.FIGURES`; the ``bench_ablation_*.py`` files
cover the design choices DESIGN.md calls out.

Benchmark transport: :class:`MemcpySink` — one copy per byte, the
reproducible stand-in for the paper's send() syscall (see DESIGN.md
substitutions).  Timing methodology note: mutation of application data
happens in benchmark *setup* (untimed), matching the paper's Send-Time
window.
"""

from __future__ import annotations

from repro.core.client import BSoapClient
from repro.core.policy import DiffPolicy
from repro.transport.loopback import MemcpySink


def sink():
    return MemcpySink()


def prepared_call(message, policy=None):
    """Build a template and commit the first send (untimed)."""
    client = BSoapClient(sink(), policy or DiffPolicy())
    call = client.prepare(message)
    call.send()
    return call

"""Every paper figure (§4) and the §2 phase split as pytest-benchmark cases.

The curves are declared once, in :data:`repro.bench.figures.FIGURES`;
this file runs each (figure, curve, size) at CI sizes, one group per
figure and size.  ``python -m repro.bench.figures`` runs the same
curves over the paper's sizes.  Select a figure with ``-k fig05``.
"""

import pytest

from repro.bench.figures import FIGURES
from repro.transport.loopback import MemcpySink

#: CI-sized arrays (the paper's sweep goes to 100K).
SIZES = (100, 1000, 10000)
#: Figures whose samples rebuild a template (6–9) stop at 5000.
REBUILD_SIZES = (100, 1000, 5000)

CASES = [
    pytest.param(name, curve, n, id=f"{name}-{curve.label}-{n}")
    for name, figure in FIGURES.items()
    for n in (REBUILD_SIZES if any(c.rebuilds for c in figure.curves) else SIZES)
    for curve in figure.curves
]


@pytest.mark.parametrize("name, curve, n", CASES)
def test_figure(benchmark, name, curve, n):
    benchmark.group = f"{name} n={n}"
    timed, setup = curve.make(n, MemcpySink())
    if setup is None:
        benchmark(timed)
    else:
        rounds = 5 if curve.rebuilds else 10
        benchmark.pedantic(timed, setup=setup, rounds=rounds, warmup_rounds=1)

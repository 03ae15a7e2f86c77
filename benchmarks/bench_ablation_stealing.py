"""Ablation — the runtime's shift against the paper's expansion rules.

With fixed-width stuffing, neighbors hold whitespace slack.  Expand a
scattered 10% of the values and time three ways to widen the fields:

* ``runtime-shift`` — the runtime's send: it rebuilds each growing
  chunk once (``repro.core.differential``, "Slow path");
* ``paper-shift`` — the paper's per-value tail shift (§3.2), one move
  of the chunk tail per expanding value;
* ``paper-steal`` — the paper's stealing: slide only the bytes up to
  the nearest right-hand neighbour with enough slack, falling back to
  a tail shift when none is in reach.

The two paper rows run on :class:`~repro.baselines.paper_expansion.
PaperTemplate`, a copy of the same template, and time formatting the
dirty values and writing them; the runtime row times the whole send
into a memcpy sink.

Finding (recorded in EXPERIMENTS.md): in this Python port stealing is
*not* faster.  One rebuild per chunk beats both per-value rules, and
stealing pays one donor scan and one slide per expanding value.  In
the paper's C setting stealing beats per-value shifting, which is why
the authors explore it in a companion paper; the runtime keeps the
shift only.
"""

import numpy as np
import pytest

from _common import prepared_call
from repro.baselines.paper_expansion import PaperTemplate, pending_writes
from repro.bench.workloads import double_array_message, doubles_of_width
from repro.buffers.config import ChunkPolicy
from repro.core.policy import DiffPolicy, StuffingPolicy, StuffMode

N = 5000
#: Field width: 14-char values leave 6 bytes of slack, and growing one
#: to 24 chars needs 4, so a single neighbour can donate (the paper's
#: steal takes one donor with slack >= delta).
WIDTH = 20

POLICY = DiffPolicy(
    chunk=ChunkPolicy(chunk_size=32 * 1024),
    stuffing=StuffingPolicy(StuffMode.FIXED, {"double": WIDTH}),
)


def _expanded_call():
    """A sent template with 10% of its values grown to 24 chars (dirty)."""
    message = double_array_message(doubles_of_width(N, 14, seed=0))
    big = doubles_of_width(N, 24, seed=7)
    rng = np.random.default_rng(1)
    idx = np.sort(rng.choice(N, N // 10, replace=False))
    call = prepared_call(message, POLICY)
    call.tracked("data").update(idx, big[idx])
    return call


def _paper_write(call, steal):
    """A copy of *call*'s template, and a function that formats the
    dirty values and writes them into the copy the paper's way."""
    copy = PaperTemplate(call.template)

    def write():
        copy.write_all(pending_writes(call.template, POLICY.float_format), steal=steal)

    return copy, write


@pytest.mark.parametrize("rule", ["runtime-shift", "paper-shift", "paper-steal"])
def test_scattered_expansion(benchmark, rule):
    benchmark.group = f"ablation steal-vs-shift (n={N}, 10% expand 14→24 chars)"
    benchmark.name = f"test_scattered_expansion[{rule}]"
    state = {}

    def setup():
        call = _expanded_call()
        if rule == "runtime-shift":
            state["run"] = call.send
        else:
            state["run"] = _paper_write(call, rule == "paper-steal")[1]

    benchmark.pedantic(
        lambda: state["run"](), setup=setup, rounds=5, iterations=1, warmup_rounds=1
    )


def test_paper_steal_actually_steals():
    """Sanity: under this setup the paper's stealing finds donors."""
    copy, write = _paper_write(_expanded_call(), steal=True)
    write()
    assert copy.stats.steals > 0
    assert copy.stats.steals >= copy.stats.shifts
    assert copy.stats.expansions == N // 10

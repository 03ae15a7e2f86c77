"""Ablation — double formatting policy.

Four converters (the library's ``FloatFormat``): MINIMAL (shortest
round-trip, integral values drop ``.0``), SHORTEST (Python ``repr``),
G17 (``%.17g``) and FIXED (``%24.16e``).  Two effects to expose:

* raw conversion cost (the §2 bottleneck itself),
* *width stability*: only FIXED has one width, so only its structural
  rewrites can never shift a closing tag.  ``%.17g`` strips trailing
  zeros, so G17 widths of uniform randoms spread as widely as
  MINIMAL's; its one guarantee is the 24-character bound, so a G17
  value never outgrows a MAX-stuffed field.
"""

import numpy as np
import pytest

from _common import prepared_call, sink
from repro.bench.workloads import double_array_message, random_doubles
from repro.core.client import BSoapClient
from repro.core.policy import DiffPolicy
from repro.lexical.floats import FloatFormat, format_double_array

N = 20_000


@pytest.mark.parametrize("fmt", list(FloatFormat))
def test_conversion_cost(benchmark, fmt):
    benchmark.group = f"ablation float format: conversion (n={N})"
    benchmark.name = f"test_conversion_cost[{fmt.value}]"
    values = random_doubles(N, seed=0)
    benchmark(lambda: format_double_array(values, fmt))


@pytest.mark.parametrize("fmt", list(FloatFormat))
def test_structural_rewrite(benchmark, fmt):
    benchmark.group = f"ablation float format: 100% rewrite (n={N})"
    benchmark.name = f"test_structural_rewrite[{fmt.value}]"
    policy = DiffPolicy(float_format=fmt)
    message = double_array_message(random_doubles(N, seed=0))
    call = prepared_call(message, policy)
    pool = [random_doubles(N, seed=s) for s in (1, 2)]
    idx = np.arange(N)
    state = {"i": 0}

    def mutate():
        call.tracked("data").update(idx, pool[state["i"] % 2])
        state["i"] += 1

    # Warm the widths so steady state is measured (first writes may shift).
    for _ in range(3):
        mutate()
        call.send()
    benchmark.pedantic(call.send, setup=mutate, rounds=8, iterations=1, warmup_rounds=1)


def test_g17_width_stability():
    """FIXED has one width; G17 stays within 24 characters; MINIMAL varies."""
    values = random_doubles(5000, seed=3)
    fixed_lens = {len(t) for t in format_double_array(values, FloatFormat.FIXED)}
    g17_lens = {len(t) for t in format_double_array(values, FloatFormat.G17)}
    min_lens = {len(t) for t in format_double_array(values, FloatFormat.MINIMAL)}
    assert fixed_lens == {24}
    assert max(g17_lens) <= 24
    assert len(min_lens) > 1

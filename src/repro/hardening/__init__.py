"""Server-side hardening: resource limits + a seeded wire fuzzer.

Two halves:

* :mod:`repro.hardening.limits` — the :class:`ResourceLimits` config
  enforced at the scanner, parser, and HTTP framing layers (imported
  eagerly; it has no dependencies beyond :mod:`repro.errors`, so the
  low-level xmlkit/transport modules can import it without cycles).
* :mod:`repro.hardening.fuzz` — a deterministic corpus-mutation fuzzer:
  one seeded loop (``run``) over entry adapters — the service, its
  delta-frame entry, live HTTP on both front ends, the reply channel
  and the parser — asserting the fault-not-crash invariant and probing
  for poisoned state.  Loaded lazily because it imports the server
  stack, which itself imports this package's limits.
* :mod:`repro.hardening.overload` — admission control (concurrency /
  queue-depth / rate gates answering ``503 + Retry-After``) and the
  :class:`MemoryAccountant` byte ledger behind the tiered
  pressure-relief ladder (mirrors → seek tables → LRU sessions).
  Loaded lazily for the same reason as the fuzzer.
"""

from __future__ import annotations

from repro.hardening.limits import DEFAULT_LIMITS, UNLIMITED, ResourceLimits

__all__ = [
    "ResourceLimits",
    "DEFAULT_LIMITS",
    "UNLIMITED",
    "WireFuzzer",
    "HTTPFuzzer",
    "DeltaFrameFuzzer",
    "FuzzReport",
    "ENTRIES",
    "run",
    "load_corpus",
    "build_fuzz_service",
    "parse_divergence",
    "OverloadPolicy",
    "AdmissionController",
    "MemoryAccountant",
]

_FUZZ_NAMES = frozenset(
    [
        "WireFuzzer",
        "HTTPFuzzer",
        "DeltaFrameFuzzer",
        "FuzzReport",
        "ENTRIES",
        "run",
        "load_corpus",
        "build_fuzz_service",
        "parse_divergence",
    ]
)

_OVERLOAD_NAMES = frozenset(
    ["OverloadPolicy", "AdmissionController", "MemoryAccountant"]
)


def __getattr__(name: str):
    if name in _FUZZ_NAMES:
        from repro.hardening import fuzz

        return getattr(fuzz, name)
    if name in _OVERLOAD_NAMES:
        from repro.hardening import overload

        return getattr(overload, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

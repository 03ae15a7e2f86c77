"""Deterministic chaos soak for the overload-hardened serving stack.

Where :mod:`repro.resilience.faults` injects faults *inside* one
client's transport and :mod:`repro.hardening.fuzz` throws malformed
bytes at an in-process service, this package attacks the **whole
deployed shape**: a real :class:`~repro.server.threaded_server.HTTPSoapServer`
(admission control + memory-budgeted session state) serving a fleet of
real :class:`~repro.channel.RPCChannel` clients over real sockets,
while a seeded coordinator injects connection drops, slow-loris drips,
partial writes, stalls, session kills, and memory-pressure pulses
(:mod:`repro.chaos.faults`), and checks after every phase that the
stack kept its promises (:mod:`repro.chaos.harness`).

Run it::

    PYTHONPATH=src python -m repro.chaos --seed 12345

Everything — worker payloads, fault schedules, retry jitter — derives
from the seed, so a failing soak replays exactly.  See
``docs/overload.md`` for the degradation ladder the soak exercises.
"""

from repro.chaos.faults import (
    FAULT_KINDS,
    ghost_announce,
    inject_partial_write,
    inject_slowloris,
    inject_stall,
    kill_one_session,
)
from repro.chaos.harness import (
    PHASES,
    ChaosConfig,
    ChaosReport,
    PhaseReport,
    run_chaos,
)

__all__ = [
    "FAULT_KINDS",
    "PHASES",
    "ChaosConfig",
    "ChaosReport",
    "PhaseReport",
    "run_chaos",
    "ghost_announce",
    "inject_partial_write",
    "inject_slowloris",
    "inject_stall",
    "kill_one_session",
]

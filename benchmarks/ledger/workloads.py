"""The ledger's seven closed-loop workloads and their input streams.

Every workload is one client thread on one connection calling an
operation whose parameter ``data`` is an array of doubles.  Inputs come
from ``--seed`` alone; a round's inputs are generated before its clock
starts and "fresh" values are drawn anew for every call, so the
conversion memo sees non-recurring input.  README.md has the table and
the reason each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bench.workloads import doubles_of_width
from repro.core.policy import StuffMode
from repro.runtime.loadgen import SERVICE_NS
from repro.schema.composite import ArrayType
from repro.schema.types import DOUBLE
from repro.soap.message import Parameter, SOAPMessage

#: Lexical width of every generated value outside ``width_churn``.
WIDTH = 14
#: Untimed calls after the first-time send, before the first round.
WARM_CALLS = 5
#: ``cold_structures`` cycles through this many distinct array lengths.
COLD_LENGTHS = 200

CONTENT_PATH = {"core.content_share": ("==", 1.0), "wire.frame_share": ("==", 1.0)}
PERFECT_PATH = {
    "core.perfect_share": ("==", 1.0),
    "wire.frame_share": ("==", 1.0),
    "server.skipscan_hit_share": ("==", 1.0),
}


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``make_server`` front end.
    server: str
    #: Doubles in ``data`` (the base length for ``cold_structures``).
    size: int
    #: Operation called: ``checksum`` replies one double, ``echo`` the array.
    op: str
    #: Calls per timed round.
    calls: int
    #: What changes between calls: none | fixed | random | widths | cold.
    mutation: str
    #: Share of ``data`` rewritten per call.
    dirty: float
    stuffing: StuffMode
    #: The path the workload must stay on after warm-up: metric → (op, value).
    path: Dict[str, Tuple[str, float]]


WORKLOADS: Tuple[Workload, ...] = (
    Workload("small_content", "threaded", 16, "checksum", 600, "none", 0.0,
             StuffMode.MAX, CONTENT_PATH),
    Workload("small_content_async", "async", 16, "checksum", 400, "none", 0.0,
             StuffMode.MAX, CONTENT_PATH),
    Workload("large_sparse", "async", 16384, "checksum", 60, "fixed", 0.01,
             StuffMode.MAX, PERFECT_PATH),
    Workload("large_quarter", "async", 16384, "checksum", 2, "random", 0.25,
             StuffMode.MAX, PERFECT_PATH),
    Workload("width_churn", "async", 1024, "checksum", 13, "widths", 0.25,
             StuffMode.NONE,
             {"core.first_time_share": ("==", 0.0), "core.partial_share": (">=", 0.3)}),
    Workload("cold_structures", "async", 1024, "checksum", 8, "cold", 1.0,
             StuffMode.MAX, {"core.first_time_share": ("==", 1.0)}),
    Workload("echo_sparse", "async", 16384, "echo", 2, "fixed", 0.01,
             StuffMode.MAX, PERFECT_PATH),
)
BY_NAME = {w.name: w for w in WORKLOADS}


def _derive(seed: int, *keys: int) -> int:
    """An independent integer seed for one (round, purpose) of a run."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def _message(op: str, values: np.ndarray) -> SOAPMessage:
    return SOAPMessage(op, SERVICE_NS, [Parameter("data", ArrayType(DOUBLE), values)])


#: One call's input: (indices to overwrite or None, their new values).
Step = Tuple[Optional[np.ndarray], Optional[np.ndarray]]


class Stream:
    """A workload's request stream: one working array mutated per call.

    The application keeps one array and one message, overwrites a few
    elements and calls again — the client stub's auto-diff finds the
    dirty leaves, as for the paper's iterative solvers.
    """

    def __init__(self, spec: Workload, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        self.values = doubles_of_width(spec.size, WIDTH, _derive(seed, 0))
        self.message = _message(spec.op, self.values)
        self.dirty_count = int(spec.size * spec.dirty)
        rng = np.random.default_rng(_derive(seed, 1))
        #: The one dirty set of the ``fixed`` mutation.
        self.fixed = np.sort(rng.choice(spec.size, self.dirty_count, replace=False))

    def round_inputs(self, round_no: int, calls: Optional[int] = None) -> List[Step]:
        """Inputs of one round; *round_no* -1 is the warm-up."""
        calls = self.spec.calls if calls is None else calls
        spec, k = self.spec, self.dirty_count
        if spec.mutation == "none":
            return [(None, None)] * calls
        key = round_no + 1
        rng = np.random.default_rng(_derive(self.seed, 2, key))
        if spec.mutation == "widths":
            # Calls come in pairs on one index set: a width of 16-22 that
            # outgrows the fields (set-up and every lower write leave
            # them at 10-15), then a width of 10-15 that fits the fields
            # it has just widened.  So every round has the same mix.
            grow = rng.permutation(np.arange(16, 23))
            fit = rng.permutation(np.arange(10, 16))
            steps: List[Step] = []
            for i in range(calls):
                pair = i // 2
                if i % 2 == 0:
                    indices = rng.choice(spec.size, k, replace=False)
                    width = grow[pair % len(grow)]
                else:
                    width = fit[pair % len(fit)]
                steps.append(
                    (indices, doubles_of_width(k, int(width), _derive(self.seed, 3, key, i)))
                )
            return steps
        fresh = doubles_of_width(k * calls, WIDTH, _derive(self.seed, 3, key))
        return [
            (
                self.fixed if spec.mutation == "fixed"
                else rng.choice(spec.size, k, replace=False),
                fresh[i * k : (i + 1) * k],
            )
            for i in range(calls)
        ]

    def next_message(self, step: Step) -> Tuple[SOAPMessage, np.ndarray]:
        """Apply one call's mutation; returns the message and its values."""
        indices, fresh = step
        if indices is not None:
            self.values[indices] = fresh
        return self.message, self.values

    def between_rounds(self, channel, round_no: int) -> None:
        """Untimed work before a round.

        ``width_churn`` starts every round from a fresh template: field
        widths only ever grow, so otherwise every field saturates at the
        widest value within a few hundred calls and nothing expands.
        """
        if self.spec.mutation == "widths":
            channel.client.store.clear()
            channel.call(self.message)


class ColdStream(Stream):
    """``cold_structures``: a new array length, hence structure, per call.

    Lengths cycle through a seeded permutation; when it wraps the client
    drops its templates (untimed), so every call stays a first-time send
    and the store's high-water mark is the same in every run.
    """

    def __init__(self, spec: Workload, seed: int) -> None:
        super().__init__(spec, seed)
        assert COLD_LENGTHS % spec.calls == 0, "rounds must divide the length cycle"
        # The set-up send uses spec.size itself; the cycle starts above it.
        self.lengths = (
            spec.size + 1
            + np.random.default_rng(_derive(seed, 1)).permutation(COLD_LENGTHS)
        )

    def round_inputs(self, round_no: int, calls: Optional[int] = None) -> List[Step]:
        calls = self.spec.calls if calls is None else calls
        if round_no < 0:  # warm-up lengths lie below the cycled range
            lengths = [self.spec.size - 1 - i for i in range(calls)]
        else:
            at = round_no * calls
            lengths = [int(self.lengths[(at + i) % COLD_LENGTHS]) for i in range(calls)]
        return [
            (None, doubles_of_width(n, WIDTH, _derive(self.seed, 3, round_no + 1, i)))
            for i, n in enumerate(lengths)
        ]

    def next_message(self, step: Step) -> Tuple[SOAPMessage, np.ndarray]:
        values = step[1]
        return _message(self.spec.op, values), values

    def between_rounds(self, channel, round_no: int) -> None:
        if round_no > 0 and (round_no * self.spec.calls) % COLD_LENGTHS == 0:
            channel.client.store.clear()


def make_stream(spec: Workload, seed: int) -> Stream:
    cls = ColdStream if spec.mutation == "cold" else Stream
    return cls(spec, seed)


def reply_is_correct(spec: Workload, reply, sent: np.ndarray) -> bool:
    """The reply oracle: the sum for ``checksum``, the array for ``echo``."""
    got = reply.values.get("return")
    if spec.op == "echo":
        return np.array_equal(np.asarray(got), sent)
    return got == float(np.sum(sent))

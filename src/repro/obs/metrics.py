"""Counters, gauges and histograms for the differential send path.

A :class:`MetricsRegistry` is the aggregation point the runtime layer
shares — every pooled channel, pipelined worker and server session is
handed the *same* registry — but it stores no count of its own for
them.  A counting component keeps its counters on plain attributes and
registers itself (:meth:`MetricsRegistry.watch`); the registry reads
``component.metric_samples()`` when somebody asks (``GET /metrics``,
``metric.value()``, ``metrics_rows``).  When an owner discards a member
(an evicted session, a replaced pool channel) it calls
:meth:`MetricsRegistry.retire`, which folds the member's final counts
into the registry and drops the reference, so totals stay exact and
monotone while dead members are freed.  Gauges are bound to a reader
the same way (:meth:`Gauge.bind`).  Only histograms are pushed: a
latency distribution cannot be rebuilt from a component's attributes.

Model (deliberately a small subset of Prometheus):

* **Counter** — monotonically increasing, optionally labelled.
* **Gauge** — a live value, optionally labelled.
* **Histogram** — cumulative buckets + sum + count, optionally
  labelled; bucket bounds are fixed at creation.

``Counter.inc`` / ``Histogram.observe`` are thread-safe under the
registry's one lock; nothing inside ``repro`` calls the first
(``tests/test_one_counter_home.py``).
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Default histogram bounds, tuned for loopback SOAP call latencies
#: (seconds): 50us .. ~2.5s, roughly ×3 per step.
DEFAULT_LATENCY_BUCKETS = (
    0.00005,
    0.00015,
    0.0005,
    0.0015,
    0.005,
    0.015,
    0.05,
    0.15,
    0.5,
    1.5,
)

LabelValues = Tuple[str, ...]


def _label_key(
    metric_name: str, labelnames: Tuple[str, ...], labels: Dict[str, object]
) -> LabelValues:
    """Validate + order label kwargs into the storage key."""
    if len(labels) != len(labelnames):
        raise ValueError(
            f"{metric_name}: expected labels {labelnames}, got {tuple(labels)}"
        )
    try:
        return tuple(str(labels[name]) for name in labelnames)
    except KeyError as exc:
        raise ValueError(
            f"{metric_name}: missing label {exc.args[0]!r} (have {labelnames})"
        ) from None


#: One series' slice of :meth:`MetricsRegistry.read`.
View = Mapping[LabelValues, float]


class _Series:
    """Pushed values plus the registry's read-through view of this
    series, summed per label set."""

    __slots__ = ("name", "help", "labelnames", "_values", "_registry", "_lock")

    def __init__(
        self,
        name: str,
        help: str,  # noqa: A002 - mirrors prometheus_client
        labelnames: Tuple[str, ...],
        registry: "MetricsRegistry",
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._values: Dict[LabelValues, float] = {}
        self._registry = registry
        self._lock = registry._lock

    def _merged(self, view: Optional[View]) -> Dict[LabelValues, float]:
        if view is None:
            view = self._registry.read().get(self.name, {})
        with self._lock:
            merged = dict(self._values)
        for key, value in view.items():
            merged[key] = merged.get(key, 0.0) + value
        return merged

    def value(self, **labels: object) -> float:
        key = _label_key(self.name, self.labelnames, labels)
        return self._merged(None).get(key, 0.0)

    def samples(
        self, view: Optional[View] = None
    ) -> List[Tuple[Dict[str, str], float]]:
        """``[(labels_dict, value)]`` as of now.  Exporters pass *view*,
        this series' slice of one :meth:`MetricsRegistry.read`, so the
        components are read once per scrape, not once per series."""
        return [
            (dict(zip(self.labelnames, key)), value)
            for key, value in self._merged(view).items()
        ]


class Counter(_Series):
    """A monotonically increasing, optionally labelled counter.

    Its value is what registered components report at read time (see
    :meth:`MetricsRegistry.watch`) plus anything pushed with
    :meth:`inc`.
    """

    kind = "counter"

    __slots__ = ()

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError(f"{self.name}: counters only go up (got {amount})")
        key = _label_key(self.name, self.labelnames, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount


class Gauge(_Series):
    """A live, optionally labelled value (Prometheus gauge).

    Unlike :class:`Counter` it may move in either direction — live
    state sizes (session-state bytes, open connections) are the
    intended use.  :meth:`bind` attaches the reader that is called at
    read time (the latest binding wins); there is no ``set``.
    """

    kind = "gauge"

    __slots__ = ("_reader",)

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._reader: Callable[[], View] = dict

    def bind(self, read: Callable[[], View]) -> None:
        """Serve this gauge from *read* (``{label values: number}``)."""
        self._reader = read

    def read_bound(self) -> Dict[LabelValues, float]:
        return {tuple(map(str, k)): v for k, v in self._reader().items()}


class _HistogramState:
    __slots__ = ("bucket_counts", "total", "count")

    def __init__(self, n_buckets: int) -> None:
        self.bucket_counts = [0] * n_buckets
        self.total = 0.0
        self.count = 0


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"

    __slots__ = ("name", "help", "labelnames", "buckets", "_states", "_lock")

    def __init__(
        self,
        name: str,
        help: str,  # noqa: A002
        labelnames: Tuple[str, ...],
        buckets: Sequence[float],
        lock: threading.Lock,
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"{name}: histogram needs at least one bucket")
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self.buckets = bounds
        self._states: Dict[LabelValues, _HistogramState] = {}
        self._lock = lock

    def observe(self, value: float, **labels: object) -> None:
        key = _label_key(self.name, self.labelnames, labels)
        with self._lock:
            state = self._states.get(key)
            if state is None:
                state = self._states[key] = _HistogramState(len(self.buckets))
            # First bucket whose bound admits the value (non-cumulative
            # storage; cumulated at render time).
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    state.bucket_counts[i] += 1
                    break
            state.total += value
            state.count += 1

    def snapshot(
        self,
    ) -> List[Tuple[Dict[str, str], List[int], float, int]]:
        """``[(labels, cumulative_bucket_counts, sum, count)]``."""
        with self._lock:
            items = [
                (key, list(st.bucket_counts), st.total, st.count)
                for key, st in self._states.items()
            ]
        out = []
        for key, counts, total, count in items:
            cumulative: List[int] = []
            running = 0
            for c in counts:
                running += c
                cumulative.append(running)
            out.append((dict(zip(self.labelnames, key)), cumulative, total, count))
        return out

    def count_of(self, **labels: object) -> int:
        key = _label_key(self.name, self.labelnames, labels)
        with self._lock:
            state = self._states.get(key)
            return 0 if state is None else state.count


class MetricsRegistry:
    """Get-or-create metric registry with a stable render order."""

    def __init__(self) -> None:
        # Deferred: ``repro.core`` imports ``repro.obs`` at import time.
        from repro.core.stats import MemberTotals

        self._lock = threading.Lock()
        # Shared value lock — metric mutation and registry mutation are
        # both rare enough that one lock serves.
        self._metrics: "Dict[str, Counter | Gauge | Histogram]" = {}
        self._sources = MemberTotals(lambda source: source.metric_samples())

    # ------------------------------------------------------------------
    # read-through counter views
    # ------------------------------------------------------------------
    def watch(self, source: object) -> None:
        """Serve counters from ``source.metric_samples()`` from now on.

        The method returns ``{(series name, *label values): count}``
        for counters only; it is called at read time, from any thread,
        without a lock.  Idempotent per source.
        """
        self._sources.add(source)

    def retire(self, source: object) -> None:
        """*source* has stopped counting and is being discarded: keep
        its final counts, drop the reference to it."""
        self._sources.retire(source)

    def read(self) -> Dict[str, Dict[LabelValues, float]]:
        """Every view as of now: ``{series name: {label values: n}}``.

        One pass over the watched sources, then the bound gauges.
        Labelled counters that never counted are left out, as a pushed
        counter never incremented would be.
        """
        grouped: Dict[str, Dict[LabelValues, float]] = {}
        for (name, *labels), value in self._sources.totals().items():
            if value or not labels:
                grouped.setdefault(name, {})[tuple(map(str, labels))] = value
        for metric in self.metrics():
            if isinstance(metric, Gauge):
                grouped[metric.name] = metric.read_bound()
        return grouped

    # ------------------------------------------------------------------
    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(
            name, Counter, lambda: Counter(name, help, tuple(labelnames), self)
        )

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(
            name, Gauge, lambda: Gauge(name, help, tuple(labelnames), self)
        )

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            name,
            Histogram,
            lambda: Histogram(name, help, tuple(labelnames), buckets, self._lock),
        )

    def _get_or_create(self, name: str, cls, factory):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = factory()
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    # ------------------------------------------------------------------
    def get(self, name: str) -> "Optional[Counter | Gauge | Histogram]":
        with self._lock:
            return self._metrics.get(name)

    def metrics(self) -> "List[Counter | Gauge | Histogram]":
        """Registration-ordered snapshot of every metric."""
        with self._lock:
            return list(self._metrics.values())

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._metrics

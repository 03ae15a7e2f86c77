"""Exporters: Prometheus text format and the repo's bench-result JSON.

Two render targets for one :class:`~repro.obs.metrics.MetricsRegistry`:

* :func:`render_prometheus` — the Prometheus text exposition format
  (version 0.0.4), served by ``HTTPSoapServer`` under ``GET /metrics``
  so a live pool/server can be scraped;
* :func:`metrics_rows` / :func:`metrics_result` — flat scalar rows in
  the existing ``repro-bench-result/1`` document shape (see
  :mod:`repro.bench.resultjson`), so metric snapshots land in the same
  tooling as every bench.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = ["render_prometheus", "metrics_rows", "metrics_result", "parse_prometheus"]


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels_text(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label_value(v)}"' for k, v in labels.items()
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    # Counters are almost always integral; render them without the
    # noise of a trailing ``.0`` (Prometheus accepts both).
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format."""
    lines: List[str] = []
    views = registry.read()
    for metric in registry.metrics():
        if metric.help:
            lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, (Counter, Gauge)):
            samples = metric.samples(views.get(metric.name, {}))
            if not samples and not metric.labelnames:
                samples = [({}, 0.0)]
            for labels, value in samples:
                lines.append(
                    f"{metric.name}{_labels_text(labels)} {_format_value(value)}"
                )
        elif isinstance(metric, Histogram):
            for labels, cumulative, total, count in metric.snapshot():
                for bound, cum in zip(metric.buckets, cumulative):
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = repr(float(bound))
                    lines.append(
                        f"{metric.name}_bucket{_labels_text(bucket_labels)} {cum}"
                    )
                inf_labels = dict(labels)
                inf_labels["le"] = "+Inf"
                lines.append(
                    f"{metric.name}_bucket{_labels_text(inf_labels)} {count}"
                )
                lines.append(
                    f"{metric.name}_sum{_labels_text(labels)} "
                    f"{_format_value(total)}"
                )
                lines.append(f"{metric.name}_count{_labels_text(labels)} {count}")
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> Dict[str, float]:
    """Parse exposition text back into ``{"name{labels}": value}``.

    The inverse of :func:`render_prometheus` for tests and the
    reconciliation checks — *not* a general Prometheus parser (no
    escaped-quote label values).
    """
    out: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        out[key] = float(value)
    return out


# ----------------------------------------------------------------------
# bench-result JSON
# ----------------------------------------------------------------------
def metrics_rows(registry: MetricsRegistry) -> List[Dict[str, object]]:
    """Flatten the registry into scalar rows (one per sample).

    Row shape: ``{"metric", "type", "labels", "value"}`` plus
    ``{"sum", "count"}`` for histograms (bucket detail stays in the
    Prometheus rendering; the JSON export targets dataframes).
    ``labels`` is the canonical ``k=v,...`` text (empty for none).
    """
    rows: List[Dict[str, object]] = []
    views = registry.read()
    for metric in registry.metrics():
        if isinstance(metric, (Counter, Gauge)):
            for labels, value in metric.samples(views.get(metric.name, {})):
                rows.append(
                    {
                        "metric": metric.name,
                        "type": metric.kind,
                        "labels": ",".join(f"{k}={v}" for k, v in labels.items()),
                        "value": value,
                    }
                )
        elif isinstance(metric, Histogram):
            for labels, _cumulative, total, count in metric.snapshot():
                rows.append(
                    {
                        "metric": metric.name,
                        "type": metric.kind,
                        "labels": ",".join(f"{k}={v}" for k, v in labels.items()),
                        "value": total / count if count else 0.0,
                        "sum": total,
                        "count": count,
                    }
                )
    return rows


def metrics_result(
    registry: MetricsRegistry,
    bench: str = "metrics_snapshot",
    params: Optional[Mapping[str, object]] = None,
    notes: str = "",
) -> Dict[str, object]:
    """A ``repro-bench-result/1`` document holding a metrics snapshot."""
    from repro.bench.resultjson import make_metrics_result

    return make_metrics_result(
        metrics_rows(registry), bench=bench, params=params, notes=notes
    )

"""CPU-time cost accounting for an observability configuration.

Cost is a linear model: application cost is the simulated request-processing
busy time plus a small per-instrumentation-call charge, while collector and
backend costs scale with the number of materialized metric events and kept
spans. Absolute numbers are simulation currency, not real-world seconds;
only comparisons between configurations of the same experiment family are
meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .config import CostModelSpec

if TYPE_CHECKING:
    from .telemetry import TelemetryBatch


@dataclass(frozen=True)
class CostReport:
    """Per-component CPU seconds for one run (or averaged over runs)."""

    application: dict[str, float]
    collector: float
    metrics_backend: float
    trace_backend: float

    @property
    def application_total(self) -> float:
        return sum(self.application.values())

    @property
    def total(self) -> float:
        return self.application_total + self.collector + self.metrics_backend + self.trace_backend

    def as_dict(self) -> dict:
        return {
            "application": {k: round(v, 6) for k, v in sorted(self.application.items())},
            "application_total": round(self.application_total, 6),
            "collector": round(self.collector, 6),
            "metrics_backend": round(self.metrics_backend, 6),
            "trace_backend": round(self.trace_backend, 6),
            "total": round(self.total, 6),
        }


def account(batch: TelemetryBatch, model: CostModelSpec | None = None) -> CostReport:
    """Price one run's telemetry under the cost model."""
    model = model or CostModelSpec()
    events = batch.metric_event_count
    spans = batch.kept_span_count
    application = {}
    for service, busy_ms in sorted(batch.cpu_busy_ms.items()):
        calls = batch.instrumentation_calls.get(service, 0.0)
        application[service] = (busy_ms + calls * model.per_instrumentation_call_ms) / 1000.0
    return CostReport(
        application=application,
        collector=(
            events * model.per_metric_event_collector_ms + spans * model.per_span_collector_ms
        )
        / 1000.0,
        metrics_backend=events * model.per_metric_event_metrics_backend_ms / 1000.0,
        trace_backend=spans * model.per_span_trace_backend_ms / 1000.0,
    )


def mean_cost(reports: list[CostReport]) -> CostReport:
    """Componentwise mean across runs of one configuration."""
    if not reports:
        raise ValueError("no cost reports to average")
    services = sorted({svc for r in reports for svc in r.application})
    n = len(reports)
    return CostReport(
        application={
            svc: sum(r.application.get(svc, 0.0) for r in reports) / n for svc in services
        },
        collector=sum(r.collector for r in reports) / n,
        metrics_backend=sum(r.metrics_backend for r in reports) / n,
        trace_backend=sum(r.trace_backend for r in reports) / n,
    )


def overhead(baseline_total: float, alternative_total: float) -> float:
    """Relative cost increase versus the baseline, as a percentage rounded
    to two decimals."""
    if baseline_total <= 0:
        raise ValueError("baseline total cost must be positive")
    return round((alternative_total / baseline_total - 1.0) * 100.0, 2)

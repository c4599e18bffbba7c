"""Turn raw instrumentation events into sampled metrics, sampled traces and
labeled response series.

Metrics are materialized on a fixed grid: every event timestamp is the end
of its (aggregation) window and windows without data yield explicit zeros,
so downstream detectors always see rectangular data. Trace sampling is
head-based: one keep/drop draw per trace at root-span open. Observations
inside the fault window are labeled ``fault``; a short settling margin
after the window is excluded entirely so queue-drain transients cannot
contaminate the normal class.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .config import (
    MetricPointSpec,
    ResponseVariableSpec,
    SueSpec,
    SYSTEM_TARGET,
    TraceConfigSpec,
)
from .simulator import RawEventLog, Span

SETTLING_MARGIN_MS = 30_000


@dataclass(frozen=True)
class MetricEvent:
    name: str
    timestamp_ms: int
    value: float
    labels: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class FaultWindow:
    """The fault interval plus the labeling geometry around it."""

    start_ms: int
    end_ms: int
    settle_ms: int = SETTLING_MARGIN_MS

    def label(self, t: int) -> str:
        """'fault' inside the window, 'excluded' during settling, else 'normal'."""
        if self.start_ms <= t <= self.end_ms:
            return "fault"
        if self.end_ms < t <= self.end_ms + self.settle_ms:
            return "excluded"
        return "normal"


class SeriesRow(NamedTuple):
    timestamp_ms: int
    value: float
    label: str


@dataclass
class ResponseSeries:
    name: str
    kind: str
    rows: list[SeriesRow] = field(default_factory=list)


@dataclass
class TelemetryBatch:
    """Everything one run emitted, after instrumentation sampling."""

    metrics: dict[str, list[MetricEvent]]
    spans: list[Span]
    window: FaultWindow | None
    duration_ms: int
    cpu_busy_ms: dict[str, float]
    request_count: int
    trace_count: int
    kept_trace_count: int
    metric_event_count: int
    instrumentation_calls: dict[str, float]

    @property
    def kept_span_count(self) -> int:
        return len(self.spans)


def _window_count(duration_ms: int, interval_ms: int) -> int:
    return max(1, -(-duration_ms // interval_ms))


def _bin_index(t: int, interval_ms: int, nbins: int) -> int:
    return min(t // interval_ms, nbins - 1)


def _targets(point: MetricPointSpec, sue: SueSpec) -> list[str]:
    if point.target == SYSTEM_TARGET:
        return [s.id for s in sue.services]
    return [point.target]


def sample_metrics(
    log: RawEventLog, points: Iterable[MetricPointSpec], sue: SueSpec, duration_ms: int
) -> dict[str, list[MetricEvent]]:
    """Materialize each metric point on its sampling/aggregation grid."""
    out: dict[str, list[MetricEvent]] = {}
    for point in points:
        targets = _targets(point, sue)
        sampling = point.sampling_interval_ms
        aggregation = point.aggregation_interval_ms
        n_sample = _window_count(duration_ms, sampling)
        n_agg = _window_count(duration_ms, aggregation)
        per_agg = aggregation // sampling
        labels = (("service", point.target), ("kind", point.kind))

        if point.kind == "cpu_gauge":
            busy = {svc: np.zeros(n_sample) for svc in targets}
            for service, t, slice_ms in log.cpu_busy:
                if service in busy and t <= duration_ms:
                    busy[service][_bin_index(t, sampling, n_sample)] += slice_ms
            stacked = np.vstack([busy[svc] for svc in targets]) / float(sampling)
            if point.target == SYSTEM_TARGET and point.system_aggregation == "mean":
                fractions = stacked.mean(axis=0)
            else:
                fractions = stacked.sum(axis=0)
            events = []
            for k in range(n_agg):
                window = fractions[k * per_agg : (k + 1) * per_agg]
                value = float(window.mean()) if window.size else 0.0
                events.append(MetricEvent(point.metric_name, (k + 1) * aggregation, value, labels))
            out[point.metric_name] = events

        elif point.kind == "request_counter":
            counts = np.zeros(n_agg, dtype=np.int64)
            wanted = set(targets)
            for service, t in log.counter_increments:
                if service in wanted and t <= duration_ms:
                    counts[_bin_index(t, aggregation, n_agg)] += 1
            out[point.metric_name] = [
                MetricEvent(point.metric_name, (k + 1) * aggregation, float(counts[k]), labels)
                for k in range(n_agg)
            ]

        elif point.kind == "custom_gauge":
            # Last write wins within a window; windows without writes carry
            # the previous value forward (0.0 before the first write).
            last = np.full(n_agg, np.nan)
            wanted = set(targets)
            for metric, service, t, value in log.gauge_writes:
                if metric == point.metric_name and service in wanted and t <= duration_ms:
                    last[_bin_index(t, aggregation, n_agg)] = value
            events = []
            current = 0.0
            for k in range(n_agg):
                if not np.isnan(last[k]):
                    current = float(last[k])
                events.append(MetricEvent(point.metric_name, (k + 1) * aggregation, current, labels))
            out[point.metric_name] = events

        else:
            raise ValueError(f"unknown metric kind '{point.kind}'")
    return out


def sample_traces(
    log: RawEventLog, cfg: TraceConfigSpec, rng: np.random.Generator
) -> tuple[list[Span], int]:
    """Head-based trace sampling; returns (kept spans, total trace count).

    The keep/drop decision is drawn once per trace when its root span opens,
    in root-open order, so runs that share a seed keep nested subsets of
    traces as the rate grows.
    """
    keep_all = cfg.strategy == "always_on"
    kept: set[int] = set()
    total = 0
    spans = []
    # A root span opens before any span of its trace, so one pass suffices.
    for span in log.spans:
        if span.parent_id is None:
            total += 1
            if keep_all or rng.random() < cfg.rate:
                kept.add(span.trace_id)
        if span.trace_id in kept:
            if span.end_ms < 0:
                raise ValueError(f"span {span.span_id} was never closed")
            spans.append(span)
    spans.sort(key=lambda s: (s.start_ms, s.trace_id, s.span_id))
    return spans, total


def build_batch(
    log: RawEventLog,
    sue: SueSpec,
    window: FaultWindow | None,
    duration_ms: int,
    trace_rng: np.random.Generator,
    request_count: int,
) -> TelemetryBatch:
    """Assemble the run's telemetry under the given instrumentation config."""
    metrics = sample_metrics(log, sue.metric_points, sue, duration_ms)
    spans, trace_count = sample_traces(log, sue.trace_config, trace_rng)

    cpu_busy: dict[str, float] = {s.id: 0.0 for s in sue.services}
    for service, _, slice_ms in log.cpu_busy:
        cpu_busy[service] = cpu_busy.get(service, 0.0) + slice_ms

    calls: dict[str, float] = {s.id: 0.0 for s in sue.services}
    counter_targets = {
        p.target for p in sue.metric_points if p.kind == "request_counter"
    }
    count_all = SYSTEM_TARGET in counter_targets
    for service, t in log.counter_increments:
        if (count_all or service in counter_targets) and t <= duration_ms:
            calls[service] += 1.0
    for point in sue.metric_points:
        if point.kind == "cpu_gauge":
            reads = _window_count(duration_ms, point.sampling_interval_ms)
            for svc in _targets(point, sue):
                calls[svc] += float(reads)
        elif point.kind == "custom_gauge":
            for metric, service, t, _ in log.gauge_writes:
                if metric == point.metric_name and t <= duration_ms:
                    calls[service] = calls.get(service, 0.0) + 1.0
    for span in spans:
        calls[span.service] = calls.get(span.service, 0.0) + 2.0  # open + close

    return TelemetryBatch(
        metrics=metrics,
        spans=spans,
        window=window,
        duration_ms=duration_ms,
        cpu_busy_ms=cpu_busy,
        request_count=request_count,
        trace_count=trace_count,
        kept_trace_count=len({s.trace_id for s in spans}),
        metric_event_count=sum(len(v) for v in metrics.values()),
        instrumentation_calls=calls,
    )


def materialize_response(
    spec: ResponseVariableSpec, batch: TelemetryBatch, window: FaultWindow | None = None
) -> ResponseSeries:
    """Build the labeled observation series for one response variable.

    A metric missing from the batch signals a misconfigured instrumentation
    point; that is itself an experiment finding, so the series comes back
    empty with a warning instead of raising.
    """
    window = window if window is not None else batch.window
    series = ResponseSeries(name=spec.name, kind=spec.kind)

    def label(t: int) -> str:
        return window.label(t) if window is not None else "normal"

    if spec.kind == "metric":
        events = batch.metrics.get(spec.source)
        if events is None:
            warnings.warn(
                f"metric '{spec.source}' absent from batch; response '{spec.name}' is empty",
                stacklevel=2,
            )
            return series
        for event in events:
            tag = label(event.timestamp_ms)
            if tag != "excluded":
                series.rows.append(SeriesRow(event.timestamp_ms, event.value, tag))
    elif spec.kind == "trace_duration":
        entered = {s.trace_id for s in batch.spans if s.service == spec.source}
        roots = [s for s in batch.spans if s.parent_id is None and s.trace_id in entered]
        roots.sort(key=lambda s: (s.start_ms, s.trace_id))
        for root in roots:
            tag = label(root.start_ms)
            if tag != "excluded":
                series.rows.append(
                    SeriesRow(root.start_ms, float(root.end_ms - root.start_ms), tag)
                )
    else:
        raise ValueError(f"unknown response kind '{spec.kind}'")
    return series


def _format_value(value: float) -> str:
    return str(int(value)) if value == int(value) else repr(value)


def export_csv(
    batch: TelemetryBatch,
    responses: list[ResponseSeries],
    directory: str | Path,
    prefix: str,
) -> list[Path]:
    """Write one ``timestamp_ms,value,label`` file per response series plus a
    spans file; output is byte-stable for identical batches."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for series in responses:
        path = directory / f"{prefix}_{series.name}.csv"
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["timestamp_ms", "value", "label"])
            for row in series.rows:
                writer.writerow([row.timestamp_ms, _format_value(row.value), row.label])
        written.append(path)

    path = directory / f"{prefix}_spans.csv"
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ["trace_id", "span_id", "parent_id", "service", "start_ms", "end_ms", "outcome"]
        )
        for span in batch.spans:
            writer.writerow(
                [
                    span.trace_id,
                    span.span_id,
                    "" if span.parent_id is None else span.parent_id,
                    span.service,
                    span.start_ms,
                    span.end_ms,
                    span.outcome,
                ]
            )
    written.append(path)
    return written

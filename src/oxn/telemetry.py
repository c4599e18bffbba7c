"""Turn raw instrumentation events into sampled metrics, sampled traces and
labeled response series.

Metrics are materialized on a fixed grid: every timestamp is the end of its
(aggregation) window and windows without data yield explicit zeros, so
downstream detectors always see rectangular data. Trace sampling is
head-based: one keep/drop draw per trace at root-span open. A response
series is one record of columns: observations inside the fault window are
marked ``is_fault``, and those in a short settling margin after the window
are dropped so queue-drain transients cannot contaminate the normal class.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterable

import numpy as np

from .config import (
    Fault,
    MetricPointSpec,
    ResponseVariableSpec,
    SueSpec,
    SYSTEM_TARGET,
    TraceConfigSpec,
)
from .simulator import RawEventLog, Span

SETTLING_MARGIN_MS = 30_000
# Events are converted to arrays this many at a time, so that sampling adds
# about a megabyte to the memory of a run rather than a copy of its log.
_CHUNK = 1 << 14


@dataclass(frozen=True)
class ResponseSeries:
    """One response variable's observations in time order, settling rows
    already dropped."""

    name: str
    timestamps: np.ndarray  # int64 ms
    values: np.ndarray  # float64
    is_fault: np.ndarray  # bool


@dataclass
class TelemetryBatch:
    """Everything one run emitted, after instrumentation sampling."""

    metrics: dict[str, tuple[np.ndarray, np.ndarray]]  # name -> (timestamps, values)
    spans: list[Span]
    cpu_busy_ms: dict[str, float]
    trace_count: int
    kept_trace_count: int
    metric_event_count: int
    instrumentation_calls: dict[str, float]

    @property
    def kept_span_count(self) -> int:
        return len(self.spans)


def _window_count(duration_ms: int, interval_ms: int) -> int:
    return max(1, -(-duration_ms // interval_ms))


def _targets(point: MetricPointSpec, sue: SueSpec) -> list[str]:
    if point.target == SYSTEM_TARGET:
        return [s.id for s in sue.services]
    return [point.target]


def _column(events: list[tuple], k: int, dtype, lookup: dict | None = None) -> np.ndarray:
    """Field ``k`` of every event tuple as an array, mapped through ``lookup``."""
    values = map(itemgetter(k), events)
    return np.fromiter(values if lookup is None else map(lookup.__getitem__, values), dtype, len(events))


def _accumulate(events: list[tuple], sue: SueSpec, duration_ms: int, grids: dict, weighted: bool):
    """Add each ``(service, t[, ms])`` event up to ``duration_ms`` into every
    grid (interval_ms -> services x windows array; events past the last
    window count in it), in event order, weighing it by ``ms`` or by one."""
    index = {s.id: i for i, s in enumerate(sue.services)}
    for start in range(0, len(events), _CHUNK):
        chunk = events[start : start + _CHUNK]
        t = _column(chunk, 1, np.int64)
        keep = t <= duration_ms
        svc, t = _column(chunk, 0, np.intp, index)[keep], t[keep]
        weights = _column(chunk, 2, np.float64)[keep] if weighted else 1
        for interval, grid in grids.items():
            n = grid.shape[1]
            np.add.at(grid.reshape(-1), svc * n + np.minimum(t // interval, n - 1), weights)


def sample_metrics(
    log: RawEventLog, points: Iterable[MetricPointSpec], sue: SueSpec, duration_ms: int
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Materialize each metric point on its sampling/aggregation grid as
    ``(timestamps, values)`` arrays."""
    points = list(points)
    rows = {s.id: i for i, s in enumerate(sue.services)}

    def grid(interval_ms: int, dtype) -> np.ndarray:
        return np.zeros((len(rows), _window_count(duration_ms, interval_ms)), dtype)

    busy = {
        p.sampling_interval_ms: grid(p.sampling_interval_ms, np.float64)
        for p in points
        if p.kind == "cpu_gauge"
    }
    counts = {
        p.aggregation_interval_ms: grid(p.aggregation_interval_ms, np.int64)
        for p in points
        if p.kind == "request_counter"
    }
    _accumulate(log.cpu_busy, sue, duration_ms, busy, weighted=True)
    _accumulate(log.counter_increments, sue, duration_ms, counts, weighted=False)

    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for point in points:
        targets = _targets(point, sue)
        target_rows = [rows[svc] for svc in targets]
        sampling = point.sampling_interval_ms
        aggregation = point.aggregation_interval_ms
        n_agg = _window_count(duration_ms, aggregation)

        if point.kind == "cpu_gauge":
            stacked = busy[sampling][target_rows] / float(sampling)
            if point.target == SYSTEM_TARGET and point.system_aggregation == "mean":
                fractions = stacked.mean(axis=0)
            else:
                fractions = stacked.sum(axis=0)
            # Mean per aggregation window; only the last one can be partial.
            per_agg = aggregation // sampling
            full = len(fractions) // per_agg
            values = fractions[: full * per_agg].reshape(full, per_agg).mean(axis=1)
            if full < n_agg:
                values = np.append(values, fractions[full * per_agg :].mean())
        elif point.kind == "request_counter":
            values = counts[aggregation][target_rows].sum(axis=0).astype(np.float64)
        else:  # custom_gauge
            # Last write wins within a window; windows without writes carry
            # the previous value forward (0.0 before the first write).
            last = np.full(n_agg, np.nan)
            for metric, service, t, value in log.gauge_writes:
                if metric == point.metric_name and service in targets and t <= duration_ms:
                    last[min(t // aggregation, n_agg - 1)] = value
            written = np.maximum.accumulate(np.where(np.isnan(last), -1, np.arange(n_agg)))
            values = np.where(written < 0, 0.0, last[written])
        timestamps = np.arange(1, n_agg + 1, dtype=np.int64) * aggregation
        out[point.metric_name] = (timestamps, values)
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
    log: RawEventLog, sue: SueSpec, duration_ms: int, trace_rng: np.random.Generator
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
        cpu_busy_ms=cpu_busy,
        trace_count=trace_count,
        kept_trace_count=len({s.trace_id for s in spans}),
        metric_event_count=sum(len(t) for t, _ in metrics.values()),
        instrumentation_calls=calls,
    )


def materialize_response(
    spec: ResponseVariableSpec, batch: TelemetryBatch, fault: Fault
) -> ResponseSeries:
    """Build the labeled observation series for one response variable: a
    metric's grid, or the duration of each kept trace that entered the
    source service, stamped at its root's start."""
    if spec.kind == "metric":
        timestamps, values = batch.metrics[spec.source]
    else:  # trace_duration
        entered = {s.trace_id for s in batch.spans if s.service == spec.source}
        roots = [s for s in batch.spans if s.parent_id is None and s.trace_id in entered]
        roots.sort(key=lambda s: (s.start_ms, s.trace_id))
        timestamps = np.array([s.start_ms for s in roots], dtype=np.int64)
        values = np.array([s.end_ms - s.start_ms for s in roots], dtype=np.float64)
    settled = (timestamps <= fault.end_ms) | (timestamps > fault.end_ms + SETTLING_MARGIN_MS)
    timestamps, values = timestamps[settled], values[settled]
    return ResponseSeries(
        spec.name, timestamps, values, (fault.start_ms <= timestamps) & (timestamps <= fault.end_ms)
    )


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
            columns = (series.timestamps.tolist(), series.values.tolist(), series.is_fault.tolist())
            for t, value, is_fault in zip(*columns):
                writer.writerow([t, _format_value(value), "fault" if is_fault else "normal"])
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

"""Turn raw instrumentation events into sampled metrics, sampled traces and
labeled response series.

The raw event log is read in the bounded chunks the simulator wrote, each
column as a numpy view, so no temporary is as long as the log; every read
keeps the order of one pass over the whole log, and so the float bits.
Metrics are materialized on a fixed grid: every timestamp is the end of its
(aggregation) window and windows without data yield explicit zeros, so
downstream detectors always see rectangular data. Every metric kind reads
window grids that one pass over each table fills. A gauge reads each target
service once per sampling window: ``cpu_gauge`` its busy fraction,
``custom_gauge`` its spans in flight (started by the window's last
millisecond and not closed by it), the running sum of each window's span
opens less closes. Trace sampling is head-based: one keep/drop draw per
trace, in root-span open order. A response series is one record of columns:
observations inside the fault window are marked ``is_fault``, and those in a
short settling margin after the window are dropped so queue-drain transients
cannot contaminate the normal class.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .config import (
    Fault,
    MetricPointSpec,
    ResponseVariableSpec,
    SPAN_BITS,
    SueSpec,
    SYSTEM_TARGET,
    TraceConfigSpec,
)
from .simulator import RawEventLog, SpanTable

SETTLING_MARGIN_MS = 30_000


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
    spans: SpanTable  # kept spans in (start, span id) order
    services: tuple[str, ...]  # service id by index in the span table
    cpu_busy_ms: dict[str, float]
    trace_count: int
    metric_event_count: int
    instrumentation_calls: dict[str, float]

    @property
    def kept_trace_count(self) -> int:
        return int(np.count_nonzero(self.spans.parent < 0))  # a trace is kept whole or not at all

    @property
    def kept_span_count(self) -> int:
        return len(self.spans.span_id)


def _window_count(duration_ms: int, interval_ms: int) -> int:
    return max(1, -(-duration_ms // interval_ms))


def _rows(point: MetricPointSpec, sue: SueSpec) -> list[int]:
    """Indices in ``sue.services`` of the services a metric point reads."""
    return [i for i, s in enumerate(sue.services) if point.target in (SYSTEM_TARGET, s.id)]


def _accumulate(grids: dict, service: np.ndarray, t: np.ndarray, weights) -> None:
    """Add each event into every grid (interval_ms -> services x windows
    array; events before the first window count in it, past the last in
    it), in event order, so a float grid keeps the bits of an
    event-by-event sum. ``service`` may be a narrow unsigned column, so it
    is widened before it is scaled by the window count, which would wrap."""
    for interval, grid in grids.items():
        n = grid.shape[1]
        np.add.at(grid.reshape(-1), service.astype(np.int64) * n + np.clip(t // interval, 0, n - 1), weights)


def _trace_flags(*span_ids) -> np.ndarray:
    """All-false flags indexed by trace id, up to the largest in the ``span_ids`` columns."""
    return np.zeros((max(int(np.max(np.asarray(ids), initial=-1)) for ids in span_ids) >> SPAN_BITS) + 1, bool)


def sample_metrics(
    log: RawEventLog, points: Iterable[MetricPointSpec], sue: SueSpec, duration_ms: int
) -> tuple[dict[str, tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Materialize each metric point on its sampling/aggregation grid as
    ``(timestamps, values)`` arrays; also return each service's metric
    instrumentation calls: one per sampling window for each gauge that reads
    it, and one per span closed ok by ``duration_ms`` if a counter reads it,
    however many do."""
    points = list(points)

    def grids(kind: str, dtype, extra: int = 0) -> dict[int, np.ndarray]:
        """A zero grid, services by windows plus ``extra`` columns, per interval
        the points of ``kind`` accumulate at: a counter's aggregation, a gauge's sampling."""
        intervals = [p.aggregation_interval_ms if kind == "request_counter" else p.sampling_interval_ms
                     for p in points if p.kind == kind]
        return {i: np.zeros((len(sue.services), _window_count(duration_ms, i) + extra), dtype) for i in intervals}

    busy, counts = grids("cpu_gauge", np.float64), grids("request_counter", np.int64)
    # Span opens less closes per sampling window. When the duration is a whole
    # multiple of the interval its last instant is ``duration_ms - 1``: events
    # at ``duration_ms`` go to the extra column, which no reading sums.
    net = grids("custom_gauge", np.int64, 1)
    for columns in log.cpu:
        service, t, ms = map(np.asarray, columns)
        slices = t <= duration_ms
        _accumulate(busy, service[slices], t[slices], ms[slices])
    for chunk in log.spans:
        service, start, end, ok = map(np.asarray, (chunk.service, chunk.start_ms, chunk.end_ms, chunk.ok))
        counted = ok.astype(bool) & (end <= duration_ms)
        _accumulate(counts, service[counted], end[counted], 1)
        opened, closed = start <= duration_ms, (0 <= end) & (end <= duration_ms)
        _accumulate(net, service[opened], start[opened], 1)
        _accumulate(net, service[closed], end[closed], -1)

    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    reads, increments = np.zeros((2, len(sue.services)), np.int64)
    for point in points:
        rows = _rows(point, sue)
        sampling = point.sampling_interval_ms
        aggregation = point.aggregation_interval_ms
        n_agg = _window_count(duration_ms, aggregation)

        if point.kind == "request_counter":
            values = counts[aggregation][rows].sum(axis=0).astype(np.float64)
            increments[rows] = counts[aggregation][rows].sum(axis=1)  # set, not added: each counter's grid holds all
        else:  # a gauge: one reading per target service and sampling window
            reads[rows] += _window_count(duration_ms, sampling)
            readings = (busy[sampling][rows] / float(sampling) if point.kind == "cpu_gauge"
                        else net[sampling][rows, :-1].cumsum(axis=1).astype(np.float64))
            readings = readings.mean(axis=0) if point.system_aggregation == "mean" else readings.sum(axis=0)
            # Mean per aggregation window; only the last one can be partial.
            per_agg = aggregation // sampling
            full = len(readings) // per_agg
            values = readings[: full * per_agg].reshape(full, per_agg).mean(axis=1)
            if full < n_agg:
                values = np.append(values, readings[full * per_agg :].mean())
        timestamps = np.arange(1, n_agg + 1, dtype=np.int64) * aggregation
        out[point.metric_name] = (timestamps, values)
    return out, reads + increments


def sample_traces(
    log: RawEventLog, cfg: TraceConfigSpec, rng: np.random.Generator
) -> tuple[SpanTable, int]:
    """Head-based trace sampling; returns (kept spans in (start, span id)
    order, total trace count).

    A probabilistic strategy draws one keep/drop decision per trace, in
    root-open order, so runs that share a seed keep nested subsets of traces
    as the rate grows.
    """
    keep = _trace_flags(*(chunk.span_id for chunk in log.spans))
    kept, trace_count = [], 0
    # A root's row comes before the rest of its trace: in its chunk or an earlier one.
    for chunk in log.spans:
        trace = np.asarray(chunk.span_id) >> SPAN_BITS
        roots = trace[np.asarray(chunk.parent) < 0]
        trace_count += len(roots)
        keep[roots if cfg.strategy == "always_on" else roots[rng.random(len(roots)) < cfg.rate]] = True
        kept.append(chunk.take(keep[trace]))
    kept = SpanTable.concat(kept)
    open_rows = kept.end_ms < 0
    if open_rows.any():
        raise ValueError(f"span {kept.span_id[open_rows.argmax()]} was never closed")
    return kept.take(np.lexsort((kept.span_id, kept.start_ms))), trace_count


def build_batch(
    log: RawEventLog, sue: SueSpec, duration_ms: int, trace_rng: np.random.Generator
) -> TelemetryBatch:
    """Assemble the run's telemetry under the given instrumentation config;
    a service's instrumentation calls are its metric calls and two per kept
    span, for its open and its close."""
    metrics, metric_calls = sample_metrics(log, sue.metric_points, sue, duration_ms)
    spans, trace_count = sample_traces(log, sue.trace_config, trace_rng)
    services = tuple(s.id for s in sue.services)
    n = len(services)

    # np.add.at adds the slices in log order, as a loop would.
    busy = np.zeros(n)
    for service, _, ms in log.cpu:
        np.add.at(busy, np.asarray(service), np.asarray(ms))

    calls = metric_calls + 2 * np.bincount(spans.service, minlength=n)

    return TelemetryBatch(
        metrics=metrics,
        spans=spans,
        services=services,
        cpu_busy_ms=dict(zip(services, busy.tolist())),
        trace_count=trace_count,
        metric_event_count=sum(len(t) for t, _ in metrics.values()),
        instrumentation_calls=dict(zip(services, calls.astype(np.float64).tolist())),
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
        spans = batch.spans
        trace = spans.span_id >> SPAN_BITS
        entered = _trace_flags(spans.span_id)
        entered[trace[spans.service == batch.services.index(spec.source)]] = True
        # Kept spans are in (start, span id) order, and so are their roots.
        roots = spans.take((spans.parent < 0) & entered[trace])
        timestamps = roots.start_ms
        values = (roots.end_ms - roots.start_ms).astype(np.float64)
    settled = (timestamps <= fault.end_ms) | (timestamps > fault.end_ms + SETTLING_MARGIN_MS)
    timestamps, values = timestamps[settled], values[settled]
    return ResponseSeries(
        spec.name, timestamps, values, (fault.start_ms <= timestamps) & (timestamps <= fault.end_ms)
    )


def _format_value(value: float) -> str:
    return str(int(value)) if value == int(value) else repr(value)


def _write_csv(path: Path, header: list[str], rows: Iterable[list]) -> Path:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def export_csv(batch: TelemetryBatch, responses: list[ResponseSeries], directory: str | Path) -> list[Path]:
    """Write one run's files into ``directory``: ``<response>.csv`` per
    response series, with the columns ``timestamp_ms,value,label``, and
    ``spans.csv``; output is byte-stable for identical batches."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for series in responses:
        columns = (series.timestamps.tolist(), series.values.tolist(), series.is_fault.tolist())
        rows = ([t, _format_value(v), "fault" if f else "normal"] for t, v, f in zip(*columns))
        path = directory / f"{series.name}.csv"
        written.append(_write_csv(path, ["timestamp_ms", "value", "label"], rows))

    spans = zip(*(column.tolist() for column in vars(batch.spans).values()))
    rows = (
        [span_id >> SPAN_BITS, span_id, "" if parent < 0 else parent, batch.services[service],
         start, end, "ok" if ok else "error"]
        for span_id, parent, service, start, end, ok in spans
    )
    header = ["trace_id", "span_id", "parent_id", "service", "start_ms", "end_ms", "outcome"]
    written.append(_write_csv(directory / "spans.csv", header, rows))
    return written

from __future__ import annotations

import numpy as np
import pytest

from oxn.config import (
    MetricPointSpec,
    ResponseVariableSpec,
    SueSpec,
    TraceConfigSpec,
)
from oxn.simulator import RawEventLog, Span, rng_stream
from oxn.telemetry import (
    FaultWindow,
    ResponseSeries,
    SeriesRow,
    build_batch,
    export_csv,
    materialize_response,
    sample_metrics,
    sample_traces,
)

from conftest import tiny_service


def one_service_sue(points=(), trace=TraceConfigSpec()) -> SueSpec:
    return SueSpec(
        services=(tiny_service("api"),),
        edges=(),
        metric_points=tuple(points),
        trace_config=trace,
    )


def synthetic_traces(n: int, service="api", duration=50) -> RawEventLog:
    log = RawEventLog()
    for i in range(n):
        start = i * 100
        log.spans.append(Span(i, i, None, service, start, start + duration, "ok"))
    return log


class TestSampleMetrics:
    def test_cpu_busy_fraction(self):
        log = RawEventLog()
        for i in range(100):
            log.cpu_busy.append(("api", i * 40, 10.0))  # 100 x 10 ms within 5 s
        point = MetricPointSpec("cpu", "cpu_gauge", "api", 5000, 5000)
        events = sample_metrics(log, [point], one_service_sue(), 5000)["cpu"]
        assert len(events) == 1
        assert events[0].value == pytest.approx(1000 / 5000)
        assert events[0].timestamp_ms == 5000

    def test_counter_emits_one_event_per_window(self):
        log = RawEventLog()
        for t in range(0, 600_000, 1000):
            log.counter_increments.append(("api", t))
        point = MetricPointSpec("rpm", "request_counter", "api", 60_000, 60_000)
        events = sample_metrics(log, [point], one_service_sue(), 600_000)["rpm"]
        assert len(events) == 10
        assert all(e.value == 60 for e in events)
        assert [e.timestamp_ms for e in events] == [60_000 * (k + 1) for k in range(10)]

    def test_empty_windows_are_explicit_zeros(self):
        point_gauge = MetricPointSpec("cpu", "cpu_gauge", "api", 5000, 5000)
        point_counter = MetricPointSpec("rpm", "request_counter", "api", 10_000, 10_000)
        metrics = sample_metrics(RawEventLog(), [point_gauge, point_counter], one_service_sue(), 30_000)
        assert [e.value for e in metrics["cpu"]] == [0.0] * 6
        assert [e.value for e in metrics["rpm"]] == [0.0] * 3

    def test_custom_gauge_last_write_wins_and_carries_forward(self):
        log = RawEventLog()
        log.gauge_writes.append(("depth", "api", 1000, 3.0))
        log.gauge_writes.append(("depth", "api", 4000, 7.0))  # same window: wins
        log.gauge_writes.append(("depth", "api", 11_000, 2.0))
        point = MetricPointSpec("depth", "custom_gauge", "api", 5000, 5000)
        events = sample_metrics(log, [point], one_service_sue(), 25_000)["depth"]
        # first window [0,5s) -> last write 7.0; second has no write -> carries 7.0
        assert [e.value for e in events] == [7.0, 7.0, 2.0, 2.0, 2.0]

    def test_grid_alignment(self):
        log = RawEventLog()
        rng = np.random.default_rng(0)
        for t in sorted(rng.integers(0, 120_000, 500)):
            log.cpu_busy.append(("api", int(t), 1.0))
        for sampling, aggregation in ((5000, 5000), (5000, 15_000), (2000, 10_000)):
            point = MetricPointSpec("cpu", "cpu_gauge", "api", sampling, aggregation)
            events = sample_metrics(log, [point], one_service_sue(), 120_000)["cpu"]
            assert all(e.timestamp_ms % sampling == 0 for e in events)
            assert all(e.timestamp_ms % aggregation == 0 for e in events)

    def test_aggregation_averages_sampling_windows(self):
        log = RawEventLog()
        log.cpu_busy.append(("api", 1000, 500.0))  # only the first 5 s window is busy
        point = MetricPointSpec("cpu", "cpu_gauge", "api", 5000, 15_000)
        events = sample_metrics(log, [point], one_service_sue(), 15_000)["cpu"]
        assert len(events) == 1
        assert events[0].value == pytest.approx((0.1 + 0 + 0) / 3)

    def test_system_target_sums_services(self):
        sue = SueSpec(
            services=(tiny_service("a"), tiny_service("b")),
            edges=(),
            metric_points=(),
            trace_config=TraceConfigSpec(),
        )
        log = RawEventLog()
        log.cpu_busy.append(("a", 100, 250.0))
        log.cpu_busy.append(("b", 200, 250.0))
        point = MetricPointSpec("sys", "cpu_gauge", "system", 5000, 5000)
        events = sample_metrics(log, [point], sue, 5000)["sys"]
        assert events[0].value == pytest.approx(0.1)
        mean_point = MetricPointSpec("sys", "cpu_gauge", "system", 5000, 5000, system_aggregation="mean")
        events = sample_metrics(log, [mean_point], sue, 5000)["sys"]
        assert events[0].value == pytest.approx(0.05)


class TestSampleTraces:
    def test_rate_zero_keeps_nothing(self):
        spans, total = sample_traces(synthetic_traces(500), TraceConfigSpec("probabilistic", 0.0), rng_stream(1, "t"))
        assert spans == [] and total == 500

    def test_rate_one_keeps_everything(self):
        log = synthetic_traces(500)
        spans, _ = sample_traces(log, TraceConfigSpec("probabilistic", 1.0), rng_stream(1, "t"))
        assert len(spans) == len(log.spans)

    def test_always_on_ignores_rate(self):
        spans, _ = sample_traces(synthetic_traces(100), TraceConfigSpec("always_on", 0.0), rng_stream(1, "t"))
        assert len(spans) == 100

    def test_binomial_concentration_and_reproducibility(self):
        log = synthetic_traces(10_000)
        cfg = TraceConfigSpec("probabilistic", 0.05)
        spans_a, _ = sample_traces(log, cfg, rng_stream(3, "trace"))
        spans_b, _ = sample_traces(log, cfg, rng_stream(3, "trace"))
        assert spans_a == spans_b
        kept = len({s.trace_id for s in spans_a})
        sigma = (10_000 * 0.05 * 0.95) ** 0.5
        assert abs(kept - 500) <= 3 * sigma  # [400, 600] band

    def test_rate_growth_keeps_supersets(self):
        log = synthetic_traces(2000)
        low, _ = sample_traces(log, TraceConfigSpec("probabilistic", 0.05), rng_stream(5, "t"))
        high, _ = sample_traces(log, TraceConfigSpec("probabilistic", 0.10), rng_stream(5, "t"))
        assert {s.trace_id for s in low} <= {s.trace_id for s in high}

    def test_kept_traces_retain_all_spans(self):
        log = RawEventLog()
        log.spans.append(Span(1, 10, None, "a", 0, 30, "ok"))
        log.spans.append(Span(1, 11, 10, "b", 5, 20, "ok"))
        spans, total = sample_traces(log, TraceConfigSpec("always_on", 1.0), rng_stream(1, "t"))
        assert total == 1
        assert len(spans) == 2
        root = [s for s in spans if s.parent_id is None][0]
        child = [s for s in spans if s.parent_id is not None][0]
        assert child.start_ms >= root.start_ms and child.end_ms <= root.end_ms


class TestLabeling:
    def make_series(self, window):
        rows = []
        batch_metrics = {
            "m": [
                # one event per 5 s over 600 s
            ]
        }
        from oxn.telemetry import MetricEvent

        events = [MetricEvent("m", t, 1.0) for t in range(5000, 605_000, 5000)]
        from oxn.telemetry import TelemetryBatch

        batch = TelemetryBatch(
            metrics={"m": events},
            spans=[],
            window=window,
            duration_ms=600_000,
            cpu_busy_ms={},
            request_count=0,
            trace_count=0,
            kept_trace_count=0,
            metric_event_count=len(events),
            instrumentation_calls={},
        )
        return materialize_response(ResponseVariableSpec("m", "metric", "m"), batch)

    def test_window_labels_inclusive(self):
        series = self.make_series(FaultWindow(240_000, 360_000))
        fault = [r.timestamp_ms for r in series.rows if r.label == "fault"]
        assert min(fault) == 240_000
        assert max(fault) == 360_000
        assert len(fault) == (360_000 - 240_000) // 5000 + 1

    def test_settling_margin_excluded(self):
        series = self.make_series(FaultWindow(240_000, 360_000, settle_ms=30_000))
        stamps = [r.timestamp_ms for r in series.rows]
        for t in range(365_000, 395_000, 5000):
            assert t not in stamps
        assert 395_000 in stamps  # first timestamp after the margin

    def test_label_partition(self):
        window = FaultWindow(240_000, 360_000)
        series = self.make_series(window)
        labels = {r.label for r in series.rows}
        assert labels == {"normal", "fault"}
        fault_count = sum(1 for r in series.rows if r.label == "fault")
        assert abs(fault_count * 5000 - (360_000 - 240_000)) <= 5000

    def test_no_window_means_all_normal(self):
        series = self.make_series(None)
        assert all(r.label == "normal" for r in series.rows)


class TestMaterializeResponse:
    def test_absent_metric_warns_and_returns_empty(self):
        from oxn.telemetry import TelemetryBatch

        batch = TelemetryBatch(
            metrics={},
            spans=[],
            window=None,
            duration_ms=1000,
            cpu_busy_ms={},
            request_count=0,
            trace_count=0,
            kept_trace_count=0,
            metric_event_count=0,
            instrumentation_calls={},
        )
        with pytest.warns(UserWarning, match="absent from batch"):
            series = materialize_response(ResponseVariableSpec("x", "metric", "gone"), batch)
        assert series.rows == []

    def test_trace_duration_filters_by_entered_service(self):
        from oxn.telemetry import TelemetryBatch

        spans = [
            Span(1, 10, None, "frontend", 100, 400, "ok"),
            Span(1, 11, 10, "backend", 200, 300, "ok"),
            Span(2, 20, None, "frontend", 500, 600, "ok"),  # never reaches backend
        ]
        batch = TelemetryBatch(
            metrics={},
            spans=spans,
            window=None,
            duration_ms=1000,
            cpu_busy_ms={},
            request_count=2,
            trace_count=2,
            kept_trace_count=2,
            metric_event_count=0,
            instrumentation_calls={},
        )
        series = materialize_response(
            ResponseVariableSpec("latency", "trace_duration", "backend"), batch
        )
        assert series.rows == [SeriesRow(100, 300.0, "normal")]


class TestExportCsv:
    def test_headers_only_for_empty_series(self, tmp_path):
        from oxn.telemetry import TelemetryBatch

        batch = TelemetryBatch(
            metrics={},
            spans=[],
            window=None,
            duration_ms=0,
            cpu_busy_ms={},
            request_count=0,
            trace_count=0,
            kept_trace_count=0,
            metric_event_count=0,
            instrumentation_calls={},
        )
        series = ResponseSeries(name="empty", kind="metric")
        paths = export_csv(batch, [series], tmp_path, "exp_r0")
        response_csv = tmp_path / "exp_r0_empty.csv"
        assert response_csv in paths
        assert response_csv.read_text() == "timestamp_ms,value,label\n"
        spans_csv = tmp_path / "exp_r0_spans.csv"
        assert spans_csv.read_text() == "trace_id,span_id,parent_id,service,start_ms,end_ms,outcome\n"

    def test_reexport_is_byte_identical(self, tmp_path):
        sue = one_service_sue(
            points=[MetricPointSpec("cpu", "cpu_gauge", "api", 5000, 5000)],
            trace=TraceConfigSpec("probabilistic", 0.5),
        )
        log = synthetic_traces(200)
        for i in range(100):
            log.cpu_busy.append(("api", i * 100, 3.5))
        log.cpu_busy.sort(key=lambda e: e[1])
        outputs = []
        for attempt in range(2):
            batch = build_batch(log, sue, FaultWindow(4000, 9000), 20_000, rng_stream(2, "ts"), 200)
            series = materialize_response(ResponseVariableSpec("cpu", "metric", "cpu"), batch)
            directory = tmp_path / str(attempt)
            export_csv(batch, [series], directory, "exp_r0")
            outputs.append(
                {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
            )
        assert outputs[0] == outputs[1]

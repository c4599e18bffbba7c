from __future__ import annotations

import bisect
import dataclasses
import functools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oxn import simulator, telemetry

from oxn.config import (
    MetricPointSpec,
    Pause,
    ResponseVariableSpec,
    SPAN_BITS,
    SueSpec,
    TraceConfigSpec,
)
from oxn.simulator import RawEventLog, SpanTable, drive, rng_stream
from oxn.telemetry import (
    ResponseSeries,
    TelemetryBatch,
    build_batch,
    export_csv,
    materialize_response,
    sample_metrics,
    sample_traces,
)

from conftest import event_log, new_sim, small_spec, span_id, span_rows, surge_sim, tiny_service, whole


def one_service_sue(points=(), trace=TraceConfigSpec()) -> SueSpec:
    return SueSpec(
        services=(tiny_service("api"),),
        edges=(),
        metric_points=tuple(points),
        trace_config=trace,
    )


def fault_window(start_ms: int, end_ms: int) -> Pause:
    return Pause(name="p", target="api", start_ms=start_ms, end_ms=end_ms)


def batch_of(metrics=None, spans=(), services=("api",)) -> TelemetryBatch:
    return TelemetryBatch(
        metrics=metrics or {},
        spans=whole(event_log(spans=spans)).spans,
        services=services,
        cpu_busy_ms={},
        trace_count=len(spans),
        metric_event_count=sum(len(t) for t, _ in (metrics or {}).values()),
        instrumentation_calls={},
    )


def synthetic_traces(n: int, duration=50) -> RawEventLog:
    """``n`` single-span traces of service 0, one every 100 ms."""
    return event_log(spans=[(span_id(i), -1, 0, i * 100, i * 100 + duration, 1) for i in range(n)])


class TestSampleMetrics:
    def test_cpu_busy_fraction(self):
        log = event_log(cpu=[(0, i * 40, 10.0) for i in range(100)])  # 100 x 10 ms within 5 s
        point = MetricPointSpec("cpu", "cpu_gauge", "api", 5000, 5000)
        timestamps, values = sample_metrics(log, [point], one_service_sue(), 5000)[0]["cpu"]
        assert len(values) == 1
        assert values[0] == pytest.approx(1000 / 5000)
        assert timestamps.tolist() == [5000]

    def test_counter_emits_one_event_per_window(self):
        # one ok span closing every second, and one error close that is not counted
        log = event_log(
            spans=[(span_id(i), -1, 0, i * 1000, i * 1000, 1) for i in range(600)] + [(span_id(600), -1, 0, 0, 0, 0)]
        )
        point = MetricPointSpec("rpm", "request_counter", "api", 60_000, 60_000)
        metrics, calls = sample_metrics(log, [point], one_service_sue(), 600_000)
        timestamps, values = metrics["rpm"]
        assert values.tolist() == [60.0] * 10
        assert timestamps.tolist() == [60_000 * (k + 1) for k in range(10)]
        assert calls.tolist() == [600]  # one increment per ok close

    def test_calls_count_ok_closes_only_where_a_counter_reads(self):
        """Each ok close of ``a`` is one increment, though two counters read
        it; ``b``'s ok closes are not counted, and its gauge reads it once
        per window, the last partial."""
        sue = SueSpec(services=(tiny_service("a"), tiny_service("b")))
        points = [
            MetricPointSpec("rpm_a", "request_counter", "a", 1000, 1000),
            MetricPointSpec("rps", "request_counter", "a", 500, 500),
            MetricPointSpec("cpu_b", "cpu_gauge", "b", 400, 400),
        ]
        log = event_log(spans=[(span_id(i), -1, i % 2, i * 100, i * 100 + 50, 1) for i in range(20)])
        assert sample_metrics(log, points, sue, 1900)[1].tolist() == [10, 5]

    def test_empty_windows_are_explicit_zeros(self):
        point_gauge = MetricPointSpec("cpu", "cpu_gauge", "api", 5000, 5000)
        point_counter = MetricPointSpec("rpm", "request_counter", "api", 10_000, 10_000)
        metrics, _ = sample_metrics(event_log(), [point_gauge, point_counter], one_service_sue(), 30_000)
        assert metrics["cpu"][1].tolist() == [0.0] * 6
        assert metrics["rpm"][1].tolist() == [0.0] * 3

    def test_custom_gauge_counts_spans_in_flight(self):
        # readings at 4,999, 9,999 and the run's end, 13,000 ms
        log = event_log(spans=[
            (span_id(0), -1, 0, 1000, 4999, 1),  # closes at an instant: not counted there
            (span_id(1), -1, 0, 4999, 6000, 1),  # opens at an instant: counted there
            (span_id(2), -1, 0, 2000, -1, 0),  # never closes: counted to the end
            (span_id(3), -1, 0, 9999, 9999, 1),  # opens and closes at an instant: not counted
            (span_id(4), -1, 0, 500, 10_000, 1),
            (span_id(5), -1, 0, 7000, 12_000, 1),
            (span_id(6), -1, 0, 8000, 9000, 1),
            (span_id(7), -1, 0, 9000, -1, 0),
            (span_id(8), -1, 0, 13_000, 13_500, 1),  # opens at the run's end
            (span_id(9), -1, 0, 13_001, 13_002, 1),  # opens after it
        ])
        point = MetricPointSpec("depth", "custom_gauge", "api", 5000, 5000)
        timestamps, values = sample_metrics(log, [point], one_service_sue(), 13_000)[0]["depth"]
        assert timestamps.tolist() == [5000, 10_000, 15_000]
        assert values.tolist() == [3.0, 4.0, 3.0]

    def test_grid_alignment(self):
        rng = np.random.default_rng(0)
        log = event_log(cpu=[(0, int(t), 1.0) for t in sorted(rng.integers(0, 120_000, 500))])
        for sampling, aggregation in ((5000, 5000), (5000, 15_000), (2000, 10_000)):
            point = MetricPointSpec("cpu", "cpu_gauge", "api", sampling, aggregation)
            timestamps, _ = sample_metrics(log, [point], one_service_sue(), 120_000)[0]["cpu"]
            assert all(timestamps % sampling == 0)
            assert all(timestamps % aggregation == 0)

    def test_aggregation_averages_sampling_windows(self):
        log = event_log(cpu=[(0, 1000, 500.0)])  # only the first 5 s window is busy
        point = MetricPointSpec("cpu", "cpu_gauge", "api", 5000, 15_000)
        _, values = sample_metrics(log, [point], one_service_sue(), 15_000)[0]["cpu"]
        assert len(values) == 1
        assert values[0] == pytest.approx((0.1 + 0 + 0) / 3)

    def test_system_target_sums_services(self):
        sue = SueSpec(
            services=(tiny_service("a"), tiny_service("b")),
            edges=(),
            metric_points=(),
            trace_config=TraceConfigSpec(),
        )
        log = event_log(cpu=[(0, 100, 250.0), (1, 200, 250.0)])
        point = MetricPointSpec("sys", "cpu_gauge", "system", 5000, 5000)
        _, values = sample_metrics(log, [point], sue, 5000)[0]["sys"]
        assert values[0] == pytest.approx(0.1)
        mean_point = MetricPointSpec("sys", "cpu_gauge", "system", 5000, 5000, system_aggregation="mean")
        _, values = sample_metrics(log, [mean_point], sue, 5000)[0]["sys"]
        assert values[0] == pytest.approx(0.05)


def reference_metrics(log, point, sue, duration_ms):
    """``sample_metrics`` for one point, one event at a time."""
    ids = [s.id for s in sue.services]
    targets = ids if point.target == "system" else [point.target]
    sampling, aggregation = point.sampling_interval_ms, point.aggregation_interval_ms
    n_sample, n_agg = -(-duration_ms // sampling), -(-duration_ms // aggregation)
    tables = whole(log)
    if point.kind == "request_counter":
        counts = [0.0] * n_agg
        for span in span_rows(tables.spans, sue):
            if span.ok and span.service in targets and span.end_ms <= duration_ms:
                counts[min(span.end_ms // aggregation, n_agg - 1)] += 1.0
        return counts
    readings = {svc: np.zeros(n_sample) for svc in targets}
    if point.kind == "cpu_gauge":
        for service, t, slice_ms in zip(*(column.tolist() for column in tables[1:])):
            service = ids[service]
            if service in readings and t <= duration_ms:
                readings[service][min(t // sampling, n_sample - 1)] += slice_ms
        stacked = np.vstack([readings[svc] for svc in targets]) / float(sampling)
    else:  # custom_gauge
        instants = [min((k + 1) * sampling - 1, duration_ms) for k in range(n_sample)]
        for span in span_rows(tables.spans, sue):
            if span.service in readings:
                # from the first instant at or after the span's start
                for k in range(bisect.bisect_left(instants, span.start_ms), n_sample):
                    if 0 <= span.end_ms <= instants[k]:
                        break  # closed by this instant and every later one
                    readings[span.service][k] += 1
        stacked = np.vstack([readings[svc] for svc in targets])
    combined = stacked.mean(axis=0) if point.system_aggregation == "mean" else stacked.sum(axis=0)
    per_agg = aggregation // sampling
    return [float(combined[k * per_agg : (k + 1) * per_agg].mean()) for k in range(n_agg)]


class TestSampleMetricsReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("duration", [97_000, 98_000])
    def test_matches_event_loop_reference(self, seed, duration):
        """Column accumulation and the in-flight count give the bits of an
        event-by-event loop, over partial last windows, error and open
        spans, and events past the run's end. At 98,000 ms, a whole multiple
        of the custom gauges' 7,000 and 2,000 ms, the last instant is
        97,999 ms, so spans opening or closing at exactly the run's end
        (added for every service at both durations) are outside it."""
        sue = SueSpec(services=(tiny_service("a"), tiny_service("b"), tiny_service("c")))
        rng = np.random.default_rng(seed)
        cpu, spans = [], []
        for t in np.sort(rng.integers(0, duration + 5000, 40_000)).tolist():
            service = int(rng.integers(3))
            cpu.append((service, t, float(rng.lognormal(1.0, 1.0))))
            end = t if rng.random() < 0.95 else -1  # a few spans stay open
            ok = int(end >= 0 and rng.random() < 0.9)
            spans.append((span_id(len(spans)), -1, service, t - 50, end, ok))
        for service in range(3):
            for start, end, ok in ((duration - 50, duration, 1), (duration - 50, duration, 0),
                                   (duration, duration, 1), (duration, duration + 50, 1)):
                spans.append((span_id(len(spans)), -1, service, start, end, ok))
        log = event_log(spans=spans, cpu=cpu)
        points = [
            MetricPointSpec("sys", "cpu_gauge", "system", 1000, 10_000),
            MetricPointSpec("sys_mean", "cpu_gauge", "system", 3000, 9000, system_aggregation="mean"),
            MetricPointSpec("cpu_b", "cpu_gauge", "b", 5000, 5000),
            MetricPointSpec("rps", "request_counter", "system", 1000, 1000),
            MetricPointSpec("rpm_c", "request_counter", "c", 7000, 7000),
            MetricPointSpec("depth_a", "custom_gauge", "a", 7000, 7000),
            MetricPointSpec("depth", "custom_gauge", "system", 2000, 6000, system_aggregation="mean"),
        ]
        metrics, _ = sample_metrics(log, points, sue, duration)
        for point in points:
            _, values = metrics[point.metric_name]
            assert values.tolist() == reference_metrics(log, point, sue, duration), point.metric_name

    def test_a_one_byte_service_column_indexes_every_window(self):
        """The simulator stores a six-service run's services in one byte.
        With 120 windows, service 5's grid row starts at 600, past 255, so a
        uint8 product ``service * windows`` would wrap; every grid still
        equals the event-by-event loop's."""
        sue = SueSpec(services=tuple(tiny_service(name) for name in "abcdef"))
        duration = 600_000  # 120 windows of 5 s
        rng = np.random.default_rng(4)
        cpu, spans = [], []
        for t in np.sort(rng.integers(0, duration, 3000)).tolist():
            service = int(rng.integers(6))
            cpu.append((service, t, float(rng.lognormal(1.0, 1.0))))
            spans.append((span_id(len(spans)), -1, service, t, t + int(rng.integers(0, 20_000)), 1))
        log = event_log(spans=spans, cpu=cpu, chunk_rows=1000, service_code="B")
        assert all(chunk.service.itemsize == 1 for chunk in log.spans)
        points = [
            MetricPointSpec("sys", "cpu_gauge", "system", 5000, 5000),
            MetricPointSpec("cpu_f", "cpu_gauge", "f", 5000, 10_000),
            MetricPointSpec("rps", "request_counter", "system", 5000, 5000),
            MetricPointSpec("rpm_f", "request_counter", "f", 5000, 5000),
            MetricPointSpec("depth_f", "custom_gauge", "f", 5000, 5000),
        ]
        metrics, _ = sample_metrics(log, points, sue, duration)
        for point in points:
            _, values = metrics[point.metric_name]
            assert values.tolist() == reference_metrics(log, point, sue, duration), point.metric_name


class TestSampleTraces:
    def test_rate_zero_keeps_nothing(self):
        spans, total = sample_traces(synthetic_traces(500), TraceConfigSpec("probabilistic", 0.0), rng_stream(1, "t"))
        assert len(spans.span_id) == 0 and total == 500

    def test_rate_one_keeps_everything(self):
        log = synthetic_traces(500)
        spans, _ = sample_traces(log, TraceConfigSpec("probabilistic", 1.0), rng_stream(1, "t"))
        assert len(spans.span_id) == log.span_count()

    def test_always_on_ignores_rate(self):
        spans, _ = sample_traces(synthetic_traces(100), TraceConfigSpec("always_on", 0.0), rng_stream(1, "t"))
        assert len(spans.span_id) == 100

    def test_binomial_concentration_and_reproducibility(self):
        log = synthetic_traces(10_000)
        cfg = TraceConfigSpec("probabilistic", 0.05)
        spans_a, _ = sample_traces(log, cfg, rng_stream(3, "trace"))
        spans_b, _ = sample_traces(log, cfg, rng_stream(3, "trace"))
        assert span_rows(spans_a, one_service_sue()) == span_rows(spans_b, one_service_sue())
        kept = len(set((spans_a.span_id >> SPAN_BITS).tolist()))
        sigma = (10_000 * 0.05 * 0.95) ** 0.5
        assert abs(kept - 500) <= 3 * sigma  # [400, 600] band

    def test_rate_growth_keeps_supersets(self):
        log = synthetic_traces(2000)
        low, _ = sample_traces(log, TraceConfigSpec("probabilistic", 0.05), rng_stream(5, "t"))
        high, _ = sample_traces(log, TraceConfigSpec("probabilistic", 0.10), rng_stream(5, "t"))
        assert set((low.span_id >> SPAN_BITS).tolist()) <= set((high.span_id >> SPAN_BITS).tolist())

    def test_kept_traces_retain_all_spans(self):
        log = event_log(spans=[(span_id(1), -1, 0, 0, 30, 1), (span_id(1, 1), span_id(1), 1, 5, 20, 1)])
        spans, total = sample_traces(log, TraceConfigSpec("always_on", 1.0), rng_stream(1, "t"))
        assert total == 1
        rows = span_rows(spans, SueSpec(services=(tiny_service("a"), tiny_service("b"))))
        assert len(rows) == 2
        root = [s for s in rows if s.parent < 0][0]
        child = [s for s in rows if s.parent >= 0][0]
        assert child.start_ms >= root.start_ms and child.end_ms <= root.end_ms


def table_rows(spans) -> list[tuple]:
    return list(zip(*(column.tolist() for column in vars(spans).values())))


def reference_traces(log, cfg, rng):
    """``sample_traces`` one span at a time, with one scalar draw per root."""
    keep_all = cfg.strategy == "always_on"
    kept, total, rows = set(), 0, []
    for row in table_rows(whole(log).spans):
        span, parent, _, _, end, _ = row
        trace = span >> SPAN_BITS
        if parent < 0:
            total += 1
            if keep_all or rng.random() < cfg.rate:
                kept.add(trace)
        if trace in kept:
            if end < 0:
                raise ValueError(f"span {span} was never closed")
            rows.append(row)
    rows.sort(key=lambda row: (row[3], row[0] >> SPAN_BITS, row[0]))
    return rows, total


def simulated_log(until_ms=None, faults=()) -> RawEventLog:
    """The event log of the small two-service experiment, nested and
    interleaved traces, run to the end or stopped at ``until_ms``."""
    spec = small_spec()
    sim = new_sim(spec.sue, 3, faults)
    drive(sim, spec.workload)
    sim.run_until(until_ms)
    return sim.log


@functools.cache
def shared_simulated_log() -> RawEventLog:
    """``simulated_log()``, simulated once for every test that only reads it."""
    return simulated_log()


# A trace log to sample: synthetic traces or the small experiment's.
TRACE_LOGS = st.integers(0, 500).map(synthetic_traces) | st.builds(shared_simulated_log)


def kept_traces(log: RawEventLog, cfg: TraceConfigSpec, seed: int) -> set[int]:
    spans, _ = sample_traces(log, cfg, rng_stream(seed, "t"))
    return set((spans.span_id >> SPAN_BITS).tolist())


class TestSamplingRelations:
    """Metamorphic relations of trace sampling under one seed."""

    @settings(max_examples=50, deadline=None)
    @given(TRACE_LOGS, st.integers(0, 2**16), st.floats(0.0, 1.0))
    def test_probabilistic_at_rate_one_keeps_what_always_on_keeps(self, log, seed, rate):
        kept, total = sample_traces(log, TraceConfigSpec("probabilistic", 1.0), rng_stream(seed, "t"))
        expected, expected_total = sample_traces(log, TraceConfigSpec("always_on", rate), rng_stream(seed, "t"))
        assert table_rows(kept) == table_rows(expected)
        assert total == expected_total

    @settings(max_examples=50, deadline=None)
    @given(TRACE_LOGS, st.integers(0, 2**16), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_a_lower_rate_keeps_a_subset(self, log, seed, rate_a, rate_b):
        low, high = (TraceConfigSpec("probabilistic", rate) for rate in sorted((rate_a, rate_b)))
        assert kept_traces(log, low, seed) <= kept_traces(log, high, seed)


TRACE_CONFIGS = pytest.mark.parametrize(
    "cfg",
    [
        TraceConfigSpec("probabilistic", 0.0),
        TraceConfigSpec("probabilistic", 0.05),
        TraceConfigSpec("probabilistic", 1.0),
        TraceConfigSpec("always_on", 0.05),
    ],
    ids=["rate0", "rate0.05", "rate1", "always_on"],
)


class TestSampleTracesReference:
    @TRACE_CONFIGS
    def test_matches_root_by_root_reference(self, cfg):
        log = simulated_log()
        rng, reference_rng = rng_stream(4, "t"), rng_stream(4, "t")
        kept, total = sample_traces(log, cfg, rng)
        expected, expected_total = reference_traces(log, cfg, reference_rng)
        assert total == expected_total > 100
        assert table_rows(kept) == expected
        assert rng.random() == reference_rng.random()  # the same number of draws

    @TRACE_CONFIGS
    def test_kept_trace_count_counts_the_kept_trace_ids(self, cfg):
        spec = small_spec()
        sue = replace(spec.sue, trace_config=cfg)
        batch = build_batch(simulated_log(), sue, spec.workload.duration_ms, rng_stream(4, "t"))
        kept = set((batch.spans.span_id >> SPAN_BITS).tolist())
        assert batch.kept_trace_count == len(kept)
        assert (len(kept) > 0) == (cfg.rate > 0 or cfg.strategy == "always_on")

    def test_never_closed_span_is_an_error(self):
        log = simulated_log(until_ms=60_153)  # one request is in flight
        assert min(whole(log).spans.end_ms) == -1
        cfg = TraceConfigSpec("always_on", 1.0)
        with pytest.raises(ValueError) as expected:
            reference_traces(log, cfg, rng_stream(4, "t"))
        with pytest.raises(ValueError, match=f"^{expected.value}$"):
            sample_traces(log, cfg, rng_stream(4, "t"))


def exact(value):
    """``value`` with every array as its dtype, shape and bytes and every
    float as its hex digits, so that ``==`` compares bits."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        value = vars(value)
    if isinstance(value, dict):
        return {key: exact(item) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        return [exact(item) for item in value]
    return value


def isin_sample_traces(log, cfg, rng):
    """``sample_traces`` of a log whose spans are all closed, with the kept
    traces' rows selected by ``np.isin`` over the whole log."""
    spans = whole(log).spans
    trace = spans.span_id >> SPAN_BITS
    roots = trace[spans.parent < 0]
    trace_count = len(roots)
    if cfg.strategy != "always_on":
        roots = roots[rng.random(len(roots)) < cfg.rate]
    kept = spans.take(np.isin(trace, roots))
    return kept.take(np.lexsort((kept.span_id, kept.start_ms))), trace_count


def isin_trace_durations(batch, service):
    """(start, duration) of each kept trace that entered ``service``, its
    traces selected by ``np.isin``."""
    spans = batch.spans
    entered = spans.span_id[spans.service == batch.services.index(service)] >> SPAN_BITS
    roots = spans.take((spans.parent < 0) & np.isin(spans.span_id >> SPAN_BITS, entered))
    return roots.start_ms, (roots.end_ms - roots.start_ms).astype(np.float64)


@st.composite
def small_logs(draw) -> tuple[RawEventLog, int]:
    """A run's duration and a raw event log of services 0 to 2 around it:
    the closed spans of up to six traces, interleaved in an open order in
    which each root comes first, some failed and some closed after the
    duration; and CPU slices, some after the duration."""
    duration = draw(st.integers(1, 3000))
    times = st.integers(0, duration + 500)
    sizes = draw(st.lists(st.integers(1, 4), max_size=6))
    traces = draw(st.lists(st.integers(0, 40), min_size=len(sizes), max_size=len(sizes), unique=True))
    order = draw(st.permutations([k for k, size in enumerate(sizes) for _ in range(size)]))
    opened = [0] * len(sizes)
    spans = []
    for k in order:
        n, opened[k] = opened[k], opened[k] + 1
        start = draw(times)
        end = start + draw(st.integers(0, 500))
        parent = -1 if n == 0 else span_id(traces[k])
        spans.append((span_id(traces[k], n), parent, draw(st.integers(0, 2)), start, end, draw(st.integers(0, 1))))
    cpu = draw(st.lists(st.tuples(st.integers(0, 2), times, st.floats(0.0, 100.0)), max_size=30))
    return event_log(spans=spans, cpu=sorted(cpu, key=lambda row: row[1])), duration


CHUNK_SUE = SueSpec(
    services=(tiny_service("a"), tiny_service("b"), tiny_service("c")),
    metric_points=(
        MetricPointSpec("cpu", "cpu_gauge", "system", 500, 1000),
        MetricPointSpec("cpu_b", "cpu_gauge", "b", 700, 700),
        MetricPointSpec("rps", "request_counter", "system", 300, 300),
        MetricPointSpec("rpm_a", "request_counter", "a", 1000, 1000),
        MetricPointSpec("depth_c", "custom_gauge", "c", 500, 500),
    ),
)
CHUNK_TRACE_CONFIGS = st.sampled_from([
    TraceConfigSpec("probabilistic", 0.0),
    TraceConfigSpec("probabilistic", 0.3),
    TraceConfigSpec("probabilistic", 1.0),
    TraceConfigSpec("always_on", 0.3),
])


class TestChunkedReads:
    @settings(max_examples=150, deadline=None)
    @given(small_logs(), CHUNK_TRACE_CONFIGS, st.integers(1, 17), st.integers(0, 2**16))
    @example((event_log(), 1000), TraceConfigSpec("probabilistic", 0.3), 1, 0)
    def test_any_chunk_size_gives_the_whole_log_batch_bit_for_bit(self, drawn, cfg, chunk_rows, seed):
        """``build_batch`` of the log cut into chunks of 1 to 17 rows equals,
        array for array and bit for bit, its result on the log in one chunk
        and one sampling traces with ``np.isin`` over the whole log, and draws
        as often; its metrics equal an event-by-event loop's, and its metric
        calls those of each service: a gauge's windows for each gauge that
        reads it, and its ok closes by the end if a counter reads it."""
        log, duration = drawn
        sue = replace(CHUNK_SUE, trace_config=cfg)

        def batch(log):
            rng = rng_stream(seed, "t")
            return exact(build_batch(log, sue, duration, rng)), rng.random()

        tables = whole(log)
        chunked = event_log(table_rows(tables.spans), zip(*(column.tolist() for column in tables[1:])), chunk_rows)
        default = batch(log)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(telemetry, "sample_traces", isin_sample_traces)
            oracle = batch(log)
        assert batch(chunked) == default == oracle
        metrics, calls = sample_metrics(log, sue.metric_points, sue, duration)
        for point in sue.metric_points:
            assert metrics[point.metric_name][1].tolist() == reference_metrics(log, point, sue, duration), point
        ok_ends = [(r.service, r.end_ms) for r in span_rows(whole(log).spans, sue) if r.ok]
        expected = []
        for svc in sue.services:
            reading = [p for p in sue.metric_points if p.target in ("system", svc.id)]
            gauges = [p for p in reading if p.kind != "request_counter"]
            windows = sum(max(1, -(-duration // p.sampling_interval_ms)) for p in gauges)
            counted = len(gauges) < len(reading)
            expected.append(windows + counted * sum(s == svc.id and end <= duration for s, end in ok_ends))
        assert calls.tolist() == expected

    @settings(max_examples=100, deadline=None)
    @given(small_logs(), CHUNK_TRACE_CONFIGS, st.integers(0, 2**16))
    def test_trace_durations_select_the_traces_isin_selects(self, drawn, cfg, seed):
        log, duration = drawn
        batch = build_batch(log, replace(CHUNK_SUE, trace_config=cfg), duration, rng_stream(seed, "t"))
        for service in batch.services:
            spec = ResponseVariableSpec("latency", "trace_duration", service)
            series = materialize_response(spec, batch, fault_window(0, 10**9))  # every row settled
            assert exact((series.timestamps, series.values)) == exact(isin_trace_durations(batch, service))

    def test_build_batch_holds_a_small_share_of_the_log_at_once(self, monkeypatch):
        """On the finished log of a 2,000-user run, written 1,024 rows to a
        chunk, ``build_batch`` allocates at its peak under an eighth of the
        bytes of the log's columns: 0.078 of them, where the log in one
        chunk took 0.757."""
        monkeypatch.setattr(simulator, "_CHUNK_ROWS", 1024)
        spec, sim = surge_sim()
        sim.run_until(None)
        tables = whole(sim.log)
        column_bytes = sum(column.nbytes for column in (*vars(tables.spans).values(), *tables[1:]))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            build_batch(sim.log, spec.sue, sim.workload.duration_ms, rng_stream(7, "trace-sampling"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < column_bytes / 8

    def test_custom_gauge_holds_less_than_a_column_of_the_log(self):
        """A ``custom_gauge`` reads its grid in the chunked pass: on a
        300,000-span log in the simulator's chunks, ``sample_metrics`` peaks
        below the bytes of one int64 column. Sorting whole-log keys took
        9.5 MB; this reads 0.2."""
        n, rows = 300_000, simulator._CHUNK_ROWS
        rng = np.random.default_rng(0)
        start = np.arange(n)
        columns = (start << SPAN_BITS, np.full(n, -1), start % 3, start, start + rng.integers(0, 200, n), np.ones(n, int))
        spans = [SpanTable(*(column[lo : lo + rows] for column in columns)) for lo in range(0, n, rows)]
        log = RawEventLog(spans, event_log().cpu)
        point = MetricPointSpec("depth", "custom_gauge", "b", 5000, 5000)
        sue = SueSpec(services=(tiny_service("a"), tiny_service("b"), tiny_service("c")))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sample_metrics(log, [point], sue, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < start.nbytes


class TestCustomGauge:
    def test_pause_raises_the_in_flight_count_of_its_target(self):
        spec = small_spec()
        pause = spec.treatments[0]  # backend, 40-80 s
        point = MetricPointSpec("backend_in_flight", "custom_gauge", "backend", 5000, 5000)
        log = simulated_log(faults=[pause])
        timestamps, values = sample_metrics(log, [point], spec.sue, spec.workload.duration_ms)[0][point.metric_name]
        before = values[timestamps <= pause.start_ms]
        inside = values[(pause.start_ms < timestamps) & (timestamps <= pause.end_ms)]
        assert inside.min() > before.mean()

    def test_costs_the_calls_of_a_cpu_gauge(self):
        spec = small_spec()
        log = simulated_log()

        def calls(*points):
            sue = replace(spec.sue, metric_points=points)
            return build_batch(log, sue, spec.workload.duration_ms, rng_stream(1, "t")).instrumentation_calls

        bare = calls()
        gauges = [calls(MetricPointSpec("g", kind, "backend", 5000, 10_000)) for kind in ("custom_gauge", "cpu_gauge")]
        assert gauges[0] == gauges[1] == {"gateway": bare["gateway"], "backend": bare["backend"] + 120_000 / 5000}


class TestLabeling:
    def make_series(self, fault):
        # one observation per 5 s over 600 s
        timestamps = np.arange(5000, 605_000, 5000, dtype=np.int64)
        batch = batch_of(metrics={"m": (timestamps, np.ones(len(timestamps)))})
        return materialize_response(ResponseVariableSpec("m", "metric", "m"), batch, fault)

    def test_window_labels_inclusive(self):
        series = self.make_series(fault_window(240_000, 360_000))
        fault = series.timestamps[series.is_fault]
        assert min(fault) == 240_000
        assert max(fault) == 360_000
        assert len(fault) == (360_000 - 240_000) // 5000 + 1

    def test_settling_margin_excluded(self):
        series = self.make_series(fault_window(240_000, 360_000))
        stamps = series.timestamps.tolist()
        for t in range(365_000, 395_000, 5000):
            assert t not in stamps
        assert 395_000 in stamps  # first timestamp after the margin

    def test_label_partition(self):
        series = self.make_series(fault_window(240_000, 360_000))
        assert len(series.timestamps) == len(series.values) == len(series.is_fault)
        assert set(series.is_fault.tolist()) == {False, True}
        fault_count = int(series.is_fault.sum())
        assert abs(fault_count * 5000 - (360_000 - 240_000)) <= 5000


class TestMaterializeResponse:
    def test_trace_duration_filters_by_entered_service(self):
        spans = [
            (span_id(1), -1, 0, 100, 400, 1),
            (span_id(1, 1), span_id(1), 1, 200, 300, 1),
            (span_id(2), -1, 0, 500, 600, 1),  # never reaches backend
        ]
        series = materialize_response(
            ResponseVariableSpec("latency", "trace_duration", "backend"),
            batch_of(spans=spans, services=("frontend", "backend")),
            fault_window(10_000, 20_000),
        )
        assert series.timestamps.tolist() == [100]
        assert series.values.tolist() == [300.0]
        assert series.is_fault.tolist() == [False]


class TestExportCsv:
    def test_headers_only_for_empty_series(self, tmp_path):
        empty = np.array([], dtype=np.int64)
        series = ResponseSeries("empty", empty, empty.astype(np.float64), empty.astype(bool))
        paths = export_csv(batch_of(), [series], tmp_path)
        response_csv = tmp_path / "empty.csv"
        assert response_csv in paths
        assert response_csv.read_text() == "timestamp_ms,value,label\n"
        spans_csv = tmp_path / "spans.csv"
        assert spans_csv.read_text() == "trace_id,span_id,parent_id,service,start_ms,end_ms,outcome\n"

    def test_a_child_of_span_0_names_its_parent(self, tmp_path):
        """Span id 0 is request 0's root: its children are written with
        parent_id 0, and only roots with an empty parent_id."""
        log = event_log(spans=[
            (span_id(0), -1, 0, 0, 50, 1),
            (span_id(0, 1), span_id(0), 0, 10, 40, 0),
            (span_id(1), -1, 0, 100, 150, 1),
            (span_id(1, 1), span_id(1), 0, 110, 140, 1),
        ])
        batch = build_batch(log, one_service_sue(trace=TraceConfigSpec("always_on", 0.0)), 1000, rng_stream(1, "t"))
        export_csv(batch, [], tmp_path)
        assert (tmp_path / "spans.csv").read_text().splitlines() == [
            "trace_id,span_id,parent_id,service,start_ms,end_ms,outcome",
            "0,0,,api,0,50,ok",
            "0,1,0,api,10,40,error",
            f"1,{span_id(1)},,api,100,150,ok",
            f"1,{span_id(1, 1)},{span_id(1)},api,110,140,ok",
        ]

    def test_reexport_is_byte_identical(self, tmp_path):
        sue = one_service_sue(
            points=[MetricPointSpec("cpu", "cpu_gauge", "api", 5000, 5000)],
            trace=TraceConfigSpec("probabilistic", 0.5),
        )
        log = event_log(
            spans=[(span_id(i), -1, 0, i * 100, i * 100 + 50, 1) for i in range(200)],
            cpu=[(0, i * 100, 3.5) for i in range(100)],
        )
        outputs = []
        for attempt in range(2):
            batch = build_batch(log, sue, 20_000, rng_stream(2, "ts"))
            series = materialize_response(
                ResponseVariableSpec("cpu", "metric", "cpu"), batch, fault_window(4000, 9000)
            )
            directory = tmp_path / str(attempt)
            export_csv(batch, [series], directory)
            outputs.append(
                {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
            )
        assert outputs[0] == outputs[1]

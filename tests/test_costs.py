from __future__ import annotations

import re

import pytest

from oxn.config import CostModelSpec, MetricPointSpec, TraceConfigSpec, parse_experiment_file
from oxn.costs import account, mean_cost, overhead
from oxn.simulator import drive, rng_stream
from oxn.telemetry import build_batch

from conftest import experiment_path, new_sim, small_spec

from dataclasses import replace


def batch_for(spec, seed=0, trace_rate=None, metric_points=None):
    sue = spec.sue
    if trace_rate is not None:
        sue = replace(sue, trace_config=TraceConfigSpec("probabilistic", trace_rate))
    if metric_points is not None:
        sue = replace(sue, metric_points=tuple(metric_points))
    sim = new_sim(sue, seed)
    drive(sim, spec.workload)
    sim.run_until(None)
    return build_batch(sim.log, sue, spec.workload.duration_ms, sim.stream("trace-sampling"))


class TestAccount:
    def test_zero_telemetry_means_zero_pipeline_cost(self):
        spec = small_spec()
        batch = batch_for(spec, trace_rate=0.0, metric_points=[])
        report = account(batch, spec.cost_model)
        assert report.collector == 0.0
        assert report.metrics_backend == 0.0
        assert report.trace_backend == 0.0
        # pure request processing remains
        expected_busy = sum(batch.cpu_busy_ms.values()) / 1000.0
        assert report.application_total == pytest.approx(expected_busy)

    def test_doubling_trace_rate_with_common_random_numbers(self):
        spec = small_spec()
        low = account(batch_for(spec, trace_rate=0.25), spec.cost_model)
        high = account(batch_for(spec, trace_rate=0.50), spec.cost_model)
        assert high.trace_backend > low.trace_backend
        # head sampling keeps supersets under a shared seed, so the kept-span
        # count roughly doubles and the trace backend cost follows it
        assert high.trace_backend / low.trace_backend == pytest.approx(2.0, rel=0.25)

    def test_additivity_over_disjoint_partitions(self):
        model = CostModelSpec()
        spec = small_spec()
        whole = batch_for(spec)

        def metrics_where(keep):
            return {name: (t[keep(t)], v[keep(t)]) for name, (t, v) in whole.metrics.items()}

        early, late = metrics_where(lambda t: t <= 60_000), metrics_where(lambda t: t > 60_000)
        first = replace(
            whole,
            spans=whole.spans.take(whole.spans.start_ms < 60_000),
            metrics=early,
            metric_event_count=sum(len(t) for t, _ in early.values()),
            cpu_busy_ms={"gateway": 100.0, "backend": 50.0},
            instrumentation_calls={"gateway": 10.0, "backend": 5.0},
        )
        second = replace(
            whole,
            spans=whole.spans.take(whole.spans.start_ms >= 60_000),
            metrics=late,
            metric_event_count=sum(len(t) for t, _ in late.values()),
            cpu_busy_ms={
                svc: whole.cpu_busy_ms[svc] - first.cpu_busy_ms[svc] for svc in whole.cpu_busy_ms
            },
            instrumentation_calls={
                svc: whole.instrumentation_calls[svc] - first.instrumentation_calls[svc]
                for svc in whole.instrumentation_calls
            },
        )
        total = account(whole, model).total
        assert account(first, model).total + account(second, model).total == pytest.approx(total)

    def test_cost_monotone_in_sampling_configuration(self):
        spec = small_spec()
        totals = []
        for rate in (0.0, 0.1, 0.5, 1.0):
            totals.append(account(batch_for(spec, trace_rate=rate), spec.cost_model).total)
        assert totals == sorted(totals)

        fast_counter = [
            MetricPointSpec("system_cpu", "cpu_gauge", "system", 5000, 5000),
            MetricPointSpec("backend_rpm", "request_counter", "backend", 1000, 1000),
        ]
        faster = account(batch_for(spec, metric_points=fast_counter), spec.cost_model).total
        baseline = account(batch_for(spec), spec.cost_model).total
        assert faster > baseline


class TestOverhead:
    def test_reference_values_to_two_decimals(self):
        assert overhead(191.83, 199.47) == 3.98
        assert overhead(191.83, 197.68) == 3.05
        assert overhead(191.83, 202.06) == 5.33

    def test_identity_is_zero(self):
        assert overhead(123.45, 123.45) == 0.0

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            overhead(0.0, 10.0)

    @pytest.mark.parametrize("baseline, alternative", [(5e-324, 1.0), (1e-300, 1e300)])
    def test_a_ratio_beyond_the_float_range_is_refused(self, baseline, alternative):
        with pytest.raises(ValueError, match=re.escape(f"cost.total {alternative!r} over {baseline!r} overflows")):
            overhead(baseline, alternative)


class TestMeanCost:
    def test_componentwise_mean(self):
        spec = small_spec()
        a = account(batch_for(spec, seed=0), spec.cost_model)
        b = account(batch_for(spec, seed=1), spec.cost_model)
        mean = mean_cost([a, b])
        assert mean.collector == pytest.approx((a.collector + b.collector) / 2)
        assert mean.total == pytest.approx((a.total + b.total) / 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_cost([])


class TestCanonicalCalibration:
    @pytest.mark.slow
    def test_collector_share_near_reference_ratio(self):
        """The default cost model keeps the collector at roughly a fifth of
        the total accounted cost for the canonical baseline."""
        spec = parse_experiment_file(experiment_path("baseline"))
        batch = batch_for(spec, seed=0)
        report = account(batch, spec.cost_model)
        assert 0.12 < report.collector / report.total < 0.30

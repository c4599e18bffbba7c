from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from oxn.config import (
    Fault,
    Kill,
    MetricSamplingInterval,
    NetworkDelay,
    PacketLoss,
    Pause,
    TracingSamplingRate,
    SueSpec,
    TracingSamplingStrategy,
    apply_instrumentation,
    parse_experiment_file,
    validate,
)
from oxn.simulator import drive

from conftest import experiment_path, metric_point, new_sim, tiny_service


@pytest.fixture(scope="module")
def baseline():
    return parse_experiment_file(experiment_path("baseline"))


def violations_with(spec, treatment, **workload):
    """Validate ``spec`` with ``treatment`` as its first treatment, followed
    by one of its faults when ``treatment`` is not one: an experiment needs a
    fault to run."""
    faults = () if isinstance(treatment, Fault) else spec.fault_treatments()[:1]
    bad = replace(spec, treatments=(treatment, *faults), workload=replace(spec.workload, **workload))
    return [str(v) for v in validate(bad)]


class TestApplyInstrumentation:
    def test_counter_interval_change(self, baseline):
        treatment = MetricSamplingInterval(
            name="faster", metric="recomms_per_minute", interval_ms=1000
        )
        out = apply_instrumentation(baseline.sue, [treatment])
        point = metric_point(out, "recomms_per_minute")
        assert point.sampling_interval_ms == 1000
        assert point.aggregation_interval_ms == 1000  # 1:1 multiplier preserved
        # input untouched
        assert metric_point(baseline.sue, "recomms_per_minute").sampling_interval_ms == 60_000

    def test_aggregation_multiplier_preserved(self, baseline):
        wide = replace(
            metric_point(baseline.sue, "system_cpu"), aggregation_interval_ms=15_000
        )
        sue = replace(baseline.sue, metric_points=(wide,))
        treatment = MetricSamplingInterval(name="slower", metric="system_cpu", interval_ms=10_000)
        out = apply_instrumentation(sue, [treatment])
        assert metric_point(out, "system_cpu").aggregation_interval_ms == 30_000

    def test_trace_rate_change(self, baseline):
        treatment = TracingSamplingRate(name="more", rate=0.05)
        out = apply_instrumentation(baseline.sue, [treatment])
        assert out.trace_config.rate == 0.05
        assert baseline.sue.trace_config.rate == 0.01

    def test_strategy_change(self, baseline):
        treatment = TracingSamplingStrategy(name="all", strategy="always_on")
        out = apply_instrumentation(baseline.sue, [treatment])
        assert out.trace_config.strategy == "always_on"

    def test_empty_list_is_identity(self, baseline):
        assert apply_instrumentation(baseline.sue, []) == baseline.sue

    def test_idempotent(self, baseline):
        treatments = [TracingSamplingRate(name="more", rate=0.05)]
        once = apply_instrumentation(baseline.sue, treatments)
        twice = apply_instrumentation(once, treatments)
        assert once == twice

    def test_unknown_metric_rejected(self, baseline):
        treatment = MetricSamplingInterval(name="x", metric="ghost", interval_ms=1000)
        assert violations_with(baseline, treatment) == [
            "treatments[0].metric: unresolved metric 'ghost'"
        ]

    def test_rate_out_of_range_rejected(self, baseline):
        treatment = TracingSamplingRate(name="x", rate=1.5)
        assert violations_with(baseline, treatment) == [
            "treatments[0].rate: rate must be within [0, 1]"
        ]


class TestCompileSchedule:
    """Fault treatments as ``SimState.add_fault`` schedules them."""

    def test_sorted_by_start(self):
        faults = [
            Pause(name="late", target="x", start_ms=50_000, end_ms=60_000),
            Kill(name="early", target="x", start_ms=10_000, end_ms=20_000),
        ]
        sim = new_sim(SueSpec(services=(tiny_service("x"),)), 0, faults)
        x = sim.services["x"]
        sim.run_until(15_000)
        assert x.killed and not x.paused
        sim.run_until(55_000)
        assert x.paused and not x.killed

    def test_effect_parameters_are_pure_translation(self):
        # Each fault treatment is itself the effect the simulator applies.
        delay = NetworkDelay(
            name="d", target="svc", start_ms=1000, end_ms=2000, delay_min_ms=0, delay_max_ms=90
        )
        loss = PacketLoss(name="l", target="svc", start_ms=1000, end_ms=2000, probability=0.15)
        pause = Pause(name="p", target="svc", start_ms=1000, end_ms=2000)
        sim = new_sim(SueSpec(services=(tiny_service("svc"),)), 0, [delay, loss, pause])
        sim.run_until(1000)
        first, second = sim.services["svc"].inbound_faults
        assert first is delay and second is loss
        assert sim.services["svc"].paused
        assert type(loss) is PacketLoss and loss.kind == "packet_loss"

    def test_window_outside_run_rejected(self, baseline):
        bad = Pause(name="b", target="frontend", start_ms=5000, end_ms=20_000)
        (violation,) = violations_with(baseline, bad, duration_ms=10_000, ramp_up_ms=0)
        assert violation.startswith("treatments[0]: fault window exceeds workload duration")


class TestRevert:
    @pytest.mark.slow
    def test_post_settling_metrics_match_pre_fault_distribution(self, baseline):
        """After the fault window plus the settling margin, per-window CPU
        readings come from the same generator parameters as before the fault."""
        from oxn.telemetry import build_batch

        fault = baseline.fault_treatments()[0]  # pause
        pre, post = [], []
        for seed in range(3):
            sim = new_sim(baseline.sue, seed, [fault])
            drive(sim, baseline.workload)
            sim.run_until(None)
            batch = build_batch(
                sim.log, baseline.sue, baseline.workload.duration_ms, sim.stream("trace-sampling")
            )
            timestamps, values = batch.metrics["system_cpu"]
            pre.extend(values[(60_000 <= timestamps) & (timestamps < fault.start_ms)])
            post.extend(values[timestamps > fault.end_ms + 30_000 + 5000])
        assert abs(np.mean(post) - np.mean(pre)) / np.mean(pre) < 0.10

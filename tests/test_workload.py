from __future__ import annotations

import numpy as np
import pytest

from oxn.config import LognormalSpec, SueSpec, TraceConfigSpec, WorkloadSpec, parse_experiment_file
from oxn.simulator import drive

from conftest import experiment_path, new_sim, tiny_service


def single_service_sue(**kwargs) -> SueSpec:
    return SueSpec(
        services=(tiny_service(**kwargs),),
        edges=(),
        metric_points=(),
        trace_config=TraceConfigSpec(),
    )


class TestClosedLoop:
    def test_deterministic_cycle_count(self):
        # one user, 1000 ms think, 10 ms service: one full cycle every 1010 ms
        sue = single_service_sue(median_ms=10, sigma=0.0)
        sim = new_sim(sue, 1)
        drive(sim, WorkloadSpec(users=1, duration_ms=60_000, think_time=LognormalSpec(1000, 0.0)))
        sim.run_until(None)
        assert len(sim.records) == 60_000 // 1010  # 59

    def test_arrivals_stop_at_duration(self):
        sue = single_service_sue(median_ms=10, sigma=0.2)
        sim = new_sim(sue, 2)
        drive(sim, WorkloadSpec(users=10, duration_ms=30_000, think_time=LognormalSpec(400, 0.3)))
        sim.run_until(None)
        assert max(r.start_ms for r in sim.records) < 30_000
        assert sim.pending_events() == 0

    def test_identical_seed_identical_records(self):
        sue = single_service_sue(median_ms=10, sigma=0.3)
        workload = WorkloadSpec(users=7, duration_ms=20_000, think_time=LognormalSpec(300, 0.4))
        runs = []
        for _ in range(2):
            sim = new_sim(sue, 5)
            drive(sim, workload)
            sim.run_until(None)
            runs.append(sim.records)
        assert runs[0] == runs[1]

    def test_in_flight_never_exceeds_users(self):
        sue = single_service_sue(median_ms=50, sigma=0.5, workers=1)
        users = 6
        sim = new_sim(sue, 9)
        drive(sim, WorkloadSpec(users=users, duration_ms=30_000, think_time=LognormalSpec(200, 0.3)))
        sim.run_until(None)
        events = sorted(
            [(r.start_ms, 1) for r in sim.records] + [(r.end_ms, -1) for r in sim.records]
        )
        in_flight = peak = 0
        for _, delta in events:
            in_flight += delta
            peak = max(peak, in_flight)
        assert peak <= users

    def test_ramp_up_staggers_starts(self):
        sue = single_service_sue(median_ms=10, sigma=0.0)
        sim = new_sim(sue, 3)
        drive(
            sim,
            WorkloadSpec(
                users=4, duration_ms=20_000, think_time=LognormalSpec(1000, 0.0), ramp_up_ms=8000
            ),
        )
        sim.run_until(None)
        first = {u: min(r.start_ms for r in sim.records if r.user == u) for u in range(4)}
        assert first == {0: 1000, 1: 3000, 2: 5000, 3: 7000}


class TestStationarity:
    @pytest.mark.slow
    def test_no_fault_throughput_is_stationary_on_canonical_topology(self):
        """Regression guard: steady-state request rate drifts by < 5% between
        the early and late halves of a fault-free canonical run, seeds 0-9."""
        spec = parse_experiment_file(experiment_path("baseline"))
        for seed in range(10):
            sim = new_sim(spec.sue, seed)
            drive(sim, spec.workload)
            sim.run_until(None)
            starts = np.array([r.start_ms for r in sim.records])
            early = ((starts >= 60_000) & (starts < 300_000)).sum() / 4.0
            late = ((starts >= 300_000) & (starts < 540_000)).sum() / 4.0
            assert abs(early - late) / early < 0.05, f"seed {seed}: {early} vs {late}"

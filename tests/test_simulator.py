from __future__ import annotations

import numpy as np
import pytest

from oxn.config import (
    CallEdge,
    LognormalSpec,
    ServiceSpec,
    SueSpec,
    TraceConfigSpec,
    WorkloadSpec,
)
from oxn.simulator import CLIENT_TIMEOUT_MS, init_sim, rng_stream
from oxn.treatments import compile_schedule
from oxn.workload import drive

from conftest import tiny_service


def sue_single(median_ms=10.0, sigma=0.0, workers=2, cpu=5.0) -> SueSpec:
    return SueSpec(
        services=(tiny_service("api", workers, median_ms, sigma, cpu),),
        edges=(),
        metric_points=(),
        trace_config=TraceConfigSpec(),
    )


def sue_chain(sigma=0.0) -> SueSpec:
    return SueSpec(
        services=(
            tiny_service("a", 4, 10, sigma, 5),
            tiny_service("b", 4, 10, sigma, 5),
        ),
        edges=(CallEdge("a", "b", 1.0, 5),),
        metric_points=(),
        trace_config=TraceConfigSpec(),
    )


def run_workload(sue, seed, users, duration_ms, think_ms, schedule=None, ramp_up_ms=0, sigma=0.0):
    sim = init_sim(sue, seed)
    drive(
        sim,
        WorkloadSpec(
            users=users,
            duration_ms=duration_ms,
            think_time=LognormalSpec(think_ms, sigma),
            ramp_up_ms=ramp_up_ms,
        ),
    )
    sim.run_until(None, schedule)
    return sim


class TestBasics:
    def test_single_service_deterministic_latency(self):
        sim = init_sim(sue_single(), seed=1)
        done = []
        sim.issue_request(0, at=0, on_done=done.append)
        sim.run_until(None)
        assert done[0].end_ms - done[0].start_ms == 10
        assert done[0].outcome == "ok"

    def test_chain_latency_is_additive(self):
        sim = init_sim(sue_chain(), seed=1)
        done = []
        sim.issue_request(0, at=0, on_done=done.append)
        sim.run_until(None)
        assert done[0].end_ms - done[0].start_ms == 25
        assert done[0].hops == (("a", "b", 15),)

    def test_issue_in_the_past_rejected(self):
        sim = init_sim(sue_single(), seed=1)
        sim.issue_request(0, at=100)
        sim.run_until(200)
        with pytest.raises(ValueError):
            sim.issue_request(0, at=100)

    def test_clock_is_monotone_and_reaches_target(self):
        sim = init_sim(sue_single(), seed=1)
        sim.issue_request(0, at=50)
        sim.run_until(1000)
        assert sim.now == 1000


class TestDeterminism:
    def test_same_seed_identical_event_log(self):
        runs = [run_workload(sue_chain(0.4), 9, 5, 30_000, 400, sigma=0.3) for _ in range(2)]
        assert runs[0].log.span_opens == runs[1].log.span_opens
        assert runs[0].log.span_closes == runs[1].log.span_closes
        assert runs[0].log.cpu_busy == runs[1].log.cpu_busy
        assert runs[0].records == runs[1].records

    def test_different_seeds_diverge(self):
        a = run_workload(sue_chain(0.4), 1, 5, 30_000, 400, sigma=0.3)
        b = run_workload(sue_chain(0.4), 2, 5, 30_000, 400, sigma=0.3)
        assert a.log.span_opens != b.log.span_opens

    def test_rng_streams_are_stable(self):
        assert rng_stream(7, "x").random() == rng_stream(7, "x").random()
        assert rng_stream(7, "x").random() != rng_stream(7, "y").random()


class TestQueueingOracle:
    def test_matches_independent_replayer(self):
        """Deterministic closed loop checked request-by-request against a
        brute-force replayer built on a different algorithm (chronological
        arrival processing over worker free-times)."""
        users, duration, workers = 4, 60_000, 1
        think, service = 1009, 103
        ramp = 997
        sue = sue_single(median_ms=service, sigma=0.0, workers=workers)
        sim = run_workload(sue, 5, users, duration, think, ramp_up_ms=ramp)

        # independent oracle
        starts = [(ramp * u) // users for u in range(users)]
        pending = sorted((s + think, u) for u, s in enumerate(starts))
        free = [0.0] * workers
        expected = []
        while pending:
            arrival, user = pending.pop(0)
            slot = min(range(workers), key=lambda i: free[i])
            begin = max(arrival, free[slot])
            end = begin + service
            free[slot] = end
            expected.append((user, arrival, end))
            nxt = end + think
            if nxt < duration:
                pending.append((nxt, user))
                pending.sort()
        got = sorted((r.user, r.start_ms, r.end_ms) for r in sim.records)
        assert got == sorted(expected)

    def test_low_load_mean_latency_matches_analytic(self):
        """Fan-out chain at negligible utilization: mean end-to-end latency
        approaches the sum of lognormal means plus edge latencies."""
        sigma = 0.3
        sue = SueSpec(
            services=(
                tiny_service("a", 16, 12, sigma, 2),
                tiny_service("b", 16, 20, sigma, 2),
                tiny_service("c", 16, 8, sigma, 2),
            ),
            edges=(CallEdge("a", "b", 1.0, 4), CallEdge("b", "c", 1.0, 3)),
            metric_points=(),
            trace_config=TraceConfigSpec(),
        )
        sim = run_workload(sue, 0, 5, 300_000, 2000, sigma=0.2)
        latencies = [r.end_ms - r.start_ms for r in sim.records if r.outcome == "ok"]
        lognormal_mean = lambda med: med * np.exp(sigma**2 / 2)
        analytic = lognormal_mean(12) + 4 + lognormal_mean(20) + 3 + lognormal_mean(8) + 0.5 * 3
        # 0.5*3: int-rounding of three draws biases by at most ~0.5 ms each
        assert abs(np.mean(latencies) - analytic) / analytic < 0.10

    def test_fifo_backlog_orders_by_arrival(self):
        sue = sue_single(median_ms=100, sigma=0.0, workers=1)
        sim = init_sim(sue, 3)
        done = []
        for i in range(3):
            sim.issue_request(i, at=i, on_done=done.append)
        sim.run_until(None)
        assert [r.user for r in done] == [0, 1, 2]
        assert [r.end_ms for r in done] == [100, 200, 300]


class TestInvariants:
    def test_span_nesting_and_event_order(self):
        sim = run_workload(sue_chain(0.4), 11, 8, 60_000, 300, sigma=0.3)
        log = sim.log
        for events, key in (
            (log.span_opens, lambda e: e.t),
            (log.span_closes, lambda e: e.t),
            (log.cpu_busy, lambda e: e[1]),
            (log.counter_increments, lambda e: e[1]),
        ):
            stamps = [key(e) for e in events]
            assert stamps == sorted(stamps)

        opens = {e.span_id: e for e in log.span_opens}
        closes = {e.span_id: e for e in log.span_closes}
        assert set(opens) == set(closes)
        for span_id, open_event in opens.items():
            if open_event.parent_id != -1:
                parent_open = opens[open_event.parent_id]
                parent_close = closes[open_event.parent_id]
                assert parent_open.t <= open_event.t
                assert closes[span_id].t <= parent_close.t

    def test_cpu_accounting_exact_without_faults(self):
        sue = sue_chain(0.3)
        sim = run_workload(sue, 13, 5, 60_000, 400, sigma=0.2)
        for service in ("a", "b"):
            total = sum(ms for s, _, ms in sim.log.cpu_busy if s == service)
            processed = sum(1 for s, _ in sim.log.counter_increments if s == service)
            assert total == pytest.approx(5.0 * processed)

    def test_stress_increases_cpu_beyond_nominal(self):
        from oxn.config import Stress

        stress = Stress(name="s", target="b", start_ms=10_000, end_ms=50_000, factor=3.0)
        sue = sue_chain(0.0)
        sim = run_workload(sue, 13, 5, 60_000, 400, schedule=compile_schedule([stress]))
        total = sum(ms for s, _, ms in sim.log.cpu_busy if s == "b")
        processed = sum(1 for s, _ in sim.log.counter_increments if s == "b")
        assert total > 5.0 * processed
        in_window = [ms for s, t, ms in sim.log.cpu_busy if s == "b" and 10_000 < t <= 50_000]
        assert max(in_window) == pytest.approx(15.0)


class TestFaults:
    def make_schedule(self, kind, **params):
        from oxn.config import TREATMENT_KINDS

        cls, fixed = TREATMENT_KINDS[kind]
        fault = cls(name=f"{kind}_b", target="b", start_ms=20_000, end_ms=40_000, **fixed, **params)
        return compile_schedule([fault])

    def test_pause_queues_without_processing(self):
        sue = sue_chain(0.0)
        sim = run_workload(sue, 17, 5, 60_000, 500, schedule=self.make_schedule("pause"))
        b_done = [t for s, t in sim.log.counter_increments if s == "b"]
        assert not [t for t in b_done if 20_000 < t < 40_000]
        assert [t for t in b_done if t < 20_000]
        assert [t for t in b_done if t >= 40_000]
        b_cpu_window = [ms for s, t, ms in sim.log.cpu_busy if s == "b" and 20_000 < t < 40_000]
        assert b_cpu_window == []

    def test_pause_freezes_in_flight_processing(self):
        sue = SueSpec(
            services=(tiny_service("a", 4, 10, 0.0, 5), tiny_service("b", 4, 5000, 0.0, 5)),
            edges=(CallEdge("a", "b", 1.0, 5),),
            metric_points=(),
            trace_config=TraceConfigSpec(),
        )
        sim = init_sim(sue, 3)
        done = []
        sim.issue_request(0, at=18_985, on_done=done.append)  # reaches b at 19_000
        sim.run_until(None, self.make_schedule("pause"))
        # 1000 ms of service happened before the pause; the rest resumes at 40 s.
        close = [c for c in sim.log.span_closes if c.outcome == "ok"]
        b_close = max(close, key=lambda c: c.t)
        assert b_close.t == 40_000 + 4000

    def test_kill_fails_new_requests_after_error_response_time(self):
        sue = sue_chain(0.0)
        sim = init_sim(sue, 3)
        done = []
        sim.issue_request(0, at=25_000, on_done=done.append)
        sim.run_until(None, self.make_schedule("kill"))
        record = done[0]
        assert record.outcome == "error"
        # a processes 10 ms, edge 5 ms, then b's error response time (300 ms)
        assert record.end_ms - record.start_ms == 10 + 5 + 300
        assert not [e for e in sim.log.span_opens if e.service == "b" and 20_000 <= e.t < 40_000]

    def test_kill_drops_in_flight_work_at_window_start(self):
        sue = SueSpec(
            services=(tiny_service("a", 4, 10, 0.0, 5), tiny_service("b", 4, 5000, 0.0, 5)),
            edges=(CallEdge("a", "b", 1.0, 5),),
            metric_points=(),
            trace_config=TraceConfigSpec(),
        )
        sim = init_sim(sue, 3)
        done = []
        sim.issue_request(0, at=18_985, on_done=done.append)
        sim.run_until(None, self.make_schedule("kill"))
        assert done[0].outcome == "error"
        assert done[0].end_ms == 20_000
        assert not [ms for s, t, ms in sim.log.cpu_busy if s == "b"]

    def test_network_delay_bounds_per_hop(self):
        sue = sue_chain(0.0)
        schedule = self.make_schedule("network_delay", delay_min_ms=10, delay_max_ms=90)
        sim = run_workload(sue, 19, 5, 60_000, 500, schedule=schedule)
        in_window = [
            lat for r in sim.records for (_, _, lat) in r.hops if 20_000 <= r.start_ms < 39_000
        ]
        outside = [
            lat for r in sim.records for (_, _, lat) in r.hops if r.start_ms >= 41_000 or r.end_ms < 20_000
        ]
        assert all(15 + 10 <= lat <= 15 + 90 for lat in in_window)
        assert len(set(in_window)) > 10  # actually drawing, not constant
        assert all(lat == 15 for lat in outside)

    def test_packet_loss_adds_retransmit_penalties(self):
        sue = sue_chain(0.0)
        schedule = self.make_schedule("packet_loss", probability=0.3)
        sim = run_workload(sue, 23, 5, 60_000, 500, schedule=schedule)
        in_window = [
            lat for r in sim.records for (_, _, lat) in r.hops if 20_000 <= r.start_ms < 39_000
        ]
        assert in_window
        assert all((lat - 15) % 200 == 0 for lat in in_window)
        assert any(lat > 15 for lat in in_window)
        retransmit_cpu = [
            ms for s, t, ms in sim.log.cpu_busy if s == "b" and ms not in (5.0,)
        ]
        assert retransmit_cpu  # receiver-side stack work shows up as extra busy time
        stamps = [t for _, t, _ in sim.log.cpu_busy]
        assert stamps == sorted(stamps)

    def test_packet_corruption_produces_errors(self):
        sue = sue_chain(0.0)
        schedule = self.make_schedule("packet_corruption", probability=0.5)
        sim = run_workload(sue, 29, 5, 60_000, 500, schedule=schedule)
        in_window = [r for r in sim.records if 20_000 <= r.start_ms < 39_000]
        outcomes = {r.outcome for r in in_window}
        assert "error" in outcomes
        pre_window = [r for r in sim.records if r.end_ms < 20_000]
        assert all(r.outcome == "ok" for r in pre_window)

    def test_effects_revert_exactly_at_window_end(self):
        sue = sue_chain(0.0)
        schedule = self.make_schedule("network_delay", delay_min_ms=50, delay_max_ms=50)
        sim = init_sim(sue, 31)
        done = []
        sim.issue_request(0, at=39_989, on_done=done.append)  # dispatches to b at 39 999
        sim.issue_request(1, at=39_990, on_done=done.append)  # dispatches exactly at 40 000
        sim.run_until(None, schedule)
        by_user = {r.user: r for r in done}
        assert by_user[0].hops[0][2] == 15 + 50
        assert by_user[1].hops[0][2] == 15

    def test_kill_on_entry_service_fails_root_requests(self):
        from oxn.config import Kill

        sue = sue_single()
        treatment = Kill(name="kill_api", target="api", start_ms=20_000, end_ms=40_000)
        sim = init_sim(sue, 41)
        done = []
        sim.issue_request(0, at=25_000, on_done=done.append)
        sim.run_until(None, compile_schedule([treatment]))
        assert done[0].outcome == "error"
        assert done[0].end_ms - done[0].start_ms == 300  # entry error response time
        assert sim.log.span_opens == []

    def test_timeout_records_exact_client_timeout(self):
        sue = sue_chain(0.0)
        schedule = self.make_schedule("pause")
        sim = init_sim(sue, 37)
        done = []
        sim.issue_request(0, at=25_000, on_done=done.append)
        sim.run_until(None, schedule)
        assert done[0].outcome == "timeout"
        assert done[0].end_ms - done[0].start_ms == CLIENT_TIMEOUT_MS

from __future__ import annotations

import copy
import gc
import hashlib
import heapq
import json
import pickle
from array import array
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oxn.config import (
    TREATMENT_KINDS,
    CallEdge,
    ExperimentSpec,
    Fault,
    Kill,
    LognormalSpec,
    MetricPointSpec,
    MetricSamplingInterval,
    NetworkDelay,
    PacketCorruption,
    PacketLoss,
    Pause,
    ResponseVariableSpec,
    SPAN_BITS,
    ServiceSpec,
    Stress,
    SueSpec,
    TraceConfigSpec,
    TracingSamplingRate,
    TracingSamplingStrategy,
    WorkloadSpec,
    parse_experiment_file,
    validate,
)
from oxn import simulator
from oxn.report import report_json
from oxn.runner import ExperimentError, run_experiment, simulate_repetition
from oxn.simulator import (
    _BLOCK_MAX,
    _BLOCK_MIN,
    _EV_ARRIVAL,
    _EV_PROC_DONE,
    _EV_TIMEOUT,
    _EV_USER,
    CLIENT_TIMEOUT_MS,
    MAX_RETRANSMITS,
    OUTCOMES,
    RETRANSMIT_PENALTY_MS,
    _SENTINEL,
    BernoulliDraws,
    LognormalDraws,
    RawEventLog,
    RequestRecord,
    RequestTable,
    drive,
    rng_stream,
)

from conftest import (
    SpanRow, cpu_rows, experiment_path, new_sim, ok_closes, pending_events, small_spec, span_rows, surge_sim,
    tiny_service, whole,
)


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


def chain_hops(sim, sue) -> list[tuple[SpanRow, int]]:
    """(a's span, hop latency) per call of a sigma=0 chain a->b, the hop
    latency being b's span end minus the moment a dispatched the call. a
    gives every call the same service time and serves them first in, first
    out, so it finishes processing them in the order they arrived: its k-th
    CPU slice is the dispatch of its k-th span's call."""
    rows = span_rows(whole(sim.log).spans, sue)
    a_spans = [r.span_id for r in rows if r.service == "a"]
    a_done = [t for service, t, _ in cpu_rows(sim.log, sue) if service == "a"]
    dispatched = dict(zip(a_spans, a_done))
    by_id = {r.span_id: r for r in rows}
    return [(by_id[r.parent], r.end_ms - dispatched[r.parent]) for r in rows if r.parent >= 0]


def run_workload(sue, seed, users, duration_ms, think_ms, faults=(), ramp_up_ms=0, sigma=0.0):
    sim = new_sim(sue, seed, faults)
    drive(
        sim,
        WorkloadSpec(
            users=users,
            duration_ms=duration_ms,
            think_time=LognormalSpec(think_ms, sigma),
            ramp_up_ms=ramp_up_ms,
        ),
    )
    sim.run_until(None)
    return sim


class TestBasics:
    def test_single_service_deterministic_latency(self):
        sim = new_sim(sue_single(), seed=1)
        sim.issue_request(0, at=0)
        sim.run_until(None)
        (record,) = sim.records
        assert (record.end_ms - record.start_ms, record.outcome) == (10, "ok")

    def test_chain_latency_is_additive(self):
        sue = sue_chain()
        sim = new_sim(sue, seed=1)
        sim.issue_request(0, at=0)
        sim.run_until(None)
        (record,) = sim.records
        assert record.end_ms - record.start_ms == 25
        # a serves 10 ms, the edge takes 5 ms, b serves 10 ms and both close at 25
        rows = span_rows(whole(sim.log).spans, sue)
        assert [(r.service, r.start_ms, r.end_ms) for r in rows] == [("a", 0, 25), ("b", 15, 25)]
        assert chain_hops(sim, sue) == [(rows[0], 15)]

    def test_issue_in_the_past_rejected(self):
        sim = new_sim(sue_single(), seed=1)
        sim.issue_request(0, at=100)
        sim.run_until(200)
        with pytest.raises(ValueError):
            sim.issue_request(0, at=100)

    def test_clock_is_monotone_and_reaches_target(self):
        sim = new_sim(sue_single(), seed=1)
        sim.issue_request(0, at=50)
        sim.run_until(1000)
        assert sim.now == 1000


class TestRequestTable:
    def test_rows_come_in_finish_order_with_their_outcomes(self):
        """Requests issued latest first finish first: an ok at 10 ms, an
        error from the killed service and a timeout at the paused one."""
        faults = [Kill(name="k", target="api", start_ms=1000, end_ms=2000),
                  Pause(name="p", target="api", start_ms=5000, end_ms=20_000)]
        sim = new_sim(sue_single(), 1, faults)
        for user, at in enumerate((6000, 1500, 0)):
            sim.issue_request(user, at=at)
        sim.run_until(None)
        assert len(sim.records) == 3
        assert list(sim.records) == [
            RequestRecord(2, 2, 0, 10, "ok"),
            RequestRecord(1, 1, 1500, 1800, "error"),
            RequestRecord(0, 0, 6000, 6000 + CLIENT_TIMEOUT_MS, "timeout"),
        ]
        assert sim.records.outcome == array("b", [0, 1, 2])
        assert [OUTCOMES[code] for code in sim.records.outcome] == ["ok", "error", "timeout"]

    def test_an_empty_table(self):
        records = new_sim(sue_single(), 1).records
        assert len(records) == 0 and list(records) == [] and records == RequestTable()


class TestDeterminism:
    def test_same_seed_identical_event_log(self):
        sue = sue_chain(0.4)
        runs = [run_workload(sue, 9, 5, 30_000, 400, sigma=0.3) for _ in range(2)]
        assert runs[0].log.spans == runs[1].log.spans
        assert cpu_rows(runs[0].log, sue) == cpu_rows(runs[1].log, sue)
        assert runs[0].records == runs[1].records

    def test_different_seeds_diverge(self):
        sue = sue_chain(0.4)
        a, b = (run_workload(sue, seed, 5, 30_000, 400, sigma=0.3) for seed in (1, 2))
        assert span_rows(whole(a.log).spans, sue) != span_rows(whole(b.log).spans, sue)

    def test_rng_streams_are_stable(self):
        assert rng_stream(7, "x").random() == rng_stream(7, "x").random()
        assert rng_stream(7, "x").random() != rng_stream(7, "y").random()

    @pytest.mark.parametrize("label", ["", "user:0", "sërvice:ü→"])
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -1, 2**64 + 5])
    def test_stream_state_is_that_of_the_list_seed(self, seed, label):
        """The uint32 words ``rng_stream`` seeds with give the state that the
        list ``[seed % 2**64, *label_words]`` gives, for seeds whose high word
        is zero or not, and for seeds outside [0, 2**64) taken modulo 2**64."""
        digest = hashlib.sha256(label.encode("utf-8")).digest()
        words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
        listed = np.random.PCG64(np.random.SeedSequence([seed % 2**64, *words]))
        assert rng_stream(seed, label).bit_generator.state == listed.state


def scalar_lognormal_ms(rng, spec) -> int:
    """One duration drawn on its own, as the simulator drew them before it
    drew in blocks."""
    if spec.sigma == 0.0:
        return int(round(spec.median_ms))
    return max(0, int(round(spec.median_ms * float(np.exp(spec.sigma * rng.standard_normal())))))


# Values handed out by the time the blocks stop doubling: _BLOCK_MIN +
# 2 * _BLOCK_MIN + ... + _BLOCK_MAX, the maximum being the minimum times a power of two.
DOUBLED = 2 * _BLOCK_MAX - _BLOCK_MIN


class TestLognormalDraws:
    # past the last doubling (64 + 128 + ... + 1024 = 1984 values), then two refills of _BLOCK_MAX
    N = 4000

    # At sigma 0 the half-way medians pin rounding half to even: 2.5 gives 2, 3.5 gives 4.
    @pytest.mark.parametrize("median_ms", [2.5, 3.5, 5, 15, 12000])
    @pytest.mark.parametrize("sigma", [0.0, 0.25, 0.58, 1.35])
    def test_matches_scalar_draws(self, median_ms, sigma):
        spec = LognormalSpec(median_ms, sigma)
        draws = LognormalDraws(rng_stream(3, "service:x"), spec)
        reference = rng_stream(3, "service:x")
        assert [draws.draw() for _ in range(self.N)] == [scalar_lognormal_ms(reference, spec) for _ in range(self.N)]

    @pytest.mark.parametrize("fraction", [0.25, 0.5, 0.9])
    def test_decisions_match_scalar_draws(self, fraction):
        """An edge's extra calls: each 0/1 decision is the scalar
        ``random() < fraction``, one for one, across every refill."""
        draws = BernoulliDraws(rng_stream(3, "edge:a->b:calls"), fraction)
        reference = rng_stream(3, "edge:a->b:calls")
        assert [draws.draw() for _ in range(self.N)] == [int(reference.random() < fraction) for _ in range(self.N)]

    def test_only_an_edge_with_a_fraction_of_a_call_has_a_decision_stream(self):
        sue = SueSpec(
            services=tuple(tiny_service(s) for s in "abcd"),
            edges=(CallEdge("a", "b", 1.0, 1), CallEdge("a", "c", 2.0, 1), CallEdge("a", "d", 1.25, 1)),
        )
        b, c, d = new_sim(sue, 0).services["a"].edges
        assert b.extra_calls is None and c.extra_calls is None
        assert (d.whole, d.extra_calls.probability) == (1, 0.25)

    def test_block_schedule(self):
        assert _BLOCK_MAX % _BLOCK_MIN == 0 and (_BLOCK_MAX // _BLOCK_MIN).bit_count() == 1
        assert DOUBLED + _BLOCK_MAX < self.N <= DOUBLED + 2 * _BLOCK_MAX

    @pytest.mark.parametrize("n", [1, _BLOCK_MIN, _BLOCK_MIN + 1, DOUBLED, DOUBLED + 1, N])
    def test_state_after_refills_is_that_of_the_normals_drawn(self, n):
        """The state held after ``n`` values is a generator's that drew every
        block so far, _BLOCK_MIN + 2 * _BLOCK_MIN + ... normals, at once."""
        draws = LognormalDraws(rng_stream(3, "service:x"), LognormalSpec(15, 0.58))
        for _ in range(n):
            draws.draw()
        drawn, block = 0, _BLOCK_MIN
        while drawn < n:
            drawn, block = drawn + block, min(2 * block, _BLOCK_MAX)
        reference = rng_stream(3, "service:x")
        reference.standard_normal(drawn)
        assert draws.state == reference.bit_generator.state

    @staticmethod
    def position(draws: LognormalDraws) -> tuple[array, int]:
        """The block that ``draws.it`` reads and the index of its next value:
        an array iterator reduces to ``(iter, (array,), index)``."""
        _, (block,), index = draws.it.__reduce__()
        return block, index

    STREAMS = {  # a stream of each kind, its scalar draw and its block's typecode
        "lognormal": (lambda rng: LognormalDraws(rng, LognormalSpec(15, 0.58)),
                      lambda rng: scalar_lognormal_ms(rng, LognormalSpec(15, 0.58)), "q"),
        "bernoulli": (lambda rng: BernoulliDraws(rng, 0.5), lambda rng: int(rng.random() < 0.5), "b"),
    }

    @pytest.mark.parametrize("kind", sorted(STREAMS))
    @pytest.mark.parametrize("fork", [copy.deepcopy, lambda d: pickle.loads(pickle.dumps(d))])
    def test_fork_of_a_partly_consumed_buffer_runs_on(self, fork, kind):
        stream, scalar, typecode = self.STREAMS[kind]
        draws = stream(rng_stream(5, "user:0"))
        reference = rng_stream(5, "user:0")
        used = _BLOCK_MIN + 3  # 3 of the second block's 2 * _BLOCK_MIN are used
        head = [draws.draw() for _ in range(used)]
        block, index = self.position(draws)
        assert len(draws.values) == 2 * _BLOCK_MIN and block is draws.values and index == 3
        copied = fork(draws)
        assert copied.values is not draws.values and copied.values == draws.values
        assert copied.values.typecode == typecode
        # The copy's iterator reads the copy's block, one buffer, from the same value on.
        block, index = self.position(copied)
        assert block is copied.values and index == 3
        tail = [scalar(reference) for _ in range(used + 400)]
        assert head == tail[:used]
        assert [copied.draw() for _ in range(400)] == tail[used:]
        assert [draws.draw() for _ in range(400)] == tail[used:]

    def test_every_user_of_a_baseline_run_refills_once(self, baseline_spec):
        """A user's whole run fits in its first block: each of the baseline's
        users, in each fault run of its first repetition at seed 0, drew
        think times and refilled exactly once (a refill doubles the block)."""
        spec = baseline_spec
        assert spec.seed == 0
        for _, run in simulate_repetition(spec, 0):
            streams = run._think_times.values()
            assert len(streams) == spec.workload.users
            assert all(len(d.values) == _BLOCK_MIN and d.block == 2 * _BLOCK_MIN for d in streams)
            assert all(self.position(d)[0] is d.values for d in streams)


def with_backend(sue: SueSpec, **changes) -> SueSpec:
    """``small_spec``'s sue with ``changes`` made to its backend."""
    return replace(sue, services=(sue.services[0], replace(sue.services[1], **changes)))


class TestSimulatedTimeRange:
    """The log holds times as int64: a run whose simulated time passes
    2**63 - 1 ms fails with one error that says so, wherever the time comes
    from. ``validate`` refuses the first three sues; the simulator is given
    them directly."""

    @pytest.mark.parametrize("change", [
        lambda sue: replace(sue, edges=(replace(sue.edges[0], latency_ms=2**63),)),
        lambda sue: with_backend(sue, service_time=LognormalSpec(1e19, 0.0)),
        lambda sue: with_backend(sue, service_time=LognormalSpec(1e19, 0.5)),
        lambda sue: with_backend(sue, service_time=LognormalSpec(8, 1000.0)),  # draws overflow to inf
    ], ids=["edge_latency", "sigma_0", "sigma_0.5", "inf"])
    def test_fails_with_one_clear_error(self, change):
        spec = small_spec(repetitions=1)
        with pytest.raises(ValueError, match=r"simulated time passed 2\*\*63 - 1 ms"):
            list(simulate_repetition(replace(spec, sue=change(spec.sue)), 0))

    def test_a_valid_spec_whose_draws_overflow_fails_in_its_run(self):
        """Sigma can carry any median past 2**63 ms, so a valid spec can still fail so."""
        spec = small_spec(repetitions=1)
        spec = replace(spec, sue=with_backend(spec.sue, service_time=LognormalSpec(8, 1000.0)))
        assert validate(spec) == []
        with pytest.raises(ExperimentError, match=r"simulated time passed 2\*\*63 - 1 ms"):
            run_experiment(spec)


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
        sim = new_sim(sue, 3)
        for i in range(3):
            sim.issue_request(i, at=i)
        sim.run_until(None)
        assert [r.user for r in sim.records] == [0, 1, 2]
        assert [r.end_ms for r in sim.records] == [100, 200, 300]


class TestInvariants:
    def test_span_nesting_and_event_order(self):
        sue = sue_chain(0.4)
        sim = run_workload(sue, 11, 8, 60_000, 300, sigma=0.3)
        rows = span_rows(whole(sim.log).spans, sue)
        for stamps in ([r.start_ms for r in rows], whole(sim.log).cpu_t_ms.tolist()):
            assert stamps == sorted(stamps)

        spans = {r.span_id: r for r in rows}
        assert len(spans) == len(rows)
        for span in rows:
            assert span.ok in (0, 1)
            assert span.end_ms >= span.start_ms
            if span.parent >= 0:
                parent = spans[span.parent]
                assert parent.start_ms <= span.start_ms
                assert span.end_ms <= parent.end_ms

    def test_cpu_accounting_exact_without_faults(self):
        sue = sue_chain(0.3)
        sim = run_workload(sue, 13, 5, 60_000, 400, sigma=0.2)
        for service in ("a", "b"):
            total = sum(ms for s, _, ms in cpu_rows(sim.log, sue) if s == service)
            processed = sum(1 for s, _ in ok_closes(sim.log, sue) if s == service)
            assert total == pytest.approx(5.0 * processed)

    def test_stress_increases_cpu_beyond_nominal(self):
        from oxn.config import Stress

        stress = Stress(name="s", target="b", start_ms=10_000, end_ms=50_000, factor=3.0)
        sue = sue_chain(0.0)
        sim = run_workload(sue, 13, 5, 60_000, 400, faults=[stress])
        total = sum(ms for s, _, ms in cpu_rows(sim.log, sue) if s == "b")
        processed = sum(1 for s, _ in ok_closes(sim.log, sue) if s == "b")
        assert total > 5.0 * processed
        in_window = [ms for s, t, ms in cpu_rows(sim.log, sue) if s == "b" and 10_000 < t <= 50_000]
        assert max(in_window) == pytest.approx(15.0)


class TestFaults:
    def make_faults(self, kind, **params):
        from oxn.config import TREATMENT_KINDS

        return [TREATMENT_KINDS[kind](name=f"{kind}_b", target="b", start_ms=20_000, end_ms=40_000, **params)]

    def test_faults_of_one_millisecond_apply_in_the_order_added(self):
        """Two stresses of one service over one window: the one added last
        sets the factor, as the faults' sequence numbers order them."""
        sue = sue_chain(0.0)
        low, high = (Stress(name=f"x{factor:.0f}", target="b", start_ms=10_000, end_ms=50_000, factor=factor)
                     for factor in (2.0, 3.0))

        def cpu(*faults):
            return cpu_rows(run_workload(sue, 13, 5, 60_000, 400, faults=faults).log, sue)

        assert cpu(low, high) == cpu(high) != cpu(low) == cpu(high, low)

    def test_pause_queues_without_processing(self):
        sue = sue_chain(0.0)
        sim = run_workload(sue, 17, 5, 60_000, 500, faults=self.make_faults("pause"))
        b_done = [t for s, t in ok_closes(sim.log, sue) if s == "b"]
        assert not [t for t in b_done if 20_000 < t < 40_000]
        assert [t for t in b_done if t < 20_000]
        assert [t for t in b_done if t >= 40_000]
        b_cpu_window = [ms for s, t, ms in cpu_rows(sim.log, sue) if s == "b" and 20_000 < t < 40_000]
        assert b_cpu_window == []

    def test_pause_freezes_in_flight_processing(self):
        sue = SueSpec(
            services=(tiny_service("a", 4, 10, 0.0, 5), tiny_service("b", 4, 5000, 0.0, 5)),
            edges=(CallEdge("a", "b", 1.0, 5),),
            metric_points=(),
            trace_config=TraceConfigSpec(),
        )
        sim = new_sim(sue, 3, self.make_faults("pause"))
        sim.issue_request(0, at=18_985)  # reaches b at 19_000
        sim.run_until(30_000)
        assert sim.services["b"].frozen
        # Copies taken while the call is frozen resume it alike.
        for fork in [copy.deepcopy(sim), pickle.loads(pickle.dumps(sim)), sim]:
            fork.run_until(None)
            # 1000 ms of service happened before the pause; the rest resumes at 40 s.
            closed = [s for s in span_rows(whole(fork.log).spans, sue) if s.ok]
            b_close = max(closed, key=lambda s: s.end_ms)
            assert b_close.end_ms == 40_000 + 4000

    def test_completion_scheduled_before_a_short_pause_is_ignored(self):
        from oxn.config import Pause

        sue = SueSpec(
            services=(tiny_service("a", 4, 10, 0.0, 5), tiny_service("b", 4, 5000, 0.0, 5)),
            edges=(CallEdge("a", "b", 1.0, 5),),
            metric_points=(),
            trace_config=TraceConfigSpec(),
        )
        pause = Pause(name="pause_b", target="b", start_ms=20_000, end_ms=21_000)
        sim = new_sim(sue, 3, [pause])
        sim.issue_request(0, at=18_985)  # reaches b at 19_000, due to finish at 24_000
        sim.run_until(None)
        # 4000 ms remain at the pause and resume at 21 000; the completion
        # event for 24 000 is still on the heap and must change nothing.
        (b_span,) = [s for s in span_rows(whole(sim.log).spans, sue) if s.service == "b"]
        assert (b_span.start_ms, b_span.end_ms, b_span.ok) == (19_000, 25_000, True)
        assert [row for row in cpu_rows(sim.log, sue) if row[0] == "b"] == [("b", 25_000, 5.0)]
        (record,) = sim.records
        assert (record.outcome, record.end_ms) == ("ok", 25_000)

    def test_kill_fails_new_requests_after_error_response_time(self):
        sue = sue_chain(0.0)
        sim = new_sim(sue, 3, self.make_faults("kill"))
        sim.issue_request(0, at=25_000)
        sim.run_until(None)
        (record,) = sim.records
        assert record.outcome == "error"
        # a processes 10 ms, edge 5 ms, then b's error response time (300 ms)
        assert record.end_ms - record.start_ms == 10 + 5 + 300
        rows = span_rows(whole(sim.log).spans, sue)
        assert not [e for e in rows if e.service == "b" and 20_000 <= e.start_ms < 40_000]

    def test_kill_drops_in_flight_work_at_window_start(self):
        sue = SueSpec(
            services=(tiny_service("a", 4, 10, 0.0, 5), tiny_service("b", 4, 5000, 0.0, 5)),
            edges=(CallEdge("a", "b", 1.0, 5),),
            metric_points=(),
            trace_config=TraceConfigSpec(),
        )
        sim = new_sim(sue, 3, self.make_faults("kill"))
        sim.issue_request(0, at=18_985)
        sim.run_until(None)
        (record,) = sim.records
        assert (record.outcome, record.end_ms) == ("error", 20_000)
        assert not [ms for s, t, ms in cpu_rows(sim.log, sue) if s == "b"]

    def test_network_delay_bounds_per_hop(self):
        sue = sue_chain(0.0)
        faults = self.make_faults("network_delay", delay_min_ms=10, delay_max_ms=90)
        sim = run_workload(sue, 19, 5, 60_000, 500, faults=faults)
        in_window = [lat for a, lat in chain_hops(sim, sue) if 20_000 <= a.start_ms < 39_000]
        outside = [lat for a, lat in chain_hops(sim, sue) if a.start_ms >= 41_000 or a.end_ms < 20_000]
        assert all(15 + 10 <= lat <= 15 + 90 for lat in in_window)
        assert len(set(in_window)) > 10  # actually drawing, not constant
        assert all(lat == 15 for lat in outside)

    def test_packet_loss_adds_retransmit_penalties(self):
        sue = sue_chain(0.0)
        faults = self.make_faults("packet_loss", probability=0.3)
        sim = run_workload(sue, 23, 5, 60_000, 500, faults=faults)
        in_window = [lat for a, lat in chain_hops(sim, sue) if 20_000 <= a.start_ms < 39_000]
        assert in_window
        assert all((lat - 15) % 200 == 0 for lat in in_window)
        assert any(lat > 15 for lat in in_window)
        retransmit_cpu = [
            ms for s, t, ms in cpu_rows(sim.log, sue) if s == "b" and ms not in (5.0,)
        ]
        assert retransmit_cpu  # receiver-side stack work shows up as extra busy time
        stamps = whole(sim.log).cpu_t_ms.tolist()
        assert stamps == sorted(stamps)

    def test_packet_loss_at_probability_one_retransmits_exactly_the_cap(self):
        """Every packet is lost, so the hop retransmits MAX_RETRANSMITS (100)
        times and no more: b's span opens the 5 ms latency plus 100 x 200 ms
        after a's processing ends, and b's receiver-side CPU row is
        100 x 100 ms."""
        sue = sue_chain(0.0)
        sim = new_sim(sue, 3, self.make_faults("packet_loss", probability=1.0))
        sim.issue_request(0, at=25_000)  # a processes it from 25 000 to 25 010
        sim.run_until(None)
        _, b = span_rows(whole(sim.log).spans, sue)
        assert b.start_ms == 25_010 + 5 + MAX_RETRANSMITS * RETRANSMIT_PENALTY_MS == 45_015
        assert [row for row in cpu_rows(sim.log, sue) if row[0] == "b"] == [("b", 45_015, 10_000.0),
                                                                            ("b", 45_025, 5.0)]

    def test_a_pause_end_starts_a_queued_call_only_on_a_free_worker(self):
        """b has one worker. At the pause's start it holds one call in
        processing, frozen with 1000 ms left, and one queued. At the pause's
        end the frozen call resumes and keeps the worker, so the queued call
        starts only when the frozen one completes."""
        sue = SueSpec(
            services=(tiny_service("a", 4, 10, 0.0, 5), tiny_service("b", 1, 2000, 0.0, 5)),
            edges=(CallEdge("a", "b", 1.0, 5),),
            metric_points=(),
            trace_config=TraceConfigSpec(),
        )
        sim = new_sim(sue, 3, [Pause(name="pause_b", target="b", start_ms=20_000, end_ms=30_000)])
        sim.issue_request(0, at=18_985)  # reaches b at 19 000, due to finish at 21 000
        sim.issue_request(1, at=19_085)  # reaches b at 19 100 and queues
        sim.run_until(30_000)
        b = sim.services["b"]
        assert (b.busy, len(b.queue)) == (1, 1)
        sim.run_until(None)
        assert [row for row in cpu_rows(sim.log, sue) if row[0] == "b"] == [("b", 31_000, 5.0), ("b", 33_000, 5.0)]

    def test_packet_corruption_produces_errors(self):
        sue = sue_chain(0.0)
        faults = self.make_faults("packet_corruption", probability=0.5)
        sim = run_workload(sue, 29, 5, 60_000, 500, faults=faults)
        in_window = [r for r in sim.records if 20_000 <= r.start_ms < 39_000]
        outcomes = {r.outcome for r in in_window}
        assert "error" in outcomes
        pre_window = [r for r in sim.records if r.end_ms < 20_000]
        assert all(r.outcome == "ok" for r in pre_window)

    def test_effects_revert_exactly_at_window_end(self):
        sue = sue_chain(0.0)
        faults = self.make_faults("network_delay", delay_min_ms=50, delay_max_ms=50)
        sim = new_sim(sue, 31, faults)
        sim.issue_request(0, at=39_989)  # dispatches to b at 39 999
        sim.issue_request(1, at=39_990)  # dispatches exactly at 40 000
        sim.run_until(None)
        by_user = {a.trace: lat for a, lat in chain_hops(sim, sue)}  # request i is user i's
        assert by_user[0] == 15 + 50
        assert by_user[1] == 15

    def test_kill_on_entry_service_fails_root_requests(self):
        from oxn.config import Kill

        sue = sue_single()
        treatment = Kill(name="kill_api", target="api", start_ms=20_000, end_ms=40_000)
        sim = new_sim(sue, 41, [treatment])
        sim.issue_request(0, at=25_000)
        sim.run_until(None)
        (record,) = sim.records
        assert record.outcome == "error"
        assert record.end_ms - record.start_ms == 300  # entry error response time
        assert sim.log.span_count() == 0

    def test_timeout_records_exact_client_timeout(self):
        sue = sue_chain(0.0)
        sim = new_sim(sue, 37, self.make_faults("pause"))
        sim.issue_request(0, at=25_000)
        sim.run_until(None)
        (record,) = sim.records
        assert record.outcome == "timeout"
        assert record.end_ms - record.start_ms == CLIENT_TIMEOUT_MS

    @pytest.mark.parametrize("service_ms, outcome", [(CLIENT_TIMEOUT_MS, "timeout"), (CLIENT_TIMEOUT_MS - 1, "ok")])
    def test_close_at_the_client_timeout_is_a_timeout(self, service_ms, outcome):
        # The timeout's sequence number is taken with the arrival's, so it pops
        # ahead of a completion at the same millisecond.
        sim = new_sim(sue_single(median_ms=service_ms), seed=1)
        sim.issue_request(0, at=100)
        sim.run_until(None)
        (record,) = sim.records
        assert (record.outcome, record.end_ms) == (outcome, 100 + service_ms)


# sha256 of the raw event log of experiments/baseline.yaml at seed 0, one run
# per fault: its three faults plus kill, stress and packet corruption on the
# same target and window, and a kill of the entry service in that window. The document lists each span once (in open order,
# closed fields included), each request record and the CPU slices, so it does
# not depend on how the log stores them. Request-counter increments are not
# listed: they are the (service, end) of the ok spans. Nor are per-request
# hops: a hop's latency is its callee's span start minus its caller's.
EVENT_LOG_DIGESTS = {
    "pause": "5ba9ddac517f66cd748b6b3562465fe331431c232cc624c275cfe16dacdca750",
    "packet_loss": "311e1376eeb6ad5fabbc61e07f5bc3de55b84c503a0fa70bb7ea51b9e47a8fd8",
    "network_delay": "4348f5628ac5ade91d9b9beca4b4e9e1bc0fe332b6fa39a7ddd49754bed8f705",
    "kill": "794cc383a163199aca9ebbfaef2d5357c461745387c8070a3c9e5a02049086da",
    "stress": "e8cae208cb2a04d858a00f7490c880934825ce966345029fe742c10d6a146868",
    "corrupt": "f86372f99a6ba50c119a73afd81ac73a35c86bd9b961a02c17e461269279414a",
    "kill_entry": "7955c6745e300e3cde7fc005032d26e9c1753fabb442bc9b9dfd9dc814a4e34f",
}


def baseline_faults():
    """The baseline spec and its faults by kind, plus kill, stress and
    corruption on the same target and window, and ``kill_entry``: a kill of
    the entry service, so its requests fail before any span opens."""
    from oxn.config import Kill, PacketCorruption, Stress

    spec = parse_experiment_file(experiment_path("baseline"))
    faults = {f.kind: f for f in spec.fault_treatments()}
    window = dict(target="recommendation", start_ms=250_000, end_ms=490_000)
    faults["kill"] = Kill(name="kill_recommendation", **window)
    faults["stress"] = Stress(name="stress_recommendation", factor=3.0, **window)
    faults["corrupt"] = PacketCorruption(name="corrupt_recommendation", probability=0.1, **window)
    faults["kill_entry"] = Kill(name="kill_frontend", **{**window, "target": "frontend"})
    return spec, faults


def baseline_sim(spec, fault, seed=0):
    sim = new_sim(spec.sue, seed, [fault])
    drive(sim, spec.workload)
    return sim


def event_log_digest(sim, sue) -> str:
    doc = {
        "spans": [
            [s.trace, s.span_id, s.parent, s.service, s.start_ms, s.end_ms, "ok" if s.ok else "error"]
            for s in span_rows(whole(sim.log).spans, sue)
        ],
        "records": [
            [r.request_id, r.user, r.start_ms, r.end_ms, r.outcome]
            for r in sim.records
        ],
        "cpu_busy": [list(e) for e in cpu_rows(sim.log, sue)],
    }
    return hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode()).hexdigest()


# sha256 of the raw event log of ``surge_sim``'s run, listed as for
# ``EVENT_LOG_DIGESTS``.
SURGE_EVENT_LOG_DIGEST = "acca6fa63bb0a9e72a2e5ae91747e733d35ef90368357c5eea355707565d1373"


def overlapping_inbound_faults() -> list[Fault]:
    """Faults on the inbound edges of two services, in overlapping windows:
    on ``recommendation`` a delay, a loss that starts later, and a second
    delay later still, whose range is not the first's, so the order in which
    the two delays draw from one edge's stream shows in the log; on
    ``product-catalog``, which ``recommendation`` calls, a delay."""
    return [
        NetworkDelay(name="delay_recommendation", target="recommendation", start_ms=250_000, end_ms=490_000,
                     delay_min_ms=0, delay_max_ms=90),
        PacketLoss(name="loss_recommendation", target="recommendation", start_ms=300_000, end_ms=450_000,
                   probability=0.15),
        NetworkDelay(name="delay_recommendation_late", target="recommendation", start_ms=350_000, end_ms=520_000,
                     delay_min_ms=100, delay_max_ms=150),
        NetworkDelay(name="delay_product_catalog", target="product-catalog", start_ms=200_000, end_ms=400_000,
                     delay_min_ms=10, delay_max_ms=30),
    ]


# sha256 of the raw event log of experiments/baseline.yaml at seed 0 under
# ``overlapping_inbound_faults``, listed as for ``EVENT_LOG_DIGESTS`` and
# computed when every active inbound fault sat in one list of the state.
OVERLAPPING_EVENT_LOG_DIGEST = "7ba36fd5d71e146b09c85ac2d5bf07b8babe1456e16b68ae1f4c0699bbff2454"


class TestGoldenEventLog:
    @pytest.mark.parametrize("fault", sorted(EVENT_LOG_DIGESTS))
    def test_event_log_digest(self, fault):
        spec, faults = baseline_faults()
        sim = baseline_sim(spec, faults[fault])
        sim.run_until(None)
        assert event_log_digest(sim, spec.sue) == EVENT_LOG_DIGESTS[fault]

    def test_overlapping_inbound_faults_event_log_digest(self):
        spec = parse_experiment_file(experiment_path("baseline"))
        sim = new_sim(spec.sue, 0, overlapping_inbound_faults())
        drive(sim, spec.workload)
        sim.run_until(None)
        assert event_log_digest(sim, spec.sue) == OVERLAPPING_EVENT_LOG_DIGEST

    def test_many_user_event_log_digest(self):
        spec, sim = surge_sim()
        sim.run_until(None)
        assert (len(sim.records), sum(r.outcome == "timeout" for r in sim.records)) == (2255, 53)
        assert event_log_digest(sim, spec.sue) == SURGE_EVENT_LOG_DIGEST
        # The log is held in bounded chunks, whatever the allocator does with them.
        assert len(sim.log.spans) == len(sim.log.cpu) > 1
        assert max(len(chunk.span_id) for chunk in sim.log.spans) <= 2 * simulator._CHUNK_ROWS
        assert max(len(service) for service, _, _ in sim.log.cpu) <= 2 * simulator._CHUNK_ROWS

    def test_many_user_log_holds_services_in_one_byte_and_draws_as_int64(self):
        """The six-service mesh's service columns are one byte wide in every
        chunk, every column is typed, and every duration buffer left after
        the run is an ``array("q")``, not a list of Python ints."""
        _, sim = surge_sim()
        sim.run_until(None)
        assert len(sim.services) == 6
        assert {chunk.service.itemsize for chunk in sim.log.spans} == {1}
        assert {service.itemsize for service, _, _ in sim.log.cpu} == {1}
        assert_typed(sim.log, "B")
        draws = [svc.service_times for svc in sim.services.values()] + list(sim._think_times.values())
        assert len(draws) == 6 + 2000
        assert all(type(d.values) is array and d.values.typecode == "q" for d in draws)

    @pytest.mark.parametrize("bound", [1, 3, 7])
    def test_the_chunk_bound_changes_no_event_log(self, bound, monkeypatch):
        """The chunk bound decides only where chunks end: at tiny bounds
        every pinned event log keeps its digest."""
        monkeypatch.setattr(simulator, "_CHUNK_ROWS", bound)
        spec, faults = baseline_faults()
        for fault, expected in EVENT_LOG_DIGESTS.items():
            sim = baseline_sim(spec, faults[fault])
            sim.run_until(None)
            assert event_log_digest(sim, spec.sue) == expected, fault
        spec, sim = surge_sim()
        sim.run_until(None)
        assert len(sim.log.spans) > 1000
        assert event_log_digest(sim, spec.sue) == SURGE_EVENT_LOG_DIGEST

    @pytest.mark.parametrize("bound", [1, 3, 7])
    def test_a_fork_taken_mid_chunk_runs_on_to_the_single_fault_log(self, bound, monkeypatch):
        """A fork of the fault-free prefix, taken at the first millisecond of
        a chunk of the single-fault run, writes the rest of that chunk, and
        its log, chunks included, is the single-fault run's."""
        monkeypatch.setattr(simulator, "_CHUNK_ROWS", bound)
        spec, faults = baseline_faults()
        fault = faults["pause"]
        single = baseline_sim(spec, fault)
        single.run_until(None)
        k, chunk = next((k, c) for k, c in reversed(list(enumerate(single.log.spans)))
                        if c.start_ms[0] < c.start_ms[-1] < fault.start_ms)
        sim = new_sim(spec.sue, 0)
        drive(sim, spec.workload)
        sim.run_until(chunk.start_ms[0])
        assert len(sim.log.spans) == k + 1 and 0 < len(sim.log.spans[k].span_id) < len(chunk.span_id)
        fork = sim.fork()
        fork.add_fault(fault)
        fork.run_until(None)
        assert fork.log == single.log and fork.records == single.records
        assert event_log_digest(fork, spec.sue) == EVENT_LOG_DIGESTS["pause"]

    @pytest.mark.parametrize("bound", [None, 1, 7])
    def test_a_run_in_steps_and_its_fork_give_the_one_call_log(self, bound, monkeypatch):
        """Run in 997 ms steps, with a fork taken mid-chunk and run on in the
        same steps, both give the log of one call, chunk for chunk, and its
        records; after every return every column of the log is typed."""
        if bound is not None:
            monkeypatch.setattr(simulator, "_CHUNK_ROWS", bound)
        spec, faults = baseline_faults()
        one_call = baseline_sim(spec, faults["pause"])
        one_call.run_until(None)
        sims = [baseline_sim(spec, faults["pause"])]
        for t in [*range(996, spec.workload.duration_ms + CLIENT_TIMEOUT_MS, 997), None]:
            for sim in sims:
                chunks = len(sim.log.spans)
                sim.run_until(t)
                assert_typed(sim.log, "B", first=chunks - 1)
            k = len(sims[0].log.spans) - 1
            if len(sims) == 1 and 0 < len(sims[0].log.spans[k].span_id) < len(one_call.log.spans[k].span_id):
                sims.append(sims[0].fork())
        assert len(sims) == 2
        for sim in sims:
            assert sim.log == one_call.log and sim.records == one_call.records
            assert_typed(sim.log, "B")

    @pytest.mark.parametrize("change", [
        lambda sue: replace(sue, edges=(replace(sue.edges[0], latency_ms=2**63),)),
        lambda sue: with_backend(sue, service_time=LognormalSpec(8, 1000.0)),
    ], ids=["events_left", "draw_overflow"])
    @pytest.mark.parametrize("bound", [1, 7])
    def test_a_run_that_passes_the_int64_times_leaves_a_typed_log(self, change, bound, monkeypatch):
        """Sealing the log on the way out of a failed run keeps its error,
        whether it comes from the loop (a draw) or after it (events left)."""
        monkeypatch.setattr(simulator, "_CHUNK_ROWS", bound)
        spec = small_spec()
        sim = new_sim(change(spec.sue), 0)
        drive(sim, spec.workload)
        with pytest.raises(ValueError, match=r"simulated time passed 2\*\*63 - 1 ms"):
            sim.run_until(None)
        assert sim.log.span_count() > 0
        assert_typed(sim.log, "B")


def star_spec() -> ExperimentSpec:
    """A gateway and 299 leaves, each called on 2% of requests: service
    indices reach 299, past what one byte holds. Three users for 120 s,
    the gateway paused from 40 s to 80 s."""
    leaves = [f"leaf{i:03d}" for i in range(1, 300)]
    sue = SueSpec(
        services=(tiny_service("gateway", workers=4, median_ms=5, sigma=0.2, cpu_ms=2),
                  *(tiny_service(leaf, workers=2, median_ms=10, sigma=0.3, cpu_ms=3) for leaf in leaves)),
        edges=tuple(CallEdge("gateway", leaf, 0.02, 1) for leaf in leaves),
        metric_points=(
            MetricPointSpec("system_cpu", "cpu_gauge", "system", 5000, 5000),
            MetricPointSpec("leaf299_rpm", "request_counter", "leaf299", 5000, 5000),
        ),
        trace_config=TraceConfigSpec("probabilistic", 0.5),
    )
    return ExperimentSpec(
        name="star", seed=3, repetitions=1, sue=sue,
        workload=WorkloadSpec(users=3, duration_ms=120_000, think_time=LognormalSpec(300, 0.2), ramp_up_ms=1000),
        treatments=(Pause(name="pause_gateway", target="gateway", start_ms=40_000, end_ms=80_000),),
        responses=(
            ResponseVariableSpec("system_cpu", "metric", "system_cpu"),
            ResponseVariableSpec("leaf299_rpm", "metric", "leaf299_rpm"),
            ResponseVariableSpec("trace_duration_gateway", "trace_duration", "gateway"),
        ),
    )


# sha256 of ``star_spec``'s frozen-clock ``report_json``, computed when every
# service column was int64.
STAR_REPORT_DIGEST = "5b4891d8529d93bf50c484baf4271f83b19a26e0d39b1f8ce6caf61edcd48874"


class TestServiceColumns:
    def test_a_mesh_of_300_services_holds_them_in_two_bytes_and_keeps_its_report(self):
        spec = star_spec()
        (_, run), = simulate_repetition(spec, 0)
        assert {chunk.service.itemsize for chunk in run.log.spans} == {2}
        assert {service.itemsize for service, _, _ in run.log.cpu} == {2}
        assert max(max(chunk.service, default=0) for chunk in run.log.spans) > 255
        report = report_json(run_experiment(spec, frozen_clock=True))
        assert hashlib.sha256(report.encode()).hexdigest() == STAR_REPORT_DIGEST


def assert_typed(log: RawEventLog, service_code: str, first: int = 0) -> None:
    """Every column of the log's chunks from the ``first`` on is an ``array``
    of its declared typecode, services of ``service_code``: never a list."""
    for chunk in log.spans[first:]:
        assert [(type(c), c.typecode) for c in vars(chunk).values()] == [
            (array, code) for code in ("q", "q", service_code, "q", "q", "b")
        ]
    for columns in log.cpu[first:]:
        assert [(type(c), c.typecode) for c in columns] == [(array, code) for code in (service_code, "q", "d")]


def events(queue: list) -> list:
    """The events on a heap, without its one sentinel."""
    assert queue.count(_SENTINEL) == 1
    return [event for event in queue if event is not _SENTINEL]


def is_wakeup(event) -> bool:
    """A user's start or a root arrival: the events of ``SimState.wake``."""
    _, _, kind, payload = event
    return kind == _EV_USER or (kind == _EV_ARRIVAL and payload.parent is None)


class TestEventQueue:
    def test_one_client_timeout_on_the_heap_and_every_event_counted(self):
        spec, faults = baseline_faults()
        sim = baseline_sim(spec, faults["pause"])
        heap_alone_short = False
        heap_sizes = []
        for t in range(0, spec.workload.duration_ms + CLIENT_TIMEOUT_MS, 10_000):
            sim.run_until(t)
            heap, wakeups = events(sim._heap), events(sim._wakeups)
            assert sum(kind == _EV_TIMEOUT for _, _, kind, _ in heap) <= 1
            # No wake-up is on the main heap, and ``_wakeups`` holds nothing else.
            assert not any(is_wakeup(e) for e in heap)
            assert all(is_wakeup(e) for e in wakeups)
            # An open request has its arrival pending in ``_wakeups`` or, once
            # the arrival is handled, its client timeout queued.
            open_requests = sim._request_count - len(sim.records)
            waiting = sum(kind == _EV_ARRIVAL for _, _, kind, _ in wakeups)
            handled = sum(not request.done for _, _, _, request in sim._timeouts)
            assert open_requests == waiting + handled
            assert pending_events(sim) >= open_requests
            heap_alone_short |= len(heap) < open_requests
            heap_sizes.append(len(heap))
        assert heap_alone_short  # calls queued at the paused service have no other event
        # The heap is as deep as the work in flight, not as the 50 users.
        assert np.median(heap_sizes) <= 10
        sim.run_until(None)
        assert pending_events(sim) == 0
        assert sorted(r.request_id for r in sim.records) == list(range(sim._request_count))

    @staticmethod
    def assert_distinct_seqs(sim):
        """No two pending events share a sequence number, so none tie on
        ``(t, seq)``: over the heap, the wake-ups and every queued client
        timeout (the first is also on the heap)."""
        pending = {id(event): event for event in (*sim._heap, *sim._wakeups, *sim._timeouts)}.values()
        seqs = [seq for _, seq, _, _ in pending]
        assert len(set(seqs)) == len(seqs), sim.now

    def test_pending_events_hold_distinct_sequence_numbers(self):
        spec, faults = baseline_faults()
        sim = baseline_sim(spec, faults["pause"])
        for t in range(0, spec.workload.duration_ms + CLIENT_TIMEOUT_MS, 100):
            sim.run_until(t)
            self.assert_distinct_seqs(sim)

    def test_a_pause_end_gives_each_resumed_call_the_next_sequence_number(self):
        # Both workers are busy when the pause starts, so two calls freeze.
        pause = Pause(name="pause_api", target="api", start_ms=500, end_ms=2000)
        sim = new_sim(sue_single(median_ms=1000, workers=2), seed=1, faults=[pause])
        sim.issue_request(0, at=0)
        sim.issue_request(1, at=1)
        sim.run_until(1999)
        last = sim._seq
        sim.run_until(2000)
        self.assert_distinct_seqs(sim)
        resumed = sorted(seq for _, seq, kind, _ in sim._heap if kind == _EV_PROC_DONE)
        assert resumed == [last + 1, last + 2]

    def test_wakeups_pushed_out_of_order_come_in_time_order(self):
        sim = new_sim(sue_single(), seed=1)
        for user, at in enumerate((300, 100, 200)):
            sim.issue_request(user, at=at)
        sim.run_until(150)
        # Issued while the other two wait: one before the latest, one after.
        sim.issue_request(3, at=250)
        sim.issue_request(4, at=400)
        assert not any(is_wakeup(e) for e in events(sim._heap))
        assert sorted(e[0] for e in events(sim._wakeups)) == [200, 250, 300, 400]
        sim.run_until(None)
        assert [(r.start_ms, r.end_ms) for r in sim.records] == [
            (100, 110), (200, 210), (250, 260), (300, 310), (400, 410)
        ]
        assert pending_events(sim) == 0

    def test_a_tie_between_the_heaps_pops_in_seq_order(self, monkeypatch):
        popped = []

        def recording_heappop(queue, pop=heapq.heappop):
            event = pop(queue)
            popped.append((event[0], event[1], "wake" if is_wakeup(event) else "heap"))
            return event

        monkeypatch.setattr(heapq, "heappop", recording_heappop)
        sim = new_sim(sue_single(median_ms=10, workers=1), seed=1)
        # Requests at 0, 10 and 21 take seq 1, 3 and 5, each with the next for its client timeout.
        sim.issue_request(0, at=0)
        sim.issue_request(1, at=10)
        sim.issue_request(2, at=21)
        sim.run_until(10)
        # The first completion (seq 7) ties with the second arrival, which
        # holds the smaller seq; both are handled at exactly the limit.
        assert popped == [(0, 1, "wake"), (10, 3, "wake"), (10, 7, "heap")]
        sim.issue_request(3, at=20)
        popped.clear()
        sim.run_until(20)
        # The second completion (seq 8) now holds the smaller seq; the
        # wake-up at 21 waits.
        assert popped == [(20, 8, "heap"), (20, 9, "wake")]
        popped.clear()
        sim.run_until(29)
        assert popped == [(21, 5, "wake")]
        popped.clear()
        sim.run_until(30)
        assert popped == [(30, 11, "heap")]
        sim.run_until(None)
        assert [(r.start_ms, r.end_ms) for r in sim.records] == [(0, 10), (10, 20), (20, 30), (21, 40)]


@contextmanager
def collector(enabled: bool):
    """Run the block with the cyclic garbage collector on or off, then set it
    back as it was."""
    was_enabled = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        yield
    finally:
        gc.enable() if was_enabled else gc.disable()


class TestCollectorPause:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_until_leaves_the_collector_as_it_found_it(self, enabled):
        sim = new_sim(sue_single(), seed=1)
        sim.issue_request(0, at=0)
        finish = sim._finish_request
        during = []

        def finish_and_look(*args):
            during.append(gc.isenabled())
            finish(*args)

        sim._finish_request = finish_and_look
        with collector(enabled):
            sim.run_until(None)
            assert gc.isenabled() is enabled
        assert during == [False]

    def test_run_until_restores_the_collector_when_the_loop_raises(self):
        sim = new_sim(sue_single(), seed=1)
        sim.issue_request(0, at=0)

        def crash(*args):
            raise RuntimeError("crash")

        sim._finish_request = crash
        with collector(True):
            with pytest.raises(RuntimeError):
                sim.run_until(None)
            assert gc.isenabled()

    def test_a_run_creates_no_reference_cycles(self):
        # The collector may only be paused because a run leaves it nothing to
        # find: neither the finished state nor its deletion frees a cycle.
        spec, faults = baseline_faults()
        with collector(False):
            gc.collect()
            sim = baseline_sim(spec, faults["pause"])
            sim.run_until(None)
            assert gc.collect() == 0
            del sim
            assert gc.collect() == 0


class TestFork:
    def test_a_fault_must_start_after_now(self):
        sim = new_sim(sue_single(), seed=1)
        sim.add_fault(Stress(name="at_zero", target="api", start_ms=0, end_ms=10, factor=2.0))
        sim.issue_request(0, at=0)
        sim.run_until(1000)
        for start in (999, 1000):
            with pytest.raises(ValueError, match=f"fault 'late' starts at {start} ms, not after now \\(1000 ms\\)"):
                sim.add_fault(Stress(name="late", target="api", start_ms=start, end_ms=2000, factor=2.0))
        sim.add_fault(Stress(name="next", target="api", start_ms=1001, end_ms=2000, factor=2.0))

    @pytest.mark.parametrize("fault", ["pause", "packet_loss"])
    def test_copies_taken_at_fault_start_run_on_identically(self, fault):
        spec, faults = baseline_faults()
        whole = baseline_sim(spec, faults[fault])
        whole.run_until(None)

        sim = baseline_sim(spec, faults[fault])
        sim.run_until(250_000)
        forks = [sim, copy.deepcopy(sim), pickle.loads(pickle.dumps(sim))]
        for fork in forks:
            fork.run_until(None)
            assert fork.records == whole.records
            assert fork.log == whole.log


    @pytest.mark.parametrize("fault", ["pause", "kill", "stress", "network_delay", "corrupt"])
    def test_copies_taken_inside_the_window_run_on_identically(self, fault):
        spec, faults = baseline_faults()
        whole = baseline_sim(spec, faults[fault])
        whole.run_until(None)

        sim = baseline_sim(spec, faults[fault])
        sim.run_until(300_000)  # inside the 250-490 s window
        for fork in [copy.deepcopy(sim), pickle.loads(pickle.dumps(sim)), sim.fork(), sim]:
            fork.run_until(None)
            assert fork.records == whole.records
            assert fork.log == whole.log

    def test_a_fork_and_its_prefix_add_records_and_spans_apart(self):
        """A fork holds its own copy of the prefix's records and log: what it
        adds does not appear in the state it was forked from, and the reverse."""
        spec, faults = baseline_faults()
        sim = baseline_sim(spec, faults["pause"])
        sim.run_until(249_999)
        fork = sim.fork()
        assert len(fork.records) > 0 and fork.records == sim.records
        assert not {id(c) for c in vars(fork.records).values()} & {id(c) for c in vars(sim.records).values()}
        prefix = copy.deepcopy((sim.records, sim.log))
        fork.run_until(None)
        assert len(fork.records) > len(prefix[0]) and fork.log.span_count() > prefix[1].span_count()
        assert (sim.records, sim.log) == prefix
        forked = copy.deepcopy((fork.records, fork.log))
        sim.run_until(None)
        assert (fork.records, fork.log) == forked
        assert sim.records == fork.records and sim.log == fork.log


FAULT_KINDS = [kind for kind, cls in TREATMENT_KINDS.items() if issubclass(cls, Fault)]


@st.composite
def faults(draw, n, duration, kind=None):
    """A fault of ``kind`` (any kind if None) on one of the services s0 to
    s{n-1}, starting before ``duration`` and ending by it."""
    kind = kind or draw(st.sampled_from(FAULT_KINDS))
    start = draw(st.integers(0, duration - 1))
    params = {}
    if kind == "network_delay":
        params = dict(delay_min_ms=draw(st.integers(0, 50)), delay_max_ms=draw(st.integers(50, 200)))
    elif kind in ("packet_loss", "packet_corruption"):
        params = dict(probability=draw(st.floats(0.0, 1.0)))
    elif kind == "stress":
        params = dict(factor=draw(st.floats(1.0, 5.0)))
    return TREATMENT_KINDS[kind](
        name=kind,
        target=f"s{draw(st.integers(0, n - 1))}",
        start_ms=start,
        end_ms=draw(st.integers(start + 1, duration)),
        **params,
    )


@st.composite
def small_meshes(draw):
    """A 1-4 service DAG with one entry service (s0), a small closed-loop
    workload and either no fault or one fault of any kind."""
    n = draw(st.integers(1, 4))
    services = tuple(
        tiny_service(
            f"s{i}",
            workers=draw(st.integers(1, 4)),
            median_ms=draw(st.integers(1, 200)),
            sigma=draw(st.sampled_from([0.0, 0.5])),
            cpu_ms=draw(st.integers(1, 10)),
        )
        for i in range(n)
    )
    edges = []
    for callee in range(1, n):
        # every non-entry service has a caller, so s0 is the only entry
        for caller in draw(st.sets(st.integers(0, callee - 1), min_size=1)):
            calls = draw(st.sampled_from([0.5, 1.0, 2.0]))
            edges.append(CallEdge(f"s{caller}", f"s{callee}", calls, draw(st.integers(0, 10))))
    sue = SueSpec(services=services, edges=tuple(edges), metric_points=(), trace_config=TraceConfigSpec())

    duration = draw(st.integers(5_000, 30_000))
    workload = WorkloadSpec(
        users=draw(st.integers(1, 4)),
        duration_ms=duration,
        think_time=LognormalSpec(draw(st.integers(10, 1000)), draw(st.sampled_from([0.0, 0.3]))),
        ramp_up_ms=draw(st.integers(0, duration // 2)),
    )

    kind = draw(st.sampled_from([None, *FAULT_KINDS]))
    fault = None if kind is None else draw(faults(n, duration, kind))
    return sue, workload, fault, draw(st.integers(0, 2**16))


@st.composite
def instrumentation(draw, sue):
    """``sue`` with random metric points of every kind and a random trace
    configuration, and random instrumentation treatments of them."""
    targets = ["system"] + [s.id for s in sue.services]
    points = []
    for i in range(draw(st.integers(0, 4))):
        sampling = draw(st.integers(1, 20)) * 500
        points.append(MetricPointSpec(
            f"m{i}",
            draw(st.sampled_from(["cpu_gauge", "request_counter", "custom_gauge"])),
            draw(st.sampled_from(targets)),
            sampling,
            sampling * draw(st.integers(1, 4)),
            draw(st.sampled_from(["sum", "mean"])),
        ))
    treatments = [MetricSamplingInterval(f"i{p.metric_name}", p.metric_name, draw(st.integers(1, 20)) * 500)
                  for p in points if draw(st.booleans())]
    rate = st.floats(0.0, 1.0)
    treatments += draw(st.lists(
        st.builds(TracingSamplingRate, st.just("rate"), rate)
        | st.builds(TracingSamplingStrategy, st.just("strategy"), st.sampled_from(["probabilistic", "always_on"]),
                    st.none() | rate),
        max_size=2,
    ))
    trace = TraceConfigSpec(draw(st.sampled_from(["probabilistic", "always_on"])), draw(rate))
    return replace(sue, metric_points=tuple(points), trace_config=trace), tuple(treatments)


@st.composite
def null_faults(draw, sue, duration_ms):
    """A fault that changes nothing, on any service and in any window that
    starts before the workload ends."""
    start = draw(st.integers(0, duration_ms - 1))
    window = dict(
        name="null",
        target=draw(st.sampled_from([s.id for s in sue.services])),
        start_ms=start,
        end_ms=draw(st.integers(start + 1, 2 * duration_ms)),
    )
    return draw(st.sampled_from([
        PacketLoss(**window, probability=0.0),
        PacketCorruption(**window, probability=0.0),
        NetworkDelay(**window, delay_min_ms=0, delay_max_ms=0),
        Stress(**window, factor=1.0),
    ]))


def simulated(sue, workload, faults, seed):
    sim = new_sim(sue, seed, faults)
    drive(sim, workload)
    sim.run_until(None)
    return sim


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.data(), small_meshes().filter(lambda mesh: mesh[2] is not None))
    def test_instrumentation_never_changes_the_event_log(self, data, mesh):
        """Two specs that differ only in their instrumentation (metric
        points, trace configuration and instrumentation treatments) give
        each fault the same event log and records through the runner's
        ``simulate_repetition``, a fork of the prefix included."""
        sue, workload, fault, seed = mesh
        other = replace(data.draw(faults(len(sue.services), workload.duration_ms)), name="other")
        plain = ExperimentSpec(name="plain", seed=seed, sue=sue, workload=workload, treatments=(fault, other),
                               responses=())
        instrumented_sue, treatments = data.draw(instrumentation(sue))
        variant = replace(plain, sue=instrumented_sue, treatments=treatments + plain.treatments)
        repetition = data.draw(st.integers(0, 1))
        (faults_a, runs_a), (faults_b, runs_b) = (zip(*simulate_repetition(spec, repetition))
                                                  for spec in (plain, variant))
        assert faults_a == faults_b
        for a, b in zip(runs_a, runs_b):
            assert a.log == b.log
            assert a.records == b.records

    @settings(max_examples=100, deadline=None)
    @given(st.data(), small_meshes())
    def test_a_null_fault_gives_the_fault_free_run(self, data, mesh):
        """Metamorphic relation: packet loss or corruption at probability 0,
        a 0-0 ms network delay or stress by a factor of 1.0 changes neither
        the event log nor the request records."""
        sue, workload, _, seed = mesh
        fault = data.draw(null_faults(sue, workload.duration_ms))
        free, null = (simulated(sue, workload, faults, seed) for faults in ([], [fault]))
        assert null.log == free.log
        assert null.records == free.records

    @settings(max_examples=100, deadline=None)
    @given(st.data(), small_meshes())
    def test_a_permutation_of_the_services_only_relabels_them(self, data, mesh):
        """Metamorphic relation: listing ``sue.services`` in another order
        relabels the span table's ``service`` and the CPU table's
        ``cpu_service`` columns and changes nothing else."""
        sue, workload, fault, seed = mesh
        faults = [fault] if fault is not None else []
        shuffled = replace(sue, services=tuple(data.draw(st.permutations(sue.services))))
        free, permuted = (simulated(variant, workload, faults, seed) for variant in (sue, shuffled))
        index = [sue.services.index(s) for s in shuffled.services]  # by position in ``shuffled``
        relabeled = RawEventLog(
            [replace(chunk, service=array("q", (index[s] for s in chunk.service))) for chunk in permuted.log.spans],
            [(array("q", (index[s] for s in service)), t, ms) for service, t, ms in permuted.log.cpu],
        )
        assert relabeled == free.log
        assert permuted.records == free.records

    @settings(max_examples=100, deadline=None)
    @given(small_meshes().filter(lambda mesh: mesh[2] is not None), st.integers(1, 8))
    def test_a_fault_added_to_a_fault_free_prefix_gives_the_single_fault_run(self, mesh, bound):
        """Metamorphic relation: run without a fault up to the millisecond
        before the fault starts, then add it with ``add_fault``. The log and
        the records are those of the run that had the fault from the start,
        at any chunk bound; and the bound changes only where chunks end."""
        sue, workload, fault, seed = mesh
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulator, "_CHUNK_ROWS", bound)
            sim = new_sim(sue, seed)
            drive(sim, workload)
            sim.run_until(fault.start_ms - 1)
            sim.add_fault(fault)
            sim.run_until(None)
            single = simulated(sue, workload, [fault], seed)
        assert sim.log == single.log
        assert sim.records == single.records
        default = simulated(sue, workload, [fault], seed)
        assert (span_rows(whole(sim.log).spans, sue), cpu_rows(sim.log, sue)) == (
            span_rows(whole(default.log).spans, sue), cpu_rows(default.log, sue))

    @settings(max_examples=100, deadline=None)
    @given(st.data(), small_meshes().filter(lambda mesh: mesh[2] is not None))
    def test_forks_of_one_fault_free_prefix_give_their_single_fault_runs(self, data, mesh):
        """The same relation for two faults that start apart, as the runner
        simulates them: a fork of the prefix at the earlier start takes
        that fault, and the prefix runs on to the later start and takes the
        other. Each equals its single-fault run."""
        sue, workload, first, seed = mesh
        other = faults(len(sue.services), workload.duration_ms).filter(lambda f: f.start_ms != first.start_ms)
        early, late = sorted([first, data.draw(other)], key=lambda fault: fault.start_ms)
        sim = new_sim(sue, seed)
        drive(sim, workload)
        sim.run_until(early.start_ms - 1)
        fork = sim.fork()
        fork.add_fault(early)
        fork.run_until(None)
        sim.run_until(late.start_ms - 1)
        sim.add_fault(late)
        sim.run_until(None)
        for run, fault in ((fork, early), (sim, late)):
            single = simulated(sue, workload, [fault], seed)
            assert run.log == single.log, fault
            assert run.records == single.records, fault

    def test_a_run_fills_every_column_of_the_log(self):
        """Guards against an output channel that nothing feeds."""
        spec = small_spec()
        sim = new_sim(spec.sue, spec.seed, spec.fault_treatments())
        drive(sim, spec.workload)
        sim.run_until(None)
        tables = whole(sim.log)
        columns = {**tables._asdict(), **vars(tables.spans)}
        del columns["spans"]
        assert columns and all(len(column) > 0 for column in columns.values()), columns.keys()

    @settings(max_examples=150, deadline=None)
    @given(small_meshes())
    def test_random_meshes_keep_the_invariants(self, mesh):
        sue, workload, fault, seed = mesh
        sim = new_sim(sue, seed, [fault] if fault is not None else [])
        drive(sim, workload)
        if fault is not None:
            sim.run_until(fault.start_ms)
            assert all(svc.busy <= svc.workers for svc in sim.services.values())
            # effects revert exactly at the window end
            sim.run_until(fault.end_ms)
            for svc in sim.services.values():
                assert not svc.paused and not svc.killed
                assert svc.stress_factor == 1.0 and not svc.frozen
                assert svc.busy <= svc.workers
            assert all(svc.inbound_faults == [] for svc in sim.services.values())
        sim.run_until(None)
        assert all(svc.busy <= svc.workers for svc in sim.services.values())

        rows = span_rows(whole(sim.log).spans, sue)
        spans = {s.span_id: s for s in rows}
        assert len(spans) == len(rows)  # span ids are unique
        for span in rows:
            assert span.end_ms >= span.start_ms
            assert span.ok in (0, 1)
            # the id layout: (request << SPAN_BITS) | n, n == 0 exactly for a root
            assert (span.parent < 0) == (span.span_id & (2**SPAN_BITS - 1) == 0)
            assert 0 <= span.trace < sim._request_count
            if span.parent >= 0:
                assert span.parent >> SPAN_BITS == span.trace
                parent = spans[span.parent]
                assert parent.start_ms <= span.start_ms and span.end_ms <= parent.end_ms

        assert sorted(r.request_id for r in sim.records) == list(range(sim._request_count))
        assert {r.outcome for r in sim.records} <= {"ok", "error", "timeout"}

        # A record agrees with its request's root span.
        roots = {s.trace: s for s in rows if s.parent < 0}
        for record in sim.records:
            root = roots.get(record.request_id)
            assert root is None or root.start_ms == record.start_ms
            if record.outcome == "timeout":
                assert record.end_ms == record.start_ms + CLIENT_TIMEOUT_MS
                assert root is None or root.end_ms >= record.end_ms
            elif root is None:
                # The request reached a killed entry service, which opens no span.
                assert record.outcome == "error"
                assert (fault.kind, fault.target) == ("kill", sue.services[0].id)
                assert fault.start_ms <= record.start_ms < fault.end_ms
            else:
                assert root.end_ms == record.end_ms
                assert (record.outcome == "ok") == bool(root.ok)

        if fault is None:
            for svc in sue.services:
                busy = sum(ms for s, _, ms in cpu_rows(sim.log, sue) if s == svc.id)
                processed = sum(1 for s, _ in ok_closes(sim.log, sue) if s == svc.id)
                assert busy == pytest.approx(svc.cpu_per_request_ms * processed)

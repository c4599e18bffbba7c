"""Benchmark harness for oxn: workload table, the public pipeline, digest
checks and the span tracer used by the traced run.

Every workload runs through the public library path, serially and with the
clock frozen: ``parse_experiment_file`` -> ``validate`` ->
``run_experiment(spec, parallel=1, frozen_clock=True)`` -> ``report_json``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import heapq
import json
import signal
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

# Workload name -> experiment files, relative to the repository root.
WORKLOADS: dict[str, tuple[str, ...]] = {
    # The paper's use case: a baseline and three design alternatives of one
    # system, 4 files x 3 faults x 10 repetitions = 120 runs.
    "family": (
        "experiments/baseline.yaml",
        "experiments/alternative_a.yaml",
        "experiments/alternative_b.yaml",
        "experiments/alternative_c.yaml",
    ),
    # 2000 users under a pause fault: simulator hot path and memory.
    "surge": ("bench/workloads/surge.yaml",),
    # Dense metric grids, every trace kept, 19 responses: telemetry and
    # detection.
    "dense": ("bench/workloads/dense.yaml",),
}

# Per-layer metrics of the traced run: span name -> metric holding the summed
# self time of the spans with that name.
SELF_TIME_METRICS = {
    "config.parse": "config.parse_s",
    "workload.drive": "workload.drive_s",
    "simulator.init": "simulator.init_s",
    "simulator.run": "simulator.run_s",
    "telemetry.build_batch": "telemetry.build_batch_s",
    "telemetry.materialize": "telemetry.materialize_s",
    "detection.dataset": "detection.dataset_s",
    "detection.fit": "detection.fit_s",
    "costs.account": "costs.account_s",
    "runner": "runner.self_s",
    "runner.report_json": "runner.report_json_s",
}


# Host-speed normalisation. On a shared host the same code runs up to 2x
# slower for tens of seconds at a time while other tenants load the same
# cores, and no hardware counters are available to count work instead. A
# timer therefore interrupts the measured process every PROBE_INTERVAL_S and
# times a fixed reference kernel in the same thread. Every reported time is
# the measured time less the kernel's own time, scaled by the mean of
# REFERENCE_KERNEL_S over each kernel time of the same interval: seconds on a
# host where the kernel takes REFERENCE_KERNEL_S. The kernel keeps its few lines of data in
# the per-core cache, so its time does not depend on what the workload did
# between samples; kernels that read scattered memory tracked the slowdowns
# more closely, but also sped up or slowed down with the workload's own
# memory traffic.
PROBE_INTERVAL_S = 0.1
REFERENCE_KERNEL_S = 0.00075


def reference_kernel() -> float:
    """Seconds taken by one fixed piece of work shaped like the simulator's
    inner loop: heap pushes and pops of tuples, dict updates and scalar
    numpy draws."""
    rng = np.random.default_rng(12345)
    heap: list[tuple[int, int, int]] = []
    totals: dict[int, int] = {}
    started = time.perf_counter()
    for i in range(300):
        heapq.heappush(heap, (int(50 * float(np.exp(0.5 * rng.standard_normal()))) + i, i, i % 7))
        if len(heap) > 32:
            t, _, key = heapq.heappop(heap)
            totals[key] = totals.get(key, 0) + t
    return time.perf_counter() - started


class SpeedProbe:
    """Samples the host's speed while ``running()`` is active."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.kernel_s = 0.0

    def _sample(self, signum, frame) -> None:
        took = reference_kernel()
        self.samples.append(took)
        self.kernel_s += took

    def clock(self) -> float:
        """``time.perf_counter()`` less the time spent in the kernel."""
        return time.perf_counter() - self.kernel_s

    @contextmanager
    def running(self):
        self.samples.append(reference_kernel())
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @property
    def speed(self) -> float:
        """Mean of REFERENCE_KERNEL_S over each kernel time: below 1 on a
        slower host. Work done is the integral of speed over time, and a
        kernel run that an interrupt or a collection slowed weighs little."""
        return speed_of(self.samples)


def speed_of(kernel_times) -> float:
    return statistics.fmean(REFERENCE_KERNEL_S / took for took in kernel_times)


def require_sources() -> None:
    """Exit with an error when the repository's sources are not beside the
    benchmark, before anything is measured."""
    missing = [p for p in ("src/oxn/__init__.py", *WORKLOADS["family"]) if not (ROOT / p).is_file()]
    if missing:
        sys.exit(f"bench: missing {', '.join(missing)} under {ROOT}; run from a full checkout")
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def load_digests() -> dict:
    """Pinned report digests: ``{"seed": n, "reports": {experiment: sha256}}``."""
    return json.loads((BENCH_DIR / "digests.json").read_text())


def workload_paths(workload: str) -> list[Path]:
    return [ROOT / p for p in WORKLOADS[workload]]


@dataclasses.dataclass
class Iteration:
    """Outcome of one serial pass over a workload's files."""

    wall_s: float  # normalised to the reference host speed
    raw_wall_s: float  # as measured, less the speed probe's own time
    speed: float  # SpeedProbe.speed over the iteration
    requests: int
    reports: dict[str, bytes | None]  # experiment file stem -> report bytes, None if it raised
    tracer: "Tracer | None" = None


def run_iteration(paths: list[Path], seed: int, tracer: "Tracer | None" = None) -> Iteration:
    """Parse, validate, run and render every file once, serially, with the
    clock frozen. ``seed`` replaces each file's own seed."""
    from oxn import parse_experiment_file, run_experiment, validate
    from oxn.runner import report_json

    probe = SpeedProbe()
    span = _no_span
    if tracer is not None:
        tracer.clock = probe.clock
        span = tracer.span
    reports: dict[str, bytes | None] = {}
    requests = 0
    with probe.running():
        started = probe.clock()
        for path in paths:
            with span("config.parse"):
                spec = dataclasses.replace(parse_experiment_file(path), seed=seed)
                violations = validate(spec)
            if violations:
                raise ValueError(f"{path}: " + "; ".join(str(v) for v in violations))
            try:
                with span("runner"):
                    report = run_experiment(spec, parallel=1, frozen_clock=True)
                with span("runner.report_json"):
                    reports[path.stem] = report_json(report).encode()
            except Exception:  # a failing report is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                reports[path.stem] = None
                continue
            requests += sum(run.request_count for run in report.runs)
        elapsed = probe.clock() - started
    return Iteration(elapsed * probe.speed, elapsed, probe.speed, requests, reports, tracer)


@contextmanager
def _no_span(name: str):
    yield


def count_failures(iterations: list[Iteration], pinned: dict[str, str] | None) -> tuple[int, int]:
    """Return (attempted, failed) over every report of every iteration.

    A report fails when ``run_experiment`` raised, or when its sha256 differs
    from the pinned digest; without pinned digests, when its bytes differ from
    the first iteration's report of the same file.
    """
    attempted = failed = 0
    first = iterations[0].reports if iterations else {}
    for it in iterations:
        for name, data in it.reports.items():
            attempted += 1
            if data is None:
                failed += 1
            elif pinned is not None:
                failed += hashlib.sha256(data).hexdigest() != pinned.get(name)
            else:
                failed += data != first.get(name)
    return attempted, failed


class _TracedMechanism:
    """Detection mechanism whose ``run`` records a ``detection.fit`` span."""

    def __init__(self, inner, tracer: "Tracer"):
        self._inner = inner
        self._tracer = tracer

    def run(self, ds):
        with self._tracer.span("detection.fit"):
            outcome = self._inner.run(ds)
        self._tracer.counts["detection.defined"] += 1
        return outcome


class Tracer:
    """In-memory spans (name, start, end, parent) around oxn's layer calls.

    ``installed()`` wraps, for the duration of a block, the public functions
    that ``oxn.runner`` calls into each layer, and restores them afterwards.
    Counts of work done are recorded at the same boundaries.
    """

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, self.clock(), 0.0, self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = self.clock()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        import oxn.runner as runner
        from oxn.simulator import SimState

        tracer = self
        run_until = SimState.run_until
        build_batch = runner.build_batch
        build_dataset = runner.build_dataset
        make_mechanism = runner.make_mechanism

        def traced_run_until(sim, *args, **kwargs):
            with tracer.span("simulator.run"):
                run_until(sim, *args, **kwargs)
            tracer.counts["simulator.runs"] += 1
            tracer.counts["simulator.requests"] += len(sim.records)
            tracer.counts["simulator.timeouts"] += sum(r.outcome == "timeout" for r in sim.records)
            tracer.counts["simulator.spans"] += sim.log.span_count()

        def traced_build_batch(*args, **kwargs):
            with tracer.span("telemetry.build_batch"):
                batch = build_batch(*args, **kwargs)
            tracer.counts["telemetry.metric_events"] += batch.metric_event_count
            tracer.counts["telemetry.kept_spans"] += batch.kept_span_count
            return batch

        def traced_build_dataset(*args, **kwargs):
            tracer.counts["detection.cells"] += 1
            with tracer.span("detection.dataset"):
                return build_dataset(*args, **kwargs)

        def traced_make_mechanism(*args, **kwargs):
            return _TracedMechanism(make_mechanism(*args, **kwargs), tracer)

        patches = [
            (runner, "init_sim", self.wrap("simulator.init", runner.init_sim)),
            (runner, "drive", self.wrap("workload.drive", runner.drive)),
            (SimState, "run_until", traced_run_until),
            (runner, "build_batch", traced_build_batch),
            (runner, "materialize_response", self.wrap("telemetry.materialize", runner.materialize_response)),
            (runner, "build_dataset", traced_build_dataset),
            (runner, "make_mechanism", traced_make_mechanism),
            (runner, "account", self.wrap("costs.account", runner.account)),
        ]
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: each span's duration minus the
        durations of its direct children."""
        children: defaultdict[int, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent is not None:
                children[parent] += end - start
        totals: defaultdict[str, float] = defaultdict(float)
        for index, (name, start, end, parent) in enumerate(self.spans):
            totals[name] += end - start - children[index]
        return dict(totals)

    def layer_metrics(self, speed: float) -> dict[str, float]:
        """Per-layer metrics of one traced iteration, without units; times
        are scaled by ``speed`` to the reference host."""
        self_times = self.self_times()
        out = {metric: self_times.get(name, 0.0) * speed for name, metric in SELF_TIME_METRICS.items()}
        out.update({name: float(n) for name, n in self.counts.items() if name != "detection.defined"})
        out["simulator.requests_per_s"] = self.counts["simulator.requests"] / out["simulator.run_s"]
        cells = self.counts["detection.cells"]
        out["detection.defined_ratio"] = self.counts["detection.defined"] / cells if cells else 0.0
        return out

from __future__ import annotations

import os
import time
from array import array
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from oxn.config import (
    CallEdge,
    ExperimentSpec,
    LognormalSpec,
    MetricPointSpec,
    Pause,
    ResponseVariableSpec,
    SPAN_BITS,
    ServiceSpec,
    SueSpec,
    TraceConfigSpec,
    WorkloadSpec,
    parse_experiment_file,
)
from oxn.runner import run_experiments
from oxn.simulator import RawEventLog, SimState, SpanTable, _cpu_chunk, drive, init_sim

REPO_ROOT = Path(__file__).resolve().parent.parent
EXPERIMENTS_DIR = REPO_ROOT / "experiments"
CANONICAL_NAMES = ("baseline", "alternative_a", "alternative_b", "alternative_c")


def experiment_path(name: str) -> Path:
    return EXPERIMENTS_DIR / f"{name}.yaml"


def files_under(directory: str | Path) -> dict[str, bytes]:
    """The bytes of every file below ``directory``, by its path relative to it."""
    directory = Path(directory)
    return {path.relative_to(directory).as_posix(): path.read_bytes()
            for path in sorted(directory.rglob("*")) if path.is_file()}


def cli_env() -> dict[str, str]:
    """The environment for a child ``python -m oxn.cli``: this one with the
    repository's ``src`` first on PYTHONPATH, so the child imports the oxn
    under test."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), path]))}


@pytest.fixture(scope="session")
def baseline_spec() -> ExperimentSpec:
    return parse_experiment_file(experiment_path("baseline"))


@pytest.fixture(scope="session")
def canonical_reports():
    """Run the canonical baseline and alternatives once per test session, in
    one ``run_experiments`` call, which simulates their shared runs once.

    Several acceptance criteria share these runs; the call's elapsed
    wall-clock time is recorded so runtime bounds can be asserted.
    """
    specs = [parse_experiment_file(experiment_path(name)) for name in CANONICAL_NAMES]
    started = time.perf_counter()
    reports = dict(zip(CANONICAL_NAMES, run_experiments(specs, parallel=2, frozen_clock=True)))
    reports["elapsed"] = time.perf_counter() - started
    return reports


def tiny_service(
    service_id: str = "api",
    workers: int = 2,
    median_ms: float = 10.0,
    sigma: float = 0.0,
    cpu_ms: float = 5.0,
) -> ServiceSpec:
    return ServiceSpec(
        id=service_id,
        workers=workers,
        service_time=LognormalSpec(median_ms, sigma),
        cpu_per_request_ms=cpu_ms,
    )


def new_sim(sue: SueSpec, seed: int, faults=()) -> SimState:
    """A fresh simulation of ``sue``'s services and edges at ``seed``, with
    ``faults`` added in order; the rest of ``sue`` never reaches it."""
    sim = init_sim(sue.services, sue.edges, seed)
    for fault in faults:
        sim.add_fault(fault)
    return sim


def small_spec(**overrides) -> ExperimentSpec:
    """A fast two-service experiment for runner and CLI tests."""
    sue = SueSpec(
        services=(
            tiny_service("gateway", workers=4, median_ms=8, sigma=0.2, cpu_ms=4),
            tiny_service("backend", workers=2, median_ms=12, sigma=0.2, cpu_ms=6),
        ),
        edges=(CallEdge("gateway", "backend", 1.0, 2),),
        metric_points=(
            MetricPointSpec("system_cpu", "cpu_gauge", "system", 5000, 5000),
            MetricPointSpec("backend_rpm", "request_counter", "backend", 10000, 10000),
        ),
        trace_config=TraceConfigSpec("probabilistic", 0.5),
    )
    base = dict(
        name="small",
        seed=42,
        repetitions=2,
        sue=sue,
        workload=WorkloadSpec(
            users=5, duration_ms=120_000, think_time=LognormalSpec(500, 0.2), ramp_up_ms=1000
        ),
        treatments=(
            Pause(name="pause_backend", target="backend", start_ms=40_000, end_ms=80_000),
        ),
        responses=(
            ResponseVariableSpec("system_cpu", "metric", "system_cpu"),
            ResponseVariableSpec("backend_rpm", "metric", "backend_rpm"),
            ResponseVariableSpec("trace_duration_gateway", "trace_duration", "gateway"),
        ),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def surge_sim() -> tuple[ExperimentSpec, SimState]:
    """The spec of bench/workloads/surge.yaml, and a simulation of its
    topology at seed 7: 2,000 users ramped up over 2 s for 30 s, and
    ``recommendation`` paused from 3 s to 18 s, longer than the client
    timeout. Its 2,255 requests include 53 timeouts, so many users wake at
    once and many requests time out."""
    spec = parse_experiment_file(REPO_ROOT / "bench/workloads/surge.yaml")
    workload = replace(spec.workload, users=2000, duration_ms=30_000, ramp_up_ms=2000)
    pause = Pause(name="pause_recommendation", target="recommendation", start_ms=3000, end_ms=18_000)
    sim = new_sim(spec.sue, 7, [pause])
    drive(sim, workload)
    return spec, sim


class SpanRow(NamedTuple):
    """One row of a span table, its service given by id and its trace id
    derived from its span id."""

    trace: int
    span_id: int
    parent: int  # -1 for a root
    service: str
    start_ms: int
    end_ms: int  # -1 while open
    ok: int


class WholeLog(NamedTuple):
    """A raw event log's tables, each concatenated from its chunks as numpy arrays."""

    spans: SpanTable
    cpu_service: np.ndarray
    cpu_t_ms: np.ndarray
    cpu_ms: np.ndarray


def whole(log: RawEventLog) -> WholeLog:
    """The one reader of a log's columns in tests: they do not depend on how the log is chunked."""
    return WholeLog(SpanTable.concat(log.spans), *map(np.concatenate, zip(*log.cpu)))


def span_rows(spans: SpanTable, sue: SueSpec) -> list[SpanRow]:
    ids = [s.id for s in sue.services]
    columns = (column.tolist() for column in vars(spans).values())
    return [SpanRow(i >> SPAN_BITS, i, p, ids[s], a, e, ok) for i, p, s, a, e, ok in zip(*columns)]


def cpu_rows(log: RawEventLog, sue: SueSpec) -> list[tuple[str, int, float]]:
    """The CPU table as (service id, t_ms, ms) rows."""
    ids = [s.id for s in sue.services]
    _, *cpu = whole(log)
    return [(ids[s], t, ms) for s, t, ms in zip(*(column.tolist() for column in cpu))]


def ok_closes(log: RawEventLog, sue: SueSpec) -> list[tuple[str, int]]:
    """(service id, end_ms) of every span closed ok: the request-counter
    increments, in span open order."""
    return [(r.service, r.end_ms) for r in span_rows(whole(log).spans, sue) if r.ok]


def metric_point(sue: SueSpec, name: str) -> MetricPointSpec:
    """The metric point of ``sue`` named ``name``; a KeyError if none is."""
    return {point.metric_name: point for point in sue.metric_points}[name]


def pending_events(sim: SimState) -> int:
    """Events pending: those on the heap, the wake-ups and the client
    timeouts queued behind the first, which is on the heap. The queued
    timeout of a finished request counts until it is dropped; each heap's
    sentinel is no event."""
    return len(sim._heap) - 1 + len(sim._wakeups) - 1 + max(len(sim._timeouts) - 1, 0)


def event_log(spans=(), cpu=(), chunk_rows: int | None = None, service_code: str = "q") -> RawEventLog:
    """A raw event log holding the given rows, services by index: spans as
    ``(span_id, parent, service, start_ms, end_ms, ok)`` and CPU slices as
    ``(service, t_ms, ms)``; each table in chunks of ``chunk_rows`` rows, or
    in one chunk, its service columns of array typecode ``service_code``."""

    def cut(rows: list) -> list[list]:
        """``rows`` in slices of ``chunk_rows``, or whole; one empty slice if there are none."""
        size = chunk_rows or len(rows) or 1
        return [rows[lo : lo + size] for lo in range(0, len(rows) or 1, size)]

    log = RawEventLog([], [])
    for rows in cut(list(spans)):
        log.spans.append(SpanTable(service=array(service_code)))
        for column, values in zip(vars(log.spans[-1]).values(), zip(*rows)):
            column.extend(values)
    for rows in cut(list(cpu)):
        log.cpu.append(_cpu_chunk(service_code))
        for column, values in zip(log.cpu[-1], zip(*rows)):
            column.extend(values)
    return log


def span_id(trace: int, n: int = 0) -> int:
    """The id of the n-th span of trace ``trace``; n is 0 for its root."""
    return (trace << SPAN_BITS) | n

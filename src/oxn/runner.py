"""Experiment orchestration: expand fault treatments into runs, simulate and
detect, and score the runs into an ``ObservabilityReport`` (``oxn.report``).

An experiment file may declare several fault treatments; each is executed
in its own series of runs (one active fault per run) and every repetition
reuses the same derived seed across faults and across instrumentation
variants, so design alternatives are compared under common random numbers.
A simulation is given the services, edges, workload, seed and faults, never
the instrumentation, which ``score_run`` applies to the finished log. Up to a
fault's start every run of a repetition simulates the same fault-free events,
so ``simulate_repetition`` simulates that prefix once and forks it for each
fault. Specs that differ only in instrumentation, responses, detection and
cost model simulate the same runs, so ``run_experiments`` simulates each once
for all of them. Detection scores are averaged across repetitions before
thresholding.
"""

from __future__ import annotations

import functools
import hashlib
import pickle
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

import numpy

from .config import _REGISTRY, ExperimentSpec, Fault, apply_instrumentation, make_mechanism
from .config import register_mechanism, render_experiment, validate
from .costs import account, mean_cost
from .detection import ConvergenceError, InsufficientDataError, build_dataset
# ``report_json`` is re-exported for the benchmark harness, which reads ``oxn.runner.report_json``.
from .report import ObservabilityReport, RunResult, build_matrix, report_json  # noqa: F401
from .simulator import SimState, drive, init_sim, rng_stream
from .telemetry import build_batch, export_csv, materialize_response


class ExperimentError(RuntimeError):
    pass


def spec_digest(spec: ExperimentSpec) -> str:
    return "sha256:" + hashlib.sha256(render_experiment(spec).encode()).hexdigest()


def simulate_repetition(spec: ExperimentSpec, repetition: int):
    """Simulate one repetition of every fault, in start order (spec order
    among equal starts); yields each fault with its finished run. Of the
    spec it reads only the services, edges, workload, seed and faults.

    The faults share the repetition's fault-free state: it runs to the
    millisecond before each distinct start, and each fault but the last runs
    on a ``SimState.fork`` of it, the last on the state itself."""
    sim = init_sim(spec.sue.services, spec.sue.edges, spec.seed + repetition)
    drive(sim, spec.workload)
    faults = _start_order(spec)
    for i, fault in enumerate(faults):
        if i == 0 or fault.start_ms != faults[i - 1].start_ms:
            sim.run_until(fault.start_ms - 1)
        run = sim if i == len(faults) - 1 else sim.fork()
        run.add_fault(fault)
        run.run_until(None)
        yield fault, run
        del run  # not kept alive while the prefix runs on to the next start


def _start_order(spec: ExperimentSpec) -> list[Fault]:
    """The spec's faults in the order ``simulate_repetition`` yields them."""
    return sorted(spec.fault_treatments(), key=lambda fault: fault.start_ms)


def score_run(spec: ExperimentSpec, fault: Fault, repetition: int, run: SimState,
              export_dir: str | Path | None) -> RunResult:
    """Observe a finished run of ``fault`` through the spec's instrumented sue,
    detect the fault in every response, export the CSV files if asked, and
    account the cost."""
    run_seed = spec.seed + repetition
    sue = apply_instrumentation(spec.sue, spec.instrumentation_treatments())
    batch = build_batch(run.log, sue, spec.workload.duration_ms, rng_stream(run_seed, "trace-sampling"))
    series_list = [materialize_response(response, batch, fault) for response in spec.responses]
    detection = spec.detection
    scores: dict[str, float | None] = {}
    reasons: dict[str, str] = {}
    for response, series in zip(spec.responses, series_list):
        rng = rng_stream(run_seed, f"detection:{fault.name}:{response.name}")
        try:
            ds = build_dataset(series, detection.split_ratio, rng, feature_window=detection.feature_window)
            mechanism = make_mechanism(detection.mechanism, l2=detection.l2, tol=detection.tol,
                                       alert_k=detection.alert_k)
            score = mechanism.run(ds).score
            # The one check of a score, where a mechanism (maybe code outside
            # oxn) hands it in; kept as a float, so that a report writes a number.
            if not (isinstance(score, (int, float)) and 0 <= score <= 1):
                raise ValueError(f"mechanism '{detection.mechanism}' scored response '{response.name}' "
                                 f"{score!r}, not a number in [0, 1]")
            scores[response.name] = float(score)
        except (InsufficientDataError, ConvergenceError) as exc:
            scores[response.name] = None
            reasons[response.name] = str(exc)

    if export_dir is not None:
        export_csv(batch, series_list, export_dir, prefix=f"{spec.name}_{fault.name}-r{repetition}")

    return RunResult(fault=fault.name, repetition=repetition, seed=run_seed, scores=scores, reasons=reasons,
                     cost=account(batch, spec.cost_model), request_count=len(run.records),
                     trace_count=batch.trace_count, kept_trace_count=batch.kept_trace_count,
                     kept_span_count=batch.kept_span_count, metric_event_count=batch.metric_event_count)


def _behaviour(spec: ExperimentSpec) -> tuple:
    """What ``simulate_repetition`` reads of a spec, with its repetitions."""
    return spec.sue.services, spec.sue.edges, spec.workload, spec.seed, spec.fault_treatments(), spec.repetitions


def _run_failed(spec: ExperimentSpec, fault: Fault, repetition: int, exc: Exception) -> ExperimentError:
    return ExperimentError(f"run failed (first unfinished run: experiment={spec.name} fault={fault.name} "
                           f"repetition={repetition}): {exc}")


def _run_group(specs: list[ExperimentSpec], export_dir: str | None,
               task: tuple[list[int], int]) -> list[list[RunResult]]:
    """Simulate one repetition of the behaviour that the specs at a ``task``'s
    group share, and score each run for each of them; per spec, the results in
    start order. An error names the run that raised."""
    group, repetition = task
    members = [specs[i] for i in group]
    results: list[list[RunResult]] = [[] for _ in members]
    try:
        for fault, run in simulate_repetition(members[0], repetition):
            for spec, runs in zip(members, results):
                runs.append(score_run(spec, fault, repetition, run, export_dir))
            del run  # not kept alive while the next fault simulates
    except Exception as exc:
        done = sum(map(len, results))
        spec = members[done % len(members)]
        raise _run_failed(spec, _start_order(spec)[done // len(members)], repetition, exc) from exc
    return results


def _register_all(registrations: list[tuple[str, object]]) -> None:
    for registration in registrations:
        register_mechanism(*registration)


def run_experiments(specs: list[ExperimentSpec], parallel: int = 1, export_dir: str | Path | None = None,
                    frozen_clock: bool = False) -> list[ObservabilityReport]:
    """Run every fault treatment of every spec for every repetition and score
    the results: one report per spec, each with the bytes of its run alone.

    Specs of equal ``_behaviour`` form a group, and a task is one (group,
    repetition), which simulates each run once and scores it for every spec
    of the group. With ``parallel`` > 1 the tasks go to one process pool of
    at most one worker per task, and each worker registers the specs'
    mechanism factories, which must pickle. The CSV files of two specs could
    share a name, so ``export_dir`` takes one spec."""
    for spec in specs:
        if violations := validate(spec):
            raise ExperimentError(f"experiment spec '{spec.name}' is invalid: " + "; ".join(map(str, violations)))
    if export_dir is not None and len(specs) > 1:
        raise ExperimentError("export_dir takes one spec: the CSV file names of two specs can collide")

    started = time.monotonic()
    groups: dict[tuple, list[int]] = {}
    for i, spec in enumerate(specs):
        groups.setdefault(_behaviour(spec), []).append(i)
    tasks = [(group, r) for group in groups.values() for r in range(specs[group[0]].repetitions)]
    task = functools.partial(_run_group, specs, str(export_dir) if export_dir else None)
    pooled = parallel > 1 and len(tasks) > 1
    registrations = [(name, _REGISTRY[name]) for name in dict.fromkeys(spec.detection.mechanism for spec in specs)]
    for name, factory in registrations if pooled else ():
        try:
            pickle.dumps((name, factory))
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            raise ExperimentError(f"detection mechanism '{name}' cannot be sent to pool workers: {exc}") from exc
    # Both maps yield results in task order, whatever order the tasks finish
    # in, and ``extend`` keeps those yielded before a task fails.
    by_task: list[list[list[RunResult]]] = []
    try:
        if pooled:
            with ProcessPoolExecutor(min(parallel, len(tasks)), initializer=_register_all,
                                     initargs=(registrations,)) as pool:
                by_task.extend(pool.map(task, tasks))
        else:
            by_task.extend(map(task, tasks))
    except ExperimentError:
        raise  # a run failed and names itself
    except Exception as exc:  # the pool failed outside any run
        group, repetition = tasks[len(by_task)]
        raise _run_failed(specs[group[0]], _start_order(specs[group[0]])[0], repetition, exc) from exc
    runs: list[list[RunResult]] = [[] for _ in specs]
    for (group, _), results in zip(tasks, by_task):
        for i, found in zip(group, results):
            runs[i].extend(found)

    if frozen_clock:
        meta = {"frozen_clock": True}
    else:
        meta = {
            "generated_at": datetime.now(timezone.utc).isoformat(),
            "wall_clock_s": round(time.monotonic() - started, 3),
            "numpy": numpy.__version__,
            "python": platform.python_version(),
        }
    return [_report(spec, found, meta) for spec, found in zip(specs, runs)]


def _report(spec: ExperimentSpec, runs: list[RunResult], meta: dict) -> ObservabilityReport:
    # Fault by fault in spec order, repetition by repetition.
    fault_index = {fault.name: i for i, fault in enumerate(spec.fault_treatments())}
    runs = sorted(runs, key=lambda run: (fault_index[run.fault], run.repetition))
    score_runs: dict[tuple[str, str], list[float | None]] = {}
    for run in runs:
        for response, score in run.scores.items():
            score_runs.setdefault((run.fault, response), []).append(score)
    return ObservabilityReport(
        experiment=spec.name,
        spec_digest=spec_digest(spec),
        mechanism=spec.detection.mechanism,
        matrix=build_matrix(score_runs, list(fault_index), [r.name for r in spec.responses], spec.detection.alpha),
        cost=mean_cost([r.cost for r in runs]),
        runs=runs,
        meta=meta,
    )


def run_experiment(spec: ExperimentSpec, parallel: int = 1, export_dir: str | Path | None = None,
                   frozen_clock: bool = False) -> ObservabilityReport:
    """``run_experiments`` of the one spec."""
    return run_experiments([spec], parallel, export_dir, frozen_clock)[0]

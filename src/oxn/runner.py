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
fault. Detection scores are averaged across repetitions before thresholding.
"""

from __future__ import annotations

import functools
import hashlib
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

from .config import _REGISTRY, ExperimentSpec, Fault, SueSpec, apply_instrumentation, make_mechanism
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


def _start_order(spec: ExperimentSpec) -> list[Fault]:
    """The spec's faults in the order ``simulate_repetition`` yields them."""
    return sorted(spec.fault_treatments(), key=lambda fault: fault.start_ms)


def score_run(spec: ExperimentSpec, sue: SueSpec, fault: Fault, repetition: int, run: SimState,
              export_dir: str | Path | None) -> RunResult:
    """Observe a finished run of ``fault`` through the instrumented ``sue``,
    detect the fault in every response, export the CSV files if asked, and
    account the cost."""
    run_seed = spec.seed + repetition
    batch = build_batch(run.log, sue, spec.workload.duration_ms, rng_stream(run_seed, "trace-sampling"))
    series_list = [materialize_response(response, batch, fault) for response in spec.responses]
    detection = spec.detection
    scores: dict[str, float | None] = {}
    reasons: dict[str, str] = {}
    for response, series in zip(spec.responses, series_list):
        rng = rng_stream(run_seed, f"detection:{fault.name}:{response.name}")
        try:
            ds = build_dataset(
                series, detection.split_ratio, rng, feature_window=detection.feature_window
            )
            mechanism = make_mechanism(
                detection.mechanism,
                l2=detection.l2,
                tol=detection.tol,
                alert_k=detection.alert_k,
            )
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

    return RunResult(
        fault=fault.name,
        repetition=repetition,
        seed=run_seed,
        scores=scores,
        reasons=reasons,
        cost=account(batch, spec.cost_model),
        request_count=len(run.records),
        trace_count=batch.trace_count,
        kept_trace_count=batch.kept_trace_count,
        kept_span_count=batch.kept_span_count,
        metric_event_count=batch.metric_event_count,
    )


def _run_failed(fault: Fault, repetition: int, exc: Exception) -> ExperimentError:
    return ExperimentError(f"run failed (first unfinished run: fault={fault.name} repetition={repetition}): {exc}")


def execute_repetition(spec: ExperimentSpec, sue: SueSpec, repetition: int,
                       export_dir: str | Path | None = None) -> list[RunResult]:
    """Simulate one repetition of every fault and score each run through the
    instrumented ``sue``; the results come in start order. An error names the
    first run of the repetition, in start order, that had not finished: the
    one that raised."""
    results: list[RunResult] = []
    try:
        for fault, run in simulate_repetition(spec, repetition):
            results.append(score_run(spec, sue, fault, repetition, run, export_dir))
            del run  # not kept alive while the next fault simulates
    except Exception as exc:
        raise _run_failed(_start_order(spec)[len(results)], repetition, exc) from exc
    return results


def run_experiment(
    spec: ExperimentSpec,
    parallel: int = 1,
    export_dir: str | Path | None = None,
    frozen_clock: bool = False,
) -> ObservabilityReport:
    """Run every fault treatment for every repetition and score the results.

    A repetition is one task (``execute_repetition``). With ``parallel`` > 1
    the repetitions go to a process pool of at most one worker per
    repetition; each worker registers the spec's mechanism factory, which
    must pickle (a module-level function, not a lambda). Errors from
    individual runs propagate with (fault, repetition) context.
    """
    if violations := validate(spec):
        raise ExperimentError("experiment spec is invalid: " + "; ".join(str(v) for v in violations))

    started = time.monotonic()
    repetitions = range(spec.repetitions)
    sue = apply_instrumentation(spec.sue, spec.instrumentation_treatments())
    task = functools.partial(execute_repetition, spec, sue, export_dir=str(export_dir) if export_dir else None)
    pooled = parallel > 1 and len(repetitions) > 1
    registration = (spec.detection.mechanism, _REGISTRY[spec.detection.mechanism])
    if pooled:
        try:
            pickle.dumps(registration)
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            raise ExperimentError(
                f"detection mechanism '{registration[0]}' cannot be sent to pool workers: {exc}"
            ) from exc
    # Both maps yield results in repetition order, whatever order the tasks
    # finish in, and ``extend`` keeps those yielded before a task fails.
    by_repetition: list[list[RunResult]] = []
    try:
        if pooled:
            workers = min(parallel, len(repetitions))
            with ProcessPoolExecutor(workers, initializer=register_mechanism, initargs=registration) as pool:
                by_repetition.extend(pool.map(task, repetitions))
        else:
            by_repetition.extend(map(task, repetitions))
    except ExperimentError:
        raise  # a run failed and names itself
    except Exception as exc:  # the pool failed outside any run
        raise _run_failed(_start_order(spec)[0], len(by_repetition), exc) from exc
    # Fault by fault in spec order, repetition by repetition.
    fault_index = {fault.name: i for i, fault in enumerate(spec.fault_treatments())}
    results = sorted((run for runs in by_repetition for run in runs),
                     key=lambda run: (fault_index[run.fault], run.repetition))

    score_runs: dict[tuple[str, str], list[float | None]] = {}
    for run in results:
        for response, score in run.scores.items():
            score_runs.setdefault((run.fault, response), []).append(score)

    if frozen_clock:
        meta = {"frozen_clock": True}
    else:
        meta = {
            "generated_at": datetime.now(timezone.utc).isoformat(),
            "wall_clock_s": round(time.monotonic() - started, 3),
        }

    return ObservabilityReport(
        experiment=spec.name,
        spec_digest=spec_digest(spec),
        mechanism=spec.detection.mechanism,
        matrix=build_matrix(score_runs, list(fault_index), [r.name for r in spec.responses], spec.detection.alpha),
        cost=mean_cost([r.cost for r in results]),
        runs=results,
        meta=meta,
    )


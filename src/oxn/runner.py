"""Experiment orchestration: expand fault treatments into runs, detect,
score and assemble the machine-readable report.

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
import json
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .config import _REGISTRY, ExperimentSpec, Fault, SueSpec, apply_instrumentation, make_mechanism
from .config import register_mechanism, render_experiment, validate
from .costs import CostReport, account, mean_cost, overhead
from .detection import ConvergenceError, InsufficientDataError, build_dataset
from .scoring import VisibilityMatrix, build_matrix
from .simulator import SimState, drive, init_sim, rng_stream
from .telemetry import build_batch, export_csv, materialize_response

SCHEMA_VERSION = "1"


class ExperimentError(RuntimeError):
    pass


@dataclass
class RunResult:
    """Outcome of one (fault, repetition) simulation."""

    fault: str
    repetition: int
    seed: int
    scores: dict[str, float | None]
    reasons: dict[str, str]  # why each None score is undefined
    cost: CostReport
    request_count: int
    trace_count: int
    kept_trace_count: int
    kept_span_count: int
    metric_event_count: int


@dataclass
class ObservabilityReport:
    experiment: str
    spec_digest: str
    mechanism: str
    matrix: VisibilityMatrix
    cost: CostReport
    runs: list[RunResult]
    meta: dict

    def to_doc(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "experiment": self.experiment,
            "spec_digest": self.spec_digest,
            "detection_mechanism": self.mechanism,
            **_scored_doc(self.matrix),
            "cost": self.cost.as_dict(),
            "runs": [
                {
                    "fault": r.fault,
                    "repetition": r.repetition,
                    "seed": r.seed,
                    "requests": r.request_count,
                    "traces": r.trace_count,
                    "kept_traces": r.kept_trace_count,
                    "kept_spans": r.kept_span_count,
                    "metric_events": r.metric_event_count,
                    "scores": dict(sorted(r.scores.items())),
                    # only a run with an undefined score has reasons, which
                    # keeps the bytes of every fully scored report
                    **({"reasons": dict(sorted(r.reasons.items()))} if r.reasons else {}),
                    "cost_total": round(r.cost.total, 6),
                }
                for r in self.runs
            ],
            "meta": self.meta,
        }


def _scored_doc(matrix: VisibilityMatrix) -> dict:
    """The report sections that ``build_matrix`` determines, as a report writes them."""
    return {
        "alpha": matrix.alpha,
        "responses": list(matrix.responses),
        "visibility": {
            fault: {
                response: {
                    "score_mean": matrix.score_means[(fault, response)],
                    "score_runs": matrix.score_runs[(fault, response)],
                    "visible": matrix.visible[(fault, response)],
                }
                for response in matrix.responses
            }
            for fault in matrix.faults
        },
        "fault_coverage": {
            fault: {"visible": fc.count, "responses": fc.total, "ratio": str(fc)}
            for fault, fc in matrix.fault_coverage.items()
        },
        "ofo": {"covered": matrix.ofo.count, "faults": matrix.ofo.total, "ratio": str(matrix.ofo)},
    }


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
    instrumented ``sue``; the results come in spec order. An error names the
    first run of the repetition, in start order, that had not finished: the
    one that raised."""
    results: list[RunResult] = []
    try:
        for fault, run in simulate_repetition(spec, repetition):
            results.append(score_run(spec, sue, fault, repetition, run, export_dir))
            del run  # not kept alive while the next fault simulates
    except Exception as exc:
        raise _run_failed(_start_order(spec)[len(results)], repetition, exc) from exc
    by_fault = {run.fault: run for run in results}
    return [by_fault[fault.name] for fault in spec.fault_treatments()]


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
    # Fault by fault, repetition by repetition.
    results = [run for runs in zip(*by_repetition) for run in runs]

    score_runs: dict[tuple[str, str], list[float | None]] = {}
    for run in results:
        for response, score in run.scores.items():
            score_runs.setdefault((run.fault, response), []).append(score)
    fault_names = [f.name for f in spec.fault_treatments()]
    response_names = [r.name for r in spec.responses]

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
        matrix=build_matrix(score_runs, fault_names, response_names, spec.detection.alpha),
        cost=mean_cost([r.cost for r in results]),
        runs=results,
        meta=meta,
    )


def report_json(report: ObservabilityReport) -> str:
    return json.dumps(report.to_doc(), indent=2, sort_keys=True) + "\n"


# The kinds of report field ``compare_docs`` reads, by the words a rejection uses.
_FIELD_KINDS = {
    "an object": lambda value: type(value) is dict,
    "a nonempty object": lambda value: type(value) is dict and len(value) > 0,
    "a nonempty list of distinct strings": lambda value: type(value) is list and len(value) > 0
    and all(type(v) is str for v in value) and len(set(value)) == len(value),
    "a string": lambda value: type(value) is str,
    "a number": lambda value: type(value) in (int, float),
    "a number in (0, 1)": lambda value: type(value) in (int, float) and 0 < value < 1,
    "a list of nulls and numbers in [0, 1]": lambda value: type(value) is list
    and all(v is None or type(v) in (int, float) and 0 <= v <= 1 for v in value),
}


def _field(doc: dict, path: tuple[str, ...], kind: str | None = "an object"):
    """The field of a report document at ``path``, checked to be ``kind``
    unless that is None; a rejection names the field's dotted path."""
    parent = _field(doc, path[:-1]) if len(path) > 1 else doc
    if path[-1] not in parent:
        raise ValueError(f"{'.'.join(path)} is missing")
    value = parent[path[-1]]
    if kind is not None and not _FIELD_KINDS[kind](value):
        raise ValueError(f"{'.'.join(path)} must be {kind}, not {value!r}")
    return value


def _match(doc: dict, path: tuple[str, ...], derived) -> None:
    """Reject the first field at or under ``path`` that is not ``derived``;
    leaves are compared as JSON text, so 1, 1.0 and true differ."""
    stated = _field(doc, path, "an object" if type(derived) is dict else None)
    if type(derived) is dict:
        for key in [*derived, *sorted(stated.keys() - derived.keys())]:
            if key not in derived:
                raise ValueError(f"{'.'.join((*path, key))} is not a field the repetition scores give")
            _match(doc, (*path, key), derived[key])
    elif (text := json.dumps(stated)) != (given := json.dumps(derived)):
        raise ValueError(f"{'.'.join(path)} is {text}, but the repetition scores give {given}")


def _read_report(doc: dict, faults: list[str], responses: list[str]) -> tuple[VisibilityMatrix, float]:
    """A report's visibility matrix over ``faults`` and ``responses``, rebuilt from
    its alpha and repetition scores, and its total cost; every scored field of the
    report must be the rebuilt one."""
    runs = {(f, r): _field(doc, ("visibility", f, r, "score_runs"), "a list of nulls and numbers in [0, 1]")
            for f in faults for r in responses}
    matrix = build_matrix(runs, faults, responses, _field(doc, ("alpha",), "a number in (0, 1)"))
    for section, derived in _scored_doc(matrix).items():
        _match(doc, (section,), derived)
    total = _field(doc, ("cost", "total"), "a number")
    if not total > 0:
        raise ValueError(f"cost.total must be positive, not {total!r}")
    return matrix, total


def compare_docs(doc_a: dict, doc_b: dict) -> dict:
    """Side-by-side fault-coverage, observability and cost deltas between two
    report documents with identical fault/response dimensions. Coverage deltas
    count visible responses. A malformed document's ``ValueError`` names the field."""
    docs = (doc_a, doc_b)
    for doc in docs:
        if not isinstance(doc, dict):
            raise ValueError(f"a report must be a JSON object, not {type(doc).__name__}")
    faults, faults_b = (list(_field(doc, ("fault_coverage",), "a nonempty object")) for doc in docs)
    if set(faults) != set(faults_b):
        raise ValueError("reports cover different fault sets")
    responses, responses_b = (_field(doc, ("responses",), "a nonempty list of distinct strings") for doc in docs)
    if responses != responses_b:
        raise ValueError("reports cover different response variables")
    (a, cost_a), (b, cost_b) = (_read_report(doc, faults, responses) for doc in docs)
    delta = {f: b.fault_coverage[f].count - fc.count for f, fc in a.fault_coverage.items()}
    changed = [{"fault": f, "response": r, "visible_delta": b.visible[f, r] - visible}
               for (f, r), visible in a.visible.items() if b.visible[f, r] != visible]
    return {
        "experiments": [_field(doc, ("experiment",), "a string") for doc in docs],
        "delta_fault_coverage": dict(sorted(delta.items())),
        "delta_fc_total": sum(delta.values()),
        "delta_ofo": b.ofo.count - a.ofo.count,
        "cells_changed": sorted(changed, key=lambda c: (c["fault"], c["response"])),
        "cost": {
            "baseline_total": cost_a,
            "alternative_total": cost_b,
            "overhead_pct": overhead(cost_a, cost_b),
        },
    }

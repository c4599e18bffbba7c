"""Experiment orchestration: expand fault treatments into runs, detect,
score and assemble the machine-readable report.

An experiment file may declare several fault treatments; each is executed
in its own series of runs (one active fault per run) and every repetition
reuses the same derived seed across faults and across instrumentation
variants, so design alternatives are compared under common random numbers.
Detection scores are averaged across repetitions before thresholding.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .config import ExperimentSpec, Fault, apply_instrumentation, render_experiment, validate
from .costs import CostReport, account, mean_cost, overhead
from .detection import InsufficientDataError, build_dataset, make_mechanism
from .scoring import (
    Ratio,
    ScoreReport,
    build_matrix,
    diff_scores,
    score_matrix,
)
from .simulator import drive, init_sim, rng_stream
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
    alpha: float
    mechanism: str
    faults: tuple[str, ...]
    responses: tuple[str, ...]
    score_means: dict[tuple[str, str], float | None]
    score_runs: dict[tuple[str, str], list[float | None]]
    scores: ScoreReport
    cost: CostReport
    runs: list[RunResult]
    meta: dict

    def visible(self, fault: str, response: str) -> int:
        matrix = build_matrix(self.score_means, self.faults, self.responses, self.alpha)
        return matrix.cells[(fault, response)].visible

    def to_doc(self) -> dict:
        matrix = build_matrix(self.score_means, self.faults, self.responses, self.alpha)
        visibility_doc = {
            fault: {
                response: {
                    "score_mean": self.score_means[(fault, response)],
                    "score_runs": self.score_runs[(fault, response)],
                    "visible": matrix.cells[(fault, response)].visible,
                }
                for response in self.responses
            }
            for fault in self.faults
        }
        coverage_doc = {
            fault: {
                "visible": ratio.count,
                "responses": ratio.total,
                "ratio": str(ratio),
            }
            for fault, ratio in self.scores.fault_coverage.items()
        }
        return {
            "schema_version": SCHEMA_VERSION,
            "experiment": self.experiment,
            "spec_digest": self.spec_digest,
            "alpha": self.alpha,
            "detection_mechanism": self.mechanism,
            "responses": list(self.responses),
            "visibility": visibility_doc,
            "fault_coverage": coverage_doc,
            "ofo": {
                "covered": self.scores.ofo.count,
                "faults": self.scores.ofo.total,
                "ratio": str(self.scores.ofo),
            },
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


def spec_digest(spec: ExperimentSpec) -> str:
    return "sha256:" + hashlib.sha256(render_experiment(spec).encode()).hexdigest()


def simulate_run(spec: ExperimentSpec, fault: Fault, repetition: int):
    """Simulate one repetition of one fault; returns the telemetry batch, the
    materialized response series and the request records."""
    run_seed = spec.seed + repetition
    sue = apply_instrumentation(spec.sue, spec.instrumentation_treatments())
    sim = init_sim(sue, run_seed, [fault])
    drive(sim, spec.workload)
    sim.run_until(None)

    batch = build_batch(sim.log, sue, spec.workload.duration_ms, sim.stream("trace-sampling"))
    series_list = [materialize_response(response, batch, fault) for response in spec.responses]
    return batch, series_list, sim.records


def execute_run(
    spec: ExperimentSpec,
    fault: Fault,
    repetition: int,
    export_dir: str | Path | None = None,
) -> RunResult:
    """Simulate one repetition of one fault and detect it in every response."""
    run_seed = spec.seed + repetition
    batch, series_list, records = simulate_run(spec, fault, repetition)

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
            scores[response.name] = mechanism.run(ds).score
        except InsufficientDataError as exc:
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
        request_count=len(records),
        trace_count=batch.trace_count,
        kept_trace_count=batch.kept_trace_count,
        kept_span_count=batch.kept_span_count,
        metric_event_count=batch.metric_event_count,
    )


def _run_task(args) -> RunResult:
    spec, fault, repetition, export_dir = args
    return execute_run(spec, fault, repetition, export_dir)


def run_experiment(
    spec: ExperimentSpec,
    parallel: int = 1,
    export_dir: str | Path | None = None,
    frozen_clock: bool = False,
) -> ObservabilityReport:
    """Run every fault treatment for every repetition and score the results.

    With ``parallel`` > 1 the runs go to a process pool of at most one worker
    per run. Errors from individual runs propagate with (fault, repetition)
    context.
    """
    violations = validate(spec)
    if violations:
        raise ExperimentError(
            "experiment spec is invalid: " + "; ".join(str(v) for v in violations)
        )
    faults = spec.fault_treatments()
    if not faults:
        raise ExperimentError("experiment has no fault treatments to run")

    started = time.monotonic()
    tasks = [
        (spec, fault, repetition, str(export_dir) if export_dir else None)
        for fault in faults
        for repetition in range(spec.repetitions)
    ]
    results: dict[tuple[str, int], RunResult] = {}
    try:
        if parallel > 1 and len(tasks) > 1:
            with ProcessPoolExecutor(max_workers=min(parallel, len(tasks))) as pool:
                for result in pool.map(_run_task, tasks):
                    results[(result.fault, result.repetition)] = result
        else:
            for task in tasks:
                result = _run_task(task)
                results[(result.fault, result.repetition)] = result
    except ExperimentError:
        raise
    except Exception as exc:  # annotate with run context
        done = {key for key in results}
        missing = [
            (f.name, r)
            for f in faults
            for r in range(spec.repetitions)
            if (f.name, r) not in done
        ]
        context = f" (first unfinished run: fault={missing[0][0]} repetition={missing[0][1]})" if missing else ""
        raise ExperimentError(f"run failed{context}: {exc}") from exc

    # Deterministic reduction ordered by (fault, repetition), regardless of
    # completion order.
    ordered = [
        results[(fault.name, repetition)]
        for fault in faults
        for repetition in range(spec.repetitions)
    ]

    fault_names = tuple(f.name for f in faults)
    response_names = tuple(r.name for r in spec.responses)
    score_runs: dict[tuple[str, str], list[float | None]] = {
        (f, r): [] for f in fault_names for r in response_names
    }
    for result in ordered:
        for response, score in result.scores.items():
            score_runs[(result.fault, response)].append(score)
    score_means: dict[tuple[str, str], float | None] = {}
    for key, values in score_runs.items():
        defined = [v for v in values if v is not None]
        score_means[key] = sum(defined) / len(defined) if defined else None

    matrix = build_matrix(score_means, fault_names, response_names, spec.detection.alpha)
    scores = score_matrix(matrix)

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
        alpha=spec.detection.alpha,
        mechanism=spec.detection.mechanism,
        faults=fault_names,
        responses=response_names,
        score_means=score_means,
        score_runs=score_runs,
        scores=scores,
        cost=mean_cost([r.cost for r in ordered]),
        runs=ordered,
        meta=meta,
    )


def report_json(report: ObservabilityReport) -> str:
    return json.dumps(report.to_doc(), indent=2, sort_keys=True) + "\n"


def _scores_from_doc(doc: dict) -> ScoreReport:
    coverage = {
        fault: Ratio(cell["visible"], cell["responses"])
        for fault, cell in doc["fault_coverage"].items()
    }
    return ScoreReport(
        fault_coverage=coverage,
        ofo=Ratio(doc["ofo"]["covered"], doc["ofo"]["faults"]),
    )


def compare_docs(doc_a: dict, doc_b: dict) -> dict:
    """Side-by-side fault-coverage, observability and cost deltas between two
    report documents with identical fault/response dimensions."""
    if set(doc_a["fault_coverage"]) != set(doc_b["fault_coverage"]):
        raise ValueError("reports cover different fault sets")
    if doc_a["responses"] != doc_b["responses"]:
        raise ValueError("reports cover different response variables")
    delta = diff_scores(_scores_from_doc(doc_a), _scores_from_doc(doc_b))
    cost_a = doc_a["cost"]["total"]
    cost_b = doc_b["cost"]["total"]
    changed = []
    for fault, row in doc_a["visibility"].items():
        for response, cell in row.items():
            flipped = doc_b["visibility"][fault][response]["visible"] - cell["visible"]
            if flipped != 0:
                changed.append(
                    {"fault": fault, "response": response, "visible_delta": flipped}
                )
    return {
        "experiments": [doc_a["experiment"], doc_b["experiment"]],
        "delta_fault_coverage": dict(sorted(delta.per_fault.items())),
        "delta_fc_total": delta.fc_total,
        "delta_ofo": delta.ofo,
        "cells_changed": sorted(changed, key=lambda c: (c["fault"], c["response"])),
        "cost": {
            "baseline_total": cost_a,
            "alternative_total": cost_b,
            "overhead_pct": overhead(cost_a, cost_b),
        },
    }

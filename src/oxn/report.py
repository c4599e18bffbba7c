"""The report: the fault-observability scores, the document that holds them,
its reader and the comparison of two reports. It loads no numpy.

``build_matrix`` is the one place the scores are computed, for a run and for
a report read back by ``_read_report``. A fault is *visible* in a response
variable when its mean detection score strictly exceeds the threshold alpha.
*Fault coverage* is the fraction of response variables in which a fault is
visible, and *overall fault observability* the fraction of faults visible in
at least one response. Scores are kept as exact count/total ratios so
reports can print them as "k/n". The inputs are checked where they enter
oxn: each repetition score by the runner as a mechanism returns it, and
alpha and the fault and response names by ``validate`` for a spec and by
``compare_docs`` for a report.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Mapping, Sequence

from .costs import CostReport, overhead

SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class Ratio:
    """Exact k-out-of-n score that remembers its denominator; it compares as
    the (count, total) pair, so 1/2 and 2/4 differ."""

    count: int
    total: int

    def __str__(self) -> str:
        return f"{self.count}/{self.total}"


@dataclass(frozen=True)
class VisibilityMatrix:
    """An experiment's scores: each cell's repetition scores and their mean,
    its visibility at threshold alpha, and the fault coverage and overall
    fault observability derived from them. Cells are keyed (fault, response)."""

    faults: tuple[str, ...]
    responses: tuple[str, ...]
    alpha: float
    score_runs: Mapping[tuple[str, str], list[float | None]]
    score_means: Mapping[tuple[str, str], float | None]
    visible: Mapping[tuple[str, str], int]
    fault_coverage: Mapping[str, Ratio]
    ofo: Ratio


def build_matrix(
    score_runs: Mapping[tuple[str, str], list[float | None]],
    faults: Sequence[str],
    responses: Sequence[str],
    alpha: float,
) -> VisibilityMatrix:
    """Average each cell's defined repetition scores and threshold the mean.

    A repetition score of None marks a run whose response could not produce a
    usable dataset for the fault; it is left out of the mean. A cell with no
    defined score counts as invisible rather than shrinking the response set.
    """
    runs = {(f, r): score_runs[(f, r)] for f in faults for r in responses}
    defined = {cell: [v for v in values if v is not None] for cell, values in runs.items()}
    means = {cell: sum(scores) / len(scores) if scores else None for cell, scores in defined.items()}
    visible = {cell: 1 if mean is not None and mean > alpha else 0 for cell, mean in means.items()}
    coverage = {f: Ratio(sum(visible[(f, r)] for r in responses), len(responses)) for f in faults}
    return VisibilityMatrix(
        faults=tuple(faults),
        responses=tuple(responses),
        alpha=alpha,
        score_runs=runs,
        score_means=means,
        visible=visible,
        fault_coverage=coverage,
        ofo=Ratio(sum(1 for fc in coverage.values() if fc.count > 0), len(coverage)),
    )


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


def report_json(report: ObservabilityReport) -> str:
    return json.dumps(report.to_doc(), indent=2, sort_keys=True) + "\n"


# The kinds of report field ``compare_docs`` reads, by the words a rejection uses.
_FIELD_KINDS = {
    "an object": lambda value: type(value) is dict,
    "a nonempty object": lambda value: type(value) is dict and len(value) > 0,
    "a nonempty list of distinct strings": lambda value: type(value) is list and len(value) > 0
    and all(type(v) is str for v in value) and len(set(value)) == len(value),
    "a string": lambda value: type(value) is str,
    "a positive finite number": lambda value: type(value) in (int, float) and 0 < value <= sys.float_info.max,
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
    return matrix, _field(doc, ("cost", "total"), "a positive finite number")


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

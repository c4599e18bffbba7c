"""Fault-observability scores computed from detection outcomes.

``build_matrix`` is the one place the scores are computed. A fault is
*visible* in a response variable when its mean detection score strictly
exceeds the threshold alpha. *Fault coverage* is the fraction of response
variables in which a fault is visible, and *overall fault observability* the
fraction of faults visible in at least one response. Scores are kept as exact
count/total ratios so reports can print them as "k/n".

The inputs are checked where they enter oxn, not here: each repetition score
by the runner as a mechanism returns it, and alpha and the fault and response
names by ``validate`` for a spec and by ``compare_docs`` for a report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence


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

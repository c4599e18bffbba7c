"""Fault-observability scores computed from detection outcomes.

A fault is *visible* in a response variable when the detection score exceeds
the configured threshold. *Fault coverage* is the fraction of response
variables in which a fault is visible, and *overall fault observability* the
fraction of injected faults visible in at least one response. Scores are
kept as exact count/total ratios so reports can print them as "k/n".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence


@dataclass(frozen=True, order=False)
class Ratio:
    """Exact k-out-of-n score that remembers its denominator."""

    count: int
    total: int

    def __post_init__(self) -> None:
        if self.total <= 0:
            raise ValueError("ratio total must be positive")
        if not 0 <= self.count <= self.total:
            raise ValueError("ratio count must lie within [0, total]")

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.count, self.total)

    def __str__(self) -> str:
        return f"{self.count}/{self.total}"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Ratio):
            return self.fraction == other.fraction
        if isinstance(other, (int, Fraction)):
            return self.fraction == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.fraction)


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


def visibility(score: float, alpha: float) -> int:
    """1 when the detection score strictly exceeds the threshold, else 0."""
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"detection score {score} outside [0, 1]")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha {alpha} outside [0, 1]")
    return 1 if score > alpha else 0


def fault_coverage(visibilities: Sequence[int]) -> Ratio:
    """Fraction of response variables in which the fault was visible."""
    if not visibilities:
        raise ValueError("fault coverage needs at least one response variable")
    if any(v not in (0, 1) for v in visibilities):
        raise ValueError("visibilities must be 0 or 1")
    return Ratio(sum(visibilities), len(visibilities))


def overall_fault_observability(coverages: Iterable[Ratio]) -> Ratio:
    """Fraction of faults with nonzero coverage."""
    coverages = list(coverages)
    if not coverages:
        raise ValueError("overall observability needs at least one fault")
    return Ratio(sum(1 for fc in coverages if fc.count > 0), len(coverages))


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
    visible = {cell: 0 if mean is None else visibility(mean, alpha) for cell, mean in means.items()}
    coverage = {f: fault_coverage([visible[(f, r)] for r in responses]) for f in faults}
    return VisibilityMatrix(
        faults=tuple(faults),
        responses=tuple(responses),
        alpha=alpha,
        score_runs=runs,
        score_means=means,
        visible=visible,
        fault_coverage=coverage,
        ofo=overall_fault_observability(coverage.values()),
    )

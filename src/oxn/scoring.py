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
class CellOutcome:
    """Detection score and visibility flag for one fault/response pair."""

    score: float | None
    visible: int


@dataclass(frozen=True)
class VisibilityMatrix:
    """Visibility of every fault in every response variable at threshold alpha."""

    faults: tuple[str, ...]
    responses: tuple[str, ...]
    cells: Mapping[tuple[str, str], CellOutcome]
    alpha: float

    def row(self, fault: str) -> list[int]:
        return [self.cells[(fault, r)].visible for r in self.responses]


@dataclass(frozen=True)
class ScoreReport:
    fault_coverage: Mapping[str, Ratio]
    ofo: Ratio


@dataclass(frozen=True)
class ScoreDelta:
    """Changes between two score reports, in whole visible-metric counts."""

    per_fault: Mapping[str, int]
    fc_total: int
    ofo: int


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
    scores: Mapping[tuple[str, str], float | None],
    faults: Sequence[str],
    responses: Sequence[str],
    alpha: float,
) -> VisibilityMatrix:
    """Threshold raw detection scores into a visibility matrix.

    A missing score (None) marks a response that could not produce a usable
    dataset for the fault; it counts as invisible rather than shrinking the
    response set.
    """
    cells = {}
    for f in faults:
        for r in responses:
            score = scores.get((f, r))
            flag = 0 if score is None else visibility(score, alpha)
            cells[(f, r)] = CellOutcome(score=score, visible=flag)
    return VisibilityMatrix(
        faults=tuple(faults), responses=tuple(responses), cells=cells, alpha=alpha
    )


def score_matrix(matrix: VisibilityMatrix) -> ScoreReport:
    coverage = {f: fault_coverage(matrix.row(f)) for f in matrix.faults}
    return ScoreReport(
        fault_coverage=coverage,
        ofo=overall_fault_observability(coverage.values()),
    )


def diff_scores(before: ScoreReport, after: ScoreReport) -> ScoreDelta:
    """Per-fault coverage deltas (in visible-response counts) and the OFO delta."""
    if set(before.fault_coverage) != set(after.fault_coverage):
        raise ValueError("score reports cover different fault sets")
    mismatched = [
        f
        for f, fc in before.fault_coverage.items()
        if fc.total != after.fault_coverage[f].total
    ]
    if mismatched:
        raise ValueError(f"response dimensions differ for faults {sorted(mismatched)}")
    per_fault = {
        f: after.fault_coverage[f].count - fc.count
        for f, fc in before.fault_coverage.items()
    }
    return ScoreDelta(
        per_fault=per_fault,
        fc_total=sum(per_fault.values()),
        ofo=after.ofo.count - before.ofo.count,
    )

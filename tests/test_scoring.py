from __future__ import annotations

import copy
import functools
import itertools
import json
import math
import operator
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oxn.runner import _scored_doc, compare_docs
from oxn.scoring import (
    Ratio,
    build_matrix,
    fault_coverage,
    overall_fault_observability,
    visibility,
)


def brute_force_scores(cells: dict[tuple[int, int], int], l: int, n: int):
    """Independent re-implementation straight from the definitions: coverage
    is the mean of visibility flags per fault, overall observability the
    fraction of faults with any visible response."""
    coverage = {}
    for f in range(l):
        coverage[f] = Fraction(sum(cells[(f, m)] for m in range(n)), n)
    observed = sum(1 for f in range(l) if coverage[f] > 0)
    return coverage, Fraction(observed, l)


class TestVisibility:
    def test_above_threshold(self):
        assert visibility(0.83, 0.7) == 1

    def test_below_threshold(self):
        assert visibility(0.61, 0.7) == 0

    def test_boundary_is_strict(self):
        assert visibility(0.7, 0.7) == 0

    def test_range_checks(self):
        with pytest.raises(ValueError):
            visibility(1.2, 0.7)
        with pytest.raises(ValueError):
            visibility(0.5, -0.1)


class TestFaultCoverage:
    def test_full(self):
        assert str(fault_coverage([1, 1, 1])) == "3/3"

    def test_partial(self):
        assert str(fault_coverage([1, 0, 0])) == "1/3"

    def test_zero(self):
        assert str(fault_coverage([0, 0, 0])) == "0/3"
        assert fault_coverage([0, 0, 0]).fraction == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fault_coverage([])


class TestOverallFaultObservability:
    def test_reference_example(self):
        fcs = [fault_coverage(v) for v in ([1, 1, 1], [1, 0, 0], [0, 0, 0])]
        assert str(overall_fault_observability(fcs)) == "2/3"

    def test_all_covered(self):
        fcs = [fault_coverage([1, 0, 0])] * 3
        assert overall_fault_observability(fcs) == Ratio(3, 3)

    def test_exhaustive_against_brute_force(self):
        for l, n in itertools.product((2, 3), repeat=2):
            for bits in itertools.product((0, 1), repeat=l * n):
                cells = {
                    (f, m): bits[f * n + m] for f in range(l) for m in range(n)
                }
                expected_fc, expected_ofo = brute_force_scores(cells, l, n)
                coverage = {f: fault_coverage([cells[(f, m)] for m in range(n)]) for f in range(l)}
                ofo = overall_fault_observability(coverage.values())
                assert {f: fc.fraction for f, fc in coverage.items()} == expected_fc
                assert ofo.fraction == expected_ofo


class TestProperties:
    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.data(),
    )
    def test_flipping_a_zero_never_decreases_scores(self, l, n, data):
        bits = [
            [data.draw(st.integers(0, 1)) for _ in range(n)] for _ in range(l)
        ]
        coverage = [fault_coverage(row) for row in bits]
        ofo = overall_fault_observability(coverage)
        zeros = [(f, m) for f in range(l) for m in range(n) if bits[f][m] == 0]
        if not zeros:
            return
        f, m = zeros[0]
        bits[f][m] = 1
        coverage_after = [fault_coverage(row) for row in bits]
        ofo_after = overall_fault_observability(coverage_after)
        for before, after in zip(coverage, coverage_after):
            assert after.fraction >= before.fraction
        assert ofo_after.fraction >= ofo.fraction

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=16))
    def test_bounds(self, vs):
        fc = fault_coverage(vs)
        assert 0 <= fc.fraction <= 1

    def test_ofo_depends_only_on_positivity(self):
        a = [Ratio(1, 4), Ratio(0, 4), Ratio(4, 4)]
        b = [Ratio(3, 4), Ratio(0, 4), Ratio(1, 4)]
        assert overall_fault_observability(a) == overall_fault_observability(b)


class TestMatrix:
    def test_missing_scores_count_as_invisible(self):
        matrix = build_matrix(
            {("f", "a"): [0.9, 0.8], ("f", "b"): [None, None]},
            faults=["f"],
            responses=["a", "b"],
            alpha=0.7,
        )
        assert [matrix.visible[("f", r)] for r in matrix.responses] == [1, 0]
        assert matrix.score_means[("f", "b")] is None
        assert str(matrix.fault_coverage["f"]) == "1/2"
        assert str(matrix.ofo) == "1/1"

    def test_mean_leaves_out_undefined_repetitions(self):
        # Counting the None as 0 would give a mean of 0.5 and hide the fault.
        matrix = build_matrix({("f", "a"): [0.9, None, 0.6]}, faults=["f"], responses=["a"], alpha=0.7)
        assert matrix.score_means[("f", "a")] == (0.9 + 0.6) / 2
        assert matrix.visible[("f", "a")] == 1
        assert matrix.score_runs[("f", "a")] == [0.9, None, 0.6]


def report_doc(coverage: dict[str, tuple[int, int]]) -> dict:
    """A report document holding ``coverage`` as (visible, responses) counts
    per fault. Every fault's row has as many responses as the widest count,
    and its first ``visible`` cells are visible: their one repetition scores
    1.0 against an alpha of 0.5, and every other cell's scores 0.0."""
    responses = [f"r{i}" for i in range(max(total for _, total in coverage.values()))]
    covered = sum(1 for visible, _ in coverage.values() if visible > 0)

    def cell(visible: bool) -> dict:
        score = float(visible)
        return {"score_mean": score, "score_runs": [score], "visible": int(visible)}

    return {
        "experiment": "x",
        "alpha": 0.5,
        "responses": responses,
        "visibility": {
            fault: {r: cell(i < visible) for i, r in enumerate(responses)}
            for fault, (visible, _) in coverage.items()
        },
        "fault_coverage": {
            fault: {"visible": visible, "responses": total, "ratio": f"{visible}/{total}"}
            for fault, (visible, total) in coverage.items()
        },
        "ofo": {"covered": covered, "faults": len(coverage), "ratio": f"{covered}/{len(coverage)}"},
        "cost": {"total": 1.0},
    }


class TestDiff:
    """``compare_docs`` deltas, counted in visible responses."""

    def test_alternative_a_pattern(self):
        before = report_doc({"packet_loss": (1, 3), "network_delay": (0, 3)})
        after = report_doc({"packet_loss": (2, 3), "network_delay": (0, 3)})
        comparison = compare_docs(before, after)
        assert comparison["delta_fault_coverage"] == {"network_delay": 0, "packet_loss": 1}
        assert comparison["delta_fc_total"] == 1
        assert comparison["delta_ofo"] == 0

    def test_alternative_b_pattern(self):
        before = report_doc({"packet_loss": (1, 3), "network_delay": (0, 3)})
        after = report_doc({"packet_loss": (1, 3), "network_delay": (1, 3)})
        comparison = compare_docs(before, after)
        assert comparison["delta_fc_total"] == 1
        assert comparison["delta_ofo"] == 1

    def test_identical_reports(self):
        doc = report_doc({"a": (1, 2), "b": (2, 2)})
        comparison = compare_docs(doc, doc)
        assert comparison["delta_fc_total"] == 0 and comparison["delta_ofo"] == 0
        assert set(comparison["delta_fault_coverage"].values()) == {0}

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="different fault sets"):
            compare_docs(report_doc({"a": (1, 2)}), report_doc({"b": (1, 2)}))
        # Same response list, but fault "a" states a coverage over fewer responses.
        with pytest.raises(ValueError, match=r"^fault_coverage\.a\.responses is 2, but the repetition scores give 3$"):
            compare_docs(report_doc({"a": (1, 3), "b": (0, 3)}), report_doc({"a": (1, 2), "b": (0, 3)}))


@st.composite
def scored_docs(draw) -> dict:
    """A report document whose scored sections ``_scored_doc`` wrote from
    random repetition scores, read back from its JSON text."""
    faults = [f"f{i}" for i in range(draw(st.integers(1, 3)))]
    responses = [f"r{i}" for i in range(draw(st.integers(1, 4)))]
    repetitions = draw(st.integers(1, 3))
    score = st.none() | st.floats(0.0, 1.0)
    runs = {cell: draw(st.lists(score, min_size=repetitions, max_size=repetitions))
            for cell in itertools.product(faults, responses)}
    alpha = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    doc = {**_scored_doc(build_matrix(runs, faults, responses, alpha)), "experiment": "x", "cost": {"total": 1.0}}
    return json.loads(json.dumps(doc))


def derived_leaves(doc: dict):
    """Each field of ``doc`` that follows from its repetition scores, as its
    path and a value it does not hold."""
    for fault, row in doc["visibility"].items():
        for response, cell in row.items():
            yield ("visibility", fault, response, "visible"), 1 - cell["visible"]
            if cell["score_mean"] is not None:
                yield ("visibility", fault, response, "score_mean"), math.nextafter(cell["score_mean"], math.inf)
    for fault, fc in doc["fault_coverage"].items():
        yield ("fault_coverage", fault, "visible"), fc["visible"] + 1
        yield ("fault_coverage", fault, "responses"), fc["responses"] + 1
        yield ("fault_coverage", fault, "ratio"), f"{fc['visible']}/{fc['responses'] + 1}"
    yield ("ofo", "covered"), doc["ofo"]["covered"] + 1
    yield ("ofo", "faults"), doc["ofo"]["faults"] + 1


class TestCompareRebuildsTheScores:
    """``compare_docs`` rebuilds a document's scored fields with ``build_matrix``."""

    @settings(max_examples=100, deadline=None)
    @given(scored_docs(), st.data())
    def test_only_the_written_fields_are_accepted(self, doc, data):
        comparison = compare_docs(doc, doc)
        assert set(comparison["delta_fault_coverage"].values()) == {0}
        assert comparison["delta_fc_total"] == comparison["delta_ofo"] == 0
        assert comparison["cells_changed"] == []
        assert comparison["cost"]["overhead_pct"] == 0.0

        path, value = data.draw(st.sampled_from(list(derived_leaves(doc))))
        moved = copy.deepcopy(doc)
        functools.reduce(operator.getitem, path[:-1], moved)[path[-1]] = value
        with pytest.raises(ValueError, match=f"^{re.escape('.'.join(path))} is "):
            compare_docs(doc, moved)


class TestRatio:
    def test_preserves_denominator(self):
        assert str(Ratio(3, 3)) == "3/3"
        assert Ratio(3, 3) == Ratio(2, 2)
        assert Ratio(1, 3).fraction == Fraction(1, 3)

    def test_invalid(self):
        with pytest.raises(ValueError):
            Ratio(4, 3)
        with pytest.raises(ValueError):
            Ratio(0, 0)

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
from oxn.scoring import Ratio, build_matrix


def brute_force_scores(cells: dict[tuple[int, int], int], l: int, n: int):
    """Independent re-implementation straight from the definitions: coverage
    is the mean of visibility flags per fault, overall observability the
    fraction of faults with any visible response."""
    coverage = {}
    for f in range(l):
        coverage[f] = Fraction(sum(cells[(f, m)] for m in range(n)), n)
    observed = sum(1 for f in range(l) if coverage[f] > 0)
    return coverage, Fraction(observed, l)


def matrix_of(bits: list[list[int]]):
    """The matrix of faults f0, f1, ... (one per row of ``bits``) and
    responses r0, r1, ... (one per column), whose cells have one repetition
    scoring 1.0 where ``bits`` holds a 1 and 0.0 where it holds a 0, against
    an alpha of 0.5: each cell is visible iff its bit is 1."""
    faults = [f"f{i}" for i in range(len(bits))]
    responses = [f"r{j}" for j in range(len(bits[0]))]
    runs = {(f, r): [float(bit)] for f, row in zip(faults, bits) for r, bit in zip(responses, row)}
    return build_matrix(runs, faults, responses, alpha=0.5)


def coverages(bits: list[list[int]]) -> list[Fraction]:
    return [Fraction(fc.count, fc.total) for fc in matrix_of(bits).fault_coverage.values()]


def visible(score_runs: list[float], alpha: float) -> int:
    """The visibility of one cell with these repetition scores."""
    return build_matrix({("f", "r"): score_runs}, ["f"], ["r"], alpha).visible[("f", "r")]


class TestVisibility:
    def test_above_threshold(self):
        assert visible([0.83], 0.7) == 1

    def test_below_threshold(self):
        assert visible([0.61], 0.7) == 0

    def test_boundary_is_strict(self):
        assert visible([0.7], 0.7) == 0
        assert visible([0.25, 0.75], 0.5) == 0  # the mean is exactly alpha


class TestFaultCoverage:
    def test_full(self):
        assert str(matrix_of([[1, 1, 1]]).fault_coverage["f0"]) == "3/3"

    def test_partial(self):
        assert str(matrix_of([[1, 0, 0]]).fault_coverage["f0"]) == "1/3"

    def test_zero(self):
        assert str(matrix_of([[0, 0, 0]]).fault_coverage["f0"]) == "0/3"
        assert coverages([[0, 0, 0]]) == [0]


class TestOverallFaultObservability:
    def test_reference_example(self):
        assert str(matrix_of([[1, 1, 1], [1, 0, 0], [0, 0, 0]]).ofo) == "2/3"

    def test_all_covered(self):
        assert matrix_of([[1, 0, 0]] * 3).ofo == Ratio(3, 3)

    def test_exhaustive_against_brute_force(self):
        for l, n in itertools.product((2, 3), repeat=2):
            for bits in itertools.product((0, 1), repeat=l * n):
                cells = {
                    (f, m): bits[f * n + m] for f in range(l) for m in range(n)
                }
                expected_fc, expected_ofo = brute_force_scores(cells, l, n)
                matrix = matrix_of([[cells[(f, m)] for m in range(n)] for f in range(l)])
                assert [Fraction(fc.count, fc.total) for fc in matrix.fault_coverage.values()] == list(
                    expected_fc.values()
                )
                assert Fraction(matrix.ofo.count, matrix.ofo.total) == expected_ofo


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
        coverage, ofo = coverages(bits), matrix_of(bits).ofo
        zeros = [(f, m) for f in range(l) for m in range(n) if bits[f][m] == 0]
        if not zeros:
            return
        f, m = zeros[0]
        bits[f][m] = 1
        coverage_after, ofo_after = coverages(bits), matrix_of(bits).ofo
        for before, after in zip(coverage, coverage_after):
            assert after >= before
        assert Fraction(ofo_after.count, ofo_after.total) >= Fraction(ofo.count, ofo.total)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=16))
    def test_bounds(self, vs):
        fc = matrix_of([vs]).fault_coverage["f0"]
        assert fc.total == len(vs)
        assert 0 <= Fraction(fc.count, fc.total) <= 1

    def test_ofo_depends_only_on_positivity(self):
        a = [[1, 0, 0, 0], [0, 0, 0, 0], [1, 1, 1, 1]]
        b = [[1, 1, 1, 0], [0, 0, 0, 0], [1, 0, 0, 0]]
        assert matrix_of(a).ofo == matrix_of(b).ofo


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


    @pytest.mark.parametrize(
        "faults, responses, message",
        [
            (["a", "b"], ["r0", "r0", "r1"], "responses must be a nonempty list of distinct strings, not ['r0', 'r0', 'r1']"),
            (["a", "b"], [], "responses must be a nonempty list of distinct strings, not []"),
            ([], ["r0", "r1", "r2"], "fault_coverage must be a nonempty object, not {}"),
        ],
    )
    def test_dimensions_are_nonempty_and_distinct(self, faults, responses, message):
        """A report whose scored sections ``_scored_doc`` wrote over these
        faults and responses is rejected, naming the field. With a response
        named twice, fault "a" would cover 3/3 of two distinct responses."""
        doc = report_doc({"a": (3, 3), "b": (1, 3)})
        runs = {(f, r): doc["visibility"][f][r]["score_runs"] for f in faults for r in responses}
        doc |= _scored_doc(build_matrix(runs, faults, responses, doc["alpha"]))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            compare_docs(doc, doc)


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
        assert str(Ratio(0, 3)) == "0/3"

    def test_compares_as_the_count_total_pair(self):
        assert Ratio(1, 3) == Ratio(1, 3)
        assert Ratio(3, 3) != Ratio(2, 2)
        assert len({Ratio(1, 2), Ratio(2, 4), Ratio(1, 2)}) == 2

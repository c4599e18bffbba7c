"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line. Criteria 6-8 share the canonical runs provided by the
session-scoped ``canonical_reports`` fixture."""

from __future__ import annotations

import hashlib
import itertools
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from oxn import cli, simulator
from oxn.costs import overhead
from oxn.detection import LogisticRegressionMechanism, _loss_grad_p, build_dataset, zscore_fit_apply
from oxn.report import build_matrix, compare_docs, report_json
from oxn.simulator import rng_stream
from oxn.telemetry import ResponseSeries, build_batch, materialize_response, sample_traces
from oxn.config import SPAN_BITS, TraceConfigSpec, apply_instrumentation, parse_experiment_file
from oxn.runner import simulate_repetition

from conftest import REPO_ROOT, cli_env, event_log, experiment_path, span_id, span_rows

PAUSE = "pause_recommendation"
PACKET_LOSS = "packet_loss_recommendation"
NETWORK_DELAY = "network_delay_recommendation"
TRACE_RESPONSE = "trace_duration_recommendation"


def stamps(n: int) -> np.ndarray:
    return 1000 * np.arange(1, n + 1, dtype=np.int64)


def announce(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def matrix_of(rows, alpha=0.5):
    """``build_matrix`` over one repetition score per cell, with one fault
    per row of ``rows`` and one response per column."""
    faults = [f"f{i}" for i in range(len(rows))]
    responses = [f"r{j}" for j in range(len(rows[0]))]
    runs = {(f, r): [float(score)] for f, row in zip(faults, rows) for r, score in zip(responses, row)}
    return build_matrix(runs, faults, responses, alpha)


class TestCriterion1FormulaFidelity:
    def test_visibility_and_coverage_formulas_exact(self):
        started = time.perf_counter()
        assert matrix_of([[0.83, 0.61]], alpha=0.7).visible == {("f0", "r0"): 1, ("f0", "r1"): 0}
        matrix = matrix_of([[1, 1, 1], [1, 0, 0], [0, 0, 0]])
        assert [str(fc) for fc in matrix.fault_coverage.values()] == ["3/3", "1/3", "0/3"]
        assert str(matrix.ofo) == "2/3"
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0
        announce(1, f"formula-level values reproduce exactly ({elapsed:.3f}s)")


class TestCriterion2OverheadArithmetic:
    def test_overhead_reference_values(self):
        started = time.perf_counter()
        assert overhead(191.83, 199.47) == 3.98
        assert overhead(191.83, 197.68) == 3.05
        assert overhead(191.83, 202.06) == 5.33
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0
        announce(2, f"overhead percentages exact to two decimals ({elapsed:.3f}s)")


class TestCriterion3ScoringOracle:
    def test_exhaustive_equivalence(self):
        started = time.perf_counter()
        checked = 0
        for l, n in itertools.product((2, 3), repeat=2):
            for bits in itertools.product((0, 1), repeat=l * n):
                rows = [bits[f * n : (f + 1) * n] for f in range(l)]
                matrix = matrix_of(rows)  # a cell is visible iff its score 1.0 exceeds alpha 0.5
                # brute force straight from the definitions
                expected_fc = [Fraction(sum(row), n) for row in rows]
                expected_ofo = Fraction(sum(1 for fc in expected_fc if fc > 0), l)
                assert [Fraction(fc.count, fc.total) for fc in matrix.fault_coverage.values()] == expected_fc
                assert Fraction(matrix.ofo.count, matrix.ofo.total) == expected_ofo
                checked += 1
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0
        announce(3, f"{checked} visibility matrices match the brute-force oracle ({elapsed:.2f}s)")


class TestCriterion4DetectorCorrectness:
    def test_detector_pipeline(self):
        started = time.perf_counter()

        # analytic gradient vs central finite differences
        rng = np.random.default_rng(123)
        x = rng.normal(size=(60, 3))
        y = (rng.random(60) < 0.5).astype(float)
        xb = np.hstack([x, np.ones((60, 1))])
        ridge = np.array([1e-4, 1e-4, 1e-4, 0.0])  # the bias is not penalized
        h = 1e-5
        worst = 0.0
        for _ in range(10):
            w, b = rng.normal(size=3), float(rng.normal())
            theta = np.concatenate([w, [b]])
            _, grad, _ = _loss_grad_p(xb, y, theta, ridge)
            fd = np.zeros(4)
            for j in range(4):
                up, down = theta.copy(), theta.copy()
                up[j] += h
                down[j] -= h
                lu = _loss_grad_p(xb, y, up, ridge)[0]
                ld = _loss_grad_p(xb, y, down, ridge)[0]
                fd[j] = (lu - ld) / (2 * h)
            worst = max(worst, float(np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-8))))
        assert worst < 1e-5

        def dataset(shift, seed):
            gen = np.random.default_rng(seed)
            values = np.concatenate([gen.normal(0, 1, 100), gen.normal(shift, 1, 100)])
            labels = np.concatenate([np.zeros(100, dtype=int), np.ones(100, dtype=int)])
            order = gen.permutation(200)
            series = ResponseSeries("s", stamps(200), values[order], labels[order].astype(bool))
            return build_dataset(series, 0.7, gen, feature_window=1)

        # separable data reaches near-perfect test accuracy
        accuracy = LogisticRegressionMechanism().run(dataset(6.0, 1)).score
        assert accuracy >= 0.99

        # label-shuffled data stays at chance level
        chance = LogisticRegressionMechanism().run(dataset(0.0, 2)).score
        assert 0.4 <= chance <= 0.6

        # oversampling yields exactly equal train class counts
        gen = np.random.default_rng(3)
        values = np.concatenate([np.zeros(100), np.ones(20)])
        labels = np.concatenate([np.zeros(100, dtype=int), np.ones(20, dtype=int)])
        series = ResponseSeries("s", stamps(120), values, labels.astype(bool))
        balanced = build_dataset(series, 0.7, gen)
        _, y_train = balanced.train
        assert int((y_train == 1).sum()) == int((y_train == 0).sum())

        # z-score train moments
        normalized = zscore_fit_apply(dataset(2.0, 4))
        x_train, _ = normalized.train
        assert np.all(np.abs(x_train.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(x_train.std(axis=0) - 1.0) < 1e-9)

        elapsed = time.perf_counter() - started
        assert elapsed < 10.0
        announce(
            4,
            f"gradient max rel err {worst:.2e}, separable acc {accuracy:.3f}, "
            f"chance acc {chance:.2f} ({elapsed:.2f}s)",
        )


# sha256 of the frozen-clock ``report_json`` of each canonical experiment.
REPORT_DIGESTS = {
    "baseline": "2f0f276b9cbeedd64f8e2137981d98ac58ba67c3c5008195839fabf86772f56b",
    "alternative_a": "9b4df213e75341acf73807fa3729b369829e9b5c866a1fa99468ddedadc62169",
    "alternative_b": "d863fe438a828b35e5896032fd857057fba37ca25fa2a4896d087fba22d8ddad",
    "alternative_c": "caa4126c07174f21597f15e084500623b46827f0653700c01dc0fa4700ab8329",
}

# sha256 over the sorted (path, bytes) pairs that ``oxn run baseline.yaml
# --export-csv --frozen-clock`` writes: the report and its 120 CSV files.
BASELINE_EXPORT_DIGEST = "1861b8ee207e32e3195fce874a5816c2ec5e8f7bccbd1fa0d6b35387df98bfa5"


def export_digest(files: dict[str, bytes]) -> str:
    digest = hashlib.sha256()
    for path, data in sorted(files.items()):
        digest.update(path.encode() + b"\0" + data + b"\0")
    return digest.hexdigest()


class TestCriterion5Determinism:
    def test_canonical_report_digests(self, canonical_reports):
        for name, expected in REPORT_DIGESTS.items():
            data = report_json(canonical_reports[name]).encode()
            assert hashlib.sha256(data).hexdigest() == expected, name

    def test_cli_run_twice_byte_identical(self, canonical_reports, tmp_path):
        """The CLI's run of the baseline, in its own process, writes the report
        of the library's run and the pinned export."""
        started = time.perf_counter()
        out = tmp_path / "out"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "oxn.cli",
                "run",
                str(experiment_path("baseline")),
                "--out",
                str(out),
                "--export-csv",
                "--frozen-clock",
                "--parallel",
                "2",
            ],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=cli_env(),
        )
        assert proc.returncode == 0, proc.stderr
        files = {
            path.relative_to(out).as_posix(): path.read_bytes()
            for path in sorted(out.rglob("*"))
            if path.is_file()
        }
        assert files["baseline_report.json"] == report_json(canonical_reports["baseline"]).encode()
        assert export_digest(files) == BASELINE_EXPORT_DIGEST
        for response in ("system_cpu", "recomms_per_minute", "trace_duration_recommendation"):
            assert f"csv/baseline_pause_recommendation-r0_{response}.csv" in files
        elapsed = time.perf_counter() - started
        announce(
            5,
            f"the CLI and library baseline runs agree byte for byte on {len(files)} files ({elapsed:.0f}s)",
        )

    def test_a_tiny_chunk_bound_changes_no_byte(self, tmp_path, monkeypatch):
        """The event log's chunk bound decides only where chunks end: with
        chunks of 7 rows, the CLI's run of the baseline in this process
        writes the pinned report and export."""
        monkeypatch.setattr(simulator, "_CHUNK_ROWS", 7)
        out = tmp_path / "out"
        argv = ["run", str(experiment_path("baseline")), "--out", str(out), "--export-csv", "--frozen-clock"]
        assert cli.main(argv) == 0
        files = {path.relative_to(out).as_posix(): path.read_bytes() for path in out.rglob("*") if path.is_file()}
        assert hashlib.sha256(files["baseline_report.json"]).hexdigest() == REPORT_DIGESTS["baseline"]
        assert export_digest(files) == BASELINE_EXPORT_DIGEST

    def test_report_bytes_hold_on_another_dispatch_path_and_hash_seed(self):
        """The reach of the promise that README states: ``oxn run`` gives
        the pinned bytes with numpy's AVX2 and AVX-512 kernels switched off
        and under another hash seed. On a CPU without those kernels the
        variable changes nothing, and the hash seed is still checked."""
        env = {**cli_env(), "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3",
               "PYTHONHASHSEED": "987654"}
        proc = subprocess.run(
            [sys.executable, "-m", "oxn.cli", "run", str(experiment_path("baseline")), "--frozen-clock"],
            capture_output=True,
            cwd=REPO_ROOT,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert hashlib.sha256(proc.stdout).hexdigest() == REPORT_DIGESTS["baseline"]


class TestCriterion6NarrativeTrend:
    def test_baseline_pattern(self, canonical_reports):
        report = canonical_reports["baseline"]
        assert str(report.matrix.fault_coverage[PAUSE]) == "3/3"
        assert str(report.matrix.fault_coverage[NETWORK_DELAY]) == "0/3"
        assert report.matrix.fault_coverage[PACKET_LOSS].count >= 1
        assert str(report.matrix.ofo) == "2/3"

    def test_alternative_b_flips_delay_trace_cell(self, canonical_reports):
        baseline = canonical_reports["baseline"]
        alt_b = canonical_reports["alternative_b"]
        assert baseline.matrix.visible[(NETWORK_DELAY, TRACE_RESPONSE)] == 0
        assert alt_b.matrix.visible[(NETWORK_DELAY, TRACE_RESPONSE)] == 1
        assert str(alt_b.matrix.ofo) == "3/3"

        comparison = compare_docs(baseline.to_doc(), alt_b.to_doc())
        assert comparison["delta_fc_total"] == 1
        assert comparison["delta_ofo"] == 1
        assert comparison["cells_changed"] == [
            {"fault": NETWORK_DELAY, "response": TRACE_RESPONSE, "visible_delta": 1}
        ]

    def test_wall_clock_budget(self, canonical_reports):
        elapsed = canonical_reports["elapsed"]
        assert elapsed < 180.0
        baseline = canonical_reports["baseline"]
        alt_b = canonical_reports["alternative_b"]
        announce(
            6,
            "baseline FC(pause)=3/3, FC(delay)=0/3, OFO=2/3; alternative B flips the "
            f"delay/trace cell ({baseline.matrix.score_means[(NETWORK_DELAY, TRACE_RESPONSE)]:.3f}"
            f" -> {alt_b.matrix.score_means[(NETWORK_DELAY, TRACE_RESPONSE)]:.3f}), OFO=3/3, "
            f"dFC=+1, dOFO=+1 ({elapsed:.0f}s for the 120 runs of 4 files)",
        )


class TestCriterion7CostOrdering:
    def test_cost_monotone_in_trace_rate_and_b_cheaper_than_c(self, canonical_reports):
        baseline = canonical_reports["baseline"]
        alt_b = canonical_reports["alternative_b"]
        alt_c = canonical_reports["alternative_c"]

        # common random numbers: per-(fault, repetition) totals never decrease
        # as the trace sampling rate grows
        for low, high in ((baseline, alt_b), (alt_b, alt_c)):
            for run_low, run_high in zip(low.runs, high.runs):
                assert (run_low.fault, run_low.repetition) == (run_high.fault, run_high.repetition)
                assert run_high.cost.total >= run_low.cost.total

        overhead_b = overhead(baseline.cost.total, alt_b.cost.total)
        overhead_c = overhead(baseline.cost.total, alt_c.cost.total)
        assert 0 < overhead_b < overhead_c
        announce(
            7,
            f"cost nondecreasing in trace rate; overhead B=+{overhead_b:.2f}% < C=+{overhead_c:.2f}%",
        )


class TestCriterion8TelemetryInvariants:
    def test_invariants_on_canonical_runs(self):
        started = time.perf_counter()
        specs = {
            "baseline": parse_experiment_file(experiment_path("baseline")),
            "alternative_b": parse_experiment_file(experiment_path("alternative_b")),
        }
        runs_checked = 0
        for name, spec in specs.items():
            repetitions = range(spec.repetitions) if name == "baseline" else range(3)
            sue = apply_instrumentation(spec.sue, spec.instrumentation_treatments())
            for repetition in repetitions:
                for fault, run in simulate_repetition(spec, repetition):
                    runs_checked += 1
                    batch = build_batch(run.log, sue, spec.workload.duration_ms,
                                        rng_stream(spec.seed + repetition, "trace-sampling"))
                    series_list = [materialize_response(response, batch, fault) for response in spec.responses]

                    # span nesting: child intervals inside parent intervals
                    rows = span_rows(batch.spans, spec.sue)
                    by_id = {s.span_id: s for s in rows}
                    for span in rows:
                        if span.parent >= 0:
                            parent = by_id[span.parent]
                            assert parent.start_ms <= span.start_ms
                            assert span.end_ms <= parent.end_ms

                    # metric grid alignment
                    for point, (timestamps, values) in batch.metrics.items():
                        interval = spec.sue.metric_point(point).aggregation_interval_ms
                        assert all(timestamps % interval == 0)
                        assert len(timestamps) == len(values)

                    # label partition: one label per row, fault span matches window
                    for response, series in zip(spec.responses, series_list):
                        if response.kind != "metric":
                            continue
                        assert len(series.is_fault) == len(series.values) == len(series.timestamps)
                        interval = spec.sue.metric_point(series.name).aggregation_interval_ms
                        fault_rows = int(series.is_fault.sum())
                        window_span = (fault.end_ms or 0) - (fault.start_ms or 0)
                        assert abs(fault_rows * interval - window_span) <= interval

                    # per-run binomial concentration of head sampling
                    rate = (
                        0.05 if name == "alternative_b" else spec.sue.trace_config.rate
                    )
                    sigma = (batch.trace_count * rate * (1 - rate)) ** 0.5
                    assert abs(batch.kept_trace_count - batch.trace_count * rate) <= 4 * sigma

                    # closed-loop bound: in-flight requests never exceed users
                    events = sorted(
                        [(r.start_ms, 1) for r in run.records] + [(r.end_ms, -1) for r in run.records]
                    )
                    in_flight = peak = 0
                    for _, delta in events:
                        in_flight += delta
                        peak = max(peak, in_flight)
                    assert peak <= spec.workload.users

        # dedicated binomial concentration check at rate 0.05, >= 10 000 traces
        log = event_log(spans=[(span_id(i), -1, 0, i, i + 5, 1) for i in range(12_000)])
        spans, total = sample_traces(log, TraceConfigSpec("probabilistic", 0.05), rng_stream(0, "acc"))
        kept = len(set((spans.span_id >> SPAN_BITS).tolist()))
        sigma = (total * 0.05 * 0.95) ** 0.5
        assert abs(kept - total * 0.05) <= 3 * sigma

        elapsed = time.perf_counter() - started
        announce(
            8,
            f"nesting, grid, labeling, sampling concentration and in-flight bound hold "
            f"on {runs_checked} canonical runs ({elapsed:.0f}s)",
        )

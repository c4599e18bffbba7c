from __future__ import annotations

import functools
import json
import math
import multiprocessing
import operator
import subprocess
import sys
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oxn import cli, config, runner
from oxn.config import (CostModelSpec, DetectionSpec, MetricSamplingInterval, Pause, Stress, TracingSamplingRate,
                        render_experiment)
from oxn.detection import MIN_CLASS_ROWS, ThresholdAlertMechanism
from oxn.report import compare_docs, report_json
from oxn.runner import ExperimentError, run_experiment, run_experiments, spec_digest
from oxn.simulator import SimState

from conftest import REPO_ROOT, cli_env, experiment_path, small_spec


DELETE = object()  # a field a test removes from a report document


@pytest.fixture(scope="module")
def small_report():
    return run_experiment(small_spec(), frozen_clock=True)


@pytest.fixture
def serial_pool(monkeypatch):
    """Replace the runner's process pool with one that maps in this process;
    returns the worker count of each pool made."""
    created = []

    class SerialPool:
        def __init__(self, max_workers, initializer, initargs):
            created.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", SerialPool)
    return created


def pool_start_methods(monkeypatch):
    """Each start method this platform offers, with the runner's process pools
    switched to start their workers by that method while it is yielded."""
    for method in multiprocessing.get_all_start_methods():
        pool = functools.partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context(method))
        monkeypatch.setattr(runner, "ProcessPoolExecutor", pool)
        yield method


def module_level_factory(alert_k=3.0, **_):
    """A mechanism factory defined outside oxn, as a library user registers one."""
    return ThresholdAlertMechanism(k=alert_k)


class Crash:
    def run(self, ds):
        raise RuntimeError("detector crashed")


class FailsLate:
    """Mechanism factory whose mechanism crashes from the ``crash_run``-th run
    on (counted from 0), given ``responses`` mechanisms made per run."""

    def __init__(self, responses: int, crash_run: int):
        self.responses, self.crash_run, self.made = responses, crash_run, 0

    def __call__(self, alert_k=3.0, **_):
        self.made += 1
        if (self.made - 1) // self.responses == self.crash_run:
            return Crash()
        return ThresholdAlertMechanism(k=alert_k)


class FixedScore:
    """Mechanism whose ``run`` returns an object with a fixed score, as a
    mechanism defined outside oxn may, in place of a ``DetectionOutcome``."""

    def __init__(self, score):
        self.score = score

    def run(self, ds):
        return self


PAUSE_BACKEND = Pause(name="pause_backend", target="backend", start_ms=40_000, end_ms=80_000)


@st.composite
def spec_lists(draw):
    """One to five small specs. Each draws its name, instrumentation,
    responses, detection and cost model, which specs may differ in and still
    share their simulations, and its seed, workload and repetitions, which
    they may not."""
    base = small_spec()
    specs = []
    for i in range(draw(st.integers(1, 5))):
        instrumentation = draw(st.sampled_from([
            (),
            (TracingSamplingRate(name="rate", rate=0.1),),
            (MetricSamplingInterval(name="fast_cpu", metric="system_cpu", interval_ms=1000),),
        ]))
        responses = draw(st.lists(st.sampled_from(base.responses), min_size=1, max_size=3, unique=True))
        specs.append(small_spec(
            name=f"spec{i}",
            seed=draw(st.sampled_from([42, 43])),
            repetitions=draw(st.integers(1, 2)),
            workload=draw(st.sampled_from([base.workload, replace(base.workload, users=8)])),
            treatments=(*instrumentation, PAUSE_BACKEND),
            responses=tuple(responses),
            detection=draw(st.sampled_from([DetectionSpec(), DetectionSpec(mechanism="threshold_alert", alpha=0.5)])),
            cost_model=draw(st.sampled_from([CostModelSpec(), CostModelSpec(per_span_collector_ms=7.0)])),
        ))
    return specs


def family(n: int = 4):
    """``n`` specs that share their behaviour: only their names, trace
    sampling rates and detection mechanisms differ."""
    return [small_spec(name=f"member{i}", treatments=(TracingSamplingRate(name="rate", rate=0.2 * i), PAUSE_BACKEND),
                       detection=DetectionSpec(mechanism=("logistic_regression", "threshold_alert")[i % 2]))
            for i in range(n)]


class TestRunExperiment:
    def test_locked_small_experiment_outcome(self, small_report):
        coverage = small_report.matrix.fault_coverage["pause_backend"]
        assert str(coverage) == "2/3"
        assert str(small_report.matrix.ofo) == "1/1"
        means = small_report.matrix.score_means
        assert means[("pause_backend", "trace_duration_gateway")] == pytest.approx(
            0.9926470588235294, abs=1e-9
        )
        assert means[("pause_backend", "backend_rpm")] == pytest.approx(0.75, abs=1e-9)

    def test_repetition_zero_unaffected_by_repetition_count(self):
        one = run_experiment(small_spec(repetitions=1), frozen_clock=True)
        three = run_experiment(small_spec(repetitions=3), frozen_clock=True)
        assert one.runs[0].scores == three.runs[0].scores
        assert one.runs[0].seed == three.runs[0].seed
        assert [r.seed for r in three.runs] == [42, 43, 44]

    def test_report_self_consistency(self, small_report):
        doc = small_report.to_doc()
        for fault, row in doc["visibility"].items():
            recomputed = sum(
                1
                for cell in row.values()
                if cell["score_mean"] is not None and cell["score_mean"] > doc["alpha"]
            )
            assert recomputed == doc["fault_coverage"][fault]["visible"]
        covered = sum(1 for c in doc["fault_coverage"].values() if c["visible"] > 0)
        assert covered == doc["ofo"]["covered"]

    def test_parallel_equals_serial(self, monkeypatch):
        serial = report_json(run_experiment(small_spec(), parallel=1, frozen_clock=True))
        specs = [*family(2), small_spec(name="other", seed=9)]
        separate = [report_json(run_experiment(spec, frozen_clock=True)) for spec in specs]
        for method in pool_start_methods(monkeypatch):
            parallel = run_experiment(small_spec(), parallel=2, frozen_clock=True)
            assert report_json(parallel) == serial, method
            together = run_experiments(specs, parallel=2, frozen_clock=True)
            assert [report_json(report) for report in together] == separate, method

    def test_registered_mechanism_runs_in_every_pool(self, monkeypatch):
        monkeypatch.setitem(config._REGISTRY, "mine", module_level_factory)
        spec = small_spec(detection=DetectionSpec(mechanism="mine"))
        serial = run_experiment(spec, parallel=1, frozen_clock=True).matrix.score_runs
        for method in pool_start_methods(monkeypatch):
            parallel = run_experiment(spec, parallel=2, frozen_clock=True).matrix.score_runs
            assert parallel == serial, method

    def test_pool_rejects_a_factory_that_does_not_pickle(self, monkeypatch, serial_pool):
        monkeypatch.setitem(config._REGISTRY, "mine", lambda **_: ThresholdAlertMechanism())
        spec = small_spec(repetitions=2, detection=DetectionSpec(mechanism="mine"))
        with pytest.raises(ExperimentError, match="mechanism 'mine' cannot be sent to pool workers"):
            run_experiment(spec, parallel=2, frozen_clock=True)
        assert serial_pool == []  # rejected before any run starts
        assert len(run_experiment(spec, parallel=1, frozen_clock=True).runs) == 2

    def test_pool_has_at_most_one_worker_per_run(self, serial_pool):
        report = run_experiment(small_spec(repetitions=2), parallel=64, frozen_clock=True)
        assert serial_pool == [len(report.runs)] == [2]

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_run_failure_names_the_first_unfinished_run(self, monkeypatch, serial_pool, parallel):
        spec = small_spec(
            treatments=(
                Pause(name="pause_backend", target="backend", start_ms=40_000, end_ms=80_000),
                Pause(name="pause_gateway", target="gateway", start_ms=40_000, end_ms=80_000),
            ),
            detection=DetectionSpec(mechanism="fails_late"),
        )
        # Runs go repetition by repetition, fault by fault in start order (spec
        # order among equal starts), and each makes one mechanism per response:
        # the fourth run is repetition 1 of the second fault. The factory is a
        # module-level class so that it pickles.
        factory = FailsLate(responses=len(spec.responses), crash_run=3)
        monkeypatch.setitem(config._REGISTRY, "fails_late", factory)
        with pytest.raises(ExperimentError) as raised:
            run_experiment(spec, parallel=parallel, frozen_clock=True)
        assert serial_pool == ([] if parallel == 1 else [2])
        assert str(raised.value) == (
            "run failed (first unfinished run: experiment=small fault=pause_gateway repetition=1): detector crashed"
        )

    @pytest.mark.parametrize("score", [1.5, -0.1, math.nan, "0.5"])
    def test_a_score_that_is_not_a_number_in_the_unit_interval_fails_its_run(self, monkeypatch, score):
        monkeypatch.setitem(config._REGISTRY, "fixed", lambda **_: FixedScore(score))
        spec = small_spec(detection=DetectionSpec(mechanism="fixed"))
        with pytest.raises(ExperimentError) as raised:
            run_experiment(spec, frozen_clock=True)
        assert str(raised.value) == (
            "run failed (first unfinished run: experiment=small fault=pause_backend repetition=0): "
            f"mechanism 'fixed' scored response 'system_cpu' {score!r}, not a number in [0, 1]"
        )

    def test_a_score_is_kept_as_a_float(self, monkeypatch):
        # True is an int in [0, 1]; written as true, compare would reject the report
        monkeypatch.setitem(config._REGISTRY, "fixed", lambda **_: FixedScore(True))
        doc = json.loads(report_json(run_experiment(small_spec(detection=DetectionSpec(mechanism="fixed")))))
        assert {json.dumps(run["scores"]) for run in doc["runs"]} == {
            '{"backend_rpm": 1.0, "system_cpu": 1.0, "trace_duration_gateway": 1.0}'
        }
        assert compare_docs(doc, doc)["delta_ofo"] == 0

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_each_fault_gives_its_one_fault_runs(self, parallel):
        """Faults that share a repetition's fault-free prefix, two of them
        forked at 60 s and one at 40 s, listed out of start order, score as
        they do alone."""
        faults = (
            Pause(name="pause_backend", target="backend", start_ms=60_000, end_ms=90_000),
            Stress(name="stress_backend", target="backend", start_ms=40_000, end_ms=80_000, factor=3.0),
            Pause(name="pause_gateway", target="gateway", start_ms=60_000, end_ms=100_000),
        )
        doc = run_experiment(small_spec(treatments=faults), parallel=parallel, frozen_clock=True).to_doc()
        assert [run["fault"] for run in doc["runs"]] == [f.name for f in faults for _ in range(2)]
        for fault in faults:
            alone = run_experiment(small_spec(treatments=(fault,)), frozen_clock=True).to_doc()
            assert [run for run in doc["runs"] if run["fault"] == fault.name] == alone["runs"]
            assert doc["visibility"][fault.name] == alone["visibility"][fault.name]

    def test_a_repetition_forks_for_each_fault_but_the_last_and_drops_each_run(self, monkeypatch):
        """Each ``run_until`` of a repetition sees which runs yielded before it
        are still alive once the consumer has dropped them: none. The last
        fault runs on the prefix state itself."""
        faults = tuple(Pause(name=f"pause_{t}", target="backend", start_ms=t, end_ms=90_000)
                       for t in (40_000, 60_000, 70_000))
        runs, alive, forks = [], [], []
        run_until, fork = SimState.run_until, SimState.fork

        def watched(sim, until):
            alive.append([run() is not None for run in runs])
            run_until(sim, until)

        monkeypatch.setattr(SimState, "run_until", watched)
        monkeypatch.setattr(SimState, "fork", lambda sim: forks.append(sim.now) or fork(sim))
        for _, run in runner.simulate_repetition(small_spec(treatments=faults), 0):
            runs.append(weakref.ref(run))
            del run
        assert alive == [[], [], [False], [False], [False, False], [False, False]]
        assert forks == [39_999, 59_999]

    def test_undefined_score_counts_as_invisible(self):
        # [40 s, 65 s] leaves only three 10 s counter windows inside the fault
        # interval: below the per-class minimum, so that cell's score is
        # undefined and visibility falls back to 0.
        spec = small_spec(
            treatments=(
                Pause(
                    name="pause_backend",
                    target="backend",
                    start_ms=40_000,
                    end_ms=65_000,
                ),
            )
        )
        report = run_experiment(spec, frozen_clock=True)
        assert report.matrix.score_means[("pause_backend", "backend_rpm")] is None
        doc = report.to_doc()
        cell = doc["visibility"]["pause_backend"]["backend_rpm"]
        assert cell["score_mean"] is None
        assert cell["visible"] == 0
        assert doc["fault_coverage"]["pause_backend"]["responses"] == 3
        # each run names why its undefined score is undefined, and only that score
        for run in doc["runs"]:
            assert run["scores"]["backend_rpm"] is None
            assert run["reasons"] == {
                "backend_rpm": "insufficient data in series 'backend_rpm': need at least "
                f"{MIN_CLASS_ROWS} rows per class, have 3 fault / 6 normal"
            }
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(doc, json.loads((REPO_ROOT / "src/oxn/report_schema.json").read_text()))

    def test_fit_that_cannot_converge_gives_undefined_scores(self, small_report):
        # no fit reaches a gradient infinity-norm of 1e-19 within its Newton
        # steps: each logistic score is undefined and names why, and no field
        # that does not derive from the scores or the spec moves
        spec = small_spec(detection=DetectionSpec(tol=1e-19))
        doc = run_experiment(spec, frozen_clock=True).to_doc()
        expected = small_report.to_doc()
        for run in doc["runs"]:
            assert set(run["scores"].values()) == {None}
            assert sorted(run["reasons"]) == sorted(run["scores"])
            for reason in run["reasons"].values():
                assert reason.startswith("logistic regression failed to converge after 100 iterations")
        for cell in doc["visibility"]["pause_backend"].values():
            assert cell == {"score_mean": None, "score_runs": [None, None], "visible": 0}
        assert doc["fault_coverage"]["pause_backend"] == {"visible": 0, "responses": 3, "ratio": "0/3"}
        assert doc["ofo"] == {"covered": 0, "faults": 1, "ratio": "0/1"}
        assert doc["spec_digest"] == spec_digest(spec)
        for key in ("visibility", "fault_coverage", "ofo", "spec_digest"):
            del doc[key], expected[key]
        for run in doc["runs"] + expected["runs"]:
            del run["scores"]
            run.pop("reasons", None)
        assert doc == expected

    def test_invalid_spec_rejected(self):
        spec = small_spec(repetitions=0)
        with pytest.raises(ExperimentError, match="invalid"):
            run_experiment(spec)

    def test_no_faults_rejected(self):
        spec = small_spec(treatments=())
        with pytest.raises(ExperimentError, match="no fault treatments"):
            run_experiment(spec)

    def test_digest_depends_on_spec(self):
        a = small_spec()
        assert spec_digest(a) == spec_digest(small_spec())
        assert spec_digest(a) != spec_digest(small_spec(seed=43))

    def test_csv_export_names(self, tmp_path):
        run_experiment(small_spec(repetitions=1), export_dir=tmp_path, frozen_clock=True)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "small_pause_backend-r0_backend_rpm.csv",
            "small_pause_backend-r0_spans.csv",
            "small_pause_backend-r0_system_cpu.csv",
            "small_pause_backend-r0_trace_duration_gateway.csv",
        ]


class TestRunExperiments:
    @given(spec_lists())
    @settings(max_examples=30, deadline=None)
    def test_each_report_has_the_bytes_of_its_separate_run(self, specs):
        together = run_experiments(specs, frozen_clock=True)
        assert [report_json(report) for report in together] == [
            report_json(run_experiment(spec, frozen_clock=True)) for spec in specs
        ]

    def test_specs_of_one_behaviour_simulate_each_repetition_once(self, monkeypatch):
        calls = []

        def counted(spec, repetition):
            calls.append(repetition)
            return simulate_repetition(spec, repetition)

        simulate_repetition = runner.simulate_repetition
        monkeypatch.setattr(runner, "simulate_repetition", counted)
        specs = family(4)
        reports = run_experiments(specs, frozen_clock=True)
        assert calls == [0, 1]  # R = 2 repetitions, not 4R
        assert [len(report.runs) for report in reports] == [2, 2, 2, 2]
        calls.clear()
        run_experiments([*specs, replace(specs[0], name="reseeded", seed=7)], frozen_clock=True)
        assert calls == [0, 1, 0, 1]

    def test_one_pool_serves_every_group(self, serial_pool):
        specs = [*family(2), small_spec(name="other", seed=9)]
        run_experiments(specs, parallel=8, frozen_clock=True)
        assert serial_pool == [4]  # one pool, one worker per (group, repetition)

    def test_every_mechanism_is_checked_before_a_pool_starts(self, monkeypatch, serial_pool):
        monkeypatch.setitem(config._REGISTRY, "mine", lambda **_: ThresholdAlertMechanism())
        specs = [small_spec(), small_spec(name="mine", detection=DetectionSpec(mechanism="mine"))]
        with pytest.raises(ExperimentError, match="mechanism 'mine' cannot be sent to pool workers"):
            run_experiments(specs, parallel=2, frozen_clock=True)
        assert serial_pool == []

    def test_a_failure_names_the_experiment_whose_run_failed(self, monkeypatch):
        specs = family(2)
        factory = FailsLate(responses=len(specs[1].responses), crash_run=1)
        monkeypatch.setitem(config._REGISTRY, "fails_late", factory)
        specs[1] = replace(specs[1], detection=DetectionSpec(mechanism="fails_late"))
        # repetition 0 scores member0 then member1 (run 0), repetition 1
        # member0 then member1 (run 1), which crashes
        with pytest.raises(ExperimentError) as raised:
            run_experiments(specs, frozen_clock=True)
        assert str(raised.value) == (
            "run failed (first unfinished run: experiment=member1 fault=pause_backend repetition=1): detector crashed"
        )

    def test_csv_export_takes_one_spec(self, tmp_path):
        with pytest.raises(ExperimentError, match="export_dir takes one spec"):
            run_experiments(family(2), export_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_no_specs_give_no_reports(self):
        assert run_experiments([], parallel=2) == []

    def test_an_invalid_spec_is_named_before_any_run(self, monkeypatch):
        monkeypatch.setattr(runner, "simulate_repetition", None)
        with pytest.raises(ExperimentError, match="^experiment spec 'bad' is invalid: "):
            run_experiments([small_spec(), small_spec(name="bad", repetitions=0)])


class TestCompare:
    def test_report_vs_itself(self, small_report):
        doc = small_report.to_doc()
        comparison = compare_docs(doc, doc)
        assert comparison["delta_fc_total"] == 0
        assert comparison["delta_ofo"] == 0
        assert comparison["cells_changed"] == []
        assert comparison["cost"]["overhead_pct"] == 0.0

    def test_dimension_mismatch(self, small_report):
        doc = small_report.to_doc()
        other = json.loads(json.dumps(doc))
        other["responses"] = doc["responses"][:-1]
        with pytest.raises(ValueError, match="different response variables"):
            compare_docs(doc, other)
        renamed = json.loads(json.dumps(doc))
        renamed["fault_coverage"] = {"other_fault": doc["fault_coverage"]["pause_backend"]}
        with pytest.raises(ValueError, match="different fault sets"):
            compare_docs(doc, renamed)

    def test_flip_is_reported(self, small_report):
        doc = small_report.to_doc()
        flipped = json.loads(json.dumps(doc))
        flipped["visibility"]["pause_backend"]["system_cpu"] = {"score_mean": 1.0, "score_runs": [1.0, 1.0], "visible": 1}
        flipped["fault_coverage"]["pause_backend"] = {"visible": 3, "responses": 3, "ratio": "3/3"}
        comparison = compare_docs(doc, flipped)
        assert comparison["delta_fc_total"] == 1
        assert comparison["cells_changed"] == [
            {"fault": "pause_backend", "response": "system_cpu", "visible_delta": 1}
        ]


class TestReportDocument:
    def test_schema_conformance(self, small_report):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads((REPO_ROOT / "src/oxn/report_schema.json").read_text())
        doc = small_report.to_doc()
        jsonschema.validate(doc, schema)
        doc["visibility"]["pause_backend"]["system_cpu"]["score_mean"] = 5.0
        with pytest.raises(jsonschema.ValidationError) as rejected:
            jsonschema.validate(doc, schema)
        assert (list(rejected.value.absolute_path), rejected.value.message) == (
            ["visibility", "pause_backend", "system_cpu", "score_mean"],
            "5.0 is greater than the maximum of 1",
        )

    def test_a_report_with_a_live_clock_conforms(self):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads((REPO_ROOT / "src/oxn/report_schema.json").read_text())
        doc = json.loads(report_json(run_experiment(small_spec(repetitions=1))))
        jsonschema.validate(doc, schema)
        assert sorted(doc["meta"]) == ["generated_at", "numpy", "python", "wall_clock_s"]
        doc["meta"]["frozen"] = True
        assert not jsonschema.Draft7Validator(schema).is_valid(doc)

    @pytest.mark.parametrize(
        "key, edit",
        [
            ("responses", lambda responses: []),
            ("responses", lambda responses: responses + responses[:1]),
            ("fault_coverage", lambda coverage: {}),
            ("visibility", lambda cells: {}),
        ],
        ids=["no_responses", "repeated_response", "no_fault_coverage", "no_visibility"],
    )
    def test_schema_and_compare_reject_a_report_without_its_dimensions(self, small_report, key, edit):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads((REPO_ROOT / "src/oxn/report_schema.json").read_text())
        doc = small_report.to_doc()
        doc[key] = edit(doc[key])
        assert not jsonschema.Draft7Validator(schema).is_valid(doc)
        with pytest.raises(ValueError, match=f"^{key}"):
            compare_docs(doc, doc)

    def test_ratio_strings(self, small_report):
        doc = small_report.to_doc()
        assert doc["ofo"]["ratio"] == "1/1"
        assert doc["fault_coverage"]["pause_backend"]["ratio"] == "2/3"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "oxn.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd or REPO_ROOT,
        env=cli_env(),
    )


def unreadable(tmp_path, kind):
    """An input path that exists but is not readable UTF-8 text, and the
    reason the CLI gives for it."""
    if kind == "directory":
        path = tmp_path / "dir.yaml"
        path.mkdir()
        return path, "Is a directory"
    path = tmp_path / "latin1.yaml"
    path.write_bytes(b"name: caf\xe9\n")
    return path, "'utf-8' codec can't decode byte 0xe9 in position 9: invalid continuation byte"


class TestCli:
    @pytest.fixture()
    def small_file(self, tmp_path):
        path = tmp_path / "small.yaml"
        path.write_text(render_experiment(small_spec(repetitions=1)))
        return path

    def test_validate_ok(self, small_file):
        proc = run_cli("validate", str(small_file))
        assert proc.returncode == 0
        assert "ok: small" in proc.stdout

    def test_validate_reports_violations(self, tmp_path):
        bad = small_spec(repetitions=0)
        path = tmp_path / "bad.yaml"
        path.write_text(render_experiment(bad))
        proc = run_cli("validate", str(path))
        assert proc.returncode == 1
        assert "repetitions" in proc.stdout

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_a_file_without_a_fault_is_rejected(self, tmp_path, command):
        path = tmp_path / "no_fault.yaml"
        path.write_text(render_experiment(small_spec(repetitions=1, treatments=())))
        proc = run_cli(command, str(path))
        assert proc.returncode == 1
        assert "treatments: experiment has no fault treatments to run" in proc.stdout + proc.stderr

    def test_validate_malformed_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("name: [oops\n")
        proc = run_cli("validate", str(path))
        assert proc.returncode == 1
        assert "syntax error" in proc.stderr

    @pytest.mark.parametrize("old, new, expected", [
        ("seed: 0", "seed: 2001-13-45", (1, "", "error: seed must be an integer\n")),
        ("name: baseline", "name: 2001-12-05", (0, "ok: 2001-12-05\n", "")),
    ], ids=["seed", "name"])
    def test_validate_reads_a_date_as_a_string(self, tmp_path, old, new, expected):
        path = tmp_path / "dated.yaml"
        path.write_text(experiment_path("baseline").read_text().replace(old, new, 1))
        proc = run_cli("validate", str(path))
        assert (proc.returncode, proc.stdout, proc.stderr) == expected

    def test_missing_file(self):
        proc = run_cli("validate", "/nonexistent.yaml")
        assert proc.returncode == 1

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("kind", ["directory", "non-utf-8"])
    def test_unreadable_experiment_file_is_rejected(self, tmp_path, command, kind):
        path, reason = unreadable(tmp_path, kind)
        proc = run_cli(command, str(path))
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: cannot read {path}: {reason}\n")

    @pytest.mark.parametrize("kind", ["directory", "non-utf-8"])
    def test_compare_rejects_an_unreadable_report_in_either_place(self, small_report, tmp_path, kind):
        good = tmp_path / "good.json"
        good.write_text(report_json(small_report))
        bad, reason = unreadable(tmp_path, kind)
        for first, second in ((bad, good), (good, bad)):
            proc = run_cli("compare", str(first), str(second))
            assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: cannot read {bad}: {reason}\n")

    @pytest.mark.parametrize(
        "sub, reason", [("", "File exists"), ("report", "Not a directory")], ids=["out-is-a-file", "out-under-a-file"]
    )
    def test_run_rejects_an_out_it_cannot_create_before_running(
        self, small_file, tmp_path, monkeypatch, capsys, sub, reason
    ):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker / sub if sub else blocker

        def must_not_run(*args, **kwargs):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr(runner, "run_experiments", must_not_run)
        assert cli.main(["run", str(small_file), "--out", str(out)]) == cli.EXIT_VALIDATION
        assert capsys.readouterr() == ("", f"error: cannot create --out {out}: {reason}\n")

    def test_run_names_a_report_it_cannot_write(self, small_file, tmp_path, capsys):
        out = tmp_path / "out"
        report_path = out / "small_report.json"
        report_path.mkdir(parents=True)
        assert cli.main(["run", str(small_file), "--out", str(out), "--frozen-clock"]) == cli.EXIT_VALIDATION
        assert capsys.readouterr() == ("", f"error: cannot write {report_path}: Is a directory\n")

    def test_run_writes_report_and_csv(self, small_file, tmp_path):
        out = tmp_path / "out"
        proc = run_cli(
            "run", str(small_file), "--out", str(out), "--export-csv", "--frozen-clock"
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads((out / "small_report.json").read_text())
        assert report["experiment"] == "small"
        assert (out / "csv" / "small_pause_backend-r0_spans.csv").exists()
        assert "ofo:" in proc.stdout

    @pytest.fixture()
    def alternative_file(self, tmp_path):
        """An alternative design of ``small_file``'s experiment: it shares its
        simulations and samples traces at another rate."""
        path = tmp_path / "alternative.yaml"
        path.write_text(render_experiment(small_spec(
            name="small_alt", repetitions=1, treatments=(TracingSamplingRate(name="rate", rate=0.9), PAUSE_BACKEND)
        )))
        return path

    def test_run_of_several_files_writes_the_reports_of_separate_runs(self, small_file, alternative_file, tmp_path):
        out = tmp_path / "together"
        proc = run_cli("run", str(small_file), str(alternative_file), "--out", str(out), "--frozen-clock",
                       "--parallel", "2")
        assert proc.returncode == 0, proc.stderr
        assert sorted(p.name for p in out.iterdir()) == ["small_alt_report.json", "small_report.json"]
        assert proc.stdout.count("report: ") == 2
        for path in (small_file, alternative_file):
            alone = tmp_path / path.stem
            assert cli.main(["run", str(path), "--out", str(alone), "--frozen-clock"]) == cli.EXIT_OK
            (report,) = alone.iterdir()
            assert (out / report.name).read_bytes() == report.read_bytes()

    @pytest.mark.parametrize("extra, same_name, message", [
        ([], False, "more than one file requires --out: stdout holds one report"),
        (["--out", "OUT", "--export-csv"], False,
         "--export-csv takes one file: the CSV file names of two experiments can collide"),
        (["--out", "OUT"], True, "{small} and {other} both name experiment 'small': one report would overwrite the other"),
    ], ids=["stdout", "export-csv", "same-name"])
    def test_run_refuses_files_that_cannot_share_a_call_before_running(
        self, small_file, alternative_file, tmp_path, monkeypatch, capsys, extra, same_name, message
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr(runner, "run_experiments", must_not_run)
        other = alternative_file
        if same_name:
            other = tmp_path / "renamed.yaml"
            other.write_text(alternative_file.read_text().replace("name: small_alt", "name: small"))
        args = [arg.replace("OUT", str(tmp_path / "out")) for arg in extra]
        assert cli.main(["run", str(small_file), str(other), *args]) == cli.EXIT_VALIDATION
        assert capsys.readouterr() == ("", "error: " + message.format(small=small_file, other=other) + "\n")
        assert not (tmp_path / "out").exists()

    def test_run_to_stdout(self, small_file):
        proc = run_cli("run", str(small_file), "--frozen-clock")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["meta"] == {"frozen_clock": True}

    def test_compare_round_trip(self, small_file, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_cli("run", str(small_file), "--out", str(out_a), "--frozen-clock").returncode == 0
        assert run_cli("run", str(small_file), "--out", str(out_b), "--frozen-clock").returncode == 0
        proc = run_cli(
            "compare", str(out_a / "small_report.json"), str(out_b / "small_report.json")
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["delta_ofo"] == 0
        assert doc["cost"]["overhead_pct"] == 0.0

    def test_compare_mismatch_exit_code(self, small_file, tmp_path):
        out = tmp_path / "a"
        assert run_cli("run", str(small_file), "--out", str(out), "--frozen-clock").returncode == 0
        report = json.loads((out / "small_report.json").read_text())
        report["responses"] = report["responses"][:-1]
        mutated = tmp_path / "mutated.json"
        mutated.write_text(json.dumps(report))
        proc = run_cli("compare", str(out / "small_report.json"), str(mutated))
        assert proc.returncode == 1

    def test_compare_rejects_malformed_report(self, small_report, tmp_path):
        listed = tmp_path / "list.json"
        listed.write_text("[]")
        proc = run_cli("compare", str(listed), str(listed))
        assert (proc.returncode, proc.stderr) == (1, "error: a report must be a JSON object, not list\n")

        good = tmp_path / "good.json"
        good.write_text(report_json(small_report))
        doc = small_report.to_doc()
        doc["fault_coverage"]["pause_backend"]["visible"] = "1"
        stringly = tmp_path / "stringly.json"
        stringly.write_text(json.dumps(doc))
        proc = run_cli("compare", str(good), str(stringly))
        assert (proc.returncode, proc.stderr) == (
            1,
            'error: fault_coverage.pause_backend.visible is "1", but the repetition scores give 2\n',
        )

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("fault_coverage",), [], "fault_coverage must be a nonempty object, not []"),
            (("ofo",), [], "ofo must be an object, not []"),
            (("visibility",), [], "visibility must be an object, not []"),
            (
                ("visibility", "pause_backend", "system_cpu", "visible"),
                "1",
                'visibility.pause_backend.system_cpu.visible is "1", but the repetition scores give 0',
            ),
            (("visibility", "pause_backend", "backend_rpm"), DELETE, "visibility.pause_backend.backend_rpm is missing"),
            (
                ("fault_coverage", "pause_backend", "visible"),
                5,
                "fault_coverage.pause_backend.visible is 5, but the repetition scores give 2",
            ),
            (("cost",), {"total": "x"}, "cost.total must be a positive finite number, not 'x'"),
            (("cost",), DELETE, "cost is missing"),
            (("responses",), DELETE, "responses is missing"),
            (("responses",), ["system_cpu", 1], "responses must be a nonempty list of distinct strings, not ['system_cpu', 1]"),
            (("experiment",), DELETE, "experiment is missing"),
            (
                ("visibility", "pause_backend", "system_cpu", "visible"),
                7,
                "visibility.pause_backend.system_cpu.visible is 7, but the repetition scores give 0",
            ),
            (
                ("visibility", "pause_backend", "system_cpu", "visible"),
                1,
                "visibility.pause_backend.system_cpu.visible is 1, but the repetition scores give 0",
            ),
            (
                ("fault_coverage", "pause_backend"),
                {"visible": 4, "responses": 6, "ratio": "4/6"},  # the same fraction
                "fault_coverage.pause_backend.visible is 4, but the repetition scores give 2",
            ),
            (("ofo",), {"covered": 0, "faults": 1, "ratio": "0/1"}, "ofo.covered is 0, but the repetition scores give 1"),
            (("ofo",), {"covered": 2, "faults": 2, "ratio": "2/2"}, "ofo.covered is 2, but the repetition scores give 1"),
            # The cell, its coverage and the OFO agree, but the cell's mean 0.667 is below alpha 0.7.
            (
                None,
                {
                    ("visibility", "pause_backend", "system_cpu", "visible"): 1,
                    ("fault_coverage", "pause_backend"): {"visible": 3, "responses": 3, "ratio": "3/3"},
                },
                "visibility.pause_backend.system_cpu.visible is 1, but the repetition scores give 0",
            ),
            (
                ("visibility", "pause_backend", "system_cpu", "score_mean"),
                5.0,
                "visibility.pause_backend.system_cpu.score_mean is 5.0, but the repetition scores give 0.6666666666666667",
            ),
            (("alpha",), "x", "alpha must be a number in (0, 1), not 'x'"),
            (
                ("fault_coverage", "pause_backend", "ratio"),
                "9/9",
                'fault_coverage.pause_backend.ratio is "9/9", but the repetition scores give "2/3"',
            ),
            (
                ("visibility", "pause_backend", "system_cpu", "score_runs"),
                [5.0, -4.0],
                "visibility.pause_backend.system_cpu.score_runs must be a list of nulls and numbers in [0, 1],"
                " not [5.0, -4.0]",
            ),
            (
                ("visibility", "pause_backend", "backend_rpm", "visible"),
                True,
                "visibility.pause_backend.backend_rpm.visible is true, but the repetition scores give 1",
            ),
            (
                ("visibility", "pause_backend", "backend_rpm", "note"),
                "ok",
                "visibility.pause_backend.backend_rpm.note is not a field the repetition scores give",
            ),
            (("alpha",), 0, "alpha must be a number in (0, 1), not 0"),
            (("alpha",), 1, "alpha must be a number in (0, 1), not 1"),
        ],
    )
    def test_compare_names_the_malformed_field(self, small_report, tmp_path, path, value, message):
        """Sets the field at ``path`` to ``value``; with no path, ``value``
        maps each path to edit to its value."""
        good = tmp_path / "good.json"
        good.write_text(report_json(small_report))
        doc = small_report.to_doc()
        for path, value in (value if path is None else {path: value}).items():
            parent = functools.reduce(operator.getitem, path[:-1], doc)
            if value is DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        proc = run_cli("compare", str(good), str(bad))
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "total", [0, -1.5, pytest.param(math.inf, id="Infinity"), pytest.param(10**400, id="int-above-float-range")]
    )
    def test_compare_names_a_nonpositive_cost_in_either_report(self, small_report, tmp_path, total):
        """JSON reads Infinity and integers of any size; neither is a cost
        that compare can print or divide by."""
        good = tmp_path / "good.json"
        good.write_text(report_json(small_report))
        doc = small_report.to_doc()
        doc["cost"]["total"] = total
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        for first, second in ((bad, good), (good, bad)):
            proc = run_cli("compare", str(first), str(second))
            assert (proc.returncode, proc.stdout, proc.stderr) == (
                1, "", f"error: cost.total must be a positive finite number, not {total!r}\n"
            )

    @pytest.mark.parametrize("baseline, alternative", [(5e-324, 1.0), (1e-300, 1e300)])
    def test_compare_refuses_a_cost_ratio_beyond_the_float_range(self, small_report, tmp_path, capsys,
                                                                baseline, alternative):
        """Both totals are positive finite numbers, but the alternative's over
        the baseline's overflows, and JSON has no Infinity to print."""
        paths = []
        for name, total in (("a", baseline), ("b", alternative)):
            doc = small_report.to_doc()
            doc["cost"]["total"] = total
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(doc))
        assert cli.main(["compare", *map(str, paths)]) == cli.EXIT_VALIDATION
        assert capsys.readouterr() == (
            "", f"error: cost.total {alternative!r} over {baseline!r} overflows the float range\n"
        )

    def test_run_rejects_name_that_escapes_out(self, tmp_path):
        path = tmp_path / "escape.yaml"
        path.write_text(render_experiment(small_spec(name="../escaped", repetitions=1)))
        proc = run_cli("run", str(path), "--out", str(tmp_path / "out"), "--frozen-clock")
        assert proc.returncode == 1
        assert "invalid: name: name must be free of" in proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["escape.yaml"]

    @pytest.mark.parametrize(
        "args",
        [[], ["bogus"], ["run"], ["run", "experiments/baseline.yaml", "--parallel", "abc"]],
        ids=["no-command", "unknown-command", "run-without-file", "parallel-not-an-integer"],
    )
    def test_usage_error_prints_usage_and_exits_with_the_validation_code(self, args, capsys):
        assert cli.main(args) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("usage: oxn")
        proc = run_cli(*args)
        assert (proc.returncode, proc.stdout) == (cli.EXIT_VALIDATION, "")
        assert proc.stderr.startswith("usage: oxn")

    def test_help_exits_with_success(self, capsys):
        assert cli.main(["--help"]) == cli.EXIT_OK
        assert capsys.readouterr().out.startswith("usage: oxn")

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_run_rejects_parallel_below_one(self, small_file, capsys, workers):
        assert cli.main(["run", str(small_file), "--parallel", workers]) == cli.EXIT_VALIDATION
        assert "--parallel" in capsys.readouterr().err

    def test_export_csv_requires_out(self, small_file):
        proc = run_cli("run", str(small_file), "--export-csv")
        assert proc.returncode == 1

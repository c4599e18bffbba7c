"""Tests of the benchmark harness itself.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import harness  # noqa: E402
import run  # noqa: E402

harness.require_sources()

import oxn  # noqa: E402
import oxn.runner  # noqa: E402
from oxn.simulator import SimState  # noqa: E402

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny(tmp_path_factory) -> Path:
    """The baseline experiment shrunk to a few seconds of work."""
    text = (harness.ROOT / "experiments" / "baseline.yaml").read_text()
    for old, new in [
        ("repetitions: 10", "repetitions: 2"),
        ("users: 50", "users: 10"),
        ("duration_s: 600", "duration_s: 120"),
        ("ramp_up_s: 30", "ramp_up_s: 10"),
        ("start_s: 250, end_s: 490", "start_s: 40, end_s: 100"),
    ]:
        assert old in text
        text = text.replace(old, new)
    path = tmp_path_factory.mktemp("spec") / "tiny.yaml"
    path.write_text(text)
    return path


def layer_entry_points() -> list:
    return [
        oxn.runner.init_sim,
        oxn.runner.drive,
        SimState.run_until,
        oxn.runner.build_batch,
        oxn.runner.materialize_response,
        oxn.runner.build_dataset,
        oxn.runner.make_mechanism,
        oxn.runner.account,
    ]


def test_wrappers_are_removed_after_traced_run(tiny):
    originals = layer_entry_points()
    tracer = harness.Tracer()
    with tracer.installed():
        assert all(a is not b for a, b in zip(layer_entry_points(), originals))
        traced = harness.run_iteration([tiny], seed=1, tracer=tracer)
    assert all(a is b for a, b in zip(layer_entry_points(), originals))

    recorded = (len(tracer.spans), dict(tracer.counts))
    plain = harness.run_iteration([tiny], seed=1)
    assert (len(tracer.spans), dict(tracer.counts)) == recorded
    assert plain.tracer is None
    assert plain.reports == traced.reports


def test_wrappers_are_removed_when_the_block_raises():
    originals = layer_entry_points()
    with pytest.raises(RuntimeError):
        with harness.Tracer().installed():
            raise RuntimeError("boom")
    assert all(a is b for a, b in zip(layer_entry_points(), originals))


def test_speed_probe_is_removed_after_iteration(tiny):
    previous = signal.getsignal(signal.SIGALRM)
    it = harness.run_iteration([tiny], seed=1)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert it.speed > 0 and it.wall_s == pytest.approx(it.raw_wall_s * it.speed)


def test_self_times_add_up_to_traced_wall(tiny):
    tracer = harness.Tracer()
    with tracer.installed():
        traced = harness.run_iteration([tiny], seed=1, tracer=tracer)
    metrics = tracer.layer_metrics(traced.speed)
    self_total = sum(metrics[m] for m in harness.SELF_TIME_METRICS.values())
    assert 0.95 * traced.wall_s <= self_total <= traced.wall_s
    assert set(tracer.self_times()) == set(harness.SELF_TIME_METRICS)
    spans = tracer.spans
    assert all(spans[parent][0] == "runner" for name, _, _, parent in spans if name.startswith("simulator."))
    assert metrics["simulator.runs"] == 3 * 2
    assert metrics["detection.cells"] == 3 * 2 * 3
    assert 0.0 < metrics["detection.defined_ratio"] <= 1.0


def test_metric_names_match_benchmark_json(tiny):
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    declared = {
        "end_to_end": {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
    }
    _, untraced, units = run.timed_run([tiny], seed=1, seconds=0)
    assert units == declared["end_to_end"] and set(untraced) == set(units)
    _, traced, units = run.traced_run([tiny], seed=1, seconds=0)
    assert units == declared["per_layer"] and set(traced) == set(units)
    for name in [*untraced, *traced]:
        assert pattern.fullmatch(name), name
    assert all(value > 0 for value in untraced.values())


def test_every_workload_file_has_a_pinned_digest():
    stems = {Path(p).stem for paths in harness.WORKLOADS.values() for p in paths}
    assert set(harness.load_digests()["reports"]) == stems
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(harness.WORKLOADS)


def test_flipped_byte_counts_as_failure(tiny):
    it = harness.run_iteration([tiny], seed=1)
    data = it.reports["tiny"]
    pinned = {"tiny": hashlib.sha256(data).hexdigest()}
    assert harness.count_failures([it], pinned) == (1, 0)

    flipped = bytearray(data)
    flipped[len(flipped) // 2] ^= 0x01
    bad = dataclasses.replace(it, reports={"tiny": bytes(flipped)})
    assert harness.count_failures([bad], pinned) == (1, 1)
    # Without pinned digests, later iterations are compared with the first.
    assert harness.count_failures([it, bad], None) == (2, 1)


def test_raising_run_counts_as_failure(tiny, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("simulated failure")

    monkeypatch.setattr(oxn, "run_experiment", broken)
    it = harness.run_iteration([tiny], seed=1)
    assert it.reports == {"tiny": None}
    assert harness.count_failures([it], None) == (1, 1)


@pytest.mark.parametrize("path", [p for paths in harness.WORKLOADS.values() for p in paths])
def test_parallel_reports_match_serial(path):
    """The --parallel 2 path is checked for bytes here and not timed: on a
    shared 2-core host its wall time spreads too widely to bound."""
    spec = dataclasses.replace(oxn.parse_experiment_file(harness.ROOT / path), repetitions=2)
    serial = oxn.runner.report_json(oxn.run_experiment(spec, parallel=1, frozen_clock=True))
    parallel = oxn.runner.report_json(oxn.run_experiment(spec, parallel=2, frozen_clock=True))
    assert parallel == serial


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "family", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout

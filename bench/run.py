"""Run one oxn benchmark workload and print its metrics.

    python3 bench/run.py --workload family --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
is the separate traced run: it alternates untraced and traced iterations and
reports the per-layer metrics, and writes its spans under ``.bench_out/``.
Every metric is printed by name with its unit; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. See ``bench/README.md`` for what each metric
means.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time

import harness

# Fresh interpreters started per run to measure setup_s; the first one only
# warms the byte-code cache and is not counted.
SETUP_SAMPLES = 7
# An untraced run makes at least two iterations, so that every run also
# checks that one seed gives the same report bytes twice; a traced run
# compares the bytes of its untraced and traced iterations instead.
MIN_UNTRACED_ITERATIONS = 2

END_TO_END_UNITS = {
    "wall_s": "s",
    "sim_requests_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    **{metric: "s" for metric in harness.SELF_TIME_METRICS.values()},
    "simulator.requests_per_s": "1/s",
    "simulator.runs": "count",
    "simulator.requests": "count",
    "simulator.timeouts": "count",
    "simulator.spans": "count",
    "telemetry.metric_events": "count",
    "telemetry.kept_spans": "count",
    "detection.cells": "count",
    "detection.defined_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

SETUP_CHILD = """
import sys, time
started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from oxn import parse_experiment_file, validate
for path in sys.argv[3:]:
    if validate(parse_experiment_file(path)):
        sys.exit("invalid experiment file " + path)
elapsed = time.perf_counter() - started
sys.path.insert(0, sys.argv[2])
from harness import reference_kernel, speed_of
print(repr(elapsed * speed_of([reference_kernel() for _ in range(20)])))
"""


def measure_setup(paths) -> float:
    """Seconds a fresh interpreter takes to import oxn, then parse and
    validate ``paths``, as measured inside that interpreter and scaled to the
    reference host speed by the reference kernel timed right after."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CHILD, str(harness.ROOT / "src"), str(harness.BENCH_DIR),
         *map(str, paths)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout)


def repeat(step, seconds: float, minimum: int) -> list:
    """Call ``step`` until the next call would end past ``seconds`` from now,
    at least ``minimum`` times; garbage is collected between calls."""
    deadline = time.perf_counter() + seconds
    results = []
    while True:
        gc.collect()
        began = time.perf_counter()
        results.append(step())
        took = time.perf_counter() - began
        if len(results) >= minimum and time.perf_counter() + took > deadline:
            return results


def timed_run(paths, seed: int, seconds: float):
    measure_setup(paths)
    setup = [measure_setup(paths) for _ in range(SETUP_SAMPLES)]
    iterations = repeat(lambda: harness.run_iteration(paths, seed), seconds, MIN_UNTRACED_ITERATIONS)
    metrics = {
        "wall_s": statistics.median(it.wall_s for it in iterations),
        "sim_requests_per_s": statistics.median(it.requests / it.wall_s for it in iterations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }
    return iterations, metrics, END_TO_END_UNITS


def traced_step(paths, seed: int):
    plain = harness.run_iteration(paths, seed)
    tracer = harness.Tracer()
    with tracer.installed():
        traced = harness.run_iteration(paths, seed, tracer)
    return plain, traced


def traced_run(paths, seed: int, seconds: float):
    pairs = repeat(lambda: traced_step(paths, seed), seconds, 1)
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    per_iteration = [t.tracer.layer_metrics(t.speed) for t in traced]
    metrics = {
        name: statistics.median(m[name] for m in per_iteration)
        for name in PER_LAYER_UNITS
        if not name.startswith("trace.")
    }
    metrics["trace.wall_s"] = statistics.median(t.wall_s for t in traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(p.wall_s for p in plain)
    return [it for pair in pairs for it in pair], metrics, PER_LAYER_UNITS


def write_spans(path, workload: str, seed: int, traced) -> None:
    """One span per line: [name, start_s, end_s, parent index], times from the
    start of the first span of its iteration."""
    path.parent.mkdir(parents=True, exist_ok=True)
    chunks = []
    for it in traced:
        origin = it.tracer.spans[0][1]
        lines = ",\n".join(
            json.dumps([name, round(start - origin, 6), round(end - origin, 6), parent])
            for name, start, end, parent in it.tracer.spans
        )
        chunks.append(f'{{"wall_s": {it.wall_s!r}, "spans": [\n{lines}\n]}}')
    header = json.dumps({"workload": workload, "seed": seed, "fields": ["name", "start_s", "end_s", "parent"]})
    path.write_text(header[:-1] + ', "iterations": [\n' + ",\n".join(chunks) + "\n]}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    harness.require_sources()
    paths = harness.workload_paths(args.workload)
    digests = harness.load_digests()
    pinned = digests["reports"] if args.seed == digests["seed"] else None

    run = traced_run if args.trace else timed_run
    iterations, metrics, units = run(paths, args.seed, args.seconds)
    attempted, failed = harness.count_failures(iterations, pinned)
    if args.trace:
        traced = [it for it in iterations if it.tracer is not None]
        out = harness.ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json"
        write_spans(out, args.workload, args.seed, traced)
        print(f"spans written to {out.relative_to(harness.ROOT)}")

    print(f"workload {args.workload}, seed {args.seed}, {len(iterations)} iterations, "
          f"digests {'pinned' if pinned else 'compared across iterations'}")
    for it in iterations:
        print(f"  iteration: {it.raw_wall_s:.3f} s measured, host speed {it.speed:.3f} of reference, "
              f"{it.wall_s:.3f} reference s{' (traced)' if it.tracer else ''}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6f} {units[name]}")
    print(f"  {'failed_ratio':28s} {failed / attempted:14.6f} ratio ({failed} of {attempted} reports)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

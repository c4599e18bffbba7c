"""Run the untraced benchmark over several seeds and summarise each
end-to-end metric.

    python3 bench/spread.py --workloads family surge dense --seeds 1-10 --out summary.json

Each (workload, seed) pair is one ``bench/run.py`` process with the
``run_seconds`` of ``BENCHMARK.json``, run serially. For every metric the
summary gives the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of the
median, next to the bound ``BENCHMARK.json`` fixes for it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed ({done.returncode}):\n{done.stderr}{done.stdout}")
    return json.loads(done.stdout.splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="a range 'a-b' or a list 'a,b,c'")
    parser.add_argument("--out", type=Path, help="write the summary as JSON here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads:
        results = []
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, spec["run_seconds"])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect output {result}")
            results.append(result)
            print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
        metrics = {
            name: summarise([r["metrics"][name]["value"] for r in results])
            for name in bounds
        }
        summary["workloads"][workload] = {"seeds": parse_seeds(args.seeds), "metrics": metrics}
        for name, stats in metrics.items():
            bound = bounds[name]
            spread = stats["spread"]
            flag = "" if spread is not None and spread < bound / 3 else "  <-- not below bound/3"
            print(f"{workload:8s} {name:28s} median {stats['median']:14.6f}  "
                  f"q1 {stats['q1']:14.6f}  q3 {stats['q3']:14.6f}  "
                  f"spread {spread if spread is None else round(spread, 4)}  bound {bound}{flag}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

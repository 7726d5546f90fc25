"""Measures the baseline: two sets of ten seeds per workload, and two
traced runs each.

    python3 bench/baseline.py [--out bench/baseline.json]

Runs ``run.py`` once per seed of ``SEEDS`` and workload with the
``run_seconds`` of ``BENCHMARK.json``, twice over, then twice with
``--trace 1`` on the first seed. Writes every run's figures and, per set
and end-to-end metric, the median and the quartile spread (distance
between the first and third quartile as a share of the median), next to
the metric's bound; the change of the second set's median against the
first; and the per-layer figures of both traced runs, with the counts
that must repeat exactly between them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(101, 111)
SETS = 2
# Counts fixed by the workload and seed; two traced runs must agree on them.
REPEATING = ("process_algebra.step.calls", "explorer.nodes", "explorer.edges")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = done.stdout.splitlines()
    return {**json.loads(lines[-2]), **json.loads(lines[-1])}


def summarise(runs: list[dict], bounds: dict[str, float]) -> dict:
    summary = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "median": statistics.median(values),
            "spread": (q3 - q1) / statistics.median(values),
            "bound": bound,
            "values": values,
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / "bench" / "baseline.json")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]

    sets = []
    for _ in range(SETS):
        runs = {w: [run(w, seed, spec["run_seconds"], 0) for seed in SEEDS] for w in workloads}
        sets.append(runs)
    traced = {w: [run(w, SEEDS[0], spec["run_seconds"], 1) for _ in range(SETS)] for w in workloads}

    baseline = {}
    for workload in workloads:
        summaries = [summarise(runs[workload], bounds) for runs in sets]
        # how much worse the second median is than the first, as a share
        worse = {}
        for name in bounds:
            first, second = (s[name]["median"] for s in summaries)
            change = (second - first) / first
            worse[name] = change if better[name] == "lower" else -change
        layers = [{k: v["value"] for k, v in t["metrics"].items()} for t in traced[workload]]
        for name, summary in summaries[0].items():
            print(f"{workload:10s} {name:14s} median {summary['median']:.6g} "
                  f"spread {summary['spread']:.3f}/{summaries[1][name]['spread']:.3f} "
                  f"second worse by {worse[name]:+.3f} bound {bounds[name]}", file=sys.stderr)
        all_runs = [r for runs in sets for r in runs[workload]] + traced[workload]
        baseline[workload] = {
            "environment": sets[0][workload][0]["environment"],
            "seeds": [SEEDS[0], SEEDS[-1]],
            "all_correct": all(r["correct"] for r in all_runs),
            "samples": [[r["samples"] for r in runs[workload]] for runs in sets],
            "end_to_end": summaries,
            "second_set_worse_by": worse,
            "per_layer": layers,
            "traced_counts_repeat": {name: layers[0][name] == layers[1][name] for name in REPEATING},
        }
    args.out.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

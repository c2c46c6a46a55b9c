#!/usr/bin/env python3
"""Record a trajectory point: every workload at several seeds, summarised.

Usage (from the repository root):

    python3 perfbench/baseline.py --seeds 10 --out perfbench/BENCH_1.json

Runs ``run.py`` once per (workload, seed) untraced, with seeds 1..N, and
once traced at seed 1.  For each end-to-end metric it writes the values,
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median; a
metric whose spread exceeds its bound in ``BENCHMARK.json`` cannot resolve
a change of that size.  The traced run's per-layer values are written as
they are.  Runs are sequential, so the whole file takes several minutes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    stamp = json.loads(lines[-2].removeprefix("stamp ")) if len(lines) > 1 else {}
    return {"stamp": stamp, **json.loads(lines[-1])}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    point = {"schema": "perfbench-trajectory/1", "run_seconds": spec["run_seconds"],
             "seeds": list(range(1, args.seeds + 1)), "workloads": {}}
    for w in spec["workloads"]:
        runs = [run(spec, w["name"], seed, 0) for seed in point["seeds"]]
        for r, seed in zip(runs, point["seeds"]):
            print(w["name"], seed, json.dumps({k: round(v["value"], 6)
                                               for k, v in r["metrics"].items()}), flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            summary[name] = {
                "unit": runs[0]["metrics"][name]["unit"], "median": median, "q1": q1,
                "q3": q3, "spread": (q3 - q1) / median, "bound": bounds[name],
                "values": values,
            }
            print(f"  {name:14s} median {median:.6g}  spread {summary[name]['spread']:.3f}"
                  f"  bound {bounds[name]}", flush=True)
        traced = run(spec, w["name"], point["seeds"][0], 1)
        point["workloads"][w["name"]] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": summary,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        point["stamp"] = runs[0]["stamp"]
    Path(args.out).write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

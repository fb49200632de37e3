#!/usr/bin/env python3
"""Run the benchmark on several seeds per workload and record the results.

    python3 perfbench/baseline.py --out perfbench/baseline.json

For each workload in ``BENCHMARK.json``: one untraced run on each of
``SEEDS``, then one traced run on the first seed.  The output keeps every
result object exactly as ``run.py`` printed it, and for each end-to-end
metric the median and the quartile spread (third minus first quartile, as a
share of the median) over the seeds, which is the figure the bounds in
``BENCHMARK.json`` are set against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(101, 111))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(results: list[dict], bounds: dict) -> dict:
    out = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        mid = statistics.median(values)
        out[name] = {"median": mid, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / mid if mid else 0.0, "bound": bound}
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    record = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {len(os.sched_getaffinity(0))} CPUs",
        "run_seconds": seconds,
        "seeds": SEEDS,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        untraced = []
        for seed in SEEDS:
            untraced.append({"seed": seed, "result": run(workload, seed, seconds, 0)})
            print(workload, seed, json.dumps(untraced[-1]["result"]["metrics"]), flush=True)
        record["workloads"][workload] = {
            "summary": summary([u["result"] for u in untraced], bounds),
            "untraced": untraced,
            "traced": {"seed": SEEDS[0], "result": run(workload, SEEDS[0], seconds, 1)},
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

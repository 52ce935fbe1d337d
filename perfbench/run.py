#!/usr/bin/env python3
"""Benchmark launcher for ivenn.

    python3 perfbench/run.py [--workload knn-d32|train-d2|base-csv|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the package is imported from `src`,
nothing needs installing. Each workload runs in a fresh Python process
(perfbench/bench.py) so peak memory does not carry over, with the
OpenBLAS/OpenMP/MKL thread counts pinned to THREADS. The launcher records
the environment (Python, numpy and OpenBLAS versions, CPU count, load
average before and after each workload), prints every metric with its unit,
and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones named in BENCHMARK.json,
with --trace 1 the per-layer ones. `--workload all` runs the three in turn
and prefixes each metric with its workload. Temporary files go under
.perfbench_work/ in the checkout and are removed after each run, except the
span dump of the last traced run of each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench" / "bench.py"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("knn-d32", "train-d2", "base-csv")
THREADS = 1
# knn-d32, the slowest workload, takes 25-45 s at --seconds 6 on a 2-vCPU
# host; a run must end within 180 s.
CHILD_TIMEOUT_S = 170


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name, args):
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS=str(THREADS),
        OMP_NUM_THREADS=str(THREADS),
        MKL_NUM_THREADS=str(THREADS),
    )
    cmd = [
        sys.executable, str(BENCH), "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", str(WORK),
    ]
    if args.toy:
        cmd.append("--toy")
    load_before = os.getloadavg()
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{name}: no result within {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"{name}: bench.py exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["info"].update(
        wall_s=time.perf_counter() - t0,
        nproc=os.cpu_count(),
        threads=THREADS,
        load_before=load_before,
        load_after=os.getloadavg(),
    )
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        raise SystemExit(f"{name}: metrics {got} do not match BENCHMARK.json {want}")
    return result


def main():
    parser = argparse.ArgumentParser(description="Run ivenn's benchmark workloads.")
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=6)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="smoke-test sizes")
    args = parser.parse_args()
    if not (ROOT / "src" / "ivenn" / "__init__.py").is_file():
        sys.exit(f"no ivenn sources under {ROOT / 'src'}; run from a full checkout")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args) for name in names}
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, result in results.items():
        print(f"== {name}: " + json.dumps(result.pop("info"), sort_keys=True))
        for metric, m in result["metrics"].items():
            print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
        prefix = f"{name}." if len(results) > 1 else ""
        final["correct"] = final["correct"] and result["correct"]
        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
        final["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps(final))


if __name__ == "__main__":
    main()

"""Smoke test of the benchmark at toy size.

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import bench  # noqa: E402
import run  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_named_metric_appears_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.2", "--trace", str(trace), "--toy"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == run.expected_metrics(trace)


def _corrupt_one_count(path):
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    start = lines.index("counts:") + 1
    # the fullest cell, so the stream surely lands in its category
    row = max(range(start, len(lines)), key=lambda i: int(lines[i].split()[2]))
    cat, cls, cnt = lines[row].split()
    lines[row] = f"{cat} {cls} {int(cnt) + 1}"
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("workload", ["knn-d32", "base-csv"])
def test_corrupted_table_fails_the_serve_checks(workload):
    w = bench.toy(bench.WORKLOADS[workload])
    os.makedirs(run.WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="smoke-", dir=run.WORK)
    try:
        cfg, queries = bench.prepare(w, 7, work)
        out_dir = os.path.join(work, "run0")
        _, result = bench.run_once(cfg, out_dir, bench.Tally(), time.perf_counter, None)

        def served_failures():
            predictor = bench.set_up(cfg, out_dir)
            q_emb = bench.embed_stream(cfg, predictor, queries)
            check = bench.ServeCheck(
                result.table.counts,
                result.taxonomy.assign_many(embeddings=q_emb, softmaxes=queries.softmaxes),
            )
            tally = bench.Tally()
            server = bench.Server(
                predictor, q_emb, queries.softmaxes, check, tally, time.perf_counter)
            server.serve(0, len(queries))
            assert tally.attempted == len(queries)
            return tally.failed

        assert served_failures() == 0
        _corrupt_one_count(os.path.join(out_dir, "table.txt"))
        assert served_failures() > 0
    finally:
        shutil.rmtree(work, ignore_errors=True)

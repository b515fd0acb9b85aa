"""Reduced-size self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload at the reduced size, untraced and traced, and checks that
the last line of each run is a correct result naming every metric of
BENCHMARK.json with its unit, and that in a directory holding only
BENCHMARK.json and bench/ the benchmark exits non-zero without a result.
Takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from layers import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    declared = {name: unit for name, unit, _ in PER_LAYER}
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    if listed != declared:
        problems.append(f"BENCHMARK.json per_layer differs from layers.PER_LAYER: {listed}")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(ROOT, workload, trace)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0 or not result.get("correct"):
                problems.append(f"{label}: exit {proc.returncode}, {proc.stderr[-500:]}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            metrics = result["metrics"]
            for m in spec[group]:
                got = metrics.get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append(f"{label}: {m['name']} missing or without unit {m['unit']}")
                elif group == "end_to_end" and not got["value"] > 0:
                    problems.append(f"{label}: {m['name']} is {got['value']}")
            if len(metrics) != len(spec[group]):
                problems.append(f"{label}: {len(metrics)} metrics, expected {len(spec[group])}")
            print(f"{label}: {len(metrics)} metrics, "
                  f"{result['attempted']} checks, {result['failed']} failed")

    bare = ROOT / ".bench_runs" / f"selftest-bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("without src/ the benchmark did not fail cleanly")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

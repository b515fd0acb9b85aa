"""sheetlab benchmark: time to a verified result, end to end and per layer.

    python3 bench/run.py --workload spde-law --seed 1 --seconds 30 --trace 0

Runs one workload (spde-law, green-xval or field-law; see README.md) for
about ``--seconds`` seconds, one repetition per fresh interpreter
(``worker.py``), and checks every repetition's outputs.  With ``--trace 0``
it reports the end-to-end metrics, each the median over the repetitions:

- ``run_s``: wall time from inputs ready to outputs written and checked;
- ``cpu_s``: process CPU time of the same interval, summed over threads;
- ``setup_s``: time from interpreter start until the inputs are built;
- ``peak_rss_mb``: peak resident memory of the repetition's process.

With ``--trace 1`` it alternates untraced and traced repetitions and reports
the per-layer metrics of ``layers.PER_LAYER`` (medians over the traced
repetitions) and ``trace.overhead``, the traced over the untraced median
``run_s``.

Every repetition must exit cleanly, give sane outputs, and reproduce the
reference for its seed: the file recorded under ``reference/`` when there is
one (seed 1, and seed 2 held out), otherwise the run's first repetition.
``fail_ratio`` is the failed checks over the checks attempted.

The lines before the last describe the environment and each metric with its
quartiles and sample count; the last line is the result as one JSON object.
BLAS threading is left at the default a user gets.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import PER_LAYER
from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "reference"
END_TO_END = [("run_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
RUN_LIMIT_S = 170.0  # a run must end within 180 s
MIN_REPS = 3


def summary(values: list) -> dict:
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_rep(args, rep_dir: Path, traced: bool, reference, timeout: float):
    """Start one worker and wait for it; return (result or None, error text)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--out", str(rep_dir),
           "--trace", "1" if traced else "0"]
    if reference is not None:
        cmd += ["--reference", str(reference)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        return None, f"repetition exceeded {timeout:.0f} s"
    if proc.returncode != 0 or not (rep_dir / "result.json").exists():
        return None, f"worker exited with code {proc.returncode}: {proc.stderr[-2000:]}"
    with open(rep_dir / "result.json") as fh:
        result = json.load(fh)
    result["setup_s"] = result["t_ready"] - spawned
    return result, ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "small"),
                        help="'small' is the reduced size used by selftest.py")
    parser.add_argument("--record-reference", action="store_true",
                        help="run once and store the outputs under reference/")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sheetlab" / "__init__.py").is_file():
        print(f"bench: no sheetlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run_dir = ROOT / ".bench_runs" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        return measure(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, run_dir: Path) -> int:
    ref_file = REFERENCES / f"{args.workload}-seed{args.seed}.json"
    if args.record_reference:
        result, error = run_rep(args, run_dir / "rep0", False, None, RUN_LIMIT_S)
        if result is None or not all(result["checks"].values()):
            print(f"bench: not recorded: {error or result['notes']}", file=sys.stderr)
            return 1
        with open(run_dir / "rep0" / "checked.json") as fh:
            outputs = json.load(fh)["outputs"]
        REFERENCES.mkdir(exist_ok=True)
        with open(ref_file, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "size": args.size,
                       "outputs": outputs}, fh, indent=1)
            fh.write("\n")
        print(f"recorded {ref_file.relative_to(ROOT)}")
        return 0

    reference = ref_file if args.size == "full" and ref_file.is_file() else None
    reference_source = str(ref_file.relative_to(ROOT)) if reference else "first repetition"
    start = time.monotonic()
    results = {False: [], True: []}  # by traced
    attempted = failed = 0
    environment, verdicts, untraced, rep_walls = None, None, [], []
    spans_kept = None
    rep = 0
    while True:
        elapsed = time.monotonic() - start
        typical = statistics.median(rep_walls) if rep_walls else 0.0
        if rep >= MIN_REPS + args.trace and elapsed + typical > args.seconds:
            break
        if elapsed + typical > RUN_LIMIT_S:
            break
        traced = bool(args.trace) and rep % 2 == 1
        rep_dir = run_dir / f"rep{rep}"
        t0 = time.monotonic()
        result, error = run_rep(args, rep_dir, traced, reference, RUN_LIMIT_S - elapsed)
        rep_walls.append(time.monotonic() - t0)
        rep += 1
        if result is None:
            attempted += 1
            failed += 1
            print(f"bench: repetition {rep - 1} failed: {error}", file=sys.stderr)
            break
        attempted += len(result["checks"])
        failed += sum(not ok for ok in result["checks"].values())
        for note in result["notes"]:
            print(f"bench: repetition {rep - 1}: {note}", file=sys.stderr)
        results[traced].append(result)
        environment = environment or result.get("environment")
        verdicts = verdicts or result["verdicts"]
        untraced = result.get("untraced", untraced)
        if traced:
            spans_kept = rep_dir / "spans.json"
        if reference is None and (rep_dir / "checked.json").exists():
            reference = run_dir / "reference.json"
            shutil.copyfile(rep_dir / "checked.json", reference)

    plain = results[False]
    if not plain or (args.trace and not results[True]):
        print("bench: no repetition completed", file=sys.stderr)
        return 1
    metrics, lines = {}, []
    if args.trace:
        overhead = (statistics.median(r["run_s"] for r in results[True])
                    / statistics.median(r["run_s"] for r in plain))
        for name, unit, kind in PER_LAYER:
            if name == "trace.overhead":
                stats = {"median": overhead, "n": len(results[True])}
            else:
                stats = summary([r["layers"][name] for r in results[True]])
            metrics[name] = {"value": stats["median"], "unit": unit}
            lines.append({"metric": name, "unit": unit, "kind": kind, **stats})
        if spans_kept is not None:
            kept = ROOT / ".bench_runs" / f"spans-{args.workload}-seed{args.seed}.json"
            shutil.copyfile(spans_kept, kept)
            lines.append({"spans": str(kept.relative_to(ROOT)), "untraced": untraced})
    else:
        for name, unit in END_TO_END:
            stats = summary([r[name] for r in plain])
            metrics[name] = {"value": stats["median"], "unit": unit}
            lines.append({"metric": name, "unit": unit, **stats})
    lines.append({"metric": "fail_ratio", "unit": "ratio", "value": failed / attempted,
                  "failed": failed, "attempted": attempted})

    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        **(environment or {}),
    }
    print(json.dumps({"environment": env}))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "size": args.size,
                      "seconds": args.seconds, "repetitions": rep,
                      "reference": reference_source, "verdicts": verdicts}))
    for line in lines:
        print(json.dumps(line))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

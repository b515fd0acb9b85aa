"""One repetition of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so every repetition pays
the imports a command-line user pays.  The worker imports sheetlab from the
checkout's ``src/``, builds the workload inputs from the seed, runs the
workload, writes its outputs, checks them, and writes ``result.json`` into
its output directory:

- ``t_ready``: ``time.monotonic()`` when the inputs are built (the parent
  subtracts its spawn time to get ``setup_s``);
- ``run_s`` and ``cpu_s``: wall and process CPU time (all threads) from
  inputs ready to outputs written and checked;
- ``peak_rss_mb``: the process's peak resident set size;
- ``checks``: each check attempted and whether it passed;
- ``layers``: per-layer metrics, when run with ``--trace 1``.

Why each workload was chosen is written beside its definition below and in
README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# relative tolerance of ROADMAP aim 1: bit-identical where the arithmetic is
# unchanged, otherwise within 1e-12 relative
REL_TOL = 1e-12


# ------------------------------------------------------------------ workloads
#
# spde-law: `sheetlab spde-compare` with the Donsker family at the criterion-12
#   configuration.  It is the slowest user path: thousands of small
#   fixed-point solves, dominated by green.k_apply (about ten calls per solve)
#   with green.lambda_sup recomputed on every solve and one generator and one
#   GEMV per replicate.  M is the CLI default, 500.
# green-xval: the Green series against walk-on-spheres at criterion-6 pairs
#   (d=2 at kmax 64, d=3 at kmax 32, 100k walks) plus the criterion-7
#   Parseval quadrature through green_values at 512^2 points.  A few large
#   vectorised passes whose working set exceeds the last-level cache; solver,
#   integrals and kernels stay idle, so a k_apply change predicts "no change".
# field-law: `sheetlab convergence-report --diagnostic fdd` for kac-stroock
#   (M=2000) and donsker (M=5000).  No solver; it exercises integrals the two
#   other ways (one batched GEMM for Donsker, a sign grid plus a matvec per
#   replicate for Kac-Stroock), so a noise-driver or batching change that
#   speeds spde-law but slows these paths shows here.

CRITERION_12_PROBES = "0.25,0.25;0.5,0.25;0.5,0.5;0.75,0.5;0.75,0.75"
# the first criterion-6 pair in each dimension; fixed so that the work of a
# run does not depend on its seed
CRITERION_6_PAIRS = {
    2: ((0.3, 0.4), (0.6, 0.7)),
    3: ((0.3, 0.4, 0.5), (0.6, 0.7, 0.4)),
}

SIZES = {
    "full": {"spde_M": 500, "wos_walks": 100_000, "parseval_m": 512,
             "field_grid_n": 32, "field_n": "4,16,64", "ks_M": 2000, "donsker_M": 5000},
    # reduced size for selftest.py only
    "small": {"spde_M": 100, "wos_walks": 2_000, "parseval_m": 64,
              "field_grid_n": 8, "field_n": "4,16", "ks_M": 1000, "donsker_M": 1000},
}


def spde_law_inputs(seed: int, size: dict) -> dict:
    common = ["--F", "tanh:1.0", "--g", "constant:1.0", "--grid-n", "16", "--seed", str(seed)]
    return {"runs": {
        "spde-compare": ["spde-compare", "--family", "donsker", "--n-list", "4,16,64",
                         "--probes", CRITERION_12_PROBES, "--M", str(size["spde_M"])] + common,
        # one solution field, so that numerical drift in the solver path shows
        "poisson-solve": ["poisson-solve", "--family", "donsker", "--n", "64"] + common,
    }}


def field_law_inputs(seed: int, size: dict) -> dict:
    def report(diagnostic, family, M):
        return ["convergence-report", "--diagnostic", diagnostic, "--family", family,
                "--grid-n", str(size["field_grid_n"]), "--n", size["field_n"],
                "--M", str(M), "--seed", str(seed)]

    return {"runs": {
        "kac-stroock": report("fdd", "kac-stroock", size["ks_M"]),
        "donsker": report("fdd", "donsker", size["donsker_M"]),
        # second moments, so that numerical drift in the field paths shows
        "variance-kac-stroock": report("variance", "kac-stroock", 100),
        "variance-donsker": report("variance", "donsker", 100),
    }}


def _csv_cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def run_cli(inputs: dict, out: Path) -> dict:
    """Run each CLI invocation into its own directory; return the files it wrote."""
    from sheetlab import cli

    outputs = {}
    for name, argv in inputs["runs"].items():
        report_dir = out / name
        code = cli.main(argv + ["--report-dir", str(report_dir)])
        if code != 0:
            raise RuntimeError(f"sheetlab {argv[0]} exited with code {code}")
        files = {}
        for path in sorted(report_dir.iterdir()):
            with open(path) as fh:
                if path.suffix == ".json":
                    files[path.name] = json.load(fh)
                else:
                    files[path.name] = [[_csv_cell(c) for c in line.rstrip("\n").split(",")]
                                        for line in fh]
        # the manifest's timestamp and output directory differ on every run
        files["manifest.json"] = files["manifest.json"]["config"]
        files["manifest.json"].pop("report_dir")
        # differences of nearly equal numbers: a reordering that keeps the
        # solution within 1e-12 moves them by far more
        for key in ("final_residual", "contraction_ratios"):
            files.get("solve.json", {}).pop(key, None)
        outputs[name] = files
    return outputs


def green_xval_inputs(seed: int, size: dict) -> dict:
    import numpy as np

    # the quadrature costs the same at every probe, so the seed may choose it
    probe = np.random.default_rng(seed).uniform(0.2, 0.8, size=2)
    return {"seed": seed, "walks": size["wos_walks"], "m": size["parseval_m"],
            "probe": probe.tolist()}


def run_green_xval(inputs: dict, out: Path) -> dict:
    import numpy as np
    from sheetlab import green
    from sheetlab.quadrature import tensor_points
    from sheetlab.rng import RngStream

    rng = RngStream(inputs["seed"])
    outputs = {}
    for d, (x, y) in CRITERION_6_PAIRS.items():
        gs = green.GreenSeries(d=d)
        est, se = green.green_mc_estimate(
            x, y, green.WosConfig(walks=inputs["walks"]), rng.substream(d)
        )
        series = green.green_eval(gs, x, y)
        tail = green.green_tail_estimate(gs, x, y)
        outputs[f"d{d}"] = {
            "x": list(x), "y": list(y), "kmax": gs.kmax, "series": series,
            "wos_estimate": est, "wos_se": se, "tail": tail,
            "verdict_ok": bool(abs(series - est) <= 3.0 * se + tail),
        }
    gs = green.GreenSeries(d=2, kmax=64)
    m = inputs["m"]
    pts = tensor_points([(np.arange(m) + 0.5) / m] * 2)
    x = np.asarray(inputs["probe"])
    vals = green.green_values(gs, x, pts)
    mask = np.linalg.norm(pts - x, axis=1) > 1e-3
    quad = float(np.sum(vals[mask] ** 2) / m**2)
    ref = green.green_l2_norm(gs, x) ** 2
    outputs["parseval"] = {"x": x.tolist(), "m": m, "quadrature": quad, "parseval": ref,
                           "verdict_ok": bool(abs(quad - ref) <= 0.02 * ref)}
    with open(out / "outputs.json", "w") as fh:
        json.dump(outputs, fh)
    return outputs


WORKLOADS = {
    "spde-law": (spde_law_inputs, run_cli),
    "green-xval": (green_xval_inputs, run_green_xval),
    "field-law": (field_law_inputs, run_cli),
}


# --------------------------------------------------------------------- checks

def verdicts(outputs: dict) -> dict:
    """Every statistical verdict, as it came out (failing ones included)."""
    found = {}
    for name, part in outputs.items():
        if "report.json" in part:
            for key, v in part["report.json"]["verdicts"].items():
                found[f"{name}.{key}"] = v["ok"]
        elif "verdict_ok" in part:
            found[name] = part["verdict_ok"]
    return found


def sanity_problems(outputs: dict) -> list:
    """Outputs that cannot be right whatever the seed: non-finite numbers,
    probabilities outside [0, 1], non-positive errors and norms."""
    problems = []

    def walk(path, obj):
        if isinstance(obj, float) and not math.isfinite(obj):
            problems.append(f"{path}: not finite")
        elif isinstance(obj, dict):
            for k, v in obj.items():
                walk(f"{path}.{k}", v)
        elif isinstance(obj, list):
            for i, v in enumerate(obj):
                walk(f"{path}[{i}]", v)

    walk("outputs", outputs)
    for name, part in outputs.items():
        if "report.json" in part:
            for row in part["report.json"]["per_n"]:
                for key in ("p_values", "ks_distances", "ks_statistics"):
                    if any(not 0.0 <= p <= 1.0 for p in row.get(key, [])):
                        problems.append(f"{name}: {key} outside [0, 1] at n={row['n']}")
        elif "solve.json" in part:
            if not part["solve.json"]["converged"]:
                problems.append(f"{name}: the fixed-point solve did not converge")
        elif name == "parseval":
            if not (part["quadrature"] > 0 and part["parseval"] > 0):
                problems.append("parseval: non-positive norm")
        elif not part["wos_se"] > 0:
            problems.append(f"{name}: walk-on-spheres standard error not positive")
    return problems


def mismatches(got, want, path="outputs", limit=10) -> list:
    """Paths where got differs from want beyond REL_TOL (numbers) or at all."""
    out = []

    def cmp(g, w, p):
        if len(out) >= limit:
            return
        if isinstance(w, bool) or w is None or isinstance(w, str):
            if g != w:
                out.append(f"{p}: {g!r} != {w!r}")
        elif isinstance(w, (int, float)):
            if isinstance(g, bool) or not isinstance(g, (int, float)):
                out.append(f"{p}: {g!r} is not a number")
            elif g != w and not abs(g - w) <= REL_TOL * max(abs(g), abs(w)):
                out.append(f"{p}: {g!r} != {w!r}")
        elif isinstance(w, dict):
            if not isinstance(g, dict) or set(g) != set(w):
                out.append(f"{p}: keys differ")
            else:
                for k in w:
                    cmp(g[k], w[k], f"{p}.{k}")
        elif isinstance(w, list):
            if not isinstance(g, list) or len(g) != len(w):
                out.append(f"{p}: lengths differ")
            else:
                for i, (gi, wi) in enumerate(zip(g, w)):
                    cmp(gi, wi, f"{p}[{i}]")

    cmp(got, want, path)
    return out


# ---------------------------------------------------------------- environment

def environment() -> dict:
    import ctypes

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads = fn()
                    break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_in_effect": threads,
    }


# ----------------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=sorted(SIZES))
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--reference", type=Path, default=None,
                        help="outputs JSON that this repetition must reproduce")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import sheetlab.cli  # noqa: F401  (the import a command-line user pays)

    if not Path(sheetlab.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"sheetlab imported from {sheetlab.__file__}, not {src}")
    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    make_inputs, run = WORKLOADS[args.workload]
    inputs = make_inputs(args.seed, SIZES[args.size])
    args.out.mkdir(parents=True, exist_ok=True)

    t_ready = time.monotonic()
    cpu0 = time.process_time()
    checks, notes, outputs = {}, [], None
    try:
        outputs = run(inputs, args.out)
        checks["exit"] = True
    except Exception:  # reported as a failed check, not a crash of the benchmark
        checks["exit"] = False
        notes.append(traceback.format_exc(limit=5))
    if outputs is not None:
        problems = sanity_problems(outputs)
        checks["sanity"] = not problems
        notes += problems
        if args.reference is not None:
            with open(args.reference) as fh:
                diff = mismatches(outputs, json.load(fh)["outputs"])
            checks["reference"] = not diff
            notes += diff
        with open(args.out / "checked.json", "w") as fh:
            json.dump({"outputs": outputs}, fh)
    t_done = time.monotonic()
    cpu1 = time.process_time()

    result = {
        "t_ready": t_ready,
        "run_s": t_done - t_ready,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": checks,
        "notes": notes,
        "verdicts": verdicts(outputs) if outputs is not None else {},
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["untraced"] = tracer.missing
        tracer.write(args.out / "spans.json")
    result["environment"] = environment()
    with open(args.out / "result.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

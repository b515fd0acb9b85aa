"""Per-layer tracing of sheetlab from outside the package.

The tracer wraps, at run time, the names through which one sheetlab module
calls another (for example ``sheetlab.solver.k_apply`` or the methods of the
integrator classes that ``sheetlab.convergence`` imported).  Each call becomes
a span (name, start, end, parent) kept in memory and written out when the run
ends.  Nothing under ``src/`` is edited: the wrappers live only in the worker
process that installs them.

A layer's self time is its spans' time minus the time of their direct child
spans.  Counters marked "computed" are derived only from return values and
array sizes, never from inside the library.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from collections import Counter, defaultdict

# (metric, unit, kind): "measured" is a time, "counted" a number of calls,
# "computed" a quantity derived from return values and array shapes, and
# "ratio" the traced over the untraced run time.  The comment after each
# group names the end-to-end metric and workload it should move.
PER_LAYER = [
    # run_s / cpu_s on spde-law
    ("green.k_apply.s", "s", "measured"),
    ("green.k_apply.calls", "count", "counted"),
    ("green.k_apply.flops", "flop", "computed"),
    ("green.lambda_sup.s", "s", "measured"),
    ("green.lambda_sup.calls", "count", "counted"),
    ("solver.solve_contraction.s", "s", "measured"),
    ("solver.solve_contraction.calls", "count", "counted"),
    ("solver.iterations", "count", "computed"),
    ("solver.nonconverged", "count", "computed"),
    ("solver.sample_noise_field.s", "s", "measured"),
    ("solver.SpdeSampler.init.s", "s", "measured"),
    # run_s on green-xval (green_values also moves peak_rss_mb there)
    ("green.walk_on_spheres_exit.s", "s", "measured"),
    ("green.wos.walks", "count", "computed"),
    ("green.green_values.s", "s", "measured"),
    ("green.green_values.points", "count", "computed"),
    ("green.green_values.flops", "flop", "computed"),
    ("green.green_eval.s", "s", "measured"),
    # spde-law and field-law (idle on green-xval); weight_bytes also moves peak_rss_mb
    ("integrals.build.s", "s", "measured"),
    ("integrals.build.calls", "count", "counted"),
    ("integrals.weight_bytes", "B", "computed"),
    # spde-law and field-law; rows per call is the batching
    ("integrals.apply.s", "s", "measured"),
    ("integrals.apply.calls", "count", "counted"),
    ("integrals.apply.rows", "count", "computed"),
    # field-law
    ("kernels.sample_kac_stroock.s", "s", "measured"),
    ("kernels.sample_kac_stroock.calls", "count", "counted"),
    ("kernels.ks_values_on_grid.s", "s", "measured"),
    # spde-law and field-law
    ("rng.generator.s", "s", "measured"),
    ("rng.generator.calls", "count", "counted"),
    # field-law
    ("convergence.self_s", "s", "measured"),
    ("convergence.ks_2samp.calls", "count", "counted"),
    # spde-law and field-law: config, manifest, CSV/JSON writing
    ("cli.self_s", "s", "measured"),
    # the cost of tracing itself
    ("trace.overhead", "ratio", "ratio"),
]


def k_apply_flops(node_shape, kmax: int) -> int:
    """Flops of one ``k_apply``: d sine analyses, a divide, d syntheses.

    Follows the tensordot order of ``grid_sine_coefficients`` and
    ``sine_synthesis`` on the interior nodes, truncated to
    ``min(kmax, N - 1)`` modes.
    """
    inner = [s - 2 for s in node_shape]
    kuse = min(kmax, min(inner))
    flops = 0
    dims = list(inner)
    for _ in inner:
        flops += 2 * math.prod(dims) * kuse
        dims = dims[1:] + [kuse]
    flops += kuse ** len(inner)
    for n_i in inner:
        flops += 2 * math.prod(dims) * n_i
        dims = dims[1:] + [n_i]
    return flops


def green_values_flops(points: int, kmax: int, d: int) -> int:
    """Flops of the mode sum at ``points`` points in the cheapest contraction order."""
    return 2 * points * sum(kmax**j for j in range(1, d + 1))


def _count_k_apply(c, result, gs, *_):
    c["green.k_apply.flops"] += k_apply_flops(result.values.shape, gs.kmax)


def _count_green_values(c, result, gs, *_):
    c["green.green_values.points"] += result.shape[0]
    c["green.green_values.flops"] += green_values_flops(result.shape[0], gs.kmax, gs.d)


def _count_walks(c, result, *_):
    c["green.wos.walks"] += result.shape[0]


def _count_solve(c, result, *_):
    c["solver.iterations"] += result.iterations
    c["solver.nonconverged"] += int(not result.converged)


def _count_weights(c, _result, integ, *_):
    matrix = integ.weights if hasattr(integ, "weights") else integ.fmat
    c["integrals.weight_bytes"] += matrix.nbytes


def _count_rows(c, result, *_):
    c["integrals.apply.rows"] += result.shape[0] if result.ndim == 2 else 1


class _StatsProxy:
    """Stands in for ``scipy.stats`` inside one module, with ``ks_2samp`` traced."""

    def __init__(self, stats, ks_2samp):
        self._stats = stats
        self.ks_2samp = ks_2samp

    def __getattr__(self, name):
        return getattr(self._stats, name)


class Tracer:
    """Span and counter recorder for one worker process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = Counter()
        self.missing = []
        self._stack = []

    def wrap(self, name, fn, count=None):
        clock = time.perf_counter
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if count is not None:
                count(counters, result, *args)
            return result

        traced._bench_traced = True
        return traced

    def patch(self, owner, attr, name, count=None):
        """Replace ``owner.attr`` by a traced wrapper; skip names that are gone."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        if getattr(fn, "_bench_traced", False):
            return  # the same class reached through another importing module
        setattr(owner, attr, self.wrap(name, fn, count))

    def install(self):
        """Wrap the call sites that the three workloads go through."""
        mod = {
            m: importlib.import_module(f"sheetlab.{m}")
            for m in ("cli", "convergence", "green", "integrals", "rng", "solver")
        }
        cli, conv, green, integ, solver = (
            mod["cli"], mod["convergence"], mod["green"], mod["integrals"], mod["solver"]
        )
        self.patch(cli, "main", "cli.main")
        for fn in ("fdd_test", "moment_bound_probe", "tightness_modulus_probe",
                   "variance_convergence_report"):
            self.patch(cli, fn, f"convergence.{fn}")
        if hasattr(conv, "stats"):
            conv.stats = _StatsProxy(
                conv.stats, self.wrap("convergence.ks_2samp", conv.stats.ks_2samp)
            )
        else:
            self.missing.append("sheetlab.convergence.stats")
        self.patch(cli, "solution_convergence_report", "solver.solution_convergence_report")
        self.patch(solver, "solve_contraction", "solver.solve_contraction", _count_solve)
        self.patch(solver, "k_apply", "green.k_apply", _count_k_apply)
        for owner in (solver, cli):
            self.patch(owner, "lambda_sup", "green.lambda_sup")
        sampler = getattr(solver, "SpdeSampler", None)
        if sampler is not None:
            self.patch(sampler, "__init__", "solver.SpdeSampler.init")
            self.patch(sampler, "sample_noise_field", "solver.sample_noise_field")
        self.patch(green, "walk_on_spheres_exit", "green.walk_on_spheres_exit", _count_walks)
        self.patch(green, "green_values", "green.green_values", _count_green_values)
        self.patch(green, "green_eval", "green.green_eval")
        for owner in (conv, solver):
            for cls_name in ("DonskerIntegrator", "KacStroockIntegrator", "SheetIntegrator"):
                cls = getattr(owner, cls_name, None)
                if cls is None:
                    continue
                self.patch(cls, "__init__", "integrals.build", _count_weights)
                for method in ("apply", "apply_innovations", "apply_increments"):
                    if hasattr(cls, method):
                        self.patch(cls, method, "integrals.apply", _count_rows)
        for owner in (conv, solver):
            self.patch(owner, "sample_kac_stroock", "kernels.sample_kac_stroock")
        self.patch(integ, "ks_values_on_grid", "kernels.ks_values_on_grid")
        self.patch(mod["rng"].RngStream, "generator", "rng.generator")

    def layer_metrics(self) -> dict:
        """Every per-layer metric except ``trace.overhead``, from spans and counters."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        span_s, self_s, calls = defaultdict(float), defaultdict(float), Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            span_s[name] += end - start
            self_s[name] += end - start - child[i]
            calls[name] += 1
        out = {}
        for metric, _, kind in PER_LAYER:
            if metric == "trace.overhead":
                continue
            if metric in self.counters or kind == "computed":
                out[metric] = self.counters[metric]
            elif metric.endswith(".self_s"):
                layer = metric[: -len(".self_s")]
                out[metric] = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
            elif metric.endswith(".calls"):
                out[metric] = calls[metric[: -len(".calls")]]
            else:
                out[metric] = span_s[metric[: -len(".s")]]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent"], "spans": self.spans,
                 "counters": dict(self.counters), "untraced": self.missing},
                fh,
            )

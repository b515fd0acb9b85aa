"""Command-line entry point: seeded batch experiments emitting CSV/JSON artifacts.

Every run resolves its configuration from built-in defaults, an optional JSON
config file, and explicit command-line flags (flags win). Each subcommand is
one entry of ``_SUBCOMMANDS``: its defaults and its runner. ``main`` checks
the family and the innovation law, calls the runner, writes the runner's
report (report.json, report.csv) if it returns one, and writes manifest.json,
echoing the resolved configuration plus the package version, last. Artifacts
are written only by runs that exit 0 or 3; a refused run writes no file.

Exit codes: 0 success, 2 config error, 3 statistical verdict failure under
--strict, 4 resource refusal (innovation, weight-matrix or sign-grid budget, or contraction gate).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .convergence import (
    ConvergenceReport,
    DiagConfig,
    fdd_test,
    moment_bound_probe,
    tightness_modulus_probe,
    variance_convergence_report,
)
from .grid import GridField, GridSpec
from .green import (
    GreenSeries,
    green_l2_norm,
    green_on_axes,
    lambda_sup,
    poincare_constant,
)
from .integrals import FAMILIES, Integrand, indicator_integrand
from .kernels import (
    INNOVATION_LAWS,
    BudgetExceededError,
    sample_donsker,
    sample_kac_stroock,
    zeta_on_axes,
)
from .quadrature import QuadSpec, tensor_points
from .rng import RngStream
from .solver import (
    GateError,
    SolveConfig,
    SpdeSampler,
    nonlinearity_preset,
    solution_convergence_report,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERDICT = 3
EXIT_REFUSED = 4


class ConfigError(ValueError):
    """Configuration problem, reported with the offending field name."""


def _parse_int_list(text: str) -> list:
    try:
        return [int(tok) for tok in str(text).split(",") if tok != ""]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_probes(text, d: int) -> np.ndarray:
    """Probe points as 'x1,x2;y1,y2;...' or a nested list from a config file."""
    if isinstance(text, (list, tuple)):
        pts = np.asarray(text, dtype=float)
    else:
        try:
            pts = np.array(
                [[float(c) for c in grp.split(",")] for grp in str(text).split(";")]
            )
        except ValueError as exc:
            raise ConfigError(f"field 'probes': cannot parse {text!r}") from exc
    pts = np.atleast_2d(pts)
    if pts.shape[1] != d:
        raise ConfigError(f"field 'probes': points have {pts.shape[1]} coords, d={d}")
    return pts


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge defaults < config file < explicit flags into one dict."""
    cfg = dict(defaults)
    path = getattr(args, "config", None)
    if path:
        try:
            with open(path) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config file {path}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config file {path}: top level must be an object")
        for key, val in file_cfg.items():
            if key not in defaults:
                raise ConfigError(f"config file {path}: unknown field {key!r}")
            cfg[key] = val
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _write_manifest(outdir: str, subcommand: str, cfg: dict) -> None:
    manifest = {
        "version": __version__,
        "subcommand": subcommand,
        "config": cfg,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)


def _write_csv(path: str, header: list, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _field_csv_rows(field: GridField):
    grid = field.grid
    pts = grid.node_points()
    vals = field.values.ravel()
    return [list(p) + [v] for p, v in zip(pts, vals)]


def _load_g_field(spec_text: str, grid: GridSpec) -> GridField:
    """Forcing presets 'zero' and 'constant:<c>', or 'csv:<path>' with one
    value per grid node in C-order (last column of each row)."""
    if spec_text == "zero":
        return GridField.zeros(grid)
    kind, _, arg = str(spec_text).partition(":")
    if kind == "constant":
        return GridField(grid, np.full(grid.node_shape, float(arg)))
    if kind == "csv":
        with open(arg) as fh:
            rows = [r for r in csv.reader(fh) if r]
        body = rows[1:] if rows and not _is_float(rows[0][-1]) else rows
        vals = np.array([float(r[-1]) for r in body])
        if vals.size != int(np.prod(grid.node_shape)):
            raise ConfigError(
                f"field 'g': csv has {vals.size} values, grid has "
                f"{int(np.prod(grid.node_shape))} nodes"
            )
        return GridField(grid, vals)
    raise ConfigError(f"field 'g': unknown preset {spec_text!r}")


def _is_float(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


# ---------------------------------------------------------------- subcommands

SIMULATE_DEFAULTS = {
    "family": "donsker",
    "d": 2,
    "n": 16,
    "grid_n": 16,
    "law": "standard-normal",
    "seed": 0,
    "r": 4,
}


def _sheet_at_grid_scale(cfg: dict) -> None:
    """The Brownian sheet is the Donsker field at n = N with standard-normal
    innovations: set n and law to that, so that the manifest records them."""
    if cfg["family"] == "sheet":
        cfg["n"] = cfg["grid_n"]
        if "law" in cfg:
            cfg["law"] = "standard-normal"


def _run_simulate(cfg: dict, outdir: str) -> None:
    _sheet_at_grid_scale(cfg)
    grid = GridSpec(d=int(cfg["d"]), T=1.0, N=int(cfg["grid_n"]))
    rng = RngStream(int(cfg["seed"]))
    if cfg["family"] == "kac-stroock":
        kern = sample_kac_stroock(grid, float(cfg["n"]), rng)
    else:
        kern = sample_donsker(grid, int(cfg["n"]), cfg["law"], rng)
    axes = [grid.axis_nodes(i) for i in range(grid.d)]
    field = GridField(grid, zeta_on_axes(kern, axes, QuadSpec(r=int(cfg["r"]))))
    header = [f"x{i+1}" for i in range(grid.d)] + ["value"]
    _write_csv(os.path.join(outdir, "field.csv"), header, _field_csv_rows(field))


REPORT_DEFAULTS = {
    "diagnostic": "fdd",
    "family": "donsker",
    "d": 2,
    "grid_n": 16,
    "n": "4,16,64",
    "M": 1000,
    "m": 2,
    "q": 1.0,
    "significance": 0.01,
    "projections": 10,
    "law": "standard-normal",
    "seed": 0,
    "r": 2,
    "probes": "",
}


def _run_convergence_report(cfg: dict, outdir: str) -> ConvergenceReport:
    d = int(cfg["d"])
    grid = GridSpec(d=d, T=1.0, N=int(cfg["grid_n"]))
    diag = DiagConfig(
        n_list=tuple(_parse_int_list(cfg["n"])),
        M=int(cfg["M"]),
        m=int(cfg["m"]),
        q=float(cfg["q"]),
        significance=float(cfg["significance"]),
        projections=int(cfg["projections"]),
        law=cfg["law"],
        quad=QuadSpec(r=int(cfg["r"])),
    )
    rng = RngStream(int(cfg["seed"]))
    f = indicator_integrand()
    kind = cfg["diagnostic"]
    if kind == "fdd":
        probes = cfg["probes"] or ";".join(
            ",".join(str(c) for c in p) for p in [[0.25] * d, [0.5] * d, [0.75] * d]
        )
        return fdd_test(f, cfg["family"], grid, _parse_probes(probes, d), diag, rng)
    if kind == "moment":
        # the moment probe integrates a function of y alone; use g == 1 on D
        ones = Integrand(lambda xs, axes: np.ones((len(xs),) + tuple(len(a) for a in axes)))
        return moment_bound_probe(ones, cfg["family"], grid, diag, rng)
    if kind == "variance":
        pts = _parse_probes(cfg["probes"] or ",".join(["0.75"] * d), d)
        if len(pts) != 1:
            raise ConfigError(f"field 'probes': variance takes one point, got {len(pts)}")
        return variance_convergence_report(f, cfg["family"], grid, pts[0], diag, rng)
    if kind == "tightness":
        base = np.full(d, 0.3)
        pairs = [(base, base + t) for t in (0.1, 0.2, 0.4)]
        return tightness_modulus_probe(f, cfg["family"], grid, pairs, diag, rng)
    raise ConfigError(f"field 'diagnostic': unknown value {kind!r}")


GREEN_DEFAULTS = {
    "d": 2,
    "kmax": 0,
    "x": "",
    "grid_n": 32,
}


def _run_green_table(cfg: dict, outdir: str) -> None:
    d = int(cfg["d"])
    m = int(cfg["grid_n"])
    grid = GridSpec(d=d, T=1.0, N=m)
    gs = GreenSeries(d=d, kmax=int(cfg["kmax"]))
    pts = _parse_probes(cfg["x"] or ",".join(["0.5"] * d), d)
    if len(pts) != 1:
        raise ConfigError(f"field 'x': green-table takes one point, got {len(pts)}")
    x = grid.point_in_domain(pts[0])
    axes = [np.arange(m + 1) / m] * d
    table = green_on_axes(gs, x, axes)
    header = [f"y{i+1}" for i in range(d)] + ["K"]
    rows = [list(p) + [v] for p, v in zip(tensor_points(axes), table.ravel())]
    _write_csv(os.path.join(outdir, "green.csv"), header, rows)
    norms = {
        "x": x.tolist(),
        "kmax": gs.kmax,
        "l2_norm_at_x": green_l2_norm(gs, x),
        "lambda_sup_on_grid": lambda_sup(gs, grid),
        "poincare_constant": poincare_constant(gs),
    }
    with open(os.path.join(outdir, "norms.json"), "w") as fh:
        json.dump(norms, fh, indent=2)


SOLVE_DEFAULTS = {
    "family": "sheet",
    "d": 2,
    "n": 16,
    "grid_n": 16,
    "kmax": 0,
    "F": "zero",
    "g": "constant:1.0",
    "seed": 0,
    "tolerance": 1e-8,
    "max_iterations": 200,
    "rho": 1e-3,
    "r": 1,
}


def _spde_problem(cfg: dict):
    """(grid, Green series, nonlinearity F, source field g) of an SPDE subcommand."""
    d = int(cfg["d"])
    grid = GridSpec(d=d, T=1.0, N=int(cfg["grid_n"]))
    gs = GreenSeries(d=d, kmax=int(cfg["kmax"]))
    try:
        F = nonlinearity_preset(cfg["F"])
    except ValueError as exc:
        raise ConfigError(f"field 'F': {exc}") from exc
    return grid, gs, F, _load_g_field(cfg["g"], grid)


def _run_poisson_solve(cfg: dict, outdir: str) -> None:
    _sheet_at_grid_scale(cfg)
    grid, gs, F, g = _spde_problem(cfg)
    solve_cfg = SolveConfig(
        tolerance=float(cfg["tolerance"]), max_iterations=int(cfg["max_iterations"])
    )
    quad = QuadSpec(r=int(cfg["r"]), rho=float(cfg["rho"]))
    sampler = SpdeSampler(cfg["family"], cfg["n"], g, F, gs, solve_cfg, quad)
    result = sampler.sample_solution(RngStream(int(cfg["seed"])))
    header = [f"x{i+1}" for i in range(grid.d)] + ["u"]
    _write_csv(os.path.join(outdir, "solution.csv"), header, _field_csv_rows(result.u))
    result.to_json(os.path.join(outdir, "solve.json"))


COMPARE_DEFAULTS = {
    "family": "donsker",
    "d": 2,
    "grid_n": 16,
    "n_list": "4,16,64",
    "M": 500,
    "probes": "0.25,0.25;0.5,0.5;0.75,0.75",
    "F": "zero",
    "g": "constant:1.0",
    "kmax": 0,
    "seed": 0,
    "significance": 0.01,
    "tolerance": 1e-8,
    "rho": 1e-3,
    "r": 1,
}


def _run_spde_compare(cfg: dict, outdir: str) -> ConvergenceReport:
    grid, gs, F, g = _spde_problem(cfg)
    return solution_convergence_report(
        cfg["family"],
        _parse_int_list(cfg["n_list"]),
        _parse_probes(cfg["probes"], grid.d),
        int(cfg["M"]),
        g,
        F,
        gs,
        cfg=SolveConfig(tolerance=float(cfg["tolerance"])),
        rng=RngStream(int(cfg["seed"])),
        significance=float(cfg["significance"]),
        quad=QuadSpec(r=int(cfg["r"]), rho=float(cfg["rho"])),
    )


# -------------------------------------------------------------------- parser

# name -> (defaults, runner); a runner writes its own data files and returns
# None, or returns a report that main writes
_SUBCOMMANDS = {
    "simulate": (SIMULATE_DEFAULTS, _run_simulate),
    "convergence-report": (REPORT_DEFAULTS, _run_convergence_report),
    "green-table": (GREEN_DEFAULTS, _run_green_table),
    "poisson-solve": (SOLVE_DEFAULTS, _run_poisson_solve),
    "spde-compare": (COMPARE_DEFAULTS, _run_spde_compare),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sheetlab",
        description="Seeded experiments on Brownian-sheet kernel approximations "
        "and the stochastic Poisson equation.",
    )
    parser.add_argument("--version", action="version", version=f"sheetlab {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, (defaults, _) in _SUBCOMMANDS.items():
        sp = subs.add_parser(name, help=f"{name} experiment")
        sp.add_argument("--config", help="JSON config file; flags override its fields")
        sp.add_argument(
            "--report-dir", "--out", dest="report_dir", default=None,
            help="output directory for artifacts (default: current directory)",
        )
        sp.add_argument("--strict", action="store_true",
                        help="exit 3 when any statistical verdict fails")
        for key in defaults:
            sp.add_argument("--" + key.replace("_", "-"), default=None, type=str)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    outdir = args.report_dir or "."
    defaults, runner = _SUBCOMMANDS[args.subcommand]
    try:
        cfg = _resolve(args, defaults)
        for key, allowed in (("family", FAMILIES), ("law", INNOVATION_LAWS)):
            if key in cfg and cfg[key] not in allowed:
                raise ConfigError(
                    f"field {key!r}: unknown value {cfg[key]!r}; choose one of {allowed}"
                )
        os.makedirs(outdir, exist_ok=True)
        report = runner(cfg, outdir)
        code = EXIT_OK
        if report is not None:
            report.to_json(os.path.join(outdir, "report.json"))
            report.to_csv(os.path.join(outdir, "report.csv"))
            if args.strict and not report.passed():
                failed = {k: v for k, v in report.verdicts.items() if not v["ok"]}
                print("verdict failure:", failed)
                code = EXIT_VERDICT
        _write_manifest(
            outdir, args.subcommand, {**cfg, "report_dir": outdir, "strict": args.strict}
        )
        return code
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BudgetExceededError, GateError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED


if __name__ == "__main__":
    sys.exit(main())

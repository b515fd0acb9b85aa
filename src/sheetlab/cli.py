"""Command-line entry point: seeded batch experiments emitting CSV/JSON artifacts.

Every run resolves its configuration from built-in defaults, an optional JSON
config file, and explicit command-line flags (flags win). Each subcommand is
one entry of ``_SUBCOMMANDS``: its defaults and its runner. A runner takes
the resolved configuration, writes nothing and returns its files by name.
``main`` checks the family and the innovation law, calls the runner, creates
the output directory, writes the runner's files through ``_write`` and then
manifest.json, echoing the resolved configuration plus the package version.
This module alone decides the artifact format. Artifacts are written only by
runs that exit 0 or 3; a refused run creates no file and no directory.

Exit codes: 0 success, 2 config error, 3 statistical verdict failure or
unconverged poisson-solve under --strict, 4 resource refusal (node-grid,
innovation or cell-value block, Donsker-lattice, weight-matrix, noise-stack or
sign-grid budget, or contraction gate).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .convergence import (
    ConvergenceReport,
    DiagConfig,
    fdd_test,
    moment_bound_probe,
    solution_convergence_report,
    tightness_modulus_probe,
    variance_convergence_report,
)
from .grid import GridField, GridSpec, whole_number
from .green import (
    GreenSeries,
    green_l2_norm,
    green_on_axes,
    lambda_sup,
    poincare_constant,
)
from .integrals import FAMILIES, indicator_integrand, noise_integrator
from .kernels import INNOVATION_LAWS, BudgetExceededError, _ks_intensity, check_budget
from .rng import RngStream
from .solver import (
    GateError,
    SolveConfig,
    SpdeSampler,
    nonlinearity_preset,
    residual,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERDICT = 3
EXIT_REFUSED = 4


class ConfigError(ValueError):
    """Configuration problem, reported with the offending field name."""


def _int(cfg: dict, key: str, least: int | None = None) -> int:
    """cfg[key] as an int: a config file's 2.5 is refused, not run as 2; a flag's
    "1e3" runs as 1000 and its "abc" is refused, each refusal naming the field."""
    return whole_number(cfg[key], f"field {key!r}", least)


def _n_list(cfg: dict, key: str) -> tuple:
    """cfg[key], comma-separated or a config file's list, as the n of cfg's
    family: whole numbers (each through whole_number, so "1e3" is 1000) for the
    Donsker and sheet families, finite positive intensities for Kac-Stroock,
    where a whole one stays that int. Each refusal names the field."""
    val = cfg[key]
    toks = val if isinstance(val, (list, tuple)) else [t for t in str(val).split(",") if t != ""]
    name = f"field {key!r}"
    if cfg.get("family") != "kac-stroock":
        return tuple(whole_number(t, name) for t in toks)
    out = []
    for t in toks:
        try:
            n = _ks_intensity(t)
        except ValueError as exc:  # "abc", 0, -1, nan, inf
            raise ConfigError(f"{name}: {exc}") from exc
        out.append(whole_number(t, name) if n.is_integer() else n)
    return tuple(out)


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


def _diagonal_points(d: int, *coords) -> list:
    """The default probes: the point (c, ..., c) in R^d for each c of coords."""
    return [[c] * d for c in coords]


def _nearest_interior_node(c: float, n: int) -> float:
    """The interior node j/n of [0, 1] nearest to c. A tie goes toward 1/2,
    so 1 - c snaps to 1 minus c's node; c = 1/2 at odd n takes the node below."""
    j = math.floor(c * n + 0.5) if c < 0.5 else math.ceil(c * n - 0.5)
    return min(max(j, 1), n - 1) / n


def _node_grid(cfg: dict) -> GridSpec:
    """The grid of cfg's d and grid_n on the unit cube, once its (grid_n + 1)^d
    node values fit the budget: refused before any node array exists."""
    grid = GridSpec(d=_int(cfg, "d"), T=1.0, N=_int(cfg, "grid_n"))
    nodes = math.prod(grid.node_shape)
    check_budget(nodes, f"node grid of shape {grid.node_shape} would need {nodes} values")
    return grid


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge defaults < config file < explicit flags into one dict.

    The config file may be a run's manifest.json: a run of the same subcommand
    then reads the manifest's config block, less report_dir and strict, which
    belong to the run and not to its configuration.
    """
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
        if "subcommand" in file_cfg:
            if file_cfg["subcommand"] != args.subcommand:
                raise ConfigError(
                    f"config file {path}: a manifest of {file_cfg['subcommand']!r} "
                    f"cannot configure {args.subcommand!r}"
                )
            file_cfg = file_cfg.get("config")
            if not isinstance(file_cfg, dict):
                raise ConfigError(f"config file {path}: a manifest's config must be an object")
            file_cfg = {k: v for k, v in file_cfg.items() if k not in ("report_dir", "strict")}
        for key, val in file_cfg.items():
            if key not in defaults:
                raise ConfigError(f"config file {path}: unknown field {key!r}")
            cfg[key] = val
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write(path: str, content) -> None:
    """The one artifact writer. A .json name takes a JSON-able object; a .csv
    name takes a (header, rows, line_end) table."""
    if path.endswith(".json"):
        with open(path, "w") as fh:
            json.dump(content, fh, indent=2, default=_jsonable)
        return
    header, rows, line_end = content
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator=line_end)
        writer.writerow(header)
        writer.writerows(rows)


def _field_table(field: GridField, name: str, coord: str = "x"):
    """A node per row: the coordinates coord1..coordd, then the value column name."""
    grid = field.grid
    header = [f"{coord}{i+1}" for i in range(grid.d)] + [name]
    rows = [list(p) + [v] for p, v in zip(grid.node_points(), field.values.ravel())]
    return header, rows, "\r\n"


def _report_files(report: ConvergenceReport) -> dict:
    """report.json, and report.csv: the per_n rows' scalar columns, sorted."""
    rows = report.per_n
    keys = sorted({k for row in rows for k in row if np.isscalar(row[k]) or row[k] is None})
    table = [[str(row.get(k, "")) for k in keys] for row in rows]
    return {"report.json": asdict(report), "report.csv": (keys, table, "\n")}


def _load_g_field(spec_text: str, grid: GridSpec) -> GridField:
    """Forcing presets 'zero' and 'constant:<c>', or 'csv:<path>' with one
    value per grid node in C-order (last column of each row); every value finite."""
    if spec_text == "zero":
        return GridField.zeros(grid)
    kind, _, arg = str(spec_text).partition(":")
    if kind == "constant":
        vals = np.full(grid.node_shape, float(arg))
    elif kind == "csv":
        with open(arg) as fh:
            rows = [r for r in csv.reader(fh) if r]
        body = rows[1:] if rows and not _is_float(rows[0][-1]) else rows
        vals = np.array([float(r[-1]) for r in body])
        if vals.size != int(np.prod(grid.node_shape)):
            raise ConfigError(
                f"field 'g': csv has {vals.size} values, grid has "
                f"{int(np.prod(grid.node_shape))} nodes"
            )
    else:
        raise ConfigError(f"field 'g': unknown preset {spec_text!r}")
    if not np.all(np.isfinite(vals)):
        raise ConfigError(f"field 'g': values must be finite, got {vals[~np.isfinite(vals)][0]}")
    return GridField(grid, vals)


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


def _sheet_at_grid_scale(subcommand: str, cfg: dict) -> None:
    """The Brownian sheet is the Donsker field at n = N with standard-normal
    innovations. Record that law in every subcommand that has one, and n = N
    where n is one scale (simulate, poisson-solve), not a report's n list."""
    if cfg.get("family") != "sheet":
        return
    if "law" in cfg:
        cfg["law"] = "standard-normal"
    if subcommand in ("simulate", "poisson-solve"):
        cfg["n"] = cfg["grid_n"]


def _run_simulate(cfg: dict) -> dict:
    grid = _node_grid(cfg)
    integ = noise_integrator(
        cfg["family"], indicator_integrand(), grid.node_points(), grid, float(cfg["n"]),
        _int(cfg, "r", 1), cfg["law"],
    )
    field = GridField(grid, integ.replicates([RngStream(_int(cfg, "seed"))])[0])
    return {"field.csv": _field_table(field, "value")}


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


def _run_convergence_report(cfg: dict) -> dict:
    return _report_files(_convergence_report(cfg))


def _convergence_report(cfg: dict) -> ConvergenceReport:
    d = _int(cfg, "d")
    grid = GridSpec(d=d, T=1.0, N=_int(cfg, "grid_n"))
    diag = DiagConfig(
        n_list=_n_list(cfg, "n"),
        M=_int(cfg, "M"),
        m=_int(cfg, "m"),
        q=float(cfg["q"]),
        significance=float(cfg["significance"]),
        projections=_int(cfg, "projections"),
        law=cfg["law"],
        r=_int(cfg, "r", 1),
    )
    rng = RngStream(_int(cfg, "seed"))
    f = indicator_integrand()
    kind = cfg["diagnostic"]
    if cfg["probes"] and kind in ("moment", "tightness"):
        raise ConfigError(f"field 'probes': {kind} uses fixed points and takes no probes")
    if kind == "fdd":
        probes = _parse_probes(cfg["probes"] or _diagonal_points(d, 0.25, 0.5, 0.75), d)
        return fdd_test(f, cfg["family"], grid, probes, diag, rng)
    if kind == "moment":
        # the moment probe integrates at x = T, where the indicator is g = 1 on D
        return moment_bound_probe(f, cfg["family"], grid, diag, rng)
    if kind == "variance":
        pts = _parse_probes(cfg["probes"] or _diagonal_points(d, 0.75), d)
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


def _run_green_table(cfg: dict) -> dict:
    grid = _node_grid(cfg)
    d = grid.d
    gs = GreenSeries(d=d, kmax=_int(cfg, "kmax"))
    pts = _parse_probes(cfg["x"] or _diagonal_points(d, 0.5), d)
    if len(pts) != 1:
        raise ConfigError(f"field 'x': green-table takes one point, got {len(pts)}")
    x = grid.point_in_domain(pts[0])
    table = GridField(grid, green_on_axes(gs, x, [grid.axis_nodes(i) for i in range(d)]))
    norms = {
        "x": x.tolist(),
        "kmax": gs.kmax,
        "l2_norm_at_x": green_l2_norm(gs, x),
        "lambda_sup_on_grid": lambda_sup(gs, grid),
        "poincare_constant": poincare_constant(gs),
    }
    return {"green.csv": _field_table(table, "K", "y"), "norms.json": norms}


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
    """(grid, Green series, nonlinearity F, source field g) of an SPDE subcommand.

    Its rho, holder_probe's exclusion radius, reaches no computation: the
    manifest records it, once it is in range."""
    if float(cfg["rho"]) < 0:
        raise ConfigError("field 'rho': exclusion radius rho must be >= 0")
    grid = _node_grid(cfg)
    gs = GreenSeries(d=grid.d, kmax=_int(cfg, "kmax"))
    try:
        F = nonlinearity_preset(cfg["F"])
    except ValueError as exc:
        raise ConfigError(f"field 'F': {exc}") from exc
    return grid, gs, F, _load_g_field(cfg["g"], grid)


def _run_poisson_solve(cfg: dict) -> dict:
    grid, gs, F, g = _spde_problem(cfg)
    solve_cfg = SolveConfig(
        tolerance=float(cfg["tolerance"]), max_iterations=_int(cfg, "max_iterations")
    )
    sampler = SpdeSampler(cfg["family"], float(cfg["n"]), g, F, gs, solve_cfg, _int(cfg, "r", 1))
    solved = sampler.sample_solution(RngStream(_int(cfg, "seed")))
    u, eta = GridField(grid, solved.u[0]), GridField(grid, solved.eta[0])
    solve = {
        "iterations": int(solved.iterations[0]),
        "final_residual": residual(u, F, g, eta, gs),
        "converged": bool(solved.converged[0]),
        "contraction_ratios": solved.contraction_ratios(0),
        "diagnostics": sampler.gate,
    }
    return {"solution.csv": _field_table(u, "u"), "solve.json": solve}


COMPARE_DEFAULTS = {
    "family": "donsker",
    "d": 2,
    "grid_n": 16,
    "n_list": "4,16,64",
    "M": 500,
    "probes": "",
    "F": "zero",
    "g": "constant:1.0",
    "kmax": 0,
    "seed": 0,
    "significance": 0.01,
    "tolerance": 1e-8,
    "rho": 1e-3,
    "r": 1,
}


def _run_spde_compare(cfg: dict) -> dict:
    grid, gs, F, g = _spde_problem(cfg)
    diag = DiagConfig(
        n_list=_n_list(cfg, "n_list"),
        M=_int(cfg, "M"),
        significance=float(cfg["significance"]),
        r=_int(cfg, "r", 1),
    )
    # the default probes snap to grid nodes, without duplicates: a grid_n
    # divisible by 4 keeps c = 0.25, 0.5, 0.75 exactly
    coords = dict.fromkeys(_nearest_interior_node(c, grid.N[0]) for c in (0.25, 0.5, 0.75))
    probes = _parse_probes(cfg["probes"] or _diagonal_points(grid.d, *coords), grid.d)
    solve = SolveConfig(tolerance=float(cfg["tolerance"]))
    rng = RngStream(_int(cfg, "seed"))
    report = solution_convergence_report(cfg["family"], probes, g, F, gs, diag, rng, solve)
    return _report_files(report)


# -------------------------------------------------------------------- parser

# name -> (defaults, runner); a runner returns {file name: content} for _write
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
                        help="exit 3 when any statistical verdict fails or a solve "
                        "does not converge")
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
        _sheet_at_grid_scale(args.subcommand, cfg)
        files = runner(cfg)
        code = EXIT_OK
        # the verdicts of the report.json, or the solve of the solve.json,
        # about to be written decide exit 3
        verdicts = files.get("report.json", {}).get("verdicts", {})
        failed = {k: v for k, v in verdicts.items() if not v["ok"]}
        if not files.get("solve.json", {}).get("converged", True):
            failed["converged"] = False
        if args.strict and failed:
            print("verdict failure:", failed)
            code = EXIT_VERDICT
        files["manifest.json"] = {
            "version": __version__,
            "subcommand": args.subcommand,
            "config": {**cfg, "report_dir": outdir, "strict": args.strict},
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        }
        os.makedirs(outdir, exist_ok=True)
        for name, content in files.items():  # manifest.json last
            _write(os.path.join(outdir, name), content)
        return code
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BudgetExceededError, GateError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED


if __name__ == "__main__":
    sys.exit(main())

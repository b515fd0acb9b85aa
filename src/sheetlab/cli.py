"""Command-line entry point: seeded batch experiments emitting CSV/JSON artifacts.

Every run resolves its configuration from built-in defaults, an optional JSON
config file, and explicit command-line flags (flags win), then writes a
manifest.json echoing the resolved configuration plus the package version.

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
from .integrals import Integrand, indicator_integrand
from .kernels import (
    INNOVATION_LAWS,
    BudgetExceededError,
    sample_donsker,
    sample_kac_stroock,
    zeta_on_axes,
)
from .quadrature import QuadSpec
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


def _run_simulate(cfg: dict, outdir: str) -> int:
    grid = GridSpec(d=int(cfg["d"]), T=1.0, N=int(cfg["grid_n"]))
    rng = RngStream(int(cfg["seed"]))
    family = cfg["family"]
    if family in ("donsker", "sheet"):
        kern = sample_donsker(grid, int(cfg["n"]), cfg["law"], rng)
    elif family == "kac-stroock":
        kern = sample_kac_stroock(grid, float(cfg["n"]), rng)
    else:
        raise ConfigError(f"field 'family': unknown value {family!r}")
    axes = [grid.axis_nodes(i) for i in range(grid.d)]
    field = GridField(grid, zeta_on_axes(kern, axes, QuadSpec(r=int(cfg["r"]))))
    header = [f"x{i+1}" for i in range(grid.d)] + ["value"]
    _write_csv(os.path.join(outdir, "field.csv"), header, _field_csv_rows(field))
    return EXIT_OK


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


def _run_convergence_report(cfg: dict, outdir: str, strict: bool) -> int:
    d = int(cfg["d"])
    grid = GridSpec(d=d, T=1.0, N=int(cfg["grid_n"]))
    n_list = _parse_int_list(cfg["n"])
    M = int(cfg["M"])
    diag = DiagConfig(
        n_list=tuple(n_list),
        M=M,
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
        report = fdd_test(f, cfg["family"], grid, _parse_probes(probes, d), diag, rng)
    elif kind == "moment":
        # the moment probe integrates a function of y alone; use g == 1 on D
        ones = Integrand(lambda xs, axes: np.ones((len(xs),) + tuple(len(a) for a in axes)))
        report = moment_bound_probe(ones, cfg["family"], grid, diag, rng)
    elif kind == "variance":
        pts = _parse_probes(cfg["probes"] or ",".join(["0.75"] * d), d)
        if len(pts) != 1:
            raise ConfigError(f"field 'probes': variance takes one point, got {len(pts)}")
        report = variance_convergence_report(f, cfg["family"], grid, pts[0], diag, rng)
    elif kind == "tightness":
        base = np.full(d, 0.3)
        pairs = [(base, base + t) for t in (0.1, 0.2, 0.4)]
        report = tightness_modulus_probe(f, cfg["family"], grid, pairs, diag, rng)
    else:
        raise ConfigError(f"field 'diagnostic': unknown value {kind!r}")
    report.to_json(os.path.join(outdir, "report.json"))
    report.to_csv(os.path.join(outdir, "report.csv"))
    if strict and not report.passed():
        print("verdict failure:", {k: v for k, v in report.verdicts.items() if not v["ok"]})
        return EXIT_VERDICT
    return EXIT_OK


GREEN_DEFAULTS = {
    "d": 2,
    "kmax": 0,
    "x": "",
    "grid_n": 32,
}


def _run_green_table(cfg: dict, outdir: str) -> int:
    d = int(cfg["d"])
    gs = GreenSeries(d=d, kmax=int(cfg["kmax"]))
    x = _parse_probes(cfg["x"] or ",".join(["0.5"] * d), d)[0]
    m = int(cfg["grid_n"])
    axes = [np.arange(m + 1) / m] * d
    table = green_on_axes(gs, x, axes)
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    header = [f"y{i+1}" for i in range(d)] + ["K"]
    rows = [list(p) + [v] for p, v in zip(pts, table.ravel())]
    _write_csv(os.path.join(outdir, "green.csv"), header, rows)
    grid = GridSpec(d=d, T=1.0, N=m)
    norms = {
        "x": x.tolist(),
        "kmax": gs.kmax,
        "l2_norm_at_x": green_l2_norm(gs, x),
        "lambda_sup_on_grid": lambda_sup(gs, grid),
        "poincare_constant": poincare_constant(gs),
    }
    with open(os.path.join(outdir, "norms.json"), "w") as fh:
        json.dump(norms, fh, indent=2)
    return EXIT_OK


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


def _run_poisson_solve(cfg: dict, outdir: str) -> int:
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
    return EXIT_OK


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


def _run_spde_compare(cfg: dict, outdir: str, strict: bool) -> int:
    grid, gs, F, g = _spde_problem(cfg)
    report = solution_convergence_report(
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
    report.to_json(os.path.join(outdir, "report.json"))
    report.to_csv(os.path.join(outdir, "report.csv"))
    if strict and not report.passed():
        print("verdict failure:", {k: v for k, v in report.verdicts.items() if not v["ok"]})
        return EXIT_VERDICT
    return EXIT_OK


# -------------------------------------------------------------------- parser

_SUBCOMMANDS = {
    "simulate": SIMULATE_DEFAULTS,
    "convergence-report": REPORT_DEFAULTS,
    "green-table": GREEN_DEFAULTS,
    "poisson-solve": SOLVE_DEFAULTS,
    "spde-compare": COMPARE_DEFAULTS,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sheetlab",
        description="Seeded experiments on Brownian-sheet kernel approximations "
        "and the stochastic Poisson equation.",
    )
    parser.add_argument("--version", action="version", version=f"sheetlab {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, defaults in _SUBCOMMANDS.items():
        sp = subs.add_parser(name, help=f"{name} experiment")
        sp.add_argument("--config", help="JSON config file; flags override its fields")
        sp.add_argument(
            "--report-dir", "--out", dest="report_dir", default=None,
            help="output directory for artifacts (default: current directory)",
        )
        sp.add_argument("--strict", action="store_true",
                        help="exit 3 when any statistical verdict fails")
        for key, val in defaults.items():
            flag = "--" + key.replace("_", "-")
            if isinstance(val, bool):
                sp.add_argument(flag, default=None, action="store_true")
            else:
                sp.add_argument(flag, default=None, type=str)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    outdir = args.report_dir or "."
    try:
        cfg = _resolve(args, _SUBCOMMANDS[args.subcommand])
        if "law" in cfg and cfg["law"] not in INNOVATION_LAWS:
            raise ConfigError(
                f"field 'law': unknown value {cfg['law']!r}; choose one of {INNOVATION_LAWS}"
            )
        if args.subcommand in ("simulate", "poisson-solve") and cfg["family"] == "sheet":
            # the Brownian sheet is the Donsker field at n = N with standard-normal innovations
            cfg["n"] = cfg["grid_n"]
            if "law" in cfg:
                cfg["law"] = "standard-normal"
        os.makedirs(outdir, exist_ok=True)
        cfg_full = dict(cfg)
        cfg_full["report_dir"] = outdir
        cfg_full["strict"] = bool(args.strict)
        _write_manifest(outdir, args.subcommand, cfg_full)
        if args.subcommand == "simulate":
            return _run_simulate(cfg, outdir)
        if args.subcommand == "convergence-report":
            return _run_convergence_report(cfg, outdir, args.strict)
        if args.subcommand == "green-table":
            return _run_green_table(cfg, outdir)
        if args.subcommand == "poisson-solve":
            return _run_poisson_solve(cfg, outdir)
        return _run_spde_compare(cfg, outdir, args.strict)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BudgetExceededError, GateError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED


if __name__ == "__main__":
    sys.exit(main())

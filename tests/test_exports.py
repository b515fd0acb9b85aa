"""Every exported name resolves: module __all__ lists and the top-level package.
Only kernels.check_budget reads the memory budget, solver imports no report
layer, the reports name no noise family and no solver block, only convergence
imports stats, each statistic of the reports is written once (the KS step, the
slope fit, the verdict record), every integrand reaches the integrators through
its three required callables, only cli touches files, no module names a
quadrature record, only holder_probe and cli's refusal read rho, only
kernels derives the Kac-Stroock rule and theta_n, only grid.uniform_cells
derives a uniform lattice, only rng seeds a generator, and solver keeps one
solve record."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import sheetlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(sheetlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"sheetlab.{name}")
    missing = [n for n in getattr(mod, "__all__", []) if not hasattr(mod, n)]
    assert missing == []


def test_top_level_exports_resolve():
    # each name the package re-exports is public in the module it comes from
    tree = ast.parse(Path(sheetlab.__file__).read_text())
    stale = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            mod = importlib.import_module(f"sheetlab.{node.module}")
            for alias in node.names:
                if not hasattr(sheetlab, alias.name) or alias.name not in mod.__all__:
                    stale.append(f"{node.module}.{alias.name}")
    assert stale == []


SOURCES = sorted(Path(sheetlab.__file__).parent.glob("*.py"))


def _sites(tree, module, named):
    """(module, enclosing function or None) for each node of tree that named accepts."""
    sites = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if named(node):
            sites.append((module, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return sites


def _all_sites(named):
    """_sites over every module of the package."""
    sites = []
    for path in SOURCES:
        sites += _sites(ast.parse(path.read_text()), path.stem, named)
    return sites


def _names_budget(node):
    return (
        (isinstance(node, ast.Name) and node.id == "DEFAULT_MAX_CELLS")
        or (isinstance(node, ast.Attribute) and node.attr == "DEFAULT_MAX_CELLS")
        or (isinstance(node, ast.alias) and node.name == "DEFAULT_MAX_CELLS")
    )


def test_only_check_budget_reads_the_budget():
    # besides check_budget, only the definition in kernels; an import of the
    # name would bind its value once and miss a later rebinding
    sites = _all_sites(_names_budget)
    assert ("kernels", "check_budget") in sites
    assert [s for s in sites if s != ("kernels", "check_budget")] == [("kernels", None)]


def _sheetlab_imports(tree) -> set:
    """The sheetlab modules that tree imports, relatively or by full name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["sheetlab" if node.level else "", node.module]))
            names = [module] + [f"{module}.{a.name}" for a in node.names]
        else:
            continue
        found |= {n.split(".")[1] for n in names if n.startswith("sheetlab.")}
    return found


def test_one_integrand_route():
    # no evaluator-only integrand and no quadrature fallback: every integrator
    # applies the cell map and builds its weights from the cell integrals
    from sheetlab.integrals import DonskerIntegrator, Integrand

    fields = dataclasses.fields(Integrand)
    assert [f.name for f in fields] == ["evaluator", "cell_integral", "cell_map"]
    assert all(f.default is dataclasses.MISSING for f in fields)
    assert all(f.default_factory is dataclasses.MISSING for f in fields)
    assert "quad" not in inspect.signature(DonskerIntegrator).parameters


def test_solver_imports_no_report_layer():
    # the reports call the numerics, never the other way round
    solver = Path(sheetlab.__file__).parent / "solver.py"
    assert _sheetlab_imports(ast.parse(solver.read_text())) & {"convergence", "stats"} == set()


def test_reports_name_no_family_and_no_solve_block():
    # the family dispatch lives in integrals.noise_integrator, the blocking of
    # solves in SpdeSampler.solve_blocks
    from sheetlab.integrals import FAMILIES

    tree = ast.parse((Path(sheetlab.__file__).parent / "convergence.py").read_text())
    compared = [
        c.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        for c in [node.left, *node.comparators]
        if isinstance(c, ast.Constant) and c.value in FAMILIES
    ]
    assert compared == []
    imported = {
        a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names
    }
    assert "SOLVE_BLOCK" not in imported


def _calls(name):
    """A predicate accepting a call of name, bare or as an attribute."""

    def named(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (isinstance(func, ast.Name) and func.id == name) or (
            isinstance(func, ast.Attribute) and func.attr == name
        )

    return named


def test_one_ks_step_serves_every_report():
    assert _all_sites(_calls("ks_2samp")) == [("convergence", "_ks_row")]


def test_one_slope_fit_serves_both_slope_probes():
    assert _all_sites(_calls("linregress")) == [("convergence", "_slope_fit")]


def test_only_convergence_imports_stats():
    importers = [p.stem for p in SOURCES if "stats" in _sheetlab_imports(ast.parse(p.read_text()))]
    assert importers == ["convergence"]


def _builds_verdict(node):
    return isinstance(node, ast.Dict) and any(
        isinstance(k, ast.Constant) and k.value == "threshold" for k in node.keys
    )


def test_one_verdict_record():
    assert _all_sites(_builds_verdict) == [("convergence", "_verdict")]


def _touches_files(node):
    """An import of json or csv, or a call of open."""
    if isinstance(node, ast.Import):
        return any(a.name in ("json", "csv") for a in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.level == 0 and node.module in ("json", "csv")
    if isinstance(node, ast.Call):
        func = node.func
        return (isinstance(func, ast.Name) and func.id == "open") or (
            isinstance(func, ast.Attribute) and func.attr == "open"
        )
    return False


def test_only_cli_touches_files():
    # the runners return their files and cli.main writes them; the artifact
    # format lives in cli alone
    sites = _all_sites(_touches_files)
    assert {module for module, _ in sites} == {"cli"}


def _names_quadspec(node):
    return (
        (isinstance(node, ast.ClassDef) and node.name == "QuadSpec")
        or (isinstance(node, ast.Name) and node.id == "QuadSpec")
        or (isinstance(node, ast.Attribute) and node.attr == "QuadSpec")
        or (isinstance(node, ast.alias) and node.name == "QuadSpec")
    )


def test_no_quadrature_record():
    # r is a plain argument of each function that reads it, rho of holder_probe
    assert _all_sites(_names_quadspec) == []
    assert not hasattr(sheetlab, "QuadSpec")


def _reads_rho(node):
    """A name, parameter, keyword, attribute or subscript key rho."""
    return (
        (isinstance(node, ast.Name) and node.id == "rho")
        or (isinstance(node, (ast.arg, ast.keyword)) and node.arg == "rho")
        or (isinstance(node, ast.Attribute) and node.attr == "rho")
        or (
            isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Constant)
            and node.slice.value == "rho"
        )
    )


def test_only_holder_probe_and_the_cli_refusal_read_rho():
    # the exclusion radius reaches no noise, solver or report: the SPDE
    # subcommands record it in the manifest and refuse a negative one
    sites = _all_sites(_reads_rho)
    assert set(sites) == {("convergence", "holder_probe"), ("cli", "_spde_problem")}
    assert sites.count(("cli", "_spde_problem")) == 1


def _defines(*names):
    """A predicate accepting a function or class definition of one of names."""

    def named(node):
        return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in names

    return named


def test_only_kernels_derives_the_kac_stroock_rule_and_theta():
    # the parity-bit packing and the rule's edges and midpoints stay behind
    # kernels.ks_theta and kernels.ks_rule; integrals only calls them
    assert _all_sites(_calls("right_shift")) == [("kernels", "ks_theta")]
    assert _all_sites(_defines("ks_midpoints", "ks_edges")) == []
    assert "sheet" not in MODULES


def _offsets_an_arange_by_half(node):
    """arange(...) + 0.5, either way round: a uniform lattice's midpoints."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
        return False
    sides = (node.left, node.right)
    return any(_calls("arange")(a) for a in sides) and any(
        isinstance(b, ast.Constant) and b.value == 0.5 for b in sides
    )


def test_one_uniform_lattice():
    # nodes, cell midpoints, the Kac-Stroock sub-cells, both norm quadratures
    # and the spectral solve's sine bases are all the cells of uniform_cells
    assert _all_sites(_offsets_an_arange_by_half) == [("grid", "uniform_cells")]
    assert set(_all_sites(_calls("uniform_cells"))) == {
        ("grid", "axis_nodes"),
        ("grid", "axis_cell_centers"),
        ("kernels", "ks_rule"),
        ("convergence", "_lp_norm"),
        ("convergence", "holder_probe"),
        ("green", "_interior_sine_bases"),
    }
    assert ("convergence", "holder_probe") not in _all_sites(_calls("tensor_points"))


def _subclasses_iseedsequence(node):
    return isinstance(node, ast.ClassDef) and any(
        (isinstance(b, ast.Name) and b.id == "ISeedSequence")
        or (isinstance(b, ast.Attribute) and b.attr == "ISeedSequence")
        for b in node.bases
    )


def test_only_rng_seeds_generators():
    # one seeding path: rng.generators builds every PCG64 from its own words,
    # and numpy's SeedSequence is left to the tests as their oracle
    assert {m for m, _ in _all_sites(_calls("PCG64"))} == {"rng"}
    assert {m for m, _ in _all_sites(_subclasses_iseedsequence)} == {"rng"}
    assert _all_sites(_calls("SeedSequence")) == []
    assert _all_sites(_calls("default_rng")) == []


def test_solver_defines_one_solve_record():
    # every solve, lone or in a block, is a SolvedBlock from the one loop
    # _solve_stack; beside it solver's records are F and the solve settings
    tree = ast.parse((Path(sheetlab.__file__).parent / "solver.py").read_text())
    records = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any("dataclass" in ast.unparse(dec) for dec in node.decorator_list)
    }
    assert records == {"Nonlinearity", "SolveConfig", "SolvedBlock"}
    solves = ("_solve_stack", "solve_contraction", "sample_solution")
    returns = {
        node.name: ast.unparse(node.returns)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in solves
    }
    assert returns == dict.fromkeys(solves, "SolvedBlock")
    gone = ("SolveResult", "_solve_results", "sample_solutions")
    assert [(p.stem, name) for p in SOURCES for name in gone if name in p.read_text()] == []
    assert {m for m, _ in _all_sites(_calls("_solve_stack"))} == {"solver"}
    # the report solves in blocks: only cli asks for a lone solve
    lone = _all_sites(_calls("solve_contraction")) + _all_sites(_calls("sample_solution"))
    assert {m for m, _ in lone} == {"cli"}

"""CLI: artifact emission, config precedence, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sheetlab import (
    GridSpec,
    RngStream,
    __version__,
    cli,
    integrals,
    kernels,
    sample_donsker,
    sample_kac_stroock,
    zeta_on_axes,
)
from sheetlab.cli import EXIT_CONFIG, EXIT_OK, EXIT_REFUSED, EXIT_VERDICT, main


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_convergence_report_happy_path(tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "convergence-report",
            "--family", "donsker",
            "--d", "2",
            "--n", "2,8",
            "--M", "1000",
            "--grid-n", "8",
            "--seed", "7",
            "--report-dir", str(out),
        ]
    )
    assert code == EXIT_OK
    report = _read_json(out / "report.json")
    assert report["name"] == "fdd_test"
    assert [row["n"] for row in report["per_n"]] == [2, 8]
    assert (out / "report.csv").read_text().splitlines()[0]
    manifest = _read_json(out / "manifest.json")
    assert manifest["version"] == __version__
    assert manifest["config"]["family"] == "donsker"
    assert manifest["config"]["seed"] == "7"


@pytest.mark.parametrize("subcommand", ["simulate", "convergence-report"])
@pytest.mark.parametrize("family", ["donsker", "kac-stroock", "sheet"])
def test_unknown_law_is_config_error(tmp_path, capsys, subcommand, family):
    out = tmp_path / "run"
    code = main([subcommand, "--family", family, "--law", "bogus", "--report-dir", str(out)])
    assert code == EXIT_CONFIG
    assert "field 'law': unknown value 'bogus'" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_simulate_deterministic_artifacts(tmp_path):
    args = ["simulate", "--family", "sheet", "--d", "2", "--grid-n", "6", "--seed", "3"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--report-dir", str(a)]) == EXIT_OK
    assert main(args + ["--report-dir", str(b)]) == EXIT_OK
    assert (a / "field.csv").read_bytes() == (b / "field.csv").read_bytes()
    ma, mb = _read_json(a / "manifest.json"), _read_json(b / "manifest.json")
    ma.pop("timestamp"), mb.pop("timestamp")
    ma["config"].pop("report_dir"), mb["config"].pop("report_dir")
    assert ma == mb


def test_simulate_sheet_is_donsker_at_grid_scale(tmp_path):
    # simulate integrates the indicator through noise_integrator; for every family
    # its field is zeta_on_axes of the field that the seed draws, bit for bit
    grid = GridSpec(d=3, T=1.0, N=4)
    axes = [grid.axis_nodes(0)] * 3
    for family in ("sheet", "donsker", "kac-stroock"):
        out = tmp_path / family
        code = main(
            [
                "simulate",
                "--family", family,
                "--d", "3",
                "--grid-n", "4",
                "--n", "3",
                "--law", "rademacher",
                "--seed", "5",
                "--report-dir", str(out),
            ]
        )
        assert code == EXIT_OK
        got = np.loadtxt(out / "field.csv", delimiter=",", skiprows=1)[:, -1].reshape((5,) * 3)
        config = _read_json(out / "manifest.json")["config"]
        if family == "sheet":
            # --n and --law do not apply to the sheet; the manifest records what was drawn
            assert (config["n"], config["law"]) == ("4", "standard-normal")
            want = zeta_on_axes(sample_donsker(grid, 4, rng=RngStream(5)), axes)
        elif family == "donsker":
            want = zeta_on_axes(sample_donsker(grid, 3, "rademacher", rng=RngStream(5)), axes)
        else:
            want = zeta_on_axes(sample_kac_stroock(grid, 3.0, RngStream(5)), axes, 4)
        np.testing.assert_array_equal(got, want)
        assert np.all(got[0] == 0.0) and np.all(got[:, 0] == 0.0) and np.all(got[:, :, 0] == 0.0)


@pytest.mark.parametrize(
    "diagnostic, probes", [("fdd", "1.5,1.5;0.5,0.5"), ("variance", "2.0,2.0")]
)
def test_report_probes_outside_domain_are_config_errors(tmp_path, capsys, diagnostic, probes):
    code = main(
        [
            "convergence-report",
            "--diagnostic", diagnostic,
            "--probes", probes,
            "--n", "4",
            "--M", "1000",
            "--report-dir", str(tmp_path),
        ]
    )
    assert code == EXIT_CONFIG
    assert "outside [0, 1.0]" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_variance_report_rejects_several_probes(tmp_path, capsys):
    code = main(
        [
            "convergence-report",
            "--diagnostic", "variance",
            "--probes", "0.5,0.5;0.2,0.2",
            "--n", "4",
            "--M", "100",
            "--report-dir", str(tmp_path),
        ]
    )
    assert code == EXIT_CONFIG
    assert "field 'probes'" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_sheet_records_the_law_it_draws(tmp_path):
    # the sheet draws standard normals whatever --law says; every record says so
    argv = [
        "convergence-report",
        "--diagnostic", "fdd",
        "--family", "sheet",
        "--n", "4,8",
        "--grid-n", "4",
        "--M", "1000",
    ]
    rade, normal = tmp_path / "rademacher", tmp_path / "normal"
    assert main(argv + ["--law", "rademacher", "--report-dir", str(rade)]) == EXIT_OK
    assert main(argv + ["--law", "standard-normal", "--report-dir", str(normal)]) == EXIT_OK
    assert _read_json(rade / "manifest.json")["config"]["law"] == "standard-normal"
    report = _read_json(rade / "report.json")
    assert report["config"]["law"] == "standard-normal"
    assert report["per_n"] == _read_json(normal / "report.json")["per_n"]


def test_artifact_serialization(tmp_path):
    # report.csv ends its lines in "\n"; field.csv and solution.csv are csv
    # tables with "\r\n", as bench/reference pins them
    runs = {
        "report": ["convergence-report", "--diagnostic", "moment"],
        "field": ["simulate", "--grid-n", "4"],
        "solution": ["poisson-solve", "--grid-n", "4"],
    }
    for name, argv in runs.items():
        assert main(argv + ["--report-dir", str(tmp_path / name)]) == EXIT_OK
    report = _read_json(tmp_path / "report" / "report.json")
    assert list(report) == ["name", "config", "per_n", "verdicts", "extra"]
    assert report["name"] == "moment_bound_probe"
    assert report["verdicts"]["ratios_bounded"]["ok"] is True
    table = (tmp_path / "report" / "report.csv").read_bytes()
    assert table.split(b"\n")[0] == b"exact,moment,moment_se,n,ratio"
    assert table.endswith(b"\n") and b"\r" not in table
    for path in (tmp_path / "field" / "field.csv", tmp_path / "solution" / "solution.csv"):
        lines = path.read_bytes().split(b"\r\n")
        assert lines[-1] == b"" and not any(b"\n" in line for line in lines), path
    assert list(_read_json(tmp_path / "solution" / "solve.json")) == [
        "iterations", "final_residual", "converged", "contraction_ratios", "diagnostics"
    ]


def test_g_csv_blank_lines_ignored(tmp_path):
    nodes = GridSpec(d=2, T=1.0, N=4).node_points()
    rows = [f"{a},{b},{1.0 + a - b}" for a, b in nodes]
    plain, blank = tmp_path / "g.csv", tmp_path / "g_blank.csv"
    plain.write_text("\n".join(["x1,x2,g"] + rows) + "\n")
    blank.write_text("\n".join(["", "x1,x2,g", ""] + rows[:7] + ["", ""] + rows[7:]) + "\n\n")
    for path in (plain, blank):
        code = main(
            [
                "poisson-solve",
                "--grid-n", "4",
                "--g", f"csv:{path}",
                "--seed", "2",
                "--report-dir", str(tmp_path / path.stem),
            ]
        )
        assert code == EXIT_OK
    assert (tmp_path / "g" / "solution.csv").read_bytes() == (
        tmp_path / "g_blank" / "solution.csv"
    ).read_bytes()


def test_g_csv_non_finite_value_refused(tmp_path, capsys):
    nodes = GridSpec(d=2, T=1.0, N=4).node_points()
    path = tmp_path / "g.csv"
    path.write_text("\n".join(f"{a},{b},{'nan' if a == b == 0.5 else 1.0}" for a, b in nodes) + "\n")
    out = tmp_path / "run"
    code = main(["poisson-solve", "--grid-n", "4", "--g", f"csv:{path}", "--report-dir", str(out)])
    assert code == EXIT_CONFIG
    assert "field 'g': values must be finite, got nan" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "sheet", "d": 1, "grid_n": 16, "seed": 5}))
    out = tmp_path / "out"
    code = main(
        ["simulate", "--config", str(cfg), "--grid-n", "4", "--report-dir", str(out)]
    )
    assert code == EXIT_OK
    manifest = _read_json(out / "manifest.json")
    assert manifest["config"]["family"] == "sheet"  # from file
    assert manifest["config"]["grid_n"] == "4"  # flag wins
    rows = (out / "field.csv").read_text().splitlines()
    assert len(rows) == 1 + 5  # header + 5 nodes in d=1 with N=4


def test_config_file_non_whole_donsker_n_is_config_error(tmp_path, capsys):
    # a JSON number reaches the sampler unparsed: 4.5 must not run as n = 4
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4.5, "grid_n": 4, "d": 1}))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--report-dir", str(out)]) == EXIT_CONFIG
    assert "whole number, got 4.5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "subcommand, key, value",
    [
        ("convergence-report", "d", 2.5),
        ("convergence-report", "grid_n", 4.7),
        ("convergence-report", "M", 1000.9),
        ("convergence-report", "m", 2.5),
        ("convergence-report", "projections", 2.5),
        ("convergence-report", "seed", 0.5),
        ("convergence-report", "r", 2.5),
        ("green-table", "kmax", 8.5),
        ("poisson-solve", "max_iterations", 200.5),
    ],
)
def test_config_file_non_whole_integer_is_config_error(tmp_path, capsys, subcommand, key, value):
    # int() ran each of these truncated (r = 2.5 as 2) while the manifest recorded 2.5
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(cfg), "--report-dir", str(out)]) == EXIT_CONFIG
    assert f"field {key!r} must be a whole number, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["abc", "1.5", "", "nan"])
def test_integer_flag_that_is_no_number_names_its_field(tmp_path, capsys, value):
    # float("abc") and int("1e3") once spoke for the flag, naming no field
    out = tmp_path / "bad-m"
    assert main(["convergence-report", "--M", value, "--report-dir", str(out)]) == EXIT_CONFIG
    assert f"field 'M' must be a whole number, got {value}" in capsys.readouterr().err
    assert not out.exists()


_SMALL_FDD = ["convergence-report", "--n", "4", "--projections", "2", "--grid-n", "4"]


@pytest.mark.parametrize("flag", ["1e3", "1000.0"])
def test_whole_float_integer_flag_runs_as_a_config_files_float(tmp_path, flag):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"M": 1000.0}))
    reports = []
    for name, extra in (("flag", ["--M", flag]), ("file", ["--config", str(cfg)])):
        out = tmp_path / name
        assert main(_SMALL_FDD + extra + ["--report-dir", str(out)]) == EXIT_OK
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
    assert _read_json(tmp_path / "flag" / "report.json")["config"]["M"] == 1000


@pytest.mark.parametrize(
    "key, value",
    [("n", "4,1e3"), ("n", "4,1000.0"), ("n", [4, 1000]), ("n_list", "4,1e3"), ("n_list", [4, 1000.0])],
)
def test_n_lists_go_through_whole_number(key, value):
    # int() refused "1e3" and "16.0", and a config file's list, naming no field
    assert cli._n_list({key: value}, key) == (4, 1000)
    assert all(type(n) is int for n in cli._n_list({key: value}, key))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["convergence-report", "--n", "4,2.5"], "field 'n' must be a whole number, got 2.5"),
        (["convergence-report", "--n", "4,abc"], "field 'n' must be a whole number, got abc"),
        (["spde-compare", "--n-list", "4,16.5"], "field 'n_list' must be a whole number, got 16.5"),
    ],
)
def test_n_list_that_is_no_whole_number_names_its_field(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main(argv + ["--report-dir", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["convergence-report", "--diagnostic", "variance", "--n", "4.5,16", "--M", "100"],
        ["spde-compare", "--n-list", "4.5,16", "--M", "100", "--grid-n", "4"],
    ],
)
def test_kac_stroock_n_list_takes_real_intensities(tmp_path, argv):
    # simulate --family kac-stroock --n 4.5 ran while both n lists refused 4.5
    out = tmp_path / "out"
    assert main(argv + ["--family", "kac-stroock", "--report-dir", str(out)]) == EXIT_OK
    ns = [row["n"] for row in _read_json(out / "report.json")["per_n"]]
    assert ns == [4.5, 16] and type(ns[1]) is int


@pytest.mark.parametrize(
    "argv, message",
    [
        (["convergence-report", "--n", "0,4"], "field 'n': Kac-Stroock intensity n must be"),
        (["convergence-report", "--n", "4,-2.5"], "field 'n': Kac-Stroock intensity n must be"),
        (["convergence-report", "--n", "4,abc"], "field 'n': could not convert"),
        (["spde-compare", "--n-list", "4,inf"], "field 'n_list': Kac-Stroock intensity n must"),
        (["spde-compare", "--n-list", "nan"], "field 'n_list': Kac-Stroock intensity n must"),
    ],
)
def test_kac_stroock_n_list_refusal_names_its_field(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main(argv + ["--family", "kac-stroock", "--report-dir", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_kac_stroock_whole_n_list_stays_ints():
    cfg = {"family": "kac-stroock", "n": "4,1e3,16.0"}
    assert cli._n_list(cfg, "n") == (4, 1000, 16)
    assert all(type(n) is int for n in cli._n_list(cfg, "n"))
    assert cli._n_list({**cfg, "n": [4, 4.5]}, "n") == (4, 4.5)


def test_norm_quadrature_refused_before_its_edges_are_built(tmp_path):
    # 2 * 2e6 cells per axis: the edges and midpoints of both axes peaked at
    # 158 MB before the cell count was refused. The peak is the child's VmHWM:
    # its ru_maxrss may carry the forking test process's peak across exec
    out = tmp_path / "huge"
    code = f"""
from sheetlab.cli import main
code = main(["convergence-report", "--diagnostic", "variance", "--grid-n", "2000000",
             "--report-dir", {str(out)!r}])
with open("/proc/self/status") as fh:
    hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(code, hwm_kb / 1024)
"""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    exit_code, peak_mb = run.stdout.split()
    assert int(exit_code) == EXIT_REFUSED
    assert "norm quadrature would need 16000000000000 integrand values" in run.stderr
    assert float(peak_mb) < 60, peak_mb
    assert not out.exists()


def test_config_file_n_list_runs_as_the_flag(tmp_path):
    # a config file's "n": [4, 16] exited 2, though "probes" may be a nested list
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": [4, 16]}))
    reports = []
    for name, extra in (("flag", ["--n", "4,16.0"]), ("file", ["--config", str(cfg)])):
        out = tmp_path / name
        argv = ["convergence-report", "--projections", "2", "--grid-n", "4", *extra]
        assert main(argv + ["--report-dir", str(out)]) == EXIT_OK
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
    assert _read_json(tmp_path / "file" / "report.json")["config"]["n_list"] == [4, 16]


def test_green_table_nodes_are_the_simulate_nodes(tmp_path):
    # at a non-dyadic grid-n, arange(m + 1) / m wrote y = 0.3 where simulate
    # writes x = 0.30000000000000004 for the same node
    columns = []
    for sub in ("green-table", "simulate"):
        out = tmp_path / sub
        assert main([sub, "--grid-n", "10", "--report-dir", str(out)]) == EXIT_OK
        csv_name = "green.csv" if sub == "green-table" else "field.csv"
        rows = (out / csv_name).read_text().splitlines()[1:]
        columns.append([row.rsplit(",", 1)[0] for row in rows])
    assert columns[0] == columns[1]
    assert "0.30000000000000004,0.0" in columns[0]


def test_decimal_integer_seed_keeps_its_exact_value(tmp_path):
    # 2**53 + 1 through float would be 2**53, and both seeds would draw one field
    fields = []
    for seed in (2**53, 2**53 + 1):
        out = tmp_path / str(seed)
        argv = ["simulate", "--d", "1", "--grid-n", "4", "--n", "4", "--seed", str(seed)]
        assert main(argv + ["--report-dir", str(out)]) == EXIT_OK
        assert _read_json(out / "manifest.json")["config"]["seed"] == str(seed)
        fields.append((out / "field.csv").read_text())
    assert fields[0] != fields[1]


@pytest.mark.parametrize(
    "subcommand", ["simulate", "convergence-report", "poisson-solve", "spde-compare"]
)
@pytest.mark.parametrize("family", ["donsker", "kac-stroock", "sheet"])
def test_refinement_below_one_is_refused_in_every_family(tmp_path, capsys, subcommand, family):
    # only Kac-Stroock reads r, but a run of any family records it
    out = tmp_path / "run"
    argv = [subcommand, "--family", family, "--r", "0", "--report-dir", str(out)]
    assert main(argv) == EXIT_CONFIG
    assert "field 'r' must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["poisson-solve"], ["spde-compare", "--M", "100"]],
)
def test_rho_changes_no_artifact_and_is_refused_below_zero(tmp_path, capsys, argv):
    # rho is holder_probe's radius: the SPDE runs record it and read it nowhere else
    runs = {}
    for rho in ("1e-3", "0.5"):
        out = tmp_path / rho
        assert main(argv + ["--rho", rho, "--report-dir", str(out)]) == EXIT_OK
        runs[rho] = {p.name: p.read_bytes() for p in out.iterdir()}
        manifest = json.loads(runs[rho].pop("manifest.json"))
        assert manifest["config"].pop("rho") == rho
        del manifest["timestamp"], manifest["config"]["report_dir"]
        runs[rho]["manifest"] = manifest
    assert runs["1e-3"] == runs["0.5"]
    out = tmp_path / "negative"
    assert main(argv + ["--rho", "-1", "--report-dir", str(out)]) == EXIT_CONFIG
    assert "exclusion radius rho must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_a_run_reruns_from_its_own_manifest(tmp_path, capsys):
    # the manifest's version, subcommand and timestamp were refused as unknown
    # fields; its config block, less report_dir and strict, is the run's config
    first, again = tmp_path / "first", tmp_path / "again"
    argv = ["simulate", "--d", "2", "--grid-n", "8", "--seed", "3", "--family", "kac-stroock"]
    assert main(argv + ["--strict", "--report-dir", str(first)]) == EXIT_OK
    manifest = str(first / "manifest.json")
    assert main(["simulate", "--config", manifest, "--report-dir", str(again)]) == EXIT_OK
    assert (again / "field.csv").read_bytes() == (first / "field.csv").read_bytes()
    configs = [_read_json(out / "manifest.json")["config"] for out in (first, again)]
    assert [c.pop("report_dir") for c in configs] == [str(first), str(again)]
    assert configs[0].pop("strict") is True and configs[1].pop("strict") is False
    assert json.dumps(configs[1]) == json.dumps(configs[0])
    # flags still win over the manifest's config
    seeded = tmp_path / "seeded"
    assert main(["simulate", "--config", manifest, "--seed", "4", "--report-dir", str(seeded)]) == EXIT_OK
    assert _read_json(seeded / "manifest.json")["config"]["seed"] == "4"
    assert (seeded / "field.csv").read_bytes() != (first / "field.csv").read_bytes()
    # a manifest of another subcommand is refused, naming both
    out = tmp_path / "other"
    assert main(["green-table", "--config", manifest, "--report-dir", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'simulate'" in err and "'green-table'" in err
    assert not out.exists()


def test_unknown_config_field_is_config_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no_such_field": 1}))
    assert main(["simulate", "--config", str(cfg), "--report-dir", str(tmp_path)]) == EXIT_CONFIG


def test_bad_family_is_config_error(tmp_path):
    code = main(["simulate", "--family", "bogus", "--report-dir", str(tmp_path)])
    assert code == EXIT_CONFIG


def test_workers_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_gate_failure_exits_refused(tmp_path):
    # 1.05 * Lambda_hat * L >= 1 needs L around 10 since Lambda_hat is ~0.108
    code = main(
        [
            "poisson-solve",
            "--F", "linear:20.0",
            "--grid-n", "8",
            "--report-dir", str(tmp_path),
        ]
    )
    assert code == EXIT_REFUSED


def test_budget_refusal(tmp_path):
    code = main(
        [
            "simulate",
            "--family", "donsker",
            "--d", "2",
            "--n", "10000",
            "--grid-n", "4",
            "--report-dir", str(tmp_path),
        ]
    )
    assert code == EXIT_REFUSED


def test_kac_stroock_sign_grid_refusal(tmp_path, monkeypatch, capsys):
    # at n=16, r=4 the sign grid up to the node (1, 1) has 64 x 64 cells
    monkeypatch.setattr(kernels, "DEFAULT_MAX_CELLS", 64 * 64 - 1)
    code = main(
        [
            "simulate",
            "--family", "kac-stroock",
            "--n", "16",
            "--grid-n", "4",
            "--report-dir", str(tmp_path),
        ]
    )
    assert code == EXIT_REFUSED
    assert "sign grid would need 4096 cells" in capsys.readouterr().err


def test_kac_stroock_sign_grid_refused_before_the_draw(tmp_path, monkeypatch, capsys):
    # the sign grid at n = 10^6 and grid-n 4 needs (4 * 10^6)^2 cells: refused
    # before the 2 * 10^6 point coordinates (within the budget) are drawn
    def never(*_):
        raise AssertionError("Poisson points drawn before the sign grid was refused")

    monkeypatch.setattr(integrals, "_poisson_points", never)
    out = tmp_path / "run"
    code = main(
        [
            "simulate",
            "--family", "kac-stroock",
            "--n", "1000000",
            "--grid-n", "4",
            "--report-dir", str(out),
        ]
    )
    assert code == EXIT_REFUSED
    assert "Kac-Stroock sign grid would need 16000000000000 cells" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", ["inf", "nan"])
def test_kac_stroock_intensity_refused_up_front(tmp_path, capsys, n):
    # checked before ks_rule, whose int(ceil(n T)) raised an OverflowError at
    # inf and a message that named no field at nan
    out = tmp_path / "run"
    code = main(["simulate", "--family", "kac-stroock", "--n", n, "--report-dir", str(out)])
    assert code == EXIT_CONFIG
    assert f"Kac-Stroock intensity n must be finite and positive, got {n}" in capsys.readouterr().err
    assert not out.exists()


def test_donsker_innovation_block_refusal(tmp_path, monkeypatch, capsys):
    # the variance report draws its 1000 rows of 64 innovations (n = 8, d = 2)
    # as one block: a budget of one block runs, one entry less is refused before
    # the block is drawn, and values above a budget of 999 are refused
    argv = [
        "convergence-report",
        "--diagnostic", "variance",
        "--family", "donsker",
        "--n", "8",
        "--grid-n", "4",
        "--M", "1000",
    ]
    monkeypatch.setattr(kernels, "DEFAULT_MAX_CELLS", 1000 * 64)
    assert main(argv + ["--report-dir", str(tmp_path / "ok")]) in (EXIT_OK, EXIT_VERDICT)
    for budget, refusal in (
        (1000 * 64 - 1, "innovation block of shape (1000, 8, 8) would need 512000 bytes"),
        (999, "replicate values of shape (1000, 1) would need 8000 bytes"),
    ):
        monkeypatch.setattr(kernels, "DEFAULT_MAX_CELLS", budget)
        out = tmp_path / f"run-{budget}"
        code = main(argv + ["--report-dir", str(out)])
        assert code == EXIT_REFUSED
        assert refusal in capsys.readouterr().err
        assert not out.exists()


def test_fdd_directions_refused_before_the_draw(tmp_path, monkeypatch, capsys):
    # 3 probes: the (1000, 3) replicate values fit a budget of 3000 entries,
    # the (1001, 3) projection directions do not
    monkeypatch.setattr(kernels, "DEFAULT_MAX_CELLS", 3000)
    out = tmp_path / "run"
    code = main(
        [
            "convergence-report",
            "--diagnostic", "fdd",
            "--projections", "1001",
            "--n", "4",
            "--grid-n", "4",
            "--report-dir", str(out),
        ]
    )
    assert code == EXIT_REFUSED
    assert "directions of shape (1001, 3) would need 24024 bytes" in capsys.readouterr().err
    assert not out.exists()


def test_spde_compare_default_probes_follow_d(tmp_path):
    # no --probes: the points (c, c, c) for c = 0.25, 0.5, 0.75, nodes of the grid
    out = tmp_path / "run"
    argv = ["spde-compare", "--d", "3", "--grid-n", "4", "--n-list", "2,4", "--M", "100"]
    assert main(argv + ["--report-dir", str(out)]) == EXIT_OK
    assert _read_json(out / "report.json")["config"]["probes"] == [[c] * 3 for c in (0.25, 0.5, 0.75)]
    assert _read_json(out / "manifest.json")["config"]["probes"] == ""


@pytest.mark.parametrize(
    "grid_n, nodes", [(6, (2, 3, 4)), (10, (3, 5, 7)), (5, (1, 2, 4)), (3, (1, 2)), (2, (1,))]
)
def test_spde_compare_default_probes_snap_to_nodes(tmp_path, grid_n, nodes):
    # c = 0.25, 0.5, 0.75 move to the nearest interior node j / grid_n, ties
    # toward 1/2, and a node reached twice is probed once
    out = tmp_path / "run"
    argv = ["spde-compare", "--grid-n", str(grid_n), "--n-list", "2,4", "--M", "100", "--kmax", "8"]
    assert main(argv + ["--report-dir", str(out)]) == EXIT_OK
    assert _read_json(out / "report.json")["config"]["probes"] == [[j / grid_n] * 2 for j in nodes]


def test_sheet_moments_are_exact(tmp_path):
    # the sheet integrator computes its second moment from its weights
    argv = ["convergence-report", "--diagnostic", "moment", "--family", "sheet",
            "--grid-n", "12", "--n", "3,5,10", "--M", "1000", "--report-dir", str(tmp_path)]
    assert main(argv) == EXIT_OK
    rows = _read_json(tmp_path / "report.json")["per_n"]
    assert [(row["exact"], row["moment_se"]) for row in rows] == [(True, 0.0)] * 3
    assert [row["ratio"] for row in rows] == pytest.approx([1.0] * 3, rel=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n", "2"],
        ["green-table", "--kmax", "8"],
        ["poisson-solve", "--family", "donsker", "--n", "2", "--kmax", "8"],
        ["spde-compare", "--n-list", "2,4", "--M", "100", "--kmax", "8"],
    ],
    ids=lambda argv: argv[0],
)
def test_node_grid_refused_before_any_node_array(tmp_path, monkeypatch, capsys, argv):
    # 41 x 41 = 1681 node values over a budget of 1000, refused before g or
    # any other node array is built
    def never(*_):
        raise AssertionError("a node array was built before the node grid was refused")

    monkeypatch.setattr(kernels, "DEFAULT_MAX_CELLS", 1000)
    monkeypatch.setattr(cli, "_load_g_field", never)
    out = tmp_path / "run"
    code = main(argv + ["--d", "2", "--grid-n", "40", "--report-dir", str(out)])
    assert code == EXIT_REFUSED
    assert "node grid of shape (41, 41) would need 1681 values" in capsys.readouterr().err
    assert not out.exists()


def _readme_commands():
    """The sheetlab command lines of README.md's command block, as argument lists."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    return [line.split()[1:] for line in readme.read_text().splitlines() if line.startswith("sheetlab ")]


def test_readme_commands_exit_ok(tmp_path):
    commands = _readme_commands()
    assert [c[0] for c in commands] == [
        "simulate", "convergence-report", "green-table", "poisson-solve", "spde-compare"
    ]
    extra = [
        ["convergence-report", "--diagnostic", "moment", "--report-dir", "out"],
        ["simulate", "--family", "kac-stroock", "--seed", "1", "--report-dir", "out"],
    ]
    for i, args in enumerate(commands + extra):
        out = tmp_path / str(i)
        args = [str(out) if prev == "--report-dir" else a for prev, a in zip([""] + args, args)]
        assert main(args) == EXIT_OK, args
        assert (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "family, argv, budget, message",
    [
        # no family builds a weight matrix: Kac-Stroock refuses the 8 fields of
        # one parity byte, 8 x 256 rule cells at n = 16 (the sheet target's
        # 64 x 16 innovations and the 16 x 16 sign grid pass) ...
        pytest.param("kac-stroock", ["spde-compare", "--n-list", "16", "--M", "100", "--kmax", "4"],
                     8 * 256 - 1, "cell value block of shape (8, 16, 16) would need 16384 bytes",
                     id="kac-stroock"),
        # ... the Donsker mode route refuses a 64-replicate block's 64 x 64
        # innovations at n = 8 (kmax 4: 16 modes;
        # the sheet target's 64 x 16 innovations pass) ...
        pytest.param("donsker", ["spde-compare", "--n-list", "8", "--M", "100", "--kmax", "4"],
                     64 * 64 - 1, "innovation block of shape (64, 8, 8) would need 32768 bytes",
                     id="donsker"),
        # ... or the 64 x 64 mode coefficients of a block of 16 cells at kmax 8
        pytest.param("sheet", ["spde-compare", "--M", "100", "--kmax", "8"], 64 * 64 - 1,
                     "mode coefficients of shape (64, 64) would need 32768 bytes", id="sheet"),
    ],
)
def test_weight_budget_refusal(tmp_path, monkeypatch, capsys, family, argv, budget, message):
    monkeypatch.setattr(kernels, "DEFAULT_MAX_CELLS", budget)
    out = tmp_path / "run"
    code = main(argv + ["--family", family, "--grid-n", "4", "--report-dir", str(out)])
    assert code == EXIT_REFUSED
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_strict_verdict_failure(tmp_path):
    # degenerate n = 1 rademacher law is rejected, so --strict exits 3
    code = main(
        [
            "convergence-report",
            "--diagnostic", "fdd",
            "--family", "donsker",
            "--law", "rademacher",
            "--d", "1",
            "--n", "1",
            "--M", "1000",
            "--grid-n", "8",
            "--probes", "1.0",
            "--seed", "7",
            "--strict",
            "--report-dir", str(tmp_path),
        ]
    )
    assert code == EXIT_VERDICT
    # a verdict failure is a run that happened: its report and manifest are kept
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == ["manifest.json", "report.csv", "report.json"]
    assert _read_json(tmp_path / "manifest.json")["config"]["strict"] is True


def test_strict_unconverged_solve(tmp_path):
    # two steps stop the solve short of its tolerance: --strict exits 3 and
    # keeps the run's files, a plain run exits 0 with the same solve.json
    argv = ["poisson-solve", "--family", "donsker", "--n", "64", "--F", "tanh:1.0",
            "--max-iterations", "2"]
    strict, plain = tmp_path / "strict", tmp_path / "plain"
    assert main(argv + ["--strict", "--report-dir", str(strict)]) == EXIT_VERDICT
    assert main(argv + ["--report-dir", str(plain)]) == EXIT_OK
    assert sorted(p.name for p in strict.iterdir()) == ["manifest.json", "solution.csv", "solve.json"]
    assert _read_json(strict / "solve.json")["converged"] is False
    assert (strict / "solve.json").read_bytes() == (plain / "solve.json").read_bytes()
    # a solve that converges passes --strict
    assert main(argv[:-2] + ["--strict", "--report-dir", str(tmp_path / "ok")]) == EXIT_OK


def test_solve_json_golden(tmp_path):
    # every byte of solve.json, final_residual and contraction_ratios included
    golden = Path(__file__).parent / "golden" / "poisson_solve.json"
    for case in _read_json(golden)["cases"]:
        out = tmp_path / case["name"]
        assert main(case["argv"] + ["--report-dir", str(out)]) == EXIT_OK
        assert (out / "solve.json").read_text() == case["solve_json"], case["name"]


def test_green_table_artifacts(tmp_path):
    code = main(
        [
            "green-table",
            "--d", "2",
            "--x", "0.5,0.5",
            "--grid-n", "8",
            "--kmax", "16",
            "--report-dir", str(tmp_path),
        ]
    )
    assert code == EXIT_OK
    header = (tmp_path / "green.csv").read_text().splitlines()[0]
    assert header == "y1,y2,K"
    norms = _read_json(tmp_path / "norms.json")
    for key in ("l2_norm_at_x", "lambda_sup_on_grid", "poincare_constant", "kmax"):
        assert key in norms
    assert norms["poincare_constant"] == pytest.approx(2 * 3.14159265**2, rel=1e-6)


def test_poisson_solve_artifacts(tmp_path):
    code = main(
        [
            "poisson-solve",
            "--family", "sheet",
            "--F", "tanh:1.0",
            "--g", "constant:1.0",
            "--n", "3",
            "--grid-n", "8",
            "--seed", "11",
            "--report-dir", str(tmp_path),
        ]
    )
    assert code == EXIT_OK
    # the sheet is drawn at n = grid-n whatever --n says; the manifest records that
    assert _read_json(tmp_path / "manifest.json")["config"]["n"] == "8"
    solve = _read_json(tmp_path / "solve.json")
    assert solve["converged"] is True
    assert "lambda_hat" in solve["diagnostics"]
    rows = (tmp_path / "solution.csv").read_text().splitlines()
    assert rows[0] == "x1,x2,u"
    assert len(rows) == 1 + 9 * 9


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["convergence-report", "--family", "sheet", "--n", "2,4", "--M", "50", "--grid-n", "4"],
         EXIT_CONFIG, "need at least 100 replicates"),
        (["poisson-solve", "--family", "bogus"], EXIT_CONFIG, "field 'family': unknown value"),
        (["spde-compare", "--family", "bogus"], EXIT_CONFIG, "field 'family': unknown value"),
        (["poisson-solve", "--F", "tanh:50"], EXIT_REFUSED, "contraction gate failed"),
        (["green-table", "--d", "4"], EXIT_CONFIG, "d in {2, 3}"),
        (["green-table", "--x", "1.5,0.5"], EXIT_CONFIG, "outside [0, 1.0]"),
        (["green-table", "--grid-n", "0"], EXIT_CONFIG, "cell counts"),
        (["simulate", "--n", "0"], EXIT_CONFIG, "n must be >= 1"),
        (["spde-compare", "--probes", "0.3,0.3"], EXIT_CONFIG, "not a grid node"),
        (["spde-compare", "--n-list", ""], EXIT_CONFIG, "n_list must be non-empty"),
        (["convergence-report", "--n", ""], EXIT_CONFIG, "n_list must be non-empty"),
        (["convergence-report", "--diagnostic", "moment", "--n", ""], EXIT_CONFIG,
         "n_list must be non-empty"),
        (["spde-compare", "--M", "0"], EXIT_CONFIG, "need at least 100 replicates"),
        (["spde-compare", "--M", "1"], EXIT_CONFIG, "need at least 100 replicates"),
        (["convergence-report", "--projections", "0"], EXIT_CONFIG, "projections must be >= 1"),
        (["poisson-solve", "--max-iterations", "0"], EXIT_CONFIG, "max_iterations must be >= 1"),
        (["green-table", "--x", "0.5,0.5;0.2,0.2", "--grid-n", "4"], EXIT_CONFIG,
         "green-table takes one point, got 2"),
        (["spde-compare", "--n-list", "16,4"], EXIT_CONFIG, "strictly increasing"),
        (["spde-compare", "--n-list", "4,4"], EXIT_CONFIG, "strictly increasing"),
        (["spde-compare", "--significance", "0"], EXIT_CONFIG, "significance must lie in (0, 1)"),
        (["convergence-report", "--diagnostic", "moment", "--probes", "0.1,0.1;0.2,0.2"],
         EXIT_CONFIG, "field 'probes': moment uses fixed points"),
        (["convergence-report", "--diagnostic", "tightness", "--probes", "0.1,0.1"],
         EXIT_CONFIG, "field 'probes': tightness uses fixed points"),
        (["poisson-solve", "--family", "donsker", "--n", "4.5"], EXIT_CONFIG,
         "Donsker scale n must be a whole number, got 4.5"),
        # a non-finite F or g ran 200 iterations to a NaN solution; nan passed the gate
        (["poisson-solve", "--F", "tanh:nan"], EXIT_CONFIG,
         "field 'F': nonlinearity parameter must be finite, got nan"),
        (["poisson-solve", "--F", "linear:nan"], EXIT_CONFIG,
         "field 'F': nonlinearity parameter must be finite, got nan"),
        (["poisson-solve", "--g", "constant:nan"], EXIT_CONFIG,
         "field 'g': values must be finite, got nan"),
        (["poisson-solve", "--g", "constant:inf"], EXIT_CONFIG,
         "field 'g': values must be finite, got inf"),
        (["spde-compare", "--F", "tanh:inf"], EXIT_CONFIG,
         "field 'F': nonlinearity parameter must be finite, got inf"),
    ],
)
def test_refused_run_writes_nothing(tmp_path, capsys, argv, code, message):
    out = tmp_path / "run"
    assert main(argv + ["--report-dir", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()

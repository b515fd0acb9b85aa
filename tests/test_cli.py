"""CLI: artifact emission, config precedence, exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

from sheetlab import GridSpec, RngStream, __version__, kernels, sample_donsker, zeta_on_axes
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
    code = main(
        [
            "simulate",
            "--family", "sheet",
            "--d", "3",
            "--grid-n", "4",
            "--n", "3",
            "--law", "rademacher",
            "--seed", "5",
            "--report-dir", str(tmp_path),
        ]
    )
    assert code == EXIT_OK
    # --n and --law do not apply to the sheet; the manifest records what was drawn
    config = _read_json(tmp_path / "manifest.json")["config"]
    assert (config["n"], config["law"]) == ("4", "standard-normal")
    got = np.loadtxt(tmp_path / "field.csv", delimiter=",", skiprows=1)[:, -1].reshape((5,) * 3)
    grid = GridSpec(d=3, T=1.0, N=4)
    want = zeta_on_axes(sample_donsker(grid, 4, rng=RngStream(5)), [grid.axis_nodes(0)] * 3)
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


def test_donsker_innovation_block_refusal(tmp_path, monkeypatch, capsys):
    # the variance report's first n (4, d=2) draws 1000 rows of 16 innovations at once
    monkeypatch.setattr(kernels, "DEFAULT_MAX_CELLS", 1000)
    out = tmp_path / "run"
    code = main(
        [
            "convergence-report",
            "--diagnostic", "variance",
            "--family", "donsker",
            "--n", "4,8",
            "--grid-n", "4",
            "--M", "1000",
            "--report-dir", str(out),
        ]
    )
    assert code == EXIT_REFUSED
    assert "innovation block would need 16000 innovations" in capsys.readouterr().err
    assert list(out.iterdir()) == []


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


@pytest.mark.parametrize("family", ["donsker", "kac-stroock", "sheet"])
def test_weight_budget_refusal(tmp_path, monkeypatch, capsys, family):
    # 25 nodes x 64 cells (donsker, kac-stroock at n=8) or 16 cells (sheet)
    monkeypatch.setattr(kernels, "DEFAULT_MAX_CELLS", 25 * 16 - 1)
    code = main(
        [
            "poisson-solve",
            "--family", family,
            "--n", "8",
            "--grid-n", "4",
            "--report-dir", str(tmp_path),
        ]
    )
    assert code == EXIT_REFUSED
    assert "weight matrix of shape (25, " in capsys.readouterr().err


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
    ],
)
def test_refused_run_writes_nothing(tmp_path, capsys, argv, code, message):
    out = tmp_path / "run"
    assert main(argv + ["--report-dir", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []

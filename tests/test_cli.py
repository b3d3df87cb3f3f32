"""Command-line interface: subcommands, exit codes and output formats."""

import json

import numpy as np
import pytest

import festab as fs
from festab.cli import main


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_writes_loadable_mesh(tmp_path, capsys):
    path = tmp_path / "grid.mesh"
    assert main(["gen", "--grid", "6x4", "--diag", "alternating",
                 "-o", str(path)]) == 0
    out = capsys.readouterr().out
    assert "N = 48 elements" in out
    assert "N_vi = 15 free of 35 vertices" in out
    mesh = fs.load_mesh(str(path))
    assert mesh.num_elements == 48
    assert mesh.dim == 2


def test_gen_groundwater_keeps_tags(tmp_path):
    path = tmp_path / "gw.mesh"
    assert main(["gen", "--groundwater", "-o", str(path)]) == 0
    mesh = fs.load_mesh(str(path))
    assert mesh.region_tags.sum() == 60


def test_gen_graded_grid(tmp_path, capsys):
    path = tmp_path / "graded.mesh"
    assert main(["gen", "--grid", "4x16", "--ratio-y", "1.15",
                 "-o", str(path)]) == 0
    mesh = fs.load_mesh(str(path))
    vols = mesh.volumes()
    assert vols.max() / vols.min() > 5.0       # geometric grading applied


def test_gen_usage_errors(tmp_path):
    assert main(["gen", "-o", str(tmp_path / "x.mesh")]) == 1   # no source
    assert main(["gen", "--grid", "8", "-o", "x"]) == 1          # bad shape
    assert main(["gen", "--uniform1d", "0", "-o", "x"]) == 1     # not >= 1
    assert main(["gen", "--grid", "4x4", "--uniform1d", "8",
                 "-o", "x"]) == 1                                # exclusive


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_json_report(capsys):
    assert main(["analyze", "--uniform1d", "4", "--mass", "lumped"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mass_kind"] == "lumped"
    assert payload["n_free"] == 3
    assert payload["lambda_exact"] == pytest.approx(54.62741699796952,
                                                    rel=1e-12)
    assert payload["lambda_diag_lower"] == pytest.approx(32.0)
    assert payload["lambda_diag_upper"] == pytest.approx(64.0)
    assert payload["quality"]["max_q_ali"] == pytest.approx(1.0)
    assert payload["lambda_zhudu_upper"] is None    # 1D: no face bracket


def test_analyze_json_to_file_and_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["analyze", "--grid", "4x4", "--field", "aniso2d:kappa=100"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["lambda_diag_lower"] <= payload["lambda_exact"] \
        <= payload["lambda_diag_upper"]


@pytest.mark.parametrize("args", [
    ["--grid", "5x4", "--field", "aniso2d:kappa=100"],
    ["--grid3d", "2x2x3"],
    ["--groundwater", "--mass", "lumped-rowsum"],
    ["--equi1d", "16", "--field", "per1d", "--quad-order", "2"],
])
def test_analyze_quality_block_is_the_inverse_metric_summary(tmp_path,
                                                             args):
    out = tmp_path / "report.json"
    mesh_file = tmp_path / "mesh.txt"
    assert main(["gen", *[a for a in args if a not in (
        "--mass", "lumped-rowsum", "--quad-order", "2")],
        "-o", str(mesh_file)]) == 0
    assert main(["analyze", *args, "-o", str(out)]) == 0
    quality = json.loads(out.read_text())["quality"]
    mesh = fs.load_mesh(str(mesh_file))
    if "--groundwater" in args:
        field = fs.gen_groundwater_like()[1]
    else:
        spec = args[args.index("--field") + 1] if "--field" in args \
            else "identity"
        field = fs.parse_field_spec(spec, mesh.dim)
    order = int(args[args.index("--quad-order") + 1]) \
        if "--quad-order" in args else 4
    want = fs.mesh_quality_summary(mesh, fs.InverseOf(field), order)
    for key in ("h_global", "max_q_eq", "max_q_ali", "max_q_m"):
        assert quality[key] == pytest.approx(getattr(want, key), rel=1e-14)


def test_analyze_csv_format(tmp_path):
    path = tmp_path / "rep.csv"
    assert main(["analyze", "--uniform1d", "8", "--format", "csv",
                 "-o", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0].startswith("mesh_id,n_elements,mass_kind,bound")
    assert len(lines) == 3                    # diag + geo rows in 1D
    assert lines[1].split(",")[3] == "diag"


def test_analyze_check_estimate_exit_codes(capsys):
    # lumped 1D n=4: provable lower bound is 32
    base = ["analyze", "--uniform1d", "4", "--mass", "lumped"]
    assert main(base + ["--check-estimate", "40"]) == 0
    assert main(base + ["--check-estimate", "30"]) == 3
    err = capsys.readouterr().err
    assert "certificate violation" in err


def test_analyze_lanczos_flag_implies_method(capsys):
    assert main(["analyze", "--grid", "6x6", "--lanczos", "5",
                 "--security", "1.1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"].startswith("lanczos(steps=5,seed=2")
    # the secured estimate stays above the provable lower bound
    assert payload["lambda_exact"] >= payload["lambda_diag_lower"]


def test_analyze_validation_errors(tmp_path, capsys):
    assert main(["analyze", "--mesh", str(tmp_path / "missing.mesh")]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["analyze", "--uniform1d", "4", "--field", "wavelet"]) == 2
    # 2D field on a 1D mesh
    assert main(["analyze", "--uniform1d", "4",
                 "--field", "aniso2d:kappa=10"]) == 2


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------

def test_integrate_stable_pass(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    assert main(["integrate", "--uniform1d", "16", "--mass", "lumped",
                 "--stages", "2", "--steps", "50", "--tau-frac", "0.95",
                 "-o", str(trace)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS: l2 and energy norms nonincreasing over 50")
    lines = trace.read_text().splitlines()
    assert lines[0] == "step,time,l2,energy"
    assert len(lines) == 52


def test_integrate_unstable_fail_is_reported_not_exit_code(capsys):
    assert main(["integrate", "--uniform1d", "16", "--mass", "lumped",
                 "--stages", "2", "--steps", "2000", "--tau-frac", "1.02",
                 "--seed-eigvec"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("FAIL:")


def test_integrate_explicit_tau(capsys):
    assert main(["integrate", "--uniform1d", "8", "--mass", "lumped",
                 "--steps", "5", "--tau", "1e-4"]) == 0
    out = capsys.readouterr().out
    assert "tau=0.0001" in out
    assert out.startswith("PASS")


def test_integrate_usage_guards(capsys):
    # --steps is required and must be positive
    assert main(["integrate", "--uniform1d", "8"]) == 1
    assert main(["integrate", "--uniform1d", "8", "--steps", "0"]) == 1
    # --tau and --tau-frac are mutually exclusive
    assert main(["integrate", "--uniform1d", "8", "--steps", "5",
                 "--tau", "1e-3", "--tau-frac", "0.5"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["analyze", "--grid", "6x6"],
    ["integrate", "--grid", "6x6", "--steps", "5"],
])
@pytest.mark.parametrize("fault", ["certificate", "memory"])
def test_eigen_failures_exit_2_with_one_line(monkeypatch, capsys, argv,
                                             fault):
    from festab import bounds as bounds_mod
    if fault == "certificate":
        monkeypatch.setattr(bounds_mod, "_certified", lambda *args: False)
    else:
        def no_memory(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(bounds_mod.spla, "splu", no_memory)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert ("no certified" if fault == "certificate" else "out of memory") \
        in err[0]


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

def test_experiment_end_to_end(tmp_path, capsys):
    ini = tmp_path / "bench.ini"
    ini.write_text("[per1d]\nsizes = 8\nlumping = both\noutput = p.csv\n")
    out_dir = tmp_path / "out"
    assert main(["experiment", str(ini), "--out-dir", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "per1d: 4 rows" in out
    assert (out_dir / "p.csv").exists()
    data = json.loads((out_dir / "summary.json").read_text())
    assert {r["mass_kind"] for r in data["per1d"]} == {"full", "lumped"}


def test_experiment_bad_spec(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[warp]\nsizes = 8\n")
    assert main(["experiment", str(ini), "--out-dir", str(tmp_path)]) == 2
    assert "unknown experiment family" in capsys.readouterr().err
    assert main(["experiment", str(tmp_path / "missing.ini")]) == 2


# ---------------------------------------------------------------------------
# global behaviour
# ---------------------------------------------------------------------------

def test_no_command_is_usage_error(capsys):
    assert main([]) == 1
    assert main(["orbit"]) == 1
    capsys.readouterr()


def test_reproducible_pins_thread_env(monkeypatch, capsys):
    import os
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    assert main(["analyze", "--uniform1d", "4", "--reproducible"]) == 0
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        assert os.environ[var] == "1"
    capsys.readouterr()

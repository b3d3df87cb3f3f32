"""Command-line interface: subcommands, exit codes and output formats."""

import json
import os
import subprocess
import sys
from pathlib import Path

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
    assert main(["gen", "--grid", "0x4", "-o", "x"]) == 1
    assert main(["gen", "--grid3d", "0x2x2", "-o", "x"]) == 1
    assert main(["gen", "--grid", "4x4", "--uniform1d", "8",
                 "-o", "x"]) == 1                                # exclusive


def test_gen_field_needs_equi1d(tmp_path, capsys):
    out = tmp_path / "g.mesh"
    assert main(["gen", "--grid", "4x4", "--field", "identity",
                 "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "festab gen: error: --field needs --equi1d"]
    assert not out.exists()
    # with --equi1d the field's weight places the nodes
    assert main(["gen", "--equi1d", "8", "--field", "per1d:eps=0.25",
                 "-o", str(out)]) == 0
    want = fs.gen_equidistributed_1d(8, fs.adapted_weight(fs.per1d(0.25)))
    assert (fs.load_mesh(str(out)).nodes == want.nodes).all()
    assert (want.nodes != fs.gen_uniform_1d(8).nodes).any()


# (option, a value, a source it does not shape, its source, its default)
SOURCE_OPTIONS = [
    ("--ratio-x", "2", ["--grid3d", "2x2x2"], ["--grid", "4x4"], "1"),
    ("--diag", "left", ["--uniform1d", "8"], ["--grid", "4x4"], "right"),
    ("--contrast", "5", ["--grid", "4x4"], ["--groundwater"], "1e-6"),
    ("--kappa", "10", ["--grid", "4x4"], ["--aligned"], "1000"),
    ("--ratio-y", "3", ["--groundwater"], ["--grid", "4x4"], "1"),
]


@pytest.mark.parametrize("option,value,wrong,right,default", SOURCE_OPTIONS)
@pytest.mark.parametrize("command", ["gen", "analyze", "integrate"])
def test_source_option_without_its_source_is_a_usage_error(
        tmp_path, capsys, command, option, value, wrong, right, default):
    out = tmp_path / "out"
    tail = {"gen": ["-o", str(out)], "analyze": ["-o", str(out)],
            "integrate": ["--steps", "1", "-o", str(out)]}[command]
    assert main([command] + wrong + [option, value] + tail) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"festab {command}: error: {option} needs {right[0]}"]
    assert not out.exists()


@pytest.mark.parametrize("option,value,wrong,right,default", SOURCE_OPTIONS)
def test_source_option_shapes_its_source(capsys, option, value, wrong, right,
                                         default):
    # unset is the default; another value reaches the source
    reports = []
    for extra in ([], [option, default], [option, value]):
        assert main(["analyze"] + right + ["--bounds", "diag"] + extra) == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[1] == reports[0]
    assert reports[2]["lambda_exact"] != reports[0]["lambda_exact"] \
        or reports[2]["mesh_id"] != reports[0]["mesh_id"]


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
    # gen takes the mesh source, and --field only with --equi1d
    analyze_only = ("--mass", "lumped-rowsum", "--quad-order", "2")
    if "--equi1d" not in args:
        analyze_only += ("--field", "aniso2d:kappa=100")
    assert main(["gen", *[a for a in args if a not in analyze_only],
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
    want = fs.mesh_quality_summary(
        fs.ProblemContext(mesh, fs.InverseOf(field), order))
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


@pytest.mark.parametrize("option", [["--seed", "5"], ["--security", "9"]])
def test_analyze_lanczos_options_need_lanczos(capsys, option):
    assert main(["analyze", "--grid", "6x6"] + option) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed and --security need --lanczos" in captured.err
    assert main(["analyze", "--grid", "6x6", "--lanczos", "5"] + option) == 0
    method = json.loads(capsys.readouterr().out)["method"]
    assert (option[0][2:] + "=" + option[1]) in method


def test_analyze_piecewise_field_from_a_regions_file(tmp_path, capsys):
    # the README's field spec for region-tagged tensors on a saved mesh
    mesh_file = tmp_path / "gw.mesh"
    regions = tmp_path / "coeffs.txt"
    regions.write_text("# tag m11 m12 m22\n0 1 0 1\n1 1e-6 0 1e-6\n")
    assert main(["gen", "--groundwater", "-o", str(mesh_file)]) == 0
    capsys.readouterr()
    assert main(["analyze", "--mesh", str(mesh_file),
                 "--field", f"piecewise:file={regions}"]) == 0
    payload = json.loads(capsys.readouterr().out)
    ref = fs.stability_report(*fs.gen_groundwater_like())
    assert payload["lambda_exact"] == pytest.approx(ref.lambda_exact,
                                                    rel=1e-12)


def test_analyze_validation_errors(tmp_path, capsys):
    assert main(["analyze", "--mesh", str(tmp_path / "missing.mesh")]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["analyze", "--uniform1d", "4", "--field", "wavelet"]) == 2
    # 2D field on a 1D mesh
    assert main(["analyze", "--uniform1d", "4",
                 "--field", "aniso2d:kappa=10"]) == 2


_ANALYZE_FILE = ("analyze", "--mesh", "{input}")
_EXPERIMENT = ("experiment", "{input}", "--out-dir", "{dir}/out")
_MESH_1D = "dim 1\nnodes 3\n0 1\n0.5 0\n1 1\n"

# case: (text of the input file or None, argv with "{input}" for the input
# file and "{dir}" for an existing directory, text of the error line)
_BAD_INPUTS = {
    "mesh-huge-count": ("dim 1\nnodes 99999999999999\n0.0 1\n",
                        _ANALYZE_FILE, "declares 99999999999999 nodes"),
    "mesh-trailing-elements": (_MESH_1D + "elements 1\n0 1\n1 2\n0 1\n",
                               _ANALYZE_FILE,
                               ":8: content after the element block"),
    "mesh-bad-count": ("dim 1\nnodes x\n", _ANALYZE_FILE,
                       ":2: 'nodes' needs a non-negative"),
    "mesh-int64-index": (_MESH_1D + "elements 2\n0 1\n"
                         "1 2 99999999999999999999999\n", _ANALYZE_FILE,
                         ":8: malformed element line"),
    "mesh-node-in-no-element": (
        _MESH_1D + "elements 1\n0 1\n",
        ("gen", "--mesh", "{input}", "-o", "{dir}/out.mesh"),
        "node 2 belongs to no element"),
    "bounds": (None, ("analyze", "--grid", "4x4", "--bounds", "geom"),
               "unknown bound 'geom'"),
    "experiment-bounds": ("[zd2d]\nbounds = diag geom\n", _EXPERIMENT,
                          "unknown bound 'geom'"),
    "field-nan": (None, ("analyze", "--grid", "3x3",
                         "--field", "constant:value=nan"),
                  "Constant field: matrix 0 has a non-finite entry"),
    "field-inf": (None, ("analyze", "--grid", "3x3",
                         "--field", "aniso2d:kappa=inf"),
                  "field aniso2d(kappa=inf): matrix 0 has a non-finite"),
    "field-region-repeated": (
        "0 1 0 1\n0 5 0 5\n1 1 0 1\n",
        ("analyze", "--groundwater", "--field", "piecewise:file={input}"),
        ":2: region tag 0 repeated (first on line 1)"),
    "field-region-overflow": (
        "0 1e999 0 1\n",
        ("analyze", "--groundwater", "--field", "piecewise:file={input}"),
        "piecewise field, region 0: matrix 0 has a non-finite entry"),
    "ini-duplicate-section": ("[zd2d]\n[zd2d]\n", _EXPERIMENT,
                              "section 'zd2d' already exists"),
    "ini-no-section-header": (_MESH_1D, _EXPERIMENT,
                              "File contains no section headers"),
    "ini-key-without-equals": ("[zd2d]\noutput\n", _EXPERIMENT,
                               "[line 2]: 'output\\n'"),
    "ini-bad-interpolation": ("[zd2d]\noutput = 50%.csv\n", _EXPERIMENT,
                              "'%' must be followed by '%' or '('"),
    "gen-output-is-a-directory": (
        None, ("gen", "--grid", "2x2", "-o", "{dir}"), "Is a directory"),
    "analyze-output-is-a-directory": (
        None, ("analyze", "--grid", "2x2", "-o", "{dir}"), "Is a directory"),
    "integrate-output-is-a-directory": (
        None, ("integrate", "--grid", "2x2", "--steps", "1", "-o", "{dir}"),
        "Is a directory"),
    "experiment-out-dir-is-a-file": (
        "[zd2d]\n", ("experiment", "{input}", "--out-dir", "{input}"),
        "File exists"),
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, case):
    text, argv, message = _BAD_INPUTS[case]
    path = tmp_path / "input.txt"
    if text is not None:
        path.write_text(text)
    argv = [a.format(input=path, dir=tmp_path) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert message in err[0]


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
        monkeypatch.setattr(bounds_mod, "dpbtrf", no_memory)
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


def _assert_second_section_refused_first(tmp_path, capsys, section, key,
                                         message, default=""):
    """A good first section, then [section] with one bad key line (or a
    [DEFAULT] line that [section] does not take): the file is refused with
    exit 2 before any section runs or writes."""
    first = "aniso2d" if section == "zd2d" else "zd2d"
    ini = tmp_path / "two.ini"
    ini.write_text(f"[DEFAULT]\n{default}\n\n"
                   f"[{first}]\noutput = first.csv\n\n"
                   f"[{section}]\n{key}\noutput = second.csv\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main(["experiment", str(ini), "--out-dir", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {ini} [{section}]: ")
    assert message in err[0]
    assert list(out_dir.iterdir()) == []


def test_experiment_unknown_bound_fails_before_any_section_runs(tmp_path,
                                                                capsys):
    _assert_second_section_refused_first(tmp_path, capsys, "per1d",
                                         "bounds = geom",
                                         "unknown bound 'geom'")


def test_experiment_bad_quad_order_fails_before_any_section_runs(tmp_path,
                                                                 capsys):
    _assert_second_section_refused_first(tmp_path, capsys, "per1d",
                                         "quad_order = 3",
                                         "quad_order must be 1, 2 or 4")


@pytest.mark.parametrize("per1d_key, message", [
    ("eps = abc", "could not convert string to float: 'abc'"),
    ("sizes = 8.5", "invalid literal for int()"),
    ("quad_order = four", "invalid literal for int()"),
])
def test_experiment_unconvertible_value_names_the_file(tmp_path, capsys,
                                                       per1d_key, message):
    _assert_second_section_refused_first(tmp_path, capsys, "per1d",
                                         per1d_key, message)


# a valid line of each key that shapes some families but not all
SHAPING_KEYS = {"sizes": "sizes = 8", "eps": "eps = 0.25",
                "kappa": "kappa = 5", "contrast": "contrast = 1e-3",
                "quad_order": "quad_order = 2",
                "mesh_files": "mesh_files = extra.mesh"}
# family -> the keys of SHAPING_KEYS that shape its tables
FAMILY_KEYS = {"per1d": {"sizes", "eps", "quad_order"},
               "nonper1d": {"sizes", "eps", "quad_order"},
               "zd2d": set(),
               "groundwater_like": {"contrast", "mesh_files"},
               "aniso2d": {"kappa", "quad_order"}}
EXCLUDED_PAIRS = [(family, key) for family, keys in FAMILY_KEYS.items()
                  for key in SHAPING_KEYS if key not in keys]


@pytest.mark.parametrize("family, key", EXCLUDED_PAIRS)
def test_experiment_key_that_shapes_nothing_is_refused(tmp_path, capsys,
                                                       family, key):
    _assert_second_section_refused_first(tmp_path, capsys, family,
                                         SHAPING_KEYS[key],
                                         f"unknown key {key!r}")


@pytest.mark.parametrize("key", ["stages = 2", "name = per1d"])
def test_experiment_removed_keys_are_refused(tmp_path, capsys, key):
    _assert_second_section_refused_first(tmp_path, capsys, "per1d", key,
                                         f"unknown key {key.split()[0]!r}")


def test_experiment_default_key_counts_as_the_sections_own(tmp_path,
                                                           capsys):
    # kappa under [DEFAULT] is fine for the first section, aniso2d, and
    # refused for zd2d, which it does not shape
    _assert_second_section_refused_first(tmp_path, capsys, "zd2d", "",
                                         "unknown key 'kappa'",
                                         default="kappa = 5")


def test_experiment_accepts_every_key_of_its_family(tmp_path):
    lines = {family: [SHAPING_KEYS[key] for key in sorted(keys)]
             + ["lumping = full", "bounds = diag", "output = t.csv"]
             for family, keys in FAMILY_KEYS.items()}
    ini = tmp_path / "all.ini"
    ini.write_text("".join(f"[{family}]\n" + "\n".join(body) + "\n\n"
                           for family, body in lines.items()))
    specs = fs.parse_experiment_file(str(ini))
    assert [spec.name for spec in specs] == list(fs.FAMILIES)
    assert specs[0].sizes == (8,) and specs[0].eps == 0.25
    assert specs[3].mesh_files == ("extra.mesh",)
    assert specs[4].kappa == 5.0 and specs[4].quad_order == 2


@pytest.mark.parametrize("text, message", [
    ("[DEFAULT]\noutput = t.csv\n[zd2d]\n[groundwater_like]\n",
     "is also the output of [zd2d]"),
    ("[zd2d]\noutput = t.csv\n[groundwater_like]\noutput = sub/../t.csv\n",
     "is also the output of [zd2d]"),
    ("[zd2d]\n[groundwater_like]\noutput = ./summary.json\n",
     "is the summary"),
], ids=["default", "normalized", "summary"])
def test_experiment_output_written_twice_is_refused(tmp_path, capsys, text,
                                                    message):
    ini = tmp_path / "d.ini"
    ini.write_text(text)
    out_dir = tmp_path / "out"
    assert main(["experiment", str(ini), "--out-dir", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {ini} [groundwater_like]: output ")
    assert message in err[0]
    assert not out_dir.exists()


def test_experiment_bad_spec(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[warp]\nsizes = 8\n")
    assert main(["experiment", str(ini), "--out-dir", str(tmp_path)]) == 2
    assert "unknown experiment family" in capsys.readouterr().err
    assert main(["experiment", str(tmp_path / "missing.ini")]) == 2


# ---------------------------------------------------------------------------
# global behaviour
# ---------------------------------------------------------------------------

def test_import_leaves_out_scipy_integrate_and_optimize():
    # The cold import is part of every CLI call's cost; neither package is
    # needed since 1D equidistribution evaluates its weight in batches.
    code = ("import sys, festab, festab.cli\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith(('scipy.integrate', "
            "'scipy.optimize'))))")
    env = dict(os.environ,
               PYTHONPATH=str(Path(fs.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_no_command_is_usage_error(capsys):
    assert main([]) == 1
    assert main(["orbit"]) == 1
    capsys.readouterr()


def test_removed_options_are_usage_errors(capsys):
    for argv in (["analyze", "--uniform1d", "4", "--reproducible"],
                 ["analyze", "--uniform1d", "4", "--threads", "2"],
                 ["analyze", "--uniform1d", "4", "--eig", "power"],
                 ["analyze", "--uniform1d", "4", "--eig", "exact"],
                 ["integrate", "--uniform1d", "4", "--steps", "1",
                  "--reproducible"],
                 ["experiment", "spec.ini", "--threads", "1"]):
        assert main(argv) == 1
    capsys.readouterr()

"""Benchmark families, experiment specs/files, and the table writer."""

import csv
import dataclasses
import json
import math

import numpy as np
import pytest

import festab as fs


# ---------------------------------------------------------------------------
# builtin meshes
# ---------------------------------------------------------------------------

def test_groundwater_mesh_layout():
    mesh, field = fs.gen_groundwater_like()
    assert mesh.num_nodes == 676
    assert mesh.num_elements == 1250
    assert (mesh.node_markers == fs.DIRICHLET).sum() == 52   # y = 0, 100
    assert (mesh.node_markers == fs.NEUMANN).sum() == 48     # x = 0, 100
    # corners are driven (Dirichlet wins over no-flux)
    for corner in ([0.0, 0.0], [100.0, 0.0], [0.0, 100.0], [100.0, 100.0]):
        i = int(np.argmin(np.abs(mesh.nodes - corner).sum(axis=1)))
        assert mesh.node_markers[i] == fs.DIRICHLET
    assert np.allclose(mesh.volumes(), 8.0)
    # two strips, 15 cells of 2 triangles each
    assert mesh.region_tags.sum() == 60
    cent = mesh.nodes[mesh.elements].mean(axis=1)
    tagged = mesh.region_tags == 1
    assert (cent[tagged, 0] >= 20.0).all() and (cent[tagged, 0] <= 80.0).all()
    assert np.allclose(field.table[0], np.eye(2))
    assert np.allclose(field.table[1], 1e-6 * np.eye(2))


def test_groundwater_full_mass_eigenvalue_frozen():
    mesh, field = fs.gen_groundwater_like()
    A = fs.assemble_stiffness(mesh, field)
    M = fs.assemble_mass(mesh)
    assert fs.lambda_max_exact(M, A).value == pytest.approx(
        1.5889576496844386, rel=1e-10)


def test_aligned_mesh_layout():
    mesh = fs.gen_metric_aligned()
    assert mesh.num_nodes == 17 * 101 == 1717
    assert mesh.num_elements == 2 * 16 * 100 == 3200
    free = mesh.node_markers != fs.DIRICHLET
    assert free.sum() == 15 * 99 == 1485
    # boundary of the logical grid is clamped
    grid = mesh.node_markers.reshape(17, 101)
    assert (grid[0, :] == fs.DIRICHLET).all()
    assert (grid[-1, :] == fs.DIRICHLET).all()
    assert (grid[:, 0] == fs.DIRICHLET).all()
    assert (grid[:, -1] == fs.DIRICHLET).all()
    with pytest.raises(ValueError):
        fs.gen_metric_aligned(n_long=1)
    # the alternating split of a 4x4 patch, rows of 5 nodes
    small = fs.gen_metric_aligned(100.0, n_long=4, n_short=4)
    assert small.elements.tolist() == [
        [0, 5, 6], [0, 6, 1], [1, 6, 2], [6, 7, 2],
        [2, 7, 8], [2, 8, 3], [3, 8, 4], [8, 9, 4],
        [5, 10, 6], [10, 11, 6], [6, 11, 12], [6, 12, 7],
        [7, 12, 8], [12, 13, 8], [8, 13, 14], [8, 14, 9],
        [10, 15, 16], [10, 16, 11], [11, 16, 12], [16, 17, 12],
        [12, 17, 18], [12, 18, 13], [13, 18, 14], [18, 19, 14],
        [15, 20, 16], [20, 21, 16], [16, 21, 22], [16, 22, 17],
        [17, 22, 18], [22, 23, 18], [18, 23, 24], [18, 24, 19]]
    assert np.flatnonzero(small.node_markers == fs.INTERIOR).tolist() == [
        6, 7, 8, 11, 12, 13, 16, 17, 18]


def test_aligned_mesh_cells_follow_the_coefficient():
    kappa = 1000.0
    mesh = fs.gen_metric_aligned(kappa, n_long=4, n_short=12)
    metric = fs.InverseOf(fs.aniso2d(kappa))
    q = fs.mesh_quality_summary(fs.ProblemContext(mesh, metric))
    ref = fs.mesh_quality_summary(
        fs.ProblemContext(fs.gen_structured_2d(8, 8), metric))
    assert q.max_q_ali < 5.0            # aligned: close to matching
    assert ref.max_q_ali > 20.0         # axis-aligned grid: badly misaligned


# ---------------------------------------------------------------------------
# experiment specs
# ---------------------------------------------------------------------------

def test_spec_validation_errors():
    with pytest.raises(ValueError, match="unknown experiment family"):
        fs.ExperimentSpec(name="heat3d")
    with pytest.raises(ValueError, match=">= 4"):
        fs.ExperimentSpec(name="per1d", sizes=(2,))
    with pytest.raises(ValueError, match="lumping"):
        fs.ExperimentSpec(name="per1d", lumping="rowsum")
    with pytest.raises(ValueError, match="quad_order must be 1, 2 or 4"):
        fs.ExperimentSpec(name="per1d", quad_order=3)


def test_spec_mass_kind_conventions():
    assert fs.ExperimentSpec(name="per1d").mass_kinds() == ("full", "lumped")
    assert fs.ExperimentSpec(name="nonper1d",
                             lumping="lumped").mass_kinds() == ("lumped",)
    assert fs.ExperimentSpec(name="zd2d").mass_kinds() == \
        ("full", "lumped_rowsum")
    assert fs.ExperimentSpec(name="aniso2d",
                             lumping="full").mass_kinds() == ("full",)
    assert fs.ExperimentSpec(
        name="groundwater_like",
        lumping="lumped").mass_kinds() == ("lumped_rowsum",)


def test_table_row_from_report():
    mesh = fs.gen_uniform_1d(8)
    rep = fs.stability_report(mesh, fs.identity(1), mass_kind="lumped",
                              mesh_id="u8")
    row = fs.TableRow.from_report(rep)
    assert row.mesh_id == "u8"
    assert row.n_elements == 8
    assert row.mass_kind == "lumped"
    assert row.lambda_max == rep.lambda_exact
    assert set(row.tau_h_over_s2) == {"diag", "geo"}   # 1D: no face brackets
    assert row.ratio["diag"] == pytest.approx(rep.ratio)
    d = dataclasses.asdict(row)
    json.dumps(d)                                       # serializable
    assert d["note"] == ""


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def test_run_small_1d_family(tmp_path):
    out = tmp_path / "per1d.csv"
    spec = fs.ExperimentSpec(name="per1d", sizes=(8, 16),
                             output=str(out))
    rows = fs.run_experiment(spec)
    assert len(rows) == 8                     # 2 sizes x {uniform,adapted} x 2
    ids = [r.mesh_id for r in rows]
    assert ids[0] == "per1d-uniform-N8" and ids[1] == "per1d-uniform-N8"
    assert "per1d-adapted-N16" in ids
    kinds = {r.mass_kind for r in rows}
    assert kinds == {"full", "lumped"}
    for r in rows:
        assert r.lambda_max > 0.0
        cstar_cap = 4.0                       # worst case over the variants
        assert 1.0 - 1e-9 <= r.ratio["diag"] <= cstar_cap + 1e-9
        assert r.tau_h_over_s2["diag"] <= r.tau_max_over_s2 * (1 + 1e-12)
        assert r.tau_h_over_s2["geo"] <= r.tau_max_over_s2 * (1 + 1e-12)
    text = out.read_text().splitlines()
    assert text[0] == ("mesh_id,n_elements,mass_kind,lambda_max,"
                       "tau_max_over_s2,tau_h_diag_over_s2,"
                       "tau_h_geo_over_s2,ratio_diag,ratio_geo,note")
    assert len(text) == 9
    # determinism: a rerun writes identical bytes
    out2 = tmp_path / "again.csv"
    spec2 = fs.ExperimentSpec(name="per1d", sizes=(8, 16), output=str(out2))
    fs.run_experiment(spec2)
    assert out.read_bytes() == out2.read_bytes()


def assert_2d_rows_within_cstar(rows):
    """Full and row-sum lumped rows, each with every value finite, no note
    and its diagonal ratio within [1, C*] for general 2D meshes (6 full,
    3 lumped)."""
    assert {r.mass_kind for r in rows} == {"full", "lumped_rowsum"}
    cstar = {"full": 6.0, "lumped_rowsum": 3.0}
    for r in rows:
        assert 1.0 - 1e-9 <= r.ratio["diag"] <= cstar[r.mass_kind] + 1e-9
        values = [r.lambda_max, r.tau_max_over_s2,
                  *r.tau_h_over_s2.values(), *r.ratio.values()]
        assert np.isfinite(values).all() and r.note == ""


def test_run_aniso2d_family():
    """The rotating-anisotropy family on its square grid and on the
    metric-aligned mesh."""
    rows = fs.run_experiment(fs.ExperimentSpec("aniso2d"))
    assert len(rows) == 4
    assert {r.mesh_id for r in rows} == {"aniso2d-32x32", "aniso2d-aligned"}
    assert_2d_rows_within_cstar(rows)


def test_run_zd2d_family():
    """The Laplacian on the square, stretched and graded grids."""
    rows = fs.run_experiment(fs.ExperimentSpec("zd2d"))
    assert len(rows) == 6
    assert {r.mesh_id for r in rows} == {"zd2d-32x32", "zd2d-4x256",
                                         "zd2d-bl-4x16"}
    assert_2d_rows_within_cstar(rows)


def test_adapted_meshes_improve_the_oscillatory_step():
    spec = fs.ExperimentSpec(name="per1d", sizes=(64,), lumping="full")
    rows = {r.mesh_id: r for r in fs.run_experiment(spec)}
    uni = rows["per1d-uniform-N64"]
    ada = rows["per1d-adapted-N64"]
    assert ada.tau_max_over_s2 > uni.tau_max_over_s2


def lumped_to_full_tau_ratios(rows):
    """tau_max(lumped) / tau_max(full) per mesh id."""
    tau = {(r.mesh_id, r.mass_kind): r.tau_max_over_s2 for r in rows}
    return {mesh_id: value / tau[mesh_id, "full"]
            for (mesh_id, kind), value in tau.items() if kind != "full"}


def test_compare_lumping_exact_single_node_ratio():
    # one free node: pencils are scalars, tau ratio = Mlump/Mfull = 3/2
    mesh = fs.gen_uniform_1d(2)
    rows = [fs.TableRow.from_report(
        fs.stability_report(mesh, fs.identity(1), mass_kind=k, mesh_id="n2"))
        for k in ("full", "lumped")]
    assert lumped_to_full_tau_ratios(rows) == {
        "n2": pytest.approx(1.5, rel=1e-14)}


def test_compare_lumping_over_family_run():
    spec = fs.ExperimentSpec(name="per1d", sizes=(8, 16))
    ratios = lumped_to_full_tau_ratios(fs.run_experiment(spec))
    assert len(ratios) == 4
    for ratio in ratios.values():
        assert 1.0 - 1e-12 <= ratio <= 3.0 + 1e-12     # 1D mass sandwich


def test_missing_mesh_file_warns_and_skips(tmp_path):
    spec = fs.ExperimentSpec(name="groundwater_like", lumping="full",
                             mesh_files=(str(tmp_path / "absent.mesh"),))
    with pytest.warns(UserWarning, match="skipping missing mesh"):
        rows = fs.run_experiment(spec)
    assert len(rows) == 2
    assert rows[1].note == "missing mesh file"
    assert math.isnan(rows[1].lambda_max)
    assert rows[0].mesh_id == "groundwater-25x25"
    assert rows[0].lambda_max == pytest.approx(1.5889576496844386, rel=1e-9)


def test_groundwater_external_mesh_file(tmp_path):
    small, _ = fs.gen_groundwater_like()
    path = tmp_path / "aquifer.mesh"
    fs.save_mesh(small, str(path))
    spec = fs.ExperimentSpec(name="groundwater_like", lumping="full",
                             mesh_files=(str(path),))
    rows = fs.run_experiment(spec)
    assert [r.mesh_id for r in rows] == \
        ["groundwater-25x25", "groundwater-file-aquifer.mesh"]
    # identical mesh and coefficient: identical eigenvalue
    assert rows[1].lambda_max == pytest.approx(rows[0].lambda_max, rel=1e-12)


def test_groundwater_rejects_foreign_region_tags(tmp_path):
    mesh, _ = fs.gen_groundwater_like()
    tags = mesh.region_tags.copy()
    tags[0] = 2
    bad = fs.SimplicialMesh(mesh.nodes, mesh.elements, mesh.node_markers,
                            region_tags=tags)
    path = tmp_path / "bad.mesh"
    fs.save_mesh(bad, str(path))
    spec = fs.ExperimentSpec(name="groundwater_like", lumping="full",
                             mesh_files=(str(path),))
    with pytest.raises(ValueError, match="region tags"):
        fs.run_experiment(spec)


# ---------------------------------------------------------------------------
# CSV / JSON serialization
# ---------------------------------------------------------------------------

def test_rows_csv_handles_skip_rows(tmp_path):
    mesh = fs.gen_uniform_1d(8)
    good = fs.TableRow.from_report(
        fs.stability_report(mesh, fs.identity(1), mesh_id="ok"))
    skip = fs.TableRow(mesh_id="gone", n_elements=0, mass_kind="-",
                       lambda_max=float("nan"),
                       tau_max_over_s2=float("nan"), note="missing mesh file")
    path = tmp_path / "rows.csv"
    fs.write_rows_csv(str(path), [good, skip])
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    last = lines[2].split(",")
    assert last[0] == "gone"
    assert last[-1] == "missing mesh file"
    assert last[5] == "" and last[6] == ""        # no method values


def test_rows_csv_quotes_a_comma_in_a_field(tmp_path):
    """A mesh id holding a comma (an external mesh file named a,b.mesh)
    stays one field under the header."""
    mesh = fs.gen_uniform_1d(8)
    row = fs.TableRow.from_report(
        fs.stability_report(mesh, fs.identity(1), mesh_id="a,b.mesh"))
    path = tmp_path / "rows.csv"
    fs.write_rows_csv(str(path), [row])
    with open(path, newline="") as fh:
        header, got = csv.reader(fh)
    assert len(got) == len(header)
    assert got[0] == "a,b.mesh"
    assert float(got[3]) == row.lambda_max


def test_summary_json_round_trip(tmp_path):
    spec = fs.ExperimentSpec(name="per1d", sizes=(8,), lumping="full")
    rows = fs.run_experiment(spec)
    path = tmp_path / "summary.json"
    fs.write_summary_json(str(path), {"per1d": rows})
    data = json.loads(path.read_text())
    assert set(data) == {"per1d"}
    assert data["per1d"][0]["mesh_id"] == "per1d-uniform-N8"
    assert data["per1d"][0]["lambda_max"] == rows[0].lambda_max
    fs.write_summary_json(str(tmp_path / "b.json"), {"per1d": rows})
    assert path.read_bytes() == (tmp_path / "b.json").read_bytes()


# ---------------------------------------------------------------------------
# experiment files
# ---------------------------------------------------------------------------

GOOD_INI = """\
[per1d]
sizes = 8 16
eps = 0.125
lumping = both
output = per1d.csv

[zd2d]
lumping = full
"""


def test_parse_experiment_file(tmp_path):
    path = tmp_path / "bench.ini"
    path.write_text(GOOD_INI)
    specs = fs.parse_experiment_file(str(path))
    assert [s.name for s in specs] == ["per1d", "zd2d"]
    p, z = specs
    assert p.sizes == (8, 16)
    assert p.eps == 0.125
    assert p.output == "per1d.csv"
    assert z.lumping == "full"


def test_parse_experiment_file_errors(tmp_path):
    bad_key = tmp_path / "k.ini"
    bad_key.write_text("[per1d]\ncolor = red\n")
    with pytest.raises(ValueError, match="unknown key"):
        fs.parse_experiment_file(str(bad_key))
    bad_family = tmp_path / "f.ini"
    bad_family.write_text("[heat3d]\nsizes = 8\n")
    with pytest.raises(ValueError, match="unknown experiment family"):
        fs.parse_experiment_file(str(bad_family))
    empty = tmp_path / "e.ini"
    empty.write_text("\n")
    with pytest.raises(ValueError, match="no experiment sections"):
        fs.parse_experiment_file(str(empty))
    with pytest.raises(FileNotFoundError):
        fs.parse_experiment_file(str(tmp_path / "nope.ini"))


def test_run_experiment_file_end_to_end(tmp_path):
    ini = tmp_path / "bench.ini"
    ini.write_text("[per1d]\nsizes = 8\nlumping = full\noutput = out.csv\n")
    out_dir = tmp_path / "results"
    results = fs.run_experiment_file(str(ini), str(out_dir))
    assert set(results) == {"per1d"}
    assert len(results["per1d"]) == 2
    assert (out_dir / "out.csv").exists()
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["per1d"][0]["mass_kind"] == "full"

"""festab: stable explicit time steps for P1 finite-element diffusion.

The package computes, for piecewise-linear finite elements on simplicial
meshes with anisotropic diffusion, the exact largest stable explicit time
step, several computable bounds for it (diagonal-ratio bracket, geometric,
metric-uniform, element-patch estimates), mesh-quality measures in a metric,
and a Chebyshev-stabilized explicit integrator with decay monitoring.
"""

from .mesh import (INTERIOR, DIRICHLET, NEUMANN, SimplicialMesh, AffineMap,
                   affine_map, PatchIndex, build_patches, save_mesh,
                   load_mesh, gen_uniform_1d, gen_equidistributed_1d,
                   gen_structured_2d, gen_structured_3d, reference_simplex,
                   reference_edge_matrix, reference_diameter)
from .fields import (TensorField, Constant, Analytic,
                     PiecewiseConstantPerElement, InverseOf, identity,
                     per1d, nonper1d, aniso2d, load_piecewise,
                     parse_field_spec, adapted_weight, check_spd)
from .quality import (simplex_rule, conical_product_rule, element_averages,
                      average_tensor, ElementQuality, MeshQualitySummary,
                      mesh_quality_summary, element_quality,
                      inscribed_diameter_metric, is_nonobtuse_wrt,
                      export_quality_csv)
from .assembly import (DofMap, ProblemContext, SparseSymMatrix, assemble_mass,
                       assemble_lumped, row_sum_lumping, assemble_stiffness,
                       export_matrix_market, diag_of)
from .bounds import (c_grad, c_sharp, c_star, EigEstimate, lambda_max_exact,
                     max_eigvec_exact, lambda_max_lanczos, lambda_max_power,
                     DiagRatioBound, diag_ratio_bound, TauValues, tau_values,
                     GeometricBound, geometric_bound, MUniformBound,
                     muniform_bound, ZhuDuBound, zhu_du_bound, ShewchukBound,
                     shewchuk_bound, StabilityReport, stability_report,
                     write_report_csv, MASS_KINDS)
from .chebyshev import (ChebyshevScheme, stability_poly_eval, step, norms,
                        NormTrace, integrate)
from .experiments import (FAMILIES, ExperimentSpec, TableRow, run_experiment,
                          compare_lumping, LumpingSummary,
                          parse_experiment_file, run_experiment_file,
                          write_rows_csv, write_summary_json,
                          gen_groundwater_like, gen_metric_aligned)

__version__ = "0.1.0"

__all__ = [
    "INTERIOR", "DIRICHLET", "NEUMANN", "SimplicialMesh", "AffineMap",
    "affine_map", "PatchIndex", "build_patches", "save_mesh", "load_mesh",
    "gen_uniform_1d", "gen_equidistributed_1d", "gen_structured_2d",
    "gen_structured_3d", "reference_simplex", "reference_edge_matrix",
    "reference_diameter",
    "TensorField", "Constant", "Analytic", "PiecewiseConstantPerElement",
    "InverseOf", "identity", "per1d", "nonper1d", "aniso2d",
    "load_piecewise", "parse_field_spec", "adapted_weight", "check_spd",
    "simplex_rule", "conical_product_rule", "element_averages",
    "average_tensor", "ElementQuality", "MeshQualitySummary",
    "mesh_quality_summary", "element_quality", "inscribed_diameter_metric",
    "is_nonobtuse_wrt", "export_quality_csv",
    "DofMap", "ProblemContext", "SparseSymMatrix", "assemble_mass",
    "assemble_lumped", "row_sum_lumping", "assemble_stiffness",
    "export_matrix_market", "diag_of",
    "c_grad", "c_sharp", "c_star", "EigEstimate", "lambda_max_exact",
    "max_eigvec_exact", "lambda_max_lanczos", "lambda_max_power",
    "DiagRatioBound", "diag_ratio_bound", "TauValues", "tau_values",
    "GeometricBound", "geometric_bound", "MUniformBound", "muniform_bound",
    "ZhuDuBound", "zhu_du_bound", "ShewchukBound", "shewchuk_bound",
    "StabilityReport", "stability_report", "write_report_csv", "MASS_KINDS",
    "ChebyshevScheme", "stability_poly_eval", "step", "norms", "NormTrace",
    "integrate",
    "FAMILIES", "ExperimentSpec", "TableRow", "run_experiment",
    "compare_lumping", "LumpingSummary", "parse_experiment_file",
    "run_experiment_file", "write_rows_csv", "write_summary_json",
    "gen_groundwater_like", "gen_metric_aligned",
]

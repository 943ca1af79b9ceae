"""Numerical laboratory for the geometry of complex hyperbolic space
modeled on a solvable Lie group, and for its ruled minimal submanifolds,
constant-principal-curvature hypersurfaces and focal-set analysis."""

import importlib

from .construction import (
    DimensionTooLarge,
    OddDimensionNonReal,
    SubmanifoldSpec,
    build_submanifold,
    constant_kahler_angle_subspace,
    kahler_angle,
    maximal_holomorphic_subspace,
    orbit_second_fundamental_form,
    rigidity_form_check,
)
from .jacobi import (
    OutOfRangeEigenvalue,
    f_derivative,
    f_function,
    focal_collapse_matrix_closed,
    focal_collapse_matrix_numeric,
    focal_determinant_matrix,
    focal_determinant_matrix_derivative,
    focal_radius,
    g_derivative,
    g_function,
    jacobi_closed,
    jacobi_ode_oracle,
    sech,
    special_radius,
)
from .model import (
    ModelParams,
    SolvableModel,
    ambient_curvature,
    j_action,
    standard_complex_structure,
)
from .spectral import (
    HypersurfaceGerm,
    NoRealSolution,
    catalog_germ,
    catalog_quadratic,
    classify,
    constraint_residuals,
    eigen_structure_from_lambda3,
    frame_identity_residuals,
    hopf_frame_extract,
    horosphere_germ,
    nonexistence_scan,
    principal_decomposition,
    totally_real_check,
)

__version__ = "0.1.0"

# The finite-difference lab and the tube germs load on first access
# (PEP 562): only ``sweep`` and ``residuals`` run them, so the other
# commands start without compiling them.  Name -> owning module; a
# module's own name maps to itself.
_LAZY = {
    "numlab": "numlab",
    "convergence_order": "numlab",
    "frame_connection_residuals": "numlab",
    "gauss_codazzi_residuals": "numlab",
    "graded_connection_residuals": "numlab",
    "graded_curvature_residuals": "numlab",
    "horosphere_chart": "numlab",
    "real_eigenspace_residual": "numlab",
    "tube_chart": "numlab",
    "unit_pair_gauss_residual": "numlab",
    "tubes": "tubes",
    "focal_rank": "tubes",
    "focal_shape_check": "tubes",
    "tube_shape_operator": "tubes",
    "tube_spectrum_closed": "tubes",
}


def __getattr__(name: str):
    owner = _LAZY.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{owner}", __name__)
    return module if name == owner else getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "DimensionTooLarge",
    "HypersurfaceGerm",
    "ModelParams",
    "NoRealSolution",
    "OddDimensionNonReal",
    "OutOfRangeEigenvalue",
    "SolvableModel",
    "SubmanifoldSpec",
    "ambient_curvature",
    "build_submanifold",
    "catalog_germ",
    "catalog_quadratic",
    "classify",
    "constant_kahler_angle_subspace",
    "constraint_residuals",
    "convergence_order",
    "eigen_structure_from_lambda3",
    "f_derivative",
    "f_function",
    "focal_collapse_matrix_closed",
    "focal_collapse_matrix_numeric",
    "focal_determinant_matrix",
    "focal_determinant_matrix_derivative",
    "focal_radius",
    "focal_rank",
    "focal_shape_check",
    "frame_connection_residuals",
    "frame_identity_residuals",
    "g_derivative",
    "g_function",
    "gauss_codazzi_residuals",
    "graded_connection_residuals",
    "graded_curvature_residuals",
    "hopf_frame_extract",
    "horosphere_chart",
    "horosphere_germ",
    "j_action",
    "jacobi_closed",
    "jacobi_ode_oracle",
    "kahler_angle",
    "maximal_holomorphic_subspace",
    "nonexistence_scan",
    "orbit_second_fundamental_form",
    "principal_decomposition",
    "real_eigenspace_residual",
    "rigidity_form_check",
    "sech",
    "special_radius",
    "standard_complex_structure",
    "tube_chart",
    "tube_shape_operator",
    "tube_spectrum_closed",
    "totally_real_check",
    "unit_pair_gauss_residual",
]

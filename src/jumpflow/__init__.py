"""Canonical (Marcus-type) SDEs driven by jump semimartingales.

Simulation of jump diffusions in the canonical formulation, verification
of the chain rule for composed jump-diffusion flows via refinement
ladders, and factorization of solution flows into horizontal and vertical
diffeomorphism components with degeneracy-time detection.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, DegeneracyError, IntegrationFailure,
                     MeshInversionError)
from .semimartingale import (JumpLaw, JumpPath, PathParams,
                             deterministic_path, prefix,
                             quadratic_variation_c, refine,
                             sample_levy_jump_diffusion)
from .odeflow import VectorFieldSet, curve_average, flow, flow_with_jacobian
from .marcus import (EnsembleSummary, MarcusConfig, Trajectory,
                     solve_ensemble, solve_point, solve_with_jacobian)
from .stratjump import (CompositionReport, IntegralReport, marcus_integral,
                        pushforward_integral, verify_ivk)
from .geometry import (ComplementaryPair, DiffeoProbe, Distribution,
                       GeometryConfig, adjoint_distribution, split_field,
                       split_frame, subspace_projector, subspaces_equal)
from .mesh import MeshChart, interp_mesh, invert_mesh_map, mesh_jacobian
from .decompose import (DecompositionRecord, LinearSystem,
                        decompose_linear_sde, decompose_pointwise,
                        validity_monitor, verify_composition)
from .reference import OracleResult, matrix_exp, radial_decomposition, \
    rotation_decomposition
from .convergence import fit_order

__all__ = [
    "__version__",
    "ConfigError", "DegeneracyError", "IntegrationFailure",
    "MeshInversionError",
    "JumpLaw", "JumpPath", "PathParams", "deterministic_path", "prefix",
    "quadratic_variation_c", "refine", "sample_levy_jump_diffusion",
    "VectorFieldSet", "curve_average", "flow",
    "flow_with_jacobian",
    "EnsembleSummary", "MarcusConfig", "Trajectory", "solve_ensemble",
    "solve_point", "solve_with_jacobian",
    "CompositionReport", "IntegralReport", "marcus_integral",
    "pushforward_integral", "verify_ivk",
    "ComplementaryPair", "DiffeoProbe", "Distribution", "GeometryConfig",
    "adjoint_distribution", "split_field", "split_frame",
    "subspace_projector", "subspaces_equal",
    "MeshChart", "interp_mesh", "invert_mesh_map", "mesh_jacobian",
    "DecompositionRecord", "LinearSystem", "decompose_linear_sde",
    "decompose_pointwise", "validity_monitor", "verify_composition",
    "OracleResult", "matrix_exp", "radial_decomposition",
    "rotation_decomposition",
    "fit_order",
]

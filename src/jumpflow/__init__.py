"""Canonical (Marcus-type) SDEs driven by jump semimartingales.

Simulation of jump diffusions in the canonical formulation, verification
of the chain rule for composed jump-diffusion flows via refinement
ladders, and factorization of solution flows into horizontal and vertical
diffeomorphism components with degeneracy-time detection.

The public names load lazily (PEP 562): ``import jumpflow`` loads no
submodule and no numpy, so ``jumpflow.cli`` can set the BLAS thread count
before numpy loads (see its docstring).
"""

from importlib import import_module

__version__ = "0.1.0"

# the public names, by the submodule that defines them
_EXPORTS = {name: module for module, names in {
    "errors": ["ConfigError", "DegeneracyError", "IntegrationFailure",
               "MeshInversionError"],
    "semimartingale": ["JumpLaw", "JumpPath", "PathParams",
                       "deterministic_path", "prefix", "quadratic_variation_c",
                       "refine", "sample_levy_jump_diffusion"],
    "odeflow": ["VectorFieldSet", "curve_average", "flow",
                "flow_with_jacobian"],
    "marcus": ["EnsembleSummary", "MarcusConfig", "Trajectory",
               "solve_ensemble", "solve_point", "solve_with_jacobian"],
    "stratjump": ["CompositionReport", "IntegralReport", "marcus_integral",
                  "pushforward_integral", "verify_ivk"],
    "geometry": ["ComplementaryPair", "DiffeoProbe", "Distribution",
                 "GeometryConfig", "adjoint_distribution", "split_field",
                 "split_frame", "subspace_projector"],
    "mesh": ["MeshChart", "interp_mesh", "invert_mesh_map", "mesh_jacobian"],
    "decompose": ["DecompositionRecord", "decompose_linear_sde",
                  "decompose_pointwise", "validity_monitor"],
    "reference": ["matrix_exp", "radial_decomposition",
                  "rotation_decomposition"],
    "convergence": ["fit_order"],
}.items() for name in names}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(import_module("." + _EXPORTS[name], __name__), name)
    globals()[name] = value     # later lookups find it without this call
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

"""Transport coefficients of an underdamped Brownian particle in a tilted
periodic (washboard) potential.

The package computes the effective drift U and diffusion coefficient D by a
Hermite-Fourier spectral method, expands both as power series in the tilt from
equilibrium-only solves (quantifying the failure of the fluctuation-
dissipation shortcut away from zero tilt), and cross-validates against
overdamped-limit quadrature oracles and Euler-Maruyama ensembles.
"""

from .model import (ModelParams, PeriodicPotential, ReferenceScales,
                    effective_potential, reference_scales)
from .basis import (FourierVector, HermiteFourierField, TruncationSpec,
                    apply_lower, apply_momentum, apply_raise,
                    hermite_eval, weighted_inner_product)
from .transport import (HierarchyBlocks, HierarchyFactors, StationaryDensity,
                        TransportResult, compute_diffusion, factor_hierarchy,
                        hierarchy_blocks, solve_cell_problem, solve_stationary_fp,
                        solve_transport)
from .expansion import (EquilibriumChain, ExpansionTable, build_chain,
                        diffusion_coefficients, partial_sum_D, partial_sum_U,
                        series_radius_estimate, solve_equilibrium_poisson,
                        velocity_coefficient)
from .overdamped import (OverdampedResult, check_overdamped_asymptotics,
                         lifson_jackson_diffusion, solve_overdamped,
                         stratonovich_drift)
from .montecarlo import McConfig, McEstimate, estimate_with_error_target, simulate

__version__ = "0.1.0"

__all__ = [
    "ModelParams", "PeriodicPotential", "ReferenceScales",
    "effective_potential", "reference_scales",
    "FourierVector", "HermiteFourierField", "TruncationSpec",
    "apply_lower", "apply_momentum", "apply_raise",
    "hermite_eval", "weighted_inner_product",
    "HierarchyBlocks", "HierarchyFactors", "StationaryDensity", "TransportResult",
    "compute_diffusion", "factor_hierarchy", "hierarchy_blocks",
    "solve_cell_problem", "solve_stationary_fp", "solve_transport",
    "EquilibriumChain", "ExpansionTable", "build_chain",
    "diffusion_coefficients", "partial_sum_D", "partial_sum_U",
    "series_radius_estimate", "solve_equilibrium_poisson", "velocity_coefficient",
    "OverdampedResult", "check_overdamped_asymptotics",
    "lifson_jackson_diffusion", "solve_overdamped", "stratonovich_drift",
    "McConfig", "McEstimate", "estimate_with_error_target", "simulate",
]

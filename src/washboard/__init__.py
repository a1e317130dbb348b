"""Transport coefficients of an underdamped Brownian particle in a tilted
periodic (washboard) potential.

The package computes the effective drift U and diffusion coefficient D by a
Hermite-Fourier spectral method, expands both as power series in the tilt from
equilibrium-only solves (quantifying the failure of the fluctuation-
dissipation shortcut away from zero tilt), and cross-validates against
overdamped-limit quadrature oracles and Euler-Maruyama ensembles.
"""

from .model import ModelParams, PeriodicPotential, ReferenceScales, reference_scales
from .basis import (HermiteFourierField, TruncationSpec, apply_lower, apply_momentum,
                    apply_raise)
from .transport import (HierarchyBlocks, HierarchyFactors, StationaryDensity,
                        TransportResult, compute_diffusion, factor_hierarchy,
                        hierarchy_blocks, solve_cell_problem, solve_stationary_fp,
                        solve_transport)
from .expansion import (EquilibriumChain, ExpansionTable, build_chain,
                        diffusion_coefficients, partial_sum_D, partial_sum_U,
                        series_radius_estimate)
from .overdamped import (OverdampedResult, lifson_jackson_diffusion, solve_overdamped,
                         stratonovich_drift)
from .montecarlo import McConfig, McEstimate, simulate

__version__ = "0.1.0"

__all__ = [
    "ModelParams", "PeriodicPotential", "ReferenceScales", "reference_scales",
    "HermiteFourierField", "TruncationSpec",
    "apply_lower", "apply_momentum", "apply_raise",
    "HierarchyBlocks", "HierarchyFactors", "StationaryDensity", "TransportResult",
    "compute_diffusion", "factor_hierarchy", "hierarchy_blocks",
    "solve_cell_problem", "solve_stationary_fp", "solve_transport",
    "EquilibriumChain", "ExpansionTable", "build_chain",
    "diffusion_coefficients", "partial_sum_D", "partial_sum_U",
    "series_radius_estimate",
    "OverdampedResult", "lifson_jackson_diffusion", "solve_overdamped",
    "stratonovich_drift",
    "McConfig", "McEstimate", "simulate",
]

"""Lattice random walks for distributed-order fractional diffusion.

Builds heavy-tailed lattice jump kernels from a weight measure over jump
exponents, evolves or samples the resulting walks, evaluates the limiting
diffusion analytically, and quantifies the convergence of one to the other.
"""

from .measure import OrderMeasure, discretize_density
from .kernel import (
    LatticeKernel,
    StabilityError,
    StabilityReport,
    build_kernel,
    lattice_zeta,
    norming_constant,
    stability_sigma,
)
from .evolution import (
    LatticeDistribution,
    characteristic_function,
    evolve,
)
from .montecarlo import (
    JumpSampler,
    WalkEnsemble,
    build_sampler,
    histogram,
    run_walks,
)
from .analytic import (
    DiffusionSymbol,
    RadialDensity,
    green_density,
    symbol_oracle,
)
from .diagnostics import (
    ConvergenceReport,
    ConvergenceRow,
    cf_sup_error,
    default_xi_grid,
    ks_distance,
    refinement_study,
    total_variation,
)
from .quadrature import QuadratureError

__version__ = "0.2.0"

__all__ = [
    "OrderMeasure",
    "discretize_density",
    "LatticeKernel",
    "StabilityError",
    "StabilityReport",
    "build_kernel",
    "lattice_zeta",
    "norming_constant",
    "stability_sigma",
    "LatticeDistribution",
    "characteristic_function",
    "evolve",
    "JumpSampler",
    "WalkEnsemble",
    "build_sampler",
    "histogram",
    "run_walks",
    "DiffusionSymbol",
    "RadialDensity",
    "green_density",
    "symbol_oracle",
    "QuadratureError",
    "ConvergenceReport",
    "ConvergenceRow",
    "cf_sup_error",
    "default_xi_grid",
    "ks_distance",
    "refinement_study",
    "total_variation",
    "__version__",
]

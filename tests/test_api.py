"""The public names of the package, pinned: a name is added or removed only
by editing this list, and README.md ("Public API") says why each one stays."""

import fracwalk

PUBLIC = [
    "ConvergenceReport",
    "ConvergenceRow",
    "DiffusionSymbol",
    "JumpSampler",
    "LatticeDistribution",
    "LatticeKernel",
    "OrderMeasure",
    "QuadratureError",
    "RadialDensity",
    "StabilityError",
    "StabilityReport",
    "WalkEnsemble",
    "__version__",
    "build_kernel",
    "build_sampler",
    "cf_sup_error",
    "characteristic_function",
    "default_xi_grid",
    "discretize_density",
    "evolve",
    "green_density",
    "histogram",
    "ks_distance",
    "lattice_zeta",
    "norming_constant",
    "refinement_study",
    "run_walks",
    "stability_sigma",
    "symbol_oracle",
    "total_variation",
]


def test_public_names_are_pinned():
    assert sorted(fracwalk.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(fracwalk, name)
    for gone in ("step", "kernel_distribution", "QuadParams", "convolve"):
        assert not hasattr(fracwalk, gone)

"""The public names of the package and of its lattice and measure types,
pinned: a name is added or removed only by editing these lists, and README.md
("Public API") says why each one stays."""

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


# public attributes of an instance: dataclass fields, properties and methods
ATTRIBUTES = {
    "LatticeKernel": [
        "cf", "dim", "h", "orthant", "p0", "shell_prob", "shell_prob_raw", "shells", "sigma",
        "site_probabilities", "tail_mass", "tail_warning", "tau", "to_json_dict", "trunc_radius",
    ],
    "LatticeDistribution": [
        "delta", "dim", "h", "mass", "mass_deficit", "nonzero_sites", "support_radius", "tau",
        "time_index", "to_csv", "to_json", "to_json_dict", "total_mass", "wrap_bound",
    ],
    "OrderMeasure": ["atoms", "density_nodes", "describe", "single", "terms"],
}
# second readings of a law and duplicate measure constructors, deleted
GONE = {
    "LatticeKernel": ("prob", "mass_cube"),
    "LatticeDistribution": ("value",),
    "OrderMeasure": ("from_atoms", "with_density"),
}


def test_public_attributes_are_pinned():
    measure = fracwalk.OrderMeasure.single(1.0)
    instances = [
        fracwalk.build_kernel(measure, 1, 0.5, 0.01, 2),
        fracwalk.LatticeDistribution.delta(1, 0.5),
        measure,
    ]
    for obj in instances:
        name = type(obj).__name__
        assert sorted(n for n in dir(obj) if not n.startswith("_")) == ATTRIBUTES[name]
        for gone in GONE[name]:
            assert not hasattr(obj, gone)
    assert not hasattr(fracwalk.kernel, "lattice_vector")

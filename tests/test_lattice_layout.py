"""The |k|^2 layout of a kernel on the lattice: shell enumeration against the
sort-the-whole-cube oracle, its memory, the shell-table lookup behind ``prob``,
``mass_cube`` and ``cf``, the orthant that every even law is passed around on,
and the integer check on lattice vectors."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import yaml

from fracwalk import (
    LatticeDistribution,
    LatticeKernel,
    OrderMeasure,
    build_kernel,
    build_sampler,
    characteristic_function,
    evolve,
    run_walks,
    stability_sigma,
)
from fracwalk.kernel import enumerate_shells, mirror
from oracles import draw_plan, enumerate_shells_bruteforce, mass_cube_by_scatter

SHELL_FIELDS = ("norm_sq", "multiplicity", "sites", "site_shell")

# dims 1-3 at small K, then the kernels the benchmark workloads build
SHELL_CASES = [(d, K) for d in (1, 2, 3) for K in (1, 2, 5, 17)] + [
    (1, 4096),
    (2, 16),
    (2, 32),
    (2, 128),
]


@pytest.mark.parametrize("dim, K", SHELL_CASES)
def test_shells_equal_the_bruteforce_enumeration(dim, K):
    got, ref = enumerate_shells(dim, K), enumerate_shells_bruteforce(dim, K)
    assert (got.dim, got.trunc_radius) == (dim, K)
    for field in SHELL_FIELDS:
        a, b = getattr(got, field), getattr(ref, field)
        assert a.dtype == b.dtype, field
        assert a.shape == b.shape, field
        assert np.array_equal(a, b), field
        assert not a.flags.writeable, field


def test_shell_enumeration_peak_memory_per_cube_point():
    # the meshgrid + lexsort enumeration peaked at 73 B per point of the
    # (2K+1)^3 cube here; the |k|^2 grid takes about 30
    dim, K = 3, 60
    enumerate_shells.cache_clear()
    tracemalloc.start()
    try:
        enumerate_shells(dim, K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        enumerate_shells.cache_clear()
    assert peak < 48 * (2 * K + 1) ** dim


def _kernel(dim, K, theta=0.5, h=0.5):
    measure = OrderMeasure.single(1.2)
    tau = theta * stability_sigma(measure, dim, h, 1.0).tau_max
    return build_kernel(measure, dim, h, tau, K)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_prob_reads_the_shell_table_at_its_edges(dim):
    K = 5
    k = _kernel(dim, K)
    assert k.prob([0] * dim) == k.p0
    for site, p in zip(k.shells.sites, k.site_probabilities):
        assert k.prob(site) == p
    assert k.prob([1] + [0] * (dim - 1)) == k.shell_prob[0]
    assert k.prob([K] + [0] * (dim - 1)) == k.shell_prob[-1]
    # |k|^2 > K^2: past the ball (inside the cube in 2D and 3D) and past the cube
    assert k.prob([K + 1] + [0] * (dim - 1)) == 0.0
    assert k.prob([K] * dim) == (k.shell_prob[-1] if dim == 1 else 0.0)
    assert k.prob([10**6] * dim) == 0.0
    # |k|^2 past the int64 range used to wrap round to 0 and read p0
    assert k.prob([2**32] * dim) == 0.0
    assert k.prob([-(2**61)] + [0] * (dim - 1)) == 0.0


@pytest.mark.parametrize("dim, K", [(1, 64), (1, 4096), (2, 16), (2, 128), (3, 16)])
def test_mass_cube_equals_the_site_scatter(dim, K):
    measure = OrderMeasure(atoms=((0.7, 1.0), (1.4, 0.5)))
    tau = 0.5 * stability_sigma(measure, dim, 0.2, 1.0).tau_max
    k = build_kernel(measure, dim, 0.2, tau, K)
    assert np.array_equal(k.mass_cube(), mass_cube_by_scatter(k))


@pytest.mark.parametrize("dim, K", [(1, 64), (2, 16), (3, 5)])
def test_mass_cube_mirrors_the_orthant(dim, K):
    k = _kernel(dim, K)
    cube, orthant = k.mass_cube(), k.orthant()
    assert orthant.shape == (K + 1,) * dim and orthant[(0,) * dim] == k.p0
    assert np.array_equal(cube[(slice(K, None),) * dim], orthant)
    assert np.array_equal(mirror(orthant), cube)
    assert all(np.array_equal(cube, np.flip(cube, axis)) for axis in range(dim))


def test_no_library_path_builds_the_kernel_cube(monkeypatch):
    # every even law is passed around on its orthant: the kernel CF, evolve
    # from a delta and from an evolved law, and the composite draw tables
    def refuse(self):
        raise AssertionError("the kernel's centred cube was built")

    k, n = _kernel(2, 8), 47
    assert max(draw_plan(k, n)) > 1
    monkeypatch.setattr(LatticeKernel, "mass_cube", refuse)
    xi = np.ones((3, 2))
    once = evolve(LatticeDistribution.delta(2, k.h), k, n)
    twice = evolve(once, k, 3)
    np.testing.assert_allclose(characteristic_function(twice, xi), k.cf(xi) ** (n + 3),
                               rtol=0, atol=1e-12)
    assert run_walks(build_sampler(k), n, 100, seed=1).lattice_positions.shape == (100, 2)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_zero_tau_kernel_looks_up_zeros_and_a_unit_cf(dim):
    k = build_kernel(OrderMeasure.single(1.2), dim, 0.5, 0.0, 4)
    assert k.p0 == 1.0 and k.prob([0] * dim) == 1.0
    assert all(k.prob(site) == 0.0 for site in k.shells.sites)
    assert k.prob([9] * dim) == 0.0
    xi = np.linspace(-7.0, 7.0, 15)
    xi = xi if dim == 1 else np.repeat(xi[:, None], dim, axis=1)
    assert np.all(k.cf(xi) == 1.0)


NOT_LATTICE_1D = [[0.9], [1.7], [-0.5], [np.nan], [np.inf], [1e300], [2**70], ["1"], [1 + 0j]]


@pytest.mark.parametrize("vector", NOT_LATTICE_1D)
def test_prob_and_value_reject_non_integral_vectors(vector):
    # a cast to int64 used to read prob([0.9]) as p0 and prob([1.7]) as prob([1])
    k = _kernel(1, 5)
    law = LatticeDistribution(dim=1, h=0.5, mass=k.mass_cube())
    with pytest.raises(ValueError, match="not a lattice vector"):
        k.prob(vector)
    with pytest.raises(ValueError, match="not a lattice vector"):
        law.value(vector)


def test_prob_and_value_check_dimension_and_accept_integral_floats():
    k = _kernel(2, 5)
    law = LatticeDistribution(dim=2, h=0.5, mass=k.mass_cube())
    for bad in ([1], [1, 0, 0], [1, 0.5]):
        with pytest.raises(ValueError, match="not a lattice vector"):
            k.prob(bad)
        with pytest.raises(ValueError, match="not a lattice vector"):
            law.value(bad)
    assert k.prob([3.0, -4.0]) == k.prob([3, -4]) == k.prob(np.array([4, 3], dtype=np.int32))
    assert law.value([3.0, -4.0]) == law.value([3, -4]) == k.prob([3, -4])
    assert law.value([6, 0]) == 0.0


def _loads_numpy_ma(code, *args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", code + "\nprint('numpy.ma' in sys.modules)", *args],
        env=env, capture_output=True, text=True, check=True,
    )
    return out.stdout.strip().splitlines()[-1]


def test_kernel_and_cf_load_no_numpy_ma():
    # np.unique imports numpy.ma (14 ms) on first use unless given a return flag
    code = (
        "import sys, numpy as np\n"
        "from fracwalk import OrderMeasure, build_kernel, stability_sigma\n"
        "m = OrderMeasure.single(1.2)\n"
        "k = build_kernel(m, 3, 0.5, 0.5 * stability_sigma(m, 3, 0.5, 1.0).tau_max, 12)\n"
        "k.cf(np.ones((4, 3)))"
    )
    assert _loads_numpy_ma(code) == "False"


def test_kernel_command_loads_no_numpy_ma(tmp_path):
    doc = {"measure": {"atoms": [[1.2, 1.0]]}, "dim": 3, "t": 1.0, "h": 0.5, "tau": 0.001}
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    code = (
        "import sys\n"
        "from fracwalk.cli import main\n"
        "main(sys.argv[1:], standalone_mode=False)"
    )
    args = ["kernel", "--config", str(cfg), "--out", str(tmp_path)]
    assert _loads_numpy_ma(code, *args) == "False"
    assert (tmp_path / "kernel.json").exists()

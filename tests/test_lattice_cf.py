"""The one per-axis lattice phase sum behind every lattice CF."""

import math
import tracemalloc

import numpy as np
import pytest

from fracwalk import (
    DiffusionSymbol,
    LatticeDistribution,
    OrderMeasure,
    build_kernel,
    characteristic_function,
    evolve,
    stability_sigma,
)
from fracwalk import kernel as kernel_module
from fracwalk.diagnostics import cf_sup_error, default_xi_grid
from fracwalk.kernel import _CF_BLOCK_ENTRIES, fold_signs, frequency_rows, phase_sum
from oracles import dense_kernel_cf, even_in_every_coordinate, kernel_distribution

TWO_ATOMS = OrderMeasure.from_atoms([(0.7, 1.0), (1.4, 0.5)])


def _kernel(dim, h, K, measure=TWO_ATOMS):
    tau = 0.5 * stability_sigma(measure, dim, h, 0.0).tau_max
    return build_kernel(measure, dim, h, tau, K)


# A 16-float budget gives blocks of at most 8 frequencies, and several blocks
# of sites along the first axis of each folded kernel below (sides 4001, 61, 15).
SMALL_BUDGET = 16


@pytest.mark.parametrize("dim, K", [(1, 4000), (2, 60), (3, 14)])
def test_kernel_cf_matches_dense_formula(monkeypatch, dim, K):
    k = _kernel(dim, 0.1, K)
    xi = default_xi_grid(dim, 10.0, 41)
    assert len(k.shells.sites) * len(xi) > _CF_BLOCK_ENTRIES  # beyond one dense table
    dense = dense_kernel_cf(k, xi)
    # the default budget, then one that forces frequency and site blocks
    np.testing.assert_allclose(k.cf(xi), dense, rtol=0, atol=1e-14)
    monkeypatch.setattr(kernel_module, "_CF_BLOCK_ENTRIES", SMALL_BUDGET)
    np.testing.assert_allclose(k.cf(xi), dense, rtol=0, atol=1e-14)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_kernel_cf_is_exactly_one_at_zero(dim):
    k = _kernel(dim, 0.2, 8)
    assert k.cf(np.zeros((3, dim))).tolist() == [1.0, 1.0, 1.0]


def test_one_dimensional_frequencies_may_be_flat():
    k = _kernel(1, 0.1, 64)
    xi = np.linspace(0.0, 5.0, 7)
    assert frequency_rows(xi, 1).shape == (7, 1)
    assert np.array_equal(k.cf(xi), k.cf(xi[:, None]))


def test_kernel_cf_is_the_cf_of_its_distribution():
    k = _kernel(2, 0.2, 12)
    xi = default_xi_grid(2, 5.0, 11)
    law_cf = characteristic_function(kernel_distribution(k), xi)
    np.testing.assert_allclose(law_cf, k.cf(xi), rtol=0, atol=1e-14)


def test_phase_sum_skips_empty_sites_and_sums_blocks(monkeypatch):
    rng = np.random.default_rng(5)
    mass = even_in_every_coordinate(rng.random((201, 201)) * (rng.random((201, 201)) < 0.3))
    mass /= mass.sum()
    xi = rng.normal(size=(9, 2))
    sites, masses = LatticeDistribution(dim=2, h=0.3, mass=mass).nonzero_sites()
    assert len(masses) < 0.8 * mass.size
    dense = masses @ (1.0 - np.cos(0.3 * sites @ xi.T))  # the cosine sum over the whole cube
    folded = fold_signs(mass[100:, 100:].copy())
    np.testing.assert_allclose(phase_sum(folded, 0.3, xi), dense, rtol=0, atol=1e-11)
    monkeypatch.setattr(kernel_module, "_CF_BLOCK_ENTRIES", SMALL_BUDGET)
    np.testing.assert_allclose(phase_sum(folded, 0.3, xi), dense, rtol=0, atol=1e-11)


@pytest.mark.parametrize(
    "dim, shape", [(2, (4, 3)), (2, (4, 1)), (2, (4,)), (2, (2, 2, 2)), (1, (4, 2)), (3, (4, 2))]
)
def test_frequencies_of_another_width_are_rejected(dim, shape):
    # a (G, 3) grid on a 2D kernel used to lose its third column, and cf_sup_error
    # to compare against norms that took it in
    k = _kernel(dim, 0.2, 4)
    law, sym, xi = kernel_distribution(k), DiffusionSymbol(TWO_ATOMS, dim), np.ones(shape)
    for call in (k.cf, lambda xi: characteristic_function(law, xi),
                 lambda xi: cf_sup_error(k, 3, sym, 1.0, xi)):
        with pytest.raises(ValueError, match="xi must be a"):
            call(xi)


def test_kernel_cf_memory_is_bounded_by_the_block():
    # the h = 0.1, K = 128 kernel of a 2D study on its 202-point grid: a
    # dense (sites x frequencies) phase matrix would take about 240 MB
    k = _kernel(2, 0.1, 128)
    xi = default_xi_grid(2, min(10.0, math.pi / 0.2), 101)
    assert len(xi) == 202
    tracemalloc.start()
    try:
        k.cf(xi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_one_dimensional_kernel_cf_memory_is_bounded():
    # 10^6 sites per sign: one table of sites x frequencies would take 330 MB
    k = _kernel(1, 0.01, 1_000_000)
    xi = default_xi_grid(1, 10.0, 41)
    tracemalloc.start()
    try:
        cf = k.cf(xi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert cf[0] == 1.0 and np.all(np.abs(cf) <= 1.0)


def _off_axis(rng, count, dim, h):
    """Random frequencies in every direction, out to the Nyquist radius pi/h."""
    direction = rng.normal(size=(count, dim))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    edge = np.zeros((1, dim))
    edge[0, 0] = math.pi / h
    return np.vstack([direction * rng.uniform(0.0, math.pi / h, size=(count, 1)), edge])


@pytest.mark.parametrize("budget", [64, _CF_BLOCK_ENTRIES])  # 64: many small blocks
@pytest.mark.parametrize("dim, K, n", [(2, 40, 3), (3, 8, 2)])
def test_cfs_at_off_axis_frequencies_match_dense_sums(monkeypatch, budget, dim, K, n):
    monkeypatch.setattr(kernel_module, "_CF_BLOCK_ENTRIES", budget)
    h = 0.1
    k = _kernel(dim, h, K)
    xi = _off_axis(np.random.default_rng(dim), 24, dim, h)
    np.testing.assert_allclose(k.cf(xi), dense_kernel_cf(k, xi), rtol=0, atol=1e-14)
    law = evolve(LatticeDistribution.delta(dim, h), k, n)
    sites, masses = law.nonzero_sites()
    dense = masses @ np.exp(1j * h * sites @ xi.T)
    np.testing.assert_allclose(characteristic_function(law, xi), dense, rtol=0, atol=1e-12)

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import timeit
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, PCG64DXSM, Philox
from scipy import stats

from fracwalk import (
    JumpSampler,
    LatticeDistribution,
    OrderMeasure,
    build_kernel,
    build_sampler,
    evolve,
    histogram,
    run_walks,
    stability_sigma,
    total_variation,
)
from fracwalk import diagnostics, montecarlo
from fracwalk.evolution import characteristic_function
from fracwalk.montecarlo import STREAM_VERSION, WalkEnsemble
from oracles import (
    alias_table_by_search,
    bin_centers_first_axis,
    convolution_power,
    dense_counts,
    draw_plan,
    empirical_cf,
    float_table,
    induced_probabilities,
    outcome_displacements,
    outcome_weights,
    per_axis_walk,
    sample_outcomes,
    sampler_limits,
    step_law,
    summary_dense,
    tv_sampling_bound,
)

BENCH = build_kernel(OrderMeasure.single(1.0), 1, 0.1, 0.01, trunc_radius=64)
SAMPLER = build_sampler(BENCH)
# one sampler per dimension for the engine checks
ENGINE_SAMPLERS = {
    dim: build_sampler(build_kernel(OrderMeasure.single(1.5), dim, 0.2, tau, trunc_radius=K))
    for dim, tau, K in ((1, 0.02, 40), (2, 0.01, 12), (3, 0.005, 6))
}


class TestSampler:
    def test_alias_reproduces_kernel_probabilities(self):
        induced = induced_probabilities(SAMPLER)
        weights = outcome_weights(BENCH)
        np.testing.assert_allclose(induced, weights, atol=1e-15)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_sampler_holds_only_the_packed_table(self):
        fields = [f.name for f in dataclasses.fields(JumpSampler)]
        assert fields == ["kernel", "keys", "codes", "block_steps"]
        assert not hasattr(SAMPLER, "sample") and not hasattr(SAMPLER, "limit")
        assert not SAMPLER.keys.flags.writeable and not SAMPLER.codes.flags.writeable

    def test_sampler_memory_per_outcome(self):
        # keys and codes, 24 B per outcome, are all a sampler keeps; the
        # float alias table they are rounded from is built and dropped
        m = OrderMeasure.single(1.5)
        k = build_kernel(m, 2, 0.1, 0.5 * stability_sigma(m, 2, 0.1, 0.0).tau_max, 400)
        tracemalloc.start()
        try:
            sampler = build_sampler(k)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sampler.n_outcomes == 502_625
        assert retained <= 25 * sampler.n_outcomes
        assert peak <= 50 * sampler.n_outcomes

    def test_frozen_kernel_always_stays(self):
        k0 = build_kernel(OrderMeasure.single(1.0), 1, 0.1, 0.0, trunc_radius=8)
        s = build_sampler(k0)
        ens = run_walks(s, n_steps=50, n_walkers=64, seed=3)
        assert np.all(ens.lattice_positions == 0)

    def test_single_jump_frequencies(self):
        rng = Generator(Philox(key=17))
        draws = 1_000_000
        idx = sample_outcomes(SAMPLER, rng, draws)
        counts = np.bincount(idx, minlength=SAMPLER.n_outcomes)
        weights = outcome_weights(BENCH)
        p0 = weights[0]
        sd = math.sqrt(draws * p0 * (1 - p0))
        assert abs(counts[0] - draws * p0) <= 4 * sd
        # symmetric sites agree within 4 joint standard deviations
        disp = outcome_displacements(BENCH)[:, 0]
        i_plus = int(np.where(disp == 1)[0][0])
        i_minus = int(np.where(disp == -1)[0][0])
        p1 = weights[i_plus]
        joint_sd = math.sqrt(2 * draws * p1)
        assert abs(counts[i_plus] - counts[i_minus]) <= 4 * joint_sd

    def test_single_jump_chi_square(self):
        # pooled cells with expected count >= 10; the sampled law must not be
        # distinguishable from the kernel law
        rng = Generator(Philox(key=2024))
        draws = 1_000_000
        idx = sample_outcomes(SAMPLER, rng, draws)
        counts = np.bincount(idx, minlength=SAMPLER.n_outcomes).astype(float)
        expected = outcome_weights(BENCH) * draws
        order = np.argsort(expected)[::-1]
        pooled_obs, pooled_exp = [], []
        acc_o = acc_e = 0.0
        for i in order:
            acc_o += counts[i]
            acc_e += expected[i]
            if acc_e >= 10.0:
                pooled_obs.append(acc_o)
                pooled_exp.append(acc_e)
                acc_o = acc_e = 0.0
        pooled_obs[-1] += acc_o
        pooled_exp[-1] += acc_e
        pooled_exp = np.array(pooled_exp) * (sum(pooled_obs) / sum(pooled_exp))
        _, p_value = stats.chisquare(pooled_obs, f_exp=pooled_exp)
        assert p_value > 1e-4


class TestRunWalks:
    def test_zero_steps_stay_at_origin(self):
        ens = run_walks(SAMPLER, 0, 100, seed=1)
        assert np.all(ens.lattice_positions == 0)
        assert np.all(ens.final_positions == 0.0)

    def test_positions_are_lattice_points(self):
        ens = run_walks(SAMPLER, 20, 500, seed=8)
        recovered = ens.final_positions / ens.h
        np.testing.assert_allclose(recovered, np.round(recovered), atol=1e-12)

    def test_deterministic_across_thread_counts(self):
        base = run_walks(SAMPLER, 13, 20_000, seed=41, threads=1)
        for threads in (2, 4, 8):
            other = run_walks(SAMPLER, 13, 20_000, seed=41, threads=threads)
            np.testing.assert_array_equal(base.lattice_positions, other.lattice_positions)

    def test_walker_streams_do_not_depend_on_ensemble_size(self):
        small = run_walks(SAMPLER, 9, 1_000, seed=6)
        large = run_walks(SAMPLER, 9, 3_000, seed=6)
        np.testing.assert_array_equal(
            small.lattice_positions, large.lattice_positions[:1_000]
        )

    def test_composite_walks_are_prefix_stable_and_thread_free(self, monkeypatch):
        # 47 steps in 2D are 2 draws, of 24 steps and 23; tiles of 30 words
        # hold 30 walkers, so a run has many chunks to share out
        monkeypatch.setattr(montecarlo, "_CHUNK_WORDS", 30)
        sampler, walkers = ENGINE_SAMPLERS[2], 500
        assert draw_plan(sampler.kernel, 47) == [24, 23]
        small = run_walks(sampler, 47, walkers, seed=6)
        for threads in (1, 2, 7):
            large = run_walks(sampler, 47, 2 * walkers, seed=6, threads=threads)
            np.testing.assert_array_equal(
                small.lattice_positions, large.lattice_positions[:walkers]
            )
            if threads > 1:
                np.testing.assert_array_equal(base.lattice_positions, large.lattice_positions)
            base = large

    def test_composite_walks_match_the_master_equation(self):
        # 200k walkers of 47 steps in 2D by 2 composite draws against the
        # exact law: TV within what sampling alone explains
        sampler, n, walkers = ENGINE_SAMPLERS[2], 47, 200_000
        assert max(draw_plan(sampler.kernel, n)) > 1
        law = evolve(LatticeDistribution.delta(2, sampler.kernel.h), sampler.kernel, n)
        ens = run_walks(sampler, n, walkers, seed=424242, threads=2)
        tv = total_variation(histogram(ens, bin_width=sampler.kernel.h), law)
        assert tv <= tv_sampling_bound(law.mass, walkers)

    def test_seed_changes_output(self):
        a = run_walks(SAMPLER, 9, 1_000, seed=1)
        b = run_walks(SAMPLER, 9, 1_000, seed=2)
        assert not np.array_equal(a.lattice_positions, b.lattice_positions)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_walks(SAMPLER, -1, 10, seed=0)
        with pytest.raises(ValueError):
            run_walks(SAMPLER, 1, 0, seed=0)

    @pytest.mark.parametrize("n_steps", [10**300, 10**400])
    def test_windows_past_the_generator_period_are_refused(self, n_steps):
        # 2^53-step draws leave about 10^384 words per walker at n = 10^400:
        # the windows would wrap the 2^128-word period and overlap
        with pytest.raises(ValueError, match="period of 2\\^128 words"):
            run_walks(SAMPLER, n_steps, 1, seed=0)


class TestEmpiricalCF:
    def test_trivial_values(self):
        ens = run_walks(SAMPLER, 0, 50, seed=5)
        xi = np.linspace(0.0, 10.0, 11)
        np.testing.assert_allclose(empirical_cf(ens, xi), 1.0)
        ens2 = run_walks(SAMPLER, 10, 2_000, seed=5)
        assert empirical_cf(ens2, [0.0])[0] == pytest.approx(1.0, abs=1e-15)

    def test_matches_exact_cf_within_clt_bound(self):
        n, M = 12, 100_000
        ens = run_walks(SAMPLER, n, M, seed=77)
        xi = np.linspace(0.0, 10.0, 41)
        emp = empirical_cf(ens, xi)
        exact = characteristic_function(
            evolve(LatticeDistribution.delta(1, BENCH.h), BENCH, n), xi
        )
        assert np.max(np.abs(emp - exact)) <= 5.0 / math.sqrt(M)


def _assert_tally(hist, bins):
    """``hist`` holds the occupied rows of the per-walker bin indices ``bins``
    in C order, and how many walkers hold each, bin for bin."""
    cells, counts = np.unique(bins, axis=0, return_counts=True)  # rows in lexicographic order
    assert hist.bins.dtype == np.int64
    np.testing.assert_array_equal(hist.bins, cells)
    np.testing.assert_array_equal(hist.counts, counts)


class TestHistogram:
    def test_origin_only(self):
        ens = run_walks(SAMPLER, 0, 100, seed=5)
        hist = histogram(ens, bin_width=0.5)
        assert hist.bins.tolist() == [[0]] and hist.counts.tolist() == [100]
        assert hist.density[0] == pytest.approx(1.0 / 0.5)

    def test_normalization(self):
        ens = run_walks(SAMPLER, 25, 10_000, seed=9)
        hist = histogram(ens, bin_width=0.3)
        total = hist.density.sum() * hist.bin_width**hist.dim
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_counts_match_a_per_walker_tally(self, dim):
        ens = run_walks(ENGINE_SAMPLERS[dim], 20, 20_000, seed=dim)
        width = 3 * ens.h
        hist = histogram(ens, bin_width=width)
        bins = np.floor(ens.final_positions / width + 0.5).astype(np.int64)
        _assert_tally(hist, bins)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_mesh_bins_match_the_float_path(self, dim):
        # bins of width h are taken from the lattice positions; they equal
        # floor(x / h + 0.5) of the float positions, near the origin and far
        rng = np.random.default_rng(dim)
        ensembles = [run_walks(ENGINE_SAMPLERS[dim], 20, 20_000, seed=dim)]
        for h, offset in ((0.3, 10**12), (1 / 3, -(2**49) + 17), (0.05, 2**49 - 17)):
            lattice = rng.integers(-15, 16, size=(5_000, dim)) + offset
            lattice.setflags(write=False)
            ensembles.append(WalkEnsemble(dim=dim, h=h, tau=0.01, n_steps=1, n_walkers=5_000,
                                          seed=0, lattice_positions=lattice))
        for ens in ensembles:
            hist = histogram(ens, bin_width=ens.h)
            bins = np.floor(ens.final_positions / ens.h + 0.5).astype(np.int64)
            _assert_tally(hist, bins)

    def test_mesh_bins_hold_one_index_per_walker(self):
        # 200k walkers in 2D binned at the mesh width: the bin key, 8 B per
        # walker, and one count per key of its span (the 301 x 301 box of
        # the dense form) are all the binning holds at once
        rng = np.random.default_rng(1)
        lattice = np.round(rng.standard_cauchy((200_000, 2)) * 8).clip(-150, 150).astype(np.int64)
        lattice.setflags(write=False)
        ens = WalkEnsemble(dim=2, h=0.2, tau=0.01, n_steps=27, n_walkers=len(lattice),
                           seed=0, lattice_positions=lattice)
        tracemalloc.start()
        try:
            hist = histogram(ens, bin_width=ens.h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        _assert_tally(hist, lattice)
        assert hist.bins.min(axis=0).tolist() == [-150, -150]
        assert hist.bins.max(axis=0).tolist() == [150, 150]
        assert peak <= 8 * len(lattice) + 8 * 301 * 301 + 2**16

    @pytest.mark.parametrize("dim", [2, 3])
    def test_far_walkers_take_one_bin_each(self, dim):
        # walkers 2 * 10^6 sites apart on every axis: a dense box of mesh bins
        # would hold 4e12 of them in 2D (32 TB) and 8e18 in 3D
        lattice = np.array([[-(10**6), 10**6, 0], [10**6, -(10**6), 10**6], [0, 0, -(10**6)]])
        ens = _ensemble(lattice[:, :dim])
        tracemalloc.start()
        try:
            hist = histogram(ens, bin_width=ens.h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        _assert_tally(hist, ens.lattice_positions)
        assert hist.counts.tolist() == [1, 1, 1]

    def test_rejects_sub_mesh_bins(self):
        ens = run_walks(SAMPLER, 1, 10, seed=5)
        for width in (0.05, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                histogram(ens, bin_width=width)

    def test_symmetry_under_sign_flip_resampling(self):
        # flipping the signs of half the walkers leaves the binned law
        # statistically unchanged for a symmetric kernel
        ens = run_walks(SAMPLER, 16, 50_000, seed=31)
        x = ens.final_positions[:, 0]
        hist = histogram(ens, bin_width=0.1)
        centers = bin_centers_first_axis(hist)
        density = dense_counts(hist)[1] / (hist.n_samples * hist.bin_width)
        dens = dict(zip(np.round(centers, 6), density))
        asym = 0.0
        for c, d in dens.items():
            mirrored = dens.get(round(-c, 6), 0.0)
            asym += abs(d - mirrored) * hist.bin_width
        # total-variation asymmetry at the sampling-noise scale
        assert asym <= 6.0 / math.sqrt(len(x)) * math.sqrt(len(dens))

    def test_cauchy_central_bin(self):
        m = OrderMeasure.single(1.0)
        h = 0.05
        from fracwalk import stability_sigma

        tau = 0.5 * stability_sigma(m, 1, h, 0.0).tau_max
        n = math.ceil(1.0 / tau)
        k = build_kernel(m, 1, h, tau, trunc_radius=1024)
        ens = run_walks(build_sampler(k), n, 100_000, seed=303)
        hist = histogram(ens, bin_width=h)
        centers = bin_centers_first_axis(hist)
        density = dense_counts(hist)[1] / (hist.n_samples * hist.bin_width)
        central = density[np.argmin(np.abs(centers))]
        assert central == pytest.approx(1.0 / math.pi, rel=0.10)

    def test_heavy_tail_mean_abs_grows_with_sample_size(self):
        # A heavy tail puts much of E|x| on far walkers that a small sample
        # rarely holds.  At K = 64 the law's mean is finite, and whether the
        # first 2000 walkers' mean |x| lies below the whole ensemble's is a
        # coin flip (about half of all seeds), so the ensemble's mean |x| and
        # its mass beyond ten Cauchy widths are checked against the exact
        # law instead, each within 5 standard errors.
        n, walkers = 32, 200_000
        x = np.abs(run_walks(SAMPLER, n, walkers, seed=555).final_positions[:, 0])
        law = evolve(LatticeDistribution.delta(1, BENCH.h), BENCH, n)
        assert abs(law.mass_deficit) < 1e-12  # cut at the certified reach: 2**-53 and rounding
        r = np.abs(np.arange(law.mass.size) - law.support_radius) * BENCH.h
        far = 10 * n * BENCH.tau
        mean, second = law.mass @ r, law.mass @ r**2
        tail = law.mass[r > far].sum()
        # the Cauchy law has 2/pi arctan(1/10) = 0.063 there and the kernel
        # cut at K h = 6.4 keeps 0.033; a normal law of the same median |x|
        # has 1.5e-11
        assert tail > 0.03
        assert abs(x.mean() - mean) <= 5 * math.sqrt((second - mean**2) / walkers)
        assert abs((x > far).mean() - tail) <= 5 * math.sqrt(tail * (1 - tail) / walkers)


class TestExports:
    def test_csv_deterministic(self, tmp_path):
        ens = run_walks(SAMPLER, 5, 200, seed=12)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        ens.to_csv(p1)
        run_walks(SAMPLER, 5, 200, seed=12).to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().strip().splitlines()
        assert lines[0] == "x1"
        assert len(lines) == 201

    @pytest.mark.parametrize("x", [
        np.random.default_rng(3).standard_cauchy(1001),
        np.random.default_rng(4).integers(-3, 4, 64) * 0.1,  # ties
        np.array([2.5]),
        np.array([0.0, 0.0, -0.0, 1.0]),
    ])
    def test_quantiles_match_numpy(self, x):
        levels = (0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0)
        got = montecarlo._quantiles(*np.unique(x, return_counts=True), levels)
        assert got.tobytes() == np.quantile(x, levels).tobytes()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_sorted_lattice_column_is_the_sorted_float_column(self, dim):
        ens = run_walks(ENGINE_SAMPLERS[dim], 20, 5_000, seed=4)
        census = ens.census()
        first = np.repeat(census.first * ens.h, census.first_counts)
        assert first.tobytes() == np.sort(ens.final_positions[:, 0]).tobytes()
        # and summary_dict gives the same document with or without it
        assert ens.summary_dict(census) == ens.summary_dict()

    def test_simulate_leaves_numpy_ma_unloaded(self, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("dim: 1\nh: 0.2\nt: 0.5\nwalkers: 500\ntrunc_radius: 16\n"
                       "measure: {atoms: [[1.0, 1.0]]}\n")
        code = (
            "import sys; from fracwalk.cli import main\n"
            f"main(['simulate', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}],"
            " standalone_mode=False)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "summary.json").exists()
        assert proc.stdout.splitlines()[-1] == "False"

    def test_summary_is_json_ready(self):
        import json

        ens = run_walks(SAMPLER, 8, 5_000, seed=2)
        doc = ens.summary_dict()
        encoded = json.dumps(doc)
        assert "mean" in doc and "histogram" in doc and "quantiles_first_coordinate" in doc
        assert doc["n_walkers"] == 5_000
        assert json.loads(encoded)["seed"] == 2


def _ensemble(lattice, h=0.1):
    lattice = np.asarray(lattice, dtype=np.int64)
    lattice.setflags(write=False)
    return WalkEnsemble(dim=lattice.shape[1], h=h, tau=0.01, n_steps=7,
                        n_walkers=len(lattice), seed=0, lattice_positions=lattice)


class TestCensus:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("case", ["walk", "wide", "ties"])
    @pytest.mark.parametrize("key_limit", [montecarlo._KEY_LIMIT, 1 << 8])
    def test_summary_matches_the_dense_route(self, dim, case, key_limit, monkeypatch):
        # a small key limit sends the census to the stacked-row np.unique
        monkeypatch.setattr(montecarlo, "_KEY_LIMIT", key_limit)
        rng = np.random.default_rng(dim)
        if case == "walk":  # compact boxes: the census counts by bincount
            ens = run_walks(ENGINE_SAMPLERS[dim], 20, 20_000, seed=dim)
        elif case == "wide":  # 2^41 sites per axis: sorts, and keys past 2^63 bins
            corners = rng.choice([-(2**40), 0, 2**40, 7], size=(500, dim))
            ens = _ensemble(corners + rng.integers(-40, 41, size=(500, dim)))
        else:  # 600 bins of two walkers and 50 of three: a tie at the 200-bin cut
            side = {1: 1000, 2: 40, 3: 12}[dim]
            cells = rng.permutation(side**dim)[:650]
            sites = 4 * np.column_stack(np.unravel_index(cells, (side,) * dim)) - 2 * side
            ens = _ensemble(np.repeat(sites, [3] * 50 + [2] * 600, axis=0))
        doc = ens.summary_dict()
        assert json.dumps(doc, indent=2) == json.dumps(summary_dense(ens), indent=2)
        if case == "ties":
            assert len(doc["histogram"]["density"]) == 200

    @pytest.mark.parametrize("dim", [2, 3])
    def test_far_walkers_take_no_bounding_box(self, dim):
        # the dense box of 4h bins held 6.1 GB in 2D and raised MemoryError in 3D
        ens = _ensemble([[-40_000] * dim, [40_000] * dim, [40_000] + [-40_000] * (dim - 1)])
        tracemalloc.start()
        try:
            doc = ens.summary_dict()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert doc["histogram"]["centers"][0] == [-4000.0] * dim

    def test_post_walk_memory_is_a_few_bytes_per_walker(self, tmp_path):
        # simulate's steps after the walk, on 400k walkers spread like the Cauchy
        # benchmark: 8.5 B per walker measured, 24 B with a sort and a dense box
        n = 400_000
        rng = np.random.default_rng(5)
        ens = _ensemble(np.round(rng.standard_cauchy((n, 1)) * 40).clip(-6000, 6000), h=0.025)
        cdf = lambda x: 0.5 + np.arctan(x) / math.pi
        tracemalloc.start()
        try:
            ens.to_csv(tmp_path / "ensemble.csv")
            census = ens.census()
            doc = ens.summary_dict(census)
            doc["ks"] = diagnostics.ks_distance(ens, cdf, census=census)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 9 * n + 2**19
        assert doc["ks"] == diagnostics.ks_distance(ens, cdf)

    def test_sparse_census_sorts_no_second_copy(self):
        # walkers up to 2^41 sites apart, nearly all distinct: the folded key is
        # sorted in place, 32 B per walker measured (np.unique straight on the
        # column took 33 B, and on a key held beside its sorted copy 41 B)
        n = 100_000
        ens = _ensemble(np.random.default_rng(3).integers(-2**40, 2**40, size=(n, 1)))
        tracemalloc.start()
        try:
            census = ens.census()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 33 * n
        values, counts = np.unique(ens.lattice_positions[:, 0], return_counts=True)
        assert np.array_equal(census.first, values) and np.array_equal(census.first_counts, counts)


def _realized_law(sampler, alias=None):
    """Exact outcome law of the limit table, as integers over 2^32.

    Slot i holds the ceil((i+1) 2^32 / N) - ceil(i 2^32 / N) draws u from
    ceil(i 2^32 / N) on, takes i for those below ``limit[i]`` and
    ``alias[i]`` for the rest; ``alias`` defaults to the float table of a
    sampler's kernel.
    """
    n = len(sampler.keys)
    limit = sampler_limits(sampler).tolist()
    if alias is None:
        alias = float_table(sampler.kernel)[1]

    def ceil_div(a, b):
        return -(-a // b)

    law = [0] * n
    for i in range(n):
        start, end = ceil_div(i * 2**32, n), ceil_div((i + 1) * 2**32, n)
        assert start <= limit[i] <= end
        law[i] += limit[i] - start
        law[int(alias[i])] += end - limit[i]
    assert sum(law) == 2**32
    return law


def _decode(codes, dim, radius):
    """Displacement rows of packed codes (each a single draw, so no carries)
    with digits offset by ``radius``."""
    bits = 63 // dim
    digits = [(codes >> (axis * bits)) & ((1 << bits) - 1) for axis in range(dim)]
    return np.stack(digits, axis=1) - radius


def _assert_is_the_binary_search_sweep(weights, accept, alias):
    """Placing the surplus ends among the deficit starts serves every light
    slot as one binary search per light slot does, bit for bit."""
    want = alias_table_by_search(weights)
    assert accept.tobytes() == want[0].tobytes()
    np.testing.assert_array_equal(alias, want[1])


def _study_2d_kernel(h=0.1, K=128):
    # the meshes of the study_2d benchmark (K = 32 anchored at h = 0.2); the
    # finer one by default
    m = OrderMeasure(atoms=((0.7, 1.0), (1.4, 0.5)))
    return build_kernel(m, 2, h, 0.5 * stability_sigma(m, 2, h, 0.0).tau_max, K)


class TestAliasTables:
    def test_realized_law_within_total_variation_bound(self):
        m = OrderMeasure.single(1.5)
        cauchy = OrderMeasure.single(1.0)
        # the cauchy_walk benchmark table: 1D, h = 0.025, K = 4096, N = 8193
        tau = 0.5 * stability_sigma(cauchy, 1, 0.025, 0.0).tau_max
        for sampler in (
            SAMPLER,
            build_sampler(build_kernel(m, 2, 0.2, 0.01, trunc_radius=16)),
            build_sampler(build_kernel(cauchy, 1, 0.025, tau, trunc_radius=4096)),
        ):
            law = _realized_law(sampler)
            n = sampler.n_outcomes
            weights = outcome_weights(sampler.kernel).tolist()
            tv = 0.5 * sum(abs(c / 2**32 - w) for c, w in zip(law, weights))
            assert tv <= n * 2.0**-32

    @pytest.mark.parametrize("sampler, n_steps, tables", [
        (ENGINE_SAMPLERS[1], 821, [411, 410]),
        (ENGINE_SAMPLERS[2], 47, [24, 23]),
        (ENGINE_SAMPLERS[3], 43, [3, 2]),
        (build_sampler(_study_2d_kernel(0.2, 32)), 9, [3]),
    ])
    def test_composite_tables_within_total_variation_bound(self, sampler, n_steps, tables):
        # each m-step table samples, exactly, a law within total variation
        # N 2^-32 of the m-fold convolution power summed directly; its N
        # outcomes are every site of its box, its codes decode to them and
        # its block is the longest carry-free sum
        plan = montecarlo._plan(sampler, n_steps)
        assert sorted(set(draw_plan(sampler.kernel, n_steps)), reverse=True) == tables
        dim, K = sampler.kernel.dim, sampler.kernel.trunc_radius
        for (table, _), steps in zip(plan, tables):
            n = len(table.keys)
            assert n == (2 * table.radius + 1) ** dim <= montecarlo._TABLE_SITES
            assert table.radius <= steps * K
            sites, weights = step_law(sampler.kernel, steps)
            alias = montecarlo._alias_table(weights)[1]
            own, other = (_decode(table.codes[i::2], dim, table.radius) for i in (1, 0))
            np.testing.assert_array_equal(own, sites)
            np.testing.assert_array_equal(other, sites[alias])
            block, largest = table.block_steps, 2 * table.radius
            assert block * largest < 2 ** (63 // dim) <= (block + 1) * largest
            exact = convolution_power(sampler.kernel, steps)
            law = np.array(_realized_law(table, alias), dtype=float) / 2**32
            at = tuple((sites + steps * K).T)
            outside = exact.sum() - exact[at].sum()
            tv = 0.5 * (np.abs(law - exact[at]).sum() + outside)
            assert tv <= n * 2.0**-32
            # evolve's own part, its tail cut, wrap and rounding, lies far
            # below that (measured 6e-15 to 3.5e-14)
            assert 0.5 * (np.abs(weights - exact[at]).sum() + outside) <= 2.0**-40

    def test_sweep_table_on_the_study_2d_kernel(self):
        sampler = build_sampler(_study_2d_kernel())
        assert sampler.n_outcomes == 51_433
        accept, alias = float_table(sampler.kernel)
        assert np.all((accept >= 0.0) & (accept <= 1.0))
        full = np.flatnonzero(accept == 1.0)
        np.testing.assert_array_equal(alias[full], full)
        np.testing.assert_allclose(
            induced_probabilities(sampler), outcome_weights(sampler.kernel), rtol=0, atol=1e-13
        )

    @pytest.mark.parametrize("weights", [
        np.full(8, 1 / 8),                        # every slot exactly full
        np.array([0.25, 0.25, 0.125, 0.375]),     # full slots beside light and heavy
        np.array([1.0, 0.0, 0.0, 0.0, 0.0]),      # a frozen kernel
        np.full(10, np.nextafter(0.1, 0.0)),      # every N w rounds below 1
        np.array([0.375, 0.125, 0.125, 0.375]),   # a surplus ends where a deficit starts
        np.random.default_rng(5).dirichlet(np.full(300, 0.2)),
    ])
    def test_sweep_table_on_edge_cases(self, weights):
        accept, alias = montecarlo._alias_table(weights)
        _assert_is_the_binary_search_sweep(weights, accept, alias)
        n = len(weights)
        assert np.all((accept >= 0.0) & (accept <= 1.0))
        full = np.flatnonzero(accept == 1.0)
        np.testing.assert_array_equal(alias[full], full)
        induced = accept / n
        np.add.at(induced, alias, (1.0 - accept) / n)
        np.testing.assert_allclose(induced, weights, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("seed, n, concentration", [
        (1, 1000, 0.05), (2, 4097, 1.0), (3, 20_000, 0.5),
    ])
    def test_sweep_is_the_binary_search_sweep_on_dirichlet_draws(self, seed, n, concentration):
        weights = np.random.default_rng(seed).dirichlet(np.full(n, concentration))
        _assert_is_the_binary_search_sweep(weights, *montecarlo._alias_table(weights))

    def test_sweep_is_the_binary_search_sweep_on_the_benchmark_tables(self):
        # the m-step tables of the benchmark plans: cauchy_walk's 42 steps,
        # master_eq_2d's 14 and 13 and study_2d's 3 at h = 0.2
        cauchy, levy = OrderMeasure.single(1.0), OrderMeasure.single(1.5)
        tables = [
            (build_kernel(cauchy, 1, 0.025, 0.5 * stability_sigma(cauchy, 1, 0.025, 0.0).tau_max,
                          4096), 42),
            (build_kernel(levy, 2, 0.2, 0.5 * stability_sigma(levy, 2, 0.2, 0.0).tau_max, 16), 14),
            (build_kernel(levy, 2, 0.2, 0.5 * stability_sigma(levy, 2, 0.2, 0.0).tau_max, 16), 13),
            (_study_2d_kernel(0.2, 32), 3),
        ]
        for kernel, steps in tables:
            weights = step_law(kernel, steps)[1]
            _assert_is_the_binary_search_sweep(weights, *montecarlo._alias_table(weights))

    def test_limit_tables_match_the_float_table(self):
        # limit[i] = ceil(i 2^32 / N) + min(round(accept[i] 2^32 / N), slot
        # count), exactly; keys pack it with the code index 2i + 1; and the
        # code table decodes to the alias and own displacements
        for sampler in (SAMPLER, *ENGINE_SAMPLERS.values()):
            n, dim, K = sampler.n_outcomes, sampler.kernel.dim, sampler.kernel.trunc_radius
            assert sampler.keys.dtype == np.uint64
            limit = sampler_limits(sampler).tolist()
            accept, alias = float_table(sampler.kernel)
            displacements = outcome_displacements(sampler.kernel)
            for i, a in enumerate(accept.tolist()):
                start, end = -(-i * 2**32 // n), -(-(i + 1) * 2**32 // n)
                assert limit[i] == start + min(round(a * 2**32 / n), end - start)
                assert int(sampler.keys[i]) == (2 * i + 1) * 2**33 + limit[i] - 1
            assert sampler.codes.dtype == np.int64
            np.testing.assert_array_equal(
                _decode(sampler.codes[0::2], dim, K), displacements[alias]
            )
            np.testing.assert_array_equal(_decode(sampler.codes[1::2], dim, K), displacements)

    def test_code_index_at_the_slot_edges(self):
        # each slot's first and last draw and the draws either side of its
        # limit index the kept or the alias code as the limit says
        for sampler in (SAMPLER, *ENGINE_SAMPLERS.values()):
            n = sampler.n_outcomes
            u, slot = [], []
            limits = sampler_limits(sampler)
            for i, limit in enumerate(limits.tolist()):
                start, end = -(-i * 2**32 // n), -(-(i + 1) * 2**32 // n)
                for v in (start, limit - 1, limit, end - 1):
                    u.append(min(max(v, start), end - 1))
                    slot.append(i)
            u, slot = np.array(u, dtype=np.uint64), np.array(slot)
            index = montecarlo._draw(sampler, u)
            np.testing.assert_array_equal(index >> 1, slot)
            np.testing.assert_array_equal(index & 1, u < limits[slot])

    def test_block_is_the_longest_carry_free_sum(self):
        # block_steps codes of the largest digit 2K still fit below the base
        for sampler in (SAMPLER, *ENGINE_SAMPLERS.values()):
            bits, largest = 63 // sampler.kernel.dim, 2 * sampler.kernel.trunc_radius
            assert sampler.block_steps * largest < 2**bits <= (sampler.block_steps + 1) * largest

    def test_walk_steps_are_sampler_draws_of_the_walker_window(self, monkeypatch):
        # with a table budget below every m-step box each draw is one step
        # (the 0.4.0 stream): walker w of an n-step walk uses the 32-bit
        # draws [2 w W, 2 w W + n) of the seed's stream, W = ceil(n / 2)
        # words, the low half of a word before its high half, drawn the
        # same way as sample_outcomes
        monkeypatch.setattr(montecarlo, "_TABLE_SITES", 1)
        for n, window in ((5, 6), (9, 10), (16, 16)):
            walkers = 300
            ens = run_walks(SAMPLER, n, walkers, seed=19)
            outcomes = sample_outcomes(SAMPLER, Generator(PCG64DXSM(19)), walkers * window)
            steps = outcome_displacements(BENCH)[outcomes.reshape(walkers, window)[:, :n]]
            np.testing.assert_array_equal(ens.lattice_positions, steps.sum(axis=1))


class TestWalkEngine:
    @pytest.mark.parametrize("small_tiles", [False, True])
    @pytest.mark.parametrize("threads", [1, 2, 7])
    @pytest.mark.parametrize("n_steps", [1, 2, 3, 5, 8, 9, 4097])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_the_per_axis_walk(self, dim, n_steps, threads, small_tiles, monkeypatch):
        sampler = ENGINE_SAMPLERS[dim]
        walkers = 40
        if small_tiles:
            # a window over 14 words takes several tiles of 14 words (28
            # draws), and a tile half of more than 2 draws from one table
            # several carry-free blocks of 2
            monkeypatch.setattr(montecarlo, "_CHUNK_WORDS", 14)
            sampler = dataclasses.replace(sampler, block_steps=2)
            composite = montecarlo._composite
            monkeypatch.setattr(
                montecarlo, "_composite", lambda *args: composite(*args)._replace(block_steps=2)
            )
            walkers = 12 if n_steps > 12 else walkers
        # once with one step per draw (a one-site table budget), once at the
        # default budget, where every walk of more than two steps takes m > 1
        for budget in (1, montecarlo._TABLE_SITES):
            monkeypatch.setattr(montecarlo, "_TABLE_SITES", budget)
            plan = draw_plan(sampler.kernel, n_steps)
            assert (max(plan) > 1) == (budget > 1 and n_steps > 2)
            ens = run_walks(sampler, n_steps, walkers, seed=dim + 60, threads=threads)
            expected = per_axis_walk(sampler, n_steps, walkers, seed=dim + 60)
            np.testing.assert_array_equal(ens.lattice_positions, expected)

    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.sampled_from([1, 2, 3]),
        n_steps=st.integers(1, 60),
        walkers=st.integers(1, 25),
        tile_words=st.integers(1, 20),
        blocks=st.tuples(st.integers(2, 5), st.integers(2, 5)),
        threads=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_any_tiling_and_blocks_match_the_per_axis_walk(
        self, dim, n_steps, walkers, tile_words, blocks, threads, seed
    ):
        # a tile's codes are summed across its tables in blocks of the least
        # block_steps and decoded once per block: any tile size and any
        # carry-free blocks of the sampler and the m-step tables give the
        # walks summed axis by axis
        sampler = dataclasses.replace(ENGINE_SAMPLERS[dim], block_steps=blocks[0])
        composite = montecarlo._composite
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(montecarlo, "_CHUNK_WORDS", tile_words)
            patch.setattr(montecarlo, "_composite",
                          lambda *args: composite(*args)._replace(block_steps=blocks[1]))
            ens = run_walks(sampler, n_steps, walkers, seed=seed, threads=threads)
        expected = per_axis_walk(sampler, n_steps, walkers, seed=seed)
        np.testing.assert_array_equal(ens.lattice_positions, expected)

    @pytest.mark.parametrize("threads", [1, 2, 7])
    @pytest.mark.parametrize("n_steps, tile_words, edge, draws", [(43, 4, 13, 15), (38, 6, 12, 13)])
    def test_table_edge_inside_a_tile_and_at_a_span_edge(
        self, n_steps, tile_words, edge, draws, threads, monkeypatch
    ):
        # 3D: the first `edge` draws of 3 steps and the rest of 2.  43 steps
        # are 15 draws: tiles of 4 words (8 draws) put the table edge in the
        # second tile, of 7 draws: its low half holds three rows of the
        # 3-step table and one of the 2-step, its high half two and one.  38
        # steps are 13 draws: tiles of 6 words end the 3-step draws at a span
        # edge and leave a last tile of one draw.
        monkeypatch.setattr(montecarlo, "_CHUNK_WORDS", tile_words)
        sampler = ENGINE_SAMPLERS[3]
        assert draw_plan(sampler.kernel, n_steps) == [3] * edge + [2] * (draws - edge)
        ens = run_walks(sampler, n_steps, 20, seed=71, threads=threads)
        expected = per_axis_walk(sampler, n_steps, 20, seed=71)
        np.testing.assert_array_equal(ens.lattice_positions, expected)

    def test_long_walk_memory_does_not_grow_with_steps(self):
        tracemalloc.start()
        try:
            run_walks(ENGINE_SAMPLERS[2], 10**7, 1, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestStream:
    @pytest.mark.parametrize("seed", [-1, 2**64, 2.5, True])
    def test_rejects_seeds_outside_the_config_range(self, seed):
        with pytest.raises(ValueError, match="seed"):
            run_walks(SAMPLER, 3, 4, seed=seed)

    @pytest.mark.parametrize("name, value", [
        ("n_steps", -1), ("n_steps", 2.5), ("n_steps", True),
        ("n_walkers", 0), ("n_walkers", -3), ("n_walkers", 2.5), ("n_walkers", True),
        ("threads", 0), ("threads", -3), ("threads", 2.5), ("threads", True),
    ])
    def test_rejects_counts_that_are_not_integers_in_range(self, name, value):
        counts = {"n_steps": 5, "n_walkers": 4, "threads": 1, name: value}
        with pytest.raises(ValueError, match=name):
            run_walks(SAMPLER, seed=0, **counts)

    def test_numpy_integer_counts_give_a_json_ready_summary(self):
        import json

        ens = run_walks(SAMPLER, 5, np.int64(3), 1, threads=np.int64(2))
        assert type(ens.n_walkers) is int and ens.n_walkers == 3
        assert json.loads(json.dumps(ens.summary_dict()))["n_walkers"] == 3

    def test_step_count_must_be_an_integer(self):
        for n_steps in (2.5, 3.0, True):
            with pytest.raises(ValueError, match="n_steps"):
                run_walks(SAMPLER, n_steps, 4, seed=0)
        ens = run_walks(SAMPLER, np.int64(5), 10, seed=3)
        assert type(ens.n_steps) is int and ens.n_steps == 5
        np.testing.assert_array_equal(ens.lattice_positions, run_walks(SAMPLER, 5, 10, seed=3).lattice_positions)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_walks_the_end_seeds_of_the_range(self, seed):
        ens = run_walks(SAMPLER, 5, 10, seed=seed)
        assert ens.seed == seed
        np.testing.assert_array_equal(ens.lattice_positions, per_axis_walk(SAMPLER, 5, 10, seed))

    @pytest.mark.parametrize("dim, digest", [
        (1, "7aee9a54a36ad49d7f549746299b6f8862335970421ebf69767256b615a9eecd"),
        (2, "d16c8b01b049932f1730393cb4d030bc89e6f2c8953ba5118126bb3d14a88cff"),
    ])
    def test_ensemble_digest_is_pinned_to_the_stream_version(self, dim, digest, monkeypatch):
        # SHA-256 of the little-endian int64 lattice positions under stream
        # 0.4.0, which every later version reproduces when every draw is one
        # step (here forced by a one-site table budget)
        monkeypatch.setattr(montecarlo, "_TABLE_SITES", 1)
        ens = run_walks(ENGINE_SAMPLERS[dim], 27, 1000, seed=2024, threads=2)
        lattice = ens.lattice_positions.astype("<i8").tobytes()
        assert hashlib.sha256(lattice).hexdigest() == digest

    @pytest.mark.parametrize("dim, digest", [
        (1, "4cc6bea57db7b72a1f3a2b35358c95bd69d4327d71de79643c63a3720d141c8a"),
        (2, "c19424647c923723fc72677e93e8ebcb5676767d9c1bc5fb37a84e471083e15a"),
        (3, "6578e753c8164463b41e9deec256fcc97a774461cf559465516c4f8ba2729dd7"),
    ])
    def test_composite_digest_is_pinned_to_the_stream_version(self, dim, digest):
        # the same walks at the default table budget, 14 + 13, 14 + 13 and
        # 9 x 3 steps: a change to the seed -> ensemble mapping must
        # come with a new STREAM_VERSION and new digests
        plans = {1: [14, 13], 2: [14, 13], 3: [3] * 9}
        assert draw_plan(ENGINE_SAMPLERS[dim].kernel, 27) == plans[dim]
        ens = run_walks(ENGINE_SAMPLERS[dim], 27, 1000, seed=2024, threads=2)
        lattice = ens.lattice_positions.astype("<i8").tobytes()
        assert (STREAM_VERSION, hashlib.sha256(lattice).hexdigest()) == ("0.7.0", digest)


class TestDrawBudget:
    """Each walker draws ceil(D / 2) words; a return to one draw per step
    shows here as a word count, without a benchmark run."""

    @pytest.fixture
    def counted(self, monkeypatch):
        words = []

        class Counting(PCG64DXSM):
            def random_raw(self, size=None, output=True):
                words.append(int(np.prod(size)))
                return super().random_raw(size, output)

        monkeypatch.setattr(montecarlo, "PCG64DXSM", Counting)
        return words

    def test_cauchy_walk_draws_one_word_per_walker(self, counted):
        # the cauchy_walk benchmark kernel: 84 steps are 2 draws of 42, where
        # one draw per step took 42 words and draws of 7 steps 6
        cauchy = OrderMeasure.single(1.0)
        tau = 0.5 * stability_sigma(cauchy, 1, 0.025, 0.0).tau_max
        sampler = build_sampler(build_kernel(cauchy, 1, 0.025, tau, trunc_radius=4096))
        assert math.ceil(1.0 / tau) == 84
        run_walks(sampler, 84, 3000, seed=5, threads=2)
        assert sum(counted) == 3000
        # the outcomes are the box of the 42-step table, radius 13 680
        plan = montecarlo._plan(sampler, 84)
        assert [(len(t.keys), draws) for t, draws in plan] == [(27_361, 2)]

    def test_master_eq_2d_draws_one_word_per_walker(self, counted):
        # the master_eq_2d benchmark kernel: 27 steps are 14 + 13, whose
        # tables hold 22 201 + 21 609 outcomes, together within the budget
        measure = OrderMeasure.single(1.5)
        tau = 0.5 * stability_sigma(measure, 2, 0.2, 0.0).tau_max
        sampler = build_sampler(build_kernel(measure, 2, 0.2, tau, trunc_radius=16))
        assert math.ceil(1.0 / tau) == 27
        run_walks(sampler, 27, 2000, seed=5, threads=2)
        assert sum(counted) == 2000
        plan = montecarlo._plan(sampler, 27)
        assert [(len(t.keys), draws) for t, draws in plan] == [(22_201, 1), (21_609, 1)]

    def test_study_2d_coarse_row_keeps_four_words(self, counted):
        # study_2d's h = 0.2 row: 21 steps stay 7 draws of 3 from one
        # 34 969-outcome table, since 6 draws would take 4- and 3-step
        # tables of 50 625 + 34 969 outcomes, over the budget together
        sampler = build_sampler(_study_2d_kernel(0.2, 32))
        assert math.ceil(1.0 / sampler.kernel.tau) == 21
        run_walks(sampler, 21, 500, seed=5)
        assert sum(counted) == 4 * 500
        plan = montecarlo._plan(sampler, 21)
        assert [(len(t.keys), draws) for t, draws in plan] == [(34_969, 7)]

    def test_wide_kernel_keeps_one_draw_per_step(self, counted):
        # 2D K = 128: even a 2-step box exceeds the budget, so 47 steps take 24 words
        sampler = build_sampler(_study_2d_kernel())
        run_walks(sampler, 47, 500, seed=5)
        assert sum(counted) == 24 * 500
        [(table, draws)] = montecarlo._plan(sampler, 47)
        assert table.keys is sampler.keys and draws == 47

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n_steps", [2, 27, 4097])
    def test_no_table_exceeds_the_budget(self, dim, n_steps):
        # a plan's tables hold at most the budget together, the sampler's
        # counting none; each m-step table is its whole box
        sampler = ENGINE_SAMPLERS[dim]
        tables = [t for t, _ in montecarlo._plan(sampler, n_steps) if t.keys is not sampler.keys]
        assert sum(len(t.keys) for t in tables) <= montecarlo._TABLE_SITES
        for table in tables:
            assert len(table.keys) == (2 * table.radius + 1) ** dim

    def test_plans_a_step_count_past_the_float_range(self):
        # n = 10^400 is past the float range: the search keeps m an exact
        # float and takes O(log n) reach bounds, so planning is quick
        sampler = build_sampler(build_kernel(OrderMeasure.single(1.5), 1, 0.2, 0.02, 16))
        start = time.perf_counter()
        plan = montecarlo._plan(sampler, 10**400)
        assert time.perf_counter() - start < 1.0
        draws = sum(count for _, count in plan)
        assert 2 <= draws < 10**400 and len(plan) <= 2
        assert sum(len(t.keys) for t, _ in plan) <= montecarlo._TABLE_SITES

    def test_divisor_scan_is_bounded(self):
        # n = 2^1000 + 7 offers about 1.5e7 draw lengths to try as divisors
        # of n; the scan tries the first _DIVISOR_SCAN of them
        sampler = build_sampler(build_kernel(OrderMeasure.single(1.5), 1, 0.2, 0.02, 16))
        n = 2**1000 + 7
        seconds = min(timeit.repeat(lambda: montecarlo._plan(sampler, n), number=1, repeat=3))
        assert seconds < 0.1
        plan = montecarlo._plan(sampler, n)
        assert 2 <= sum(count for _, count in plan) < n
        assert sum(len(t.keys) for t, _ in plan) <= montecarlo._TABLE_SITES


class TestThreadPool:
    def test_pool_is_bounded_by_chunks_and_cores(self, monkeypatch):
        spawned = []

        class Recorder:
            # runs its target when started, so no thread is ever started
            def __init__(self, target, args):
                spawned.append(self)
                self.target, self.args = target, args

            def start(self):
                self.target(*self.args)

            def join(self):
                pass

        monkeypatch.setattr(montecarlo, "Thread", Recorder)
        monkeypatch.setattr(montecarlo, "_TABLE_SITES", 1)  # one draw per step
        n_steps, walkers = 13, 50_000
        chunks = -(-walkers // (montecarlo._CHUNK_WORDS // 7))
        base = run_walks(SAMPLER, n_steps, walkers, seed=41, threads=1)
        wide = run_walks(SAMPLER, n_steps, walkers, seed=41, threads=10_000)
        # the calling thread walks as worker 0: one thread fewer than workers
        assert len(spawned) == min(chunks, os.cpu_count() or 1) - 1
        np.testing.assert_array_equal(base.lattice_positions, wide.lattice_positions)

    @pytest.mark.parametrize("failing_chunks, raised", [((0, 1, 2), 0), ((1, 2), 1), ((2,), 2)])
    def test_first_worker_error_is_raised(self, monkeypatch, failing_chunks, raised):
        chunk = montecarlo._CHUNK_WORDS // 7  # walkers per chunk of 13-step walkers
        walked = []

        def failing(plan, seed, draws, chunks, out):
            walked.append(chunks[0][0] // chunk)
            if walked[-1] in failing_chunks:
                raise RuntimeError(f"chunk {walked[-1]}")

        monkeypatch.setattr(montecarlo, "_run_chunks", failing)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
        monkeypatch.setattr(montecarlo, "_TABLE_SITES", 1)  # one draw per step
        with pytest.raises(RuntimeError, match=f"^chunk {raised}$"):
            run_walks(SAMPLER, 13, 3 * chunk, seed=41, threads=3)
        assert sorted(walked) == [0, 1, 2]  # every worker ran to its end


def _csv_writer_bytes(ensemble):
    """ensemble.csv as csv.writer writes it: repr floats, CRLF line ends."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow([f"x{i+1}" for i in range(ensemble.dim)])
    for row in ensemble.final_positions:
        writer.writerow([repr(float(x)) for x in row])
    return buf.getvalue().encode()


class TestCsvWriter:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_bytes_match_csv_writer(self, dim, tmp_path):
        rows = montecarlo._CSV_BLOCK_ROWS + 123
        rng = np.random.default_rng(dim)
        lattice = rng.integers(-5_000, 5_001, size=(rows, dim))
        lattice[:, 0] = np.where(rng.random(rows) < 0.3, 0, lattice[:, 0])
        lattice.setflags(write=False)
        ens = WalkEnsemble(dim=dim, h=0.1, tau=0.01, n_steps=7, n_walkers=rows,
                           seed=0, lattice_positions=lattice)
        path = tmp_path / "ensemble.csv"
        ens.to_csv(path)
        assert path.read_bytes() == _csv_writer_bytes(ens)

    def test_walkerless_ensemble_is_refused(self):
        with pytest.raises(ValueError, match="n_walkers must be a positive integer, got 0"):
            WalkEnsemble(dim=2, h=0.1, tau=0.01, n_steps=7, n_walkers=0, seed=0,
                         lattice_positions=np.zeros((0, 2), dtype=np.int64))

    @pytest.mark.parametrize("n_walkers, positions", [
        (3, np.zeros((3, 2))),                     # float
        (3, np.zeros((3, 2), dtype=np.int32)),
        (3, np.zeros((3, 3), dtype=np.int64)),     # another dimension
        (4, np.zeros((3, 2), dtype=np.int64)),     # another walker count
        (6, np.zeros(6, dtype=np.int64)),
        (3, [[0, 0]] * 3),                         # no array
        (True, np.zeros((1, 2), dtype=np.int64)),
        (3.0, np.zeros((3, 2), dtype=np.int64)),
    ])
    def test_malformed_ensemble_is_refused(self, n_walkers, positions):
        with pytest.raises(ValueError):
            WalkEnsemble(dim=2, h=0.1, tau=0.01, n_steps=7, n_walkers=n_walkers, seed=0,
                         lattice_positions=positions)

    @pytest.mark.parametrize("given", ["writable", "view", "read-only after a view was taken"])
    def test_a_callers_array_is_copied_once_read_only(self, given):
        owner = np.arange(12, dtype=np.int64).reshape(6, 2).copy()  # owns its memory
        handle = owner[:]  # a writable view the caller keeps
        if given == "read-only after a view was taken":
            owner.setflags(write=False)  # handle stays writable
        ens = WalkEnsemble(dim=2, h=0.1, tau=0.01, n_steps=7, n_walkers=6, seed=0,
                           lattice_positions=handle if given == "view" else owner)
        handle[0, 0] = 7
        assert ens.lattice_positions[0, 0] == 0 and not ens.lattice_positions.flags.writeable
        with pytest.raises(ValueError):
            ens.lattice_positions[0, 0] = 7

    def test_run_walks_array_passes_through_uncopied(self, monkeypatch):
        made, zeros = [], np.zeros

        def recorded_zeros(*args, **kwargs):
            made.append(zeros(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(montecarlo.np, "zeros", recorded_zeros)
        positions = run_walks(SAMPLER, 3, 10, seed=5).lattice_positions
        assert any(positions is a for a in made) and not positions.flags.writeable

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("case", ["wide", "single", "constant", "negative"])
    def test_census_and_sort_match_csv_writer(self, dim, case, tmp_path):
        # "wide" spans 2^41 sites, beyond the dense census; the others take it
        rng = np.random.default_rng(dim)
        lattice = {
            "wide": rng.choice([-(2**40), 0, 2**40, 7], size=(500, dim)),
            "single": np.array([[-3, 0, 12][:dim]]),
            "constant": np.full((300, dim), -17),
            "negative": rng.integers(-900, -400, size=(300, dim)),
        }[case].astype(np.int64)
        lattice.setflags(write=False)
        ens = WalkEnsemble(dim=dim, h=0.1, tau=0.01, n_steps=7, n_walkers=len(lattice),
                           seed=0, lattice_positions=lattice)
        for column in lattice.T:
            cells, counts = montecarlo._cells([column])
            want_values, want_counts = np.unique(column, return_counts=True)
            assert cells.shape == (len(want_values), 1)
            assert cells[:, 0].tobytes() == want_values.tobytes()
            np.testing.assert_array_equal(counts, want_counts)
        path = tmp_path / "ensemble.csv"
        ens.to_csv(path)
        assert path.read_bytes() == _csv_writer_bytes(ens)

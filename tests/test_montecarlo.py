import csv
import dataclasses
import io
import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy import stats

from fracwalk import (
    LatticeDistribution,
    OrderMeasure,
    build_kernel,
    build_sampler,
    evolve,
    histogram,
    run_walks,
    stability_sigma,
)
from fracwalk import montecarlo
from fracwalk.evolution import characteristic_function
from fracwalk.montecarlo import WalkEnsemble
from oracles import empirical_cf, per_axis_walk

BENCH = build_kernel(OrderMeasure.single(1.0), 1, 0.1, 0.01, trunc_radius=64)
SAMPLER = build_sampler(BENCH)
# one sampler per dimension for the engine checks
ENGINE_SAMPLERS = {
    dim: build_sampler(build_kernel(OrderMeasure.single(1.5), dim, 0.2, tau, trunc_radius=K))
    for dim, tau, K in ((1, 0.02, 40), (2, 0.01, 12), (3, 0.005, 6))
}


class TestSampler:
    def test_alias_reproduces_kernel_probabilities(self):
        induced = SAMPLER.induced_probabilities()
        np.testing.assert_allclose(induced, SAMPLER.weights, atol=1e-15)
        assert SAMPLER.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_frozen_kernel_always_stays(self):
        k0 = build_kernel(OrderMeasure.single(1.0), 1, 0.1, 0.0, trunc_radius=8)
        s = build_sampler(k0)
        ens = run_walks(s, n_steps=50, n_walkers=64, seed=3)
        assert np.all(ens.lattice_positions == 0)

    def test_single_jump_frequencies(self):
        rng = Generator(Philox(key=17))
        draws = 1_000_000
        idx = SAMPLER.sample(rng, draws)
        counts = np.bincount(idx, minlength=SAMPLER.n_outcomes)
        p0 = SAMPLER.weights[0]
        sd = math.sqrt(draws * p0 * (1 - p0))
        assert abs(counts[0] - draws * p0) <= 4 * sd
        # symmetric sites agree within 4 joint standard deviations
        disp = SAMPLER.displacements[:, 0]
        i_plus = int(np.where(disp == 1)[0][0])
        i_minus = int(np.where(disp == -1)[0][0])
        p1 = SAMPLER.weights[i_plus]
        joint_sd = math.sqrt(2 * draws * p1)
        assert abs(counts[i_plus] - counts[i_minus]) <= 4 * joint_sd

    def test_single_jump_chi_square(self):
        # pooled cells with expected count >= 10; the sampled law must not be
        # distinguishable from the kernel law
        rng = Generator(Philox(key=2024))
        draws = 1_000_000
        idx = SAMPLER.sample(rng, draws)
        counts = np.bincount(idx, minlength=SAMPLER.n_outcomes).astype(float)
        expected = SAMPLER.weights * draws
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

    def test_seed_changes_output(self):
        a = run_walks(SAMPLER, 9, 1_000, seed=1)
        b = run_walks(SAMPLER, 9, 1_000, seed=2)
        assert not np.array_equal(a.lattice_positions, b.lattice_positions)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_walks(SAMPLER, -1, 10, seed=0)
        with pytest.raises(ValueError):
            run_walks(SAMPLER, 1, 0, seed=0)


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


class TestHistogram:
    def test_origin_only(self):
        ens = run_walks(SAMPLER, 0, 100, seed=5)
        hist = histogram(ens, bin_width=0.5)
        assert hist.counts.shape == (1,)
        assert hist.density[0] == pytest.approx(1.0 / 0.5)

    def test_normalization(self):
        ens = run_walks(SAMPLER, 25, 10_000, seed=9)
        hist = histogram(ens, bin_width=0.3)
        total = hist.density.sum() * hist.bin_width**hist.dim
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_rejects_sub_mesh_bins(self):
        ens = run_walks(SAMPLER, 1, 10, seed=5)
        with pytest.raises(ValueError):
            histogram(ens, bin_width=0.05)

    def test_symmetry_under_sign_flip_resampling(self):
        # flipping the signs of half the walkers leaves the binned law
        # statistically unchanged for a symmetric kernel
        ens = run_walks(SAMPLER, 16, 50_000, seed=31)
        x = ens.final_positions[:, 0]
        hist = histogram(ens, bin_width=0.1)
        centers = hist.bin_centers_first_axis()
        dens = dict(zip(np.round(centers, 6), hist.density))
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
        centers = hist.bin_centers_first_axis()
        central = hist.density[np.argmin(np.abs(centers))]
        assert central == pytest.approx(1.0 / math.pi, rel=0.10)

    def test_heavy_tail_mean_abs_grows_with_sample_size(self):
        ens = run_walks(SAMPLER, 32, 200_000, seed=555)
        x = np.abs(ens.final_positions[:, 0])
        assert x[:2_000].mean() < x.mean()


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
        assert montecarlo._quantiles(x, levels).tobytes() == np.quantile(x, levels).tobytes()

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


def _realized_law(sampler):
    """Exact outcome law of the uint32 tables, as integers over 2^64.

    Slot i is picked by ceil((i+1) 2^32 / N) - ceil(i 2^32 / N) of the 2^32
    high halves, and kept by ``threshold[i]`` of the 2^32 low halves.
    """
    n = sampler.n_outcomes

    def ceil_div(a, b):
        return -(-a // b)

    law = [0] * n
    for i in range(n):
        slot = ceil_div((i + 1) * 2**32, n) - ceil_div(i * 2**32, n)
        kept = int(sampler.threshold[i])
        law[i] += slot * kept
        law[int(sampler.alias[i])] += slot * (2**32 - kept)
    assert sum(law) == 2**64
    return law


def _decode(sampler, codes):
    """Displacement rows of packed codes (each a single step, so no carries)."""
    bits, K = 63 // sampler.kernel.dim, sampler.kernel.trunc_radius
    digits = [(codes >> (axis * bits)) & ((1 << bits) - 1) for axis in range(sampler.kernel.dim)]
    return np.stack(digits, axis=1) - K


def _study_2d_kernel():
    # the finer mesh of the study_2d benchmark (K = 32 anchored at h = 0.2)
    m = OrderMeasure(atoms=((0.7, 1.0), (1.4, 0.5)))
    return build_kernel(m, 2, 0.1, 0.5 * stability_sigma(m, 2, 0.1, 0.0).tau_max, 128)


class TestAliasTables:
    def test_realized_law_within_total_variation_bound(self):
        m = OrderMeasure.single(1.5)
        for sampler in (SAMPLER, build_sampler(build_kernel(m, 2, 0.2, 0.01, trunc_radius=16))):
            law = _realized_law(sampler)
            n = sampler.n_outcomes
            tv = 0.5 * sum(abs(c / 2**64 - w) for c, w in zip(law, sampler.weights.tolist()))
            assert tv <= n * 2.0**-32

    def test_sweep_table_on_the_study_2d_kernel(self):
        sampler = build_sampler(_study_2d_kernel())
        assert sampler.n_outcomes == 51_433
        assert np.all((sampler.accept >= 0.0) & (sampler.accept <= 1.0))
        full = np.flatnonzero(sampler.accept == 1.0)
        np.testing.assert_array_equal(sampler.alias[full], full)
        np.testing.assert_allclose(
            sampler.induced_probabilities(), sampler.weights, rtol=0, atol=1e-13
        )

    @pytest.mark.parametrize("weights", [
        np.full(8, 1 / 8),                        # every slot exactly full
        np.array([0.25, 0.25, 0.125, 0.375]),     # full slots beside light and heavy
        np.array([1.0, 0.0, 0.0, 0.0, 0.0]),      # a frozen kernel
        np.full(10, np.nextafter(0.1, 0.0)),      # every N w rounds below 1
        np.random.default_rng(5).dirichlet(np.full(300, 0.2)),
    ])
    def test_sweep_table_on_edge_cases(self, weights):
        accept, alias = montecarlo._alias_table(weights)
        n = len(weights)
        assert np.all((accept >= 0.0) & (accept <= 1.0))
        full = np.flatnonzero(accept == 1.0)
        np.testing.assert_array_equal(alias[full], full)
        induced = accept / n
        np.add.at(induced, alias, (1.0 - accept) / n)
        np.testing.assert_allclose(induced, weights, rtol=0, atol=1e-15)

    def test_uint32_tables_match_the_float_table(self):
        # and the code table decodes to the alias and own displacements
        for sampler in (SAMPLER, *ENGINE_SAMPLERS.values()):
            assert sampler.threshold.dtype == np.uint32
            np.testing.assert_allclose(
                sampler.threshold / 2.0**32, sampler.accept, atol=2.0**-32
            )
            assert sampler.codes.dtype == np.int64
            np.testing.assert_array_equal(
                _decode(sampler, sampler.codes[0::2]), sampler.displacements[sampler.alias]
            )
            np.testing.assert_array_equal(
                _decode(sampler, sampler.codes[1::2]), sampler.displacements
            )

    def test_block_is_the_longest_carry_free_sum(self):
        # block_steps codes of the largest digit 2K still fit below the base
        for sampler in (SAMPLER, *ENGINE_SAMPLERS.values()):
            bits, largest = 63 // sampler.kernel.dim, 2 * sampler.kernel.trunc_radius
            assert sampler.block_steps * largest < 2**bits <= (sampler.block_steps + 1) * largest

    def test_walk_steps_are_sampler_draws_of_the_walker_window(self):
        # walker w of an n-step walk uses words [w W, w W + n) of the seed's
        # stream, W = 4 ceil(n / 4), drawn the same way as JumpSampler.sample
        n, walkers, window = 5, 300, 8
        ens = run_walks(SAMPLER, n, walkers, seed=19)
        outcomes = SAMPLER.sample(Generator(Philox(key=19)), walkers * window)
        steps = SAMPLER.displacements[outcomes.reshape(walkers, window)[:, :n]]
        np.testing.assert_array_equal(ens.lattice_positions, steps.sum(axis=1))


class TestWalkEngine:
    @pytest.mark.parametrize("small_tiles", [False, True])
    @pytest.mark.parametrize("threads", [1, 2, 7])
    @pytest.mark.parametrize("n_steps", [1, 3, 5, 4097])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_the_per_axis_walk(self, dim, n_steps, threads, small_tiles, monkeypatch):
        sampler = ENGINE_SAMPLERS[dim]
        walkers = 40
        if small_tiles:
            # a window over 14 words takes several tiles of 12 steps, and a
            # tile of more than 2 steps several carry-free blocks of 2
            monkeypatch.setattr(montecarlo, "_CHUNK_WORDS", 14)
            sampler = dataclasses.replace(sampler, block_steps=2)
            walkers = 12 if n_steps > 12 else walkers
        ens = run_walks(sampler, n_steps, walkers, seed=dim + 60, threads=threads)
        expected = per_axis_walk(sampler, n_steps, walkers, seed=dim + 60)
        np.testing.assert_array_equal(ens.lattice_positions, expected)

    def test_long_walk_memory_does_not_grow_with_steps(self):
        tracemalloc.start()
        try:
            run_walks(ENGINE_SAMPLERS[2], 10**7, 1, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestThreadPool:
    def test_pool_is_bounded_by_chunks_and_cores(self, monkeypatch):
        sizes = []

        class Recorder:
            # runs every task at submission, so no thread is ever started
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fut = Future()
                fut.set_result(fn(*args))
                return fut

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Recorder)
        n_steps, walkers = 13, 50_000
        chunks = -(-walkers // (montecarlo._CHUNK_WORDS // 16))
        base = run_walks(SAMPLER, n_steps, walkers, seed=41, threads=1)
        wide = run_walks(SAMPLER, n_steps, walkers, seed=41, threads=10_000)
        expected = min(chunks, os.cpu_count() or 1)
        assert sizes == ([expected] if expected > 1 else [])
        np.testing.assert_array_equal(base.lattice_positions, wide.lattice_positions)


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

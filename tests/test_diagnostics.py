import gc
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.random import Generator, Philox

from fracwalk import (
    DiffusionSymbol,
    LatticeDistribution,
    OrderMeasure,
    WalkEnsemble,
    build_kernel,
    build_sampler,
    evolve,
    green_density,
    histogram,
    run_walks,
    stability_sigma,
)
from fracwalk.diagnostics import (
    cf_sup_error,
    default_xi_grid,
    ks_distance,
    reference_cdf,
    refinement_study,
    resolve_run,
    total_variation,
)
from fracwalk import diagnostics, montecarlo
from fracwalk.montecarlo import Histogram
from oracles import ks_distance_by_norm, ks_distance_every_value, total_variation_dense

SINGLE = OrderMeasure.single(1.0)
SYM_1D = DiffusionSymbol(SINGLE, 1)


def _bench_kernel(h, theta=0.5, K=None):
    tau = theta * stability_sigma(SINGLE, 1, h, 0.0).tau_max
    K = K if K is not None else math.ceil(64 * (0.2 / h) ** 2)
    return build_kernel(SINGLE, 1, h, tau, trunc_radius=K), tau


class TestCfSupError:
    def test_zero_frequency_grid(self):
        k, tau = _bench_kernel(0.1)
        assert cf_sup_error(k, 5, SYM_1D, 5 * tau, [0.0]) == 0.0

    def test_zero_steps_zero_time(self):
        k, _ = _bench_kernel(0.1)
        assert cf_sup_error(k, 0, SYM_1D, 0.0, np.linspace(0, 10, 11)) == 0.0

    @pytest.mark.parametrize("n_steps", [-3, 2.5, True])
    def test_rejects_a_step_count_that_is_not_a_count(self, n_steps):
        k, _ = _bench_kernel(0.1)
        with pytest.raises(ValueError, match="n_steps"):
            cf_sup_error(k, n_steps, SYM_1D, 1.0, [0.0])

    def test_nyquist_rejection(self):
        k, _ = _bench_kernel(0.1)
        with pytest.raises(ValueError):
            cf_sup_error(k, 5, SYM_1D, 1.0, [0.0, math.pi / 0.1 + 1.0])

    def test_strictly_decreasing_along_mesh_refinement(self):
        xi = default_xi_grid(1, 10.0, 101)
        errs = []
        for h in (0.2, 0.1, 0.05):
            k, tau = _bench_kernel(h)
            n = math.ceil(1.0 / tau)
            errs.append(cf_sup_error(k, n, SYM_1D, 1.0, xi))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.05

    def test_time_refinement_at_fixed_mesh(self):
        # fixed h, tau = t/n: doubling n must not worsen the error
        h, t = 0.1, 1.0
        xi = default_xi_grid(1, 10.0, 51)
        K = 1024
        errors = {}
        for n in (16, 32):
            tau = t / n
            k = build_kernel(SINGLE, 1, h, tau, trunc_radius=K)
            errors[n] = cf_sup_error(k, n, SYM_1D, t, xi)
        assert errors[32] < errors[16]

    def test_nonnegative_and_zero_at_origin(self):
        k, tau = _bench_kernel(0.2)
        xi = np.linspace(0.0, 10.0, 11)
        err = cf_sup_error(k, 3, SYM_1D, 3 * tau, xi)
        assert err >= 0.0
        assert cf_sup_error(k, 3, SYM_1D, 3 * tau, [0.0]) == 0.0


def _synthetic_cauchy_ensemble(m, seed):
    # exact draws from the scale-1 Cauchy law, snapped to a very fine lattice
    rng = Generator(Philox(key=seed))
    x = np.tan(math.pi * (rng.random(m) - 0.5))
    h = 1e-7
    return WalkEnsemble(
        dim=1, h=h, tau=1.0, n_steps=1, n_walkers=m, seed=seed,
        lattice_positions=np.round(x / h).astype(np.int64)[:, None],
    )


class TestKsDistance:
    def test_self_test_against_exact_sampler(self):
        m = 20_000
        cauchy_cdf = lambda x: 0.5 + np.arctan(x) / math.pi
        below = 0
        for seed in range(10):
            ens = _synthetic_cauchy_ensemble(m, seed)
            if ks_distance(ens, cauchy_cdf) < 1.63 / math.sqrt(m):
                below += 1
        assert below >= 9  # 1.63/sqrt(M) is the 99th percentile of KS

    def test_point_mass_against_symmetric_law(self):
        ens = WalkEnsemble(
            dim=1, h=0.1, tau=0.1, n_steps=0, n_walkers=100, seed=0,
            lattice_positions=np.zeros((100, 1), dtype=np.int64),
        )
        cdf = lambda x: 0.5 + np.arctan(x) / math.pi
        assert ks_distance(ens, cdf) == pytest.approx(0.5, abs=1e-12)

    def test_cauchy_benchmark(self):
        k, tau = _bench_kernel(0.05)
        n = math.ceil(1.0 / tau)
        ens = run_walks(build_sampler(k), n, 100_000, seed=101)
        cdf = lambda x: 0.5 + np.arctan(x) / math.pi
        assert ks_distance(ens, cdf) <= 0.03

    def test_bounded_in_unit_interval(self):
        ens = run_walks(build_sampler(_bench_kernel(0.1)[0]), 5, 500, seed=4)
        d = ks_distance(ens, lambda x: 0.5 + np.arctan(x) / math.pi)
        assert 0.0 <= d <= 1.0

    def test_radial_projection(self):
        m2 = OrderMeasure.single(1.0)
        k = build_kernel(m2, 2, 0.2, 1e-3, trunc_radius=16)
        ens = run_walks(build_sampler(k), 10, 5_000, seed=9)
        # radial CDF of a nearly stationary walk concentrates near zero
        d = ks_distance(ens, lambda r: np.clip(r / 10.0, 0, 1))
        assert 0.0 <= d <= 1.0

    @pytest.mark.parametrize("measure, dim", [
        (OrderMeasure.single(1.0), 1),                    # closed-form Cauchy CDF
        (OrderMeasure.single(1.5), 1),                    # tabulated axis CDF
        (OrderMeasure(atoms=((0.7, 1.0), (1.4, 0.5))), 2),  # tabulated radial CDFs
        (OrderMeasure.single(1.2), 3),
    ])
    def test_distinct_values_match_every_value(self, measure, dim):
        # lattice walks tie heavily: few distinct values among the samples
        h = 0.2
        tau = 0.5 * stability_sigma(measure, dim, h, 0.0).tau_max
        k = build_kernel(measure, dim, h, tau, trunc_radius=8)
        n = math.ceil(0.5 / tau)
        ens = run_walks(build_sampler(k), n, 20_000, seed=dim)
        cdf = reference_cdf(measure, dim, n * tau)
        d = ks_distance(ens, cdf)
        assert d == ks_distance_every_value(ens, cdf)
        if dim > 1:  # the radii, bit for bit
            assert d == ks_distance_by_norm(ens, cdf)
        assert 0.0 < d < 1.0

    def test_census_runs_match_every_value_on_a_wide_span(self):
        # 2^41 sites: the census sorts instead of counting by bincount
        rng = np.random.default_rng(8)
        lattice = rng.choice([-(2**40), 0, 2**40], size=(3_000, 1)) + rng.integers(-50, 51, (3_000, 1))
        lattice.setflags(write=False)
        ens = WalkEnsemble(dim=1, h=1e-11, tau=0.01, n_steps=3, n_walkers=len(lattice),
                           seed=0, lattice_positions=lattice)
        cdf = lambda x: 0.5 + np.arctan(x / 10.0) / math.pi
        d = ks_distance(ens, cdf)
        assert d == ks_distance_every_value(ens, cdf)
        assert d == ks_distance(ens, cdf, census=ens.census())

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("span", [3, 5_000])
    def test_radii_are_those_of_np_linalg_norm(self, dim, span):
        # small spans tie heavily (sign flips, permutations, 3-4-5 triples);
        # a mesh width that is no power of two rounds every square
        rng = np.random.default_rng(10 * dim + span)
        lattice = rng.integers(-span, span + 1, size=(20_000, dim))
        tied = np.array([[3, 4, 0], [-4, 3, 0], [0, 5, 0], [5, 0, 0], [0, 0, 0], [1, 2, 2],
                         [2, -2, 1], [-3, 0, 0]])
        lattice[: len(tied)] = tied[:, :dim]
        lattice.setflags(write=False)
        ens = WalkEnsemble(dim=dim, h=0.037, tau=0.01, n_steps=3, n_walkers=len(lattice),
                           seed=0, lattice_positions=lattice)
        seen = []

        def cdf(r):
            seen.append(np.array(r))
            return np.clip(r / (0.037 * span * math.sqrt(dim)), 0.0, 1.0)

        d = ks_distance(ens, cdf)
        assert d == ks_distance_by_norm(ens, cdf)
        assert seen[0].tobytes() == seen[1].tobytes()  # the distinct radii, bit for bit
        if span == 3:
            assert len(seen[0]) < len(lattice) // 100  # heavily tied

    @pytest.mark.parametrize("dim", [2, 3])
    def test_radius_runs_match_np_unique(self, dim):
        # a span of 2 leaves a few dozen distinct radii among 50k walkers
        rng = np.random.default_rng(dim)
        lattice = rng.integers(-2, 3, size=(50_000, dim))
        lattice.setflags(write=False)
        ens = WalkEnsemble(dim=dim, h=0.037, tau=0.01, n_steps=3, n_walkers=len(lattice),
                           seed=0, lattice_positions=lattice)
        radii = np.zeros(len(lattice))
        for column in lattice.T * ens.h:  # ks_distance's order of operations
            radii += column * column
        values, counts = np.unique(np.sqrt(radii), return_counts=True)
        assert len(values) < 40
        f = np.sort(rng.uniform(size=len(values)))  # every run's count can set the sup
        seen = []

        def cdf(r):
            seen.append(np.array(r))
            return f

        end = np.cumsum(counts)
        expected = max(np.max(end / len(radii) - f), np.max(f - (end - counts) / len(radii)))
        assert ks_distance(ens, cdf) == expected
        assert seen[0].tobytes() == values.tobytes()

    def test_radii_are_freed_before_the_cdf(self):
        # 100k 2D walkers, about a third of their radii distinct: the radii and
        # the last squared column (16 B per walker) are gone before the CDF runs
        rng = np.random.default_rng(0)
        lattice = rng.integers(-300, 301, size=(100_000, 2))
        lattice.setflags(write=False)
        ens = WalkEnsemble(dim=2, h=0.1, tau=0.01, n_steps=3, n_walkers=len(lattice),
                           seed=0, lattice_positions=lattice)
        cdf = lambda r: np.clip(r / 60.0, 0.0, 1.0)
        tracemalloc.start()
        try:
            ks_distance(ens, cdf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 28 * len(lattice)  # 33.3 B per walker with both kept


class TestTotalVariation:
    def test_mc_agrees_with_master_equation(self, monkeypatch):
        k = build_kernel(SINGLE, 1, 0.1, 0.01, trunc_radius=64)
        s = build_sampler(k)
        # one step per draw (a one-site table budget), then the default
        # plan of two n / 2-step draws
        for budget in (1, montecarlo._TABLE_SITES):
            monkeypatch.setattr(montecarlo, "_TABLE_SITES", budget)
            for n in (8, 32):
                draws = sum(count for _, count in montecarlo._plan(s, n))
                assert draws == (n if budget == 1 else 2)
                dist = evolve(LatticeDistribution.delta(1, 0.1), k, n)
                ens = run_walks(s, n, 100_000, seed=424242)
                tv = total_variation(histogram(ens, bin_width=0.1), dist)
                assert tv <= 0.02

    def test_identical_laws_give_zero(self):
        k = build_kernel(SINGLE, 1, 0.1, 0.01, trunc_radius=8)
        dist = evolve(LatticeDistribution.delta(1, 0.1), k, 2)
        # build a fake histogram that matches the law exactly is awkward;
        # instead check TV of a law against itself through the public API
        ens = run_walks(build_sampler(k), 2, 50_000, seed=1)
        hist = histogram(ens, bin_width=0.1)
        assert total_variation(hist, dist) < 0.02

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_overlap_sum_matches_dense_overlay(self, dim):
        rng = np.random.default_rng(11 + dim)
        mass = rng.random((9,) * dim)
        law = LatticeDistribution(dim=dim, h=0.1, mass=mass / mass.sum())
        box = rng.integers(0, 50, size=(7,) * dim)
        occupied = np.argwhere(box > 0)  # C order
        counts = box[tuple(occupied.T)]
        # inside the law's box, sticking out of it on each side or on one
        # axis only, and beyond it
        origins = [np.full(dim, o) for o in (-2, -7, 1, 9, -20)] + [np.array([-2] * (dim - 1) + [3])]
        for origin in origins:
            hist = Histogram(dim=dim, bin_width=0.1, bins=occupied + origin,
                             counts=counts, n_samples=int(counts.sum()))
            expected = total_variation_dense(hist, law)
            assert total_variation(hist, law) == pytest.approx(expected, rel=0, abs=1e-15)
            if origin[0] in (9, -20):  # disjoint boxes
                assert expected == pytest.approx(1.0, rel=0, abs=1e-15)

    def test_bin_width_must_match_mesh(self):
        k = build_kernel(SINGLE, 1, 0.1, 0.01, trunc_radius=8)
        dist = evolve(LatticeDistribution.delta(1, 0.1), k, 1)
        ens = run_walks(build_sampler(k), 1, 100, seed=1)
        hist = histogram(ens, bin_width=0.2)
        with pytest.raises(ValueError):
            total_variation(hist, dist)


class TestReferenceCdf:
    def test_cauchy_law_in_closed_form(self):
        # weight 2 at t = 0.5 is the standard Cauchy law
        cdf = reference_cdf(OrderMeasure.single(1.0, 2.0), 1, 0.5)
        np.testing.assert_allclose(cdf(np.array([-1.0, 0.0, 1.0])), [0.25, 0.5, 0.75], rtol=1e-15)

    def test_other_laws_use_the_tabulated_density(self):
        m = OrderMeasure.single(1.5)
        xs = np.array([0.0, 0.7, 3.0])
        cdf = reference_cdf(m, 1, 1.0)
        np.testing.assert_array_equal(cdf(xs), green_density(DiffusionSymbol(m, 1), 1.0).axis_cdf(xs))
        cdf = reference_cdf(OrderMeasure.single(1.0), 2, 1.0)
        dens = green_density(DiffusionSymbol(OrderMeasure.single(1.0), 2), 1.0)
        np.testing.assert_array_equal(cdf(xs), dens.radial_cdf(xs))


class TestResolveRun:
    def test_defaults_tie_tau_to_the_stability_boundary(self):
        kernel, n, tau_max = resolve_run(SINGLE, 1, 0.1, 1.0, theta=0.25)
        assert tau_max == stability_sigma(SINGLE, 1, 0.1, 0.0).tau_max
        assert kernel.tau == 0.25 * tau_max and kernel.trunc_radius == 64
        assert n == math.ceil(1.0 / kernel.tau)

    def test_given_tau_n_and_radius_are_kept(self):
        kernel, n, _ = resolve_run(SINGLE, 1, 0.1, 1.0, tau=0.01, trunc_radius=8, n_steps=3)
        assert (kernel.tau, kernel.trunc_radius, n) == (0.01, 8, 3)
        assert resolve_run(SINGLE, 1, 0.1, 1.0, tau=0.01)[1] == 100

    def test_frozen_walk_takes_no_steps(self):
        kernel, n, _ = resolve_run(SINGLE, 1, 0.1, 1.0, tau=0.0)
        assert n == 0 and kernel.sigma == 0.0

    @pytest.mark.parametrize("t, tau", [(1.0, 1e-320), (1e300, 1e-10)])
    def test_step_count_past_float_range_raises(self, t, tau):
        with pytest.raises(ValueError) as err:
            resolve_run(SINGLE, 1, 0.1, t, tau=tau)
        assert f"t = {t!r}, tau = {tau!r}" in str(err.value)


class TestRefinementStudy:
    @pytest.mark.parametrize("build", ["kernel", "study"])
    def test_dropped_kernels_keep_no_site_tables(self, build):
        # a 3D K = 60 kernel's site tables take 27.6 MiB, and the last mesh of
        # this study has K = 32 (4.2 MiB); once dropped, nothing keeps them
        gc.collect()
        tracemalloc.start()
        try:
            if build == "kernel":
                build_kernel(SINGLE, 3, 0.5, 0.5 * stability_sigma(SINGLE, 3, 0.5, 0.0).tau_max, 60)
            else:
                refinement_study(OrderMeasure.single(0.7), 3, 0.5, [0.4, 0.2], walkers=500,
                                 seed=2, trunc_radius=8)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 2**20

    def test_holds_one_ensemble_at_a_time(self, monkeypatch):
        # each row's ensemble is freed before the next row walks
        made = []

        def run_walks_tracked(*args, **kwargs):
            assert all(ref() is None for ref in made)
            ensemble = run_walks(*args, **kwargs)
            made.append(weakref.ref(ensemble))
            return ensemble

        monkeypatch.setattr(diagnostics, "run_walks", run_walks_tracked)
        refinement_study(SINGLE, 1, 1.0, [0.4, 0.2, 0.1], walkers=2_000, seed=3)
        assert len(made) == 3 and all(ref() is None for ref in made)

    def test_single_row_matches_components(self):
        report = refinement_study(SINGLE, 1, 1.0, [0.1], walkers=20_000, seed=5)
        assert len(report.rows) == 1
        row = report.rows[0]
        tau = 0.5 * stability_sigma(SINGLE, 1, 0.1, 0.0).tau_max
        assert row.tau == pytest.approx(tau, rel=1e-12)
        assert row.n_steps == math.ceil(1.0 / tau)
        # reproduce cf metric exactly
        k = build_kernel(SINGLE, 1, 0.1, tau, trunc_radius=64)
        xi = default_xi_grid(1, 10.0, 101)
        assert row.cf_sup_error == pytest.approx(
            cf_sup_error(k, row.n_steps, SYM_1D, 1.0, xi), rel=1e-12
        )

    def test_time_consistency_invariant(self):
        report = refinement_study(SINGLE, 1, 1.0, [0.2, 0.1], walkers=5_000, seed=5)
        for row in report.rows:
            assert row.n_steps * row.tau >= 1.0
            assert row.n_steps * row.tau < 1.0 + row.tau
        hs = [row.h for row in report.rows]
        assert hs == sorted(hs, reverse=True)

    def test_benchmark_errors_decrease(self):
        report = refinement_study(
            SINGLE, 1, 1.0, [0.2, 0.1, 0.05], walkers=50_000, seed=7,
        )
        cf = [row.cf_sup_error for row in report.rows]
        assert cf[0] > cf[1] > cf[2]
        ks = [row.ks_distance for row in report.rows]
        assert all(k <= 0.05 for k in ks)

    @pytest.mark.parametrize("dim, h_list, anchor_K", [(1, [0.2, 0.1], 16), (2, [0.4, 0.2], 6)])
    def test_rows_follow_resolve_run(self, dim, h_list, anchor_K):
        report = refinement_study(
            SINGLE, dim, 0.5, h_list, walkers=100, seed=1, xi_points=11, trunc_radius=anchor_K,
        )
        for row in report.rows:
            K = math.ceil(anchor_K * (h_list[0] / row.h) ** 2)
            kernel, n, _ = resolve_run(SINGLE, dim, row.h, 0.5, trunc_radius=K)
            assert (row.tau, row.n_steps, row.tail_mass) == (kernel.tau, n, kernel.tail_mass)

    def test_rejects_bad_h_list(self):
        with pytest.raises(ValueError):
            refinement_study(SINGLE, 1, 1.0, [0.1, 0.2], walkers=100, seed=1)
        with pytest.raises(ValueError):
            refinement_study(SINGLE, 1, 1.0, [0.1], walkers=100, seed=1, theta=1.5)

    def test_multiterm_two_dimensional(self):
        m = OrderMeasure(atoms=[(0.8, 1.0), (1.6, 0.5)])
        report = refinement_study(
            m, 2, 0.5, [0.4, 0.2], walkers=20_000, seed=11, xi_points=51,
        )
        cf = [row.cf_sup_error for row in report.rows]
        assert cf[1] < cf[0]
        assert all(0.0 <= row.ks_distance <= 1.0 for row in report.rows)

    def test_serialization(self, tmp_path):
        report = refinement_study(SINGLE, 1, 0.5, [0.2], walkers=2_000, seed=3)
        jpath = tmp_path / "report.json"
        report.to_json(jpath)
        doc = json.loads(jpath.read_text())
        assert doc["rows"][0]["h"] == 0.2
        assert doc["measure"]["atoms"] == [[1.0, 1.0]]
        cpath = tmp_path / "report.csv"
        report.to_csv(cpath)
        lines = cpath.read_text().strip().splitlines()
        assert lines[0] == "h,tau,n_steps,cf_sup_error,ks_distance,tail_mass"
        assert len(lines) == 2


def test_cauchy_ks_at_stability_boundary():
    # the fully loaded scheme (no laziness) also converges in law
    h = 0.05
    tau_max = stability_sigma(SINGLE, 1, h, 0.0).tau_max
    n = math.ceil(1.0 / tau_max)
    k = build_kernel(SINGLE, 1, h, tau_max, trunc_radius=1024)
    ens = run_walks(build_sampler(k), n, 100_000, seed=515)
    cdf = lambda x: 0.5 + np.arctan(x / (n * tau_max)) / math.pi
    assert ks_distance(ens, cdf) <= 0.03

import json
import math

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
    total_variation,
)
from fracwalk.kernel import enumerate_shells
from oracles import ks_distance_every_value

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
        d = ks_distance(ens, lambda r: np.clip(r / 10.0, 0, 1), projection="radial")
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
        cdf, projection = reference_cdf(measure, dim, n * tau)
        d = ks_distance(ens, cdf, projection)
        assert d == ks_distance_every_value(ens, cdf, projection)
        assert 0.0 < d < 1.0

    def test_empty_and_bad_projection(self):
        ens = run_walks(build_sampler(_bench_kernel(0.1)[0]), 1, 10, seed=2)
        with pytest.raises(ValueError):
            ks_distance(ens, lambda x: x, projection="sideways")


class TestTotalVariation:
    def test_mc_agrees_with_master_equation(self):
        k = build_kernel(SINGLE, 1, 0.1, 0.01, trunc_radius=64)
        s = build_sampler(k)
        for n in (8, 32):
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
        cdf, projection = reference_cdf(OrderMeasure.single(1.0, 2.0), 1, 0.5)
        assert projection == "first"
        np.testing.assert_allclose(cdf(np.array([-1.0, 0.0, 1.0])), [0.25, 0.5, 0.75], rtol=1e-15)

    def test_other_laws_use_the_tabulated_density(self):
        m = OrderMeasure.single(1.5)
        xs = np.array([0.0, 0.7, 3.0])
        cdf, projection = reference_cdf(m, 1, 1.0)
        assert projection == "first"
        np.testing.assert_array_equal(cdf(xs), green_density(DiffusionSymbol(m, 1), 1.0).axis_cdf(xs))
        cdf, projection = reference_cdf(OrderMeasure.single(1.0), 2, 1.0)
        assert projection == "radial"
        dens = green_density(DiffusionSymbol(OrderMeasure.single(1.0), 2), 1.0)
        np.testing.assert_array_equal(cdf(xs), dens.radial_cdf(xs))


class TestRefinementStudy:
    def test_shell_cache_stays_bounded(self):
        # each mesh of a study enumerates a larger cube; only the last few stay cached
        refinement_study(SINGLE, 1, 0.5, [0.2, 0.1, 0.05], walkers=500, seed=2)
        info = enumerate_shells.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize <= 4

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

    def test_rejects_bad_h_list(self):
        with pytest.raises(ValueError):
            refinement_study(SINGLE, 1, 1.0, [0.1, 0.2], walkers=100, seed=1)
        with pytest.raises(ValueError):
            refinement_study(SINGLE, 1, 1.0, [0.1], walkers=100, seed=1, theta=1.5)

    def test_multiterm_two_dimensional(self):
        m = OrderMeasure.from_atoms([(0.8, 1.0), (1.6, 0.5)])
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

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracwalk import (
    OrderMeasure,
    StabilityError,
    build_kernel,
    lattice_zeta,
    norming_constant,
    stability_sigma,
)
from fracwalk.kernel import enumerate_shells, surface_area
from oracles import (
    lattice_zeta_partial,
    lattice_zeta_tail_bound,
    normalization_defect,
    q_coefficient,
)

SINGLE = OrderMeasure.single(1.0)

# frozen once from 40-digit evaluation of the closed form
# 0.5*G(1/4)*G(5/4)*sin(pi/4) / (2^1.5 * pi^2)
B_HALF_DIM2 = 0.04162099193771253


class TestNormingConstant:
    def test_alpha_two_vanishes(self):
        for dim in (1, 2, 3):
            assert norming_constant(2.0, dim) == 0.0

    def test_one_dimensional_cauchy_value(self):
        assert norming_constant(1.0, 1) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)

    def test_frozen_half_exponent_two_dimensional(self):
        assert norming_constant(0.5, 2) == pytest.approx(B_HALF_DIM2, rel=1e-14)

    def test_positive_inside_interval(self):
        for alpha in np.linspace(0.05, 1.95, 20):
            for dim in (1, 2, 3):
                assert norming_constant(float(alpha), dim) > 0.0

    @pytest.mark.parametrize("alpha", [0.0, -1.0, 2.1])
    def test_domain_errors(self, alpha):
        with pytest.raises(ValueError):
            norming_constant(alpha, 1)

    def test_one_dimensional_closed_form(self):
        # in one dimension the duplication identity collapses the product of
        # gammas: b(alpha) = Gamma(alpha+1) sin(alpha pi / 2) / (2 pi)
        for alpha in (0.3, 0.9, 1.4, 1.9):
            simple = math.gamma(alpha + 1.0) * math.sin(alpha * math.pi / 2) / (2 * math.pi)
            assert norming_constant(alpha, 1) == pytest.approx(simple, rel=1e-14)


class TestLatticeZeta:
    def test_matches_riemann_zeta_in_one_dimension(self):
        assert lattice_zeta(1.0, 1) == pytest.approx(math.pi**2 / 3.0, abs=1e-13)
        ref = float(2 * mp.zeta(1.5))
        assert lattice_zeta(0.5, 1) == pytest.approx(ref, abs=1e-13)

    def test_monotone_decreasing_in_alpha(self):
        assert lattice_zeta(1.5, 1) < lattice_zeta(0.5, 1)
        assert lattice_zeta(1.2, 2) < lattice_zeta(0.4, 2)

    def test_partial_sums_bracket_the_value(self):
        for alpha, dim in [(0.5, 1), (1.0, 2), (1.3, 3)]:
            full = lattice_zeta(alpha, dim)
            prev = 0.0
            for K in (4, 8, 16):
                part = lattice_zeta_partial(alpha, dim, K)
                bound = lattice_zeta_tail_bound(alpha, dim, K)
                assert part > prev  # monotone in K
                assert part <= full <= part + bound
                prev = part

    def test_one_dimensional_partial_sum_oracle(self):
        # brute-force oracle: 2 * sum_{m<=K} m^-(1+alpha)
        for alpha in (0.5, 1.0):
            K = 50
            oracle = 2.0 * sum(m ** -(1.0 + alpha) for m in range(1, K + 1))
            assert lattice_zeta_partial(alpha, 1, K) == pytest.approx(oracle, rel=1e-14)

    def test_brute_force_agreement_in_higher_dimensions(self):
        for alpha, dim, K in [(1.0, 2, 80), (1.5, 3, 30)]:
            part = lattice_zeta_partial(alpha, dim, K)
            bound = lattice_zeta_tail_bound(alpha, dim, K)
            assert abs(lattice_zeta(alpha, dim) - part) <= bound

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            lattice_zeta(2.5, 1)
        with pytest.raises(ValueError):
            lattice_zeta(1.0, 4)


class TestShells:
    def test_counts_one_dimension(self):
        sh = enumerate_shells(1, 5)
        assert sh.multiplicity.tolist() == [2] * 5
        assert sh.norm_sq.tolist() == [1, 4, 9, 16, 25]

    def test_euclidean_cutoff(self):
        sh = enumerate_shells(2, 3)
        assert sh.norm_sq.max() <= 9
        # (3, 1) has |k|^2 = 10 > 9 and must be excluded
        assert 10 not in sh.norm_sq.tolist()

    def test_multiplicities_two_dimensions(self):
        sh = enumerate_shells(2, 5)
        mult = dict(zip(sh.norm_sq.tolist(), sh.multiplicity.tolist()))
        assert mult[1] == 4
        assert mult[2] == 4
        assert mult[25] == 12  # (5,0)x4 and (3,4)x8

    def test_deterministic_enumeration(self):
        a = enumerate_shells(3, 6)
        b = enumerate_shells(3, 6)
        assert np.array_equal(a.sites, b.sites)

    def test_surface_areas(self):
        assert surface_area(1) == pytest.approx(2.0)
        assert surface_area(2) == pytest.approx(2 * math.pi)
        assert surface_area(3) == pytest.approx(4 * math.pi)


class TestQCoefficient:
    def test_single_atom_closed_form(self):
        assert q_coefficient([1], SINGLE, 0.1) == pytest.approx(5.0 / math.pi, rel=1e-14)
        assert q_coefficient([2], SINGLE, 0.1) == pytest.approx(2.5 / math.pi, rel=1e-14)

    def test_additive_in_the_measure(self):
        m1 = OrderMeasure.single(0.7, 2.0)
        m2 = OrderMeasure.single(1.4, 0.5)
        both = OrderMeasure(atoms=m1.atoms + m2.atoms)
        k, h = [3], 0.2
        assert q_coefficient(k, both, h) == pytest.approx(
            q_coefficient(k, m1, h) + q_coefficient(k, m2, h), rel=1e-14
        )

    def test_depends_only_on_norm(self):
        m = OrderMeasure(atoms=[(0.6, 1.0), (1.7, 0.3)])
        assert q_coefficient([3, 4], m, 0.1) == pytest.approx(
            q_coefficient([5, 0], m, 0.1), rel=1e-14
        )
        assert q_coefficient([1, 2, 2], m, 0.1) == pytest.approx(
            q_coefficient([3, 0, 0], m, 0.1), rel=1e-14
        )

    def test_rejects_origin(self):
        with pytest.raises(ValueError):
            q_coefficient([0], SINGLE, 0.1)


class TestStabilitySigma:
    def test_benchmark_value(self):
        rep = stability_sigma(SINGLE, 1, 0.1, 0.01)
        assert rep.sigma == pytest.approx(0.01 * math.pi / 0.3, rel=1e-12)

    def test_zero_tau(self):
        assert stability_sigma(SINGLE, 1, 0.1, 0.0).sigma == 0.0

    def test_tau_max_closed_form(self):
        rep = stability_sigma(SINGLE, 1, 0.1, 0.01)
        assert rep.tau_max == pytest.approx(0.3 / math.pi, rel=1e-12)

    def test_sigma_at_tau_max_is_one(self):
        for measure in (SINGLE, OrderMeasure(atoms=[(0.8, 1.0), (1.6, 0.5)])):
            for dim, h in [(1, 0.1), (2, 0.25)]:
                tau_max = stability_sigma(measure, dim, h, 0.0).tau_max
                assert stability_sigma(measure, dim, h, tau_max).sigma == pytest.approx(
                    1.0, abs=1e-10
                )

    def test_contributions_sum_to_sigma(self):
        m = OrderMeasure(atoms=[(0.5, 1.0), (1.0, 2.0), (1.5, 0.25)])
        rep = stability_sigma(m, 2, 0.2, 0.001)
        assert sum(c for _, c in rep.contributions) == pytest.approx(rep.sigma, abs=1e-12)
        assert len(rep.contributions) == 3


class TestBuildKernel:
    def test_benchmark_probabilities(self):
        k = build_kernel(SINGLE, 1, 0.1, 0.01, trunc_radius=64)
        assert k.p0 == pytest.approx(0.8952802, abs=1e-7)
        # formula values before the tail renormalization
        assert k.shell_prob_raw[0] == pytest.approx(0.02 * 5.0 / math.pi, rel=1e-14)
        sites, p = k.shells.sites[:, 0], k.site_probabilities
        assert p[sites == 1] == p[sites == -1]

    def test_nan_tau_is_rejected(self):
        with pytest.raises(ValueError, match="tau"):
            build_kernel(SINGLE, 1, 0.1, math.nan)

    @pytest.mark.parametrize("K", [2.7, True, "5"])
    def test_trunc_radius_must_be_a_positive_integer(self, K):
        with pytest.raises(ValueError, match="trunc_radius"):
            build_kernel(SINGLE, 1, 0.1, 0.01, trunc_radius=K)

    def test_zero_tau_never_moves(self):
        k = build_kernel(SINGLE, 1, 0.1, 0.0, trunc_radius=8)
        assert k.p0 == 1.0
        assert np.all(k.shell_prob == 0.0)

    def test_normalization(self):
        k = build_kernel(SINGLE, 1, 0.1, 0.05, trunc_radius=64)
        assert normalization_defect(k) <= 1e-12

    def test_stability_boundary_laziness_vanishes(self):
        tau_max = stability_sigma(SINGLE, 1, 0.1, 0.0).tau_max
        k = build_kernel(SINGLE, 1, 0.1, tau_max, trunc_radius=32)
        assert 0.0 <= k.p0 <= 1e-10

    def test_unstable_tau_raises_with_tau_max(self):
        tau_max = stability_sigma(SINGLE, 1, 0.1, 0.0).tau_max
        with pytest.raises(StabilityError) as err:
            build_kernel(SINGLE, 1, 0.1, 2 * tau_max)
        assert err.value.tau_max == pytest.approx(tau_max, rel=1e-12)

    def test_atomic_measure_additivity(self):
        a1, a2 = (0.7, 1.2), (1.5, 0.4)
        both = build_kernel(OrderMeasure(atoms=[a1, a2]), 1, 0.1, 0.002, trunc_radius=16)
        one = build_kernel(OrderMeasure(atoms=[a1]), 1, 0.1, 0.002, trunc_radius=16)
        two = build_kernel(OrderMeasure(atoms=[a2]), 1, 0.1, 0.002, trunc_radius=16)
        np.testing.assert_allclose(
            both.shell_prob_raw, one.shell_prob_raw + two.shell_prob_raw, rtol=1e-14
        )
        assert both.p0 == pytest.approx(1.0 - (one.sigma + two.sigma), abs=1e-14)

    def test_doubling_tau_doubles_raw_probabilities(self):
        k1 = build_kernel(SINGLE, 1, 0.1, 0.01, trunc_radius=32)
        k2 = build_kernel(SINGLE, 1, 0.1, 0.02, trunc_radius=32)
        np.testing.assert_allclose(k2.shell_prob_raw, 2.0 * k1.shell_prob_raw, rtol=1e-15)

    def test_radial_symmetry_exhaustive(self):
        m = OrderMeasure(atoms=[(0.9, 1.0), (1.8, 0.2)])
        for dim, K in [(2, 10), (3, 6)]:
            k = build_kernel(m, dim, 0.2, 1e-4, trunc_radius=K)
            per_site = k.site_probabilities
            nsq = k.shells.norm_sq[k.shells.site_shell]
            for q in np.unique(nsq):
                vals = per_site[nsq == q]
                assert np.all(vals == vals[0])

    def test_equal_norm_cross_shell_sites(self):
        k = build_kernel(SINGLE, 2, 0.2, 1e-3, trunc_radius=8)
        assert k.orthant()[5, 0] == pytest.approx(k.orthant()[3, 4], rel=1e-15)

    def test_tail_renormalization_restores_total_mass(self):
        # tiny K -> meaningful tail, still exactly normalized with p0 = 1 - sigma
        k = build_kernel(SINGLE, 1, 0.1, 0.01, trunc_radius=2)
        assert k.tail_mass > 0.0
        assert normalization_defect(k) <= 1e-12
        assert k.p0 == pytest.approx(1.0 - k.sigma, abs=1e-15)

    def test_tail_warning_flag(self):
        assert build_kernel(SINGLE, 1, 0.1, 0.01, trunc_radius=2).tail_warning
        assert not build_kernel(SINGLE, 1, 0.1, 0.01, trunc_radius=64).tail_warning

    def test_json_schema(self):
        k = build_kernel(SINGLE, 1, 0.1, 0.01, trunc_radius=4)
        doc = k.to_json_dict()
        assert set(doc) >= {"dim", "h", "tau", "K", "sigma", "tail_mass", "shells"}
        assert doc["K"] == 4
        assert all(
            set(s) == {"norm_sq", "prob_per_site", "multiplicity"} for s in doc["shells"]
        )
        total = doc["p0"] + sum(s["prob_per_site"] * s["multiplicity"] for s in doc["shells"])
        assert total == pytest.approx(1.0, abs=1e-12)


@st.composite
def measures(draw):
    n_atoms = draw(st.integers(1, 3))
    atoms = [
        (
            draw(st.floats(0.05, 1.95, exclude_min=True)),
            draw(st.floats(0.1, 3.0)),
        )
        for _ in range(n_atoms)
    ]
    return OrderMeasure(atoms=atoms)


class TestKernelProperties:
    @settings(max_examples=30, deadline=None)
    @given(measures(), st.sampled_from([0.05, 0.1, 0.25]), st.floats(0.05, 1.0))
    def test_normalization_and_laziness(self, measure, h, theta):
        tau = theta * stability_sigma(measure, 1, h, 0.0).tau_max
        k = build_kernel(measure, 1, h, tau, trunc_radius=24)
        assert normalization_defect(k) <= 1e-12
        assert k.p0 == pytest.approx(1.0 - k.sigma, abs=1e-12)
        assert np.all(k.shell_prob >= 0.0)

    @settings(max_examples=15, deadline=None)
    @given(measures(), st.sampled_from([1, 2]))
    def test_cf_bounds(self, measure, dim):
        tau = 0.5 * stability_sigma(measure, dim, 0.2, 0.0).tau_max
        k = build_kernel(measure, dim, 0.2, tau, trunc_radius=10)
        xi = np.linspace(0.0, 10.0, 21)
        grid = np.zeros((len(xi), dim))
        grid[:, 0] = xi
        vals = k.cf(grid)
        assert np.all(np.abs(vals) <= 1.0 + 1e-12)
        assert vals[0] == pytest.approx(1.0, abs=1e-14)


GOLDEN_K2 = {
    "dim": 1,
    "h": 0.1,
    "tau": 0.01,
    "K": 2,
    "sigma": 0.10471975511965977,
    "tail_mass": 0.025142283573712093,
    "tail_warning": True,
    "p0": 0.8952802448803402,
    "shells": [
        {"norm_sq": 1, "prob_per_site": 0.041887902047863905, "multiplicity": 2},
        {"norm_sq": 4, "prob_per_site": 0.010471975511965976, "multiplicity": 2},
    ],
}


def test_kernel_json_golden():
    doc = build_kernel(SINGLE, 1, 0.1, 0.01, trunc_radius=2).to_json_dict()
    for key in ("dim", "h", "tau", "K", "tail_warning"):
        assert doc[key] == GOLDEN_K2[key]
    for key in ("sigma", "tail_mass", "p0"):
        assert doc[key] == pytest.approx(GOLDEN_K2[key], rel=1e-12)
    assert len(doc["shells"]) == 2
    for got, want in zip(doc["shells"], GOLDEN_K2["shells"]):
        assert got["norm_sq"] == want["norm_sq"]
        assert got["multiplicity"] == want["multiplicity"]
        assert got["prob_per_site"] == pytest.approx(want["prob_per_site"], rel=1e-12)


def test_trunc_radius_enumeration_guard():
    with pytest.raises(ValueError):
        enumerate_shells(3, 400)


@pytest.mark.parametrize("h", [1.0e300, 1.0e-300, 1.0e-310])
def test_stability_sigma_names_h_when_h_to_alpha_overflows(h):
    with pytest.raises(ValueError, match="h = "):
        stability_sigma(OrderMeasure.single(1.5), 2, h, 0.0)

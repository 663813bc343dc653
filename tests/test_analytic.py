import math

import numpy as np
import pytest
from scipy.integrate import quad

from fracwalk import (
    DiffusionSymbol,
    OrderMeasure,
    RadialDensity,
    green_density,
    symbol_oracle,
)
from fracwalk import analytic
from fracwalk.analytic import _cumulative_mass, default_radial_grid
from oracles import (
    cauchy_density,
    forward_cf,
    gaussian_density,
    green_cf,
    green_density_quad,
    symbol_eval,
    symbol_per_term,
    tail_mass_per_term,
)

CAUCHY_1D = DiffusionSymbol(OrderMeasure.single(1.0), 1)
# the 34-term measure of the density benchmark: 32 density nodes and 2 atoms
MIXED = OrderMeasure.with_density(
    lambda a: np.ones_like(a), 0.5, 1.5, atoms=[(0.8, 1.0), (1.6, 0.5)]
)


class TestSymbol:
    def test_zero_frequency(self):
        assert symbol_eval(CAUCHY_1D, 0.0) == 0.0
        assert symbol_eval(DiffusionSymbol(OrderMeasure.single(0.5), 3), [0, 0, 0]) == 0.0

    def test_single_atom_unit(self):
        assert symbol_eval(CAUCHY_1D, 1.0) == pytest.approx(-1.0)
        assert symbol_eval(CAUCHY_1D, -1.0) == pytest.approx(-1.0)

    def test_two_atom_arithmetic(self):
        sym = DiffusionSymbol(OrderMeasure.from_atoms([(0.5, 1.0), (1.5, 2.0)]), 1)
        want = -(math.sqrt(2.0) + 2.0 * 2.0**1.5)
        assert symbol_eval(sym, 2.0) == pytest.approx(want, rel=1e-14)
        assert want == pytest.approx(-7.0710678, abs=1e-7)

    def test_radial_dependence(self):
        sym = DiffusionSymbol(OrderMeasure.from_atoms([(0.7, 1.0), (1.9, 0.1)]), 3)
        assert symbol_eval(sym, [1.0, 2.0, 2.0]) == pytest.approx(
            symbol_eval(sym, [3.0, 0.0, 0.0]), rel=1e-14
        )

    def test_negative_away_from_origin(self):
        sym = DiffusionSymbol(OrderMeasure.from_atoms([(0.3, 0.5), (1.2, 1.5)]), 2)
        for q in (0.01, 1.0, 40.0):
            assert sym.radial(q) < 0.0


    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("measure", [MIXED, OrderMeasure.single(0.7)], ids=["mixed", "one-atom"])
    def test_radial_matches_the_per_term_powers(self, dim, measure):
        sym = DiffusionSymbol(measure, dim)
        rho = np.concatenate([[0.0], np.geomspace(1e-8, 1e30, 761)])
        got = sym.radial(rho)
        assert got[0] == 0.0
        np.testing.assert_allclose(got, symbol_per_term(sym, rho), rtol=1e-13, atol=0)
        assert sym.radial(-2.0) == sym.radial(2.0)

    @pytest.mark.parametrize("dim", [True, 0, 4, 1.0, "1"])
    def test_rejects_a_dimension_outside_1_to_3(self, dim):
        with pytest.raises(ValueError, match="^dim must"):
            DiffusionSymbol(CAUCHY_1D.measure, dim)


class TestGreenCF:
    def test_time_zero(self):
        assert green_cf(CAUCHY_1D, 0.0, 3.0) == pytest.approx(1.0)

    def test_cauchy_point(self):
        assert green_cf(CAUCHY_1D, 1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_semigroup_product_rule(self):
        sym = DiffusionSymbol(OrderMeasure.from_atoms([(0.9, 1.0), (1.4, 0.2)]), 2)
        for xi in ([0.5, 0.0], [2.0, 1.0]):
            a = green_cf(sym, 0.7, xi) * green_cf(sym, 1.6, xi)
            assert green_cf(sym, 2.3, xi) == pytest.approx(a, rel=1e-14)

    def test_bounded_by_one(self):
        sym = DiffusionSymbol(OrderMeasure.single(1.7), 1)
        vals = np.exp(2.0 * sym.radial(np.linspace(0, 50, 101)))
        assert np.all(vals <= 1.0) and np.all(vals >= 0.0)


class TestClosedForms:
    def test_gaussian_peak(self):
        assert gaussian_density(1.0, 0.0, 1) == pytest.approx((4 * math.pi) ** -0.5, rel=1e-14)

    def test_gaussian_mass_by_quadrature(self):
        val, _ = quad(lambda x: gaussian_density(0.7, x, 1), -np.inf, np.inf)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_gaussian_symmetry(self):
        for x in (0.3, 1.7):
            assert gaussian_density(2.0, x, 1) == gaussian_density(2.0, -x, 1)

    def test_cauchy_peak_values(self):
        assert cauchy_density(1.0, 0.0, 1) == pytest.approx(1.0 / math.pi, rel=1e-14)
        assert cauchy_density(2.0, 0.0, 1) == pytest.approx(1.0 / (2 * math.pi), rel=1e-14)

    def test_cauchy_inverse_transform_oracle(self):
        # the t-bearing form must match (1/2pi) int exp(-t|xi|) exp(i x xi) dxi
        for t, x in [(1.0, 0.0), (2.0, 0.0), (1.0, 1.3), (0.5, -0.4)]:
            ref = (1.0 / math.pi) * quad(
                lambda q: math.exp(-t * q) * math.cos(q * x), 0, np.inf, limit=200
            )[0]
            assert cauchy_density(t, x, 1) == pytest.approx(ref, abs=1e-9)

    def test_cauchy_mass_by_arctan(self):
        val, _ = quad(lambda x: cauchy_density(1.0, x, 1), -np.inf, np.inf)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_cauchy_higher_dimensional_mass(self):
        # radial quadrature with the surface factor
        from fracwalk.kernel import surface_area

        for dim in (2, 3):
            val, _ = quad(
                lambda r: surface_area(dim) * r ** (dim - 1) * cauchy_density(1.0, [r] + [0.0] * (dim - 1), dim),
                0,
                np.inf,
                limit=400,
            )
            assert val == pytest.approx(1.0, abs=1e-7)

    def test_time_validation(self):
        with pytest.raises(ValueError):
            gaussian_density(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            cauchy_density(-1.0, 1.0, 1)


class TestGreenDensity:
    def test_matches_cauchy_in_all_dimensions(self):
        r = np.linspace(0.0, 10.0, 101)
        for dim in (1, 2, 3):
            sym = DiffusionSymbol(OrderMeasure.single(1.0), dim)
            dens = green_density(sym, 1.0, r)
            exact = np.array([cauchy_density(1.0, [x] + [0.0] * (dim - 1), dim) for x in r])
            assert np.max(np.abs(dens.values - exact)) <= 1e-6

    def test_peak_values(self):
        dens = green_density(CAUCHY_1D, 1.0, [0.0, 1.0])
        assert dens.values[0] == pytest.approx(1.0 / math.pi, abs=1e-6)
        assert dens.values[1] == pytest.approx(1.0 / (2 * math.pi), abs=1e-6)

    def test_self_similarity(self):
        for alpha, t in [(0.7, 0.5), (1.3, 2.0)]:
            sym = DiffusionSymbol(OrderMeasure.single(alpha), 1)
            r = np.linspace(0.0, 6.0, 31)
            scaled = green_density(sym, t, r).values
            base = green_density(sym, 1.0, r * t ** (-1.0 / alpha)).values
            assert np.max(np.abs(scaled - t ** (-1.0 / alpha) * base)) <= 1e-6

    def test_matches_reference_stable_density(self):
        # independent oracle: the stable law implemented in scipy
        from scipy.stats import levy_stable

        for alpha in (0.6, 1.5):
            sym = DiffusionSymbol(OrderMeasure.single(alpha), 1)
            r = np.array([0.0, 0.5, 1.0, 3.0])
            ours = green_density(sym, 1.0, r).values
            ref = levy_stable.pdf(r, alpha, 0)
            np.testing.assert_allclose(ours, ref, atol=1e-8)

    def test_mixed_measure_mass(self):
        m = OrderMeasure.with_density(
            lambda a: np.ones_like(a), 0.5, 1.5, atoms=[(0.8, 1.0), (1.6, 0.5)]
        )
        sym = DiffusionSymbol(m, 1)
        grid = np.concatenate([[0.0], np.geomspace(2e-4, 2000.0, 400)])
        dens = green_density(sym, 1.0, grid)
        assert dens.mass() == pytest.approx(1.0, abs=1e-3)

    def test_positivity_on_default_grid(self):
        sym = DiffusionSymbol(OrderMeasure.from_atoms([(0.6, 1.0), (1.8, 1.0)]), 1)
        dens = green_density(sym, 0.5, default_radial_grid(sym, 0.5, 128))
        assert np.all(dens.values >= -1e-8)

    def test_forward_transform_recovers_cf(self):
        sym = DiffusionSymbol(OrderMeasure.single(1.5), 1)
        grid = np.concatenate([[0.0], np.geomspace(1e-3, 400.0, 300)])
        dens = green_density(sym, 1.0, grid)
        xi = np.linspace(0.0, 5.0, 21)
        got = forward_cf(dens, xi)
        want = np.exp(sym.radial(xi))
        assert np.max(np.abs(got - want)) <= 1e-4

    def test_two_dimensional_fft_cross_check(self):
        # N-dimensional FFT of the Green CF as an independent inversion path
        sym = DiffusionSymbol(OrderMeasure.single(1.2), 2)
        L, n = 40.0, 1024
        dxi = 2 * L / n
        freqs = np.fft.fftfreq(n, d=1.0 / (n * dxi))
        gx, gy = np.meshgrid(freqs, freqs, indexing="ij")
        cf = np.exp(sym.radial(np.hypot(gx, gy)))
        grid_density = np.fft.fft2(cf).real * (dxi / (2 * math.pi)) ** 2
        x = np.fft.fftfreq(n, d=dxi / (2 * math.pi))
        dens = green_density(sym, 1.0, np.abs(x[:5]))
        for i in range(5):
            assert grid_density[i, 0] == pytest.approx(dens.values[i], abs=5e-4)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_off_a_geometric_grid_matches_scipy_quad(self, dim):
        # every radius takes the panel quadrature: one integrand for all N,
        # McMahon's edges in 2D, and at r = 15 the Aitken tail
        sym = DiffusionSymbol(OrderMeasure.single(0.6), dim)
        r = np.array([0.0, 0.3, 1.3, 4.0, 15.0])
        assert analytic._smooth_panels(sym, 1.0)[0][-1] * r[-1] / math.pi > 2000
        dens = green_density(sym, 1.0, r)
        want = [green_density_quad(sym, 1.0, x) for x in r]
        np.testing.assert_allclose(dens.values, want, rtol=0, atol=1e-12)

    def test_requires_positive_time(self):
        with pytest.raises(ValueError):
            green_density(CAUCHY_1D, 0.0, [0.0, 1.0])

    @pytest.mark.parametrize(
        "bad, name",
        [
            ({"t": math.nan}, "t"),
            ({"t": math.inf}, "t"),
            ({"t": -1.0}, "t"),
            ({"r_grid": [0.0, 1.0, math.inf]}, "r_grid"),
            ({"r_grid": [0.0, math.nan, 1.0]}, "r_grid"),
            ({"r_grid": [0.0, 2.0, 1.0]}, "r_grid"),
            ({"tol": math.nan}, "tol"),
            ({"tol": 0.0}, "tol"),
        ],
    )
    def test_rejects_bad_arguments_by_name(self, bad, name):
        with pytest.raises(ValueError, match=f"^{name} must"):
            green_density(CAUCHY_1D, **{"t": 1.0, "r_grid": [0.0, 1.0], **bad})

    @pytest.mark.parametrize("r_grid", [[], np.empty(0), [[0.0, 1.0], [2.0, 3.0]], 1.0])
    def test_rejects_empty_or_shaped_grids_by_name(self, r_grid):
        with pytest.raises(ValueError, match="^r_grid must"):
            green_density(CAUCHY_1D, 1.0, r_grid)

    @pytest.mark.parametrize("bad, name", [
        ({"t": math.nan}, "t"), ({"t": math.inf}, "t"), ({"t": 0.0}, "t"), ({"t": -1.0}, "t"),
        ({"points": 2.5}, "points"), ({"points": 2.0}, "points"), ({"points": False}, "points"),
        ({"r_max": math.nan}, "r_max"), ({"r_max": math.inf}, "r_max"),
        ({"r_max": 0.0}, "r_max"), ({"r_max": -5.0}, "r_max"),
    ])
    def test_default_grid_rejects_bad_arguments_by_name(self, bad, name):
        with pytest.raises(ValueError, match=f"^{name} must"):
            default_radial_grid(CAUCHY_1D, **{"t": 1.0, "points": 16, **bad})

    @pytest.mark.parametrize("points", [1, 0, -3, True])
    def test_default_grid_needs_two_points(self, points):
        with pytest.raises(ValueError, match="^points must"):
            default_radial_grid(CAUCHY_1D, 1.0, points)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("t", [0.05, 1.0, 20.0])
    def test_default_grid_and_mass_match_the_per_term_tail_mass(self, monkeypatch, dim, t):
        sym = DiffusionSymbol(MIXED, dim)
        got = default_radial_grid(sym, t)
        table = (got, np.exp(-got), np.zeros_like(got))
        dens = RadialDensity(dim=dim, t=t, r=got, values=table[1], measure=MIXED, table=table)
        got_mass = dens.mass()
        monkeypatch.setattr(
            analytic, "_tail_mass", lambda m, d, t: lambda r: tail_mass_per_term(m, d, t, r)
        )
        assert np.array_equal(got, default_radial_grid(sym, t))
        assert got[-1] > 50.0 * t ** (1.0 / sym.alpha_min)  # the bisection set r_max
        assert got_mass == dens.mass()
        assert got_mass == (
            _cumulative_mass(got, table[1], dim)[-1] + tail_mass_per_term(MIXED, dim, t, got[-1])
        )

    @pytest.mark.parametrize("t", [1e8, 1e10])
    def test_cutoff_below_1e_6_keeps_the_panel_count(self, t):
        # P was clamped at 1e-6, and the decay refinement then spent panels
        # in proportion to t: 2930 at t = 1e8, 309961 at t = 1e10
        sym = DiffusionSymbol(OrderMeasure.single(0.7), 1)
        edges, _ = analytic._smooth_panels(sym, t)
        assert len(edges) - 1 <= 64
        assert edges[-1] < 1e-6

    @pytest.mark.parametrize("alpha, t", [(0.5, 1e6), (0.7, 1e8)])
    def test_default_grid_leaves_the_tail_target_past_1e12(self, alpha, t):
        # the tail radius was bisected on [1, 1e12] only, and the first-order
        # tail law beyond 1e12 carried up to 27% of the mass (1.0062, 1.00096)
        sym = DiffusionSymbol(OrderMeasure.single(alpha), 1)
        grid = default_radial_grid(sym, t)
        assert analytic._tail_mass(sym.measure, 1, t)(grid[-1]) <= analytic._TAIL_TARGET
        assert green_density(sym, t, grid).mass() == pytest.approx(1.0, abs=1e-4)

    def test_default_grid_takes_each_norming_constant_once(self, monkeypatch):
        calls = []
        real = analytic.norming_constant
        monkeypatch.setattr(analytic, "norming_constant", lambda a, d: calls.append(a) or real(a, d))
        default_radial_grid(DiffusionSymbol(MIXED, 2), 1.0)
        assert 0 < len(calls) <= len(MIXED.terms)

    def test_tolerance_failure_raises(self):
        from fracwalk import QuadratureError

        with pytest.raises(QuadratureError) as err:
            green_density(CAUCHY_1D, 1.0, np.linspace(0, 5, 11), tol=1e-18)
        assert err.value.estimate > 1e-18


class TestRadialDensity:
    def test_interpolation_between_nodes(self):
        r = np.linspace(0.0, 10.0, 201)
        dens = green_density(CAUCHY_1D, 1.0, r)
        probe = np.array([0.37, 1.234, 7.77])
        exact = np.array([cauchy_density(1.0, x, 1) for x in probe])
        np.testing.assert_allclose(dens.density(probe), exact, rtol=1e-4)

    def test_tail_density_beyond_grid(self):
        r = np.linspace(0.0, 30.0, 301)
        dens = green_density(CAUCHY_1D, 1.0, r)
        probe = np.array([50.0, 120.0])
        exact = np.array([cauchy_density(1.0, x, 1) for x in probe])
        np.testing.assert_allclose(dens.density(probe), exact, rtol=2e-3)

    def test_cauchy_mass_and_cdf(self):
        grid = np.concatenate([[0.0], np.geomspace(1e-3, 900.0, 400)])
        dens = green_density(CAUCHY_1D, 1.0, grid)
        assert dens.mass() == pytest.approx(1.0, abs=2e-4)
        xs = np.array([-5.0, -1.0, 0.0, 0.3, 2.0, 40.0])
        want = 0.5 + np.arctan(xs) / math.pi
        np.testing.assert_allclose(dens.axis_cdf(xs), want, atol=2e-4)

    def test_radial_cdf_three_dimensional(self):
        sym = DiffusionSymbol(OrderMeasure.single(1.0), 3)
        grid = np.concatenate([[0.0], np.geomspace(1e-3, 500.0, 300)])
        dens = green_density(sym, 1.0, grid)
        # oracle: radial quadrature of the closed-form Cauchy density
        from fracwalk.kernel import surface_area

        for r_stop in (0.5, 2.0, 10.0):
            ref, _ = quad(
                lambda s: surface_area(3) * s * s * cauchy_density(1.0, [s, 0, 0], 3),
                0.0,
                r_stop,
            )
            assert dens.radial_cdf(r_stop) == pytest.approx(ref, abs=5e-6)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.1, 0.2, 0.5])
    def test_core_cell_meets_the_certified_cdf(self, alpha, dim):
        # at small alpha the first radius lies outside G's flat core, and the
        # core cell's quadratic model put mass 154 within it (alpha 0.1, 1D):
        # the CDF was 1 up to r1 and 0.0946 just above it
        dens = green_density(DiffusionSymbol(OrderMeasure.single(alpha), dim), 1.0)
        r1, c1 = dens.table[0][1], dens.table[2][1]
        r = np.concatenate([np.linspace(0.0, r1, 201), np.geomspace(r1, 10.0 * r1, 201)])
        cdf = dens.radial_cdf(r)
        assert cdf[0] == 0.0 and np.all(np.diff(cdf) >= 0.0)
        around = dens.radial_cdf(r1 * np.array([1.0 - 1e-9, 1.0, 1.0 + 1e-9]))
        np.testing.assert_allclose(around, c1, rtol=1e-6)

    @pytest.mark.parametrize("alpha, dim", [(0.1, 2), (0.1, 3), (0.2, 3)])
    def test_mass_past_the_certified_density(self, alpha, dim):
        # far out G's table lies below its own error estimate (96.8, 2.2e15
        # and 1.1e-5 here): integrating it there gave -6.5e7, -8.8e24, 15.07
        dens = green_density(DiffusionSymbol(OrderMeasure.single(alpha), dim), 1.0)
        assert dens.mass() == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize(
        "alpha, dim", [(0.1, 2), (0.1, 3), (0.2, 3), (0.7, 3), (1.0, 3), (1.4, 3), (1.9, 3)]
    )
    def test_radial_cdf_never_decreases(self, alpha, dim):
        # the Hermite slopes omega G r^N took uncertified, negative G far out;
        # near the 3D core the CDF table itself dips by up to 1.5e-10
        dens = green_density(DiffusionSymbol(OrderMeasure.single(alpha), dim), 1.0)
        tr = dens.table[0]
        cdf = dens.radial_cdf(np.geomspace(tr[1], tr[-1], 20_001))
        assert np.all(np.diff(cdf) >= 0.0)

    def test_positivity_floor_enforced(self):
        with pytest.raises(ValueError):
            RadialDensity(
                dim=1, t=1.0, r=np.array([0.0, 1.0]),
                values=np.array([0.5, -1e-6]), measure=OrderMeasure.single(1.0),
            )

    def test_values_must_match_the_radii(self):
        with pytest.raises(ValueError, match="shape"):
            RadialDensity(
                dim=1, t=1.0, r=[0.0, 1.0, 2.0, 3.0],
                values=[0.3, 0.2], measure=OrderMeasure.single(1.0),
            )

    def test_is_immutable(self):
        dens = green_density(CAUCHY_1D, 1.0, np.linspace(0, 5, 21))
        with pytest.raises(AttributeError):
            dens.t = 2.0
        with pytest.raises(AttributeError):
            dens._cumulative = None
        with pytest.raises(ValueError):
            dens.values[0] = 0.0

    def test_csv_and_json_export(self, tmp_path):
        dens = green_density(CAUCHY_1D, 1.0, np.linspace(0, 5, 21))
        path = tmp_path / "d.csv"
        dens.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "r,G"
        assert len(lines) == 22
        jpath = tmp_path / "d.json"
        dens.to_json(jpath)
        import json

        doc = json.loads(jpath.read_text())
        assert doc["dim"] == 1 and doc["t"] == 1.0
        assert doc["measure"]["atoms"] == [[1.0, 1.0]]
        assert len(doc["G"]) == 21


class TestSymbolOracle:
    def test_zero_frequency(self):
        assert symbol_oracle(1.0, 1, 0.0) == 0.0

    def test_unit_cases(self):
        assert symbol_oracle(1.0, 1, 1.0) == pytest.approx(-1.0, abs=1e-6)
        assert symbol_oracle(1.0, 1, 2.0) == pytest.approx(-2.0, abs=1e-6)

    def test_full_matrix(self):
        # the load-bearing check on the norming constant
        for alpha in (0.5, 1.0, 1.5):
            for dim in (1, 2, 3):
                for q in (0.5, 1.0, 2.0):
                    got = symbol_oracle(alpha, dim, q)
                    want = -(q**alpha)
                    assert abs(got - want) / abs(want) <= 1e-6, (alpha, dim, q)

    def test_vector_argument(self):
        got = symbol_oracle(0.8, 2, [3.0, 4.0])
        assert got == pytest.approx(-(5.0**0.8), rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.5, 1.5, 1.9])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("q", [1e-160, 1e-100, 1e100])
    def test_extreme_frequencies_keep_full_relative_accuracy(self, alpha, dim, q):
        # integrated at unit frequency and scaled by |xi|^alpha once
        want = -(q**alpha)
        assert abs(symbol_oracle(alpha, dim, q) - want) <= 1e-14 * abs(want)

    def test_large_vector_norm_is_taken_without_squaring(self):
        got = symbol_oracle(1.0, 2, [3e200, 4e200])
        assert got == pytest.approx(-5e200, rel=1e-14)

    @pytest.mark.parametrize("alpha, q", [(1.9, 1e-300), (1.5, 1e-250), (1.9, 1e200), (1.0, 1e-310)])
    def test_power_outside_the_normal_floats_is_rejected(self, alpha, q):
        with pytest.raises(ValueError, match=r"^xi must have \|xi\|\^alpha a normal float"):
            symbol_oracle(alpha, 1, q)

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            symbol_oracle(2.0, 1, 1.0)
        with pytest.raises(ValueError):
            symbol_oracle(0.0, 1, 1.0)

    @pytest.mark.parametrize(
        "bad, name",
        [
            ({"xi": math.nan}, "xi"),
            ({"xi": math.inf}, "xi"),
            ({"xi": [1.0, -math.inf]}, "xi"),
            ({"dim": 4}, "dim"),
            ({"dim": True}, "dim"),
            ({"tol": math.nan}, "tol"),
            ({"tol": -1e-7}, "tol"),
        ],
    )
    def test_rejects_bad_arguments_by_name(self, bad, name):
        with pytest.raises(ValueError, match=f"^{name} must"):
            symbol_oracle(**{"alpha": 1.5, "dim": 1, "xi": 1.0, **bad})


def test_j0_zero_asymptote_matches_scipy():
    from scipy import special
    from fracwalk.analytic import _j0_mcmahon

    exact = special.jn_zeros(0, 600)
    approx = _j0_mcmahon(np.arange(520, 601, dtype=float))
    np.testing.assert_allclose(approx, exact[519:600], rtol=1e-13)


def test_symbol_oracle_tolerance_failure():
    from fracwalk import QuadratureError

    with pytest.raises(QuadratureError) as err:
        symbol_oracle(0.5, 1, 1.0, tol=1e-30)
    assert err.value.estimate > 1e-30

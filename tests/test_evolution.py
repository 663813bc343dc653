import json
import math
import tracemalloc

import numpy as np
import pytest

from fracwalk import (
    LatticeDistribution,
    OrderMeasure,
    build_kernel,
    characteristic_function,
    evolution,
    evolve,
    stability_sigma,
)
from fracwalk import kernel as kernel_module
from fracwalk import montecarlo
from fracwalk.evolution import TAIL_EPSILON
from oracles import (
    convolution_power,
    direct_convolve,
    even_in_every_coordinate,
    kernel_distribution,
    walk_tail,
)

KERNEL = build_kernel(OrderMeasure.single(1.0), 1, 0.1, 0.01, trunc_radius=16)


def _cut_radius(start, kernel, n):
    """The box evolve keeps: the start's radius plus the walk's certified
    reach, less one (at least K, so that the circle holds the kernel)."""
    reach = evolution._tail_reach(kernel, n)[0]
    return max(start.support_radius + reach - 1, kernel.trunc_radius)


def _inner(mass, r):
    """The centred cube of radius r of a centred cube."""
    c = mass.shape[0] // 2
    return mass[(slice(c - r, c + r + 1),) * mass.ndim]


def _mass_outside(mass, r):
    """Mass of a centred cube outside its centred cube of radius r, summed
    from the outside entries themselves."""
    out = mass.copy()
    _inner(out, r)[...] = 0.0
    return out.sum()


def _marginal(kernel):
    """The kernel's first-axis marginal on -K..K, summed from its mass cube."""
    return kernel.mass_cube().sum(axis=tuple(range(1, kernel.dim)))


def test_two_step_cf_is_square_of_one_step():
    q = kernel_distribution(KERNEL)
    two = evolve(q, KERNEL, 1)
    xi = np.linspace(-20.0, 20.0, 41)
    cf1 = characteristic_function(q, xi)
    cf2 = characteristic_function(two, xi)
    np.testing.assert_allclose(cf2, cf1**2, atol=1e-10)


def test_mismatched_mesh_rejected():
    q = LatticeDistribution.delta(1, 0.2)
    with pytest.raises(ValueError):
        evolve(q, KERNEL, 1)


def test_step_from_delta_reproduces_kernel():
    out = evolve(LatticeDistribution.delta(1, 0.1), KERNEL, 1)
    assert out.time_index == 1
    assert out.value([0]) == pytest.approx(KERNEL.p0, abs=1e-15)
    for k in (1, -1, 5):
        assert out.value([k]) == pytest.approx(KERNEL.prob([k]), abs=1e-15)


def test_step_with_frozen_kernel_is_identity():
    frozen = build_kernel(OrderMeasure.single(1.0), 1, 0.1, 0.0, trunc_radius=8)
    d = evolve(LatticeDistribution.delta(1, 0.1), KERNEL, 1)
    out = evolve(d, frozen, 1)
    np.testing.assert_array_equal(out.mass, d.mass)
    assert out.time_index == d.time_index + 1


def test_mass_conserved_over_many_steps():
    d = LatticeDistribution.delta(1, 0.1)
    d = evolve(d, KERNEL, 64)
    assert d.time_index == 64
    assert d.total_mass() == pytest.approx(1.0, abs=1e-10)
    assert np.all(d.mass >= 0.0)


def test_cf_factorization_over_64_steps():
    one = evolve(LatticeDistribution.delta(1, 0.1), KERNEL, 1)
    xi = np.linspace(0.0, 10.0, 26)
    base = characteristic_function(one, xi)
    # the one-step law's CF is the kernel CF evaluated with the mesh factor
    np.testing.assert_allclose(base.real, KERNEL.cf(xi), atol=1e-14)
    np.testing.assert_allclose(base.imag, 0.0, atol=1e-14)
    d = LatticeDistribution.delta(1, 0.1)
    for n in (1, 7, 31, 64):
        dn = evolve(LatticeDistribution.delta(1, 0.1), KERNEL, n)
        np.testing.assert_allclose(
            characteristic_function(dn, xi), base**n, atol=1e-8
        )


def test_cf_trivial_values():
    d = LatticeDistribution.delta(1, 0.1)
    assert characteristic_function(d, [0.0])[0] == pytest.approx(1.0)
    assert np.allclose(characteristic_function(d, np.linspace(-5, 5, 7)), 1.0)
    one = evolve(d, KERNEL, 1)
    vals = characteristic_function(one, np.linspace(0, 30, 16))
    assert np.allclose(vals.imag, 0.0, atol=1e-14)  # symmetric law
    assert np.all(np.abs(vals) <= 1.0 + 1e-14)
    assert characteristic_function(one, [0.0])[0].real == pytest.approx(1.0, abs=1e-12)


def test_evolved_law_symmetric():
    for n in (5, 3000):  # the Chernoff cut is active at 3000 steps
        d = evolve(LatticeDistribution.delta(1, 0.1), KERNEL, n)
        np.testing.assert_allclose(d.mass, d.mass[::-1], atol=1e-16)


def test_zero_steps_keep_the_law_and_negative_steps_are_rejected():
    d = evolve(LatticeDistribution.delta(1, 0.1), KERNEL, 1)
    same = evolve(d, KERNEL, 0)
    np.testing.assert_array_equal(same.mass, d.mass)
    assert same.time_index == d.time_index and same.mass_deficit == d.mass_deficit
    with pytest.raises(ValueError, match="nonnegative"):
        evolve(d, KERNEL, -1)


def test_step_count_must_be_an_integer():
    d = LatticeDistribution.delta(1, 0.1)
    for n_steps in (2.5, 3.0, True, "3", None):
        with pytest.raises(ValueError, match="n_steps"):
            evolve(d, KERNEL, n_steps)
    out = evolve(d, KERNEL, np.int64(5))
    assert type(out.time_index) is int and out.time_index == 5
    np.testing.assert_array_equal(out.mass, evolve(d, KERNEL, 5).mass)


def test_truncation_tracks_deficit():
    d = LatticeDistribution.delta(1, 0.1)
    out = evolve(d, KERNEL, 40)
    r = _cut_radius(d, KERNEL, 40)
    assert out.support_radius == r < 40 * 16  # the Chernoff cut is active
    ref = d.mass
    for _ in range(40):
        ref = direct_convolve(ref, KERNEL.mass_cube())
    assert _mass_outside(ref, r) <= TAIL_EPSILON  # the exact mass beyond the cut
    assert abs(out.mass_deficit) < 1e-11  # FFT noise
    assert out.total_mass() + out.mass_deficit == pytest.approx(1.0, abs=1e-12)


def _even_start(dim, side, seed, h=0.1):
    """A random law on a cube of ``side`` sites per axis, made even in every
    coordinate by adding its mirror image along each axis in turn."""
    mass = even_in_every_coordinate(np.random.default_rng(seed).random((side,) * dim))
    return LatticeDistribution(dim=dim, h=h, mass=mass / mass.sum())


@pytest.mark.parametrize("given", ["writable", "view", "read-only after a view was taken"])
def test_a_callers_array_is_copied_once_read_only(given):
    owner = _even_start(1, 7, 3).mass.copy()
    handle = owner[:]  # a writable view the caller keeps
    if given == "read-only after a view was taken":
        owner.setflags(write=False)  # handle stays writable
    d = LatticeDistribution(dim=1, h=0.1, mass=handle if given == "view" else owner)
    kept = d.mass.copy()
    handle[3] = 7.0
    np.testing.assert_array_equal(d.mass, kept)
    assert not d.mass.flags.writeable


def test_integer_mass_is_converted_by_its_one_copy():
    sites = np.zeros(100_001, dtype=np.int64)
    sites[50_000] = 1
    peak = _peak_bytes(LatticeDistribution, dim=1, h=0.1, mass=sites)
    assert peak < 1.25 * 8 * sites.size  # one float64 copy, not two


def test_evolved_mass_is_kept_read_only_uncopied():
    d = evolve(LatticeDistribution.delta(1, 0.1), KERNEL, 3)
    assert d.mass.flags.owndata and not d.mass.flags.writeable
    assert evolve(d, KERNEL, 0).mass is d.mass


def test_one_site_start_of_other_mass_scales_the_law():
    k = _master_eq_kernel()
    unit = evolve(LatticeDistribution.delta(2, 0.2), k, 9)
    for m in (0.3, 2.5):
        d = evolve(LatticeDistribution(dim=2, h=0.2, mass=np.array([[m]])), k, 9)
        np.testing.assert_allclose(d.mass, m * unit.mass, rtol=0, atol=1e-17 * m)
        assert d.total_mass() + d.mass_deficit == pytest.approx(m, rel=0, abs=1e-14)


# circles of 400, 75 and 25 nodes per axis: odd sides too, where the half
# grid has no Nyquist node
@pytest.mark.parametrize("dim, h, K, n", [(1, 0.1, 16, 12), (2, 0.2, 11, 3), (3, 0.2, 3, 3)])
def test_evolve_matches_direct_convolution(dim, h, K, n):
    m = OrderMeasure.single(1.3)
    k = build_kernel(m, dim, h, 0.5 * stability_sigma(m, dim, h, 0.0).tau_max, K)
    cube = k.mass_cube()
    for start in (LatticeDistribution.delta(dim, h), _even_start(dim, 7, dim, h)):
        ref = start.mass
        for _ in range(n):
            ref = direct_convolve(ref, cube)
        d = evolve(start, k, n)
        r = _cut_radius(start, k, n)
        assert d.support_radius == r and _mass_outside(ref, r) <= TAIL_EPSILON
        np.testing.assert_allclose(d.mass, _inner(ref, r), rtol=0, atol=1e-15)
        assert d.total_mass() + d.mass_deficit == pytest.approx(1.0, rel=0, abs=1e-13)


@pytest.mark.parametrize("dim, h, K", [(1, 0.1, 16), (2, 0.2, 11), (3, 0.2, 3)])
def test_start_uneven_in_one_coordinate_is_rejected(dim, h, K):
    m = OrderMeasure.single(1.3)
    k = build_kernel(m, dim, h, 0.5 * stability_sigma(m, dim, h, 0.0).tau_max, K)
    even = _even_start(dim, 5, dim, h)
    evolve(even, k, 3)  # accepted
    for axis in range(dim):
        mass = even.mass.copy()
        np.moveaxis(mass, axis, 0)[0] *= 1.5  # even in every other coordinate still
        start = LatticeDistribution(dim=dim, h=h, mass=mass)
        for n in (0, 3):
            with pytest.raises(ValueError, match="even in every coordinate"):
                evolve(start, k, n)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cf_of_a_law_uneven_in_one_coordinate_is_rejected(dim):
    even = _even_start(dim, 5, dim)
    xi = np.ones((3, dim))
    assert characteristic_function(even, xi).dtype == np.float64
    for axis in range(dim):
        mass = even.mass.copy()
        np.moveaxis(mass, axis, 0)[0] *= 1.5  # even in every other coordinate still
        with pytest.raises(ValueError, match="even in every coordinate"):
            characteristic_function(LatticeDistribution(dim=dim, h=0.1, mass=mass), xi)


@pytest.mark.parametrize("dim, h, K, a, b", [(1, 0.1, 16, 5, 7), (2, 0.2, 11, 2, 3), (3, 0.2, 3, 3, 2)])
def test_evolving_an_evolved_law_composes_the_steps(dim, h, K, a, b):
    m = OrderMeasure.single(1.3)
    k = build_kernel(m, dim, h, 0.5 * stability_sigma(m, dim, h, 0.0).tau_max, K)
    start = LatticeDistribution.delta(dim, h)
    twice, once = evolve(evolve(start, k, a), k, b), evolve(start, k, a + b)
    assert twice.time_index == once.time_index == a + b
    r = min(twice.support_radius, once.support_radius)
    np.testing.assert_allclose(_inner(twice.mass, r), _inner(once.mass, r), rtol=0, atol=1e-15)


def test_two_dimensional_step():
    m = OrderMeasure.single(1.2)
    k = build_kernel(m, 2, 0.2, 1e-3, trunc_radius=6)
    d = evolve(LatticeDistribution.delta(2, 0.2), k, 3)
    assert d.total_mass() == pytest.approx(1.0, abs=1e-10)
    # invariance under k -> -k
    np.testing.assert_allclose(d.mass, d.mass[::-1, ::-1], atol=1e-16)


def test_csv_and_json_round_trip(tmp_path):
    d = evolve(LatticeDistribution.delta(1, 0.1), KERNEL, 1)
    csv_path = tmp_path / "dist.csv"
    d.to_csv(csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "j1,mass"
    assert len(lines) == 1 + len(d.nonzero_sites()[0])

    json_path = tmp_path / "dist.json"
    d.to_json(json_path)
    doc = json.loads(json_path.read_text())
    assert doc["dim"] == 1 and doc["h"] == 0.1 and doc["time_index"] == 1
    assert sum(doc["mass"]) == pytest.approx(1.0, abs=1e-12)


def test_wrap_bound_accumulates_and_is_written(tmp_path):
    bound = evolution._tail_reach(KERNEL, 64)[1]
    start = LatticeDistribution.delta(1, 0.1)
    once = evolve(start, KERNEL, 64)
    twice = evolve(once, KERNEL, 64)
    assert start.wrap_bound == 0.0 and 0.0 < once.wrap_bound == bound
    assert twice.wrap_bound == pytest.approx(2 * bound, rel=1e-12)
    once.to_json(tmp_path / "law.json")
    assert json.loads((tmp_path / "law.json").read_text())["wrap_bound"] == once.wrap_bound


def _master_eq_kernel():
    m = OrderMeasure.single(1.5)
    return build_kernel(m, 2, 0.2, 0.5 * stability_sigma(m, 2, 0.2, 0.0).tau_max, 16)


def test_fft_power_matches_step_loop():
    k = _master_eq_kernel()
    n = 27
    d0 = LatticeDistribution.delta(2, 0.2)
    d = evolve(d0, k, n)
    ref, cube = d0.mass, k.mass_cube()
    for _ in range(n):
        ref = direct_convolve(ref, cube)
    assert d.time_index == n and d.tau == k.tau
    assert ref.shape[0] // 2 == n * 16 and d.support_radius == _cut_radius(d0, k, n) == 105
    assert _mass_outside(ref, d.support_radius) <= TAIL_EPSILON
    np.testing.assert_allclose(d.mass, _inner(ref, d.support_radius), rtol=0, atol=1e-15)
    assert d.total_mass() + d.mass_deficit == pytest.approx(1.0, abs=1e-12)
    rho = np.array([0.5, 2.0, 5.0])
    xi = np.vstack([np.column_stack([rho, 0 * rho]), np.column_stack([rho, rho]) / np.sqrt(2)])
    np.testing.assert_allclose(characteristic_function(d, xi), k.cf(xi) ** n, rtol=0, atol=1e-10)


def test_fft_power_clips_once_and_counts_mass_outside_box():
    n = 3000
    start = LatticeDistribution.delta(1, 0.1)
    d = evolve(start, KERNEL, n)
    cut = _cut_radius(start, KERNEL, n)
    assert d.support_radius == cut < n * 16 and abs(d.mass_deficit) < 1e-11  # FFT noise
    # the walk's exact mass beyond the cut box
    assert 2 * walk_tail(_marginal(KERNEL), n, cut + 1) <= TAIL_EPSILON
    assert d.total_mass() + d.mass_deficit == pytest.approx(1.0, rel=0, abs=1e-12)


def test_cauchy_walk_law_keeps_the_whole_certified_box():
    # the cauchy_walk benchmark's kernel: its certified box, far wider than
    # 4096 sites, comes back whole, so the deficit is FFT noise
    m = OrderMeasure.single(1.0)
    k = build_kernel(m, 1, 0.025, 0.5 * stability_sigma(m, 1, 0.025, 0.0).tau_max, 4096)
    n, start = 84, LatticeDistribution.delta(1, 0.025)
    assert math.ceil(1.0 / k.tau) == n
    d = evolve(start, k, n)
    assert d.support_radius == _cut_radius(start, k, n) == 18594
    assert abs(d.mass_deficit) <= 1e-11


def test_fft_power_conserves_mass_on_a_large_grid():
    # a 10,071-site box (the full support has 420,001), where clamping the FFT
    # noise at 0 adds 1.6e-14 of mass
    k = build_kernel(OrderMeasure.single(1.0), 1, 0.1, 0.01, trunc_radius=1000)
    start = LatticeDistribution.delta(1, 0.1)
    cut = _cut_radius(start, k, 210)
    assert 2 * walk_tail(_marginal(k), 210, cut + 1) <= TAIL_EPSILON  # exact mass beyond the cut
    d = evolve(start, k, 210)
    assert d.support_radius == cut and np.all(d.mass >= 0.0)
    assert d.total_mass() + d.mass_deficit == pytest.approx(1.0, rel=0, abs=1e-12)


def test_small_budget_gives_the_free_walk(monkeypatch):
    n = 600
    free = evolve(LatticeDistribution.delta(1, 0.1), KERNEL, n)
    # too small for the full support (19201 sites), large enough for the
    # circle of the certified reach
    monkeypatch.setattr(evolution, "MEMORY_BUDGET_BYTES", 60_000)
    d = evolve(LatticeDistribution.delta(1, 0.1), KERNEL, n)
    assert evolution._fft_bytes(n * 16, 1) > evolution.MEMORY_BUDGET_BYTES
    np.testing.assert_allclose(d.mass, free.mass, rtol=0, atol=1e-15)
    assert d.time_index == n and d.tau == KERNEL.tau
    assert d.support_radius == _cut_radius(LatticeDistribution.delta(1, 0.1), KERNEL, n)
    assert d.total_mass() + d.mass_deficit == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.6, 1.0, 1.5])
@pytest.mark.parametrize("dim, h, K, n", [(1, 0.1, 16, 40), (2, 0.2, 8, 10), (3, 0.2, 3, 8)])
def test_tail_bound_never_under_reports(dim, h, K, n, alpha):
    m = OrderMeasure.single(alpha)
    k = build_kernel(m, dim, h, 0.5 * stability_sigma(m, dim, h, 0.0).tau_max, K)
    reach, bound = evolution._tail_reach(k, n)
    assert reach <= n * K and bound <= TAIL_EPSILON  # the cut is active in every case
    # the exact tail of the n-fold first-axis marginal, one half-axis of 2N
    power = np.array([1.0])
    for _ in range(n):
        power = np.convolve(power, _marginal(k))
    assert power[n * K + reach :].sum() <= bound / (2 * dim)
    assert walk_tail(_marginal(k), n, reach) == pytest.approx(power[n * K + reach :].sum(), rel=1e-9)
    cube = k.mass_cube()
    for start in (LatticeDistribution.delta(dim, h), _even_start(dim, 7, dim, h)):
        ref = start.mass
        for _ in range(n):
            ref = direct_convolve(ref, cube)
        d = evolve(start, k, n)
        assert d.support_radius == _cut_radius(start, k, n)
        np.testing.assert_allclose(d.mass, _inner(ref, d.support_radius), rtol=0, atol=1e-15)
        assert _mass_outside(ref, d.support_radius) <= TAIL_EPSILON
        assert d.wrap_bound == pytest.approx(bound, rel=1e-15) and d.wrap_bound <= TAIL_EPSILON


def test_reach_inside_the_kernel_keeps_the_kernel_on_the_circle():
    # at tau = 1e-15 one step leaves the origin by 16 sites with less than
    # eps / 2 probability, so the reach (16) is below K + 1 and the circle
    # is sized for the kernel's cube instead
    k = build_kernel(OrderMeasure.single(1.0), 1, 0.1, 1e-15, trunc_radius=16)
    reach, bound = evolution._tail_reach(k, 1)
    assert reach <= 16 and 0.0 < bound <= TAIL_EPSILON
    d = evolve(LatticeDistribution.delta(1, 0.1), k, 1)
    assert d.support_radius == 16 and d.wrap_bound == bound
    np.testing.assert_allclose(d.mass, k.mass_cube(), rtol=0, atol=1e-15)


def test_master_eq_reach_against_the_exact_tail():
    k, n = _master_eq_kernel(), 27
    reach, bound = evolution._tail_reach(k, n)
    power = np.array([1.0])
    for _ in range(n):
        power = np.convolve(power, _marginal(k))
    exact = power[n * 16 + reach :].sum()  # P(S_1 >= 106), S_1 the first coordinate
    assert reach == 106 and exact == pytest.approx(8.37e-19, rel=1e-3)
    assert exact <= bound / 4 <= TAIL_EPSILON / 4


@pytest.mark.parametrize("alpha", [0.6, 1.0, 1.5])
@pytest.mark.parametrize("dim, h, K, n", [(1, 0.1, 16, 40), (2, 0.2, 8, 10), (3, 0.2, 3, 8)])
def test_table_tail_bound_never_under_reports(dim, h, K, n, alpha):
    # the walk's m-step tables keep the box the bound certifies at 2^-41:
    # the exact mass beyond it, summed directly, is at most that, and
    # evolve's own box, certified at TAIL_EPSILON, holds it
    eps = montecarlo._TABLE_EPSILON
    m = OrderMeasure.single(alpha)
    k = build_kernel(m, dim, h, 0.5 * stability_sigma(m, dim, h, 0.0).tau_max, K)
    reach, bound = evolution._tail_reach(k, n, eps=eps)
    assert reach <= n * K and bound <= eps
    power = np.array([1.0])
    for _ in range(n):
        power = np.convolve(power, _marginal(k))
    assert power[n * K + reach :].sum() <= bound / (2 * dim)
    exact = convolution_power(k, n)
    box = max(reach - 1, K)
    assert _mass_outside(exact, box) <= eps
    assert evolution._tail_reach(k, n) == evolution._tail_reach(k, n, eps=TAIL_EPSILON)
    assert evolve(LatticeDistribution.delta(dim, h), k, n).support_radius >= box


def _benchmark_kernel(measure, dim, h, K, tau=None):
    tau = 0.5 * stability_sigma(measure, dim, h, 0.0).tau_max if tau is None else tau
    return build_kernel(measure, dim, h, tau, K)


# the benchmark tables' kernels and step counts: cauchy_walk's 42 steps,
# master_eq_2d's 14 and 13, study_2d's 3 at h = 0.2, and a 3D kernel's 3 and 4
TABLE_CASES = [
    (_benchmark_kernel(OrderMeasure.single(1.0), 1, 0.025, 4096), (42, 84)),
    (_benchmark_kernel(OrderMeasure.single(1.5), 2, 0.2, 16), (13, 14, 27)),
    (_benchmark_kernel(OrderMeasure(atoms=((0.7, 1.0), (1.4, 0.5))), 2, 0.2, 32), (3, 21)),
    (_benchmark_kernel(OrderMeasure.single(1.5), 3, 0.2, 6, 0.005), (3, 4, 27)),
]


@pytest.mark.parametrize("case, radii", zip(TABLE_CASES, [
    (17060, 18594), (88, 90, 105), (95, 209), (17, 21, 33),
]))
def test_evolve_radii_do_not_follow_the_table_box(case, radii):
    # evolve keeps TAIL_EPSILON: its boxes are those of stream 0.6.0
    k, steps = case
    start = LatticeDistribution.delta(k.dim, k.h)
    assert tuple(evolve(start, k, n).support_radius for n in steps) == radii


@pytest.mark.parametrize("case, boxes", zip(TABLE_CASES, [
    {42: 13680}, {13: 73, 14: 74}, {3: 93}, {3: 16, 4: 18},
]))
def test_table_box_against_the_exact_tail(case, boxes):
    # the 2^-41 box of each table: per half-axis, the exact tail of the walk's
    # first coordinate beyond it, by exponential tilting, is at most 2^-41
    # over the 2N half-axes
    k, eps = case[0], montecarlo._TABLE_EPSILON
    for n, box in boxes.items():
        reach, bound = evolution._tail_reach(k, n, eps=eps)
        assert max(reach - 1, k.trunc_radius) == box and bound <= eps
        assert 2 * k.dim * walk_tail(_marginal(k), n, box + 1) <= eps


def test_law_over_budget_at_full_support_evolves():
    m = OrderMeasure(atoms=((0.7, 1.0), (1.4, 0.5)))
    tau = 0.5 * stability_sigma(m, 2, 0.1, 0.0).tau_max
    k, n = build_kernel(m, 2, 0.1, tau, 128), 47
    assert math.ceil(1.0 / tau) == n
    assert evolution._fft_bytes(n * 128, 2) > evolution.MEMORY_BUDGET_BYTES  # 2.5 GiB
    start = LatticeDistribution.delta(2, 0.1)
    r = _cut_radius(start, k, n)
    assert evolution._grid_side(r) == 1600
    tracemalloc.start()
    try:
        d = evolve(start, k, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.support_radius == r and peak <= evolution._fft_bytes(r, 2, 128)
    assert d.total_mass() + d.mass_deficit == pytest.approx(1.0, rel=0, abs=1e-12)
    assert 0.0 < d.wrap_bound <= TAIL_EPSILON


def _peak_bytes(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _evolve_peak(alpha, dim, h, K, n, start):
    """evolve's tracemalloc peak from ``start`` with a kernel at tau = tau_max / 2,
    ``_fft_bytes`` of the box it keeps and of the kernel, and that box's radius."""
    m = OrderMeasure.single(alpha)
    k = build_kernel(m, dim, h, 0.5 * stability_sigma(m, dim, h, 0.0).tau_max, K)
    r = _cut_radius(start, k, n)
    return _peak_bytes(evolve, start, k, n), evolution._fft_bytes(r, dim, K), r


@pytest.mark.parametrize("alpha, dim, h, K, n", [
    (1.0, 1, 0.01, 100_000, 1),  # _tail_reach's marginal arrays set the peak
    (1.5, 1, 0.2, 4096, 1),
    (1.5, 1, 0.2, 1000, 60),     # the circle sets it
    (1.5, 1, 0.2, 16, 2000),
    (1.5, 1, 0.2, 4096, 84),
    (1.5, 2, 0.2, 16, 27),
    (1.5, 2, 0.2, 40, 8),
    (0.7, 2, 0.1, 128, 14),
    (1.5, 2, 0.2, 32, 60),
    (1.5, 3, 0.2, 6, 4),
    (1.5, 3, 0.2, 8, 10),
    (0.7, 3, 0.2, 12, 3),
])
def test_fft_bytes_bound_the_measured_peak(alpha, dim, h, K, n):
    # the two phases are never live together: the estimate is the larger one,
    # within 1.5x of the peak in every dimension (the box, the kernel's orthant
    # and 16, 10 or 7 B per circle site estimated; 40 B per marginal site
    # measured, 48 estimated)
    for start in (LatticeDistribution.delta(dim, h), _even_start(dim, 21, 4, h)):
        peak, need, r = _evolve_peak(alpha, dim, h, K, n, start)
        assert peak <= need <= 1.5 * peak
        circle_sets_peak = need > evolution._MARGINAL_BYTES_PER_SITE * (2 * K + 1)
        if dim == 1 and start.mass.size == 1 and circle_sets_peak:
            # the circle sets the peak: a complex half grid and the real circle
            # it allocates, 16 B per node; the measured peak is 17.4 to 19.5 B
            assert peak <= 20 * evolution._grid_side(r)


def test_evolved_law_is_not_copied_again():
    # the box evolve returns is the law's mass, not a copy of it: the peak is
    # the box and the circle's last transforms
    peak, need, r = _evolve_peak(1.5, 3, 0.2, 16, 34, LatticeDistribution.delta(3, 0.2))
    assert peak <= need and peak < 1.85 * 8 * (2 * r + 1) ** 3


def test_wrap_bound_copy_is_gone_before_the_product():
    # the |mass| copy of the start is totalled and freed before the product
    # allocates: no copy of it is live beside the new box, which with the
    # circle's last transforms sets the peak
    m = OrderMeasure.single(1.5)
    k = build_kernel(m, 3, 0.2, 0.5 * stability_sigma(m, 3, 0.2, 0.0).tau_max, 4)
    start = _even_start(3, 121, 4, 0.2)
    tracemalloc.start()
    try:
        d = evolve(start, k, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < d.mass.nbytes + start.mass.nbytes


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_wrap_bound_weighs_the_start_by_its_absolute_mass(sign):
    start = _even_start(2, 5, 1, 0.2)
    mass = start.mass.copy()
    mass[2, 2] *= sign  # the centre is its own mirror image: the law stays even
    start = LatticeDistribution(dim=2, h=0.2, mass=mass)
    k, n = _master_eq_kernel(), 7
    bound = evolution._tail_reach(k, n)[1]
    assert bound > 0.0
    assert evolve(start, k, n).wrap_bound == bound * float(np.abs(mass).sum())


def test_over_budget_request_raises_before_allocating():
    k = build_kernel(OrderMeasure.single(1.5), 3, 0.1, 1e-4, trunc_radius=64)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="GiB"):
            evolve(LatticeDistribution.delta(3, 0.1), k, 10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _dense_cf(dist, xi):
    """The cosine sum over the whole cube: the CF of a law even in every coordinate,
    2**14 sites at a time."""
    sites, masses = dist.nonzero_sites()
    return sum(masses[i : i + 2**14] @ np.cos(sites[i : i + 2**14] @ (dist.h * xi.T))
               for i in range(0, len(masses), 2**14))


def test_blocked_cf_matches_dense_sum(monkeypatch):
    k = _master_eq_kernel()
    d = evolve(LatticeDistribution.delta(2, 0.2), k, 27)
    rho = np.linspace(0.5, 5.0, 12)
    xi = np.vstack([np.column_stack([rho, 0 * rho]), np.column_stack([rho, rho]) / np.sqrt(2)])
    orthant_sites = (d.support_radius + 1) ** 2
    assert orthant_sites * len(xi) > kernel_module._CF_BLOCK_ENTRIES  # beyond one dense table
    dense = _dense_cf(d, xi)
    # the default budget holds this law in one block; 16 floats give one
    # frequency and 8 sites of the first axis per block
    np.testing.assert_allclose(characteristic_function(d, xi), dense, rtol=0, atol=1e-12)
    monkeypatch.setattr(kernel_module, "_CF_BLOCK_ENTRIES", 16)
    np.testing.assert_allclose(characteristic_function(d, xi), dense, rtol=0, atol=1e-12)


def test_cf_memory_is_bounded_by_the_block():
    # an orthant of 501^2 = 251,001 sites x 64 frequencies: a dense phase or
    # cosine matrix over it alone would take 8 B per entry, about 128 MB
    d = _even_start(2, 1001, 3)
    xi = np.random.default_rng(3).normal(size=(64, 2))
    tracemalloc.start()
    try:
        cf = characteristic_function(d, xi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    np.testing.assert_allclose(cf, _dense_cf(d, xi), rtol=0, atol=1e-12)

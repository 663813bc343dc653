"""The numpy special functions against scipy and mpmath, their test-only oracles."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import fft as scipy_fft
from scipy import special as scipy_special

from fracwalk import DiffusionSymbol, OrderMeasure, analytic, green_density
from fracwalk.analytic import _MAX_ZEROS, _osc_zeros
from fracwalk.kernel import _lattice_zetas
from fracwalk.special import fht, gammainc_upper_scaled, j0, loggamma, next_fast_len
from oracles import j0_out_of_place, lattice_zeta_mpmath

EPS = np.finfo(float).eps


def test_j0_matches_mpmath_to_1e_15():
    rng = np.random.default_rng(7)
    x = np.concatenate([
        [0.0, 1e-8, 2.404825557695773, 29.999999, 30.0, 30.000001],
        rng.uniform(0.0, 30.0, 120),
        np.geomspace(30.0, 1e5, 120) * rng.uniform(0.99, 1.01, 120),
    ])
    with mp.workdps(30):
        exact = np.array([float(mp.besselj(0, mp.mpf(float(v)))) for v in x])
    np.testing.assert_allclose(j0(x), exact, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(j0(-x), j0(x))


def test_j0_matches_scipy():
    x = np.linspace(0.0, 1e5, 400_001)
    # scipy rounds the phase x - pi/4, an error of up to eps x / 2 in the phase
    # and so of eps/2 sqrt(2x/pi) in J0 (7e-15 at 1e5, against mpmath); j0
    # takes cos x and sin x of the exact argument instead
    phase = 0.5 * EPS * np.sqrt(2.0 * x / math.pi)
    assert np.all(np.abs(j0(x) - scipy_special.j0(x)) <= 1e-15 + phase)
    near = x <= 30.0
    np.testing.assert_allclose(j0(x[near]), scipy_special.j0(x[near]), rtol=0, atol=1e-15)


@pytest.mark.parametrize("lo, hi", [(0.0, 30.0), (30.0, 1e6)])
def test_j0_in_place_steps_keep_the_bits(lo, hi):
    # the midpoint sum and the Hankel Horner steps, run in place, give the bits
    # of the same formulas with a fresh array at every step
    rng = np.random.default_rng(int(hi))
    x = np.concatenate([rng.uniform(lo, hi, 200_000), np.geomspace(max(lo, 1e-12), hi, 20_001),
                        [lo, np.nextafter(lo, hi), np.nextafter(hi, lo), hi]])
    assert j0(x).tobytes() == j0_out_of_place(x).tobytes()


def test_j0_at_its_zeros_matches_mpmath():
    # J0 where it is steepest relative to its size: at the zeros themselves
    exact = scipy_special.jn_zeros(0, 600)
    with mp.workdps(30):
        at_zeros = np.array([float(mp.besselj(0, mp.mpf(float(v)))) for v in exact])
    np.testing.assert_allclose(j0(exact), at_zeros, rtol=0, atol=1e-15)


def test_2d_panel_edges_lie_near_the_zeros_of_j0():
    # McMahon's guesses, unrefined: the Aitken tails start at zero 33 (the
    # symbol oracle) and at zero 2000 (the Green quadrature)
    exact = scipy_special.jn_zeros(0, _MAX_ZEROS)
    rel = np.abs(_osc_zeros(2, _MAX_ZEROS) - exact) / exact
    assert np.all(rel <= 1e-3)
    assert np.all(rel[100:] <= 1e-15)


def test_loggamma_matches_scipy():
    rng = np.random.default_rng(3)
    z = rng.uniform(0.0, 3.0, 4000) + 1j * rng.uniform(0.0, 200.0, 4000)
    z = np.concatenate([z, [1e-6, 0.5, 1.0, 2.0, 3.0, 3.0 + 200j, 11.9 + 1e-3j, 12.0 + 0j]])
    want = scipy_special.loggamma(z)
    err = np.abs(loggamma(z) - want)
    # below |z| = 12 the Stirling series runs at z + 12, where log Gamma is
    # about 20, and the shift cancels most of it: some 40 ulps of 1 (8.9e-15
    # here, 8e-15 against mpmath), where scipy is within 3e-15
    assert np.all(err <= 2e-14 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("real", [False, True])
def test_next_fast_len_matches_scipy(real):
    sizes = range((1 << 17) + 1)
    got = [next_fast_len(n, real) for n in sizes]
    want = [scipy_fft.next_fast_len(n, real=real) for n in sizes]
    assert got == want


GREEN_CASES = [
    (1, OrderMeasure.with_density(lambda a: np.ones_like(a), 0.5, 1.5, atoms=[(0.8, 1.0), (1.6, 0.5)])),
    (1, OrderMeasure.single(0.3)),
    (2, OrderMeasure.from_atoms([(0.7, 1.0), (1.4, 0.5)])),
    (2, OrderMeasure.single(1.9)),
    (3, OrderMeasure.single(1.5)),
    (3, OrderMeasure.single(1.9)),
]


@pytest.mark.parametrize("dim, measure", GREEN_CASES)
def test_fht_matches_scipy_on_the_green_density_inputs(monkeypatch, dim, measure):
    calls = []

    def recording_fht(a, dln, mu, offset=0.0, bias=0.0):
        out = fht(a, dln, mu, offset=offset, bias=bias)
        calls.append((a, dln, mu, offset, bias, out))
        return out

    monkeypatch.setattr(analytic, "fht", recording_fht)
    green_density(DiffusionSymbol(measure, dim), 1.0)
    assert len(calls) == (6 if dim == 3 else 4)
    for a, dln, mu, offset, bias, out in calls:
        want = scipy_fft.fht(a, dln, mu, offset=offset, bias=bias)
        # compared before the output bias is restored: that factor spans many
        # decades across the window, and the rounding of the transform is
        # relative to its largest entry
        j = np.arange(len(a)) - 0.5 * (len(a) - 1)
        unbias = np.exp(bias * (j * dln + offset))
        scale = np.max(np.abs(want * unbias))
        np.testing.assert_allclose(out * unbias, want * unbias, rtol=0, atol=1e-14 * scale)


def test_gammainc_upper_scaled_matches_mpmath():
    a = np.linspace(-1.0, 2.5, 15)[:, None]
    x = math.pi * np.array([1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 24.0])
    with mp.workdps(30):
        want = np.array([
            [float(mp.exp(xj) * mp.power(xj, -ai) * mp.gammainc(ai, xj, mp.inf)) for xj in x]
            for ai in a[:, 0]
        ])
    np.testing.assert_allclose(gammainc_upper_scaled(a, x), want, rtol=1e-14, atol=0)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_lattice_zeta_matches_mpmath(dim):
    alphas = tuple(np.linspace(0.01, 2.0, 200).tolist())
    got = np.array(_lattice_zetas(alphas, dim))
    want = np.array([lattice_zeta_mpmath(a, dim) for a in alphas])
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
    # one exponent alone gives the value it has among the others
    assert _lattice_zetas(alphas[7:8], dim)[0] == got[7]


ALPHAS = [0.3, 0.7, 1.0, 1.4, 1.9]


@pytest.mark.parametrize("dim, alpha", [(1, a) for a in ALPHAS + [1.0 - 1e-9, 1.0 + 1e-9]]
                         + [(2, a) for a in ALPHAS])
def test_lattice_zeta_continuation_matches_mpmath(dim, alpha):
    # Z_N(N + alpha - 2), past the pole at s = N: 2 zeta(s) in 1D, where alpha = 1
    # is s = 0 and its limit -1, and 4 zeta(s/2) beta(s/2) in 2D
    shifted = alpha - 2.0
    got = _lattice_zetas((shifted,), dim)[0]
    with mp.workdps(30):
        s = dim + mp.mpf(shifted)
        if dim == 1:
            want = 2 * mp.zeta(s)
        else:
            want = 4 * mp.zeta(s / 2) * mp.dirichlet(s / 2, [0, 1, 0, -1])
        want = float(want)
    assert got == pytest.approx(want, rel=1e-14, abs=0)
    if dim == 1 and alpha == 1.0:
        assert got == -1.0
